"""Recursive agent ladder built on the grid machinery.

Level 2 asks queries by softmax over expected information gain.  Level 3
attributes a belief to the asker from its queries (either by maximum
likelihood over the mixture family or by Bayes over a particle ensemble) and
teaches strategically.  Level 4 asks queries that also make its own belief
identifiable, and level 5 scores a query's intent by the Bayes factor between
the literal and the identifiability-seeking asker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .model import (
    ABSOLUTE_DISTANCE,
    DENSITY_FLOOR,
    MIN_SIGMA,
    BeliefParams,
    DegenerateBeliefError,
    GridBelief,
    InvalidInputError,
    LabeledExample,
    Query,
    ThetaGrid,
    _normal_density,
    _require_finite,
    _require_probabilities,
    canonicalize,
    discretize_belief,
)
from .inference import (
    LN2,
    _TABLE_BLOCK,
    ImpossibleEvidenceError,
    QueryGrid,
    QueryPolicy,
    _bayes_rule,
    _binary_entropy,
    _likelihood_table,
    _require_rationality,
    _xlogx,
    answer_likelihoods,
    eig_map,
    expected_info_gain,
    likelihood_matrix,
    sample_index,
    softmax_policy,
)

# Batch size for vectorized search over candidate mixtures; bounds peak
# memory at roughly batch * n_grid_points * 8 bytes per temporary in the
# exact data term, batch * n_queries * 8 bytes in a summed block of whole
# (mu1, mu2) pairs and batch * _TABLE_BLOCK * 8 bytes in a block of the exact
# screen, which gathers the likelihood rows of its block's pairs into one
# reused (_TABLE_BLOCK, K) buffer.  The exact normalizer goes one row at a time
# and reads the grid's cached ``L`` in ``_TABLE_BLOCK``-candidate slices, so a
# call holds a few (_TABLE_BLOCK, K) temporaries and one (C,) gain map, whatever
# the query grid's size (:func:`_exact_log_normalizers`).
_SEARCH_CHUNK = 1024

# Search coordinates are (mu1, mu2, log s1, log s2, p_z): the sigma axes of
# the five search ranges are gridded in log space.
_LOG_SCALED = (False, False, True, True, False)


@dataclass(frozen=True)
class BeliefEnsemble:
    """Weighted finite set of candidate beliefs (a belief about a belief)."""

    particles: tuple[BeliefParams, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        particles = tuple(self.particles)
        object.__setattr__(self, "particles", particles)
        if len(particles) < 1:
            raise InvalidInputError("ensemble needs at least one particle")
        for p in particles:
            if not p.is_canonical:
                raise InvalidInputError(f"particle {p.astuple()} is not canonical")
        object.__setattr__(self, "weights",
                           _require_probabilities(self.weights, len(particles), "weights"))

    @classmethod
    def single(cls, bp: BeliefParams) -> "BeliefEnsemble":
        return cls((canonicalize(bp),), np.array([1.0]))


@dataclass(frozen=True)
class ParamRange:
    """Inclusive search range with a fixed grid count."""

    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        _require_finite(lo=self.lo, hi=self.hi)
        if self.count < 1:
            raise InvalidInputError("range count must be >= 1")
        if self.lo > self.hi:
            raise InvalidInputError(f"range lo {self.lo} > hi {self.hi}")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise InvalidInputError(f"range span hi - lo overflows, got [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        if self.count == 1:
            # Halving first cannot overflow; it is used only where the sum does.
            lo, hi = float(self.lo), float(self.hi)
            mid = 0.5 * (lo + hi)
            return np.array([mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class MleSearchConfig:
    """Coarse grid over the canonical mixture space plus local refinement.

    Sigma ranges are given in sigma units but gridded uniformly in log space.
    Each refinement pass re-grids every parameter on a window around the
    incumbent whose width halves per pass; windows are truncated so the
    search never leaves the coarse ranges.
    """

    mu1: ParamRange = ParamRange(-6.0, 0.0, 13)
    mu2: ParamRange = ParamRange(0.0, 6.0, 13)
    sigma1: ParamRange = ParamRange(0.25, 2.0, 4)
    sigma2: ParamRange = ParamRange(0.25, 2.0, 4)
    p_z: ParamRange = ParamRange(0.1, 0.9, 9)
    n_refine_iters: int = 3

    def __post_init__(self) -> None:
        if self.n_refine_iters < 0:
            raise InvalidInputError("n_refine_iters must be >= 0")
        if self.sigma1.lo < MIN_SIGMA or self.sigma2.lo < MIN_SIGMA:
            raise InvalidInputError(f"sigma ranges must start at >= {MIN_SIGMA!r}")
        if not 0.0 <= self.p_z.lo <= self.p_z.hi <= 1.0:
            raise InvalidInputError("p_z range must lie in [0, 1]")


def l2_query_policy(b: GridBelief, qg: QueryGrid, beta_a: float,
                    form: str = ABSOLUTE_DISTANCE) -> QueryPolicy:
    """Softmax-over-EIG query policy of the literal active learner."""
    return QueryPolicy(qg, softmax_policy(eig_map(b, qg, form), beta_a))


def l2_select_query(policy: QueryPolicy, rng: np.random.Generator) -> Query:
    """Draw one query from the policy by inverse CDF."""
    return policy.grid.query_at(sample_index(policy.probs, rng))


def _component_terms(points: np.ndarray, mu: np.ndarray, sigma: np.ndarray, lik: np.ndarray,
                     h_lik: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``S = sum phi``, ``A[q] = phi . L_q`` and ``B[q] = phi . H_b(L_q)`` of
    each (mu, sigma) mixture component, mu slowest: (U,), (U, Q) and (U, Q)
    for the (Q, K) answer-1 likelihoods ``lik`` and their entropies ``h_lik``.
    Each component density is floored at ``DENSITY_FLOOR``."""
    phi = _normal_density(points[None, :], np.repeat(mu, sigma.size)[:, None],
                          np.tile(sigma, mu.size)[:, None])
    phi = np.where(phi < DENSITY_FLOOR, 0.0, phi)
    return (np.einsum("uk->u", phi), np.einsum("uk,nk->un", phi, lik),
            np.einsum("uk,nk->un", phi, h_lik))


def _mixture_gains(axes: Sequence[np.ndarray], points: np.ndarray, lik: np.ndarray,
                   h_lik: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Dual-form gains ``H_b(m . L_q) - m . H_b(L_q)`` of every row of one
    search pass against the (Q, K) likelihoods ``lik``, as (rows, (R, Q) gains,
    (R,) empty mask) blocks of whole (mu1, mu2) pairs, about ``_SEARCH_CHUNK``
    rows each, in the row order of :func:`_search_rows`.  ``axes`` are
    ``(mu1, mu2, sigma1, sigma2, p_z)`` in sigma units.  A row mixes ``p *
    phi_a + (1 - p) * phi_b``, so the :func:`_component_terms` of each
    component are weighted by ``p`` or ``1 - p`` once per pass; a row needs
    only ``Z = p S_a + (1 - p) S_b`` and its mixes of ``A`` and ``B`` over
    ``Z``, broadcast over the block and finished in place.  A row with no
    representable grid mass (``Z = 0``) is marked empty and gets gain 0.
    """
    mu1, mu2, s1, s2, p = axes
    n = lik.shape[0]
    s_a, a_a, b_a = _component_terms(points, mu1, s1, lik, h_lik)
    s_b, a_b, b_b = _component_terms(points, mu2, s2, lik, h_lik)
    # On the axes (pair, sigma1, sigma2, p_z, query).
    shape_a, shape_b = (mu1.size, s1.size, 1, 1), (mu2.size, 1, s2.size, 1)
    s_a, a_a, b_a = s_a.reshape(shape_a), a_a.reshape(shape_a + (n,)), b_a.reshape(shape_a + (n,))
    s_b, a_b, b_b = s_b.reshape(shape_b), a_b.reshape(shape_b + (n,)), b_b.reshape(shape_b + (n,))
    q = 1.0 - p
    s_a, s_b = p * s_a, q * s_b
    a_a, b_a = p[:, None] * a_a, p[:, None] * b_a
    a_b, b_b = q[:, None] * a_b, q[:, None] * b_b
    n_pairs = mu1.size * mu2.size
    per_pair = s1.size * s2.size * p.size
    step = max(1, _SEARCH_CHUNK // per_pair)
    for start in range(0, n_pairs, step):
        stop = min(start + step, n_pairs)
        i, j = np.divmod(np.arange(start, stop), mu2.size)
        norm = s_a[i] + s_b[j]
        empty = norm <= 0.0
        norm[empty] = 1.0
        norm = norm[..., None]
        p1 = a_a[i] + a_b[j]
        p1 /= norm
        h = b_a[i] + b_b[j]
        h /= norm
        gain = _binary_entropy(p1)
        gain -= h
        yield slice(start * per_pair, stop * per_pair), gain.reshape(empty.size, n), empty.ravel()


def _summed_objective(axes: Sequence[np.ndarray], lik1: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Summed dual-form gain ``sum_q [H_b(m . L_q) - m . H_b(L_q)]`` of one
    search pass: an (I, J, K, L, M) array over the product grid of the axes
    ``(mu1, mu2, sigma1, sigma2, p_z)``, in sigma units, whose row-major ravel
    is the row order of :func:`_search_rows`.  ``lik1`` is (N, K) over the
    non-diagonal dataset queries (diagonals add zero gain).  The gains are
    :func:`_mixture_gains`' blocks, and a row with no representable grid mass
    scores -inf.
    """
    out = []
    for _, gain, empty in _mixture_gains(axes, points, lik1, _binary_entropy(lik1)):
        total = np.einsum("bn->b", gain)
        total[empty] = -np.inf
        out.append(total)
    return np.concatenate(out).reshape([ax.size for ax in axes])


def _search_rows(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The (B, 5) (mu1, s1, mu2, s2, p_z) rows of the grid over the five search
    axes ``(mu1, mu2, sigma1, sigma2, p_z)``, in sigma units, enumerated
    row-major; exact mode scores them."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([mesh[c].ravel() for c in (0, 2, 1, 3, 4)])


def _coarse_axes(ranges: Sequence[ParamRange]) -> list[np.ndarray]:
    """Coarse search axes of the (mu1, mu2, sigma1, sigma2, p_z) ranges."""
    return [np.log(r.values()) if log else r.values() for r, log in zip(ranges, _LOG_SCALED)]


# Exact mode, from here to :func:`_exact_objective`.  Its bits decide the
# rounding ties pinned by the benchmark reference: a last bit here can swap two
# tied candidates.  So a change to this block must keep all 12 ``exact``
# entries of ``perfbench/reference.json``.  The screen after it only chooses
# the rows this block scores.
def _mixture_mass_batch(params: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Normalized grid mass for a (B, 5) batch of mixture parameters.

    The floor applies to the mixture.  An overflowing squared z-score gives
    its limit, 0, as in :func:`querymind.model._normal_density`.
    """
    mu1 = params[:, 0][:, None]
    s1 = params[:, 1][:, None]
    mu2 = params[:, 2][:, None]
    s2 = params[:, 3][:, None]
    pz = params[:, 4][:, None]
    th = points[None, :]
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    with np.errstate(over="ignore"):
        z1 = (th - mu1) / s1
        z2 = (th - mu2) / s2
        dens = pz * (inv_sqrt_2pi / s1) * np.exp(-0.5 * z1 * z1) \
            + (1.0 - pz) * (inv_sqrt_2pi / s2) * np.exp(-0.5 * z2 * z2)
    dens = np.where(dens < DENSITY_FLOOR, 0.0, dens)
    total = np.sum(dens, axis=1)
    # Unrepresentable candidates keep all-zero mass and score -inf later.
    total[total <= 0.0] = 1.0
    return dens / total[:, None]


def _summed_eig_batch(mass: np.ndarray, lik1: np.ndarray) -> np.ndarray:
    """Sum over queries of the expected information gain for each mass row.

    The data term of :func:`_exact_data`.  Algebraically the gain map
    of :func:`_exact_log_normalizers` summed over the (N, K) likelihood rows,
    organized as fused multiply-sums:
    ``H(post_y) = ln p_y - (1/p_y) * sum_k t_yk ln t_yk`` with
    ``t_y = mass * lik_y``.  All reductions are fixed-order einsum loops, so
    results do not depend on BLAS threading.
    """
    a = _xlogx(mass)
    neg_h = np.einsum("bk->b", a)
    row_sum = np.einsum("bk->b", mass)
    total = np.zeros(mass.shape[0])
    for lik in lik1:
        lik0 = 1.0 - lik
        s1 = np.einsum("bk,k->b", mass, lik)
        s0 = row_sum - s1
        # sum_k t ln t = sum_k (m ln m) * lik + sum_k m * (lik ln lik)
        a1 = np.einsum("bk,k->b", a, lik)
        a0 = neg_h - a1
        q1 = a1 + np.einsum("bk,k->b", mass, _xlogx(lik))
        q0 = a0 + np.einsum("bk,k->b", mass, _xlogx(lik0))
        with np.errstate(divide="ignore", invalid="ignore"):
            h1 = np.log(s1) - q1 / s1
            h0 = np.log(s0) - q0 / s0
        # An answer with zero predictive probability adds its limit, 0.
        total += (np.where(s1 > 0, s1 * (-neg_h - h1), 0.0)
                  + np.where(s0 > 0, s0 * (-neg_h - h0), 0.0))
    return total


def _log_sum_exp(z: np.ndarray) -> np.floating:
    """``log sum exp(z)`` of a finite ``z``, its maximum taken out before ``exp``."""
    mx = np.max(z)
    return mx + np.log(np.sum(np.exp(z - mx)))


def _exact_log_normalizers(params: np.ndarray, grid: ThetaGrid, qg: QueryGrid, form: str,
                           beta_a: float) -> np.ndarray:
    """Exact-mode (B,) normalizers ``log sum_c exp(beta_a * EIG_c(m))`` of the
    (mu1, s1, mu2, s2, p_z) rows over the C candidates of ``qg``.

    The softmax query policy's normalizer.  Each row's mass ``m``
    (:func:`_mixture_mass_batch`) gets a gain map computed as the scalar path
    does it (the learner's update :func:`inference._bayes_rule`, posterior
    normalization, then entropy, answer 1 before answer 0) against the cached
    (C, K) likelihoods ``L`` of the candidate grid
    (:func:`inference._likelihood_table`), read ``_TABLE_BLOCK`` candidates at
    a time, into one (C,) gain map that every row reuses.
    """
    points = grid.points
    lik1 = _likelihood_table(grid, qg, form)
    n_cands = lik1.shape[0]
    out = np.empty(params.shape[0])
    gain = np.empty(n_cands)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(params.shape[0]):
            m = _mixture_mass_batch(params[r:r + 1], points)
            prior_h = -np.sum(_xlogx(m), axis=-1)
            for start in range(0, n_cands, _TABLE_BLOCK):
                rows = slice(start, start + _TABLE_BLOCK)
                terms = []
                for y in (1, 0):
                    post, p = _bayes_rule(m, lik1[rows], y)
                    post /= p[:, None]
                    h = -np.sum(_xlogx(post), axis=-1)
                    # An answer with zero predictive probability adds its limit, 0.
                    terms.append(np.where(p > 0, p * (prior_h - h), 0.0))
                gain[rows] = terms[0] + terms[1]
            out[r] = _log_sum_exp(beta_a * gain)
    return out


def _exact_score(data: np.ndarray, empty: np.ndarray, beta_a: float, log_z: np.ndarray,
                 n_queries: int) -> np.ndarray:
    """Exact-mode (B,) scores ``beta_a * data - n_queries * log_z`` of rows with
    data terms ``data`` (:func:`_summed_eig_batch`) and normalizers ``log_z``;
    a row marked ``empty`` (no representable grid mass) scores -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = beta_a * data - n_queries * log_z
        # At a huge beta_a both terms can overflow; such rows take an order
        # of the same sum whose terms stay within about beta_a * ln 2.
        big = ~np.isfinite(total)
        total[big] = n_queries * (beta_a * (data[big] / n_queries) - log_z[big])
    total[empty] = -np.inf
    return total


def _exact_data(params: np.ndarray, lik1: np.ndarray,
                points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-mode (B,) data terms ``sum_i EIG(q_i)`` (:func:`_summed_eig_batch`)
    of the (mu1, s1, mu2, s2, p_z) rows on their mixture mass, floored as a
    whole, and the (B,) mask of rows with no representable grid mass, scored
    ``_SEARCH_CHUNK`` rows at a time.  ``lik1`` is (N, K) over the
    non-diagonal dataset queries (diagonals add zero gain)."""
    data = np.empty(params.shape[0])
    empty = np.empty(params.shape[0], dtype=bool)
    for start in range(0, params.shape[0], _SEARCH_CHUNK):
        rows = slice(start, start + _SEARCH_CHUNK)
        mass = _mixture_mass_batch(params[rows], points)
        data[rows] = _summed_eig_batch(mass, lik1)
        empty[rows] = mass.sum(axis=1) <= 0.0
    return data, empty


def _exact_objective(params: np.ndarray, lik1: np.ndarray, points: np.ndarray,
                     beta_a: float, log_z: np.ndarray, n_queries: int) -> np.ndarray:
    """Exact-mode score of each (mu1, s1, mu2, s2, p_z) row: the normalized
    log-likelihood of the dataset queries under the softmax query policy.

    That is the data term ``beta_a * sum_i EIG(q_i)`` (:func:`_exact_data`)
    minus ``n_queries`` times the rows' (B,) normalizers ``log_z``
    (:func:`_exact_log_normalizers`), by :func:`_exact_score`.  A row with no
    representable grid mass scores -inf.
    """
    return _exact_score(*_exact_data(params, lik1, points), beta_a, log_z, n_queries)


def _screen_log_normalizers(axes: Sequence[np.ndarray], grid: ThetaGrid, qg: QueryGrid,
                            form: str, beta_a: float) -> np.ndarray:
    """(B,) screen normalizers ``log sum_c exp(beta_a * EIG_c)`` of every row
    of one search pass, in the row order of :func:`_search_rows`.

    The gains are :func:`_mixture_gains` of the rows, so they floor each
    component's density where :func:`_exact_log_normalizers` floors the
    mixture, and they round differently.  They are taken against the pairs
    with ``x1 < x2`` of the cached (C, K) likelihood table
    (:func:`inference._likelihood_table`), gathered ``_TABLE_BLOCK`` pairs at
    a time into one reused (``_TABLE_BLOCK``, K) buffer.  Each pair counts
    twice, for itself and its swap, whose dual-form gain is the same up to
    rounding (:func:`inference.eig_map`), and each of the n diagonal
    candidates counts as gain 0.  Each row's sum is an online log-sum-exp: a
    running maximum and a running sum rescaled to it, one pair block at a
    time, so no (rows, C) array is held.
    """
    lik = _likelihood_table(grid, qg, form)
    n = qg.n_per_axis
    i, j = np.triu_indices(n, k=1)
    upper = i * n + j
    n_rows = math.prod(ax.size for ax in axes)
    # The diagonals: n gains of 0, each exp(0 - 0) = 1.
    top = np.zeros(n_rows)
    acc = np.full(n_rows, float(n))
    empty = np.zeros(n_rows, dtype=bool)
    buf = np.empty((min(_TABLE_BLOCK, upper.size), lik.shape[1]))
    for start in range(0, upper.size, _TABLE_BLOCK):
        pairs = upper[start:start + _TABLE_BLOCK]
        block = np.take(lik, pairs, axis=0, out=buf[:pairs.size])
        for rows, gain, no_mass in _mixture_gains(axes, grid.points, block,
                                                  _binary_entropy(block)):
            empty[rows] = no_mass
            z = beta_a * gain
            new_top = np.maximum(top[rows], np.max(z, axis=1))
            acc[rows] *= np.exp(top[rows] - new_top)
            z -= new_top[:, None]
            acc[rows] += 2.0 * np.einsum("bc->b", np.exp(z))
            top[rows] = new_top
    log_z = top + np.log(acc)
    # A row without representable component mass has no normalizer, so its
    # screen score is not finite: the exact kernel decides it if its mixture
    # has mass after all.
    log_z[empty] = np.inf
    return log_z


# A screen score lies within this share of its two terms of the exact score,
# with room to spare: the two differ by about 1e-14 of the terms.  The window
# scales with the terms, not the score, because at a large beta_a they nearly
# cancel: at 1e8 a score of about 1 a query is off by about 1e-6.
_SCREEN_RTOL = 1e-9


def _exact_pass(axes: Sequence[np.ndarray], lik1: np.ndarray, grid: ThetaGrid, qg: QueryGrid,
                form: str, beta_a: float, n_queries: int) -> np.ndarray:
    """:func:`_exact_objective` of the rows of one search pass that could be
    its best, and -inf for the rest, so that the argmax, its value and the tie
    order are those of the whole pass under :func:`_exact_objective`.
    ``axes`` are the pass's ``(mu1, mu2, sigma1, sigma2, p_z)`` in sigma units.

    Every row is screened first: its data term is :func:`_exact_data`'s and
    its normalizer :func:`_screen_log_normalizers`'.  Per query, the
    screen score ``beta_a * data / n_queries - log Z`` lies within a window of
    ``_SCREEN_RTOL * (beta_a * |data| / n_queries + |log Z|)`` of the row's
    exact score per query.  The exact normalizer,
    :func:`_exact_log_normalizers`, decides every row whose window meets the
    best row's, and every row whose screen score is not finite; usually a row
    or two a pass.  :func:`_exact_score` scores a decided row on the data
    term the screen used, which has the bits :func:`_exact_objective` would
    compute again for that row.  A row with no representable mixture mass
    scores -inf in both kernels and is never decided.  At ``beta_a = 0`` every
    row ties, so every row is decided, at the cost of the whole pass.  If
    every decided row scores -inf, every other row is scored too.
    """
    params = _search_rows(axes)
    data, empty = _exact_data(params, lik1, grid.points)
    log_z = _screen_log_normalizers(axes, grid, qg, form, beta_a)
    with np.errstate(invalid="ignore"):
        per_query = beta_a * (data / n_queries)
        score = per_query - log_z
        slack = _SCREEN_RTOL * (np.abs(per_query) + np.abs(log_z))
        live = ~empty
        finite = live & np.isfinite(score)
        decided = live & ~finite
        if np.any(finite):
            best = np.argmax(np.where(finite, score, -np.inf))
            decided |= finite & (score + slack >= score[best] - slack[best])
    values = np.full(params.shape[0], -np.inf)

    def decide(rows: np.ndarray) -> None:
        if rows.size:
            values[rows] = _exact_score(
                data[rows], empty[rows], beta_a,
                _exact_log_normalizers(params[rows], grid, qg, form, beta_a), n_queries)

    decide(np.flatnonzero(decided))
    if not np.any(values > -np.inf):
        decide(np.flatnonzero(live & ~decided))
    return values


def _dataset_likelihoods(queries: Sequence[Query], points: np.ndarray,
                         form: str) -> np.ndarray:
    """(N, K) answer-1 likelihoods; diagonal queries contribute zero EIG."""
    pairs = np.array([[q.x1, q.x2] for q in queries if not q.is_diagonal]).reshape(-1, 2)
    return likelihood_matrix(points, pairs, form)


def mle_objective(queries: Sequence[Query], bp: BeliefParams, qg: QueryGrid,
                  grid: ThetaGrid, form: str = ABSOLUTE_DISTANCE,
                  exact: bool = False, beta_a: float = 50.0) -> float:
    """Attribution score of a candidate belief for an observed query set.

    The default is the summed expected information gain of the observed
    queries under the candidate belief (the query-policy normalizer is
    dropped).  With ``exact=True`` the score is the normalized log-likelihood
    of the queries under the softmax policy over the candidate grid,
    ``sum_i [beta_a * EIG(q_i) - log sum_xi exp(beta_a * EIG(xi))]``.
    """
    if len(queries) == 0:
        raise InvalidInputError("query dataset must be nonempty")
    _require_rationality(beta_a)
    b = discretize_belief(bp, grid)
    gains = [expected_info_gain(b, q, form) for q in queries]
    if not exact:
        return float(sum(gains))
    log_z = float(_log_sum_exp(beta_a * eig_map(b, qg, form)))
    return float(sum(beta_a * g - log_z for g in gains))


def _clip_window(center: float, width: float, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * width
    # An edge past the largest float overflows to its limit, which the range clips.
    with np.errstate(over="ignore"):
        return max(lo, center - half), min(hi, center + half)


def mle_belief(queries: Sequence[Query], cfg: MleSearchConfig, qg: QueryGrid,
               grid: ThetaGrid, form: str = ABSOLUTE_DISTANCE,
               exact: bool = False, beta_a: float = 50.0) -> BeliefParams:
    """Maximum-likelihood belief attribution by grid search plus refinement.

    Scans the full coarse grid of canonical mixture parameters, then runs
    ``n_refine_iters`` passes of the same-sized grid on windows around the
    incumbent that halve in width each pass.  Returns the canonical best
    candidate; its score is at least that of every coarse-grid point.  Ties
    resolve to the lowest enumeration index.  If every candidate scores -inf
    (none has mass on ``grid``), it raises :class:`DegenerateBeliefError`
    naming the ranges.

    A pass scores its axes, sigmas as ``np.exp`` of their log axes, with
    :func:`_summed_objective`, or with :func:`_exact_pass`, which gives the
    argmax and best value of :func:`_exact_objective` on every row.  The
    search returns the scored coordinates of the best row and centres the
    next windows on its log-axis coordinates.
    """
    if len(queries) == 0:
        raise InvalidInputError("query dataset must be nonempty")
    _require_rationality(beta_a)
    points = grid.points
    lik1 = _dataset_likelihoods(queries, points, form)

    # Axes take np.log and bounds math.log: the window edges depend on those
    # exact bits.
    ranges = (cfg.mu1, cfg.mu2, cfg.sigma1, cfg.sigma2, cfg.p_z)
    axes = _coarse_axes(ranges)
    bounds = [(math.log(r.lo), math.log(r.hi)) if log else (r.lo, r.hi)
              for r, log in zip(ranges, _LOG_SCALED)]
    widths = [hi - lo for lo, hi in bounds]

    best_params: list[float] | None = None
    best_value = -np.inf
    for _ in range(1 + cfg.n_refine_iters):
        scored = [np.exp(ax) if log else ax for ax, log in zip(axes, _LOG_SCALED)]
        if not exact:
            values = _summed_objective(scored, lik1, points)
        else:
            values = _exact_pass(scored, lik1, grid, qg, form, beta_a, len(queries))
        i = int(np.argmax(values))
        if best_params is None or values.flat[i] > best_value:
            best_value = float(values.flat[i])
            index = np.unravel_index(i, [ax.size for ax in axes])
            centers = [ax[k] for ax, k in zip(axes, index)]
            best_params = [ax[k] for ax, k in zip(scored, index)]
        widths = [0.5 * w for w in widths]
        axes = [np.linspace(*_clip_window(c, w, *b), r.count) if r.count > 1 else np.array([c])
                for r, w, b, c in zip(ranges, widths, bounds, centers)]
    if best_value == -np.inf:
        raise DegenerateBeliefError(
            f"no candidate belief has representable mass on the theta grid "
            f"[{float(grid.lo)!r}, {float(grid.hi)!r}]: every candidate in the search ranges "
            + ", ".join(f"{name} [{float(r.lo)!r}, {float(r.hi)!r}]"
                        for name, r in zip(("mu1", "mu2", "sigma1", "sigma2", "p_z"), ranges))
            + " scored -inf")
    mu1, mu2, sigma1, sigma2, p_z = best_params
    return canonicalize(BeliefParams(mu1, sigma1, mu2, sigma2, p_z))


def _l2_policy_matrix(ensemble: BeliefEnsemble, qg: QueryGrid, grid: ThetaGrid,
                      beta_a: float, form: str) -> tuple[np.ndarray, np.ndarray]:
    """(J, C) gain maps and (J, C) level-2 query policies of the particles."""
    maps = np.stack([eig_map(discretize_belief(bp, grid), qg, form)
                     for bp in ensemble.particles])
    return maps, softmax_policy(maps, beta_a)


def _observer_posteriors(weights: np.ndarray, policies: np.ndarray) -> np.ndarray:
    """The level-3 observer's (J, C) particle posteriors ``w_j pi_j(c) / sum_i w_i pi_i(c)``
    for (J,) weights and (J, C) level-2 policies.  A candidate that no particle
    would ask (marginal exactly 0) gives every particle weight 0, not 0/0."""
    joint = weights[:, None] * policies
    marginal = np.sum(joint, axis=0)
    return np.divide(joint, marginal, out=np.zeros_like(joint), where=marginal > 0)


def tom_posterior(ensemble: BeliefEnsemble, observed: Query, qg: QueryGrid,
                  grid: ThetaGrid, beta_a: float,
                  form: str = ABSOLUTE_DISTANCE) -> BeliefEnsemble:
    """Reweight belief particles by how likely each was to ask the observed query.

    :func:`_observer_posteriors` on the observed query's column; a query that
    no particle would ask raises :class:`ImpossibleEvidenceError`.
    """
    idx = qg.index_of(observed)
    policies = _l2_policy_matrix(ensemble, qg, grid, beta_a, form)[1]
    weights = _observer_posteriors(ensemble.weights, policies[:, [idx]])[:, 0]
    if not np.any(weights > 0):
        raise ImpossibleEvidenceError(f"query {observed} impossible under every particle")
    return BeliefEnsemble(ensemble.particles, weights)


def teaching_candidates(qg: QueryGrid) -> list[LabeledExample]:
    """Full data-point candidates in (candidate index, answer) order."""
    out = []
    for x1, x2 in qg.candidates:
        q = Query(float(x1), float(x2))
        out.append(LabeledExample(q, 0))
        out.append(LabeledExample(q, 1))
    return out


def l3_teaching_utility(tc: LabeledExample, theta_true: float, prior: GridBelief,
                        form: str = ABSOLUTE_DISTANCE) -> float:
    """Posterior mass the learner would place on the true ideal point's cell:
    the example's entry of :func:`_teaching_utility_table` for one prior, so an
    answer of zero likelihood under the prior has utility 0."""
    lik1 = answer_likelihoods(prior.grid.points, tc.query, form)[None, :]
    return float(_teaching_utility_table(theta_true, [prior], None, [lik1])[0][0, tc.y])


def _teaching_utility_table(theta_true: float, priors: Sequence[GridBelief],
                            weights: Sequence[float] | None,
                            likelihoods: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(C, 2) ensemble-averaged posterior mass on the true ideal point's cell
    after each candidate query is answered ``y = 0`` (column 0) or 1, and the
    (C, 2) mask of the answers that some prior gives nonzero likelihood.
    ``likelihoods`` holds, for each prior, the (C, K) answer-1 likelihoods of
    the candidates on that prior's grid, read ``_TABLE_BLOCK`` candidates at a
    time.  Each posterior is the learner's own update,
    :func:`inference._bayes_rule`; an answer of zero likelihood under a prior
    adds utility 0 for that prior."""
    if len(priors) == 0:
        raise InvalidInputError("need at least one learner-belief particle")
    if weights is None:
        w = np.full(len(priors), 1.0 / len(priors))
    else:
        w = _require_probabilities(weights, len(priors), "weights")
    n_cands = likelihoods[0].shape[0]
    total = np.zeros((n_cands, 2))
    possible = np.zeros(total.shape, dtype=bool)
    for weight, prior, lik1 in zip(w, priors, likelihoods, strict=True):
        target = prior.grid.index_of(theta_true)
        for start in range(0, n_cands, _TABLE_BLOCK):
            rows = slice(start, start + _TABLE_BLOCK)
            for y in (0, 1):
                t, s = _bayes_rule(prior.mass, lik1[rows], y)
                total[rows, y] += weight * np.divide(t[:, target], s, out=np.zeros_like(s),
                                                     where=s > 0)
                possible[rows, y] |= s > 0
    return total, possible


def l3_teaching_utilities(theta_true: float, priors: Sequence[GridBelief],
                          weights: Sequence[float] | None, qg: QueryGrid,
                          form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """Ensemble-averaged teaching utility of every (query, answer) candidate.

    Output order matches :func:`teaching_candidates`: index ``2c + y`` for
    candidate ``c``.  Expectation is over the teacher's uncertainty about the
    learner's belief, given as grid beliefs with weights.  The likelihoods are
    the cached table of each prior's grid, :func:`inference._likelihood_table`.
    """
    tables = [_likelihood_table(p.grid, qg, form) for p in priors]
    return _teaching_utility_table(theta_true, priors, weights, tables)[0].ravel()


def l3_teaching_policy(theta_true: float, priors: Sequence[GridBelief],
                       weights: Sequence[float] | None, qg: QueryGrid, beta_h: float,
                       form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """Softmax teaching policy over full data points (query plus answer)."""
    return softmax_policy(l3_teaching_utilities(theta_true, priors, weights, qg, form), beta_h)


def l3_answer_policy(theta_true: float, q: Query, priors: Sequence[GridBelief],
                     weights: Sequence[float] | None, beta_h: float,
                     form: str = ABSOLUTE_DISTANCE) -> float:
    """Probability that a strategic teacher answers ``y = 1`` to a fixed query.

    An answer that no prior can explain (zero likelihood under every prior)
    gets probability 0, so the teacher never gives an answer that its model
    of the learner cannot take; otherwise the softmax of the two utilities.
    """
    return _answer_policy(theta_true, priors, weights,
                          [answer_likelihoods(p.grid.points, q, form)[None, :] for p in priors],
                          beta_h)


def _answer_policy(theta_true: float, priors: Sequence[GridBelief],
                   weights: Sequence[float] | None, likelihoods: Sequence[np.ndarray],
                   beta_h: float) -> float:
    """:func:`l3_answer_policy` for the query whose (1, K) answer-1 likelihoods
    on each prior's grid are the matching entry of ``likelihoods``."""
    u, possible = _teaching_utility_table(theta_true, priors, weights, likelihoods)
    if not possible[0].all():
        return float(possible[0, 1])
    return float(softmax_policy(u[0], beta_h)[1])


def l4_utility(q: Query, true_index: int, ensemble: BeliefEnsemble, qg: QueryGrid,
               grid: ThetaGrid, beta_a: float, form: str = ABSOLUTE_DISTANCE) -> float:
    """How identifiable the asker's true belief is after this query is observed.

    The true belief must be one of the ensemble particles; the utility is its
    posterior weight under the observer's particle reweighting.
    """
    if not 0 <= true_index < len(ensemble.particles):
        raise InvalidInputError(f"true_index {true_index} out of range")
    return float(tom_posterior(ensemble, q, qg, grid, beta_a, form).weights[true_index])


def _l4_policy_matrix(ensemble: BeliefEnsemble, lam: float, qg: QueryGrid, grid: ThetaGrid,
                      beta_a: float, form: str) -> tuple[np.ndarray, np.ndarray]:
    """(J, C) level-2 and level-4 query policies; level-4 row j takes particle j
    as the asker's true belief and mixes its gain map with its observer posterior
    (:func:`_observer_posteriors`) scaled by ln 2, the gain ceiling of a binary
    answer, so that ``lam = 0`` reproduces the level-2 utilities bit for bit."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidInputError(f"lambda must be in [0, 1], got {lam}")
    maps, policies = _l2_policy_matrix(ensemble, qg, grid, beta_a, form)
    ident = _observer_posteriors(ensemble.weights, policies)
    utilities = (1.0 - lam) * maps + lam * LN2 * ident
    return policies, softmax_policy(utilities, beta_a)


def l4_query_policy(true_index: int, ensemble: BeliefEnsemble, lam: float,
                    qg: QueryGrid, grid: ThetaGrid, beta_a: float,
                    form: str = ABSOLUTE_DISTANCE) -> QueryPolicy:
    """Query policy trading off information gain against belief identifiability:
    row ``true_index`` of :func:`_l4_policy_matrix`."""
    if not 0 <= true_index < len(ensemble.particles):
        raise InvalidInputError(f"true_index {true_index} out of range")
    policies = _l4_policy_matrix(ensemble, lam, qg, grid, beta_a, form)[1]
    return QueryPolicy(qg, policies[true_index])


def bayes_factor(q: Query, ensemble: BeliefEnsemble, beta_a: float, lam: float,
                 qg: QueryGrid, grid: ThetaGrid, form: str = ABSOLUTE_DISTANCE) -> float:
    """Literal-vs-rhetorical evidence ratio ``sum_j w_j pi2_j(q) / sum_j w_j pi4_j(q)``
    of an observed query, over the policies of :func:`_l4_policy_matrix`.

    Values above 1 favor the information-seeking reading.  A level-4 marginal
    that underflows to 0 raises :class:`ImpossibleEvidenceError`.
    """
    l2, l4 = _l4_policy_matrix(ensemble, lam, qg, grid, beta_a, form)
    idx = qg.index_of(q)
    numerator = float(np.sum(ensemble.weights * l2[:, idx]))
    denominator = float(np.sum(ensemble.weights * l4[:, idx]))
    if denominator <= 0.0:
        raise ImpossibleEvidenceError("level-4 marginal likelihood underflowed to zero")
    return numerator / denominator
