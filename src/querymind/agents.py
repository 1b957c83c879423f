"""Recursive agent ladder built on the grid machinery.

Level 2 asks queries by softmax over expected information gain.  Level 3
attributes a belief to the asker from its queries (either by maximum
likelihood over the mixture family or by Bayes over a particle ensemble) and
teaches strategically.  Level 4 asks queries that also make its own belief
identifiable, and level 5 scores a query's intent by the Bayes factor between
the literal and the identifiability-seeking asker.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp, xlogy

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
    ImpossibleEvidenceError,
    QueryGrid,
    QueryPolicy,
    _binary_entropy,
    _log_normalizers,
    _require_rationality,
    eig_map,
    expected_info_gain,
    likelihood_matrix,
    posterior_update,
    sample_index,
    softmax_policy,
)

# Batch size for vectorized search over candidate mixtures; bounds peak
# memory at roughly batch * n_grid_points * 8 bytes per temporary in exact
# mode and batch * n_queries * 8 bytes in the summed kernel.  While
# :func:`_exact_log_normalizers` runs it also holds the (C, K) candidate-grid
# likelihoods ``L``, their shared complement ``1 - L`` and one (C, K) buffer
# per normalizer worker, all freed before the pass scores its data term; a
# search whose coarse normalizers are cached builds them only for its
# refinement passes.
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

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([0.5 * (self.lo + self.hi)])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class MleSearchConfig:
    """Coarse grid over the canonical mixture space plus local refinement.

    Sigma ranges are given in sigma units but gridded uniformly in log space.
    Each refinement pass re-grids every parameter on a window around the
    incumbent whose width shrinks by ``refine_shrink`` per pass; windows are
    truncated so the search never leaves the coarse ranges.
    """

    mu1: ParamRange = ParamRange(-6.0, 0.0, 13)
    mu2: ParamRange = ParamRange(0.0, 6.0, 13)
    sigma1: ParamRange = ParamRange(0.25, 2.0, 4)
    sigma2: ParamRange = ParamRange(0.25, 2.0, 4)
    p_z: ParamRange = ParamRange(0.1, 0.9, 9)
    n_refine_iters: int = 3
    refine_shrink: float = 0.5

    def __post_init__(self) -> None:
        if self.n_refine_iters < 0:
            raise InvalidInputError("n_refine_iters must be >= 0")
        if not 0.0 < self.refine_shrink < 1.0:
            raise InvalidInputError("refine_shrink must be in (0, 1)")
        if self.sigma1.lo < MIN_SIGMA or self.sigma2.lo < MIN_SIGMA:
            raise InvalidInputError(f"sigma ranges must start at >= {MIN_SIGMA!r}")
        if not 0.0 <= self.p_z.lo <= self.p_z.hi <= 1.0:
            raise InvalidInputError("p_z range must lie in [0, 1]")


def l2_query_policy(b: GridBelief, qg: QueryGrid, beta_a: float,
                    form: str = ABSOLUTE_DISTANCE) -> QueryPolicy:
    """Softmax-over-EIG query policy of the literal active learner."""
    return QueryPolicy(qg, softmax_policy(eig_map(b, qg, form), beta_a))


def l2_select_query(policy: QueryPolicy, mode: str = "sample",
                    rng: np.random.Generator | None = None) -> Query:
    """Realize one query from the policy.

    ``sample`` draws by inverse CDF; ``argmax`` takes the most probable
    candidate, breaking ties toward the lowest enumeration index.
    """
    if mode == "argmax":
        idx = int(np.argmax(policy.probs))
    elif mode == "sample":
        if rng is None:
            raise InvalidInputError("sample mode needs a random generator")
        idx = sample_index(policy.probs, rng)
    else:
        raise InvalidInputError(f"unknown selection mode {mode!r}")
    return policy.grid.query_at(idx)


def _mixture_mass_batch(params: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Normalized grid mass for a (B, 5) batch of mixture parameters.

    Exact mode only, like :func:`_summed_eig_batch`: its bits decide the
    rounding ties pinned by the benchmark reference, so it stays frozen until
    that reference is regenerated.  The floor applies to the mixture.  An
    overflowing squared z-score gives its limit, 0, as in
    :func:`querymind.model._normal_density`.
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
    bad = total <= 0.0
    if np.any(bad):
        # Unrepresentable candidates score -inf later instead of erroring out.
        total = np.where(bad, 1.0, total)
        dens[bad] = 0.0
    mass = dens / total[:, None]
    return mass


def _summed_eig_batch(mass: np.ndarray, lik1: np.ndarray) -> np.ndarray:
    """Sum over queries of the expected information gain for each mass row.

    Exact mode only: it is the data term of the exact objective, whose bits
    decide the rounding ties pinned by the benchmark reference, so it stays
    frozen until that reference is regenerated.  Algebraically the gain map
    of :func:`querymind.inference._posterior_gain_map` summed over the (N, K)
    likelihood rows, organized as fused multiply-sums:
    ``H(post_y) = ln p_y - (1/p_y) * sum_k t_yk ln t_yk`` with
    ``t_y = mass * lik_y``.  All reductions are fixed-order einsum loops, so
    results do not depend on BLAS threading.
    """
    a = xlogy(mass, mass)
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
        q1 = a1 + np.einsum("bk,k->b", mass, xlogy(lik, lik))
        q0 = a0 + np.einsum("bk,k->b", mass, xlogy(lik0, lik0))
        with np.errstate(divide="ignore", invalid="ignore"):
            h1 = np.log(s1) - q1 / s1
            h0 = np.log(s0) - q0 / s0
        # An answer with zero predictive probability adds its limit, 0.
        total += (np.where(s1 > 0, s1 * (-neg_h - h1), 0.0)
                  + np.where(s0 > 0, s0 * (-neg_h - h0), 0.0))
    return total


def _sorted_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` without its argsort: the
    distinct values come from a sort, and each entry's index from a binary
    search among them."""
    distinct = np.unique(values)
    return distinct, np.searchsorted(distinct, values)


def _separable_summed_eig(params: np.ndarray, lik1: np.ndarray,
                          points: np.ndarray) -> np.ndarray:
    """Summed dual-form gain ``sum_q [H_b(m . L_q) - m . H_b(L_q)]`` per row.

    Every row is ``p * phi_a + (1 - p) * phi_b`` over its two components, so
    the grid-sized products are taken once per distinct ``(mu, sigma)``:
    ``S_u = sum phi_u``, ``A[u, q] = phi_u . L_q``, ``B[u, q] = phi_u . H_b(L_q)``.
    A row then needs only ``Z = p S_a + (1 - p) S_b`` and its two mixes of
    ``A`` and ``B``, divided by ``Z``.
    """
    n = params.shape[0]
    mu_vals, mu_idx = _sorted_codes(np.concatenate([params[:, 0], params[:, 2]]))
    s_vals, s_idx = _sorted_codes(np.concatenate([params[:, 1], params[:, 3]]))
    # Number the (mu, sigma) pairs present in ascending key order through a
    # dense presence table; the table has one entry per pair of distinct
    # values, which a search grid keeps small.
    key = mu_idx * s_vals.size + s_idx
    present = np.zeros(mu_vals.size * s_vals.size, dtype=bool)
    present[key] = True
    keys = np.flatnonzero(present)
    comp = (np.cumsum(present) - 1)[key]
    mu = mu_vals[keys // s_vals.size][:, None]
    sigma = s_vals[keys % s_vals.size][:, None]
    phi = _normal_density(points[None, :], mu, sigma)
    phi = np.where(phi < DENSITY_FLOOR, 0.0, phi)
    s = np.einsum("uk->u", phi)
    a = np.einsum("uk,nk->un", phi, lik1)
    b = np.einsum("uk,nk->un", phi, _binary_entropy(lik1))
    comp_a, comp_b = comp[:n], comp[n:]
    out = np.empty(n)
    for start in range(0, n, _SEARCH_CHUNK):
        rows = slice(start, start + _SEARCH_CHUNK)
        ca, cb = comp_a[rows], comp_b[rows]
        p = params[rows, 4]
        norm = p * s[ca] + (1.0 - p) * s[cb]
        empty = norm <= 0.0
        norm = np.where(empty, 1.0, norm)[:, None]
        p, q = p[:, None], 1.0 - p[:, None]
        p1 = (p * a[ca] + q * a[cb]) / norm
        h = (p * b[ca] + q * b[cb]) / norm
        total = np.einsum("bn->b", _binary_entropy(p1) - h)
        total[empty] = -np.inf
        out[rows] = total
    return out


def _search_rows(axes: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The grid over five search axes, enumerated row-major: its (B, 5) search
    coordinates and the (B, 5) (mu1, s1, mu2, s2, p_z) rows, in sigma units,
    that the objective kernels score."""
    mesh = np.meshgrid(*axes, indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)
    params = np.column_stack([cand[:, 0], np.exp(cand[:, 2]),
                              cand[:, 1], np.exp(cand[:, 3]), cand[:, 4]])
    return cand, params


def _coarse_axes(ranges: Sequence[ParamRange]) -> list[np.ndarray]:
    """Coarse search axes of the (mu1, mu2, sigma1, sigma2, p_z) ranges."""
    return [np.log(r.values()) if log else r.values() for r, log in zip(ranges, _LOG_SCALED)]


def _exact_log_normalizers(params: np.ndarray, grid: ThetaGrid, qg: QueryGrid, form: str,
                           beta_a: float) -> np.ndarray:
    """Exact-mode (B,) normalizers ``log sum_c exp(beta_a * EIG_c(m))`` of the
    (mu1, s1, mu2, s2, p_z) rows over the candidate grid of ``qg``.

    The one normalizer loop: each chunk's mixture mass goes through
    :func:`querymind.inference._log_normalizers` with the (C, K) likelihood
    matrix ``L`` of the candidate grid and one shared (C, K) ``1 - L``, which
    are freed when it returns.
    """
    points = grid.points
    grid_lik1 = likelihood_matrix(points, qg.candidates, form)
    grid_lik0 = 1.0 - grid_lik1
    log_z = np.empty(params.shape[0])
    for start in range(0, params.shape[0], _SEARCH_CHUNK):
        rows = slice(start, start + _SEARCH_CHUNK)
        log_z[rows] = _log_normalizers(_mixture_mass_batch(params[rows], points),
                                       grid_lik1, grid_lik0, beta_a)
    return log_z


@functools.lru_cache(maxsize=8)
def _coarse_log_normalizers(ranges: tuple[ParamRange, ...], grid: ThetaGrid, qg: QueryGrid,
                            form: str, beta_a: float) -> np.ndarray:
    """Read-only :func:`_exact_log_normalizers` of every row of a coarse search grid.

    ``ranges`` are the (mu1, mu2, sigma1, sigma2, p_z) search ranges; rows
    follow :func:`mle_belief`'s coarse pass.  A normalizer depends on the
    candidate belief, the grids, the reward form and ``beta_a``, never on the
    observed queries, so every dataset searched on one coarse grid shares
    this array.  Built lazily, once per key.
    """
    log_z = _exact_log_normalizers(_search_rows(_coarse_axes(ranges))[1], grid, qg, form,
                                   beta_a)
    log_z.flags.writeable = False
    return log_z


def _objective_batch(params: np.ndarray, lik1: np.ndarray, points: np.ndarray,
                     exact: bool, beta_a: float, log_z: np.ndarray | None,
                     n_queries: int) -> np.ndarray:
    """Summed EIG of the dataset queries for each (mu1, s1, mu2, s2, p_z) row.

    ``lik1`` is (N, K) over the non-diagonal dataset queries (diagonals add
    zero gain).  The summed score uses the separable dual form
    (:func:`_separable_summed_eig`), where each component density is floored
    at ``DENSITY_FLOOR`` on its own before it is mixed; it ignores ``log_z``.
    In exact mode the result is the normalized log-likelihood under the
    softmax query policy: the data term ``beta_a * sum_i EIG(q_i)`` on the
    mixture mass, floored as a whole, minus ``n_queries`` times the rows'
    (B,) normalizers ``log_z`` (:func:`_exact_log_normalizers`).
    In both modes a row with no representable grid mass scores -inf.
    """
    if not exact:
        return _separable_summed_eig(params, lik1, points)
    out = np.empty(params.shape[0])
    for start in range(0, params.shape[0], _SEARCH_CHUNK):
        rows = slice(start, start + _SEARCH_CHUNK)
        mass = _mixture_mass_batch(params[rows], points)
        total = beta_a * _summed_eig_batch(mass, lik1) - n_queries * log_z[rows]
        total[mass.sum(axis=1) <= 0.0] = -np.inf
        out[rows] = total
    return out


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
    log_z = float(logsumexp(beta_a * eig_map(b, qg, form)))
    return float(sum(beta_a * g - log_z for g in gains))


def _clip_window(center: float, width: float, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * width
    return max(lo, center - half), min(hi, center + half)


def mle_belief(queries: Sequence[Query], cfg: MleSearchConfig, qg: QueryGrid,
               grid: ThetaGrid, form: str = ABSOLUTE_DISTANCE,
               exact: bool = False, beta_a: float = 50.0) -> BeliefParams:
    """Maximum-likelihood belief attribution by grid search plus refinement.

    Scans the full coarse grid of canonical mixture parameters, then runs
    ``n_refine_iters`` passes of the same-sized grid on shrinking windows
    around the incumbent.  Returns the canonical best candidate; its score is
    at least that of every coarse-grid point.  Ties resolve to the lowest
    enumeration index.  If every candidate scores -inf (none has mass on
    ``grid``), it raises :class:`DegenerateBeliefError` naming the ranges.

    In exact mode the coarse pass takes its normalizers from
    :func:`_coarse_log_normalizers`, computed once per process for each
    coarse grid, theta grid, query grid, reward form and ``beta_a``; each
    refinement pass, whose window follows the data, computes its own with
    :func:`_exact_log_normalizers`.
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

    best_params: np.ndarray | None = None
    best_value = -np.inf
    for n_pass in range(1 + cfg.n_refine_iters):
        cand, params = _search_rows(axes)
        # Refinement windows follow the data, so only the coarse pass's
        # normalizers are cached.
        log_z = None
        if exact and n_pass == 0:
            log_z = _coarse_log_normalizers(ranges, grid, qg, form, float(beta_a))
        elif exact:
            log_z = _exact_log_normalizers(params, grid, qg, form, beta_a)
        values = _objective_batch(params, lik1, points, exact, beta_a, log_z, len(queries))
        i = int(np.argmax(values))
        if best_params is None or values[i] > best_value:
            best_value = float(values[i])
            best_params = cand[i].copy()
        widths = [w * cfg.refine_shrink for w in widths]
        axes = [np.linspace(*_clip_window(c, w, *b), r.count) if r.count > 1 else np.array([c])
                for r, w, b, c in zip(ranges, widths, bounds, best_params)]
    if best_value == -np.inf:
        raise DegenerateBeliefError(
            f"no candidate belief has representable mass on the theta grid "
            f"[{float(grid.lo)!r}, {float(grid.hi)!r}]: every candidate in the search ranges "
            + ", ".join(f"{name} [{float(r.lo)!r}, {float(r.hi)!r}]"
                        for name, r in zip(("mu1", "mu2", "sigma1", "sigma2", "p_z"), ranges))
            + " scored -inf")
    bp = BeliefParams(best_params[0], math.exp(best_params[2]),
                      best_params[1], math.exp(best_params[3]), best_params[4])
    return canonicalize(bp)


def _l2_policy_matrix(ensemble: BeliefEnsemble, qg: QueryGrid, grid: ThetaGrid,
                      beta_a: float, form: str) -> tuple[np.ndarray, np.ndarray]:
    """(J, C) gain maps and (J, C) level-2 query policies of the particles."""
    maps = np.stack([eig_map(discretize_belief(bp, grid), qg, form)
                     for bp in ensemble.particles])
    policies = np.stack([softmax_policy(m, beta_a) for m in maps])
    return maps, policies


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
    """Posterior mass the learner would place on the true ideal point's cell.

    An answer of zero likelihood under the prior has utility 0, as in
    :func:`l3_teaching_utilities`.
    """
    target = prior.grid.index_of(theta_true)
    try:
        post = posterior_update(prior, tc.query, tc.y, form)
    except ImpossibleEvidenceError:
        return 0.0
    return float(post.mass[target])


def _teaching_utility_table(theta_true: float, priors: Sequence[GridBelief],
                            weights: Sequence[float] | None,
                            cands: np.ndarray, form: str) -> np.ndarray:
    """(C, 2) ensemble-averaged posterior mass on the true ideal point's cell
    after each candidate query is answered ``y = 0`` (column 0) or 1.  An
    answer of zero likelihood under a prior adds utility 0 for that prior."""
    if len(priors) == 0:
        raise InvalidInputError("need at least one learner-belief particle")
    if weights is None:
        w = np.full(len(priors), 1.0 / len(priors))
    else:
        w = _require_probabilities(weights, len(priors), "weights")
    total = np.zeros((cands.shape[0], 2))
    for weight, prior in zip(w, priors):
        target = prior.grid.index_of(theta_true)
        lik1 = likelihood_matrix(prior.grid.points, cands, form)
        for y, lik in ((0, 1.0 - lik1), (1, lik1)):
            t = prior.mass[None, :] * lik
            s = np.sum(t, axis=1)
            total[:, y] += weight * np.divide(t[:, target], s, out=np.zeros_like(s),
                                              where=s > 0)
    return total


def l3_teaching_utilities(theta_true: float, priors: Sequence[GridBelief],
                          weights: Sequence[float] | None, qg: QueryGrid,
                          form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """Ensemble-averaged teaching utility of every (query, answer) candidate.

    Output order matches :func:`teaching_candidates`: index ``2c + y`` for
    candidate ``c``.  Expectation is over the teacher's uncertainty about the
    learner's belief, given as grid beliefs with weights.
    """
    return _teaching_utility_table(theta_true, priors, weights, qg.candidates, form).ravel()


def l3_teaching_policy(theta_true: float, priors: Sequence[GridBelief],
                       weights: Sequence[float] | None, qg: QueryGrid, beta_h: float,
                       form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """Softmax teaching policy over full data points (query plus answer)."""
    return softmax_policy(l3_teaching_utilities(theta_true, priors, weights, qg, form), beta_h)


def l3_answer_policy(theta_true: float, q: Query, priors: Sequence[GridBelief],
                     weights: Sequence[float] | None, beta_h: float,
                     form: str = ABSOLUTE_DISTANCE) -> float:
    """Probability that a strategic teacher answers ``y = 1`` to a fixed query.

    An answer that no prior can explain has utility 0, so the result is
    finite even when one answer is impossible under every prior.
    """
    u = _teaching_utility_table(theta_true, priors, weights, np.array([[q.x1, q.x2]]), form)
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
    return policies, np.stack([softmax_policy(u, beta_a) for u in utilities])


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
