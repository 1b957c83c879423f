"""Grid-exact Bayesian machinery: posterior updates, entropies, information gain.

Everything operates on finite grids, so expectations are plain sums and the
expected information gain of a query is computed exactly rather than
estimated.  All reductions are fixed-order ``np.sum`` or ``np.einsum`` loops
(never BLAS: no ``@``, ``dot`` or ``einsum(optimize=...)``), which keeps
results bit-identical across thread counts.

Gain maps over a whole query grid use the mutual-information ("dual") form
``EIG(q) = H_b(L_q . m) - m . H_b(L_q)``: two ``einsum("ck,k->c", ...)``
products of the belief mass with a cached, read-only table of the answer
likelihoods ``L`` and their binary entropies ``H_b(L)``.  The table holds only
the pairs with ``x1 < x2``; a swapped pair has the same gain and a diagonal
pair has none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .model import (
    ABSOLUTE_DISTANCE,
    GridBelief,
    InvalidInputError,
    Query,
    ThetaGrid,
    _require_finite,
    _require_form,
)

LN2 = float(np.log(2.0))

# Candidate pairs per block while a gain table is built; bounds each
# temporary at about _TABLE_BLOCK * n_points * 8 bytes.
_TABLE_BLOCK = 256


class ImpossibleEvidenceError(RuntimeError):
    """The observed answer has zero likelihood under every grid point."""


@dataclass(frozen=True)
class QueryGrid:
    """All ordered pairs from a uniform axis grid, enumerated row-major by x1."""

    feature_lo: float
    feature_hi: float
    n_per_axis: int

    def __post_init__(self) -> None:
        _require_finite(feature_lo=self.feature_lo, feature_hi=self.feature_hi)
        if not self.feature_lo < self.feature_hi:
            raise InvalidInputError("query grid needs feature_lo < feature_hi")
        if self.n_per_axis < 2:
            raise InvalidInputError("query grid needs at least 2 points per axis")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(self.feature_lo, self.feature_hi, self.n_per_axis)

    @property
    def n_candidates(self) -> int:
        return self.n_per_axis * self.n_per_axis

    @property
    def candidates(self) -> np.ndarray:
        """(n^2, 2) array of (x1, x2) pairs; x1 varies slowest."""
        ax = self.axis
        return np.column_stack([np.repeat(ax, self.n_per_axis), np.tile(ax, self.n_per_axis)])

    def query_at(self, index: int) -> Query:
        x1, x2 = self.candidates[index]
        return Query(float(x1), float(x2))

    def index_of(self, q: Query, atol: float = 1e-9) -> int:
        """Candidate index of a query that lies on the grid."""
        step = (self.feature_hi - self.feature_lo) / (self.n_per_axis - 1)
        i = int(round((q.x1 - self.feature_lo) / step))
        j = int(round((q.x2 - self.feature_lo) / step))
        if not (0 <= i < self.n_per_axis and 0 <= j < self.n_per_axis):
            raise InvalidInputError(f"query {q} outside grid")
        ax = self.axis
        if abs(ax[i] - q.x1) > atol or abs(ax[j] - q.x2) > atol:
            raise InvalidInputError(f"query {q} not on the candidate grid")
        return i * self.n_per_axis + j


@dataclass(frozen=True)
class QueryPolicy:
    """Probability mass over the candidates of a :class:`QueryGrid`."""

    grid: QueryGrid
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.shape != (self.grid.n_candidates,):
            raise InvalidInputError("policy length does not match candidate count")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise InvalidInputError("policy must be nonnegative and sum to 1 within 1e-9")


def answer_likelihoods(points: np.ndarray, q: Query, form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """P(y=1 | theta, q) for every theta in ``points``."""
    return likelihood_matrix(points, np.array([[q.x1, q.x2]]), form)[0]


def likelihood_matrix(points: np.ndarray, candidates: np.ndarray,
                      form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """(n_candidates, n_points) matrix of P(y=1 | theta, candidate)."""
    _require_form(form)
    x1 = candidates[:, 0][:, None]
    x2 = candidates[:, 1][:, None]
    th = points[None, :]
    if form == ABSOLUTE_DISTANCE:
        diff = np.abs(th - x1) - np.abs(th - x2)
    else:
        d1 = th - x1
        d2 = th - x2
        diff = d1 * d1 - d2 * d2
    return expit(diff)


def predictive_answer_prob(b: GridBelief, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Belief-averaged probability of ``y = 1``."""
    return float(np.sum(b.mass * answer_likelihoods(b.grid.points, q, form)))


def posterior_update(b: GridBelief, q: Query, y: int, form: str = ABSOLUTE_DISTANCE) -> GridBelief:
    """Bayes update of the grid belief with one answered query."""
    if y not in (0, 1):
        raise InvalidInputError(f"answer must be 0 or 1, got {y!r}")
    lik = answer_likelihoods(b.grid.points, q, form)
    if y == 0:
        lik = 1.0 - lik
    unnorm = b.mass * lik
    total = np.sum(unnorm)
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            f"answer y={y} to {q} has zero likelihood everywhere (mass bug?)")
    return GridBelief(b.grid, unnorm / total)


def entropy(b: GridBelief) -> float:
    """Shannon entropy of the grid mass in nats."""
    return float(-np.sum(xlogy(b.mass, b.mass)))


def info_gain(b: GridBelief, q: Query, y: int, form: str = ABSOLUTE_DISTANCE) -> float:
    """Realized entropy reduction for one answer; may be negative."""
    return entropy(b) - entropy(posterior_update(b, q, y, form))


def expected_info_gain(b: GridBelief, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Mutual information between the ideal point and the answer to ``q``.

    Diagonal queries (x1 == x2) carry a constant likelihood, leave the
    posterior equal to the prior, and return exactly 0.
    """
    if q.is_diagonal:
        return 0.0
    p1 = predictive_answer_prob(b, q, form)
    p0 = 1.0 - p1
    return p1 * info_gain(b, q, 1, form) + p0 * info_gain(b, q, 0, form)


def eig_rows(mass: np.ndarray, lik1: np.ndarray) -> np.ndarray:
    """Expected information gain of one belief on every candidate query.

    ``mass`` is a single (1, K) normalized belief and ``lik1`` the (C, K)
    answer-1 likelihoods of the candidates; the result is the (C,) gain map.
    It serves exact mode only: its one caller is the exact normalizer of the
    attribution search, whose bits decide the rounding ties pinned by the
    benchmark reference, so it stays frozen until that reference is
    regenerated.  The arithmetic mirrors the scalar path (posterior
    normalization followed by entropy) so the two agree to float precision.
    """
    prior_h = -np.sum(xlogy(mass, mass), axis=-1)
    t1 = mass * lik1
    p1 = np.sum(t1, axis=-1)
    t0 = mass * (1.0 - lik1)
    p0 = np.sum(t0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        post1 = t1 / p1[..., None]
        post0 = t0 / p0[..., None]
    h1 = -np.sum(xlogy(post1, post1), axis=-1)
    h0 = -np.sum(xlogy(post0, post0), axis=-1)
    # An answer with zero predictive probability adds its limit, 0.
    return (np.where(p1 > 0, p1 * (prior_h - h1), 0.0)
            + np.where(p0 > 0, p0 * (prior_h - h0), 0.0))


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of a binary answer with ``P(y=1) = p``, clipped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    return -(xlogy(p, p) + xlogy(q, q))


@functools.lru_cache(maxsize=8)
def _gain_table(grid: ThetaGrid, qg: QueryGrid, form: str):
    """Read-only ``(upper, lower, L, H_b(L))`` over the pairs with ``x1 < x2``.

    ``upper`` and ``lower`` are the candidate indices of each pair and of its
    swap; ``L`` is the (P, K) matrix of answer-1 likelihoods.  Built lazily, in
    row blocks, once per (theta grid, query grid, reward form).
    """
    n = qg.n_per_axis
    i, j = np.triu_indices(n, k=1)
    upper = i * n + j
    lower = j * n + i
    pairs = qg.candidates[upper]
    points = grid.points
    lik = np.empty((upper.size, points.size))
    h_lik = np.empty_like(lik)
    for start in range(0, upper.size, _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        lik[block] = likelihood_matrix(points, pairs[block], form)
        h_lik[block] = _binary_entropy(lik[block])
    for a in (upper, lower, lik, h_lik):
        a.flags.writeable = False
    return upper, lower, lik, h_lik


def eig_map(b: GridBelief, qg: QueryGrid, form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """Expected information gain of every candidate, in enumeration order.

    Dual form ``H_b(L . m) - m . H_b(L)``: no posterior is normalized, so a
    point-mass belief gives a finite (zero) map.  Swapped pairs get identical
    values and diagonal pairs exactly 0.
    """
    _require_form(form)
    upper, lower, lik, h_lik = _gain_table(b.grid, qg, form)
    gain = (_binary_entropy(np.einsum("ck,k->c", lik, b.mass))
            - np.einsum("ck,k->c", h_lik, b.mass))
    out = np.zeros(qg.n_candidates)
    out[upper] = gain
    out[lower] = gain
    return out


def softmax_policy(utilities: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann choice probabilities ``exp(beta * u)``, normalized.

    Computed with max-subtraction; invariant to adding a constant to the
    utilities, and exactly uniform at ``beta = 0``.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.size == 0:
        raise InvalidInputError("softmax over an empty utility sequence")
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("utilities must be finite")
    _require_finite(beta=beta)
    if beta < 0:
        raise InvalidInputError(f"rationality must be nonnegative, got {beta}")
    z = beta * u
    z = z - z.max()
    e = np.exp(z)
    return e / np.sum(e)


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw in enumeration order; deterministic given the seed."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size == 0:
        raise InvalidInputError("cannot sample from an empty distribution")
    cdf = np.cumsum(p)
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, p.size - 1)
