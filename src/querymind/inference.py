"""Grid-exact Bayesian machinery: posterior updates, entropies, information gain.

Everything operates on finite grids, so expectations are plain sums and the
expected information gain of a query is computed exactly rather than
estimated.  All reductions are fixed-order ``np.sum`` or ``np.einsum`` loops
(never BLAS: no ``@``, ``dot`` or ``einsum(optimize=...)``), which keeps
results bit-identical across thread counts.

Every whole-grid reader takes its answer likelihoods from one cached,
read-only (C, K) table per theta grid, query grid and reward form,
:func:`_likelihood_table`, so the choice model's per-element logistic runs
once per table, not once per call.

Gain maps over a whole query grid use the mutual-information ("dual") form
``EIG(q) = H_b(L_q . m) - m . H_b(L_q)``: two ``einsum("ck,k->c", ...)``
products of the belief mass with a cached, read-only table of the answer
likelihoods ``L`` and their binary entropies ``H_b(L)``.  The gain table holds
only the pairs with ``x1 < x2``; a swapped pair has the same gain and a
diagonal pair has none.

Entropies take ``x ln x`` from :func:`_xlogx`, numpy's vectorized (SIMD)
``np.log``.  Like ``np.exp`` in :func:`softmax_policy`, its last bits can
depend on the CPU features numpy dispatches to, never on the thread count.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from .model import (
    ABSOLUTE_DISTANCE,
    GridBelief,
    InvalidInputError,
    Query,
    ThetaGrid,
    _answer_prob,
    _nearest_index,
    _require_finite,
    _require_form,
    _require_probabilities,
)

LN2 = float(np.log(2.0))

# Candidate pairs per block while a likelihood or gain table is built; bounds
# each temporary at about _TABLE_BLOCK * n_points * 8 bytes (about four times
# that for the Python floats of the logistic).
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
        if not np.isfinite(self.feature_hi - self.feature_lo):
            raise InvalidInputError("query grid span hi - lo overflows, "
                                    f"got [{self.feature_lo}, {self.feature_hi}]")
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
        x1, x2 = self.axis[list(divmod(index, self.n_per_axis))]
        return Query(float(x1), float(x2))

    def index_of(self, q: Query) -> int:
        """Candidate index of a query that lies on the grid, within 1e-9."""
        step = (self.feature_hi - self.feature_lo) / (self.n_per_axis - 1)
        i, j = (_nearest_index(x - self.feature_lo, step, self.n_per_axis) for x in (q.x1, q.x2))
        if i is None or j is None:
            raise InvalidInputError(f"query {q} outside grid")
        ax = self.axis
        if abs(ax[i] - q.x1) > 1e-9 or abs(ax[j] - q.x2) > 1e-9:
            raise InvalidInputError(f"query {q} not on the candidate grid")
        return i * self.n_per_axis + j


@dataclass(frozen=True)
class QueryPolicy:
    """Probability mass over the candidates of a :class:`QueryGrid`."""

    grid: QueryGrid
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _require_probabilities(
            self.probs, self.grid.n_candidates, "policy"))


def answer_likelihoods(points: np.ndarray, q: Query, form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """P(y=1 | theta, q) for every theta in ``points``: the choice model's row."""
    return _answer_prob(points, q.x1, q.x2, form)


def likelihood_matrix(points: np.ndarray, candidates: np.ndarray,
                      form: str = ABSOLUTE_DISTANCE) -> np.ndarray:
    """(n_candidates, n_points) matrix of P(y=1 | theta, candidate): the choice
    model :func:`model._answer_prob` on the outer product of the candidates and
    the points, overflowing gaps at the logistic's limit included."""
    return _answer_prob(points[None, :], candidates[:, :1], candidates[:, 1:], form)


@functools.lru_cache(maxsize=8)
def _likelihood_table(grid: ThetaGrid, qg: QueryGrid, form: str) -> np.ndarray:
    """Read-only (C, K) :func:`likelihood_matrix` of every candidate of ``qg``
    on the points of ``grid``.  Built lazily, in ``_TABLE_BLOCK``-row blocks,
    once per (theta grid, query grid, reward form)."""
    points, cands = grid.points, qg.candidates
    lik = np.empty((cands.shape[0], points.size))
    for start in range(0, cands.shape[0], _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        lik[block] = likelihood_matrix(points, cands[block], form)
    lik.flags.writeable = False
    return lik


def predictive_answer_prob(b: GridBelief, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Belief-averaged probability of ``y = 1``."""
    return float(np.sum(b.mass * answer_likelihoods(b.grid.points, q, form)))


def posterior_update(b: GridBelief, q: Query, y: int, form: str = ABSOLUTE_DISTANCE) -> GridBelief:
    """Bayes update of the grid belief with one answered query."""
    if y not in (0, 1):
        raise InvalidInputError(f"answer must be 0 or 1, got {y!r}")
    return _bayes_update(b, q, answer_likelihoods(b.grid.points, q, form), y)


def _bayes_update(b: GridBelief, q: Query, lik: np.ndarray, y: int) -> GridBelief:
    """:func:`posterior_update` given the (K,) answer-1 likelihoods ``lik`` of
    ``q`` on the belief's grid."""
    if y == 0:
        lik = 1.0 - lik
    unnorm = b.mass * lik
    total = np.sum(unnorm)
    if total <= 0.0:
        raise ImpossibleEvidenceError(
            f"answer y={y} to {q} has zero likelihood under the belief")
    return GridBelief(b.grid, unnorm / total)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x ln x`` elementwise for ``x`` in [0, 1]: exactly 0 at 0, NaN through."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > 0, x, 1.0)
    np.log(out, out=out)
    out *= x
    return out


def entropy(b: GridBelief) -> float:
    """Shannon entropy of the grid mass in nats."""
    return float(-np.sum(_xlogx(b.mass)))


def info_gain(b: GridBelief, q: Query, y: int, form: str = ABSOLUTE_DISTANCE) -> float:
    """Realized entropy reduction for one answer; may be negative."""
    return entropy(b) - entropy(posterior_update(b, q, y, form))


def expected_info_gain(b: GridBelief, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Mutual information between the ideal point and the answer to ``q``.

    Diagonal queries (x1 == x2) carry a constant likelihood, leave the
    posterior equal to the prior, and return exactly 0.  An answer of zero
    likelihood under the belief adds its limit, 0.
    """
    if q.is_diagonal:
        return 0.0
    p1 = predictive_answer_prob(b, q, form)
    gain = 0.0
    for y, p in ((1, p1), (0, 1.0 - p1)):
        with contextlib.suppress(ImpossibleEvidenceError):
            gain += p * info_gain(b, q, y, form)
    return gain


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of a binary answer with ``P(y=1) = p``, clipped to [0, 1]."""
    p = np.clip(p, 0.0, 1.0)
    return -(_xlogx(p) + _xlogx(1.0 - p))


@functools.lru_cache(maxsize=8)
def _gain_table(grid: ThetaGrid, qg: QueryGrid, form: str):
    """Read-only ``(upper, lower, L, H_b(L))`` over the pairs with ``x1 < x2``.

    ``upper`` and ``lower`` are the candidate indices of each pair and of its
    swap; ``L`` is the (P, K) matrix of answer-1 likelihoods, the ``upper``
    rows of :func:`_likelihood_table`.  Built lazily, ``H_b(L)`` in row blocks,
    once per (theta grid, query grid, reward form).
    """
    n = qg.n_per_axis
    i, j = np.triu_indices(n, k=1)
    upper = i * n + j
    lower = j * n + i
    lik = _likelihood_table(grid, qg, form)[upper]
    h_lik = np.empty_like(lik)
    for start in range(0, upper.size, _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
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


def _require_rationality(beta: float) -> None:
    """A softmax rationality ``beta`` must be finite and nonnegative."""
    _require_finite(beta=beta)
    if beta < 0:
        raise InvalidInputError(f"rationality must be nonnegative, got {beta}")


def softmax_policy(utilities: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann choice probabilities ``exp(beta * u)``, normalized along the
    last axis, so a (J, C) matrix gives J policies in one call.

    Computed with max-subtraction; invariant to adding a constant to the
    utilities, and exactly uniform at ``beta = 0``.  Each row of a matrix gets
    the bits of the 1-D call on that row.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.size == 0:
        raise InvalidInputError("softmax over an empty utility sequence")
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("utilities must be finite")
    _require_rationality(beta)
    z = beta * u
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw in enumeration order; deterministic given the seed."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size == 0:
        raise InvalidInputError("cannot sample from an empty distribution")
    cdf = np.cumsum(p)
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, p.size - 1)
