"""Pairwise-choice preference model, bimodal parameter prior, and grid carriers.

The responder prefers items close to an ideal point ``theta``.  A query shows
two items; the answer ``y = 1`` means the second item was preferred.  Choice
noise is logistic in the reward difference, so the probability of preferring
the second item is ``1 / (1 + exp(r(x1) - r(x2)))``.  This choice model is
written once, in :func:`_answer_prob`: the honest responder draws its answers
from it on scalars, and every likelihood table of the learner and of the
higher-order agents (``inference.likelihood_matrix``) evaluates it on whole
grids, so the learner's model of the responder is the responder, bit for bit.

The logistic, :func:`_logistic`, is expit's formula on numpy's vectorized
``np.exp``, the ``exp`` of every other part of the program, so its last bits
follow numpy's SIMD dispatch like the rest; importing this package does not
import scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

ABSOLUTE_DISTANCE = "absolute_distance"
SQUARED_DISTANCE = "squared_distance"
REWARD_FORMS = (ABSOLUTE_DISTANCE, SQUARED_DISTANCE)

# Densities below this are treated as exact zeros before renormalization.
DENSITY_FLOOR = 1e-300

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Smallest standard deviation accepted anywhere: below the smallest normal
# float, ``1 / (sigma * sqrt(2 pi))`` can overflow to inf.
MIN_SIGMA = sys.float_info.min


class InvalidInputError(ValueError):
    """An argument is non-finite or violates a parameter constraint."""


class DegenerateBeliefError(RuntimeError):
    """Every grid point underflowed, so the belief cannot be normalized; or
    no candidate belief of a search has representable mass on its grid."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


def _require_probabilities(values, n: int, name: str) -> np.ndarray:
    """``values`` as a float64 (n,) vector: finite, nonnegative, summing to 1 within 1e-9."""
    p = np.asarray(values, dtype=np.float64)
    if p.shape != (n,):
        raise InvalidInputError(f"{name} has shape {p.shape}, expected ({n},)")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise InvalidInputError(f"{name} entries must be finite and nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidInputError(f"{name} must sum to 1 within 1e-9, got {total!r}")
    return p


def _nearest_index(offset: float, step: float, n: int) -> int | None:
    """Index of the nearest of ``n`` points ``step`` apart to a point ``offset``
    past the first, or None when that is off the grid (an ``offset / step``
    that overflows included)."""
    pos = offset / step
    if not math.isfinite(pos):
        return None
    idx = round(pos)
    return idx if 0 <= idx < n else None


def _require_form(form: str) -> None:
    if form not in REWARD_FORMS:
        raise InvalidInputError(f"unknown reward form {form!r}; expected one of {REWARD_FORMS}")


@dataclass(frozen=True)
class Query:
    """An ordered pair of item features shown to the responder."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        _require_finite(x1=self.x1, x2=self.x2)

    @property
    def is_diagonal(self) -> bool:
        return self.x1 == self.x2

    def swapped(self) -> "Query":
        return Query(self.x2, self.x1)


@dataclass(frozen=True)
class LabeledExample:
    """A query together with a binary answer; ``y = 1`` prefers ``x2``."""

    query: Query
    y: int

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise InvalidInputError(f"answer must be 0 or 1, got {self.y!r}")


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform discretization of the ideal-point axis."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self) -> None:
        _require_finite(lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise InvalidInputError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise InvalidInputError(f"grid span hi - lo overflows, got [{self.lo}, {self.hi}]")
        if self.n_points < 3:
            raise InvalidInputError(f"grid needs at least 3 points, got {self.n_points}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    def index_of(self, theta: float) -> int:
        """Index of the grid cell containing ``theta`` (nearest point)."""
        _require_finite(theta=theta)
        idx = _nearest_index(theta - self.lo, self.cell_width, self.n_points)
        if idx is None:
            raise InvalidInputError(f"theta {theta} outside grid [{self.lo}, {self.hi}]")
        return idx


@dataclass(frozen=True)
class BeliefParams:
    """Two-component Gaussian mixture over the ideal point.

    ``p_z`` is the weight of the first component.  Canonical form orders the
    means as ``mu1 <= mu2`` so that mixtures differing only by component
    relabeling compare equal after :func:`canonicalize`.
    """

    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    p_z: float

    def __post_init__(self) -> None:
        _require_finite(mu1=self.mu1, sigma1=self.sigma1, mu2=self.mu2,
                        sigma2=self.sigma2, p_z=self.p_z)
        if self.sigma1 < MIN_SIGMA or self.sigma2 < MIN_SIGMA:
            raise InvalidInputError(
                f"standard deviations must be >= {MIN_SIGMA!r}, got {self.sigma1}, {self.sigma2}")
        if not 0.0 <= self.p_z <= 1.0:
            raise InvalidInputError(f"p_z must be in [0, 1], got {self.p_z}")

    @property
    def is_canonical(self) -> bool:
        return self.mu1 <= self.mu2

    def astuple(self) -> tuple[float, float, float, float, float]:
        return (self.mu1, self.sigma1, self.mu2, self.sigma2, self.p_z)


@dataclass(frozen=True)
class GridBelief:
    """Probability mass over a :class:`ThetaGrid`."""

    grid: ThetaGrid
    mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass",
                           _require_probabilities(self.mass, self.grid.n_points, "mass"))


def _distance(theta, x, form: str):
    """``|x - theta|`` or ``(x - theta) ** 2``, broadcasting.  A distance that
    overflows is inf; callers enter ``np.errstate(over="ignore")`` once, so
    that it comes without a warning."""
    _require_form(form)
    d = np.subtract(x, theta)
    return np.abs(d) if form == ABSOLUTE_DISTANCE else np.square(d)


def reward(theta, x, form: str = ABSOLUTE_DISTANCE):
    """Distance-based reward of item ``x`` under ideal point ``theta`` (<= 0),
    broadcasting; a distance that overflows gives its limit, -inf."""
    if not (np.isfinite(theta).all() and np.isfinite(x).all()):
        raise InvalidInputError(f"theta and x must be finite, got {theta!r}, {x!r}")
    with np.errstate(over="ignore"):
        return -_distance(theta, x, form)


def _gap_limit(theta, x1, x2):
    """The logistic's limit for a reward gap that overflows: 1 or 0 by the sign
    of ``|theta - x1| - |theta - x2|``, 0.5 when equal; broadcasts.  Halved
    coordinates cannot overflow, and rounding keeps the order of the two
    distances (or makes them equal)."""
    return 0.5 + 0.5 * np.sign(np.abs(0.5 * theta - 0.5 * x1) - np.abs(0.5 * theta - 0.5 * x2))


def _logistic(x) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, as a float64 array of ``x``'s shape.

    ``exp`` is numpy's.  An ``exp(-x)`` that overflows is inf without a
    warning, so its logistic is the limit, 0.  Within 2 ulp of the exact
    value on [-40, 40], as is ``scipy.special.expit``; the two agree byte
    for byte at 0, the subnormals, the overflow edges, +-inf and nan.
    """
    t = np.array(x, dtype=np.float64)
    np.negative(t, out=t)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _answer_prob(theta, x1, x2, form: str):
    """The choice model: P(y = 1 | theta, (x1, x2)) = ``_logistic(d(theta, x1) -
    d(theta, x2))``, broadcasting; a gap that is not finite (inf, or inf - inf)
    takes its limit, :func:`_gap_limit`."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _distance(theta, x1, form) - _distance(theta, x2, form)
    p = _logistic(gap)
    finite = np.isfinite(gap)
    return p if finite.all() else np.where(finite, p, _gap_limit(theta, x1, x2))


def response_prob(theta: float, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Probability of answering ``y = 1`` (prefer ``x2``) given ``theta``: the
    choice model :func:`_answer_prob` on one query."""
    _require_finite(theta=theta)
    return float(_answer_prob(theta, q.x1, q.x2, form))


def sample_answer(theta: float, q: Query, form: str, rng: np.random.Generator) -> int:
    """Draw one answer from the choice model; deterministic given the generator state."""
    return 1 if rng.random() < response_prob(theta, q, form) else 0


def _normal_density(theta, mu, sigma):
    """Normal density ``N(mu, sigma)`` at ``theta``, broadcasting.

    A tail whose squared z-score overflows has its limit, 0, without a
    warning; ``sigma >= MIN_SIGMA`` keeps the peak finite.
    """
    with np.errstate(over="ignore"):
        z = (theta - mu) / sigma
        return _INV_SQRT_2PI / sigma * np.exp(-0.5 * z * z)


def mixture_density(bp: BeliefParams, theta):
    """Mixture density at ``theta`` (scalar or array)."""
    th = np.asarray(theta, dtype=np.float64)
    out = (bp.p_z * _normal_density(th, bp.mu1, bp.sigma1)
           + (1.0 - bp.p_z) * _normal_density(th, bp.mu2, bp.sigma2))
    if np.ndim(theta) == 0:
        return float(out)
    return out


def discretize_belief(bp: BeliefParams, grid: ThetaGrid) -> GridBelief:
    """Evaluate the mixture on the grid and renormalize to a discrete distribution.

    Grid mass is treated as cell probabilities, not density samples, so the
    result sums to one regardless of cell width.  Densities below
    ``DENSITY_FLOOR`` are zeroed before normalizing; if everything underflows
    the belief is unrepresentable on this grid.
    """
    density = mixture_density(bp, grid.points)
    density = np.where(density < DENSITY_FLOOR, 0.0, density)
    total = density.sum()
    if total <= 0.0:
        raise DegenerateBeliefError(
            f"mixture {tuple(map(float, bp.astuple()))} has no representable mass "
            f"on [{grid.lo}, {grid.hi}]")
    return GridBelief(grid, density / total)


def canonicalize(bp: BeliefParams) -> BeliefParams:
    """Order components by mean; the induced density is pointwise unchanged."""
    if bp.mu1 <= bp.mu2:
        return bp
    return BeliefParams(bp.mu2, bp.sigma2, bp.mu1, bp.sigma1, 1.0 - bp.p_z)


def uniform_belief(grid: ThetaGrid) -> GridBelief:
    """Uniform mass over every grid cell."""
    return GridBelief(grid, np.full(grid.n_points, 1.0 / grid.n_points))
