"""Pairwise-choice preference model, bimodal parameter prior, and grid carriers.

The responder prefers items close to an ideal point ``theta``.  A query shows
two items; the answer ``y = 1`` means the second item was preferred.  Choice
noise is logistic in the reward difference, so the probability of preferring
the second item is ``sigmoid(r(x2) - r(x1))``.
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


def reward(theta: float, x: float, form: str = ABSOLUTE_DISTANCE) -> float:
    """Distance-based reward of item ``x`` under ideal point ``theta`` (<= 0)."""
    _require_finite(theta=theta, x=x)
    _require_form(form)
    if form == ABSOLUTE_DISTANCE:
        return -abs(x - theta)
    return -((x - theta) ** 2)


def _sigmoid(d: float) -> float:
    if d >= 0.0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def response_prob(theta: float, q: Query, form: str = ABSOLUTE_DISTANCE) -> float:
    """Probability of answering ``y = 1`` (prefer ``x2``) given ``theta``."""
    return _sigmoid(reward(theta, q.x2, form) - reward(theta, q.x1, form))


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
    # Both components in one call, stacked on a leading axis, so np.errstate
    # is entered once.
    shape = (2,) + (1,) * th.ndim
    d1, d2 = _normal_density(th, np.array([bp.mu1, bp.mu2]).reshape(shape),
                             np.array([bp.sigma1, bp.sigma2]).reshape(shape))
    out = bp.p_z * d1 + (1.0 - bp.p_z) * d2
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
