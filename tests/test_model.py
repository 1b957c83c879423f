import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

import querymind
from querymind.model import (
    ABSOLUTE_DISTANCE,
    _logistic,
    _normal_density,
    MIN_SIGMA,
    SQUARED_DISTANCE,
    BeliefParams,
    DegenerateBeliefError,
    GridBelief,
    InvalidInputError,
    Query,
    ThetaGrid,
    canonicalize,
    discretize_belief,
    mixture_density,
    response_prob,
    reward,
    sample_answer,
    uniform_belief,
)
from querymind.inference import likelihood_matrix


class TestReward:
    def test_zero_distance(self):
        assert reward(2.0, 2.0, ABSOLUTE_DISTANCE) == 0.0

    def test_absolute(self):
        assert reward(2.0, -3.0, ABSOLUTE_DISTANCE) == -5.0

    def test_squared(self):
        assert reward(0.0, 2.0, SQUARED_DISTANCE) == -4.0

    def test_nonpositive(self):
        rng = np.random.default_rng(1)
        for theta, x in rng.uniform(-6, 6, size=(200, 2)):
            for form in (ABSOLUTE_DISTANCE, SQUARED_DISTANCE):
                r = reward(theta, x, form)
                assert r <= 0.0
                assert (r == 0.0) == (x == theta)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            reward(math.nan, 0.0)
        with pytest.raises(InvalidInputError):
            reward(0.0, math.inf)

    def test_rejects_unknown_form(self):
        with pytest.raises(InvalidInputError):
            reward(0.0, 0.0, "cubic")

    def test_overflowing_squared_distance_is_minus_inf(self):
        # (x - theta) ** 2 used to raise OverflowError.
        assert reward(1e200, 0.0, SQUARED_DISTANCE) == -math.inf
        assert reward(-1e200, 1e200, SQUARED_DISTANCE) == -math.inf

    def test_broadcasts_and_matches_its_scalar_values(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-6, 6, size=7)
        x = np.append(rng.uniform(-6, 6, size=4), [1e200, -1e308])[:, None]
        for form in (ABSOLUTE_DISTANCE, SQUARED_DISTANCE):
            got = reward(theta, x, form)
            assert got.shape == (6, 7)
            want = [[reward(float(t), float(xi), form) for t in theta] for xi in x[:, 0]]
            assert got.tolist() == want
        assert isinstance(reward(0.0, 2.0), float)
        with pytest.raises(InvalidInputError):
            reward(theta, np.array([0.0, math.nan])[:, None])


OVERFLOWING_GAPS = [
    # Both squared distances overflow, and their halves round equal.
    (SQUARED_DISTANCE, 1e200, 0.0, 1.0, 0.5),
    (SQUARED_DISTANCE, 1e200, 1e200, -1e200, 0.0),
    (SQUARED_DISTANCE, 1e200, -1e200, 1e200, 1.0),
    # Both absolute distances overflow, so the gap is inf - inf.
    (ABSOLUTE_DISTANCE, 1e308, -1e308, -1.5e308, 0.0),
    (ABSOLUTE_DISTANCE, 1e308, -1.5e308, -1e308, 1.0),
]


class TestLogistic:
    """The choice model's logistic on numpy's exp: scipy's ``expit`` bits at
    the edges and limits, and expit's accuracy in between."""

    @staticmethod
    def _edges():
        edges = [0.0, 5e-324, 745.2, math.log(sys.float_info.max)]
        for e in list(edges[2:]):
            edges += [np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
        edges = np.array(edges + [np.inf])
        return np.concatenate([edges, -edges, [np.nan]])

    def test_equals_expit_byte_for_byte_at_edges_and_limits(self):
        x = self._edges()
        assert _logistic(x).tobytes() == expit(x).tobytes()
        for v in x:
            got = _logistic(v)
            assert got.shape == () and got.tobytes() == expit(v).tobytes()

    def test_within_two_ulp_of_fifty_digits(self):
        # expit itself meets the same bound on these draws.
        import mpmath

        mpmath.mp.dps = 50
        x = np.random.default_rng(20).uniform(-40.0, 40.0, 20_000)
        exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in x])
        got = _logistic(x)
        for values in (got, expit(x)):
            ulps = np.abs(values.view(np.int64) - exact.view(np.int64))
            assert ulps.max() <= 2
        grid = _logistic(x.reshape(100, 200))
        assert grid.shape == (100, 200) and grid.tobytes() == got.tobytes()

    def test_importing_the_package_does_not_load_scipy_special(self):
        # The package imports no scipy module at all, and no thread pool:
        # every path, exact attribution included, runs in the calling thread.
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        code = ("import sys, querymind, querymind.cli\n"
                "print([m for m in sys.modules\n"
                "       if m.split('.')[0] == 'scipy' or m == 'concurrent.futures'])")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              check=True, capture_output=True, text=True)
        assert done.stdout.strip() == "[]"


class TestResponseProb:
    def test_identical_items_give_half(self):
        for theta in (-4.0, 0.0, 3.7):
            assert response_prob(theta, Query(1.25, 1.25)) == 0.5

    def test_symmetric_distances_give_half(self):
        assert response_prob(0.0, Query(-1.0, 1.0)) == 0.5

    def test_logistic_of_reward_gap(self):
        # sigma(5) from a 50-digit evaluation.
        import mpmath

        mpmath.mp.dps = 50
        expected = float(1 / (1 + mpmath.exp(-5)))
        assert response_prob(2.0, Query(-3.0, 2.0)) == pytest.approx(expected, abs=1e-12)
        assert response_prob(2.0, Query(-3.0, 2.0)) == pytest.approx(0.993307, abs=1e-6)

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for form in (ABSOLUTE_DISTANCE, SQUARED_DISTANCE):
            for theta, x1, x2 in rng.uniform(-6, 6, size=(1000, 3)):
                p = response_prob(theta, Query(x1, x2), form)
                q = response_prob(theta, Query(x2, x1), form)
                assert 0.0 <= p <= 1.0
                assert abs(p + q - 1.0) <= 1e-12

    def test_strictly_inside_unit_interval(self):
        # Absolute-distance reward gaps stay <= 24 on the default feature
        # range, so the logistic never saturates in float64.  (The squared
        # form can reach gap 144 and saturate to an exact 0 or 1.)
        rng = np.random.default_rng(8)
        for theta, x1, x2 in rng.uniform(-6, 6, size=(1000, 3)):
            p = response_prob(theta, Query(x1, x2), ABSOLUTE_DISTANCE)
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("form, theta, x1, x2, want", OVERFLOWING_GAPS)
    def test_overflowing_reward_gap_takes_the_logistic_limit(self, form, theta, x1, x2, want):
        # The limit likelihood_matrix takes; this used to raise OverflowError
        # or give NaN.
        assert response_prob(theta, Query(x1, x2), form) == want
        assert likelihood_matrix(np.array([theta]), np.array([[x1, x2]]), form)[0, 0] == want

    @pytest.mark.parametrize("form", [ABSOLUTE_DISTANCE, SQUARED_DISTANCE])
    def test_equals_the_likelihood_matrix_entry(self, form):
        # The honest responder and the learner's likelihood tables are one
        # choice model: equal bits, not only equal to rounding.
        rng = np.random.default_rng(11)
        draws = np.vstack([rng.uniform(-6, 6, size=(2000, 3)),
                           rng.uniform(-1e3, 1e3, size=(500, 3)),
                           [row[1:4] for row in OVERFLOWING_GAPS]])
        for theta, x1, x2 in draws:
            entry = likelihood_matrix(np.array([theta]), np.array([[x1, x2]]), form)[0, 0]
            assert response_prob(theta, Query(x1, x2), form) == entry

    def test_rejects_nonfinite_theta(self):
        for theta in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                response_prob(theta, Query(-1.0, 1.0))


class TestSampleAnswer:
    def test_deterministic_given_seed(self):
        q = Query(-1.0, 1.0)
        draws_a = [sample_answer(0.0, q, ABSOLUTE_DISTANCE, np.random.default_rng(5))
                   for _ in range(10)]
        draws_b = [sample_answer(0.0, q, ABSOLUTE_DISTANCE, np.random.default_rng(5))
                   for _ in range(10)]
        assert draws_a == draws_b

    def test_near_degenerate_probability(self):
        # Reward gap 40 puts the answer probability within 1e-12 of 1.
        q = Query(-20.0, 20.0)
        assert response_prob(20.0, q) > 1.0 - 1e-12
        for seed in range(1000):
            assert sample_answer(20.0, q, ABSOLUTE_DISTANCE, np.random.default_rng(seed)) == 1

    def test_monte_carlo_rate(self):
        # theta = ln(3)/2 against (-3, 3) answers y=1 with probability 0.75.
        theta = math.log(3.0) / 2.0
        q = Query(-3.0, 3.0)
        assert response_prob(theta, q) == pytest.approx(0.75, abs=1e-12)
        rng = np.random.default_rng(123)
        mean = np.mean([sample_answer(theta, q, ABSOLUTE_DISTANCE, rng)
                        for _ in range(10_000)])
        assert abs(mean - 0.75) <= 0.02


class TestMixtureDensity:
    def test_single_component_peak(self):
        bp = BeliefParams(0.0, 1.0, 5.0, 1.0, 1.0)
        assert mixture_density(bp, 0.0) == pytest.approx(0.398942, abs=1e-6)

    def test_two_group_value_against_scipy(self):
        bp = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
        expected = 0.9 * norm.pdf(-3.0, loc=-3.0, scale=1.0) \
            + 0.1 * norm.pdf(-3.0, loc=3.0, scale=1.0)
        assert mixture_density(bp, -3.0) == pytest.approx(expected, rel=1e-12)
        assert mixture_density(bp, -3.0) == pytest.approx(0.359048, abs=1e-6)

    def test_integrates_to_one(self, default_grid):
        # Components well inside the grid range, so truncated tail mass is
        # negligible next to the trapezoid error budget.
        for bp in (BeliefParams(0.0, 1.0, 0.0, 1.0, 1.0),
                   BeliefParams(-2.0, 0.5, 2.0, 0.75, 0.4)):
            total = np.trapezoid(mixture_density(bp, default_grid.points),
                                 default_grid.points)
            assert abs(total - 1.0) <= 1e-4

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidInputError):
            BeliefParams(0.0, -1.0, 0.0, 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            BeliefParams(0.0, 1.0, 0.0, 0.0, 0.5)

    def test_rejects_sigma_below_smallest_normal(self):
        # Below it the peak 1 / (sigma sqrt(2 pi)) can overflow to inf.
        with pytest.raises(InvalidInputError, match="standard deviations must be >= "):
            BeliefParams(0.0, 1e-320, 0.0, 1.0, 0.5)
        with pytest.raises(InvalidInputError, match="standard deviations must be >= "):
            BeliefParams(0.0, 1.0, 0.0, MIN_SIGMA / 2, 0.5)
        peak = mixture_density(BeliefParams(0.0, MIN_SIGMA, 0.0, MIN_SIGMA, 0.5), 0.0)
        assert math.isfinite(peak) and peak > 1e307

    def test_overflowing_tail_is_zero_without_warning(self, default_grid):
        # z * z overflows away from the tiny component's mean; the tail's
        # limit is 0, and pytest turns a RuntimeWarning into a failure.
        d = mixture_density(BeliefParams(-3.0, 1e-200, 3.0, 1.0, 0.9), default_grid.points)
        assert np.all(np.isfinite(d))
        assert d[default_grid.index_of(-6.0)] == pytest.approx(
            0.1 * norm.pdf(-6.0, loc=3.0, scale=1.0), rel=1e-12)

    # Default prior, the fig3 prior and the two intent-bf particles.
    @pytest.mark.parametrize("bp", [BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9),
                                    BeliefParams(-3.0, 0.5, 3.0, 0.5, 0.6),
                                    BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.1)])
    def test_one_stacked_call_keeps_the_two_call_bits(self, bp, default_grid):
        for theta in (default_grid.points, default_grid.points.reshape(1, -1, 1), -3.0, 0.5):
            th = np.asarray(theta, dtype=np.float64)
            two_calls = (bp.p_z * _normal_density(th, bp.mu1, bp.sigma1)
                         + (1.0 - bp.p_z) * _normal_density(th, bp.mu2, bp.sigma2))
            got = mixture_density(bp, theta)
            assert np.shape(got) == np.shape(theta)
            assert np.asarray(got).tobytes() == two_calls.tobytes()

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bp = BeliefParams(rng.uniform(-6, 6), rng.uniform(0.1, 3),
                              rng.uniform(-6, 6), rng.uniform(0.1, 3), rng.uniform(0, 1))
            assert np.all(mixture_density(bp, np.linspace(-10, 10, 101)) >= 0.0)


class TestPinnedMixtureBits:
    """The bits of ``mixture_density`` and ``discretize_belief`` on priors past
    the packaged ones: standard deviations from ``MIN_SIGMA`` to 1e-3, means
    hundreds of units off the grid whose squared z-scores overflow, and group
    weights 0 and 1.  The digests are sha256 of the float64 bytes, taken with
    numpy 2.4.6 dispatching to AVX-512 on glibc 2.36; an AVX2-only dispatch
    moves them (README, "Pinned bits belong to one host")."""

    PRIORS = (
        BeliefParams(0.0, MIN_SIGMA, 0.5, 1.0, 0.5),
        BeliefParams(-3.0, 1e-3, 2.0, 1e-3, 0.3),
        BeliefParams(-400.0, 1e-200, 1.0, 0.5, 0.2),
        BeliefParams(-2.0, 1.0, 300.0, MIN_SIGMA, 1.0),
        BeliefParams(-300.0, 2.0, 1.5, 0.7, 0.0),
        BeliefParams(350.0, 1e-250, -5.95, 1e-3, 0.0),
    )
    THETAS = (-400.0, -300.0, -6.0, -5.95, -3.0, -2.0, 0.0, 0.5, 1.5, 2.0, 6.0, 300.0, 350.0)
    MASS_DIGEST = "b58200df474c8a6ee154b062cbe86646486954fc661630c10390eeeab6016270"
    DENSITY_DIGEST = "60d6c18d3b947fc541c2eafae99664e2b2648cfbf80dfe9ec972e57c0c65d28a"

    @staticmethod
    def _digest(values) -> str:
        return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()

    def test_grid_masses_are_pinned(self, default_grid):
        masses = [discretize_belief(bp, default_grid).mass for bp in self.PRIORS]
        assert all(np.all(np.isfinite(m)) for m in masses)
        assert self._digest(masses) == self.MASS_DIGEST

    def test_scalar_densities_are_pinned(self):
        values = [mixture_density(bp, theta) for bp in self.PRIORS for theta in self.THETAS]
        assert all(isinstance(v, float) and math.isfinite(v) for v in values)
        assert self._digest(values) == self.DENSITY_DIGEST


class TestDiscretizeBelief:
    def test_point_like_mass_concentrates(self, default_grid):
        sigma = default_grid.cell_width / 100.0
        bp = BeliefParams(-3.0, sigma, -3.0, sigma, 0.5)
        b = discretize_belief(bp, default_grid)
        assert b.mass[default_grid.index_of(-3.0)] >= 0.99

    def test_dominant_group_mass(self, default_grid):
        # Exact left-of-zero mass via the normal CDF, compared to grid cells.
        bp = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
        b = discretize_belief(bp, default_grid)
        grid_mass = float(b.mass[default_grid.points < 0.0].sum())
        exact = 0.9 * norm.cdf(0.0, -3.0, 1.0) + 0.1 * norm.cdf(0.0, 3.0, 1.0)
        assert abs(grid_mass - exact) <= 2e-3
        assert grid_mass == pytest.approx(0.9, abs=5e-3)

    def test_normalization(self, default_grid):
        rng = np.random.default_rng(3)
        for _ in range(100):
            bp = BeliefParams(rng.uniform(-5, 5), rng.uniform(0.05, 3),
                              rng.uniform(-5, 5), rng.uniform(0.05, 3), rng.uniform(0, 1))
            b = discretize_belief(bp, default_grid)
            assert abs(float(b.mass.sum()) - 1.0) <= 1e-9
            assert np.all(b.mass >= 0.0)

    def test_underflow_everywhere_is_an_error(self, default_grid):
        bp = BeliefParams(500.0, 0.01, 500.0, 0.01, 0.5)
        with pytest.raises(DegenerateBeliefError):
            discretize_belief(bp, default_grid)

    def test_error_prints_plain_floats(self, default_grid):
        bp = BeliefParams(np.float64(-300.0), 0.25, np.float64(200.0), 0.25, np.float64(0.5))
        with pytest.raises(DegenerateBeliefError) as info:
            discretize_belief(bp, default_grid)
        assert str(info.value) == ("mixture (-300.0, 0.25, 200.0, 0.25, 0.5) has no "
                                   "representable mass on [-6.0, 6.0]")


class TestCanonicalize:
    def test_swap_rule(self):
        bp = canonicalize(BeliefParams(3.0, 1.0, -3.0, 1.0, 0.1))
        assert bp.astuple() == (-3.0, 1.0, 3.0, 1.0, 0.9)

    def test_idempotent(self):
        bp = BeliefParams(-2.0, 0.5, 1.0, 2.0, 0.3)
        assert canonicalize(bp) is bp
        assert canonicalize(canonicalize(bp)) == canonicalize(bp)

    def test_density_pointwise_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            bp = BeliefParams(rng.uniform(-6, 6), rng.uniform(0.1, 3),
                              rng.uniform(-6, 6), rng.uniform(0.1, 3), rng.uniform(0, 1))
            canon = canonicalize(bp)
            thetas = rng.uniform(-8, 8, size=100)
            d0 = mixture_density(bp, thetas)
            d1 = mixture_density(canon, thetas)
            np.testing.assert_allclose(d0, d1, atol=1e-12)


class TestGridTypes:
    def test_theta_grid_validation(self):
        with pytest.raises(InvalidInputError):
            ThetaGrid(1.0, 1.0, 5)
        with pytest.raises(InvalidInputError):
            ThetaGrid(0.0, 1.0, 2)

    def test_index_of(self, default_grid):
        assert default_grid.index_of(-6.0) == 0
        assert default_grid.index_of(6.0) == 240
        assert default_grid.points[default_grid.index_of(2.0)] == pytest.approx(2.0)
        with pytest.raises(InvalidInputError):
            default_grid.index_of(7.0)

    @pytest.mark.parametrize("theta", [1e308, -1e308])
    def test_index_of_overflowing_offset_is_outside_grid(self, default_grid, theta):
        # (theta - lo) / cell_width overflows to inf; rounding it used to
        # raise OverflowError.
        with pytest.raises(InvalidInputError, match="outside grid"):
            default_grid.index_of(theta)

    def test_theta_grid_rejects_overflowing_span(self):
        # hi - lo overflows, which made every grid point NaN.
        with pytest.raises(InvalidInputError, match="grid span hi - lo overflows"):
            ThetaGrid(-1e308, 1e308, 241)
        grid = ThetaGrid(-8e307, 8e307, 241)
        assert np.all(np.isfinite(grid.points))

    def test_grid_belief_rejects_bad_mass(self, default_grid):
        bad = np.full(default_grid.n_points, 1.0 / default_grid.n_points)
        bad[0] = -bad[0]
        with pytest.raises(InvalidInputError):
            GridBelief(default_grid, bad)
        with pytest.raises(InvalidInputError):
            GridBelief(default_grid, np.full(default_grid.n_points, 1.0))

    def test_uniform_belief(self, default_grid):
        b = uniform_belief(default_grid)
        assert abs(float(b.mass.sum()) - 1.0) <= 1e-9
        assert float(b.mass.max()) == float(b.mass.min())

    def test_query_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            Query(math.inf, 0.0)
