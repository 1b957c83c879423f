import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import xlogy

import querymind
from querymind.agents import l2_query_policy
from querymind.model import (
    ABSOLUTE_DISTANCE,
    REWARD_FORMS,
    SQUARED_DISTANCE,
    BeliefParams,
    GridBelief,
    InvalidInputError,
    Query,
    ThetaGrid,
    _logistic,
    discretize_belief,
    response_prob,
    uniform_belief,
)
from querymind.inference import (
    QueryGrid,
    QueryPolicy,
    _gain_table,
    _likelihood_table,
    _xlogx,
    answer_likelihoods,
    eig_map,
    entropy,
    expected_info_gain,
    info_gain,
    likelihood_matrix,
    posterior_update,
    predictive_answer_prob,
    sample_index,
    softmax_policy,
)


def random_belief(rng, grid):
    raw = rng.uniform(0.0, 1.0, size=grid.n_points) ** 3
    raw += 1e-12
    return GridBelief(grid, raw / raw.sum())


def bernoulli_entropy(p):
    out = 0.0
    if 0.0 < p < 1.0:
        out = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    return out


class TestPredictive:
    def test_diagonal_query_exact_half(self, default_grid):
        b = uniform_belief(default_grid)
        assert predictive_answer_prob(b, Query(1.5, 1.5)) == 0.5

    def test_point_mass_matches_response_prob(self, default_grid):
        mass = np.zeros(default_grid.n_points)
        mass[100] = 1.0
        b = GridBelief(default_grid, mass)
        theta = float(default_grid.points[100])
        q = Query(-2.0, 3.5)
        assert predictive_answer_prob(b, q) == pytest.approx(
            response_prob(theta, q), abs=1e-15)

    def test_three_point_average(self, tri_uniform, tri_query):
        assert predictive_answer_prob(tri_uniform, tri_query) == pytest.approx(
            2.15 / 3.0, abs=1e-9)


class TestPosteriorUpdate:
    def test_diagonal_is_identity(self, tri_grid):
        # Mass sums to exactly 1.0, so the constant likelihood cancels exactly.
        b = GridBelief(tri_grid, np.array([0.25, 0.25, 0.5]))
        post = posterior_update(b, Query(2.0, 2.0), 1)
        assert np.array_equal(post.mass, b.mass)

    def test_three_point_bayes(self, tri_uniform, tri_query):
        post = posterior_update(tri_uniform, tri_query, 1)
        lik = [0.5, 0.75, 0.9]
        oracle = [p / sum(lik) for p in lik]
        np.testing.assert_allclose(post.mass, oracle, atol=1e-9)
        np.testing.assert_allclose(post.mass, [0.232558, 0.348837, 0.418605], atol=1e-6)

    def test_martingale(self, default_grid):
        rng = np.random.default_rng(17)
        for _ in range(50):
            b = random_belief(rng, default_grid)
            q = Query(*rng.uniform(-6, 6, size=2))
            p1 = predictive_answer_prob(b, q)
            mix = p1 * posterior_update(b, q, 1).mass \
                + (1 - p1) * posterior_update(b, q, 0).mass
            np.testing.assert_allclose(mix, b.mass, atol=1e-9)

    def test_rejects_bad_answer(self, tri_uniform, tri_query):
        with pytest.raises(InvalidInputError):
            posterior_update(tri_uniform, tri_query, 2)


class TestEntropy:
    def test_uniform(self, default_grid):
        assert entropy(uniform_belief(default_grid)) == pytest.approx(
            math.log(241.0), abs=1e-12)
        assert entropy(uniform_belief(default_grid)) == pytest.approx(5.48480, abs=1e-5)

    def test_point_mass(self, default_grid):
        mass = np.zeros(default_grid.n_points)
        mass[7] = 1.0
        assert entropy(GridBelief(default_grid, mass)) == 0.0

    def test_quarter_three_quarters(self, tri_grid):
        b = GridBelief(tri_grid, np.array([0.25, 0.75, 0.0]))
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert entropy(b) == pytest.approx(expected, abs=1e-12)
        assert entropy(b) == pytest.approx(0.562335, abs=1e-6)


class TestXLogX:
    """numpy's vectorized ``x ln x`` against scipy's ``xlogy(x, x)`` as the oracle."""

    def test_within_two_ulps_of_scipy(self):
        rng = np.random.default_rng(16)
        tiny = np.finfo(np.float64).tiny
        x = np.concatenate([
            1.0 - rng.uniform(0.0, 1.0, 200_000),          # uniform on (0, 1]
            1.0 - rng.uniform(0.0, 1e-6, 10_000),          # within 1e-6 of 1
            rng.uniform(0.0, 1.0, 10_000) * tiny,          # subnormals
            np.geomspace(5e-324, tiny, 2_000),
            [5e-324, 1e-323, tiny, 1.0],
        ])
        got, want = _xlogx(x), xlogy(x, x)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert _xlogx(np.array([1.0]))[0] == 0.0

    def test_equals_the_masked_log_byte_for_byte(self):
        # The form before the unmasked log: a zeroed output, logged where x > 0.
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(0.0, 1.0, 10_000), [0.0, -0.0, np.nan, 1.0, 5e-324]])
        x[rng.permutation(x.size)[:1_000]] = 0.0
        masked = np.zeros_like(x)
        np.log(x, out=masked, where=x > 0)
        masked *= x
        assert _xlogx(x).tobytes() == masked.tobytes()
        assert math.copysign(1.0, _xlogx(np.array([-0.0]))[0]) == -1.0

    def test_zero_gives_exactly_zero_and_nan_propagates(self):
        got = _xlogx(np.array([0.0, np.nan, 0.5, 0.0]))
        assert got[0] == 0.0 and got[3] == 0.0
        assert math.isnan(got[1])
        assert got[2] == pytest.approx(0.5 * math.log(0.5), rel=1e-15)


class TestInfoGain:
    def test_diagonal_zero_both_answers(self, tri_grid):
        b = GridBelief(tri_grid, np.array([0.25, 0.25, 0.5]))
        assert info_gain(b, Query(1.0, 1.0), 0) == 0.0
        assert info_gain(b, Query(1.0, 1.0), 1) == 0.0

    def test_point_mass_prior_no_gain(self, default_grid):
        mass = np.zeros(default_grid.n_points)
        mass[50] = 1.0
        b = GridBelief(default_grid, mass)
        assert info_gain(b, Query(-2.0, 4.0), 1) == 0.0

    def test_three_point_value(self, tri_uniform, tri_query):
        # Exact posterior is (10, 15, 18)/43; gain = ln 3 - H(posterior).
        lik = [0.5, 0.75, 0.9]
        post = [p / sum(lik) for p in lik]
        oracle = math.log(3.0) + sum(p * math.log(p) for p in post)
        got = info_gain(tri_uniform, tri_query, 1)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.0274888, abs=1e-6)

    def test_single_answer_gain_can_be_negative(self, default_grid):
        # A surprising answer can raise entropy.
        bp = BeliefParams(-3.0, 0.5, 3.0, 0.5, 0.95)
        b = discretize_belief(bp, default_grid)
        assert info_gain(b, Query(-6.0, 6.0), 1) < 0.0


class TestExpectedInfoGain:
    def test_diagonal_exactly_zero(self, default_grid):
        b = uniform_belief(default_grid)
        assert expected_info_gain(b, Query(0.25, 0.25)) == 0.0

    def test_dual_form_agreement(self, default_grid):
        rng = np.random.default_rng(29)
        for _ in range(100):
            b = random_belief(rng, default_grid)
            q = Query(*rng.uniform(-6, 6, size=2))
            lik = answer_likelihoods(default_grid.points, q)
            p1 = float(np.sum(b.mass * lik))
            dual = bernoulli_entropy(p1) - float(
                np.sum(b.mass * np.array([bernoulli_entropy(v) for v in lik])))
            assert expected_info_gain(b, q) == pytest.approx(dual, abs=1e-9)

    def test_bounds(self, default_grid):
        rng = np.random.default_rng(31)
        for _ in range(200):
            b = random_belief(rng, default_grid)
            q = Query(*rng.uniform(-6, 6, size=2))
            gain = expected_info_gain(b, q)
            assert gain >= -1e-12
            assert gain <= math.log(2.0) + 1e-12
            assert gain <= entropy(b) + 1e-9

    def test_dominant_mode_argmax_straddles_it(self, default_grid):
        bp = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
        b = discretize_belief(bp, default_grid)
        qg = QueryGrid(-6.0, 6.0, 49)
        best = qg.candidates[int(np.argmax(eig_map(b, qg)))]
        assert min(best) < -3.0 < max(best)


class TestEigMap:
    def test_matches_scalar_path(self):
        grid = ThetaGrid(-2.0, 2.0, 5)
        qg = QueryGrid(-2.0, 2.0, 3)
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 1.0, size=5)
        b = GridBelief(grid, raw / raw.sum())
        emap = eig_map(b, qg)
        for idx in range(qg.n_candidates):
            assert emap[idx] == pytest.approx(
                expected_info_gain(b, qg.query_at(idx)), abs=1e-12)

    def test_diagonal_entries_zero(self, default_grid):
        b = uniform_belief(default_grid)
        qg = QueryGrid(-6.0, 6.0, 11)
        emap = eig_map(b, qg)
        cands = qg.candidates
        diag = cands[:, 0] == cands[:, 1]
        assert np.all(emap[diag] == 0.0)

    def test_swap_symmetry(self, default_grid):
        rng = np.random.default_rng(41)
        b = random_belief(rng, default_grid)
        qg = QueryGrid(-6.0, 6.0, 15)
        emap = eig_map(b, qg)
        n = qg.n_per_axis
        for i in range(n):
            for j in range(n):
                assert abs(emap[i * n + j] - emap[j * n + i]) <= 1e-12


class TestDualFormEigMap:
    QG = QueryGrid(-6.0, 6.0, 15)

    @pytest.mark.parametrize("form", REWARD_FORMS)
    @pytest.mark.parametrize("cell", [0, 50, 120, 240])
    def test_point_mass_map_finite_with_zero_diagonal(self, default_grid, form, cell):
        qg = QueryGrid(-6.0, 6.0, 49)
        mass = np.zeros(default_grid.n_points)
        mass[cell] = 1.0
        b = GridBelief(default_grid, mass)
        emap = eig_map(b, qg, form)
        assert np.all(np.isfinite(emap))
        cands = qg.candidates
        assert np.all(emap[cands[:, 0] == cands[:, 1]] == 0.0)
        policy = l2_query_policy(b, qg, 50.0, form)
        assert abs(float(policy.probs.sum()) - 1.0) <= 1e-9

    def test_mass_sum_rounding_above_one_stays_finite(self, default_grid):
        # GridBelief accepts sums within 1e-9 of 1; where every likelihood on
        # the support is exactly 1, the predictive probability exceeds 1.
        mass = np.zeros(default_grid.n_points)
        mass[[-2, -1]] = [0.5, 0.5 + 1e-10]
        b = GridBelief(default_grid, mass)
        qg = QueryGrid(-6.0, 6.0, 49)
        assert np.all(np.isfinite(eig_map(b, qg, "squared_distance")))
        l2_query_policy(b, qg, 50.0, "squared_distance")

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_exact_swap_symmetry(self, default_grid, form):
        rng = np.random.default_rng(43)
        n = self.QG.n_per_axis
        for _ in range(3):
            emap = eig_map(random_belief(rng, default_grid), self.QG, form).reshape(n, n)
            assert np.array_equal(emap, emap.T)

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_matches_scalar_expected_info_gain(self, default_grid, form):
        rng = np.random.default_rng(47)
        for _ in range(3):
            b = random_belief(rng, default_grid)
            emap = eig_map(b, self.QG, form)
            for idx in range(self.QG.n_candidates):
                scalar = expected_info_gain(b, self.QG.query_at(idx), form)
                assert abs(emap[idx] - scalar) <= 1e-12

    def test_bytes_identical_across_blas_thread_counts(self):
        code = (
            "import hashlib, numpy as np, querymind as qm\n"
            "tg = qm.ThetaGrid(-6.0, 6.0, 241)\n"
            "qg = qm.QueryGrid(-6.0, 6.0, 49)\n"
            "h = hashlib.sha256()\n"
            "for form in qm.REWARD_FORMS:\n"
            "    for pz in (0.9, 0.5):\n"
            "        b = qm.discretize_belief(qm.BeliefParams(-3.0, 1.0, 3.0, 1.0, pz), tg)\n"
            "        h.update(qm.eig_map(b, qg, form).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1


class TestSoftmaxPolicy:
    def test_zero_beta_uniform(self):
        probs = softmax_policy(np.array([1.0, 5.0, -2.0]), 0.0)
        np.testing.assert_array_equal(probs, np.full(3, 1.0 / 3.0))

    def test_two_candidate_value(self):
        probs = softmax_policy(np.array([0.0, math.log(3.0)]), 1.0)
        np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = rng.normal(size=20)
            beta = rng.uniform(0, 100)
            shift = rng.normal() * 10
            np.testing.assert_allclose(softmax_policy(u, beta),
                                       softmax_policy(u + shift, beta), atol=1e-12)

    def test_large_beta_concentrates(self):
        probs = softmax_policy(np.array([0.0, 1.0, 0.2]), 1e4)
        assert probs[1] >= 1.0 - 1e-6

    def test_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            probs = softmax_policy(rng.normal(size=50), rng.uniform(0, 200))
            assert abs(float(probs.sum()) - 1.0) <= 1e-12

    def test_matrix_rows_get_the_bits_of_one_row_calls(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            u = rng.normal(0.0, rng.uniform(0.01, 100.0),
                           (int(rng.integers(1, 6)), int(rng.integers(1, 300))))
            beta = float(rng.choice([0.0, 0.5, 1.0, 50.0, 1e3]))
            want = np.stack([softmax_policy(row, beta) for row in u])
            assert softmax_policy(u, beta).tobytes() == want.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_policy(np.array([]), 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax_policy(np.array([1.0]), -0.5)


class TestSampleIndex:
    def test_degenerate_distribution(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert sample_index(np.array([1.0, 0.0, 0.0]), rng) == 0

    def test_frequencies(self):
        rng = np.random.default_rng(99)
        draws = [sample_index(np.array([0.25, 0.75]), rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 0.75) <= 0.02

    def test_reproducible(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        a = [sample_index(probs, np.random.default_rng(4)) for _ in range(5)]
        b = [sample_index(probs, np.random.default_rng(4)) for _ in range(5)]
        assert a == b


class TestQueryGrid:
    def test_candidate_enumeration(self):
        qg = QueryGrid(-1.0, 1.0, 3)
        expected = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                    (1, -1), (1, 0), (1, 1)]
        np.testing.assert_array_equal(qg.candidates, expected)

    def test_index_roundtrip(self):
        qg = QueryGrid(-6.0, 6.0, 49)
        for idx in (0, 48, 500, 2400):
            assert qg.index_of(qg.query_at(idx)) == idx

    @pytest.mark.parametrize("qg", [QueryGrid(-6.0, 6.0, 49), QueryGrid(-1.0, 2.5, 7)])
    def test_query_at_reads_the_candidate_table(self, qg):
        cands = qg.candidates
        for idx in range(-qg.n_candidates, qg.n_candidates):
            q = qg.query_at(idx)
            assert (q.x1, q.x2) == tuple(cands[idx])
        for idx in (-qg.n_candidates - 1, qg.n_candidates):
            with pytest.raises(IndexError):
                qg.query_at(idx)

    def test_off_grid_query_rejected(self):
        qg = QueryGrid(-6.0, 6.0, 49)
        with pytest.raises(InvalidInputError):
            qg.index_of(Query(0.1, 0.0))

    @pytest.mark.parametrize("q", [Query(1e308, 2.0), Query(2.0, -1e308)])
    def test_overflowing_query_is_outside_grid(self, q):
        # (x - feature_lo) / step overflows to inf; rounding it used to raise
        # OverflowError.
        with pytest.raises(InvalidInputError, match="outside grid"):
            QueryGrid(-6.0, 6.0, 49).index_of(q)

    def test_rejects_overflowing_span(self):
        with pytest.raises(InvalidInputError, match="query grid span hi - lo overflows"):
            QueryGrid(-1e308, 1e308, 49)
        assert np.all(np.isfinite(QueryGrid(-8e307, 8e307, 49).candidates))


def _wide_points_and_pairs():
    """97 points and 500 pairs drawn at scales from 1 to 1.8e308, so that
    some distances and some gaps overflow under either reward form."""
    rng = np.random.default_rng(14)
    scales = np.array([1.0, 1e3, 1e100, 1e160, 1e307, 1e308])

    def draw(shape):
        return rng.choice(scales, size=shape) * rng.uniform(-1.79, 1.79, size=shape)

    return draw(97), draw((500, 2))


class TestLikelihoodMatrix:
    POINTS = np.linspace(-6.0, 6.0, 25)
    FINITE = np.array([[-4.0, 2.0], [2.0, -4.0], [0.5, 0.5], [-6.0, 6.0]])
    # sha256 of the matrix bytes, with the logistic on numpy's exp: the
    # default theta grid against all 49 x 49 candidates, and the wide set of
    # _wide_points_and_pairs.  Taken with numpy 2.4.6 dispatching to AVX-512;
    # an AVX2-only dispatch moves them (README, "Pinned bits belong to one
    # host").
    DIGESTS = {
        (ABSOLUTE_DISTANCE, "default"):
            "679c0e31c7b3a958956d19bd7db252aab2998e55952fccadce9e5e9d6287f3e8",
        (ABSOLUTE_DISTANCE, "wide"):
            "fd3006037c6d3361b8f19b3797c21023e9b55fb495542642e4067441191c6c98",
        (SQUARED_DISTANCE, "default"):
            "a9656c17ef73005eaf3ca0e765bce94a60a40500a96fb20ffd71b0b8dd7b46a7",
        (SQUARED_DISTANCE, "wide"):
            "4611c8b76e5b7b16b74ea35cab9e49f9b83859f571630fe4f40e3377e807d916",
    }

    @pytest.mark.parametrize("form, table", sorted(DIGESTS))
    def test_digests_are_pinned(self, form, table):
        if table == "default":
            points, pairs = ThetaGrid(-6.0, 6.0, 241).points, QueryGrid(-6.0, 6.0, 49).candidates
        else:
            points, pairs = _wide_points_and_pairs()
        got = likelihood_matrix(points, pairs, form)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.DIGESTS[form, table]
        if table == "wide":
            # Both limits of the logistic occur; 946 (absolute) and 43,460
            # (squared) of the 48,500 gaps overflow.
            assert np.isin((0.0, 1.0), got).all()

    def test_answer_likelihoods_is_one_row(self, default_grid):
        pairs = QueryGrid(-6.0, 6.0, 13).candidates
        for form in REWARD_FORMS:
            table = likelihood_matrix(default_grid.points, pairs, form)
            for row, (x1, x2) in zip(table, pairs):
                got = answer_likelihoods(default_grid.points, Query(x1, x2), form)
                assert got.tobytes() == row.tobytes()

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_overflowing_difference_takes_the_logistic_limit(self, form):
        # Squared distances overflow beyond about 1.3e154 and absolute ones
        # beyond 1.8e308; inf - inf used to give NaN likelihoods (and a
        # RuntimeWarning, an error under pytest).
        cands = np.array([[1e200, 1e201], [1e201, 1e200], [1e200, 1e200],
                          [-1e308, 1e308], [1e308, 1e308], [1e308, -4.0]])
        got = likelihood_matrix(self.POINTS, cands, form)
        want = np.array([0.0, 1.0, 0.5, 0.5, 0.5, 1.0])[:, None]
        assert np.array_equal(got, np.broadcast_to(want, got.shape))

    def test_overflowing_distance_takes_the_logistic_limit(self):
        # theta - x itself overflows: theta = 1e308 is nearer x2 = 1e308 than
        # x1 = -1e308, theta = -1e308 the reverse; a diagonal pair gives 0.5.
        points = np.array([1e308, -1e308])
        cands = np.array([[-1e308, 1e308], [1e308, -1e308], [-1e308, -1e308]])
        for form in REWARD_FORMS:
            got = likelihood_matrix(points, cands, form)
            assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_finite_differences_keep_their_bits(self, form):
        cands = np.vstack([self.FINITE, [[1e200, 1e201], [-1e308, 1e308]]])
        got = likelihood_matrix(self.POINTS, cands, form)
        alone = likelihood_matrix(self.POINTS, self.FINITE, form)
        assert got[:4].tobytes() == alone.tobytes()
        d1 = self.POINTS[None, :] - self.FINITE[:, [0]]
        d2 = self.POINTS[None, :] - self.FINITE[:, [1]]
        diff = np.abs(d1) - np.abs(d2) if form == ABSOLUTE_DISTANCE else d1 * d1 - d2 * d2
        # The choice model's own logistic, which the table's rows run.
        assert alone.tobytes() == _logistic(diff).tobytes()


class TestLikelihoodTable:
    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_is_the_read_only_likelihood_matrix(self, form):
        grid, qg = ThetaGrid(-6.0, 6.0, 241), QueryGrid(-6.0, 6.0, 49)
        table = _likelihood_table(grid, qg, form)
        assert table.tobytes() == likelihood_matrix(grid.points, qg.candidates, form).tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5
        assert _likelihood_table(grid, qg, form) is table

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_gain_table_reads_its_upper_rows(self, form):
        grid, qg = ThetaGrid(-6.0, 6.0, 241), QueryGrid(-6.0, 6.0, 49)
        upper, _, lik, _ = _gain_table(grid, qg, form)
        assert lik.tobytes() == _likelihood_table(grid, qg, form)[upper].tobytes()

    def test_gain_maps_build_no_full_table(self):
        # The gain table builds its own upper rows, so a run that only maps
        # gains never builds the n^2-row likelihood table.
        grid, qg = ThetaGrid(-6.0, 6.0, 241), QueryGrid(-6.0, 6.0, 49)
        _likelihood_table.cache_clear()
        _gain_table.cache_clear()
        for form in REWARD_FORMS:
            eig_map(uniform_belief(grid), qg, form)
        assert _gain_table.cache_info().currsize == 2
        assert _likelihood_table.cache_info().currsize == 0


class TestQueryPolicy:
    @pytest.mark.parametrize("probs", [[math.nan] * 9, [math.inf] + [0.0] * 8,
                                       [1.5, -0.5] + [0.0] * 7, [0.5] * 2, [0.1] * 9])
    def test_rejects_non_probability_vectors(self, probs):
        with pytest.raises(InvalidInputError):
            QueryPolicy(QueryGrid(-1.0, 1.0, 3), probs)
