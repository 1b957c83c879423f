import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp, xlogy

import querymind
from querymind import agents, inference
from querymind.model import (
    MIN_SIGMA,
    REWARD_FORMS,
    BeliefParams,
    DegenerateBeliefError,
    GridBelief,
    InvalidInputError,
    LabeledExample,
    Query,
    SQUARED_DISTANCE,
    ThetaGrid,
    discretize_belief,
    uniform_belief,
)
from querymind.inference import (
    ImpossibleEvidenceError,
    QueryGrid,
    eig_map,
    expected_info_gain,
    posterior_update,
)
from querymind.agents import (
    BeliefEnsemble,
    MleSearchConfig,
    ParamRange,
    _SEARCH_CHUNK,
    _dataset_likelihoods,
    _exact_log_normalizers,
    _exact_objective,
    _l2_policy_matrix,
    _observer_posteriors,
    _summed_objective,
    bayes_factor,
    l2_query_policy,
    l2_select_query,
    l3_answer_policy,
    l3_teaching_policy,
    l3_teaching_utilities,
    l3_teaching_utility,
    l4_query_policy,
    l4_utility,
    mle_belief,
    mle_objective,
    teaching_candidates,
    tom_posterior,
)
from querymind.config import default_config
from querymind.experiments import bimodal_config, sample_queries

TG = ThetaGrid(-6.0, 6.0, 241)
QG = QueryGrid(-6.0, 6.0, 49)
DOMINANT_LEFT = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
DOMINANT_RIGHT = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.1)


def _summed_rows(rows, lik1, points):
    """``_summed_objective`` of each (mu1, s1, mu2, s2, p_z) row, scored as a one-point grid."""
    return np.array([_summed_objective([row[[c]] for c in (0, 2, 1, 3, 4)], lik1, points).item()
                     for row in rows])


def _learner_mass(tc, theta_true, prior, form="absolute_distance"):
    """The learner's own posterior mass on the true cell: the oracle of the
    teacher's table.  An answer of zero likelihood under the prior gives 0."""
    try:
        post = posterior_update(prior, tc.query, tc.y, form)
    except ImpossibleEvidenceError:
        return 0.0
    return float(post.mass[prior.grid.index_of(theta_true)])


def two_particle_ensemble():
    return BeliefEnsemble((DOMINANT_LEFT, DOMINANT_RIGHT), np.array([0.5, 0.5]))


class TestBeliefEnsemble:
    def test_rejects_noncanonical_particle(self):
        with pytest.raises(InvalidInputError):
            BeliefEnsemble((BeliefParams(3.0, 1.0, -3.0, 1.0, 0.5),), np.array([1.0]))

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInputError):
            BeliefEnsemble((DOMINANT_LEFT,), np.array([0.5]))
        for weights in ([1.5, -0.5], [math.nan, math.nan], [math.inf, -math.inf]):
            with pytest.raises(InvalidInputError):
                BeliefEnsemble((DOMINANT_LEFT, DOMINANT_RIGHT), np.array(weights))

    def test_single(self):
        ens = BeliefEnsemble.single(BeliefParams(3.0, 1.0, -3.0, 1.0, 0.5))
        assert ens.particles[0].is_canonical
        assert ens.weights[0] == 1.0


class TestL2Policy:
    def test_zero_rationality_uniform(self):
        b = discretize_belief(DOMINANT_LEFT, TG)
        policy = l2_query_policy(b, QG, 0.0)
        np.testing.assert_array_equal(policy.probs,
                                      np.full(QG.n_candidates, 1.0 / QG.n_candidates))

    def test_point_mass_belief_uniform(self):
        mass = np.zeros(TG.n_points)
        mass[100] = 1.0
        policy = l2_query_policy(GridBelief(TG, mass), QG, 50.0)
        np.testing.assert_array_equal(policy.probs,
                                      np.full(QG.n_candidates, 1.0 / QG.n_candidates))

    def test_high_rationality_samples_straddle_dominant_mode(self):
        b = discretize_belief(DOMINANT_LEFT, TG)
        policy = l2_query_policy(b, QG, 50.0)
        rng = np.random.default_rng(0)
        queries = [l2_select_query(policy, rng) for _ in range(20)]
        straddling = sum(min(q.x1, q.x2) < -3.0 < max(q.x1, q.x2) for q in queries)
        assert straddling >= 15

    def test_select_one_hot(self):
        from querymind.inference import QueryPolicy

        probs = np.zeros(QG.n_candidates)
        probs[1234] = 1.0
        pol = QueryPolicy(QG, probs)
        assert QG.index_of(l2_select_query(pol, np.random.default_rng(3))) == 1234

    def test_sampled_sequence_reproducible(self):
        b = discretize_belief(DOMINANT_LEFT, TG)
        policy = l2_query_policy(b, QG, 50.0)
        seq_a = [l2_select_query(policy, np.random.default_rng(11))
                 for _ in range(5)]
        seq_b = [l2_select_query(policy, np.random.default_rng(11))
                 for _ in range(5)]
        assert seq_a == seq_b


class TestMleObjective:
    def test_diagonal_dataset_scores_zero(self):
        queries = [Query(x, x) for x in (-2.0, 0.0, 3.5)]
        for bp in (DOMINANT_LEFT, BeliefParams(0.0, 0.5, 1.0, 2.0, 0.4)):
            assert mle_objective(queries, bp, QG, TG) == 0.0

    def test_single_query_linearity(self):
        q = Query(-4.0, 1.0)
        a = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
        b = BeliefParams(-2.0, 0.5, 2.0, 0.5, 0.5)
        diff_obj = mle_objective([q], a, QG, TG) - mle_objective([q], b, QG, TG)
        diff_eig = expected_info_gain(discretize_belief(a, TG), q) \
            - expected_info_gain(discretize_belief(b, TG), q)
        assert diff_obj == pytest.approx(diff_eig, abs=1e-12)

    def test_exact_mode_zero_rationality_is_constant(self):
        queries = [Query(-4.0, 1.0), Query(0.0, 2.0), Query(-1.0, -1.0)]
        expected = -len(queries) * math.log(QG.n_candidates)
        for bp in (DOMINANT_LEFT, BeliefParams(-1.0, 0.3, 4.0, 2.0, 0.2)):
            got = mle_objective(queries, bp, QG, TG, exact=True, beta_a=0.0)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_order_invariance(self):
        queries = [Query(-4.0, 1.0), Query(2.0, -1.5), Query(0.25, 5.0)]
        fwd = mle_objective(queries, DOMINANT_LEFT, QG, TG)
        rev = mle_objective(queries[::-1], DOMINANT_LEFT, QG, TG)
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            mle_objective([], DOMINANT_LEFT, QG, TG)


class TestMleBelief:
    def test_fixed_point_generator_recovered_exactly(self):
        # The summed-gain objective's global optimum inside the search box is
        # the even two-point mixture at the box corners; queries generated
        # greedily from that belief recover it within one refined cell.
        gen = BeliefParams(-6.0, 0.25, 6.0, 0.25, 0.5)
        policy = l2_query_policy(discretize_belief(gen, TG), QG, 50.0)
        q = QG.query_at(int(np.argmax(policy.probs)))
        est = mle_belief([q] * 5, MleSearchConfig(), QG, TG)
        assert est.astuple() == gen.astuple()

    @pytest.mark.xfail(
        strict=True,
        reason="summed-gain attribution is maximized by extreme near-two-point "
               "mixtures, not by a generic generator; see README known limitations")
    def test_generic_on_grid_generator_recovered(self):
        gen = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
        policy = l2_query_policy(discretize_belief(gen, TG), QG, 50.0)
        q = QG.query_at(int(np.argmax(policy.probs)))
        est = mle_belief([q] * 5, MleSearchConfig(), QG, TG)
        # One refined cell after three halvings of the coarse spacing.
        assert abs(est.mu1 - gen.mu1) <= 0.5 / 8 + 1e-9
        assert abs(est.mu2 - gen.mu2) <= 0.5 / 8 + 1e-9

    def test_exact_likelihood_recovers_modes_at_reduced_scale(self):
        # The normalized-likelihood objective is statistically consistent and
        # pulls the estimate toward the generator's modes, while the default
        # summed-gain objective always prefers the corner two-point mixture.
        # Run at reduced grid sizes where the normalizer is affordable.
        tg = ThetaGrid(-6.0, 6.0, 61)
        qg = QueryGrid(-6.0, 6.0, 13)
        gen = BeliefParams(-3.0, 0.5, 3.0, 0.5, 0.6)
        policy = l2_query_policy(discretize_belief(gen, tg), qg, 50.0)
        cfg = MleSearchConfig(mu1=ParamRange(-6.0, 0.0, 7), mu2=ParamRange(0.0, 6.0, 7),
                              sigma1=ParamRange(0.3, 1.2, 2), sigma2=ParamRange(0.3, 1.2, 2),
                              p_z=ParamRange(0.1, 0.9, 5), n_refine_iters=2)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            queries = [l2_select_query(policy, rng) for _ in range(12)]
            exact = mle_belief(queries, cfg, qg, tg, exact=True, beta_a=50.0)
            plain = mle_belief(queries, cfg, qg, tg, exact=False, beta_a=50.0)
            assert abs(exact.mu1 - gen.mu1) <= 1.25
            assert abs(exact.mu2 - gen.mu2) <= 1.25
            assert abs(plain.mu1 - gen.mu1) >= 2.0
            assert abs(plain.mu2 - gen.mu2) >= 2.0

    def test_objective_at_output_dominates_coarse_grid(self):
        rng = np.random.default_rng(2)
        queries = [Query(float(a), float(b)) for a, b in rng.uniform(-6, 6, (4, 2))]
        cfg = MleSearchConfig(mu1=ParamRange(-6.0, 0.0, 4), mu2=ParamRange(0.0, 6.0, 4),
                              sigma1=ParamRange(0.25, 2.0, 2), sigma2=ParamRange(0.25, 2.0, 2),
                              p_z=ParamRange(0.1, 0.9, 3), n_refine_iters=2)
        est = mle_belief(queries, cfg, QG, TG)
        best = mle_objective(queries, est, QG, TG)
        for mu1 in cfg.mu1.values():
            for mu2 in cfg.mu2.values():
                for s1 in cfg.sigma1.values():
                    for s2 in cfg.sigma2.values():
                        for pz in cfg.p_z.values():
                            bp = BeliefParams(mu1, s1, mu2, s2, pz)
                            assert best >= mle_objective(queries, bp, QG, TG) - 1e-9

    def test_exact_search_scores_diagonal_queries_like_the_objective(self):
        # Diagonal queries add no gain but still contribute a normalizer
        # term in exact mode; the search must honor the same objective as
        # the scalar scoring function.
        tg = ThetaGrid(-6.0, 6.0, 41)
        qg = QueryGrid(-6.0, 6.0, 7)
        queries = [Query(1.0, 1.0), Query(-4.0, 2.0), Query(-2.0, -2.0)]
        cfg = MleSearchConfig(mu1=ParamRange(-5.0, -1.0, 3), mu2=ParamRange(1.0, 5.0, 3),
                              sigma1=ParamRange(0.5, 1.5, 2), sigma2=ParamRange(0.5, 1.5, 2),
                              p_z=ParamRange(0.2, 0.8, 3), n_refine_iters=0)
        est = mle_belief(queries, cfg, qg, tg, exact=True, beta_a=20.0)
        best = mle_objective(queries, est, qg, tg, exact=True, beta_a=20.0)
        for mu1 in cfg.mu1.values():
            for mu2 in cfg.mu2.values():
                for s1 in cfg.sigma1.values():
                    for s2 in cfg.sigma2.values():
                        for pz in cfg.p_z.values():
                            bp = BeliefParams(mu1, s1, mu2, s2, pz)
                            other = mle_objective(queries, bp, qg, tg,
                                                  exact=True, beta_a=20.0)
                            assert best >= other - 1e-9

    def test_zero_probability_answers_give_finite_scores(self):
        # Under squared distance, tight sigmas at the range corners give an
        # answer zero predictive probability; its term must be its limit, 0.
        queries = [Query(6.0, 0.0), Query(5.0, -1.0), Query(-6.0, 0.0)]
        cfg = MleSearchConfig(sigma1=ParamRange(0.01, 2.0, 4),
                              sigma2=ParamRange(0.01, 2.0, 4))
        points = TG.points
        lik1 = _dataset_likelihoods(queries, points, SQUARED_DISTANCE)
        axes = [r.values() for r in (cfg.mu1, cfg.mu2, cfg.sigma1, cfg.sigma2, cfg.p_z)]
        values = _summed_objective(axes, lik1, points)
        assert np.all(np.isfinite(values))
        cand = BeliefParams(-6.0, 0.01, 0.0, 0.01, 0.7)
        row = np.array([cand.astuple()])
        log_z = _exact_log_normalizers(row, TG, QG, SQUARED_DISTANCE, 50.0)
        for exact in (False, True):
            got = (_exact_objective(row, lik1, points, 50.0, log_z, len(queries)) if exact
                   else _summed_rows(row, lik1, points))[0]
            want = mle_objective(queries, cand, QG, TG, SQUARED_DISTANCE, exact, 50.0)
            assert got == pytest.approx(want, abs=1e-9)

    # Pinned bit for bit: the refinement windows and the argmax tie order
    # decide these estimates, so any change to either shows here.
    PIN_TG = ThetaGrid(-6.0, 6.0, 61)
    PIN_QG = QueryGrid(-6.0, 6.0, 13)
    PIN_CFG = MleSearchConfig(mu1=ParamRange(-6.0, 0.0, 3), mu2=ParamRange(0.0, 6.0, 3),
                              sigma1=ParamRange(0.3, 1.2, 2), sigma2=ParamRange(0.3, 1.2, 2),
                              p_z=ParamRange(0.1, 0.9, 3), n_refine_iters=2)
    ABS_QUERIES = [(4.0, -5.0), (-4.0, 4.0), (-6.0, 6.0), (-6.0, 5.0), (5.0, -5.0),
                   (6.0, -6.0), (3.0, -2.0), (4.0, -3.0)]
    SQ_QUERIES = [(2.0, -3.0), (-3.0, 3.0), (-6.0, 5.0), (-6.0, 3.0), (4.0, -4.0),
                  (5.0, -3.0), (2.0, -5.0), (3.0, -3.0)]
    # The coarse-pass winner that the summed squared-distance estimate ties with.
    SATURATION_TIE = (-6.0, 0.3, 6.0, 0.3, 0.5)

    @pytest.mark.parametrize("form, pairs, exact, want", [
        ("absolute_distance", ABS_QUERIES, False, (-6.0, 0.3, 6.0, 0.3, 0.5)),
        ("absolute_distance", ABS_QUERIES, True,
         (-2.25, 1.0090756983044573, 2.25, 0.7135242690016326, 0.4)),
        # A saturation tie: every query sits at its ln 2 ceiling for both the
        # refined estimate and SATURATION_TIE below, so rounding picks one.
        (SQUARED_DISTANCE, SQ_QUERIES, False,
         (-6.0, 0.42426406871192845, 6.0, 0.42426406871192845, 0.5)),
        (SQUARED_DISTANCE, SQ_QUERIES, True,
         (-2.25, 0.7135242690016326, 2.25, 1.0090756983044573, 0.6)),
        # Only diagonal queries: every candidate scores 0, so the lowest index wins.
        ("absolute_distance", [(1.0, 1.0), (-2.0, -2.0)], False, (-6.0, 0.3, 0.0, 0.3, 0.1)),
    ])
    def test_small_search_estimates_are_pinned(self, form, pairs, exact, want):
        queries = [Query(x1, x2) for x1, x2 in pairs]
        est = mle_belief(queries, self.PIN_CFG, self.PIN_QG, self.PIN_TG, form, exact, 50.0)
        assert est.astuple() == want
        if (form, exact) == (SQUARED_DISTANCE, False):
            scores = [mle_objective(queries, BeliefParams(*bp), self.PIN_QG, self.PIN_TG, form)
                      for bp in (want, self.SATURATION_TIE)]
            assert abs(scores[0] - scores[1]) <= 4 * np.spacing(scores[0])

    @pytest.mark.parametrize("exact", [False, True])
    def test_overflowing_squared_difference_adds_no_gain(self, exact):
        # Every grid theta is nearer 1e200 than 1e201, so the answer is
        # certain and the query scores as a diagonal one; its likelihoods
        # used to be NaN, and argmax picked them.
        far, diagonal, near = Query(1e200, 1e201), Query(1.0, 1.0), Query(-4.0, 2.0)
        est = [mle_belief([q, near], self.PIN_CFG, self.PIN_QG, self.PIN_TG, SQUARED_DISTANCE,
                          exact, 50.0) for q in (far, diagonal)]
        assert est[0] == est[1]

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("exact", [False, True])
    def test_invalid_rationality_rejected(self, beta, exact):
        # Checked before the search starts, so it never becomes a cache key.
        agents._coarse_log_normalizers.cache_clear()
        queries = [Query(x1, x2) for x1, x2 in self.ABS_QUERIES]
        error = "beta must be finite|rationality must be nonnegative"
        with pytest.raises(InvalidInputError, match=error):
            mle_objective(queries, DOMINANT_LEFT, self.PIN_QG, self.PIN_TG,
                          exact=exact, beta_a=beta)
        with pytest.raises(InvalidInputError, match=error):
            mle_belief(queries, self.PIN_CFG, self.PIN_QG, self.PIN_TG,
                       exact=exact, beta_a=beta)
        assert agents._coarse_log_normalizers.cache_info().currsize == 0

    def test_p_z_range_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidInputError, match="p_z range"):
            MleSearchConfig(p_z=ParamRange(0.1, 1.5, 3))
        with pytest.raises(InvalidInputError, match="p_z range"):
            MleSearchConfig(p_z=ParamRange(-0.1, 0.9, 3))
        MleSearchConfig(p_z=ParamRange(0.0, 1.0, 3))

    def test_sigma_range_below_smallest_normal_rejected(self):
        for field in ("sigma1", "sigma2"):
            with pytest.raises(InvalidInputError, match="sigma ranges must start at >= "):
                MleSearchConfig(**{field: ParamRange(1e-320, 2.0, 4)})
        MleSearchConfig(sigma1=ParamRange(MIN_SIGMA, 2.0, 4))

    @pytest.mark.parametrize("exact", [False, True])
    def test_tiny_sigma_rows_score_finite_without_warning(self, exact):
        # A squared z-score that overflows must give the tail's limit, 0, not
        # a RuntimeWarning (an error under pytest) or a NaN that argmax picks.
        tg, qg = ThetaGrid(-6.0, 6.0, 41), QueryGrid(-6.0, 6.0, 7)
        a, b = tg.points[10], tg.points[30]
        rows = np.array([[a, 1e-200, b, 1.0, 0.9], [a, MIN_SIGMA, b, MIN_SIGMA, 0.5]])
        queries = [Query(-4.0, 2.0), Query(2.0, -4.0)]
        lik1 = _dataset_likelihoods(queries, tg.points, "absolute_distance")
        log_z = _exact_log_normalizers(rows, tg, qg, "absolute_distance", 50.0)
        got = (_exact_objective(rows, lik1, tg.points, 50.0, log_z, len(queries)) if exact
               else _summed_rows(rows, lik1, tg.points))
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("exact", [False, True])
    def test_search_with_no_representable_candidate_raises(self, exact):
        # Every candidate's components sit hundreds of units off the theta
        # grid, so every row scores -inf; argmax would return row 0.
        tg, qg = ThetaGrid(-6.0, 6.0, 41), QueryGrid(-6.0, 6.0, 7)
        cfg = MleSearchConfig(mu1=ParamRange(-300.0, -200.0, 3), mu2=ParamRange(200.0, 300.0, 3),
                              sigma1=ParamRange(0.25, 2.0, 2), sigma2=ParamRange(0.25, 2.0, 2),
                              p_z=ParamRange(0.1, 0.9, 3), n_refine_iters=1)
        with pytest.raises(DegenerateBeliefError) as info:
            mle_belief([Query(-4.0, 2.0), Query(2.0, -4.0)], cfg, qg, tg, exact=exact)
        assert str(info.value) == (
            "no candidate belief has representable mass on the theta grid [-6.0, 6.0]: "
            "every candidate in the search ranges mu1 [-300.0, -200.0], mu2 [200.0, 300.0], "
            "sigma1 [0.25, 2.0], sigma2 [0.25, 2.0], p_z [0.1, 0.9] scored -inf")

    def test_search_whose_coarse_pass_has_no_mass_can_still_refine(self):
        # Coarse means -20 and 60 are off the grid, so every coarse row scores
        # -inf; the refinement window around row 0 reaches mean 0, whose rows
        # are finite, so the search returns one of them instead of raising.
        tg, qg = ThetaGrid(-6.0, 6.0, 41), QueryGrid(-6.0, 6.0, 7)
        cfg = MleSearchConfig(mu1=ParamRange(-20.0, 60.0, 2), mu2=ParamRange(-20.0, 60.0, 2),
                              sigma1=ParamRange(0.1, 0.1, 1), sigma2=ParamRange(0.1, 0.1, 1),
                              p_z=ParamRange(0.5, 0.5, 1), n_refine_iters=1)
        est = mle_belief([Query(-4.0, 2.0)], cfg, qg, tg)
        assert 0.0 in (est.mu1, est.mu2)
        assert math.isfinite(mle_objective([Query(-4.0, 2.0)], est, qg, tg))

    def test_output_is_canonical(self):
        rng = np.random.default_rng(4)
        queries = [Query(float(a), float(b)) for a, b in rng.uniform(-6, 6, (3, 2))]
        cfg = MleSearchConfig(mu1=ParamRange(-6.0, 0.0, 3), mu2=ParamRange(0.0, 6.0, 3),
                              sigma1=ParamRange(0.5, 1.0, 2), sigma2=ParamRange(0.5, 1.0, 2),
                              p_z=ParamRange(0.3, 0.7, 3), n_refine_iters=1)
        est = mle_belief(queries, cfg, QG, TG)
        assert est.is_canonical

    def test_overflowing_range_span_rejected(self):
        # hi - lo overflowed, so np.linspace gave a NaN axis that argmax picked.
        with pytest.raises(InvalidInputError,
                           match=r"range span hi - lo overflows, got \[-1e\+308, 1e\+308\]"):
            ParamRange(-1e308, 1e308, 3)
        with pytest.raises(InvalidInputError, match="range span"):
            ParamRange(np.float64(-1e308), np.float64(1e308), 1)
        assert np.all(np.isfinite(ParamRange(-8e307, 8e307, 3).values()))

    def test_single_point_range_takes_a_finite_midpoint(self):
        # 0.5 * (lo + hi) overflowed to inf for a range past half the largest float.
        for lo, hi in ((1e308, 1.5e308), (np.float64(1e308), np.float64(1.5e308)),
                       (-1.5e308, -1e308)):
            assert ParamRange(lo, hi, 1).values().tolist() == [0.5 * lo + 0.5 * hi]
        # Halving is exact, so wherever the sum is finite the midpoint keeps its bits.
        rng = np.random.default_rng(8)
        for lo, hi in np.sort(rng.uniform(-100.0, 100.0, (200, 2)), axis=1):
            assert ParamRange(lo, hi, 1).values().tolist() == [0.5 * (lo + hi)]

    @pytest.mark.parametrize("mu1", [ParamRange(1e308, 1.5e308, 1),
                                     ParamRange(-1.7e308, -1e308, 3)], ids=["midpoint", "window"])
    @pytest.mark.parametrize("exact", [False, True])
    def test_search_ranges_near_the_largest_float_give_finite_estimates(self, mu1, exact):
        # A refinement window edge past the largest float overflows to its
        # limit and is clipped to the range, without a RuntimeWarning.
        tg, qg = ThetaGrid(-6.0, 6.0, 41), QueryGrid(-6.0, 6.0, 7)
        cfg = MleSearchConfig(mu1=mu1, mu2=ParamRange(0.0, 6.0, 3),
                              sigma1=ParamRange(0.5, 1.0, 2), sigma2=ParamRange(0.5, 1.0, 2),
                              p_z=ParamRange(0.3, 0.7, 3), n_refine_iters=1)
        est = mle_belief([Query(-4.0, 2.0), Query(2.0, -4.0)], cfg, qg, tg, exact=exact)
        assert all(math.isfinite(v) for v in est.astuple())


class TestSeparableSummedKernel:
    """``_summed_objective`` against the scalar ``mle_objective``, and pinned bit
    for bit; arbitrary rows are scored as one-point grids."""

    # (6, 0), (5, -1) and (-6, 0) give some sigma = 0.01 rows an answer of zero
    # predictive probability under squared distance; (1, 1) is diagonal.
    QUERIES = [Query(6.0, 0.0), Query(5.0, -1.0), Query(-6.0, 0.0), Query(1.0, 1.0),
               Query(-4.0, 2.5), Query(0.5, -3.0)]
    SPECIAL_ROWS = [
        (-2.0, 0.5, 3.0, 1.5, 0.3),
        (-2.0, 0.5, 3.0, 1.5, 0.3),      # duplicate row
        (0.0, 1.0, 0.0, 1.0, 0.3),       # one component, written twice
        (-2.0, 0.5, 3.0, 1.5, 0.0),      # p_z = 0
        (-2.0, 0.5, 3.0, 1.5, 1.0),      # p_z = 1
        (3.0, 0.7, -3.0, 1.2, 0.25),     # not canonical
        (-6.0, 0.01, 0.0, 0.01, 0.7),    # zero-probability answers
        (-6.0, 0.01, 6.0, 0.01, 0.5),
        (0.0, 0.01, 0.0, 2.0, 0.9),
    ]

    def _rows(self, rng, n):
        random_rows = np.column_stack([
            rng.uniform(-6.0, 6.0, n), np.exp(rng.uniform(math.log(0.01), math.log(3.0), n)),
            rng.uniform(-6.0, 6.0, n), np.exp(rng.uniform(math.log(0.01), math.log(3.0), n)),
            rng.uniform(0.0, 1.0, n)])
        return np.vstack([np.array(self.SPECIAL_ROWS), random_rows])

    def _oracle(self, row, form):
        return mle_objective(self.QUERIES, BeliefParams(*row), QG, TG, form)

    @pytest.mark.parametrize("row", [(4.069, 0.0473, 2.434, 0.0126, 0.991),
                                     (-3.772, 0.0159, -0.459, 0.0108, 0.211)])
    def test_scalar_oracle_scores_zero_probability_answers(self, row):
        # One answer to some query has predictive probability exactly 0 under
        # these beliefs; the scalar path adds its limit, 0, like the kernel.
        lik1 = _dataset_likelihoods(self.QUERIES, TG.points, SQUARED_DISTANCE)
        kernel = _summed_rows(np.array([row]), lik1, TG.points)[0]
        assert abs(self._oracle(row, SQUARED_DISTANCE) - kernel) <= 1e-9 * abs(kernel)
        assert math.isfinite(mle_objective(self.QUERIES, BeliefParams(*row), QG, TG,
                                           SQUARED_DISTANCE, exact=True))

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_matches_scalar_objective(self, form):
        rows = self._rows(np.random.default_rng(61), 40)
        lik1 = _dataset_likelihoods(self.QUERIES, TG.points, form)
        got = _summed_rows(rows, lik1, TG.points)
        assert got[0] == got[1]
        for value, row in zip(got, rows):
            want = self._oracle(row, form)
            assert abs(value - want) <= 1e-9 * abs(want)

    def test_all_diagonal_dataset_scores_zero(self):
        lik1 = _dataset_likelihoods([Query(1.0, 1.0), Query(-2.0, -2.0)], TG.points,
                                    "absolute_distance")
        rows = self._rows(np.random.default_rng(62), 20)
        got = _summed_rows(rows, lik1, TG.points)
        assert np.array_equal(got, np.zeros(rows.shape[0]))

    @pytest.mark.parametrize("queries", [QUERIES, [Query(1.0, 1.0)]])
    def test_unrepresentable_row_scores_minus_inf(self, queries):
        # Far-off components underflow on the whole grid; with p_z = 1 the
        # represented second component carries no weight.
        rows = np.array([(200.0, 0.25, 300.0, 0.25, 0.5), (200.0, 0.25, 0.0, 1.0, 1.0),
                         (-2.0, 0.5, 3.0, 1.5, 0.3), (0.0, 1.0, 0.0, 1.0, 0.3)])
        lik1 = _dataset_likelihoods(queries, TG.points, "absolute_distance")
        got = _summed_rows(rows, lik1, TG.points)
        assert np.array_equal(got[:2], [-np.inf, -np.inf])
        assert np.all(np.isfinite(got[2:]))
        assert int(np.argmax(got)) >= 2

    @pytest.mark.parametrize("counts", [(4, 5, 3, 3, 20), (2, 2, 6, 6, 30)],
                             ids=["pairs-per-block", "rows-per-pair"])
    def test_blocks_do_not_change_values(self, counts):
        # More than 2 * _SEARCH_CHUNK rows: several (mu1, mu2) pairs a block,
        # or one pair of more than _SEARCH_CHUNK rows a block.
        rng = np.random.default_rng(63)
        axes = [np.sort(rng.uniform(lo, hi, n)) for (lo, hi), n in
                zip([(-6.0, 0.0), (0.0, 6.0), (0.01, 3.0), (0.01, 3.0), (0.0, 1.0)], counts)]
        assert math.prod(counts) > 2 * _SEARCH_CHUNK
        lik1 = _dataset_likelihoods(self.QUERIES, TG.points, SQUARED_DISTANCE)
        whole = _summed_objective(axes, lik1, TG.points)
        for i in range(counts[0]):
            for j in range(counts[1]):
                alone = _summed_objective([axes[0][[i]], axes[1][[j]]] + axes[2:], lik1, TG.points)
                assert whole[i:i + 1, j:j + 1].tobytes() == alone.tobytes()
        half = _summed_objective(axes[:4] + [axes[4][1::2]], lik1, TG.points)
        assert whole[..., 1::2].tobytes() == half.tobytes()

    # sha256 of the objective bytes of _summed_digests' grids.  The four
    # dataset digests hold the bits of numpy's log in x ln x (inference._xlogx);
    # the diagonal and unrepresentable ones match the row-by-row kernel that
    # _summed_objective replaced.
    DIGESTS = {
        "fig2-absolute_distance":
            "9e3f9765aeb29f57e6973ac4dab3ecd5de571750df9e767db99cc454c8693838",
        "fig2-squared_distance":
            "1895768cb7a4eed18ee2ece6676eb7205a48e056fe0111418eb502cb96a151cd",
        "fig3-absolute_distance":
            "48da46afdb0e25a00ad164499c8b10fd8a54e0648f5b07a0806301628fea46da",
        "fig3-squared_distance":
            "af8b74df8147a566718ca1a18ad7e7d8508e6004e56290fd6e8d7f3f982b8c57",
        "diagonal": "26fc43b33daf0ab1ba978d8326fe61807118a73b6acb326b3d203019239b0227",
        "unrepresentable": "90b1edebb5e624dacc10b2add612001d9e10eca78f0a9a2d0651cd41f45c44c8",
    }

    def test_bytes_identical_across_blas_thread_counts(self):
        """The summed kernel's digests at 1 and 2 BLAS threads.  They were taken
        with numpy 2.4.6 dispatching to AVX-512 on glibc 2.36; an AVX2-only
        dispatch moves them (README, "Pinned bits belong to one host")."""
        code = ("import json, sys\n"
                f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
                "from test_agents import _summed_digests\n"
                "print(json.dumps(_summed_digests()))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True)
            assert json.loads(done.stdout) == self.DIGESTS

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_numpy_log_moves_only_last_bits(self, form, monkeypatch):
        # Every pass of the fig2 and fig3 searches of seeds 0-2, scored as
        # shipped and with scipy's xlogy in place of numpy's log in x ln x.
        summed = agents._summed_objective
        passes = []

        def record(*args):
            values = summed(*args)
            passes.append((args, values))
            return values

        monkeypatch.setattr(agents, "_summed_objective", record)
        for seed in range(3):
            for base in (replace(default_config(), seed=seed), bimodal_config(seed)):
                cfg = replace(base, reward_form=form)
                queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
                mle_belief(queries, cfg.mle, cfg.query_grid, cfg.theta_grid, form, False,
                           cfg.beta_a)
        assert len(passes) == 6 * (1 + default_config().mle.n_refine_iters)
        monkeypatch.setattr(inference, "_xlogx", lambda x: xlogy(x, x))
        for args, got in passes:
            want = summed(*args)
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.abs(want[finite]))
            assert np.argmax(got) == np.argmax(want)

    @pytest.mark.parametrize("cfg", [default_config(), bimodal_config(0)], ids=["fig2", "fig3"])
    def test_full_scale_summed_estimate_is_pinned(self, cfg):
        queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
        est = mle_belief(queries, cfg.mle, cfg.query_grid, cfg.theta_grid, cfg.reward_form,
                         False, cfg.beta_a)
        assert est.astuple() == (-6.0, 0.25, 6.0, 0.25, 0.5)


def _summed_digests():
    """sha256 of ``_summed_objective`` on the fig2 and fig3 seed-0 datasets of
    each reward form (the coarse grid, then one refinement window clipped at
    the search box), on an all-diagonal dataset, and on a grid whose
    components include one off the theta grid."""
    out = {}
    for name, base in (("fig2", default_config()), ("fig3", bimodal_config(0))):
        m = base.mle
        ranges = (m.mu1, m.mu2, m.sigma1, m.sigma2, m.p_z)
        coarse = agents._coarse_axes(ranges)
        bounds = [(math.log(r.lo), math.log(r.hi)) if log else (r.lo, r.hi)
                  for r, log in zip(ranges, agents._LOG_SCALED)]
        centre = [coarse[0][0], coarse[1][-1], coarse[2][0], coarse[3][0], coarse[4][4]]
        window = [np.linspace(*agents._clip_window(c, 0.5 * (hi - lo), lo, hi),
                              r.count) for c, (lo, hi), r in zip(centre, bounds, ranges)]
        for form in REWARD_FORMS:
            cfg = replace(base, reward_form=form)
            queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
            out[f"{name}-{form}"] = [(axes, queries, form) for axes in (coarse, window)]
    cfg = bimodal_config(0)
    m = cfg.mle
    coarse = agents._coarse_axes((m.mu1, m.mu2, m.sigma1, m.sigma2, m.p_z))
    out["diagonal"] = [(coarse, [Query(1.0, 1.0), Query(-2.0, -2.0)], "absolute_distance")]
    far = [np.array([-300.0, -2.0, 0.0]), np.array([0.0, 3.0, 300.0]), np.log([0.25, 1.0]),
           np.log([0.5, 2.0]), np.array([0.0, 0.3, 1.0])]
    queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
    out["unrepresentable"] = [(far, queries, "absolute_distance")]
    digests = {}
    for name, grids in out.items():
        h = hashlib.sha256()
        for axes, queries, form in grids:
            lik1 = _dataset_likelihoods(queries, TG.points, form)
            sigma_units = [np.exp(ax) if log else ax for ax, log in zip(axes, agents._LOG_SCALED)]
            h.update(_summed_objective(sigma_units, lik1, TG.points).tobytes())
        digests[name] = h.hexdigest()
    return digests


class TestExactNormalizer:
    """``_exact_objective`` pinned bit for bit at any thread count.

    The digests were taken with numpy 2.4.6 dispatching to AVX-512 on glibc
    2.36; an AVX2-only dispatch moves them (README, "Pinned bits belong to
    one host")."""

    # sha256 of the (40,) objective bytes on the fig3 seed-0 queries; a
    # change to any bit of the exact arithmetic shows here.
    DIGESTS = {
        "absolute_distance": "a5ea3305659db1564bf44e536ae4826cdc1c05317d76ab7efe3b827d61cec7c1",
        SQUARED_DISTANCE: "e1ef71053c969e626e6fade1df1c43bbbaa60795df52a7859a5540a10cc6245d",
    }
    # The same density twice; rounding decides which one wins the search.
    TIE = [(0.0, 2.0, 0.0, 2.0, 0.1), (0.0, 2.0, 0.0, 2.0, 0.9)]
    UNREPRESENTABLE = (200.0, 0.25, 300.0, 0.25, 0.5)
    CODE = (
        "import hashlib, sys, numpy as np, querymind as qm\n"
        "from querymind.agents import _dataset_likelihoods, _exact_log_normalizers, "
        "_exact_objective\n"
        "from querymind.experiments import bimodal_config, sample_queries\n"
        "cfg = bimodal_config(0)\n"
        "qs = sample_queries(cfg, qm.discretize_belief(cfg.prior, cfg.theta_grid))\n"
        "rows = np.frombuffer(bytes.fromhex(sys.stdin.read())).reshape(-1, 5)\n"
        "points = cfg.theta_grid.points\n"
        "for form in qm.REWARD_FORMS:\n"
        "    log_z = _exact_log_normalizers(rows, cfg.theta_grid, cfg.query_grid, form,\n"
        "                                   cfg.beta_a)\n"
        "    got = _exact_objective(rows, _dataset_likelihoods(qs, points, form), points,\n"
        "                           cfg.beta_a, log_z, len(qs))\n"
        "    print(form, hashlib.sha256(got.tobytes()).hexdigest())\n"
    )

    def _rows(self):
        # sigma down to 0.01 gives 295 answers of zero predictive probability
        # on the candidate grid under squared distance.
        rows = TestSeparableSummedKernel()._rows(np.random.default_rng(71), 28)
        return np.vstack([np.array(self.TIE + [self.UNREPRESENTABLE]), rows])

    def _scores(self, form):
        cfg = bimodal_config(0)
        queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
        points = cfg.theta_grid.points
        rows = self._rows()
        log_z = _exact_log_normalizers(rows, cfg.theta_grid, cfg.query_grid, form, cfg.beta_a)
        return _exact_objective(rows, _dataset_likelihoods(queries, points, form),
                                points, cfg.beta_a, log_z, len(queries))

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_bytes_are_pinned(self, form):
        got = self._scores(form)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.DIGESTS[form]
        assert got[2] == -np.inf
        assert np.all(np.isfinite(got[3:]))
        if form == "absolute_distance":
            assert got[:2].tolist() == [-121.14544991725427, -121.14544991725404]

    @staticmethod
    def _scipy_log_normalizers(rows, grid, qg, form, beta):
        """The exact normalizers as scipy computes them: ``xlogy`` for
        ``x ln x`` and ``logsumexp``, one row at a time in one thread."""
        lik1 = inference._likelihood_table(grid, qg, form)
        out = []
        for row in rows:
            m = agents._mixture_mass_batch(row[None], grid.points)
            prior_h = -np.sum(xlogy(m, m), axis=-1)
            gain = 0.0
            for lik in (lik1, 1.0 - lik1):
                t = m * lik
                p = np.sum(t, axis=-1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    post = t / p[:, None]
                    h = -np.sum(xlogy(post, post), axis=-1)
                gain = gain + np.where(p > 0, p * (prior_h - h), 0.0)
            out.append(logsumexp(beta * gain))
        return np.array(out)

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_agrees_with_scipy_oracle(self, form, monkeypatch):
        cfg = bimodal_config(0)
        queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
        points = cfg.theta_grid.points
        rows = self._rows()
        want_z = self._scipy_log_normalizers(rows, cfg.theta_grid, cfg.query_grid, form,
                                             cfg.beta_a)
        got_z = _exact_log_normalizers(rows, cfg.theta_grid, cfg.query_grid, form, cfg.beta_a)
        np.testing.assert_allclose(got_z, want_z, rtol=1e-14)
        lik1 = _dataset_likelihoods(queries, points, form)
        got = _exact_objective(rows, lik1, points, cfg.beta_a, got_z, len(queries))
        with monkeypatch.context() as m:
            # The data term on scipy's x ln x.
            m.setattr(agents, "_xlogx", lambda x: xlogy(x, x))
            want = _exact_objective(rows, lik1, points, cfg.beta_a, want_z, len(queries))
        np.testing.assert_allclose(got, want, rtol=1e-14)
        # mle_objective's normalizer, on a few of the rows.
        for row in rows[3:8]:
            b = discretize_belief(BeliefParams(*row), cfg.theta_grid)
            log_z = logsumexp(cfg.beta_a * eig_map(b, cfg.query_grid, form))
            want = sum(cfg.beta_a * expected_info_gain(b, q, form) - log_z for q in queries)
            got = mle_objective(queries, BeliefParams(*row), cfg.query_grid, cfg.theta_grid,
                                form, exact=True, beta_a=cfg.beta_a)
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_runs_without_scipy(self):
        # Exact attribution, search and scalar score, with any scipy import
        # raising ImportError.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from querymind import BeliefParams, Query, QueryGrid, ThetaGrid\n"
            "from querymind.agents import MleSearchConfig, ParamRange, mle_belief, "
            "mle_objective\n"
            "r = ParamRange\n"
            "cfg = MleSearchConfig(r(-6.0, 0.0, 3), r(0.0, 6.0, 2), r(0.3, 1.2, 2),\n"
            "                      r(0.3, 1.2, 2), r(0.1, 0.9, 2), 1)\n"
            "tg, qg = ThetaGrid(-6.0, 6.0, 41), QueryGrid(-6.0, 6.0, 7)\n"
            "qs = [Query(-4.0, 2.0), Query(2.0, -4.0), Query(-6.0, 6.0)]\n"
            "print(mle_belief(qs, cfg, qg, tg, exact=True).astuple())\n"
            "print(mle_objective(qs, BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.5), qg, tg,\n"
            "                    exact=True))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 2

    def test_huge_rationality_scores_without_nan(self):
        # beta_a * gain and n_queries * log_z both overflowed, so every row
        # scored inf - inf = NaN, with two RuntimeWarnings, and argmax took row 0.
        beta = 1e308
        cfg = bimodal_config(0)
        queries = sample_queries(cfg, discretize_belief(cfg.prior, cfg.theta_grid))
        points = cfg.theta_grid.points
        rows = self._rows()
        log_z = _exact_log_normalizers(rows, cfg.theta_grid, cfg.query_grid,
                                       "absolute_distance", beta)
        got = _exact_objective(rows, _dataset_likelihoods(queries, points, "absolute_distance"),
                               points, beta, log_z, len(queries))
        assert not np.any(np.isnan(got))
        assert got[2] == -np.inf
        want = [mle_objective(queries, BeliefParams(*row), cfg.query_grid, cfg.theta_grid,
                              exact=True, beta_a=beta) for row in rows[3:]]
        np.testing.assert_allclose(got[3:], want, rtol=1e-9)
        assert np.any(np.isfinite(got))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_bytes_do_not_depend_on_worker_count(self, workers, monkeypatch):
        # More workers than cores and frequent thread switches: a row left
        # unwritten, or computed in a buffer another worker shares, would
        # change the digest.
        monkeypatch.setattr(agents, "_cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for form in REWARD_FORMS:
                got = self._scores(form)
                assert hashlib.sha256(got.tobytes()).hexdigest() == self.DIGESTS[form]
        finally:
            sys.setswitchinterval(interval)

    def test_bytes_identical_across_blas_thread_counts(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        want = "".join(f"{form} {self.DIGESTS[form]}\n" for form in REWARD_FORMS)
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", self.CODE], env=env, check=True,
                                  input=self._rows().tobytes().hex(),
                                  capture_output=True, text=True)
            assert done.stdout == want


class TestCoarseNormalizerCache:
    """Exact mode computes the coarse pass's normalizers once per coarse grid,
    theta grid, query grid, reward form and rationality."""

    TG = ThetaGrid(-6.0, 6.0, 41)
    QG = QueryGrid(-6.0, 6.0, 7)
    CFG = MleSearchConfig(mu1=ParamRange(-6.0, 0.0, 3), mu2=ParamRange(0.0, 6.0, 2),
                          sigma1=ParamRange(0.3, 1.2, 2), sigma2=ParamRange(0.3, 1.2, 2),
                          p_z=ParamRange(0.1, 0.9, 2), n_refine_iters=2)
    ROWS_PER_PASS = 3 * 2 * 2 * 2 * 2
    DATA_A = [Query(-4.0, 2.0), Query(2.0, -4.0), Query(-6.0, 6.0), Query(0.0, 0.0)]
    DATA_B = [Query(0.0, 4.0), Query(-2.0, 6.0), Query(4.0, -6.0)]

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        agents._coarse_log_normalizers.cache_clear()
        yield
        agents._coarse_log_normalizers.cache_clear()

    def _search(self, queries, form="absolute_distance", beta=50.0, tg=None, qg=None,
                cfg=None):
        return mle_belief(queries, cfg or self.CFG, qg or self.QG, tg or self.TG, form,
                          True, beta)

    def _recorded_search(self, queries, form, monkeypatch):
        """The estimate and the bytes of every pass's objective values."""
        passes = []
        real = agents._exact_objective

        def record(*args, **kwargs):
            out = real(*args, **kwargs)
            passes.append(out.tobytes())
            return out

        with monkeypatch.context() as m:
            m.setattr(agents, "_exact_objective", record)
            est = self._search(queries, form)
        return est.astuple(), passes

    def _info(self):
        info = agents._coarse_log_normalizers.cache_info()
        return info.hits, info.misses

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_warm_search_gives_the_cold_bits(self, form, monkeypatch):
        cold = self._recorded_search(self.DATA_B, form, monkeypatch)
        agents._coarse_log_normalizers.cache_clear()
        self._search(self.DATA_A, form)
        warm = self._recorded_search(self.DATA_B, form, monkeypatch)
        assert self._info() == (1, 1)
        assert warm == cold
        # Both equal the uncached coarse pass, normalizers and all.
        points = self.TG.points
        ranges = (self.CFG.mu1, self.CFG.mu2, self.CFG.sigma1, self.CFG.sigma2, self.CFG.p_z)
        params = agents._search_rows(agents._coarse_axes(ranges))
        want = _exact_objective(params, _dataset_likelihoods(self.DATA_B, points, form),
                                points, 50.0,
                                _exact_log_normalizers(params, self.TG, self.QG, form, 50.0),
                                len(self.DATA_B))
        assert cold[1][0] == want.tobytes()

    def test_second_dataset_normalizes_only_refinement_rows(self, monkeypatch):
        rows = []
        real = agents._exact_log_normalizers

        def count(params, *args):
            rows.append(params.shape[0])
            return real(params, *args)

        monkeypatch.setattr(agents, "_exact_log_normalizers", count)
        self._search(self.DATA_A)
        assert sum(rows) == self.ROWS_PER_PASS * (1 + self.CFG.n_refine_iters)
        rows.clear()
        self._search(self.DATA_B)
        assert sum(rows) == self.ROWS_PER_PASS * self.CFG.n_refine_iters

    @pytest.mark.parametrize("change", [
        {"form": SQUARED_DISTANCE},
        {"beta": 20.0},
        {"tg": ThetaGrid(-6.0, 6.0, 43)},
        {"qg": QueryGrid(-6.0, 6.0, 5)},
        {"cfg": replace(CFG, mu1=ParamRange(-5.0, 0.0, 3))},
        {"cfg": replace(CFG, mu2=ParamRange(0.0, 6.0, 3))},
        {"cfg": replace(CFG, sigma1=ParamRange(0.4, 1.2, 2))},
        {"cfg": replace(CFG, sigma2=ParamRange(0.3, 1.5, 2))},
        {"cfg": replace(CFG, p_z=ParamRange(0.2, 0.9, 2))},
    ], ids=["form", "beta", "theta-grid", "query-grid", "mu1", "mu2", "sigma1", "sigma2",
            "p_z"])
    def test_key_change_misses(self, change):
        self._search(self.DATA_A)
        self._search(self.DATA_A, **change)
        assert self._info() == (0, 2)

    @pytest.mark.parametrize("change", [{"n_refine_iters": 0}, {"n_refine_iters": 1}])
    def test_refinement_settings_hit(self, change):
        self._search(self.DATA_A)
        self._search(self.DATA_B, cfg=replace(self.CFG, **change))
        assert self._info() == (1, 1)

    def test_cached_array_is_read_only(self):
        ranges = (self.CFG.mu1, self.CFG.mu2, self.CFG.sigma1, self.CFG.sigma2, self.CFG.p_z)
        log_z = agents._coarse_log_normalizers(ranges, self.TG, self.QG,
                                               "absolute_distance", 50.0)
        assert log_z.shape == (self.ROWS_PER_PASS,)
        with pytest.raises(ValueError, match="read-only"):
            log_z[0] = 0.0


class TestTomPosterior:
    def test_single_particle_unchanged(self):
        ens = BeliefEnsemble.single(DOMINANT_LEFT)
        post = tom_posterior(ens, Query(-5.5, 6.0), QG, TG, 50.0)
        assert post.weights[0] == 1.0

    def test_identical_particles_keep_weights(self):
        ens = BeliefEnsemble((DOMINANT_LEFT, DOMINANT_LEFT), np.array([0.3, 0.7]))
        post = tom_posterior(ens, Query(-5.5, 6.0), QG, TG, 50.0)
        np.testing.assert_allclose(post.weights, [0.3, 0.7], atol=1e-12)

    def test_bayes_reweighting(self):
        # Particle likelihoods come from their own query policies; the update
        # must equal w * lik / sum(w * lik).
        ens = two_particle_ensemble()
        q = Query(-5.5, 6.0)
        idx = QG.index_of(q)
        lik = _l2_policy_matrix(ens, QG, TG, 50.0, "absolute_distance")[1][:, idx]
        expected = ens.weights * lik / np.sum(ens.weights * lik)
        post = tom_posterior(ens, q, QG, TG, 50.0)
        np.testing.assert_allclose(post.weights, expected, atol=1e-12)
        assert abs(float(post.weights.sum()) - 1.0) <= 1e-9

    def test_zero_rationality_is_identity(self):
        # beta_a = 0 makes every particle's policy uniform, a flat likelihood.
        ens = two_particle_ensemble()
        post = tom_posterior(ens, Query(1.0, 2.0), QG, TG, 0.0)
        np.testing.assert_allclose(post.weights, ens.weights, atol=1e-12)

    def test_observer_gives_unaskable_candidates_zero_weight(self):
        weights = np.array([0.25, 0.75])
        policies = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
        post = _observer_posteriors(weights, policies)
        np.testing.assert_array_equal(post[:, 1], [0.0, 0.0])
        np.testing.assert_array_equal(post[:, 0], [1.0, 0.0])
        np.testing.assert_allclose(post[:, 2], [0.125 / 0.875, 0.75 / 0.875], rtol=1e-15)

    def test_query_no_particle_would_ask_is_impossible(self):
        # At this rationality every particle's policy underflows to 0 on (-2, 2).
        with pytest.raises(ImpossibleEvidenceError):
            tom_posterior(two_particle_ensemble(), Query(-2.0, 2.0), QG, TG, 1e5)


class TestTeaching:
    def test_diagonal_candidate_keeps_prior_mass(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        target_mass = float(prior.mass[TG.index_of(2.0)])
        for y in (0, 1):
            tc = LabeledExample(Query(1.0, 1.0), y)
            assert l3_teaching_utility(tc, 2.0, prior) == pytest.approx(
                target_mass, abs=1e-15)

    def test_point_mass_already_at_target(self):
        mass = np.zeros(TG.n_points)
        mass[TG.index_of(2.0)] = 1.0
        prior = GridBelief(TG, mass)
        for tc in (LabeledExample(Query(-3.0, 1.0), 1), LabeledExample(Query(4.0, 0.5), 0)):
            assert l3_teaching_utility(tc, 2.0, prior) == 1.0

    def test_three_point_posterior_mass(self, tri_uniform, tri_query):
        theta_target = float(tri_uniform.grid.points[2])
        got = l3_teaching_utility(LabeledExample(tri_query, 1), theta_target, tri_uniform)
        assert got == pytest.approx(18.0 / 43.0, abs=1e-9)

    def test_utilities_align_with_scalar_path(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        small_qg = QueryGrid(-6.0, 6.0, 7)
        utils = l3_teaching_utilities(2.0, [prior], None, small_qg)
        for idx, tc in enumerate(teaching_candidates(small_qg)):
            assert utils[idx] == pytest.approx(_learner_mass(tc, 2.0, prior), abs=1e-12)
            assert l3_teaching_utility(tc, 2.0, prior) == utils[idx]

    def test_zero_rationality_uniform_policy(self):
        prior = uniform_belief(TG)
        probs = l3_teaching_policy(2.0, [prior], None, QG, 0.0)
        np.testing.assert_array_equal(probs, np.full(2 * QG.n_candidates,
                                                     0.5 / QG.n_candidates))

    def test_answer_impossible_under_the_prior_has_zero_utility(self):
        # A point-mass-like belief at 5: under squared distance many answers
        # have zero likelihood everywhere the prior has mass.
        prior = discretize_belief(BeliefParams(5.0, 0.01, 5.0, 0.01, 0.5), TG)
        utils = l3_teaching_utilities(2.0, [prior], None, QG, SQUARED_DISTANCE)
        assert not np.any(np.isnan(utils))
        assert math.isfinite(utils[int(np.argmax(utils))])
        probs = l3_teaching_policy(2.0, [prior], None, QG, 50.0, SQUARED_DISTANCE)
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-9
        # y = 0 to (-6, -4) is impossible under a belief at 5; y = 1 keeps
        # the prior's mass on theta = 5, so a strategic teacher answers 1.
        q = Query(-6.0, -4.0)
        utils = l3_teaching_utilities(5.0, [prior], None, QG, SQUARED_DISTANCE)
        idx = 2 * QG.index_of(q)
        assert utils[idx] == 0.0
        assert utils[idx + 1] == pytest.approx(
            l3_teaching_utility(LabeledExample(q, 1), 5.0, prior, SQUARED_DISTANCE), abs=1e-12)
        assert l3_answer_policy(5.0, q, [prior], None, 50.0, SQUARED_DISTANCE) == 1.0

    def test_scalar_oracle_agrees_with_the_table_on_impossible_answers(self):
        prior = discretize_belief(BeliefParams(5.0, 0.01, 5.0, 0.01, 0.5), TG)
        q = Query(-6.0, -4.0)
        table = l3_teaching_utilities(5.0, [prior], None, QG, SQUARED_DISTANCE)
        oracle = _learner_mass(LabeledExample(q, 0), 5.0, prior, SQUARED_DISTANCE)
        assert oracle == table[2 * QG.index_of(q)] == 0.0
        qg = QueryGrid(-6.0, 6.0, 13)
        table = l3_teaching_utilities(5.0, [prior], None, qg, SQUARED_DISTANCE)
        oracle = [_learner_mass(tc, 5.0, prior, SQUARED_DISTANCE)
                  for tc in teaching_candidates(qg)]
        np.testing.assert_allclose(oracle, table, rtol=0.0, atol=1e-12)
        assert np.count_nonzero(table == 0.0) > 0

    @pytest.mark.xfail(
        strict=True,
        reason="single-example posterior mass at the target is maximized by "
               "wide high-contrast pairs, never by two items near the target; "
               "see README known limitations")
    def test_uniform_belief_argmax_brackets_target(self):
        utils = l3_teaching_utilities(2.0, [uniform_belief(TG)], None, QG)
        cand, _ = divmod(int(np.argmax(utils)), 2)
        x1, x2 = QG.candidates[cand]
        assert abs(x1 - 2.0) <= 1.0 and abs(x2 - 2.0) <= 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="defect (r): (x1, x2, y) and (x2, x1, 1 - y) are one labelled example, "
               "but the table scores the first answer with 1 - L and the second "
               "with L, so the twins differ by rounding (ROADMAP item 1)")
    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_swapped_twins_have_equal_utilities(self, form):
        n = QG.n_per_axis
        i, j = divmod(np.arange(QG.n_candidates), n)
        utils = l3_teaching_utilities(2.0, [uniform_belief(TG)], None, QG, form).reshape(-1, 2)
        assert utils.tobytes() == utils[j * n + i, ::-1].tobytes()


class TestAnswerPolicy:
    def test_diagonal_is_fair(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        assert l3_answer_policy(2.0, Query(0.5, 0.5), [prior], None, 50.0) == 0.5

    def test_zero_rationality_is_fair(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        assert l3_answer_policy(2.0, Query(-3.0, 2.0), [prior], None, 0.0) == 0.5

    def test_decisive_when_one_answer_strictly_better(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        q = Query(-3.0, 2.0)
        u1 = l3_teaching_utility(LabeledExample(q, 1), 2.0, prior)
        u0 = l3_teaching_utility(LabeledExample(q, 0), 2.0, prior)
        assert u1 > u0
        assert l3_answer_policy(2.0, q, [prior], None, 1e7) >= 1.0 - 1e-6

    def test_swap_complement(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = Query(*rng.uniform(-6, 6, size=2))
            p = l3_answer_policy(2.0, q, [prior], None, 50.0)
            p_swapped = l3_answer_policy(2.0, q.swapped(), [prior], None, 50.0)
            assert abs(p + p_swapped - 1.0) <= 1e-12

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_answer_impossible_under_every_prior_is_never_given(self, form):
        # Against x1 = -1e10 every grid point's likelihood of y = 1 is exactly
        # 1, so y = 0 has zero likelihood under both priors.  Its utility, 0,
        # used to enter the softmax beside a small one, and the teacher gave
        # the impossible answer about half the time.
        priors = [discretize_belief(DOMINANT_LEFT, TG), uniform_belief(TG)]
        q = Query(-1e10, 6.0)
        assert l3_answer_policy(2.0, q, priors, None, 50.0, form) == 1.0
        assert l3_answer_policy(2.0, q.swapped(), priors, None, 50.0, form) == 0.0
        assert l3_answer_policy(2.0, q, priors, [0.9, 0.1], 0.0, form) == 1.0

    def test_bad_weights_rejected(self):
        prior = discretize_belief(DOMINANT_LEFT, TG)
        q = Query(-3.0, 2.0)
        for weights in ([1.0], [0.1, 0.1], [1.5, -0.5], [math.nan, math.nan],
                        [math.inf, math.inf]):
            with pytest.raises(InvalidInputError):
                l3_answer_policy(2.0, q, [prior, prior], weights, 50.0)
            with pytest.raises(InvalidInputError):
                l3_teaching_utilities(2.0, [prior, prior], weights, QueryGrid(-6.0, 6.0, 3))


class TestTeacherRunsTheLearnersUpdate:
    """The interaction loop's path, one candidate's row of the cached likelihood
    table fed to ``_bayes_update`` and ``_answer_policy``, against the public
    ``posterior_update`` and ``l3_answer_policy``, and the teacher's utility
    against the learner's own posterior, all bit for bit."""

    @staticmethod
    def _priors():
        # The point-like prior at 5 makes many answers impossible under
        # squared distance; on the grid from -1e10, some answer to every query
        # against x = -1e10 is impossible under every prior.
        return [discretize_belief(BeliefParams(5.0, 0.01, 5.0, 0.01, 0.5), TG),
                discretize_belief(DOMINANT_LEFT, TG), uniform_belief(TG)]

    def test_table_rows_give_the_public_functions_bits(self):
        impossible = 0
        for qg in (QueryGrid(-6.0, 6.0, 13), QueryGrid(-1e10, 6.0, 7)):
            for form in REWARD_FORMS:
                table = inference._likelihood_table(TG, qg, form)
                for prior, c in itertools.product(self._priors(), range(qg.n_candidates)):
                    q, lik = qg.query_at(c), table[c]
                    for y in (0, 1):
                        try:
                            want = posterior_update(prior, q, y, form)
                        except ImpossibleEvidenceError as err:
                            impossible += 1
                            with pytest.raises(ImpossibleEvidenceError) as got:
                                inference._bayes_update(prior, q, lik, y)
                            assert str(got.value) == str(err)
                        else:
                            got = inference._bayes_update(prior, q, lik, y)
                            assert got.mass.tobytes() == want.mass.tobytes()
                    for theta in (2.0, 5.0):
                        got = agents._answer_policy(theta, [prior], None, [lik[None, :]], 50.0)
                        assert got == l3_answer_policy(theta, q, [prior], None, 50.0, form)
        assert impossible > 0

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_teaching_utility_is_the_learners_posterior_mass(self, form):
        rng = np.random.default_rng(15)
        priors = self._priors()
        for _ in range(3):
            raw = rng.uniform(0.0, 1.0, TG.n_points) ** 4
            priors.append(GridBelief(TG, raw / raw.sum()))
        cands = teaching_candidates(QueryGrid(-6.0, 6.0, 13))
        zeros = 0
        for prior in priors:
            for theta in (2.0, 5.0, -0.75):
                for tc in cands:
                    want = _learner_mass(tc, theta, prior, form)
                    assert l3_teaching_utility(tc, theta, prior, form) == want
                    zeros += want == 0.0
        assert zeros > 0


class TestL4:
    def test_singleton_utility_is_one(self):
        ens = BeliefEnsemble.single(DOMINANT_LEFT)
        for q in (Query(-5.5, 6.0), Query(0.0, 0.0), Query(2.0, -1.0)):
            assert l4_utility(q, 0, ens, QG, TG, 50.0) == 1.0

    def test_flat_likelihood_returns_prior_weight(self):
        ens = BeliefEnsemble((DOMINANT_LEFT, DOMINANT_LEFT), np.array([0.3, 0.7]))
        assert l4_utility(Query(1.0, 3.0), 0, ens, QG, TG, 50.0) == pytest.approx(
            0.3, abs=1e-12)

    def test_utilities_across_true_index_sum_to_one(self):
        # The values are the components of a single reweighted posterior
        # (prior weights already folded in), so they sum to 1.
        ens = BeliefEnsemble((DOMINANT_LEFT, DOMINANT_RIGHT), np.array([0.25, 0.75]))
        q = Query(-5.5, 6.0)
        total = sum(l4_utility(q, j, ens, QG, TG, 50.0) for j in range(2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        ens = two_particle_ensemble()
        with pytest.raises(InvalidInputError):
            l4_utility(Query(0.0, 1.0), 2, ens, QG, TG, 50.0)

    def test_lambda_zero_reduces_to_l2(self):
        ens = two_particle_ensemble()
        L4 = l4_query_policy(0, ens, 0.0, QG, TG, 50.0)
        L2 = l2_query_policy(discretize_belief(DOMINANT_LEFT, TG), QG, 50.0)
        np.testing.assert_allclose(L4.probs, L2.probs, atol=1e-12)

    def test_lambda_one_singleton_uniform(self):
        ens = BeliefEnsemble.single(DOMINANT_LEFT)
        L4 = l4_query_policy(0, ens, 1.0, QG, TG, 50.0)
        np.testing.assert_array_equal(L4.probs,
                                      np.full(QG.n_candidates, 1.0 / QG.n_candidates))

    def test_lambda_one_argmax_favors_identifiability_ratio(self):
        ens = two_particle_ensemble()
        L4 = l4_query_policy(0, ens, 1.0, QG, TG, 50.0)
        _, pmat = _l2_policy_matrix(ens, QG, TG, 50.0, "absolute_distance")
        ratio = ens.weights[0] * pmat[0] / (ens.weights[0] * pmat[0]
                                            + ens.weights[1] * pmat[1])
        assert int(np.argmax(L4.probs)) == int(np.argmax(ratio))

    def test_swap_symmetric_policy(self):
        ens = two_particle_ensemble()
        policy = l2_query_policy(discretize_belief(DOMINANT_LEFT, TG), QG, 50.0)
        n = QG.n_per_axis
        probs = policy.probs.reshape(n, n)
        np.testing.assert_allclose(probs, probs.T, atol=1e-12)


class TestBayesFactor:
    def test_identical_families_give_unity(self):
        ens = two_particle_ensemble()
        rng = np.random.default_rng(37)
        for _ in range(5):
            q = QG.query_at(int(rng.integers(QG.n_candidates)))
            bf = bayes_factor(q, ens, 50.0, 0.0, QG, TG)
            assert bf == pytest.approx(1.0, abs=1e-9)

    def test_obvious_answer_reads_rhetorical(self):
        ens = two_particle_ensemble()
        assert bayes_factor(Query(0.0, 0.0), ens, 50.0, 0.5, QG, TG) < 1.0

    def test_informative_query_reads_literal(self):
        ens = two_particle_ensemble()
        b = discretize_belief(DOMINANT_LEFT, TG)
        q_star = QG.query_at(int(np.argmax(eig_map(b, QG))))
        assert bayes_factor(q_star, ens, 50.0, 0.5, QG, TG) > 1.0

    def test_lambda_out_of_range_rejected(self):
        ens = two_particle_ensemble()
        with pytest.raises(InvalidInputError):
            bayes_factor(Query(0.0, 1.0), ens, 50.0, 1.5, QG, TG)

    def test_lambda_checked_before_query(self):
        with pytest.raises(InvalidInputError, match="lambda"):
            bayes_factor(Query(0.1, 1.0), two_particle_ensemble(), 50.0, 1.5, QG, TG)

    def test_underflowed_level4_marginal_is_impossible_evidence(self):
        # At this rationality every policy underflows to 0 on most candidates;
        # the observer weighs those candidates 0 instead of dividing 0 by 0.
        with pytest.raises(ImpossibleEvidenceError, match="level-4 marginal"):
            bayes_factor(Query(-2.0, 2.0), two_particle_ensemble(), 1e5, 0.5, QG, TG)

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_matches_per_particle_level4_policies(self, n):
        rng = np.random.default_rng(n)
        particles = tuple(BeliefParams(float(a), float(s1), float(b), float(s2), float(p))
                          for a, b, s1, s2, p in zip(rng.uniform(-5, -1, n), rng.uniform(0, 5, n),
                                                     rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n),
                                                     rng.uniform(0, 1, n)))
        ens = BeliefEnsemble(particles, rng.dirichlet(np.ones(n)))
        q = QG.query_at(int(rng.integers(QG.n_candidates)))
        idx = QG.index_of(q)
        _, l2 = _l2_policy_matrix(ens, QG, TG, 20.0, "absolute_distance")
        l4 = [l4_query_policy(j, ens, 0.5, QG, TG, 20.0).probs[idx] for j in range(n)]
        want = float(ens.weights @ l2[:, idx]) / float(ens.weights @ np.array(l4))
        assert bayes_factor(q, ens, 20.0, 0.5, QG, TG) == pytest.approx(want, rel=1e-12)


class TestPinnedLadderBits:
    """The teacher's utilities and the ToM, level-4 and Bayes-factor numbers,
    pinned bit for bit.  A change to any bit of the teaching table, the
    level-2 and level-4 softmax or the observer's reweighting shows here.

    The digests were taken with numpy 2.4.6 dispatching to AVX-512 on glibc
    2.36; an AVX2-only dispatch moves them (README, "Pinned bits belong to
    one host")."""

    # sha256 of the float64 bytes of the values built below.
    TEACHING = {
        "absolute_distance": "2f09a9641808d081bc0a21dae836ab4b3c4b1b7e41af4a0c73f4f6a970e8d1e5",
        SQUARED_DISTANCE: "ac33860b5cc75dd87fe81f5700fe29464ee25548752a84b7f1c02e01853a201e",
    }
    INTENT = {
        (2, "absolute_distance"):
            "c64ae895529f3f010438414a2fa572b4ddb2266d4083efb910c23cbbced536a7",
        (4, "absolute_distance"):
            "1b37bc91dc42c22d3d481bf3aa9ff97c4b1c9d43368d9c0dfdecb176d99bb6a2",
        (2, SQUARED_DISTANCE):
            "d0934df026bbaab5853eedfa97067a198bb0baeab9218b1f0f4cc8e329156869",
        (4, SQUARED_DISTANCE):
            "eac7b860e11bfda4e85e246492d82eb6ad60b7ff11bef8abff5595e099926b20",
    }

    @staticmethod
    def _digest(values):
        return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()

    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_teaching_utilities_are_pinned(self, form):
        # The point-like prior at 5 makes many answers impossible under
        # squared distance; the last three priors are random and peaked.
        rng = np.random.default_rng(15)
        priors = [discretize_belief(BeliefParams(5.0, 0.01, 5.0, 0.01, 0.5), TG),
                  discretize_belief(DOMINANT_LEFT, TG), uniform_belief(TG)]
        for _ in range(3):
            raw = rng.uniform(0.0, 1.0, TG.n_points) ** 4
            priors.append(GridBelief(TG, raw / raw.sum()))
        cands = teaching_candidates(QueryGrid(-6.0, 6.0, 13))
        got = [l3_teaching_utility(tc, theta, prior, form)
               for prior in priors for theta in (2.0, 5.0, -0.75) for tc in cands]
        assert self._digest(got) == self.TEACHING[form]

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("form", REWARD_FORMS)
    def test_intent_numbers_are_pinned(self, n, form):
        rng = np.random.default_rng(40 + n)
        particles = tuple(BeliefParams(float(a), float(s1), float(b), float(s2), float(p))
                          for a, b, s1, s2, p in zip(rng.uniform(-5, -1, n), rng.uniform(0, 5, n),
                                                     rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n),
                                                     rng.uniform(0, 1, n)))
        ens = BeliefEnsemble(particles, rng.dirichlet(np.ones(n)))
        got = []
        for idx in (0, 121, 600, 1130, 2400):
            q = QG.query_at(idx)
            got.extend(tom_posterior(ens, q, QG, TG, 20.0, form).weights)
            got.append(bayes_factor(q, ens, 20.0, 0.5, QG, TG, form))
        for lam in (0.0, 0.5, 1.0):
            for j in range(n):
                got.extend(l4_query_policy(j, ens, lam, QG, TG, 20.0, form).probs)
        assert self._digest(got) == self.INTENT[n, form]
