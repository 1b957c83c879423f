import hashlib
from dataclasses import replace

import numpy as np
import pytest

from querymind import experiments
from querymind.agents import MleSearchConfig, ParamRange
from querymind.model import BeliefParams, InvalidInputError, Query, discretize_belief
from querymind.inference import QueryGrid, posterior_update
from querymind.experiments import (
    ConfigError,
    ScenarioConfig,
    bimodal_config,
    derive_subseed,
    run_belief_correction,
    run_bimodal_identifiability,
    run_interaction_loop,
    run_unimodal_identifiability,
)

SMALL_QG = QueryGrid(-6.0, 6.0, 25)


class TestDeriveSubseed:
    def test_sha256_reference_vector(self):
        # FIPS 180-2 test vector for the underlying hash.
        assert hashlib.sha256(b"abc").hexdigest() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_frozen_values(self):
        # Pinned outputs guard against platform- or version-dependence.
        assert derive_subseed(0, "queries", 0) == 16465211868201540522
        assert derive_subseed(0, "queries", 1) == 15217122930243765821

    def test_distinct_streams(self):
        seeds = {derive_subseed(7, label, i)
                 for label in ("queries", "answers", "loop") for i in range(20)}
        assert len(seeds) == 60

    def test_label_required(self):
        with pytest.raises(ConfigError):
            derive_subseed(0, "", 0)


class TestScenarioConfig:
    def test_zero_queries_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_queries=0)

    def test_bad_reward_form_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(reward_form="cubic")


class TestIdentifiability:
    def test_same_seed_serializes_identically(self):
        cfg = replace(ScenarioConfig(seed=3), query_grid=SMALL_QG)
        a = run_unimodal_identifiability(cfg).to_json()
        b = run_unimodal_identifiability(cfg).to_json()
        assert a == b

    @pytest.mark.parametrize("name, changes", [
        # Every gain of a point-mass belief is 0.
        ("true", {"prior": BeliefParams(-3.0, 1e-200, 3.0, 1.0, 0.9)}),
        ("estimated", {"mle": MleSearchConfig(
            mu1=ParamRange(-3.0, -3.0, 1), mu2=ParamRange(3.0, 3.0, 1),
            sigma1=ParamRange(1e-200, 1e-200, 1), sigma2=ParamRange(1.0, 1.0, 1),
            p_z=ParamRange(1.0, 1.0, 1), n_refine_iters=0)}),
    ])
    def test_constant_gain_map_is_a_config_error(self, name, changes):
        # np.corrcoef of a constant map warns and returns NaN.
        cfg = replace(ScenarioConfig(query_grid=SMALL_QG), **changes)
        with pytest.raises(ConfigError, match=f"^the {name} gain map is constant"):
            run_unimodal_identifiability(cfg)

    def test_gain_map_correlation_recovered(self):
        rep = run_unimodal_identifiability(ScenarioConfig(seed=0))
        assert rep.correlation >= 0.8
        assert -1.0 <= rep.correlation <= 1.0

    def test_bimodal_reports_modes_and_group_weight(self):
        rep = run_bimodal_identifiability(bimodal_config(0))
        lo, hi = rep.mode_locations
        assert lo <= hi
        assert 0.0 <= rep.p_z_hat <= 1.0
        assert len(rep.queries) == 20

    @pytest.mark.xfail(
        strict=True,
        reason="summed-gain attribution collapses to an even two-point mixture "
               "even for single-group generators; see README known limitations")
    def test_single_group_variant_recovers_one_mode(self):
        cfg = replace(bimodal_config(0), prior=BeliefParams(-3.0, 0.5, -3.0, 0.5, 1.0))
        rep = run_bimodal_identifiability(cfg)
        assert 1.0 - rep.p_z_hat <= 0.1


class TestBeliefCorrection:
    def test_report_contents(self):
        cfg = ScenarioConfig(seed=0)
        rep = run_belief_correction(cfg)
        assert rep.argmax_uniform is not None
        assert rep.argmax_adaptive is not None
        two_c = 2 * cfg.query_grid.n_candidates
        assert rep.teaching_utils_uniform.shape == (two_c,)
        assert rep.teaching_utils_adaptive.shape == (two_c,)
        assert 0.0 <= rep.learner_mass_after_uniform <= 1.0
        assert 0.0 <= rep.learner_mass_after_adaptive <= 1.0

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=5)
        assert run_belief_correction(cfg).to_json() == run_belief_correction(cfg).to_json()

    def test_off_grid_theta_true_rejected_before_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("attribution search ran before theta_true was checked")

        monkeypatch.setattr(experiments, "mle_belief", no_search)
        with pytest.raises(InvalidInputError, match="theta 7.5 outside grid"):
            run_belief_correction(ScenarioConfig(theta_true=7.5))

    def test_off_grid_theta_true_allowed_for_honest_teacher_loop(self):
        rep = run_interaction_loop(ScenarioConfig(theta_true=7.5, query_grid=SMALL_QG), 2, 1, 2)
        assert len(rep.trace) == 2

    @pytest.mark.xfail(
        strict=True,
        reason="posterior-mass teaching utilities peak at wide high-contrast "
               "pairs for any monotone-ramp answer likelihood; see README "
               "known limitations")
    def test_adaptive_teacher_compares_false_mode_with_target(self):
        rep = run_belief_correction(ScenarioConfig(seed=0))
        ex = rep.argmax_adaptive
        items = sorted([ex.query.x1, ex.query.x2])
        near_false_mode = abs(items[0] - (-3.0)) <= 0.75
        near_target = abs(items[1] - 2.0) <= 0.75
        favored = ex.query.x2 if ex.y == 1 else ex.query.x1
        assert near_false_mode and near_target and abs(favored - 2.0) <= 0.75

    @pytest.mark.xfail(
        strict=True,
        reason="query-based attribution collapses to an extreme two-point "
               "mixture whose teaching examples do not transfer to the "
               "learner's actual belief; see README known limitations")
    def test_adaptive_teaching_transfers_at_least_as_well(self):
        rep = run_belief_correction(ScenarioConfig(seed=0))
        assert rep.learner_mass_after_adaptive >= rep.learner_mass_after_uniform


class TestInteractionLoop:
    def test_single_round_trace(self):
        cfg = replace(ScenarioConfig(seed=1), query_grid=SMALL_QG)
        rep = run_interaction_loop(cfg, 2, 1, 1)
        assert len(rep.trace) == 1
        rnd, x1, x2, y, ent = rep.trace[0]
        assert rnd == 0 and y in (0, 1) and ent >= 0.0

    def test_invalid_pairing_rejected(self):
        cfg = ScenarioConfig(seed=1)
        with pytest.raises(ConfigError):
            run_interaction_loop(cfg, 3, 1, 5)
        with pytest.raises(ConfigError):
            run_interaction_loop(cfg, 2, 5, 5)
        with pytest.raises(ConfigError):
            run_interaction_loop(cfg, 2, 1, 0)

    # sha256 of the float64 (round, x1, x2, y, entropy) rows of 40-round traces
    # on the packaged grids, recorded when the learner's update and the
    # level-3 teacher computed each round's likelihood row afresh; they now
    # read it from the cached likelihood table.
    TRACE_DIGESTS = {
        (1, "absolute_distance", 0):
            "bdde2efb2ab02431fa05dd822b72c3852025966e9fa6f1fb53807535c4b25794",
        (1, "absolute_distance", 1):
            "0ecd26cd25867793c96393dd209abea53d9da1262d701c369b200ecccc875b8a",
        (1, "absolute_distance", 2):
            "74a0a3a634463ef6f9124e8d20fef9f1aa006127b589e0d981da194ec4290ecc",
        (1, "squared_distance", 0):
            "f78fb1881cb183144116621d7530f88faa00f185271fdd1c3af7044d84367407",
        (1, "squared_distance", 1):
            "2eb551dacd1472aae6943e272a89a8827469dee163098ac1ae13c1459cabab90",
        (1, "squared_distance", 2):
            "65ac4d6b1582b149f32a378c24098674e30f5cb53ffb261ea7740bff658a2ec5",
        (3, "absolute_distance", 0):
            "72f860e766f048f4aaf32ac366eb1540acc3384f7deb70325a39ed5c59194d4a",
        (3, "absolute_distance", 1):
            "bd081d55552d10561df3e3cc5c8d07208945b8d66b1d29eee4639ef9610b6c2f",
        (3, "absolute_distance", 2):
            "faa5c8619dd60b3d1626091f66517d0106ea7914c7577105cabc68897e33b20e",
        (3, "squared_distance", 0):
            "2645fc9ee53a3fa624a8c99e6cb66f8b5976bb5c6006176f28da9a91f930364c",
        (3, "squared_distance", 1):
            "7af8ea8dd6b9408d59dc7a873f9213eeb968bdfc0cfdb0622587b8420f3a97d3",
        (3, "squared_distance", 2):
            "a69e10857968658a9da15881b688450752831b594911645aac374e9b193ddc6d",
    }

    @pytest.mark.parametrize("teacher, form, seed", sorted(TRACE_DIGESTS))
    def test_full_scale_traces_are_pinned(self, teacher, form, seed):
        """The digests were taken with numpy 2.4.6 dispatching to AVX-512 on
        glibc 2.36; an AVX2-only dispatch moves 10 of the 12 (README, "Pinned
        bits belong to one host")."""
        trace = run_interaction_loop(ScenarioConfig(seed=seed, reward_form=form), 2, teacher,
                                     40).trace
        digest = hashlib.sha256(np.array(trace, dtype=np.float64).tobytes()).hexdigest()
        assert digest == self.TRACE_DIGESTS[teacher, form, seed]

    def test_entropy_decreases_against_honest_teacher(self):
        finals, initials = [], []
        for seed in range(20):
            cfg = replace(ScenarioConfig(seed=seed), query_grid=SMALL_QG)
            rep = run_interaction_loop(cfg, 2, 1, 20)
            entropies = [row[4] for row in rep.trace]
            initials.append(entropies[0])
            finals.append(entropies[-1])
        assert all(f < i for f, i in zip(finals, initials))
        # Expected per-round reduction: the mean trajectory is decreasing.
        assert np.mean(finals) < np.mean(initials) - 0.5

    def test_strategic_teacher_outperforms_honest_on_target_mass(self):
        # A decisive strategic teacher (answer softmax sharp relative to the
        # per-answer utility scale) should concentrate the learner faster
        # than honest literal answers, on average over paired seeds.
        def final_mass(rep):
            cfg = rep.config
            b = discretize_belief(cfg.prior, cfg.theta_grid)
            for _, x1, x2, y, _ in rep.trace:
                b = posterior_update(b, Query(x1, x2), y, cfg.reward_form)
            return float(b.mass[cfg.theta_grid.index_of(cfg.theta_true)])

        honest, strategic = [], []
        for seed in range(20):
            base = replace(ScenarioConfig(seed=seed), query_grid=SMALL_QG)
            honest.append(final_mass(run_interaction_loop(base, 2, 1, 20)))
            sharp = replace(base, beta_h=5000.0)
            strategic.append(final_mass(run_interaction_loop(sharp, 2, 3, 20)))
        assert np.mean(strategic) >= np.mean(honest)
