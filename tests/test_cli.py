import math

import numpy as np
import pytest

from querymind.cli import INTENT_FIXTURE, main
from querymind.model import Query, ThetaGrid
from querymind.inference import QueryGrid
from querymind import agents
from querymind.agents import BeliefEnsemble, bayes_factor
from querymind.reporting import fmt_real

FAST_CFG = """
grid.query_points = 13
grid.theta_points = 61
mle.mu1_count = 5
mle.mu2_count = 5
mle.sigma1_count = 2
mle.sigma2_count = 2
mle.p_z_count = 3
mle.refine_iters = 1
"""


# Search ranges whose every candidate lies hundreds of units off the theta grid.
OFF_GRID_CFG = FAST_CFG + """
mle.mu1_lo = -300
mle.mu1_hi = -200
mle.mu2_lo = 200
mle.mu2_hi = 300
"""
OFF_GRID_ERROR = (
    "error: no candidate belief has representable mass on the theta grid [-6.0, 6.0]: "
    "every candidate in the search ranges mu1 [-300.0, -200.0], mu2 [200.0, 300.0], "
    "sigma1 [0.25, 2.0], sigma2 [0.25, 2.0], p_z [0.1, 0.9] scored -inf\n")


# The reduced search of the CI's byte-identity step.
REDUCED_CFG = """
grid.query_points = 7
mle.mu1_count = 3
mle.mu2_count = 3
mle.sigma1_count = 2
mle.sigma2_count = 2
mle.p_z_count = 3
mle.refine_iters = 1
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["reproduce", "fig2", "--wat"]) == 1

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_bad_config_file_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prior.sigma1 = -2\n")
        code = main(["reproduce", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "prior.sigma1" in capsys.readouterr().err

    def test_non_finite_config_value_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(FAST_CFG + "mle.mu1_lo = nan\n")
        out = tmp_path / "out"
        code = main(["reproduce", "fig2", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "mle.mu1_lo: must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate-belief", "--queries", "qs.csv", "--out", "x"],
        ["intent-bf", "--query=-2,2", "--out", "x"],
        ["intent-bf", "--query=-2,2", "--exact-likelihood"],
        ["loop", "--rounds", "2", "--exact-likelihood", "--out", "x"],
        ["eig-map", "--exact-likelihood", "--out", "x"],
        ["loop", "--learner", "2", "--rounds", "2", "--out", "x"],
    ])
    def test_unused_option_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lines, error", [
        ("grid.theta_lo = -1e308\ngrid.theta_hi = 1e308\n",
         "grid.theta_lo, grid.theta_hi: grid span"),
        ("grid.query_lo = -1e308\ngrid.query_hi = 1e308\n",
         "grid.query_lo, grid.query_hi: query grid span"),
    ], ids=["theta", "query"])
    def test_overflowing_grid_span_is_runtime_error(self, lines, error, tmp_path, capsys):
        # hi - lo overflowed, so every grid point was NaN and a later check
        # failed on a symptom instead.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(FAST_CFG + lines)
        out = tmp_path / "out"
        assert main(["eig-map", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {error} hi - lo overflows, got [-1e+308, 1e+308]\n")
        assert not out.exists()

    @pytest.mark.parametrize("line, error", [
        ("mle.sigma1_lo = 3", "mle.sigma1_lo, mle.sigma1_hi: range lo 3.0 > hi 2.0"),
        ("grid.theta_lo = 10",
         "grid.theta_lo, grid.theta_hi: grid needs lo < hi, got [10.0, 6.0]"),
        ("grid.query_hi = -7",
         "grid.query_lo, grid.query_hi: query grid needs feature_lo < feature_hi"),
    ], ids=["search-range", "theta-grid", "query-grid"])
    def test_range_error_names_its_keys(self, line, error, tmp_path, capsys):
        # These messages used to end with the range's own words alone.
        cfg = tmp_path / "range.cfg"
        cfg.write_text(FAST_CFG + line + "\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig2", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestReproduce:
    def test_fig2_outputs(self, tmp_path, fast_config, capsys):
        out = tmp_path / "d"
        code = main(["reproduce", "fig2", "--seed", "7", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        for name in ("queries.csv", "eig_true.csv", "eig_estimated.csv",
                     "belief_estimated.csv", "belief_true.csv",
                     "heatmap_true.svg", "heatmap_estimated.svg",
                     "manifest.txt", "report.json"):
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "estimated belief" in printed
        assert "correlation" in printed

    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_constant_gain_map_is_runtime_error(self, figure, tmp_path, capsys):
        # Two query points leave one non-diagonal pair and its swap, so the
        # map is constant and its correlation undefined.
        cfg = tmp_path / "two.cfg"
        cfg.write_text(FAST_CFG + "grid.query_points = 2\n")
        out = tmp_path / "out"
        assert main(["reproduce", figure, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the true gain map is constant over the non-diagonal candidates, "
            "so its correlation is undefined\n")
        assert list(out.iterdir()) == []

    def test_search_without_representable_candidate_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "off.cfg"
        cfg.write_text(OFF_GRID_CFG)
        out = tmp_path / "out"
        assert main(["reproduce", "fig2", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", OFF_GRID_ERROR)
        assert list(out.iterdir()) == []

    def test_fig4_outputs(self, tmp_path, fast_config):
        out = tmp_path / "t"
        code = main(["reproduce", "fig4", "--seed", "3", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        for name in ("teach_uniform.csv", "teach_adaptive.csv",
                     "heatmap_teach_uniform.svg", "heatmap_teach_adaptive.svg",
                     "belief_inferred.csv", "manifest.txt"):
            assert (out / name).exists(), name


class TestTeachAndLoop:
    def test_teach_uniform_only(self, tmp_path, fast_config):
        out = tmp_path / "teach"
        code = main(["teach", "uniform", "--out", str(out), "--config", fast_config])
        assert code == 0
        assert (out / "teach_uniform.csv").exists()
        assert not (out / "teach_adaptive.csv").exists()

    def test_loop_trace_rows(self, tmp_path, fast_config):
        out = tmp_path / "loop"
        code = main(["loop", "--teacher", "1", "--rounds", "4", "--seed", "2",
                     "--out", str(out), "--config", fast_config])
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "round,x1,x2,y,entropy"
        assert len(lines) == 5

    def test_loop_with_overflowing_squared_distance_runs(self, tmp_path, capsys):
        # The honest teacher's squared distance to theta_true = +-1e200
        # overflows; it used to raise OverflowError.  Every answer is then a
        # tie at the logistic's limit, so both runs draw the same coin flips.
        traces = []
        for theta in ("1e200", "-1e200"):
            cfg = tmp_path / f"far{theta}.cfg"
            cfg.write_text(FAST_CFG + "agent.reward_form = squared_distance\n"
                           + f"run.theta_true = {theta}\n")
            out = tmp_path / f"loop{theta}"
            assert main(["loop", "--teacher", "1", "--rounds", "4", "--seed", "2",
                         "--out", str(out), "--config", str(cfg)]) == 0
            assert capsys.readouterr().err == ""
            traces.append((out / "trace.csv").read_text())
        assert len(traces[0].splitlines()) == 5
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("query_lo", ["-1e10", "-300"])
    def test_strategic_teacher_gives_only_answers_the_learner_can_take(
            self, query_lo, tmp_path, capsys):
        # On these query grids the level-3 teacher's model of the learner
        # finds one answer to some queries impossible.  The teacher used to
        # give it anyway, and the learner's update exited 2.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"grid.query_points = 7\ngrid.query_lo = {query_lo}\n")
        for seed in range(6):
            out = tmp_path / f"loop{seed}"
            assert main(["loop", "--teacher", "3", "--rounds", "5", "--seed", str(seed),
                         "--out", str(out), "--config", str(cfg)]) == 0
            assert capsys.readouterr().err == ""

    def test_teach_overflowing_theta_true_is_runtime_error(self, tmp_path, capsys):
        # Locating theta_true on the grid used to raise OverflowError.
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAST_CFG + "run.theta_true = 1e308\n")
        out = tmp_path / "teach"
        assert main(["teach", "uniform", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: theta 1e+308 outside grid [-6.0, 6.0]\n")
        assert list(out.iterdir()) == []

    def test_loop_rejects_bad_levels(self, tmp_path, fast_config):
        code = main(["loop", "--teacher", "4", "--out", str(tmp_path / "x"),
                     "--config", fast_config])
        assert code == 1


class TestEstimateAndIntent:
    def test_estimate_belief_prints_canonical_tuple(self, tmp_path, fast_config, capsys):
        qcsv = tmp_path / "qs.csv"
        qcsv.write_text("x1,x2\n-5.5,6\n-4,2\n")
        code = main(["estimate-belief", "--queries", str(qcsv), "--config", fast_config])
        assert code == 0
        fields = capsys.readouterr().out.strip().split()
        assert len(fields) == 5
        mu1, sigma1, mu2, sigma2, p_z = map(float, fields)
        assert mu1 <= mu2
        assert sigma1 > 0 and sigma2 > 0
        assert 0.0 <= p_z <= 1.0

    def test_estimate_belief_sweeps_files_in_order(self, tmp_path, fast_config, capsys):
        # One process searches every file on one grid, so in exact mode the
        # files after the first reuse the coarse normalizers, bit for bit.
        a = tmp_path / "a.csv"
        a.write_text("x1,x2\n-5.5,6\n-4,2\n")
        b = tmp_path / "b.csv"
        b.write_text("x1,x2\n2,-4\n0,4\n-6,6\n")
        args = ["estimate-belief", "--exact-likelihood", "--config", fast_config, "--queries"]
        alone = {}
        for path in (b, a):
            agents._coarse_log_normalizers.cache_clear()
            assert main(args + [str(path)]) == 0
            alone[path] = capsys.readouterr().out
        agents._coarse_log_normalizers.cache_clear()
        assert main(args + [str(a), str(b)]) == 0
        assert capsys.readouterr().out == alone[a] + alone[b]
        info = agents._coarse_log_normalizers.cache_info()
        agents._coarse_log_normalizers.cache_clear()
        assert (info.hits, info.misses) == (1, 1)

    def test_estimate_belief_reads_every_file_before_searching(self, tmp_path, fast_config,
                                                               capsys):
        good = tmp_path / "good.csv"
        good.write_text("x1,x2\n-5.5,6\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n-4\n")
        code = main(["estimate-belief", "--queries", str(good), str(bad),
                     "--config", fast_config])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{bad}:2: expected 2 columns, got 1" in err

    @pytest.mark.parametrize("exact", [[], ["--exact-likelihood"]])
    def test_estimate_belief_without_representable_candidate_is_runtime_error(
            self, exact, tmp_path, capsys):
        # The estimate used to be row 0 of the search, printed with exit 0.
        cfg = tmp_path / "off.cfg"
        cfg.write_text(OFF_GRID_CFG)
        qcsv = tmp_path / "qs.csv"
        qcsv.write_text("x1,x2\n-4,2\n2,-4\n")
        code = main(["estimate-belief", "--queries", str(qcsv), "--config", str(cfg)] + exact)
        assert code == 2
        assert capsys.readouterr() == ("", OFF_GRID_ERROR)

    @pytest.mark.parametrize("exact", [[], ["--exact-likelihood"]])
    @pytest.mark.parametrize("lines, want", [
        ("mle.mu1_lo = -1e308\nmle.mu1_hi = 1e308\n",
         ("", "error: mle.mu1_lo, mle.mu1_hi: range span hi - lo overflows, "
              "got [-1e+308, 1e+308]\n")),
        ("mle.mu1_count = 1\nmle.mu1_lo = 1e308\nmle.mu1_hi = 1.5e308\n", None),
    ], ids=["span", "midpoint"])
    def test_estimate_belief_search_range_near_the_largest_float(self, lines, want, exact,
                                                                 tmp_path, capsys):
        # The span used to become a NaN axis and the midpoint inf; both runs
        # ended "error: mu1 must be finite".
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(REDUCED_CFG + lines)
        qcsv = tmp_path / "qs.csv"
        qcsv.write_text("x1,x2\n-4,2\n2,-4\n")
        code = main(["estimate-belief", "--queries", str(qcsv), "--config", str(cfg)] + exact)
        got = capsys.readouterr()
        if want is not None:
            assert (code, got) == (2, want)
        else:
            assert (code, got.err) == (0, "")
            assert all(math.isfinite(float(v)) for v in got.out.split())

    def test_estimate_belief_exact_at_huge_rationality_runs(self, tmp_path, capsys):
        # Every exact score used to be inf - inf = NaN, and the run printed row 0.
        cfg = tmp_path / "sharp.cfg"
        cfg.write_text(REDUCED_CFG + "agent.beta_a = 1e308\n")
        qcsv = tmp_path / "qs.csv"
        qcsv.write_text("x1,x2\n-4,2\n2,-4\n-6,6\n0,4\n4,-2\n")
        code = main(["estimate-belief", "--exact-likelihood", "--queries", str(qcsv),
                     "--config", str(cfg)])
        got = capsys.readouterr()
        assert (code, got.err) == (0, "")
        assert all(math.isfinite(float(v)) for v in got.out.split())

    def test_intent_bf_matches_library(self, capsys):
        code = main(["intent-bf", "--query=-3,1"])
        assert code == 0
        printed = capsys.readouterr().out
        ensemble = BeliefEnsemble(INTENT_FIXTURE, np.array([0.5, 0.5]))
        expected = bayes_factor(Query(-3.0, 1.0), ensemble, 50.0, 0.5,
                                QueryGrid(-6.0, 6.0, 49), ThetaGrid(-6.0, 6.0, 241))
        assert fmt_real(expected) in printed

    def test_estimate_belief_malformed_csv_is_runtime_error(self, tmp_path, fast_config,
                                                            capsys):
        qcsv = tmp_path / "qs.csv"
        qcsv.write_text("x1,x2\n-5.5,6\n-4\n")
        code = main(["estimate-belief", "--queries", str(qcsv), "--config", fast_config])
        assert code == 2
        assert f"{qcsv}:3: expected 2 columns, got 1" in capsys.readouterr().err

    def test_intent_bf_bad_query_is_runtime_error(self, capsys):
        assert main(["intent-bf", "--query", "oops"]) == 2

    @pytest.mark.parametrize("query, problem", [("1e400,2", "x1 must be finite, got inf"),
                                                ("nan,2", "x1 must be finite, got nan"),
                                                ("2,-1e400", "x2 must be finite, got -inf")])
    def test_intent_bf_non_finite_query_names_the_coordinate(self, query, problem, capsys):
        assert main(["intent-bf", f"--query={query}"]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"

    def test_intent_bf_overflowing_query_is_runtime_error(self, capsys):
        # Locating the query on the grid used to raise OverflowError.
        assert main(["intent-bf", "--query=1e308,2"]) == 2
        assert capsys.readouterr() == (
            "", "error: query Query(x1=1e+308, x2=2.0) outside grid\n")

    @pytest.mark.parametrize("exact", [[], ["--exact-likelihood"]])
    def test_estimate_belief_overflowing_squared_difference_scores_as_diagonal(
            self, exact, tmp_path, capsys):
        # Every theta on the grid is nearer 1e200 than 1e201, so that query's
        # answer is certain and it adds no gain, as a diagonal query does; its
        # likelihoods used to be NaN, and the summed search printed row 0.
        cfg = tmp_path / "sq.cfg"
        cfg.write_text(FAST_CFG + "agent.reward_form = squared_distance\n")
        printed = []
        for first in ("1e200,1e201", "1,1"):
            qcsv = tmp_path / "qs.csv"
            qcsv.write_text(f"x1,x2\n{first}\n-4,2\n")
            assert main(["estimate-belief", "--queries", str(qcsv), "--config", str(cfg)]
                        + exact) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert printed[0].err == ""

    def test_intent_bf_underflowed_level4_marginal_is_runtime_error(self, tmp_path, capsys):
        # Every policy underflows to 0 on most candidates at this rationality.
        cfg = tmp_path / "sharp.cfg"
        cfg.write_text("agent.beta_a = 100000\n")
        assert main(["intent-bf", "--query=-2,2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: level-4 marginal likelihood underflowed to zero\n"

    def test_intent_bf_matches_brute_force_at_reduced_scale(self, tmp_path, capsys):
        from test_acceptance import brute_bayes_factor
        from querymind.model import discretize_belief

        cfg = tmp_path / "small.cfg"
        cfg.write_text("grid.query_points = 9\ngrid.theta_points = 41\n")
        code = main(["intent-bf", "--query=-3,1.5", "--config", str(cfg)])
        assert code == 0
        printed_bf = float(capsys.readouterr().out.split("=")[1].split("(")[0])

        grid = ThetaGrid(-6.0, 6.0, 41)
        qg = QueryGrid(-6.0, 6.0, 9)
        points = [float(p) for p in grid.points]
        masses = [[float(v) for v in discretize_belief(p, grid).mass]
                  for p in INTENT_FIXTURE]
        queries = [qg.query_at(i) for i in range(qg.n_candidates)]
        oracle = brute_bayes_factor(masses, [0.5, 0.5], points, queries,
                                    qg.index_of(Query(-3.0, 1.5)), 50.0, 0.5)
        assert abs(printed_bf - oracle) <= 1e-9
