import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from querymind.model import BeliefParams, GridBelief, Query, ThetaGrid, discretize_belief
from querymind.inference import QueryGrid, entropy
from querymind.experiments import ConfigError, RunReport, ScenarioConfig, bimodal_config
from querymind.agents import ParamRange
from querymind.config import (
    _KEYS,
    config_values,
    default_config,
    parse_config_text,
    serialize_config,
)
from querymind.reporting import (
    fmt_real,
    read_queries_csv,
    render_heatmap_svg,
    write_belief_csv,
    write_eig_csv,
    write_manifest,
    write_queries_csv,
    write_teaching_csv,
    write_trace_csv,
)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ScenarioConfig()
        assert cfg.prior == BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nrun.seed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*prior\.mu3"):
            parse_config_text("run.seed = 1\nprior.mu3 = 0\n")

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match=r"prior\.sigma1"):
            parse_config_text("prior.sigma1 = -1\n")

    @pytest.mark.parametrize("key", ["prior.sigma1", "prior.sigma2", "mle.sigma1_lo",
                                     "mle.sigma1_hi", "mle.sigma2_lo", "mle.sigma2_hi"])
    def test_subnormal_sigma_names_key_and_line(self, key):
        with pytest.raises(ConfigError, match=rf"^<config>:2: {re.escape(key)} must be "
                                              rf">= 2\.2250738585072014e-308, got 1e-320$"):
            parse_config_text(f"run.seed = 1\n{key} = 1e-320\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="<config>:1"):
            parse_config_text("run.seed 4\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match=r"run\.seed"):
            parse_config_text("run.seed = seven\n")

    def test_round_trip_is_identity(self):
        text = ("prior.mu1 = -2.5\nprior.p_z = 0.37\nrun.seed = 123\n"
                "agent.beta_a = 12.5\ngrid.theta_points = 121\n"
                "run.exact_likelihood = true\nmle.refine_iters = 2\n")
        cfg = parse_config_text(text)
        again = parse_config_text(serialize_config(cfg))
        assert cfg == again

    def test_round_trip_of_defaults(self):
        cfg = default_config()
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_override_base(self):
        base = parse_config_text("run.seed = 5\n")
        cfg = parse_config_text("prior.p_z = 0.6\n", base=base)
        assert cfg.seed == 5
        assert cfg.prior.p_z == 0.6

    def test_non_finite_floats_name_key_and_line(self):
        floats = [k for k, v in config_values(ScenarioConfig()).items() if isinstance(v, float)]
        assert len(floats) == 23
        for key in floats:
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=rf"^<config>:2: {re.escape(key)}: "):
                    parse_config_text(f"# non-finite\n{key} = {raw}\n")

    def test_library_constructors_reject_non_finite(self):
        for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="must be finite"):
                ParamRange(lo, hi, 3)
        for name in ("theta_true", "beta_a", "beta_h"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                ScenarioConfig(**{name: math.inf})


def _leaf_paths(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


class TestConfigSchema:
    def test_every_leaf_field_has_exactly_one_key(self):
        paths = [path for path, *_ in _KEYS.values()]
        assert sorted(paths) == sorted(_leaf_paths(ScenarioConfig()))
        assert len(set(paths)) == len(paths) == 36

    def test_serialized_defaults_are_pinned(self):
        assert serialize_config(default_config()) == (
            "agent.beta_a = 50.0\nagent.beta_h = 50.0\nagent.reward_form = absolute_distance\n"
            "grid.query_hi = 6.0\ngrid.query_lo = -6.0\ngrid.query_points = 49\n"
            "grid.theta_hi = 6.0\ngrid.theta_lo = -6.0\ngrid.theta_points = 241\n"
            "mle.mu1_count = 13\nmle.mu1_hi = 0.0\nmle.mu1_lo = -6.0\n"
            "mle.mu2_count = 13\nmle.mu2_hi = 6.0\nmle.mu2_lo = 0.0\n"
            "mle.p_z_count = 9\nmle.p_z_hi = 0.9\nmle.p_z_lo = 0.1\n"
            "mle.refine_iters = 3\nmle.refine_shrink = 0.5\n"
            "mle.sigma1_count = 4\nmle.sigma1_hi = 2.0\nmle.sigma1_lo = 0.25\n"
            "mle.sigma2_count = 4\nmle.sigma2_hi = 2.0\nmle.sigma2_lo = 0.25\n"
            "prior.mu1 = -3.0\nprior.mu2 = 3.0\nprior.p_z = 0.9\n"
            "prior.sigma1 = 1.0\nprior.sigma2 = 1.0\n"
            "run.exact_likelihood = false\nrun.n_queries = 5\nrun.seed = 0\n"
            "run.selection = sample\nrun.theta_true = 2.0\n")

    def test_report_config_section_is_pinned(self):
        # Re-dumped compactly; the round trip keeps ints, floats, lists and dicts apart.
        section = json.loads(RunReport("x", bimodal_config(3)).to_json())["config"]
        assert json.dumps(section, sort_keys=True) == (
            '{"beta_a": 50.0, "beta_h": 50.0, "exact_likelihood": false, '
            '"mle": {"mu1": [-6.0, 0.0, 13], "mu2": [0.0, 6.0, 13], "n_refine_iters": 3, '
            '"p_z": [0.1, 0.9, 9], "refine_shrink": 0.5, "sigma1": [0.25, 2.0, 4], '
            '"sigma2": [0.25, 2.0, 4]}, "n_queries": 20, "prior": [-3.0, 0.5, 3.0, 0.5, 0.6], '
            '"query_grid": [-6.0, 6.0, 49], "reward_form": "absolute_distance", "seed": 3, '
            '"selection": "sample", "theta_grid": [-6.0, 6.0, 241], "theta_true": 2.0}')


class TestCsvWriters:
    def test_eig_csv_shape_and_diagonal(self, tmp_path):
        qg = QueryGrid(-1.0, 1.0, 2)
        values = np.array([0.0, 0.25, 0.125, 0.0])
        path = tmp_path / "eig.csv"
        write_eig_csv(values, qg, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,eig"
        assert len(lines) == 5
        assert lines[1].endswith(",0")
        assert lines[4].endswith(",0")

    def test_eig_csv_deterministic(self, tmp_path):
        qg = QueryGrid(-6.0, 6.0, 5)
        values = np.linspace(0.0, 0.3, qg.n_candidates)
        write_eig_csv(values, qg, tmp_path / "a.csv")
        write_eig_csv(values, qg, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_eig_csv_value_roundtrip(self, tmp_path):
        qg = QueryGrid(-6.0, 6.0, 5)
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, math.log(2.0), qg.n_candidates)
        path = tmp_path / "eig.csv"
        write_eig_csv(values, qg, path)
        lines = path.read_text().splitlines()[1:]
        reread = np.array([float(line.split(",")[2]) for line in lines])
        np.testing.assert_array_equal(reread, values)

    def test_belief_csv_roundtrip(self, tmp_path):
        grid = ThetaGrid(-6.0, 6.0, 241)
        b = discretize_belief(BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9), grid)
        path = tmp_path / "belief.csv"
        write_belief_csv(b, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,mass"
        assert len(lines) == 242
        mass = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert abs(mass.sum() - 1.0) <= 1e-9
        reread = GridBelief(grid, mass)
        assert abs(entropy(reread) - entropy(b)) <= 1e-12

    def test_queries_csv_roundtrip(self, tmp_path):
        queries = [Query(-5.5, 6.0), Query(0.25, -0.25)]
        path = tmp_path / "q.csv"
        write_queries_csv(queries, path)
        assert read_queries_csv(path) == queries

    def test_queries_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_queries_csv(path)

    @pytest.mark.parametrize("row, problem", [("1.5", "expected 2 columns, got 1"),
                                              ("1,2,3", "expected 2 columns, got 3"),
                                              ("1,abc", "abc"),
                                              ("nan,2", "x1 must be finite")])
    def test_queries_csv_bad_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2\n-1,2\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_queries_csv(path)
        assert str(info.value).startswith(f"{path}:4: ")
        assert problem in str(info.value)

    # Pinned bytes: every cell prints with fmt_real, integers without a decimal point.
    PIN_QG = QueryGrid(-0.7, 0.7, 3)
    A = "-0.69999999999999996"
    B = "0.69999999999999996"

    def test_teaching_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "teach.csv"
        write_teaching_csv(np.linspace(0.0, 1.0, 18) ** 2 / 3.0, self.PIN_QG, path)
        a, b = self.A, self.B
        assert path.read_bytes() == (
            f"x1,x2,y,utility\n{a},{a},0,0\n{a},{a},1,0.0011534025374855825\n"
            f"{a},0,0,0.00461361014994233\n{a},0,1,0.01038062283737024\n"
            f"{a},{b},0,0.01845444059976932\n{a},{b},1,0.028835063437139565\n"
            f"0,{a},0,0.04152249134948096\n0,{a},1,0.056516724336793535\n"
            f"0,0,0,0.07381776239907728\n0,0,1,0.093425605536332182\n"
            f"0,{b},0,0.11534025374855826\n0,{b},1,0.13956170703575549\n"
            f"{b},{a},0,0.16608996539792384\n{b},{a},1,0.19492502883506344\n"
            f"{b},0,0,0.22606689734717414\n{b},0,1,0.25951557093425603\n"
            f"{b},{b},0,0.29527104959630912\n{b},{b},1,0.33333333333333331\n").encode()

    def test_trace_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv([(0, -0.7, 0.7, 1, 1.0 / 3.0), (1, 0.0, -0.7, 0, 2.0 ** 0.5),
                         (12, 0.7, 0.0, 1, 0.0)], path)
        a, b = self.A, self.B
        assert path.read_bytes() == (
            f"round,x1,x2,y,entropy\n0,{a},{b},1,0.33333333333333331\n"
            f"1,0,{a},0,1.4142135623730951\n12,{b},0,1,0\n").encode()

    def test_queries_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "queries.csv"
        write_queries_csv([self.PIN_QG.query_at(i) for i in range(9)], path)
        a, b = self.A, self.B
        assert path.read_bytes() == (
            f"x1,x2\n{a},{a}\n{a},0\n{a},{b}\n0,{a}\n0,0\n0,{b}\n"
            f"{b},{a}\n{b},0\n{b},{b}\n").encode()


class TestHeatmap:
    def test_rect_count_and_determinism(self, tmp_path):
        qg = QueryGrid(-6.0, 6.0, 7)
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, qg.n_candidates)
        render_heatmap_svg(values, qg, tmp_path / "a.svg",
                           annotations=[Query(-6.0, 6.0)])
        render_heatmap_svg(values, qg, tmp_path / "b.svg",
                           annotations=[Query(-6.0, 6.0)])
        svg = (tmp_path / "a.svg").read_text()
        assert svg.count("<rect") == qg.n_candidates
        assert svg.count("<line") == 2
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_constant_map_single_color(self, tmp_path):
        qg = QueryGrid(-6.0, 6.0, 3)
        render_heatmap_svg(np.zeros(qg.n_candidates), qg, tmp_path / "c.svg")
        svg = (tmp_path / "c.svg").read_text()
        fills = {part.split('"')[0] for part in svg.split('fill="')[1:]}
        assert len(fills) == 1


class TestManifest:
    def test_checksums_and_seed(self, tmp_path):
        out = tmp_path / "data.csv"
        out.write_text("x1,x2\n1,2\n")
        manifest = tmp_path / "manifest.txt"
        write_manifest(manifest, "0.1.0", "run.seed = 4\n", 4, [out],
                       {"total": 0.123})
        text = manifest.read_text()
        expected = hashlib.sha256(out.read_bytes()).hexdigest()
        assert f"output.data.csv.sha256 = {expected}" in text
        assert "run.seed = 4" in text
        assert "config.run.seed = 4" in text
        assert "timing.total_seconds" in text

    def test_identical_runs_differ_only_in_timing(self, tmp_path):
        out = tmp_path / "data.csv"
        out.write_text("theta,mass\n0,1\n")
        m1 = tmp_path / "m1.txt"
        m2 = tmp_path / "m2.txt"
        write_manifest(m1, "0.1.0", "run.seed = 1\n", 1, [out], {"t": 0.5})
        write_manifest(m2, "0.1.0", "run.seed = 1\n", 1, [out], {"t": 0.9})
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("timing.")]
        assert strip(m1) == strip(m2)
        assert m1.read_text() != m2.read_text()


class TestFormatting:
    def test_17_digit_roundtrip(self):
        rng = np.random.default_rng(77)
        for x in rng.uniform(-1e3, 1e3, size=1000):
            assert float(fmt_real(float(x))) == float(x)

    def test_exact_zero(self):
        assert fmt_real(0.0) == "0"
