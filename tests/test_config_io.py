import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import querymind
from querymind.cli import main
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

    @pytest.mark.parametrize("line", ["run.selection = sample", "mle.refine_shrink = 0.5"])
    def test_retired_keys_are_unknown(self, line, tmp_path, capsys):
        # The learner always samples its policy and refinement windows always
        # halve, so neither setting is a key any more.
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^<config>:2: unknown key '{re.escape(key)}'$"):
            parse_config_text(f"run.seed = 1\n{line}\n")
        cfg = tmp_path / "retired.cfg"
        cfg.write_text(f"run.seed = 1\n{line}\n")
        assert main(["eig-map", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:2: unknown key '{key}'\n")

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
        assert len(floats) == 22
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
        assert len(set(paths)) == len(paths) == 34

    def test_serialized_defaults_are_pinned(self):
        assert serialize_config(default_config()) == (
            "agent.beta_a = 50.0\nagent.beta_h = 50.0\nagent.reward_form = absolute_distance\n"
            "grid.query_hi = 6.0\ngrid.query_lo = -6.0\ngrid.query_points = 49\n"
            "grid.theta_hi = 6.0\ngrid.theta_lo = -6.0\ngrid.theta_points = 241\n"
            "mle.mu1_count = 13\nmle.mu1_hi = 0.0\nmle.mu1_lo = -6.0\n"
            "mle.mu2_count = 13\nmle.mu2_hi = 6.0\nmle.mu2_lo = 0.0\n"
            "mle.p_z_count = 9\nmle.p_z_hi = 0.9\nmle.p_z_lo = 0.1\n"
            "mle.refine_iters = 3\n"
            "mle.sigma1_count = 4\nmle.sigma1_hi = 2.0\nmle.sigma1_lo = 0.25\n"
            "mle.sigma2_count = 4\nmle.sigma2_hi = 2.0\nmle.sigma2_lo = 0.25\n"
            "prior.mu1 = -3.0\nprior.mu2 = 3.0\nprior.p_z = 0.9\n"
            "prior.sigma1 = 1.0\nprior.sigma2 = 1.0\n"
            "run.exact_likelihood = false\nrun.n_queries = 5\nrun.seed = 0\n"
            "run.theta_true = 2.0\n")

    def test_report_config_section_is_pinned(self):
        # Re-dumped compactly; the round trip keeps ints, floats, lists and dicts apart.
        section = json.loads(RunReport("x", bimodal_config(3)).to_json())["config"]
        assert json.dumps(section, sort_keys=True) == (
            '{"beta_a": 50.0, "beta_h": 50.0, "exact_likelihood": false, '
            '"mle": {"mu1": [-6.0, 0.0, 13], "mu2": [0.0, 6.0, 13], "n_refine_iters": 3, '
            '"p_z": [0.1, 0.9, 9], "sigma1": [0.25, 2.0, 4], '
            '"sigma2": [0.25, 2.0, 4]}, "n_queries": 20, "prior": [-3.0, 0.5, 3.0, 0.5, 0.6], '
            '"query_grid": [-6.0, 6.0, 49], "reward_form": "absolute_distance", "seed": 3, '
            '"theta_grid": [-6.0, 6.0, 241], "theta_true": 2.0}')


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

    def test_eig_csv_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "eig.csv"
        write_eig_csv(np.random.default_rng(11).uniform(0.0, math.log(2.0), 49),
                      QueryGrid(-6.0, 6.0, 7), path)
        assert _sha256(path) == (
            "73f6dda08f39e8a2ba0a64134a7f461eadbfc2698103de0a3cbae5bcdad2e523")

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

    @pytest.mark.parametrize("case, digest", [
        ("annotated", "28d7dff4ca8f40a7ea08c3cd30d14bf1babd2ba581134a3a787a0d52863a8716"),
        ("constant", "0dd9044e0f51d823e7a134f99974967029a75e7e5bc141d25fd68791b7e1b5f9"),
        ("half_channels", "662155e1bf4a50ade7091da485d0550b8c5c9dd801e5d38018a9a6af25534d74"),
    ])
    def test_bytes_are_pinned(self, case, digest, tmp_path):
        path = tmp_path / "map.svg"
        _write_heatmap_case(case, path)
        if case == "half_channels":
            # t = 0.25 puts blue on 109.5, t = 0.5 red on 126.5 and green on
            # 128.5; each rounds half to even.
            fills = set(re.findall(r'fill="(rgb[^"]*)"', path.read_text()))
            assert {"rgb(70,68,110)", "rgb(126,128,84)"} <= fills
        assert _sha256(path) == digest

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_and_writes_nothing(self, bad, tmp_path):
        qg = QueryGrid(-6.0, 6.0, 3)
        values = np.linspace(0.0, 1.0, qg.n_candidates)
        values[4] = bad
        path = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match="finite"):
            render_heatmap_svg(values, qg, path)
        assert not path.exists()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_heatmap_case(case: str, path) -> None:
    if case == "annotated":
        qg = QueryGrid(-6.0, 6.0, 7)
        render_heatmap_svg(np.random.default_rng(5).uniform(0.0, 0.6, qg.n_candidates), qg,
                           path, annotations=[Query(-6.0, 6.0), Query(0.0, 2.0)])
    elif case == "constant":
        render_heatmap_svg(np.full(49, 0.3), QueryGrid(-6.0, 6.0, 7), path)
    else:
        render_heatmap_svg(np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.25, 0.75, 0.0]),
                           QueryGrid(-6.0, 6.0, 3), path)


def _write_grid_outputs(n: int, out_dir: str) -> None:
    """Every per-grid writer on an ``n``-point query grid, values seeded by ``n``."""
    qg = QueryGrid(-6.0, 6.0, n)
    rng = np.random.default_rng(n)
    os.makedirs(out_dir, exist_ok=True)
    values = rng.uniform(0.0, 0.6, qg.n_candidates)
    write_eig_csv(values, qg, os.path.join(out_dir, "eig.csv"))
    write_teaching_csv(rng.uniform(0.0, 1.0, 2 * qg.n_candidates), qg,
                       os.path.join(out_dir, "teach.csv"))
    render_heatmap_svg(values, qg, os.path.join(out_dir, "map.svg"),
                       annotations=[qg.query_at(qg.n_candidates - 1)])


class TestGridCaches:
    def test_mixed_grids_in_one_process_give_fresh_process_bytes(self, tmp_path):
        # The writers cache per-grid text; 7-, 49- and again 7-point grids in
        # one process must write what a process that saw one grid writes.
        for n, tag in ((7, "first"), (49, "49"), (7, "again")):
            _write_grid_outputs(n, str(tmp_path / f"warm-{tag}"))
        src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        for n in (7, 49):
            code = (f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; "
                    f"from test_config_io import _write_grid_outputs; "
                    f"_write_grid_outputs({n}, {str(tmp_path / f'fresh-{n}')!r})")
            subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        for warm, fresh in (("first", 7), ("49", 49), ("again", 7)):
            for name in ("eig.csv", "teach.csv", "map.svg"):
                assert ((tmp_path / f"warm-{warm}" / name).read_bytes()
                        == (tmp_path / f"fresh-{fresh}" / name).read_bytes()), (warm, name)

    def test_signed_zero_endpoint_is_not_served_from_the_cache(self, tmp_path):
        # The two grids compare equal, but their last axis points print "-0" and "0".
        for hi, last in ((-0.0, "-0"), (0.0, "0"), (-0.0, "-0")):
            path = tmp_path / "eig.csv"
            write_eig_csv(np.zeros(9), QueryGrid(-6.0, hi, 3), path)
            assert path.read_text().splitlines()[-1] == f"{last},{last},0"


# The query grid and search of the CI's reduced config.
REDUCED_CFG = """grid.query_points = 7
mle.mu1_count = 3
mle.mu2_count = 3
mle.sigma1_count = 2
mle.sigma2_count = 2
mle.p_z_count = 3
mle.refine_iters = 1
"""

# sha256 of every file each figure writes, as its manifest lists them.
PINNED_OUTPUTS = {
    "fig2": """\
belief_estimated.csv e6512ee6a2b4da305f364d86672fe8a30901ada355803e3731b655c642e37a21
belief_true.csv 11aaa710fe7dad6562180e79638af8bfca74f10f788d8a7c58efa7478b4c1e0d
eig_estimated.csv 2e8c02217cc5c0716dfdfb0e8e80753bca6bfc7d6f2c11fe996f35b49839a470
eig_true.csv e31515be939f578faf5189bfe0acdc6d606f8a7d63202cb679055150aace8500
heatmap_estimated.svg 846243cd032efa9b9e7b87ec91e4b15dcce51b376054b7e8af65b5a2fe1e7d41
heatmap_true.svg baa05ffb917710c40b6d14d5f155014e892e25b396ec86ac9868cc45bf08d138
queries.csv 51c9be1a4ee5ea9c02ad58097b0800cbcac3f74968e00a814710a6fad6806703
report.json 24085b7dfe17835547dd5e5812cc725952146d417eaff802d9dc67185dbfc6d8
""",
    "fig3": """\
belief_estimated.csv e6512ee6a2b4da305f364d86672fe8a30901ada355803e3731b655c642e37a21
belief_true.csv 2126c6d829e244d539f5b908586a790818cd247b0a5c10b3b3c74f17402861a1
eig_estimated.csv 2e8c02217cc5c0716dfdfb0e8e80753bca6bfc7d6f2c11fe996f35b49839a470
eig_true.csv 632756303be08f6234288f6d1e692008d8ae03f22739fedb9bd287aff62ec8a1
heatmap_estimated.svg 846243cd032efa9b9e7b87ec91e4b15dcce51b376054b7e8af65b5a2fe1e7d41
heatmap_true.svg c6db65e436b6b2d9f02594431b6636d4b261feb7f43c3895b9d03acf17c2968a
queries.csv 8c18241513c15415f3bfc2746618172d244a380d9e517f658573cae56a557318
report.json 10d266b94914b6701c6b15aad1c1884990ca0d714b4bdcbf5f2498c6e5b64003
""",
    "fig4": """\
belief_inferred.csv e6512ee6a2b4da305f364d86672fe8a30901ada355803e3731b655c642e37a21
heatmap_teach_adaptive.svg 7a95d635d672464ada6a0ea5809e0afdd29d42e5bc352035aea8073d6a6eb7b5
heatmap_teach_uniform.svg 0e46c97d77c2a4f06d88f35e90578c44f1ed75b0dfb512411977197204e7f96a
queries.csv 51c9be1a4ee5ea9c02ad58097b0800cbcac3f74968e00a814710a6fad6806703
report.json 261e0d2b188baa8a8f8c56f752fc7f70f839900e40e4af46d788878a9bf554c2
teach_adaptive.csv 28f483ba0a9b4445fa206b3a3624819901fa752a8530cfdd697dec21b1e8ffd1
teach_uniform.csv 4765685a98a35edc4081eee16572db402a948c17b39f8e94ae774729263c6d39
""",
}


class TestReproduceBytes:
    """Every output file of each reduced figure run, pinned by checksum.  The
    checksums were taken with numpy 2.4.6 dispatching to AVX-512 on glibc
    2.36; an AVX2-only dispatch moves them (README, "Pinned bits belong to one
    host")."""

    @pytest.mark.parametrize("figure", sorted(PINNED_OUTPUTS))
    def test_every_output_checksum_is_pinned(self, figure, tmp_path):
        cfg = tmp_path / "reduced.cfg"
        cfg.write_text(REDUCED_CFG)
        out = tmp_path / "out"
        assert main(["reproduce", figure, "--config", str(cfg), "--out", str(out)]) == 0
        digests = ""
        for line in (out / "manifest.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            if key.startswith("output.") and key.endswith(".sha256"):
                digests += f"{key[len('output.'):-len('.sha256')]} {value}\n"
        assert digests == PINNED_OUTPUTS[figure]


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

    def test_timing_lines_have_a_fixed_width(self, tmp_path):
        # Manifests of identical runs have one size, whatever the wall times.
        out = tmp_path / "data.csv"
        out.write_text("theta,mass\n0,1\n")
        m1 = tmp_path / "m1.txt"
        m2 = tmp_path / "m2.txt"
        write_manifest(m1, "0.1.0", "run.seed = 1\n", 1, [out], {"t": 0.5})
        write_manifest(m2, "0.1.0", "run.seed = 1\n", 1, [out], {"t": 12.3456789012345})
        assert m1.read_text() != m2.read_text()
        assert m1.stat().st_size == m2.stat().st_size
        assert "timing.t_seconds = 1.234568e+01\n" in m2.read_text()


class TestFormatting:
    def test_17_digit_roundtrip(self):
        rng = np.random.default_rng(77)
        for x in rng.uniform(-1e3, 1e3, size=1000):
            assert float(fmt_real(float(x))) == float(x)

    def test_exact_zero(self):
        assert fmt_real(0.0) == "0"
