"""Command-line entry point.

Subcommands reproduce the three packaged experiments, export gain maps,
estimate beliefs from observed queries, run teaching and interaction loops,
and score query intent with the literal-vs-rhetorical Bayes factor.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .model import (
    DegenerateBeliefError,
    BeliefParams,
    Query,
    discretize_belief,
)
from .inference import ImpossibleEvidenceError, eig_map
from .agents import BeliefEnsemble, bayes_factor, mle_belief
from .experiments import (
    ConfigError,
    RunReport,
    ScenarioConfig,
    bimodal_config,
    run_belief_correction,
    run_bimodal_identifiability,
    run_interaction_loop,
    run_unimodal_identifiability,
)
from .config import default_config, parse_config, serialize_config
from .reporting import (
    _write_text,
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

# Two-particle second-order belief used by `intent-bf`: the same two modes
# with the dominant group flipped, equally weighted.
INTENT_FIXTURE = (
    BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9),
    BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.1),
)

# ValueError covers ConfigError and InvalidInputError.
_RUNTIME_ERRORS = (ValueError, DegenerateBeliefError, ImpossibleEvidenceError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser: argparse.ArgumentParser, out: bool = True,
                exact: bool = True) -> None:
    """Register ``--config`` and ``--seed``, plus ``--out`` and
    ``--exact-likelihood`` for the subcommands that use them."""
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    if out:
        parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    if exact:
        parser.add_argument("--exact-likelihood", action="store_true",
                            help="use the normalized softmax query likelihood for "
                                 "belief estimation (slow at full scale)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="querymind", description=__doc__)
    parser.add_argument("--version", action="version", version=f"querymind {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("reproduce", help="run a packaged experiment end to end")
    p.add_argument("figure", choices=["fig2", "fig3", "fig4"],
                   help="fig2: dominant-mode identifiability; fig3: two-group "
                        "identifiability; fig4: false-belief teaching")
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("eig-map", help="export the gain map of the configured prior")
    _add_common(p, exact=False)
    p.set_defaults(func=_cmd_eig_map)

    p = sub.add_parser("estimate-belief",
                       help="maximum-likelihood belief from each of one or more query CSVs")
    p.add_argument("--queries", required=True, nargs="+", metavar="CSV",
                   help="files with x1,x2 rows; one estimate line per file, in order")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("teach", help="strategic teaching utilities and chosen example")
    p.add_argument("teacher", choices=["uniform", "adaptive"],
                   help="uniform: assume a flat learner belief; adaptive: infer "
                        "the learner belief from its queries first")
    _add_common(p)
    p.set_defaults(func=_cmd_teach)

    p = sub.add_parser("loop", help="alternating query/answer rounds")
    p.add_argument("--learner", type=int, default=2, help="learner level (2)")
    p.add_argument("--teacher", type=int, default=1, help="teacher level (1 or 3)")
    p.add_argument("--rounds", type=int, default=20)
    _add_common(p, exact=False)
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("intent-bf", help="literal-vs-rhetorical Bayes factor of a query")
    p.add_argument("--query", required=True, metavar="X1,X2")
    p.add_argument("--lam", type=float, default=0.5,
                   help="identifiability weight of the level-4 hypothesis")
    _add_common(p, out=False, exact=False)
    p.set_defaults(func=_cmd_intent_bf)
    return parser


def _resolve_config(args, base: ScenarioConfig | None = None) -> ScenarioConfig:
    cfg = base if base is not None else default_config()
    if args.config:
        cfg = parse_config(args.config, base=cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "exact_likelihood", False):
        cfg = replace(cfg, exact_likelihood=True)
    return cfg


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit(files: list[str], out_dir: str, name: str, writer, *args, **kwargs) -> None:
    """Write ``out_dir/name`` with ``writer(*args, path, **kwargs)`` and record it."""
    path = os.path.join(out_dir, name)
    writer(*args, path, **kwargs)
    files.append(path)


def _finish(out_dir: str, cfg: ScenarioConfig, report: RunReport,
            files: list[str]) -> None:
    _emit(files, out_dir, "report.json", _write_text, report.to_json() + "\n")
    write_manifest(os.path.join(out_dir, "manifest.txt"), __version__,
                   serialize_config(cfg), cfg.seed, files, report.timings)


def _cmd_reproduce(args) -> int:
    base = bimodal_config() if args.figure == "fig3" else default_config()
    cfg = _resolve_config(args, base)
    out = _ensure_out(args)
    if args.figure == "fig4":
        return _emit_teaching(cfg, out, which=None)
    runner = (run_unimodal_identifiability if args.figure == "fig2"
              else run_bimodal_identifiability)
    report = runner(cfg)
    files = []
    _emit(files, out, "queries.csv", write_queries_csv, report.queries)
    _emit(files, out, "eig_true.csv", write_eig_csv, report.eig_true, cfg.query_grid)
    _emit(files, out, "eig_estimated.csv", write_eig_csv, report.eig_estimated, cfg.query_grid)
    _emit(files, out, "belief_true.csv", write_belief_csv, report.belief_true)
    _emit(files, out, "belief_estimated.csv", write_belief_csv, report.belief_estimated)
    _emit(files, out, "heatmap_true.svg", render_heatmap_svg, report.eig_true, cfg.query_grid,
          annotations=report.queries)
    _emit(files, out, "heatmap_estimated.svg", render_heatmap_svg, report.eig_estimated,
          cfg.query_grid)
    _finish(out, cfg, report, files)
    mu1, sigma1, mu2, sigma2, p_z = report.estimated.astuple()
    print(f"estimated belief: mu1={fmt_real(mu1)} sigma1={fmt_real(sigma1)} "
          f"mu2={fmt_real(mu2)} sigma2={fmt_real(sigma2)} p_z={fmt_real(p_z)}")
    print(f"gain-map correlation: {fmt_real(report.correlation)}")
    return 0


def _emit_teaching(cfg: ScenarioConfig, out: str, which: str | None) -> int:
    report = run_belief_correction(cfg)
    files = []
    _emit(files, out, "queries.csv", write_queries_csv, report.queries)
    _emit(files, out, "belief_inferred.csv", write_belief_csv, report.belief_estimated)
    variants = {
        "uniform": (report.teaching_utils_uniform, report.argmax_uniform,
                    report.learner_mass_after_uniform),
        "adaptive": (report.teaching_utils_adaptive, report.argmax_adaptive,
                     report.learner_mass_after_adaptive),
    }
    selected = [which] if which else ["uniform", "adaptive"]
    for name in selected:
        utils, argmax, mass = variants[name]
        _emit(files, out, f"teach_{name}.csv", write_teaching_csv, utils, cfg.query_grid)
        # Visualize the better answer per query pair.
        per_query = np.maximum(utils[0::2], utils[1::2])
        _emit(files, out, f"heatmap_teach_{name}.svg", render_heatmap_svg, per_query,
              cfg.query_grid, annotations=[argmax.query])
        print(f"{name} teacher example: x1={fmt_real(argmax.query.x1)} "
              f"x2={fmt_real(argmax.query.x2)} y={argmax.y} "
              f"(learner mass at true parameter: {fmt_real(mass)})")
    _finish(out, cfg, report, files)
    return 0


def _cmd_teach(args) -> int:
    cfg = _resolve_config(args)
    return _emit_teaching(cfg, _ensure_out(args), which=args.teacher)


def _cmd_eig_map(args) -> int:
    cfg = _resolve_config(args)
    out = _ensure_out(args)
    belief = discretize_belief(cfg.prior, cfg.theta_grid)
    values = eig_map(belief, cfg.query_grid, cfg.reward_form)
    files = []
    _emit(files, out, "eig_true.csv", write_eig_csv, values, cfg.query_grid)
    _emit(files, out, "heatmap_true.svg", render_heatmap_svg, values, cfg.query_grid)
    report = RunReport(kind="eig_map", config=cfg, eig_true=values, belief_true=belief)
    _finish(out, cfg, report, files)
    print(f"max gain {fmt_real(values.max())} at candidate "
          f"{int(np.argmax(values))} of {cfg.query_grid.n_candidates}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    # Every file is read before the first search, so a bad one fails fast.
    datasets = [read_queries_csv(path) for path in args.queries]
    for queries in datasets:
        est = mle_belief(queries, cfg.mle, cfg.query_grid, cfg.theta_grid,
                         cfg.reward_form, cfg.exact_likelihood, cfg.beta_a)
        print(" ".join(fmt_real(v) for v in est.astuple()))
    return 0


def _cmd_loop(args) -> int:
    cfg = _resolve_config(args)
    out = _ensure_out(args)
    report = run_interaction_loop(cfg, args.learner, args.teacher, args.rounds)
    files = []
    _emit(files, out, "trace.csv", write_trace_csv, report.trace)
    _finish(out, cfg, report, files)
    print(f"final posterior entropy after {args.rounds} rounds: "
          f"{fmt_real(report.trace[-1][4])}")
    return 0


def _cmd_intent_bf(args) -> int:
    cfg = _resolve_config(args)
    try:
        x1_text, x2_text = args.query.split(",")
        x1, x2 = float(x1_text), float(x2_text)
    except ValueError as exc:
        raise ConfigError(f"--query expects 'x1,x2', got {args.query!r}") from exc
    q = Query(x1, x2)
    ensemble = BeliefEnsemble(INTENT_FIXTURE, np.array([0.5, 0.5]))
    bf = bayes_factor(q, ensemble, cfg.beta_a, args.lam, cfg.query_grid,
                      cfg.theta_grid, cfg.reward_form)
    reading = "literal" if bf > 1.0 else "rhetorical"
    print(f"BF = {fmt_real(bf)} ({reading})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
