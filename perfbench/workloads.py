"""Workloads of the querymind benchmark: inputs, operations, checks and metrics.

Every workload is a closed loop with one caller in one process: an operation
("op") starts only after the previous one has returned.  Ops are grouped into
passes, a pass being the workload's op list (for example one ``reproduce``
call per figure).  A run repeats passes until its time is used, drawing each
pass's inputs from a fixed pool with a permutation seeded by the workload seed,
so one run never repeats an input until the pool is exhausted.  The pool is
fixed so that every op's outputs can be checked against a reference committed
beside this file (see ``make_reference.py``).

Discrete outputs (sampled queries, estimated belief parameters, teaching
argmaxes, loop queries and answers) must equal the reference exactly.  Real
outputs (gain maps, correlations, entropies, ensemble weights, Bayes factors)
must satisfy ``|got - want| <= ATOL + RTOL * |want|``.  Any NaN or infinity
in an op's outputs fails the op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import querymind as qm
from querymind import agents, cli, experiments

import spans

RTOL = 1e-9
ATOL = 1e-12

BETA_A = 50.0
INTENT_LAMBDA = 0.5
FORMS = (qm.ABSOLUTE_DISTANCE, qm.SQUARED_DISTANCE)
FIGURES = ("fig2", "fig3", "fig4")
LOOP_CONFIGS = tuple((teacher, form) for teacher in (1, 3) for form in FORMS)

# The two-particle second-order belief of `querymind intent-bf`: the
# dominant-mode prior and its mirror image, equally weighted.
INTENT_FIXTURE = ((-3.0, 1.0, 3.0, 1.0, 0.9), (-3.0, 1.0, 3.0, 1.0, 0.1))
# A wider ensemble for one episode in four: twice the particles, so twice the
# gain maps per op.
INTENT_WIDE = INTENT_FIXTURE + ((-4.0, 1.0, 1.0, 1.5, 0.3), (-1.0, 1.5, 4.0, 0.75, 0.6))

# An intent run times at least this many ops, so that its 90th percentile has
# ten samples beyond it; no run starts a pass after HARD_CAP_S.
INTENT_MIN_OPS = 100
HARD_CAP_S = 120.0

WORKLOADS = ("figures", "loop", "intent", "exact")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "fig2_s": "s",
    "fig3_s": "s",
    "fig4_s": "s",
    "loop_rounds_per_s": "1/s",
    "exact_candidates_per_s": "1/s",
}

# Layer predicted to take most of each workload's op time, with the share the
# benchmark doc's table predicts (None: dominant, no figure given).
PREDICTED_DOMINANT = {
    "figures": ("agents.mle_belief", 0.80),
    "loop": ("inference.eig_map", 0.90),
    "intent": ("inference.eig_map", None),
    "exact": ("inference.eig_rows", 0.98),
}


@dataclass(frozen=True)
class Scale:
    """Grid sizes, search sizes and pool sizes of one benchmark scale."""

    name: str
    theta_points: int
    query_points: int
    figure_config: tuple[tuple[str, str], ...]
    exact_counts: tuple[int, int, int, int, int]
    exact_refine: int
    loop_rounds: int
    episode_len: int
    figure_pool: int
    loop_pool: int
    intent_pool: int  # four-particle episodes; three times as many two-particle ones

    @property
    def theta_grid(self) -> qm.ThetaGrid:
        return qm.ThetaGrid(-6.0, 6.0, self.theta_points)

    @property
    def query_grid(self) -> qm.QueryGrid:
        return qm.QueryGrid(-6.0, 6.0, self.query_points)

    @property
    def exact_search(self) -> agents.MleSearchConfig:
        c = self.exact_counts
        return agents.MleSearchConfig(
            mu1=agents.ParamRange(-6.0, 0.0, c[0]), mu2=agents.ParamRange(0.0, 6.0, c[1]),
            sigma1=agents.ParamRange(0.25, 2.0, c[2]), sigma2=agents.ParamRange(0.25, 2.0, c[3]),
            p_z=agents.ParamRange(0.1, 0.9, c[4]), n_refine_iters=self.exact_refine)

    @property
    def exact_candidates(self) -> int:
        return math.prod(self.exact_counts) * (1 + self.exact_refine)


SCALES = {
    # The packaged experiments' own grids and search; the exact-likelihood
    # search is reduced to 64 candidates so that one estimate takes about two
    # seconds and a 20-second run holds about ten of them.
    "full": Scale("full", 241, 49, (), (2, 2, 2, 2, 2), 1, loop_rounds=40, episode_len=5,
                  figure_pool=12, loop_pool=12, intent_pool=6),
    # Reduced grids for the self-tests; every metric is still emitted.
    "smoke": Scale("smoke", 25, 7,
                   (("mle.mu1_count", "3"), ("mle.mu2_count", "3"), ("mle.sigma1_count", "2"),
                    ("mle.sigma2_count", "2"), ("mle.p_z_count", "2"), ("mle.refine_iters", "1")),
                   (2, 2, 1, 1, 2), 1, loop_rounds=5, episode_len=3,
                   figure_pool=2, loop_pool=2, intent_pool=1),
}


# ---------------------------------------------------------------------------
# Output summaries and comparison


def _vector(values) -> list[float]:
    return [float(v) for v in values]


def _nonfinite(obj) -> int:
    if isinstance(obj, float):
        return 0 if math.isfinite(obj) else 1
    if isinstance(obj, dict):
        return sum(_nonfinite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nonfinite(v) for v in obj)
    return 0


def _close(got, want, path: str, out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{path}: keys differ")
            return
        for k in want:
            _close(got[k], want[k], f"{path}.{k}", out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]", out)
    elif want is None or got is None:
        if got is not want:
            out.append(f"{path}: {got!r} != {want!r}")
    elif not abs(got - want) <= ATOL + RTOL * abs(want):
        out.append(f"{path}: {got!r} not within tolerance of {want!r}")


def compare(got: dict, want: dict | None) -> list[str]:
    """Mismatches between an op's summary and its reference summary."""
    if want is None:
        return ["no reference for this op"]
    problems = []
    if got["nonfinite"]:
        problems.append(f"{got['nonfinite']} non-finite output values")
    for key in sorted(set(want["exact"]) | set(got["exact"])):
        if got["exact"].get(key) != want["exact"].get(key):
            problems.append(f"exact.{key}: got {got['exact'].get(key)!r:.200}, "
                            f"reference {want['exact'].get(key)!r:.200}")
    _close(got["close"], want["close"], "close", problems)
    return problems


def _summary(exact: dict, close: dict, nonfinite: int | None = None) -> dict:
    if nonfinite is None:
        nonfinite = _nonfinite(close)
    return {"exact": exact, "close": close, "nonfinite": nonfinite}


# ---------------------------------------------------------------------------
# Ops


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    units: int = 1  # rounds of a loop op, candidates of an exact op
    expected: dict | None = None  # reference summary, if not looked up by key


@dataclass
class OpRecord:
    kind: str
    key: str
    seconds: float
    units: int
    ok: bool
    phase: str  # "timed", "rerun", "twin" or "traced"
    problems: list[str]


def _cycle(rng: np.random.Generator, n: int) -> Iterator[int]:
    while True:
        yield from (int(i) for i in rng.permutation(n))


class Workload:
    """Base: a seeded stream of pass specs and the ops that realize them."""

    name = ""

    def __init__(self, scale: Scale, reference: dict, out_dir: str):
        self.scale = scale
        self.reference = reference
        self.out_dir = out_dir
        self.theta_grid = scale.theta_grid
        self.query_grid = scale.query_grid

    def specs(self, rng: np.random.Generator) -> Iterator[list]:
        raise NotImplementedError

    def ops(self, spec: list) -> list[Op]:
        """Fresh ops for a pass spec; input preparation happens here, untimed."""
        raise NotImplementedError

    def pool(self) -> list[list]:
        """Every pass spec of the pool, for writing the reference."""
        raise NotImplementedError

    def epilogue(self, first_spec: list, seed: int) -> list[Op]:
        return []

    def ref(self, key: str) -> dict | None:
        return self.reference.get(self.name, {}).get(key)


class Figures(Workload):
    """`querymind reproduce fig2|fig3|fig4` through `cli.main`, config from a file."""

    name = "figures"

    def __init__(self, scale, reference, out_dir):
        super().__init__(scale, reference, out_dir)
        self.stdout: dict[str, str] = {}  # output directory -> printed text

    def specs(self, rng):
        draws = {fig: _cycle(rng, self.scale.figure_pool) for fig in FIGURES}
        while True:
            yield [(fig, next(draws[fig])) for fig in FIGURES]

    def pool(self):
        return [[(fig, s) for fig in FIGURES] for s in range(self.scale.figure_pool)]

    def _config_path(self, fig: str, seed: int) -> str:
        path = os.path.join(self.out_dir, f"{fig}-{seed}.conf")
        lines = [f"run.seed = {seed}",
                 f"grid.theta_points = {self.scale.theta_points}",
                 f"grid.query_points = {self.scale.query_points}"]
        lines += [f"{k} = {v}" for k, v in self.scale.figure_config]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _op(self, fig: str, seed: int, out: str) -> Op:
        argv = ["reproduce", fig, "--config", self._config_path(fig, seed), "--out", out]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            self.stdout[out] = buf.getvalue()
            return rc, out

        return Op(fig, f"{fig}/{seed}", run, self._summarize)

    def ops(self, spec):
        return [self._op(fig, seed, os.path.join(self.out_dir, f"{fig}-{seed}"))
                for fig, seed in spec]

    @staticmethod
    def _summarize(output) -> dict:
        rc, out = output
        if rc != 0:
            return _summary({"rc": rc}, {}, 0)
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        exact = {"rc": rc, "queries": rep["queries"], "estimated": rep["estimated"]}
        if rep["kind"] == "belief_correction":
            exact["argmax_uniform"] = rep["argmax_uniform"]
            exact["argmax_adaptive"] = rep["argmax_adaptive"]
            close = {"learner_mass_after_uniform": rep["learner_mass_after_uniform"],
                     "learner_mass_after_adaptive": rep["learner_mass_after_adaptive"],
                     "teaching_utils_uniform": _vector(rep["teaching_utils_uniform"]),
                     "teaching_utils_adaptive": _vector(rep["teaching_utils_adaptive"])}
        else:
            close = {"correlation": rep["correlation"],
                     "eig_true": _vector(rep["eig_true"]),
                     "eig_estimated": _vector(rep["eig_estimated"])}
        return _summary(exact, close, _nonfinite(rep))

    def epilogue(self, first_spec, seed):
        """Re-run one op of the first pass; every output byte must repeat."""
        fig, fig_seed = first_spec[seed % len(first_spec)]
        first = os.path.join(self.out_dir, f"{fig}-{fig_seed}")
        op = self._op(fig, fig_seed, os.path.join(self.out_dir, "rerun"))

        def summarize(output):
            rc, out = output
            differs = [name for name in sorted(set(os.listdir(first)) | set(os.listdir(out)))
                       if _canonical_bytes(os.path.join(first, name))
                       != _canonical_bytes(os.path.join(out, name))]
            if self.stdout[out] != self.stdout.get(first):
                differs.append("stdout")
            return _summary({"rc": rc, "differs": differs}, {}, 0)

        op.kind, op.summarize = "rerun", summarize
        op.expected = _summary({"rc": 0, "differs": []}, {}, 0)
        return [op]


def _canonical_bytes(path: str) -> bytes | None:
    """File bytes, minus the manifest's wall-clock ``timing.*`` lines."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.txt":
        data = b"\n".join(ln for ln in data.split(b"\n") if not ln.startswith(b"timing."))
    return data


class Loop(Workload):
    """`run_interaction_loop`, level-2 learner against teachers 1 and 3, both forms."""

    name = "loop"

    def specs(self, rng):
        draws = {cfg: _cycle(rng, self.scale.loop_pool) for cfg in LOOP_CONFIGS}
        while True:
            yield [(teacher, form, next(draws[(teacher, form)]))
                   for teacher, form in LOOP_CONFIGS]

    def pool(self):
        return [[(t, f, s) for t, f in LOOP_CONFIGS] for s in range(self.scale.loop_pool)]

    def ops(self, spec):
        out = []
        rounds = self.scale.loop_rounds
        for teacher, form, seed in spec:
            cfg = experiments.ScenarioConfig(seed=seed, reward_form=form,
                                             theta_grid=self.theta_grid,
                                             query_grid=self.query_grid)

            def run(cfg=cfg, teacher=teacher):
                return experiments.run_interaction_loop(cfg, 2, teacher, rounds).trace

            out.append(Op(f"loop-t{teacher}", f"t{teacher}-{form}/{seed}", run,
                          self._summarize, units=rounds))
        return out

    @staticmethod
    def _summarize(trace) -> dict:
        exact = {"queries": [[float(r[1]), float(r[2])] for r in trace],
                 "answers": "".join(str(int(r[3])) for r in trace)}
        return _summary(exact, {"entropy": [float(r[4]) for r in trace]})


class Intent(Workload):
    """Episodes of observed queries: `tom_posterior` reweighting, then `bayes_factor`."""

    name = "intent"

    def specs(self, rng):
        narrow = _cycle(rng, 3 * self.scale.intent_pool)
        wide = _cycle(rng, self.scale.intent_pool)
        while True:
            episodes = [("narrow", next(narrow)) for _ in range(3)] + [("wide", next(wide))]
            yield [episodes[i] for i in rng.permutation(4)]

    def pool(self):
        return ([[("narrow", e)] for e in range(3 * self.scale.intent_pool)]
                + [[("wide", e)] for e in range(self.scale.intent_pool)])

    def queries(self, kind: str, episode: int) -> list:
        """Uniform draws from the query grid, plus one diagonal query (even
        episodes) or the fixture's highest-gain query (odd episodes)."""
        qg = self.query_grid
        rng = np.random.default_rng([episode, 0 if kind == "narrow" else 1])
        n = self.scale.episode_len
        idx = [int(i) for i in rng.integers(qg.n_candidates, size=n)]
        slot = int(rng.integers(n))
        if episode % 2 == 0:
            j = int(rng.integers(qg.n_per_axis))
            idx[slot] = j * qg.n_per_axis + j
        else:
            idx[slot] = self.reference["inputs"]["intent_argmax"]
        return [qg.query_at(i) for i in idx]

    def ops(self, spec):
        out = []
        for kind, episode in spec:
            params = INTENT_FIXTURE if kind == "narrow" else INTENT_WIDE
            particles = tuple(qm.BeliefParams(*p) for p in params)
            state = {"ens": agents.BeliefEnsemble(
                particles, np.full(len(particles), 1.0 / len(particles)))}
            for i, q in enumerate(self.queries(kind, episode)):

                def run(q=q, state=state):
                    ens = agents.tom_posterior(state["ens"], q, self.query_grid,
                                               self.theta_grid, BETA_A)
                    state["ens"] = ens
                    bf = agents.bayes_factor(q, ens, BETA_A, INTENT_LAMBDA, self.query_grid,
                                             self.theta_grid)
                    return ens.weights, bf

                out.append(Op(f"intent-{kind}", f"{kind}{episode}/{i}", run, self._summarize))
        return out

    @staticmethod
    def _summarize(output) -> dict:
        weights, bf = output
        return _summary({}, {"weights": [float(w) for w in weights], "bf": float(bf)})


class Exact(Workload):
    """Exact-likelihood attribution (`mle_belief(..., exact=True)`) of fig3 query batches."""

    name = "exact"

    def specs(self, rng):
        draws = _cycle(rng, self.scale.figure_pool)
        while True:
            yield [next(draws)]

    def pool(self):
        return [[s] for s in range(self.scale.figure_pool)]

    def ops(self, spec):
        out = []
        search = self.scale.exact_search
        for seed in spec:
            fig3 = self.reference["figures"][f"fig3/{seed}"]["exact"]["queries"]
            queries = [qm.Query(x1, x2) for x1, x2 in fig3]

            def run(queries=queries):
                return agents.mle_belief(queries, search, self.query_grid, self.theta_grid,
                                         qm.ABSOLUTE_DISTANCE, True, BETA_A)

            out.append(Op("exact", str(seed), run, self._summarize,
                          units=self.scale.exact_candidates))
        return out

    @staticmethod
    def _summarize(bp) -> dict:
        est = [float(v) for v in bp.astuple()]
        return _summary({"estimated": est}, {}, _nonfinite(est))


WORKLOAD_CLASSES = {cls.name: cls for cls in (Figures, Loop, Intent, Exact)}


# ---------------------------------------------------------------------------
# The closed loop


def execute(op: Op, phase: str, reference: Callable[[str], dict | None]) -> OpRecord:
    """Time one op, then check its outputs (untimed)."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # an op that raises is counted as failed
        seconds = time.perf_counter() - start
        return OpRecord(op.kind, op.key, seconds, op.units, False, phase,
                        [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        got = op.summarize(output)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    else:
        want = op.expected if op.expected is not None else reference(op.key)
        problems = compare(got, want)
    return OpRecord(op.kind, op.key, seconds, op.units, not problems, phase, problems)


@dataclass
class RunResult:
    records: list[OpRecord]
    pass_seconds: list[float]
    metrics: dict[str, tuple[float, str]]
    tracer: spans.Tracer | None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
                 scale: Scale, reference: dict) -> RunResult:
    """Run passes of a workload until ``seconds`` are used, then derive metrics.

    A pass is started only if half the median pass so far fits in the
    budget, so that runs end near ``seconds`` on average, except that an
    intent run always times at least INTENT_MIN_OPS ops.  With ``trace`` the
    first pass's inputs then run twice more: untraced (the "twin") and then
    traced.  Exactly one pass is traced, so per-layer counts and times are
    those of a fixed amount of work, whatever ``seconds`` is; the twin, warmed
    like the traced pass, gives the tracing overhead.
    """
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    workload = WORKLOAD_CLASSES[name](scale, reference, out_dir)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    specs = workload.specs(rng)
    min_ops = INTENT_MIN_OPS if name == "intent" else 1
    ref = workload.ref
    records: list[OpRecord] = []
    pass_s: list[float] = []
    wall: list[float] = []
    first_spec = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        spec = next(specs)
        first_spec = first_spec or spec
        done = [execute(op, "timed", ref) for op in workload.ops(spec)]
        records.extend(done)
        pass_s.append(sum(r.seconds for r in done))
        wall.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S:
            break
        if len(records) >= min_ops and elapsed + 0.5 * statistics.median(wall) > seconds:
            break
    for op in workload.epilogue(first_spec, seed):
        records.append(execute(op, "rerun", ref))
    metrics = end_to_end_metrics(name, records, pass_s)
    if not trace:
        return RunResult(records, pass_s, metrics, None)

    twin = [execute(op, "twin", ref) for op in workload.ops(first_spec)]
    tracer = spans.Tracer()
    traced = []
    tracer.install()
    try:
        for op_id, op in enumerate(workload.ops(first_spec)):
            tracer.op_id = op_id
            traced.append(execute(op, "traced", ref))
    finally:
        tracer.uninstall()
    records.extend(twin + traced)
    twin_s = sum(r.seconds for r in twin)
    traced_s = sum(r.seconds for r in traced)
    metrics.update(tracer.layer_metrics(traced_s, traced_s / twin_s))
    return RunResult(records, pass_s, metrics, tracer)


def end_to_end_metrics(name: str, records: list[OpRecord],
                       pass_s: list[float]) -> dict[str, tuple[float, str]]:
    timed = [r for r in records if r.phase == "timed"]
    lat = [r.seconds for r in timed]
    m: dict[str, float] = {
        "run_s": statistics.median(pass_s),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "failed_ratio": sum(not r.ok for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(lat) >= 100:
        m["op_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
    if name == "figures":
        for fig in FIGURES:
            m[f"{fig}_s"] = statistics.median(r.seconds for r in timed if r.kind == fig)
    elif name == "loop":
        m["loop_rounds_per_s"] = sum(r.units for r in timed) / sum(lat)
    elif name == "exact":
        m["exact_candidates_per_s"] = sum(r.units for r in timed) / sum(lat)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in m.items()}


def dominant_layer(name: str, metrics: dict) -> str:
    """One line: does the layer the doc predicts dominate this workload's op time?"""
    layer, predicted = PREDICTED_DOMINANT[name]
    share = metrics.get(f"{layer}.share", (0.0, "ratio"))[0]
    holds = "holds" if share > 0.5 else "does not hold"
    expect = f"~{predicted:.0%}" if predicted is not None else "the largest share"
    return (f"dominant layer: {layer} predicted {expect} of op time, "
            f"measured {share:.1%} -> {holds}")


def intent_argmax(scale: Scale) -> int:
    """Candidate index of the fixture's highest-gain query (criterion 6's query)."""
    belief = qm.discretize_belief(qm.BeliefParams(*INTENT_FIXTURE[0]), scale.theta_grid)
    return int(np.argmax(qm.eig_map(belief, scale.query_grid)))


# Real vectors at least this long (gain maps, teaching utilities) are stored
# once in a reference file, whichever ops share them.
PACK_MIN = 100


def pack_reference(reference: dict) -> dict:
    """The reference with each long ``close`` vector moved to ``vectors``.

    A packed summary names its vector as ``"@<index>"``.  Many figure seeds
    share their gain maps, so this keeps the file small.
    """
    vectors: list[list[float]] = []
    index: dict[tuple, int] = {}
    packed = dict(reference)
    for name in WORKLOADS:
        packed[name] = {}
        for key, summary in reference[name].items():
            close = {}
            for field, value in summary["close"].items():
                if isinstance(value, list) and len(value) >= PACK_MIN:
                    at = index.setdefault(tuple(value), len(vectors))
                    if at == len(vectors):
                        vectors.append(value)
                    value = f"@{at}"
                close[field] = value
            packed[name][key] = dict(summary, close=close)
    packed["vectors"] = vectors
    return packed


def load_reference(path: str) -> dict:
    """Read a reference file written by ``make_reference.py``, vectors unpacked."""
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    vectors = reference.pop("vectors")
    for name in WORKLOADS:
        for summary in reference[name].values():
            close = summary["close"]
            for field, value in close.items():
                if isinstance(value, str) and value.startswith("@"):
                    close[field] = vectors[int(value[1:])]
    return reference


def make_reference(scale: Scale, out_dir: str, log=print) -> dict:
    """Run every pooled op once and record its output summary."""
    reference: dict = {"scale": scale.name, "rtol": RTOL, "atol": ATOL,
                       "inputs": {"intent_argmax": intent_argmax(scale)}}
    os.makedirs(out_dir, exist_ok=True)
    for name in WORKLOADS:
        workload = WORKLOAD_CLASSES[name](scale, reference, out_dir)
        section = reference.setdefault(name, {})
        for spec in workload.pool():
            for op in workload.ops(spec):
                start = time.perf_counter()
                section[op.key] = op.summarize(op.run())
                log(f"{name} {op.key}: {time.perf_counter() - start:.2f}s")
    return reference
