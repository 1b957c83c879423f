"""querymind benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Prints each metric by name with its unit, the run's metadata, and as the last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics that
BENCHMARK.json lists; with ``--trace 1`` they are its per-layer metrics, taken
from spans recorded around querymind's public functions.  A results file and,
for traced runs, a span file are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Set-up as a user pays it: a fresh interpreter imports querymind and builds
# the grids and configs of the packaged experiments.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import querymind
from querymind import cli, config
theta = querymind.ThetaGrid(-6.0, 6.0, 241)
qgrid = querymind.QueryGrid(-6.0, 6.0, 49)
theta.points, qgrid.candidates
config.default_config(), querymind.bimodal_config()
print(time.perf_counter() - t0)
"""
SETUP_REPEATS = 15

# glibc mallopt parameters.  By default glibc returns freed multi-megabyte
# numpy temporaries to the kernel and faults them back in on the next call:
# about 150,000 page faults and a quarter of a `loop` op's time, the part that
# swings most with other load on a shared host.  The benchmark keeps them in
# the heap for reuse instead.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_SETTINGS = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}


def keep_heap() -> dict | None:
    """Apply HEAP_SETTINGS to this process; None where there is no glibc mallopt."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        ok = (libc.mallopt(M_MMAP_THRESHOLD, HEAP_SETTINGS["mmap_threshold"]) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, HEAP_SETTINGS["trim_threshold"]) == 1)
    except (OSError, AttributeError):
        ok = False
    return dict(HEAP_SETTINGS) if ok else None


def setup_seconds() -> float:
    """Median of SETUP_REPEATS fresh-interpreter set-ups, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def metadata(workload: str, seed: int, seconds: float, trace: int, heap: dict | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": heap,
        "git_commit": commit,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "loop", "intent", "exact"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "querymind", "__init__.py")):
        print(f"error: querymind sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import querymind

    if not os.path.realpath(querymind.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported querymind from {querymind.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    reference = workloads.load_reference(os.path.join(HERE, "reference.json"))

    heap = keep_heap()
    meta = metadata(args.workload, args.seed, args.seconds, args.trace, heap)
    setup_s = None if args.trace else setup_seconds()
    out_dir = os.path.join(OUT, args.workload)
    before = resource.getrusage(resource.RUSAGE_SELF)
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    out_dir, workloads.SCALES["full"], reference)
    after = resource.getrusage(resource.RUSAGE_SELF)
    usage = {"user_s": after.ru_utime - before.ru_utime,
             "system_s": after.ru_stime - before.ru_stime,
             "minor_faults": after.ru_minflt - before.ru_minflt}
    metrics = dict(result.metrics)
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")

    print(f"querymind benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("metadata: " + json.dumps(meta, sort_keys=True))
    print(f"ops: {result.attempted} attempted, {result.failed} failed, "
          f"{len(result.pass_seconds)} passes")
    for record in result.records:
        if not record.ok:
            print(f"FAILED {record.kind} {record.key}: {'; '.join(record.problems)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"metric {name} = {value!r} {unit}")
    if args.trace:
        print(workloads.dominant_layer(args.workload, metrics))

    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{base}.json"), "w", encoding="utf-8") as fh:
        json.dump({"metadata": meta, "attempted": result.attempted, "failed": result.failed,
                   "pass_seconds": result.pass_seconds, "usage": usage,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "ops": [[r.kind, r.key, r.seconds, r.ok, r.phase]
                           for r in result.records]},
                  fh, indent=1, sort_keys=True)
    if result.tracer is not None:
        result.tracer.write(os.path.join(OUT, f"spans-{base}.jsonl"))

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
