"""Self-tests of the benchmark on the reduced smoke scale.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import querymind  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.SCALES["smoke"]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(os.path.join(HERE, "reference_smoke.json"))


@pytest.fixture(scope="module")
def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(name, trace, tmp_path, reference, seconds=0.01):
    return workloads.run_workload(name, 3, seconds, trace, str(tmp_path / name), SMOKE,
                                  reference)


def test_smoke_emits_every_metric(tmp_path, reference, bench_spec):
    original = querymind.inference.eig_map
    emitted = {}
    for name in workloads.WORKLOADS:
        plain = _run(name, False, tmp_path / "plain", reference)
        traced = _run(name, True, tmp_path / "traced", reference)
        for result in (plain, traced):
            assert result.failed == 0, [(r.key, r.problems) for r in result.records if not r.ok]
        for m in bench_spec["end_to_end"]:
            if m["name"] != "setup_s":
                assert plain.metrics[m["name"]][1] == m["unit"], (name, m["name"])
        for m in bench_spec["per_layer"]:
            assert traced.metrics[m["name"]][1] == m["unit"], (name, m["name"])
        assert plain.metrics["failed_ratio"][0] == 0.0
        assert workloads.dominant_layer(name, traced.metrics)
        emitted.update(plain.metrics)
    assert set(workloads.END_TO_END_UNITS) - {"setup_s"} <= set(emitted)
    for name, unit in workloads.END_TO_END_UNITS.items():
        if name != "setup_s":
            assert emitted[name][1] == unit
    assert querymind.inference.eig_map is original, "tracer left a wrapper installed"


def test_setup_seconds_is_measured():
    assert bench_run.setup_seconds() > 0.0


@pytest.mark.parametrize("name, corrupt", [
    ("exact", lambda s: s["exact"]["estimated"].__setitem__(0, s["exact"]["estimated"][0] + 0.5)),
    ("intent", lambda s: s["close"].__setitem__("bf", s["close"]["bf"] * (1 + 1e-6))),
])
def test_wrong_reference_counts_as_failed(tmp_path, reference, name, corrupt):
    bad = copy.deepcopy(reference)
    for summary in bad[name].values():
        corrupt(summary)
    result = _run(name, False, tmp_path, bad)
    assert result.attempted > 0
    assert result.failed == result.attempted
    assert result.metrics["failed_ratio"][0] == 1.0


@pytest.mark.parametrize("field, kinds", [
    ("eig_true", {"fig2", "fig3"}),
    ("teaching_utils_uniform", {"fig4"}),
])
def test_one_wrong_vector_entry_fails_the_op(tmp_path, reference, field, kinds):
    bad = copy.deepcopy(reference)
    for summary in bad["figures"].values():
        v = summary["close"].get(field)
        if v is not None:
            summary["close"][field] = v[:1] + [v[1] * (1 + 1e-6) + 1e-9] + v[2:]
    result = _run("figures", False, tmp_path, bad)
    checked = [r for r in result.records if r.kind in kinds]
    assert checked and not any(r.ok for r in checked)
    assert all(r.ok for r in result.records if r.kind not in kinds)


def test_traced_counts_do_not_depend_on_run_length(tmp_path, reference):
    short = _run("loop", True, tmp_path / "short", reference)
    long = _run("loop", True, tmp_path / "long", reference, seconds=0.5)
    assert len(long.pass_seconds) > len(short.pass_seconds)
    counts = {k: v for k, v in short.metrics.items() if v[1] == "count"}
    assert counts["inference.eig_map.calls"][0] > 0
    assert counts == {k: long.metrics[k] for k in counts}


def test_reference_packing_round_trips(tmp_path, reference):
    vector = [float(i) for i in range(workloads.PACK_MIN)]
    original = copy.deepcopy(reference)
    for summary in original["figures"].values():
        summary["close"]["eig_true"] = vector
    packed = workloads.pack_reference(original)
    assert packed["vectors"] == [vector]
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(packed), encoding="utf-8")
    assert workloads.load_reference(str(path)) == original


def test_named_metrics_survive_a_removed_function():
    metrics = spans.Tracer().layer_metrics(1.0, 1.0)
    for name in spans.NAMED_FUNCTIONS:
        assert metrics[f"{name}.calls"] == (0, "count")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loop",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_kept_heap_is_not_faulted_in_again():
    # Loop-sized temporaries (2,401 x 241 floats, 4.6 MB each), several alive
    # at once.  By default glibc faults their pages in afresh on every call,
    # about 2,000 faults a call; with the heap kept they are reused.
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); import numpy, run\n"
            "assert run.keep_heap() == run.HEAP_SETTINGS\n"
            "def work():\n"
            "    a = numpy.ones((2401, 241)); b = numpy.exp(-a); c = a * b\n"
            "    return float((c / b.sum()).sum())\n"
            "work()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50): work()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    done = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                          timeout=60, check=True)
    assert int(done.stdout) < 5000
