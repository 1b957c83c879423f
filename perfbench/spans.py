"""Span recording around the public functions of querymind's modules.

A :class:`Tracer` replaces every public function defined in the seven layer
modules by a wrapper, in every ``querymind`` module namespace that binds it,
and restores the originals on :meth:`Tracer.uninstall`.  The program itself is
not edited.  Spans are kept in memory as tuples and written out once, at the
end of a run; the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "config", "experiments", "agents", "inference", "model", "reporting")

# Functions whose per-layer numbers are named in the benchmark doc.  A name a
# later change removes reports zero calls instead of failing the run.
NAMED_FUNCTIONS = (
    "agents.mle_belief",
    "agents.bayes_factor",
    "agents.tom_posterior",
    "agents.l3_teaching_utilities",
    "agents.l3_answer_policy",
    "agents.l2_query_policy",
    "inference.eig_map",
    "inference.eig_rows",
    "inference.likelihood_matrix",
    "inference.posterior_update",
    "model.discretize_belief",
    "cli.main",
)

# Calls whose arguments are fingerprinted to count repeated inputs.
HASHED = ("inference.eig_map", "inference.likelihood_matrix")

# Span tuple fields.
SID, PARENT, OP, NAME, START, END, OK, OUTER_FN, OUTER_LAYER = range(9)


def _fingerprint(value, digest) -> None:
    if isinstance(value, np.ndarray):
        digest.update(repr((value.dtype.str, value.shape)).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif hasattr(value, "__dataclass_fields__"):
        digest.update(type(value).__name__.encode())
        for name in value.__dataclass_fields__:
            _fingerprint(getattr(value, name), digest)
    else:
        digest.update(repr(value).encode())


def _candidates(cfg) -> int:
    """Candidate beliefs one attribution search scores, from its config."""
    per_pass = math.prod(r.count for r in (cfg.mu1, cfg.mu2, cfg.sigma1, cfg.sigma2, cfg.p_z))
    return per_pass * (1 + cfg.n_refine_iters)


class Tracer:
    """Wraps querymind's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.op_id: int | None = None
        self.wrapped: list[str] = []
        self.seen: dict[str, set] = defaultdict(set)
        self.repeats: Counter = Counter()
        self.bytes_written = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._patched: list[tuple] = []
        self._wrappers: dict = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("querymind")
        modules = [importlib.import_module(f"querymind.{m}") for m in LAYERS]
        if not self._wrappers:
            for mod in modules:
                layer = mod.__name__.rsplit(".", 1)[1]
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not name.startswith("_")):
                        self._wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer)
            self.wrapped = sorted(w.__qualified__ for w in self._wrappers.values())
        for mod in [pkg] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, name, self._wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        hook = self._hook_for(name, layer, fn)
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            outer_fn = active[name] == 0
            outer_layer = active[layer] == 0
            active[name] += 1
            active[layer] += 1
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
                spans.append((sid, parent, self.op_id, name, start, end, ok,
                              outer_fn, outer_layer))
                if ok and hook is not None:
                    hook(sid, args, kwargs)

        wrapper.__qualified__ = name
        return wrapper

    # -- per-call counters --------------------------------------------------

    def _hook_for(self, name: str, layer: str, fn):
        """Counter to update after a call, or None; bad arguments are skipped."""
        sig = inspect.signature(fn)
        params = sig.parameters

        def bound(args, kwargs) -> dict:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        if name in HASHED:
            def hook(sid, args, kwargs):
                try:
                    values = bound(args, kwargs)
                except TypeError:
                    return
                digest = hashlib.sha1()
                for key in sorted(values):
                    digest.update(key.encode())
                    _fingerprint(values[key], digest)
                key = digest.digest()
                if key in self.seen[name]:
                    self.repeats[name] += 1
                else:
                    self.seen[name].add(key)
            return hook
        if name == "inference.eig_rows":
            def hook(sid, args, kwargs):
                arrays = [a for a in list(args) + list(kwargs.values())
                          if isinstance(a, np.ndarray)]
                if len(arrays) >= 2:
                    shape = np.broadcast_shapes(arrays[0].shape, arrays[1].shape)
                    self.attrs[sid] = {"rows": math.prod(shape[:-1])}
            return hook
        if name == "agents.mle_belief":
            def hook(sid, args, kwargs):
                try:
                    values = bound(args, kwargs)
                    self.attrs[sid] = {"candidates": _candidates(values["cfg"]),
                                       "exact": bool(values.get("exact", False))}
                except (TypeError, KeyError, AttributeError):
                    return
            return hook
        if layer == "reporting" and "path" in params:
            def hook(sid, args, kwargs):
                try:
                    self.bytes_written += os.path.getsize(bound(args, kwargs)["path"])
                except (TypeError, KeyError, OSError):
                    return
            return hook
        return None

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line: id, parent, op, name, start, end, ok."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[SID], s[PARENT], s[OP], s[NAME], s[START], s[END],
                                     s[OK]]) + "\n")

    def layer_metrics(self, traced_op_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``.

        Self time is a span's duration minus the durations of its direct
        children (calls are synchronous, so children never overlap).  A share
        is the time inside the outermost spans of a function or layer divided
        by ``traced_op_s``, the summed latency of the traced ops.
        """
        child_ns: Counter = Counter()
        for s in self.spans:
            child_ns[s[PARENT]] += s[END] - s[START]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        errors: Counter = Counter()
        for s in self.spans:
            name = s[NAME]
            layer = name.split(".", 1)[0]
            dur = s[END] - s[START]
            own = dur - child_ns[s[SID]]
            calls[name] += 1
            self_ns[name] += own
            self_ns[layer] += own
            if s[OUTER_FN]:
                incl_ns[name] += dur
            if s[OUTER_LAYER]:
                incl_ns[layer] += dur
            if not s[OK]:
                errors[layer] += 1

        def share(key: str) -> float:
            return incl_ns[key] / 1e9 / traced_op_s if traced_op_s > 0 else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in sorted(set(self.wrapped) | set(NAMED_FUNCTIONS)):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
            out[f"{name}.share"] = (share(name), "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
            out[f"{layer}.share"] = (share(layer), "ratio")
            out[f"{layer}.errors"] = (errors[layer], "count")

        summed_ns = exact_ns = summed_cands = exact_cands = rows = 0
        for s in self.spans:
            attrs = self.attrs.get(s[SID])
            if attrs is None:
                continue
            rows += attrs.get("rows", 0)
            if "candidates" in attrs:
                if attrs["exact"]:
                    exact_ns += s[END] - s[START]
                    exact_cands += attrs["candidates"]
                else:
                    summed_ns += s[END] - s[START]
                    summed_cands += attrs["candidates"]
        out["agents.mle_belief.candidates"] = (summed_cands + exact_cands, "count")
        out["agents.mle_belief.ms_per_1k_candidates"] = (
            summed_ns / 1e6 / (summed_cands / 1000) if summed_cands else 0.0, "ms")
        out["agents.mle_belief.exact_ms_per_candidate"] = (
            exact_ns / 1e6 / exact_cands if exact_cands else 0.0, "ms")
        n_maps = calls["inference.eig_map"]
        out["inference.eig_map.ms_per_call"] = (
            self._inclusive_ns("inference.eig_map") / 1e6 / n_maps if n_maps else 0.0, "ms")
        out["inference.eig_rows.rows"] = (rows, "count")
        for name in HASHED:
            n = calls[name]
            out[f"{name}.repeat_ratio"] = (self.repeats[name] / n if n else 0.0, "ratio")
        out["reporting.bytes_written"] = (self.bytes_written, "bytes")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def _inclusive_ns(self, name: str) -> int:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)
