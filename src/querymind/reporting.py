"""Deterministic exports: CSV tables, SVG heatmaps, and run manifests.

Every emitted byte is a pure function of the values passed in: reals print
with 17 significant digits (lossless for float64) bar the manifest's fixed-width
``timing.*`` seconds, newlines are ``\\n``, and SVG pixels are integers.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Iterable, Sequence

import numpy as np

from .model import GridBelief, Query
from .inference import QueryGrid

# Two-stop color ramp for heatmaps: values lerp linearly in RGB from
# RAMP_LOW (minimum) to RAMP_HIGH (maximum); a constant map renders RAMP_LOW.
RAMP_LOW = (13, 8, 135)
RAMP_HIGH = (240, 249, 33)
_CELL_PX = 12
_MARKER_COLOR = "#ff3b30"


# 17-significant-digit decimal, round-trip exact for float64.  Writers that
# format many cells apply it directly: ``_REAL % x == fmt_real(x)``.
_REAL = "%.17g"


def fmt_real(x: float) -> str:
    """17-significant-digit decimal, round-trip exact for float64."""
    return _REAL % float(x)


def _write_text(text: str, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str | os.PathLike, header: str, rows: Iterable[Sequence[float]]) -> None:
    """One line per row, every cell as :func:`fmt_real` prints it; integers
    below 2**53 print exactly as ``f"{n}"`` would."""
    rows = [tuple(row) for row in rows]
    line = ",".join([_REAL] * len(rows[0])) if rows else ""
    _write_text("\n".join([header] + [line % row for row in rows]) + "\n", path)


@functools.lru_cache(maxsize=8)
def _candidate_prefixes(axis: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ``"x1,x2,"`` prefix of each candidate's row, and the ``"x1,x2,y,"``
    prefixes of its two answers, for a query grid whose formatted axis is
    ``axis``.  Keyed on the text, not the grid: grids that compare equal can
    still differ in the sign of a zero endpoint."""
    pairs = tuple(f"{a},{b}," for a in axis for b in axis)
    return pairs, tuple(f"{p}{y}," for p in pairs for y in "01")


def _grid_prefixes(qg: QueryGrid) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return _candidate_prefixes(tuple(_REAL % x for x in qg.axis.tolist()))


def _write_value_csv(path: str | os.PathLike, header: str, prefixes: Sequence[str],
                     values: np.ndarray) -> None:
    """Rows ``prefix + fmt_real(value)``; only the value column is formatted."""
    lines = [header] + [p + _REAL % v for p, v in zip(prefixes, values.tolist())]
    _write_text("\n".join(lines) + "\n", path)


def write_eig_csv(values: np.ndarray, qg: QueryGrid, path: str | os.PathLike) -> None:
    """Per-candidate gain map as ``x1,x2,eig`` rows in enumeration order."""
    if values.shape != (qg.n_candidates,):
        raise ValueError("value count does not match candidate count")
    _write_value_csv(path, "x1,x2,eig", _grid_prefixes(qg)[0], values)


def write_belief_csv(b: GridBelief, path: str | os.PathLike) -> None:
    """Grid belief as ``theta,mass`` rows in ascending theta."""
    _write_csv(path, "theta,mass", np.column_stack([b.grid.points, b.mass]).tolist())


def write_queries_csv(queries: Sequence[Query], path: str | os.PathLike) -> None:
    _write_csv(path, "x1,x2", [(q.x1, q.x2) for q in queries])


def read_queries_csv(path: str | os.PathLike) -> list[Query]:
    """Queries from an ``x1,x2`` CSV; blank lines are skipped.

    A malformed row raises ``ValueError("<path>:<line>: ...")``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    header = lines[0][1].split(",") if lines else []
    if header[:2] != ["x1", "x2"]:
        raise ValueError(f"{path}: expected header 'x1,x2'")
    n_cols = len(header)
    out = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n_cols:
            raise ValueError(f"{path}:{n}: expected {n_cols} columns, got {len(parts)}")
        try:
            out.append(Query(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from exc
    return out


def write_trace_csv(trace: Iterable[tuple[int, float, float, int, float]],
                    path: str | os.PathLike) -> None:
    _write_csv(path, "round,x1,x2,y,entropy", trace)


def write_teaching_csv(utils: np.ndarray, qg: QueryGrid, path: str | os.PathLike) -> None:
    """Teaching utilities as ``x1,x2,y,utility``, candidate-major then answer."""
    if utils.shape != (2 * qg.n_candidates,):
        raise ValueError("utility count does not match candidate/answer count")
    _write_value_csv(path, "x1,x2,y,utility", _grid_prefixes(qg)[1], utils)


@functools.lru_cache(maxsize=8)
def _heatmap_body(n: int) -> str:
    """The ``<rect>`` lines of an ``n``-by-``n`` heatmap, each fill left as
    ``rgb(%d,%d,%d)``.  Candidate ``c = i n + j`` is column ``i`` and row
    ``n - 1 - j`` (x2 increases upward)."""
    return "\n".join(
        f'<rect x="{i * _CELL_PX}" y="{(n - 1 - j) * _CELL_PX}" width="{_CELL_PX}" '
        f'height="{_CELL_PX}" fill="rgb(%d,%d,%d)"/>'
        for i in range(n) for j in range(n))


def render_heatmap_svg(values: np.ndarray, qg: QueryGrid, path: str | os.PathLike,
                       annotations: Sequence[Query] | None = None) -> None:
    """One rectangle per candidate; x1 on the horizontal axis, x2 vertical
    (increasing upward).  Optional cross markers flag specific queries.

    Each channel is ``RAMP_LOW + t * (RAMP_HIGH - RAMP_LOW)`` rounded half to
    even, with ``t`` the value's position in [min, max].
    """
    n = qg.n_per_axis
    if values.shape != (qg.n_candidates,):
        raise ValueError("value count does not match candidate count")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("heatmap values must be finite")
    vmin = float(values.min())
    span = float(values.max()) - vmin
    t = np.zeros(values.shape) if span == 0.0 else (values - vmin) / span
    low = np.array(RAMP_LOW, dtype=np.float64)
    high = np.array(RAMP_HIGH, dtype=np.float64)
    rgb = np.rint(low + t[:, None] * (high - low)).astype(np.int64)
    side = n * _CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        _heatmap_body(n) % tuple(rgb.ravel().tolist()),
    ]
    if annotations:
        half = _CELL_PX // 2
        arm = _CELL_PX // 3
        for q in annotations:
            idx = qg.index_of(q)
            i, j = divmod(idx, n)
            cx = i * _CELL_PX + half
            cy = (n - 1 - j) * _CELL_PX + half
            parts.append(f'<line x1="{cx - arm}" y1="{cy - arm}" x2="{cx + arm}" '
                         f'y2="{cy + arm}" stroke="{_MARKER_COLOR}" stroke-width="2"/>')
            parts.append(f'<line x1="{cx - arm}" y1="{cy + arm}" x2="{cx + arm}" '
                         f'y2="{cy - arm}" stroke="{_MARKER_COLOR}" stroke-width="2"/>')
    parts.append("</svg>")
    _write_text("\n".join(parts) + "\n", path)


def sha256_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path: str | os.PathLike, version: str, config_text: str,
                   seed: int, output_paths: Sequence[str | os.PathLike],
                   timings: dict[str, float]) -> None:
    """Flat ``key = value`` manifest with stable key order.

    Checksums cover every emitted file.  ``timing.*`` keys carry wall-clock
    seconds, the only lines expected to differ between identical runs, as
    ``%.6e``: 12 characters, so identical runs write manifests of one size.
    """
    entries: dict[str, str] = {
        "tool.name": "querymind",
        "tool.version": version,
        "run.seed": str(seed),
    }
    for line in config_text.strip().splitlines():
        key, _, value = line.partition("=")
        entries[f"config.{key.strip()}"] = value.strip()
    for out in output_paths:
        name = os.path.basename(os.fspath(out))
        entries[f"output.{name}.sha256"] = sha256_file(out)
        entries[f"output.{name}.bytes"] = str(os.path.getsize(out))
    for step, seconds in timings.items():
        entries[f"timing.{step}_seconds"] = "%.6e" % seconds
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    _write_text("\n".join(lines) + "\n", path)
