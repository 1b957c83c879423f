"""Deterministic exports: CSV tables, SVG heatmaps, and run manifests.

Every emitted byte is a pure function of the values passed in: reals print
with 17 significant digits (lossless for float64), newlines are ``\\n``, and
SVG geometry uses integer pixel coordinates.
"""

from __future__ import annotations

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


def fmt_real(x: float) -> str:
    """17-significant-digit decimal, round-trip exact for float64."""
    return f"{float(x):.17g}"


def _write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_eig_csv(values: np.ndarray, qg: QueryGrid, path: str | os.PathLike) -> None:
    """Per-candidate gain map as ``x1,x2,eig`` rows in enumeration order."""
    cands = qg.candidates
    if values.shape != (qg.n_candidates,):
        raise ValueError("value count does not match candidate count")
    lines = ["x1,x2,eig"]
    for (x1, x2), v in zip(cands, values):
        lines.append(f"{fmt_real(x1)},{fmt_real(x2)},{fmt_real(v)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_belief_csv(b: GridBelief, path: str | os.PathLike) -> None:
    """Grid belief as ``theta,mass`` rows in ascending theta."""
    lines = ["theta,mass"]
    for theta, mass in zip(b.grid.points, b.mass):
        lines.append(f"{fmt_real(theta)},{fmt_real(mass)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_queries_csv(queries: Sequence[Query], path: str | os.PathLike) -> None:
    lines = ["x1,x2"]
    for q in queries:
        lines.append(f"{fmt_real(q.x1)},{fmt_real(q.x2)}")
    _write_text(path, "\n".join(lines) + "\n")


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
    lines = ["round,x1,x2,y,entropy"]
    for rnd, x1, x2, y, ent in trace:
        lines.append(f"{rnd},{fmt_real(x1)},{fmt_real(x2)},{y},{fmt_real(ent)}")
    _write_text(path, "\n".join(lines) + "\n")


def write_teaching_csv(utils: np.ndarray, qg: QueryGrid, path: str | os.PathLike) -> None:
    """Teaching utilities as ``x1,x2,y,utility``, candidate-major then answer."""
    cands = qg.candidates
    if utils.shape != (2 * qg.n_candidates,):
        raise ValueError("utility count does not match candidate/answer count")
    lines = ["x1,x2,y,utility"]
    for c in range(qg.n_candidates):
        x1, x2 = cands[c]
        for y in (0, 1):
            lines.append(f"{fmt_real(x1)},{fmt_real(x2)},{y},{fmt_real(utils[2 * c + y])}")
    _write_text(path, "\n".join(lines) + "\n")


def _ramp_color(t: float) -> str:
    r = round(RAMP_LOW[0] + t * (RAMP_HIGH[0] - RAMP_LOW[0]))
    g = round(RAMP_LOW[1] + t * (RAMP_HIGH[1] - RAMP_LOW[1]))
    b = round(RAMP_LOW[2] + t * (RAMP_HIGH[2] - RAMP_LOW[2]))
    return f"rgb({r},{g},{b})"


def render_heatmap_svg(values: np.ndarray, qg: QueryGrid, path: str | os.PathLike,
                       annotations: Sequence[Query] | None = None) -> None:
    """One rectangle per candidate; x1 on the horizontal axis, x2 vertical
    (increasing upward).  Optional cross markers flag specific queries."""
    n = qg.n_per_axis
    if values.shape != (qg.n_candidates,):
        raise ValueError("value count does not match candidate count")
    vmin = float(values.min())
    vmax = float(values.max())
    span = vmax - vmin
    side = n * _CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">'
    ]
    for c in range(qg.n_candidates):
        i, j = divmod(c, n)
        t = 0.0 if span == 0.0 else (float(values[c]) - vmin) / span
        x_px = i * _CELL_PX
        y_px = (n - 1 - j) * _CELL_PX
        parts.append(f'<rect x="{x_px}" y="{y_px}" width="{_CELL_PX}" '
                     f'height="{_CELL_PX}" fill="{_ramp_color(t)}"/>')
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
    _write_text(path, "\n".join(parts) + "\n")


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

    Checksums cover every emitted file; ``timing.*`` keys carry wall-clock
    seconds and are the only lines expected to differ between identical runs.
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
        entries[f"timing.{step}_seconds"] = fmt_real(seconds)
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    _write_text(path, "\n".join(lines) + "\n")
