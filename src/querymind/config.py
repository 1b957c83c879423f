"""Flat key-path config files: one ``key = value`` per line, ``#`` comments.

Unknown keys are rejected; missing keys fall back to documented defaults (the
dominant-mode prior scenario).  ``serialize_config(parse_config(p))`` parses
back to an equal config.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from functools import reduce
from typing import Callable

from .model import MIN_SIGMA, REWARD_FORMS, InvalidInputError
from .experiments import _SELECTION_MODES, ConfigError, ScenarioConfig

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# (check, description) pairs shared by several keys; None means unchecked.
_ANY = (None, "")
_SIGMA = (lambda v: v >= MIN_SIGMA, f"must be >= {MIN_SIGMA!r}")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")

# The one listing of the config keys: key -> (field path in ScenarioConfig,
# type converter, constraint or None, constraint description).  Defaults come
# from ScenarioConfig itself via config_values().
_KEYS: dict[str, tuple[tuple[str, ...], Callable, Callable | None, str]] = {
    "prior.mu1": (("prior", "mu1"), _finite_float, *_ANY),
    "prior.sigma1": (("prior", "sigma1"), _finite_float, *_SIGMA),
    "prior.mu2": (("prior", "mu2"), _finite_float, *_ANY),
    "prior.sigma2": (("prior", "sigma2"), _finite_float, *_SIGMA),
    "prior.p_z": (("prior", "p_z"), _finite_float, *_UNIT_INTERVAL),
    "run.theta_true": (("theta_true",), _finite_float, *_ANY),
    "run.n_queries": (("n_queries",), int, *_AT_LEAST_1),
    "run.seed": (("seed",), int, *_ANY),
    "run.selection": (("selection",), str, lambda v: v in _SELECTION_MODES,
                      "must be 'sample' or 'argmax'"),
    "run.exact_likelihood": (("exact_likelihood",), _parse_bool, *_ANY),
    "agent.beta_a": (("beta_a",), _finite_float, *_NONNEGATIVE),
    "agent.beta_h": (("beta_h",), _finite_float, *_NONNEGATIVE),
    "agent.reward_form": (("reward_form",), str, lambda v: v in REWARD_FORMS,
                          f"must be one of {REWARD_FORMS}"),
    "grid.theta_lo": (("theta_grid", "lo"), _finite_float, *_ANY),
    "grid.theta_hi": (("theta_grid", "hi"), _finite_float, *_ANY),
    "grid.theta_points": (("theta_grid", "n_points"), int, lambda v: v >= 3, "must be >= 3"),
    "grid.query_lo": (("query_grid", "feature_lo"), _finite_float, *_ANY),
    "grid.query_hi": (("query_grid", "feature_hi"), _finite_float, *_ANY),
    "grid.query_points": (("query_grid", "n_per_axis"), int, lambda v: v >= 2, "must be >= 2"),
    "mle.mu1_lo": (("mle", "mu1", "lo"), _finite_float, *_ANY),
    "mle.mu1_hi": (("mle", "mu1", "hi"), _finite_float, *_ANY),
    "mle.mu1_count": (("mle", "mu1", "count"), int, *_AT_LEAST_1),
    "mle.mu2_lo": (("mle", "mu2", "lo"), _finite_float, *_ANY),
    "mle.mu2_hi": (("mle", "mu2", "hi"), _finite_float, *_ANY),
    "mle.mu2_count": (("mle", "mu2", "count"), int, *_AT_LEAST_1),
    "mle.sigma1_lo": (("mle", "sigma1", "lo"), _finite_float, *_SIGMA),
    "mle.sigma1_hi": (("mle", "sigma1", "hi"), _finite_float, *_SIGMA),
    "mle.sigma1_count": (("mle", "sigma1", "count"), int, *_AT_LEAST_1),
    "mle.sigma2_lo": (("mle", "sigma2", "lo"), _finite_float, *_SIGMA),
    "mle.sigma2_hi": (("mle", "sigma2", "hi"), _finite_float, *_SIGMA),
    "mle.sigma2_count": (("mle", "sigma2", "count"), int, *_AT_LEAST_1),
    "mle.p_z_lo": (("mle", "p_z", "lo"), _finite_float, *_UNIT_INTERVAL),
    "mle.p_z_hi": (("mle", "p_z", "hi"), _finite_float, *_UNIT_INTERVAL),
    "mle.p_z_count": (("mle", "p_z", "count"), int, *_AT_LEAST_1),
    "mle.refine_iters": (("mle", "n_refine_iters"), int, *_NONNEGATIVE),
    "mle.refine_shrink": (("mle", "refine_shrink"), _finite_float, lambda v: 0.0 < v < 1.0,
                          "must be in (0, 1)"),
}


def config_values(cfg: ScenarioConfig) -> dict[str, object]:
    """Flat key -> value view of a resolved config."""
    return {key: reduce(getattr, path, cfg) for key, (path, *_) in _KEYS.items()}


def _replace_paths(obj, changes: dict[tuple[str, ...], object], parent: tuple[str, ...] = ()):
    """``dataclasses.replace`` at nested field paths.

    Paths that share a parent are applied together, so each nested dataclass
    is rebuilt (and validated) once, in its final state.  Every key has passed
    its own check by then, so a nested dataclass can only reject a relation
    between its float bounds (a range or a grid): its error is raised as a
    :class:`ConfigError` that starts with the keys of those bounds.
    """
    by_field: dict[str, dict[tuple[str, ...], object]] = {}
    for (name, *rest), value in changes.items():
        by_field.setdefault(name, {})[tuple(rest)] = value
    fields = {name: sub[()] if () in sub else _replace_paths(getattr(obj, name), sub,
                                                             parent + (name,))
              for name, sub in by_field.items()}
    try:
        return replace(obj, **fields)
    except InvalidInputError as exc:
        bounds = [key for key, (path, conv, *_) in _KEYS.items()
                  if path[:-1] == parent and conv is _finite_float]
        raise ConfigError(f"{', '.join(bounds)}: {exc}") from exc


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def parse_config_text(text: str, base: ScenarioConfig | None = None,
                      source: str = "<config>") -> ScenarioConfig:
    values = config_values(base if base is not None else ScenarioConfig())
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        _, conv, check, constraint = _KEYS[key]
        try:
            value = conv(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc
        if check is not None and not check(value):
            raise ConfigError(f"{source}:{lineno}: {key} {constraint}, got {raw_value}")
        values[key] = value
    return _replace_paths(ScenarioConfig(),
                          {_KEYS[key][0]: value for key, value in values.items()})


def parse_config(path: str | os.PathLike, base: ScenarioConfig | None = None) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, base=base, source=os.fspath(path))


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    values = config_values(cfg)
    lines = [f"{key} = {_format_value(values[key])}" for key in sorted(values)]
    return "\n".join(lines) + "\n"
