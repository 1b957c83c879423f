"""Seeded end-to-end scenarios: identifiability studies, belief-correction
teaching, and generic learner-teacher interaction loops.

Every run is a pure function of its :class:`ScenarioConfig`; randomness flows
through sub-seeds derived from the master seed with SHA-256, so reports
serialize byte-identically across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .model import (
    ABSOLUTE_DISTANCE,
    REWARD_FORMS,
    BeliefParams,
    GridBelief,
    LabeledExample,
    Query,
    ThetaGrid,
    discretize_belief,
    response_prob,
    uniform_belief,
)
from .inference import (
    QueryGrid,
    _bayes_update,
    _likelihood_table,
    eig_map,
    entropy,
    sample_index,
)
from .agents import (
    MleSearchConfig,
    _answer_policy,
    l2_query_policy,
    l2_select_query,
    l3_teaching_utilities,
    l3_teaching_utility,
    mle_belief,
)


class ConfigError(ValueError):
    """A scenario configuration is inconsistent or out of range."""


def derive_subseed(master_seed: int, label: str, index: int) -> int:
    """Stable 64-bit sub-seed for a named random stream.

    SHA-256 over the (seed, label, index) triple keeps streams independent
    and platform-invariant.
    """
    if not label:
        raise ConfigError("sub-seed label must be nonempty")
    payload = f"{master_seed}\x1f{label}\x1f{index}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved inputs of one experiment run."""

    prior: BeliefParams = BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9)
    theta_true: float = 2.0
    n_queries: int = 5
    beta_a: float = 50.0
    beta_h: float = 50.0
    reward_form: str = ABSOLUTE_DISTANCE
    theta_grid: ThetaGrid = ThetaGrid(-6.0, 6.0, 241)
    query_grid: QueryGrid = QueryGrid(-6.0, 6.0, 49)
    seed: int = 0
    mle: MleSearchConfig = MleSearchConfig()
    exact_likelihood: bool = False

    def __post_init__(self) -> None:
        for name in ("theta_true", "beta_a", "beta_h"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_queries < 1:
            raise ConfigError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.reward_form not in REWARD_FORMS:
            raise ConfigError(f"reward form must be one of {REWARD_FORMS}")
        if self.beta_a < 0 or self.beta_h < 0:
            raise ConfigError("rationality coefficients must be nonnegative")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


def bimodal_config(seed: int = 0) -> ScenarioConfig:
    """Defaults for the two-group identifiability study: tighter modes,
    near-even group weight, and a larger query budget."""
    return ScenarioConfig(prior=BeliefParams(-3.0, 0.5, 3.0, 0.5, 0.6),
                          n_queries=20, seed=seed)


@dataclass
class RunReport:
    """Everything one scenario produced, minus wall-clock noise.

    ``timings`` is carried for the manifest but excluded from the canonical
    serialization so identical configs serialize byte-identically.
    """

    kind: str
    config: ScenarioConfig
    queries: list[Query] = field(default_factory=list)
    estimated: BeliefParams | None = None
    eig_true: np.ndarray | None = None
    eig_estimated: np.ndarray | None = None
    correlation: float | None = None
    mode_locations: tuple[float, float] | None = None
    p_z_hat: float | None = None
    belief_true: GridBelief | None = None
    belief_estimated: GridBelief | None = None
    teaching_utils_uniform: np.ndarray | None = None
    teaching_utils_adaptive: np.ndarray | None = None
    argmax_uniform: LabeledExample | None = None
    argmax_adaptive: LabeledExample | None = None
    learner_mass_after_uniform: float | None = None
    learner_mass_after_adaptive: float | None = None
    trace: list[tuple[int, float, float, int, float]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def canonical_dict(self) -> dict:
        return {f.name: _report_value(getattr(self, f.name))
                for f in fields(self) if f.name != "timings"}

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=1)


def _report_value(value):
    """JSON form of a report field: an array or grid belief becomes a list of
    floats, a labeled example ``{x1, x2, y}``, a dataclass whose fields are all
    scalars (a search range, a query) a list in field order and any other
    dataclass (the ``config`` section) a dict by field name, and lists and
    tuples are converted per element."""
    if isinstance(value, GridBelief):
        value = value.mass
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, LabeledExample):
        return {"x1": value.query.x1, "x2": value.query.x2, "y": value.y}
    if is_dataclass(value):
        values = {f.name: getattr(value, f.name) for f in fields(value)}
        if not any(is_dataclass(v) for v in values.values()):
            return [_report_value(v) for v in values.values()]
        return {k: _report_value(v) for k, v in values.items()}
    if isinstance(value, (list, tuple)):
        return [_report_value(v) for v in value]
    return value


def sample_queries(cfg: ScenarioConfig, belief: GridBelief) -> list[Query]:
    """Draw the scenario's query batch from the level-2 policy of ``belief``."""
    policy = l2_query_policy(belief, cfg.query_grid, cfg.beta_a, cfg.reward_form)
    rng = np.random.default_rng(derive_subseed(cfg.seed, "queries", 0))
    return [l2_select_query(policy, rng) for _ in range(cfg.n_queries)]


def _nondiagonal_mask(qg: QueryGrid) -> np.ndarray:
    cands = qg.candidates
    return cands[:, 0] != cands[:, 1]


def _attribution(cfg: ScenarioConfig, kind: str) -> RunReport:
    """A report with the prior's sampled queries and the belief attributed from them."""
    report = RunReport(kind=kind, config=cfg)
    t0 = time.perf_counter()
    report.belief_true = discretize_belief(cfg.prior, cfg.theta_grid)
    report.queries = sample_queries(cfg, report.belief_true)
    report.timings["sample_queries"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report.estimated = mle_belief(report.queries, cfg.mle, cfg.query_grid, cfg.theta_grid,
                                  cfg.reward_form, cfg.exact_likelihood, cfg.beta_a)
    report.belief_estimated = discretize_belief(report.estimated, cfg.theta_grid)
    report.timings["mle_belief"] = time.perf_counter() - t0
    return report


def _identifiability(cfg: ScenarioConfig, kind: str) -> RunReport:
    report = _attribution(cfg, kind)
    t0 = time.perf_counter()
    report.eig_true = eig_map(report.belief_true, cfg.query_grid, cfg.reward_form)
    report.eig_estimated = eig_map(report.belief_estimated, cfg.query_grid, cfg.reward_form)
    mask = _nondiagonal_mask(cfg.query_grid)
    for name, values in (("true", report.eig_true[mask]),
                         ("estimated", report.eig_estimated[mask])):
        if values.min() == values.max():
            raise ConfigError(f"the {name} gain map is constant over the non-diagonal "
                              f"candidates, so its correlation is undefined")
    report.correlation = float(np.corrcoef(report.eig_true[mask],
                                           report.eig_estimated[mask])[0, 1])
    report.mode_locations = (report.estimated.mu1, report.estimated.mu2)
    report.p_z_hat = report.estimated.p_z
    report.timings["eig_maps"] = time.perf_counter() - t0
    return report


def run_unimodal_identifiability(cfg: ScenarioConfig) -> RunReport:
    """Recover a dominantly unimodal belief from its own sampled queries, with
    the estimate's mode locations and group weight."""
    return _identifiability(cfg, "unimodal_identifiability")


def run_bimodal_identifiability(cfg: ScenarioConfig) -> RunReport:
    """Recover a two-group belief, with the estimate's mode locations and group
    weight, as the unimodal study reports them too."""
    return _identifiability(cfg, "bimodal_identifiability")


def run_belief_correction(cfg: ScenarioConfig) -> RunReport:
    """Teaching under a false learner belief, with and without query-based inference.

    The learner's actual belief is ``cfg.prior`` (false: it discounts the mode
    containing ``theta_true``).  The teacher either assumes a uniform learner
    belief or attributes one from the observed queries, then picks the
    highest-utility labeled example.  Both chosen examples are also scored by
    the posterior mass they would produce on the true parameter under the
    learner's actual belief.
    """
    cfg.theta_grid.index_of(cfg.theta_true)  # an off-grid theta_true fails before the search
    report = _attribution(cfg, "belief_correction")
    false_belief = report.belief_true

    t0 = time.perf_counter()
    qg = cfg.query_grid
    u_uniform = l3_teaching_utilities(cfg.theta_true, [uniform_belief(cfg.theta_grid)],
                                      None, qg, cfg.reward_form)
    u_adaptive = l3_teaching_utilities(cfg.theta_true, [report.belief_estimated],
                                       None, qg, cfg.reward_form)
    report.teaching_utils_uniform = u_uniform
    report.teaching_utils_adaptive = u_adaptive

    def take_argmax(utils: np.ndarray) -> LabeledExample:
        idx = int(np.argmax(utils))
        cand, y = divmod(idx, 2)
        return LabeledExample(qg.query_at(cand), y)

    report.argmax_uniform = take_argmax(u_uniform)
    report.argmax_adaptive = take_argmax(u_adaptive)

    report.learner_mass_after_uniform = l3_teaching_utility(
        report.argmax_uniform, cfg.theta_true, false_belief, cfg.reward_form)
    report.learner_mass_after_adaptive = l3_teaching_utility(
        report.argmax_adaptive, cfg.theta_true, false_belief, cfg.reward_form)
    report.timings["teaching"] = time.perf_counter() - t0
    return report


_VALID_PAIRINGS = {(2, 1), (2, 3)}


def run_interaction_loop(cfg: ScenarioConfig, learner_level: int, teacher_level: int,
                         rounds: int) -> RunReport:
    """Alternating query/answer rounds with the learner's posterior threaded through.

    The level-2 learner asks from its softmax policy and updates literally.
    A level-1 teacher answers from the choice model at ``theta_true``; a
    level-3 teacher answers strategically, attributing the learner's current
    belief exactly (a single-particle second-order belief kept in sync).  Each
    round draws one candidate index; the level-3 teacher and the learner's
    update read that candidate's row of the cached likelihood table, the row
    that ``l3_answer_policy`` and ``posterior_update`` compute afresh.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if (learner_level, teacher_level) not in _VALID_PAIRINGS:
        raise ConfigError(
            f"unsupported level pairing learner={learner_level}, teacher={teacher_level}; "
            f"supported: learner 2 with teacher 1 or 3")
    report = RunReport(kind=f"loop_l{learner_level}_vs_l{teacher_level}", config=cfg)
    t0 = time.perf_counter()
    belief = discretize_belief(cfg.prior, cfg.theta_grid)
    rng_q = np.random.default_rng(derive_subseed(cfg.seed, "loop-queries", 0))
    rng_a = np.random.default_rng(derive_subseed(cfg.seed, "loop-answers", 0))
    qg, form = cfg.query_grid, cfg.reward_form
    table = _likelihood_table(cfg.theta_grid, qg, form)
    for t in range(rounds):
        c = sample_index(l2_query_policy(belief, qg, cfg.beta_a, form).probs, rng_q)
        q, lik = qg.query_at(c), table[c]
        p1 = (response_prob(cfg.theta_true, q, form) if teacher_level == 1 else
              _answer_policy(cfg.theta_true, [belief], None, [lik[None, :]], cfg.beta_h))
        y = 1 if rng_a.random() < p1 else 0
        belief = _bayes_update(belief, q, lik, y)
        report.trace.append((t, q.x1, q.x2, y, entropy(belief)))
    report.timings["loop"] = time.perf_counter() - t0
    return report

