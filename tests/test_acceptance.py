"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 encode figure-analogue behaviors that the summed-gain
attribution objective provably cannot produce (it is globally maximized by
extreme two-point mixtures); they are implemented exactly as stated and are
expected to fail.  See README "Known limitations".
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import querymind
from querymind.model import (
    BeliefParams,
    GridBelief,
    LabeledExample,
    Query,
    ThetaGrid,
    discretize_belief,
)
from querymind.inference import (
    QueryGrid,
    answer_likelihoods,
    eig_map,
    expected_info_gain,
    posterior_update,
    softmax_policy,
)
from querymind.agents import (
    BeliefEnsemble,
    bayes_factor,
    l3_teaching_utility,
    tom_posterior,
)
from querymind.experiments import (
    ScenarioConfig,
    bimodal_config,
    run_belief_correction,
    run_bimodal_identifiability,
    run_unimodal_identifiability,
)

LN2 = math.log(2.0)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# Pure-Python brute-force oracles (no numpy, no shared code paths).
# ----------------------------------------------------------------------

def brute_sigmoid(d):
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def brute_lik(theta, q, y):
    p1 = brute_sigmoid(abs(theta - q.x1) - abs(theta - q.x2))
    return p1 if y == 1 else 1.0 - p1


def brute_posterior(mass, points, q, y):
    unnorm = [m * brute_lik(t, q, y) for m, t in zip(mass, points)]
    total = sum(unnorm)
    return [u / total for u in unnorm]


def brute_entropy(mass):
    return -sum(m * math.log(m) for m in mass if m > 0.0)


def brute_eig(mass, points, q):
    if q.x1 == q.x2:
        return 0.0
    p1 = sum(m * brute_lik(t, q, 1) for m, t in zip(mass, points))
    h = brute_entropy(mass)
    h1 = brute_entropy(brute_posterior(mass, points, q, 1))
    h0 = brute_entropy(brute_posterior(mass, points, q, 0))
    return p1 * (h - h1) + (1.0 - p1) * (h - h0)


def brute_l2_policy(mass, points, queries, beta):
    gains = [brute_eig(mass, points, q) for q in queries]
    top = max(beta * g for g in gains)
    weights = [math.exp(beta * g - top) for g in gains]
    total = sum(weights)
    return [w / total for w in weights]


def brute_tom_weights(masses, weights, points, queries, observed_idx, beta):
    liks = [brute_l2_policy(m, points, queries, beta)[observed_idx] for m in masses]
    unnorm = [w * lik for w, lik in zip(weights, liks)]
    total = sum(unnorm)
    return [u / total for u in unnorm]


def brute_bayes_factor(masses, weights, points, queries, q_idx, beta, lam):
    policies = [brute_l2_policy(m, points, queries, beta) for m in masses]
    numerator = sum(w * pol[q_idx] for w, pol in zip(weights, policies))
    denominator = 0.0
    for j, mass in enumerate(masses):
        gains = [brute_eig(mass, points, q) for q in queries]
        utils = []
        for c in range(len(queries)):
            marginal = sum(w * pol[c] for w, pol in zip(weights, policies))
            ident = weights[j] * policies[j][c] / marginal
            utils.append((1.0 - lam) * gains[c] + lam * LN2 * ident)
        top = max(beta * u for u in utils)
        exps = [math.exp(beta * u - top) for u in utils]
        total = sum(exps)
        denominator += weights[j] * exps[q_idx] / total
    return numerator / denominator


def tiny_setting():
    grid = ThetaGrid(-2.0, 2.0, 5)
    qg = QueryGrid(-2.0, 2.0, 3)
    queries = [qg.query_at(i) for i in range(qg.n_candidates)]
    return grid, qg, queries


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    grid, qg, queries = tiny_setting()
    points = [float(p) for p in grid.points]
    rng = np.random.default_rng(101)
    raw = rng.uniform(0.1, 1.0, grid.n_points)
    beliefs = [
        GridBelief(grid, raw / raw.sum()),
        discretize_belief(BeliefParams(-1.0, 0.5, 1.0, 0.75, 0.6), grid),
    ]
    worst = 0.0
    for b in beliefs:
        mass = [float(m) for m in b.mass]
        for q in queries:
            worst = max(worst, abs(expected_info_gain(b, q) - brute_eig(mass, points, q)))
            for y in (0, 1):
                got = posterior_update(b, q, y).mass
                want = brute_posterior(mass, points, q, y)
                worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
                tc = LabeledExample(q, y)
                target = float(points[3])
                got_u = l3_teaching_utility(tc, target, b)
                worst = max(worst, abs(got_u - brute_posterior(mass, points, q, y)[3]))

    particles = (BeliefParams(-1.0, 0.5, 1.0, 0.5, 0.7),
                 BeliefParams(-1.0, 0.5, 1.0, 0.5, 0.3))
    ens = BeliefEnsemble(particles, np.array([0.4, 0.6]))
    masses = [[float(v) for v in discretize_belief(p, grid).mass] for p in particles]
    beta = 10.0
    for idx in range(qg.n_candidates):
        got = tom_posterior(ens, qg.query_at(idx), qg, grid, beta).weights
        want = brute_tom_weights(masses, [0.4, 0.6], points, queries, idx, beta)
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
        got_bf = bayes_factor(qg.query_at(idx), ens, beta, 0.5, qg, grid)
        want_bf = brute_bayes_factor(masses, [0.4, 0.6], points, queries, idx, beta, 0.5)
        worst = max(worst, abs(got_bf - want_bf))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"max |impl - brute force| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_invariant_suite():
    t0 = time.perf_counter()
    grid = ThetaGrid(-6.0, 6.0, 41)
    points = grid.points
    rng = np.random.default_rng(202)
    n = 1000

    def random_belief():
        raw = rng.uniform(0.0, 1.0, grid.n_points) ** 2 + 1e-9
        return GridBelief(grid, raw / raw.sum())

    failures = []

    worst_floor = 0.0
    worst_swap = 0.0
    worst_dual = 0.0
    worst_mart = 0.0
    diag_bad = 0
    for _ in range(n):
        b = random_belief()
        x1, x2 = rng.uniform(-6, 6, 2)
        q = Query(float(x1), float(x2))
        gain = expected_info_gain(b, q)
        worst_floor = min(worst_floor, gain)
        worst_swap = max(worst_swap, abs(gain - expected_info_gain(b, q.swapped())))
        lik = answer_likelihoods(points, q)
        p1 = float(np.sum(b.mass * lik))
        with np.errstate(divide="ignore", invalid="ignore"):
            hb = -(np.where(lik > 0, lik * np.log(lik), 0.0)
                   + np.where(lik < 1, (1 - lik) * np.log1p(-lik), 0.0))
        hb_p = 0.0
        if 0.0 < p1 < 1.0:
            hb_p = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
        dual = hb_p - float(np.sum(b.mass * hb))
        worst_dual = max(worst_dual, abs(gain - dual))
        mix = p1 * posterior_update(b, q, 1).mass + (1 - p1) * posterior_update(b, q, 0).mass
        worst_mart = max(worst_mart, float(np.max(np.abs(mix - b.mass))))
        x = float(rng.uniform(-6, 6))
        if expected_info_gain(b, Query(x, x)) != 0.0:
            diag_bad += 1
    if worst_floor < -1e-12:
        failures.append(f"EIG floor {worst_floor:.3g}")
    if diag_bad:
        failures.append(f"{diag_bad} nonzero diagonal gains")
    if worst_swap > 1e-12:
        failures.append(f"swap asymmetry {worst_swap:.3g}")
    if worst_dual > 1e-9:
        failures.append(f"dual-form gap {worst_dual:.3g}")
    if worst_mart > 1e-9:
        failures.append(f"martingale gap {worst_mart:.3g}")

    worst_shift = 0.0
    for _ in range(n):
        u = rng.normal(size=30)
        beta = float(rng.uniform(0, 100))
        shift = float(rng.normal() * 5)
        worst_shift = max(worst_shift, float(np.max(np.abs(
            softmax_policy(u, beta) - softmax_policy(u + shift, beta)))))
    if worst_shift > 1e-12:
        failures.append(f"softmax shift sensitivity {worst_shift:.3g}")

    worst_norm = 0.0
    small_qg = QueryGrid(-6.0, 6.0, 5)
    small_queries = [small_qg.query_at(i) for i in range(small_qg.n_candidates)]
    for _ in range(n):
        bp = BeliefParams(rng.uniform(-5, 0), rng.uniform(0.2, 2),
                          rng.uniform(0, 5), rng.uniform(0.2, 2), rng.uniform(0, 1))
        b = discretize_belief(bp, grid)
        worst_norm = max(worst_norm, abs(float(b.mass.sum()) - 1.0))
        other = BeliefParams(rng.uniform(-5, 0), rng.uniform(0.2, 2),
                             rng.uniform(0, 5), rng.uniform(0.2, 2), rng.uniform(0, 1))
        ens = BeliefEnsemble((bp, other), np.array([0.5, 0.5]))
        post = tom_posterior(ens, small_queries[int(rng.integers(25))],
                             small_qg, grid, 10.0)
        worst_norm = max(worst_norm, abs(float(post.weights.sum()) - 1.0))
    if worst_norm > 1e-9:
        failures.append(f"normalization drift {worst_norm:.3g}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    _report(2, not failures, "; ".join(failures) if failures else
            f"{7} invariant families x {n} instances, {elapsed:.1f}s")


def test_criterion_3_dominant_mode_identifiability():
    t0 = time.perf_counter()
    correlations = []
    for seed in range(10):
        rep = run_unimodal_identifiability(ScenarioConfig(seed=seed))
        correlations.append(rep.correlation)
    hits = sum(c >= 0.8 for c in correlations)
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 120.0
    _report(3, ok, f"correlation >= 0.8 in {hits}/10 seeds "
                   f"(values {[round(c, 3) for c in correlations]}), {elapsed:.0f}s")


def test_criterion_4_two_group_identifiability():
    t0 = time.perf_counter()
    mode_hits = 0
    pz_hits = 0
    modes = []
    pzs = []
    for seed in range(10):
        rep = run_bimodal_identifiability(bimodal_config(seed))
        mu1, mu2 = rep.mode_locations
        modes.append((round(mu1, 2), round(mu2, 2)))
        pzs.append(round(rep.p_z_hat, 2))
        if abs(mu1 - (-3.0)) <= 0.75 and abs(mu2 - 3.0) <= 0.75:
            mode_hits += 1
        if 0.2 < rep.p_z_hat < 0.8:
            pz_hits += 1
    elapsed = time.perf_counter() - t0
    ok = mode_hits >= 7 and pz_hits >= 6 and elapsed < 300.0
    _report(4, ok, f"modes within ±0.75 of ±3 in {mode_hits}/10 (need 7), "
                   f"group weight in (0.2, 0.8) in {pz_hits}/10 (need 6); "
                   f"modes={modes}, p_z={pzs}, {elapsed:.0f}s")


def test_criterion_5_false_belief_teaching():
    t0 = time.perf_counter()
    rep = run_belief_correction(ScenarioConfig(seed=0))
    ex_u = rep.argmax_uniform
    ex_a = rep.argmax_adaptive
    uniform_ok = abs(ex_u.query.x1 - 2.0) <= 1.0 and abs(ex_u.query.x2 - 2.0) <= 1.0
    items = sorted([ex_a.query.x1, ex_a.query.x2])
    favored = ex_a.query.x2 if ex_a.y == 1 else ex_a.query.x1
    adaptive_ok = (abs(items[0] - (-3.0)) <= 0.75 and abs(items[1] - 2.0) <= 0.75
                   and abs(favored - 2.0) <= 0.75)
    transfer_ok = rep.learner_mass_after_adaptive >= rep.learner_mass_after_uniform
    elapsed = time.perf_counter() - t0
    ok = uniform_ok and adaptive_ok and transfer_ok and elapsed < 60.0
    _report(5, ok,
            f"uniform argmax ({ex_u.query.x1}, {ex_u.query.x2}, y={ex_u.y}) "
            f"near target: {uniform_ok}; adaptive argmax "
            f"({ex_a.query.x1}, {ex_a.query.x2}, y={ex_a.y}) pairs false mode "
            f"with target: {adaptive_ok}; adaptive transfer "
            f"{rep.learner_mass_after_adaptive:.4f} >= uniform "
            f"{rep.learner_mass_after_uniform:.4f}: {transfer_ok}; {elapsed:.0f}s")


def test_criterion_6_intent_bayes_factor():
    t0 = time.perf_counter()
    grid = ThetaGrid(-6.0, 6.0, 241)
    qg = QueryGrid(-6.0, 6.0, 49)
    particles = (BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.9),
                 BeliefParams(-3.0, 1.0, 3.0, 1.0, 0.1))
    ens = BeliefEnsemble(particles, np.array([0.5, 0.5]))
    bf_diag = bayes_factor(Query(0.0, 0.0), ens, 50.0, 0.5, qg, grid)
    b_true = discretize_belief(particles[0], grid)
    q_star = qg.query_at(int(np.argmax(eig_map(b_true, qg))))
    bf_star = bayes_factor(q_star, ens, 50.0, 0.5, qg, grid)
    rng = np.random.default_rng(66)
    worst_unity = 0.0
    for _ in range(5):
        q = qg.query_at(int(rng.integers(qg.n_candidates)))
        worst_unity = max(worst_unity, abs(bayes_factor(q, ens, 50.0, 0.0, qg, grid) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = bf_diag < 1.0 and bf_star > 1.0 and worst_unity <= 1e-9 and elapsed < 10.0
    _report(6, ok, f"BF(diagonal)={bf_diag:.4f} < 1, BF(argmax)={bf_star:.4g} > 1, "
                   f"|BF-1| under identical families {worst_unity:.2g}, {elapsed:.1f}s")


def _run_fig2(out_dir: str, threads: int) -> None:
    # The subprocess imports the same source tree as this test process.
    src = os.path.dirname(os.path.dirname(os.path.abspath(querymind.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run(
        [sys.executable, "-m", "querymind.cli", "reproduce", "fig2",
         "--seed", "7", "--out", out_dir],
        check=True, env=env, capture_output=True)


def test_criterion_7_byte_determinism(tmp_path):
    runs = {"a1": 1, "a2": 1, "b8": 8}
    for name, threads in runs.items():
        _run_fig2(str(tmp_path / name), threads)
    names = ["queries.csv", "eig_true.csv", "eig_estimated.csv", "belief_true.csv",
             "belief_estimated.csv", "heatmap_true.svg", "heatmap_estimated.svg",
             "report.json"]
    mismatched = []
    for name in names:
        blobs = {(tmp_path / run / name).read_bytes() for run in runs}
        if len(blobs) != 1:
            mismatched.append(name)
    manifests = set()
    for run in runs:
        lines = (tmp_path / run / "manifest.txt").read_text().splitlines()
        manifests.add("\n".join(ln for ln in lines if not ln.startswith("timing.")))
    if len(manifests) != 1:
        mismatched.append("manifest.txt")
    _report(7, not mismatched,
            "byte-identical across repeat run and thread counts 1 vs 8"
            if not mismatched else f"mismatched outputs: {mismatched}")
