"""Acceptance suite: one test per shipped performance claim.

Each test prints a single pass/fail line; run with ``pytest -s`` to see
them.  All runs are seeded and deterministic.
"""

import time

import numpy as np
import pytest
from scipy import stats

from hapticbayes import (
    SALIENCY_FACTOR,
    UNCERTAINTY_FACTOR,
    MaterialPosterior,
    NoiseSpec,
    TrialConfig,
    WorkspaceBounds,
    beta_pdf,
    inhibition_profile,
    make_grid,
    run_classification_experiment,
    run_exploration_benchmark,
    run_noise_sweep,
    run_trial,
    saliency_field,
    select_target,
    target_posterior,
    update_posterior,
)

BASE_SEED = 0


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} {detail}")
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def test_criterion_1_classification_rate(lib):
    t0 = time.time()
    cm = run_classification_experiment(lib, trials_per_material=400,
                                       k_samples=5, noise=NoiseSpec(),
                                       seed=BASE_SEED)
    elapsed = time.time() - t0
    rate = cm.mean_diagonal_rate()
    report(1, "classification rate",
           rate >= 0.85 and elapsed < 10.0,
           f"mean diagonal rate {rate:.3f} (>= 0.85), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_multi_sample_improvement(lib):
    cm5 = run_classification_experiment(lib, 400, 5, NoiseSpec(), BASE_SEED)
    cm1 = run_classification_experiment(lib, 400, 1, NoiseSpec(), BASE_SEED)
    r5, r1 = cm5.diagonal_rates(), cm1.diagonal_rates()
    regressions = r1 - r5
    bad = regressions > 0.02
    report(2, "multi-sample improvement",
           int(bad.sum()) <= 1,
           f"k=5 vs k=1 per material: {int(bad.sum())} regression(s) "
           f"beyond 2pp (max delta {regressions.max():+.3f})")


def test_criterion_3_noise_degradation(lib):
    scales = [NoiseSpec.uniform(s) for s in (1.0, 1.5, 2.0)]
    sweep = run_noise_sweep(lib, scales, trials=400, k_list=(1, 5),
                            seed=BASE_SEED)
    acc = sweep.accuracy                      # (scale, k)
    ok = True
    details = []
    for j, k in enumerate(sweep.k_list):
        curve = acc[:, j]
        inversions = [b - a for a, b in zip(curve, curve[1:]) if b > a]
        ok &= len(inversions) <= 1 and all(d <= 0.01 for d in inversions)
        details.append(f"k={k}: " + "/".join(f"{a:.3f}" for a in curve))
    dominance = acc[:, 1] - acc[:, 0]
    ok &= bool(np.all(dominance >= -0.01))
    report(3, "noise degradation", ok,
           "; ".join(details) + f"; k5-k1 margins "
           + "/".join(f"{d:+.3f}" for d in dominance))


def test_criterion_4_exploration_divergence(lib, scenarios):
    t0 = time.time()
    means = {}
    for scenario in scenarios:
        rep = run_exploration_benchmark(scenario, lib, n_trials=10,
                                        config=TrialConfig(seed=BASE_SEED))
        means[scenario.name] = rep.aggregates["gamma_per_l"]["mean"] * 100.0
    elapsed = time.time() - t0
    ok = all(m <= 1.0 for m in means.values()) and elapsed < 60.0
    report(4, "exploration divergence", ok,
           ", ".join(f"{k}: {v:.2f}cm" for k, v in means.items())
           + f" (each <= 1.0cm), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_5_loop_closure(lib, scenarios):
    rep = run_exploration_benchmark(scenarios[2], lib, n_trials=10,
                                    config=TrialConfig(seed=BASE_SEED))
    closures = rep.aggregates["loop_closures"]
    report(5, "loop closure", closures >= 8,
           f"{closures}/10 trials terminated by loop closure (>= 8)")


def test_criterion_6_target_posterior_oracle():
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(100):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        grid = make_grid(WorkspaceBounds(0, nx * 0.01, 0, ny * 0.01,
                                         0, 0.01, 0.01))
        inhibition = rng.uniform(0, 1, grid.theta)
        uncertainty = rng.uniform(0, 1, grid.theta)
        rng.uniform(0, 1, grid.theta)      # omega: no factor weighs it
        saliency = rng.uniform(0, 1, grid.theta)
        post, _ = target_posterior(inhibition,
                                   beta_pdf(SALIENCY_FACTOR, saliency),
                                   beta_pdf(UNCERTAINTY_FACTOR, uncertainty))
        clamp = lambda x: min(max(x, 1e-6), 1 - 1e-6)
        scores = np.array([
            stats.beta.pdf(clamp(inhibition[j]), 1.0, 2.5)
            * stats.beta.pdf(clamp(saliency[j]), 3.0, 1.0)
            * stats.beta.pdf(clamp(uncertainty[j]), 4.0, 1.0)
            for j in range(grid.theta)
        ])
        worst = max(worst, float(np.abs(post - scores / scores.sum()).max()))
    report(6, "target posterior oracle", worst <= 1e-9,
           f"max |difference| {worst:.2e} over 100 random configurations (<= 1e-9)")


def test_criterion_7_invariant_suite(lib, scenarios):
    failures = []

    # posterior normalization across a full seeded trial
    from hapticbayes import PosteriorGrid, log_likelihoods, synthesize_sample
    rng = np.random.default_rng(BASE_SEED)
    pg = PosteriorGrid(16, len(lib))
    for j in range(16):
        for _ in range(3):
            pg.update(j, log_likelihoods(lib, synthesize_sample(
                lib, j % len(lib), NoiseSpec(), rng)))
    if not np.allclose(pg.probs.sum(axis=1), 1.0, atol=1e-9):
        failures.append("posterior normalization")

    # field ranges during a trial
    ranges_ok = True

    def check(k, state):
        nonlocal ranges_ok
        for f in (state.inhibition, state.uncertainty, state.omega,
                  state.saliency):
            if not np.all((f >= 0.0) & (f <= 1.0)):
                ranges_ok = False

    run_trial(scenarios[0], lib, TrialConfig(max_iterations=20, seed=BASE_SEED),
              on_iteration=check)
    if not ranges_ok:
        failures.append("field ranges")

    # constant omega -> exactly zero saliency
    grid = scenarios[0].grid
    if not np.all(saliency_field(grid, np.full(grid.theta, 0.5)) == 0.0):
        failures.append("zero gradient")

    # inhibition endpoints and interior minimum
    d = np.linspace(0, 1, 200_001)
    prof = inhibition_profile(d)
    if not (prof[0] == 1.0 and prof[-1] == 1.0 and prof.min() <= 1e-6):
        failures.append("inhibition profile")

    # argmax invariance under positive scaling
    scores = np.random.default_rng(BASE_SEED).uniform(0, 1, grid.theta)
    if select_target(scores, grid) != select_target(scores * 123.4, grid):
        failures.append("argmax scale invariance")

    # bit-reproducibility under fixed seeds
    ra = run_trial(scenarios[1], lib, TrialConfig(seed=BASE_SEED))
    rb = run_trial(scenarios[1], lib, TrialConfig(seed=BASE_SEED))
    ca = run_classification_experiment(lib, 25, 3, NoiseSpec(), BASE_SEED)
    cb = run_classification_experiment(lib, 25, 3, NoiseSpec(), BASE_SEED)
    if not (ra.visited == rb.visited and ra.gamma == rb.gamma
            and np.array_equal(ca.counts, cb.counts)):
        failures.append("bit reproducibility")

    report(7, "invariant suite", not failures,
           "all invariants green" if not failures
           else "failed: " + ", ".join(failures))
