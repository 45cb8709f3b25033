"""Acceptance suite: one test per criterion, run at the stated replication
counts and tolerances.  Each test prints a single PASS line with the measured
numbers (visible under pytest -rP or -s).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from branchdiff import estimator, hjb, model as M
from branchdiff.labels import children, is_antichain
from branchdiff.modelio import load_model
from branchdiff.simulator import (
    ConstantPolicy,
    OpenLoopPolicy,
    pathwise_cost,
    pathwise_cost_log_form,
    prepare_simulation,
    simulate,
)
from model_cases import single_control
from path_equality import paths_equal

THREADS = min(2, os.cpu_count() or 1)
MODELS = Path(__file__).resolve().parents[1] / "configs" / "models"


@pytest.fixture(autouse=True, scope="module")
def shared_workers():
    """Every estimator call of the suite fans out over one pool."""
    with estimator.worker_pool(THREADS):
        yield

X0 = np.zeros(1)
START = {(): X0}
BUMP = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.8,
                         center=(0.0,), width=1.0)


def cfl_grid(params, x_lo, x_hi, n_x, horizon, n_t=None):
    cfg = hjb.GridConfig(x_lo=x_lo, x_hi=x_hi, n_x=n_x, n_t=1, horizon=horizon)
    needed = hjb.required_time_steps_for(params, cfg)
    return hjb.GridConfig(x_lo=x_lo, x_hi=x_hi, n_x=n_x,
                          n_t=max(needed, n_t or 0), horizon=horizon)


CRITICAL_BINARY = single_control(gamma=1.0, rate_bound=1.0, p0=0.5)


def test_criterion_1_extinction_oracle():
    # closed form: gamma * T / (2 + gamma * T) = 0.5 at gamma = 1, T = 2
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL_BINARY, 0.5, 2.0)
    est = estimator.estimate_value(setup, 100_000, 20260801)
    assert est.stderr < 2e-3
    assert abs(est.mean - 0.5) <= 3 * est.stderr

    grid = hjb.solve(CRITICAL_BINARY,
                     hjb.GridConfig(x_lo=-1, x_hi=1, n_x=21, n_t=4000,
                                    horizon=2.0))
    pde_err = float(np.abs(grid.values[0] - 0.5).max())
    assert pde_err <= 1e-3
    print(f"ACCEPTANCE 1 extinction oracle: PASS "
          f"(mc {est.mean:.4f}+-{est.stderr:.4f} vs 0.5; pde err {pde_err:.2e})")


def test_criterion_2_moment_bound():
    lines = []
    for name in ("critical_binary", "subcritical_drift", "two_control_harvest"):
        params = load_model(MODELS / f"{name}.yaml")
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), params, 0.5, 1.5)
        summaries = estimator.run_replications(setup, 10_000, seed_base=1000)
        report = estimator.moment_check(summaries, setup)
        assert report.passed, name
        lines.append(f"{name}: mean sup {report.mean_sup:.3f} <= "
                     f"bound {report.bound:.3f}")
    print("ACCEPTANCE 2 moment bound: PASS (" + "; ".join(lines) + ")")


def test_criterion_3_branching_property():
    drifted = single_control(b=0.2, sigma=0.35, gamma=1.0, rate_bound=1.0,
                             p0=0.5, g=BUMP)
    grid = hjb.solve(drifted, cfl_grid(drifted, -4, 4, 161, 1.0))
    policy = hjb.FeedbackPolicy(grid)
    setup = prepare_simulation(0.0, {(0,): [-0.3], (1,): [0.4]}, policy, drifted, 0.5, 1.0)
    report = estimator.check_branching(setup, 100_000, 555)
    assert report.passed
    print(f"ACCEPTANCE 3 branching property: PASS "
          f"(|{report.multi.mean:.5f} - {report.product_of_singles:.5f}| "
          f"= {report.difference:.5f} <= band {report.band:.5f})")


def test_criterion_4_dynkin_residual():
    h = 1e-3
    models = {
        "diffusion": single_control(b=0.1, sigma=0.5, c=0.2),
        "branching": single_control(sigma=0.4, gamma=1.0, rate_bound=1.0,
                                    p0=0.5, c=0.1, g=M.constant(1.0)),
    }
    functions = [
        estimator.SmoothTestFunction(family="constant", base=0.7),
        estimator.SmoothTestFunction(family="gaussian-bump", base=0.2,
                                     scale=0.6, decay=0.4, center=(0.0,),
                                     width=0.7),
        estimator.SmoothTestFunction(family="polynomial-times-bump", base=0.3,
                                     scale=0.5, decay=0.2, center=(0.1,),
                                     width=0.8),
    ]
    worst = 0.0
    combo = 0
    for mname, params in models.items():
        for fi, fn in enumerate(functions):
            for s in (0.3, 0.6):
                setup = prepare_simulation(0.0, START, ConstantPolicy(0), params, h, s)
                est = estimator.dynkin_residual(setup, fn, 10_000, 9000 + 37 * combo)
                band = 3 * est.stderr + 0.5 * h
                assert abs(est.mean) <= band, (mname, fi, s, est)
                worst = max(worst, abs(est.mean) / band if band else 0.0)
                combo += 1
    print(f"ACCEPTANCE 4 dynkin residual: PASS "
          f"({combo} combinations, worst |mean|/band = {worst:.2f})")


def test_criterion_5_dpp_inequalities():
    params = load_model(MODELS / "two_control_harvest.yaml")
    grid = hjb.solve(params, cfl_grid(params, -4, 4, 161, 1.0))
    feedback = hjb.FeedbackPolicy(grid)
    policies = [
        ("feedback", feedback, "optimal"),
        ("constant0", ConstantPolicy(0), "admissible"),
        ("constant1", ConstantPolicy(1), "suboptimal"),
        ("open-loop", OpenLoopPolicy(([0.0, 0.3], [1, 0])), "admissible"),
    ]
    allowance = 0.015
    n_reps = 20_000
    suboptimal_seen = False
    for pi, (pname, policy, role) in enumerate(policies):
        setup = prepare_simulation(0.0, START, policy, params, 0.02, 0.5)
        for rule in ("fixed", "first-event"):
            rep = estimator.dpp_check(setup, rule, grid, n_reps, 4200 + 59 * pi,
                                      allowance=allowance)
            assert rep.lower_bound_ok, (pname, rule, rep)
            if role == "optimal":
                assert rep.within_band, (pname, rule, rep)
            if role == "suboptimal":
                assert rep.slack > 3 * rep.estimate.stderr, (pname, rule, rep)
                suboptimal_seen = True
    assert suboptimal_seen
    print("ACCEPTANCE 5 dpp inequalities: PASS "
          "(4 policies x 2 stopping rules; lower bounds hold, feedback within "
          "band, suboptimal slack detected)")


def test_criterion_6_mc_pde_agreement():
    params = single_control(sigma=0.5 * math.sqrt(2.0), gamma=0.5,
                            rate_bound=0.5, p0=0.5, c=0.1, g=BUMP)
    grid = hjb.solve(params, cfl_grid(params, -6, 6, 401, 1.0))
    assert grid.clamp_events == 0
    worst = 0.0
    for i, x in enumerate((-1.0, -0.5, 0.0, 0.5, 1.0)):
        setup = prepare_simulation(0.0, {(): np.array([x])}, ConstantPolicy(0), params,
                                   0.25, 1.0)
        est = estimator.estimate_value(setup, 100_000, 31000 + 17 * i)
        ref = hjb.evaluate(grid, 0.0, [x])
        band = 3 * est.stderr + 0.02
        diff = abs(est.mean - ref)
        assert diff <= band, (x, est.mean, ref)
        worst = max(worst, diff)
    print(f"ACCEPTANCE 6 mc-pde agreement: PASS "
          f"(5 probes, worst |mc - pde| = {worst:.4f} <= 3se + 0.02)")


def test_criterion_7_comparison_principle():
    rng = np.random.default_rng(777)
    violations = 0
    for trial in range(50):
        n_controls = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.2, 1.0))
        p0 = float(rng.uniform(0.1, 0.8))
        p1 = float(rng.uniform(0.0, 1.0 - p0))
        base = dict(
            dim=1, noise_dim=1, controls=M.ControlSet.of_size(n_controls),
            drift=tuple(M.constant_vector([float(rng.uniform(-0.6, 0.6))])
                        for _ in range(n_controls)),
            diffusion=tuple(M.constant_vector([float(rng.uniform(0.0, 0.8))])
                            for _ in range(n_controls)),
            death_rate=tuple(M.constant(float(rng.uniform(0.0, gamma)))
                             for _ in range(n_controls)),
            offspring=((M.constant(p0), M.constant(p1)),) * n_controls,
            running_cost=tuple(M.constant(float(rng.uniform(0.0, 0.5)))
                               for _ in range(n_controls)),
            rate_bound=1.0, mean_offspring_bound=2.0, max_children=2,
        )
        off = float(rng.uniform(0.0, 0.2))
        amp = float(rng.uniform(0.1, 0.5))
        lift = float(rng.uniform(0.0, 1.0 - off - amp))
        width = float(rng.uniform(0.4, 1.2))
        g1 = M.CoefficientSpec(family="gaussian-bump", offset=off,
                               amplitude=amp, center=(0.0,), width=width)
        g2 = M.CoefficientSpec(family="gaussian-bump", offset=off + lift,
                               amplitude=amp, center=(0.0,), width=width)
        m1 = M.ModelParams(terminal=g1, **base)
        m2 = M.ModelParams(terminal=g2, **base)
        grid = cfl_grid(m1, -3, 3, 41, 0.8)
        u1 = hjb.solve(m1, grid)
        u2 = hjb.solve(m2, grid)
        violations += int(np.count_nonzero(u1.values > u2.values + 1e-12))
    assert violations == 0
    print("ACCEPTANCE 7 comparison principle: PASS "
          "(50 random ordered pairs, 0 node violations)")


def test_criterion_8_coupling_stability():
    params = load_model(MODELS / "subcritical_drift.yaml")
    delta = 0.05
    rates = []
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), params, 0.05, 1.0)
    for li, eps in enumerate((0.1, 0.01, 0.001)):
        tilde = M.perturbed_copy(params, eps)
        rep = estimator.coupling_probe(setup, tilde, delta, 10_000, 60000 + 1000 * li)
        rates.append(rep.rate)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] >= 0.99
    print(f"ACCEPTANCE 8 coupling stability: PASS "
          f"(success rates {rates[0]:.4f} <= {rates[1]:.4f} <= {rates[2]:.4f}, "
          f"final >= 0.99)")


def test_criterion_9_determinism_and_identities():
    # bit-identical reruns
    noisy = single_control(b=0.1, sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.3,
                           p1=0.2, c=0.2, mean_bound=1.2, g=BUMP)
    a = simulate(prepare_simulation(0.0, START, ConstantPolicy(0), noisy, 0.05, 2.0), 99)
    b = simulate(prepare_simulation(0.0, START, ConstantPolicy(0), noisy, 0.05, 2.0), 99)
    assert paths_equal(a, b)
    ea, eb = (estimator.estimate_value(
        prepare_simulation(0.0, START, ConstantPolicy(0), noisy, 0.1, 1.0), 500, 31)
        for _ in range(2))
    assert ea == eb

    # product-form vs log-form cost to 1e-10 relative
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), noisy, 0.1, 2.0)
    for seed in range(500):
        p = simulate(setup, seed, record_paths=False)
        u = pathwise_cost(p, noisy)
        v = pathwise_cost_log_form(p, noisy)
        assert abs(u - v) <= 1e-10 * max(abs(u), 1e-30)

    # antichain invariant across one million randomized events, drawn as
    # many independent short event sequences (bounded genealogy depth keeps
    # label comparisons cheap; the invariant is per-event either way)
    import random as _random
    rand = _random.Random(2024)
    events = 0
    while events < 1_000_000:
        pop = {(): X0}
        for _ in range(100):
            if not pop:
                break
            keys = sorted(pop)
            lab = keys[rand.randrange(len(keys))]
            k = 0 if len(pop) >= 30 else rand.randrange(4)
            before = len(pop)
            x = pop.pop(lab)   # the engine's event update
            pop.update(dict.fromkeys(children(lab, k), x))
            assert len(pop) == before + k - 1
            assert is_antichain(pop)
            events += 1

    # single-control feedback policy equals the constant policy bit for bit
    grid = hjb.solve(noisy, cfl_grid(noisy, -4, 4, 81, 1.0))
    fa = simulate(prepare_simulation(0.0, START, hjb.FeedbackPolicy(grid), noisy,
                                     0.05, 1.0), 7)
    fb = simulate(prepare_simulation(0.0, START, ConstantPolicy(0), noisy, 0.05, 1.0), 7)
    assert paths_equal(fa, fb)
    print("ACCEPTANCE 9 determinism and identities: PASS "
          "(bit-identical reruns, cost-form identity to 1e-10, antichain over "
          "1e6 events, single-control feedback == constant)")
