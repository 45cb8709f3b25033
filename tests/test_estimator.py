import functools
import math
import os
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from branchdiff import estimator, hjb, model as M, rng, simulator
from branchdiff.errors import ConfigurationError, ExplosionGuardError
from branchdiff.simulator import (ConstantPolicy, pathwise_cost, prepare_simulation,
                                  simulate)

X0 = np.zeros(1)
START = {(): X0}
BUMP = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.8,
                         center=(0.0,), width=1.0)


def make_model(b=0.0, sigma=0.0, gamma=0.0, rate_bound=0.0, p0=1.0, p1=0.0,
               c=0.0, g=None, mean_bound=1.0):
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
        drift=(M.constant_vector([b]),),
        diffusion=(M.constant_vector([sigma]),),
        death_rate=(M.constant(gamma),),
        offspring=((M.constant(p0), M.constant(p1)),),
        running_cost=(M.constant(c),),
        terminal=g if g is not None else M.constant(0.0),
        rate_bound=rate_bound, mean_offspring_bound=mean_bound, max_children=2,
    )


CRITICAL = make_model(gamma=1.0, rate_bound=1.0, p0=0.5)
PURE_DEATH = make_model(gamma=1.0, rate_bound=1.0, p0=1.0)

# no pool (a block of one worker opens none), a pool of 2 and a pool of 3,
# which cuts a call into 24 chunks
WORKERS = (1, 2, 3)


class TestEstimateValue:
    def test_deterministic_path(self):
        m = make_model(g=M.constant(0.7))
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.5, 1.0)
        est = estimator.estimate_value(setup, 50, 1)
        assert est.mean == 0.7
        assert est.stderr == 0.0

    def test_pure_death_oracle(self):
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), PURE_DEATH, 1.0, 1.0)
        est = estimator.estimate_value(setup, 20000, 7)
        target = 1.0 - math.exp(-1.0)
        assert abs(est.mean - target) <= 3 * est.stderr

    def test_critical_binary_oracle(self):
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL, 2.0, 2.0)
        est = estimator.estimate_value(setup, 20000, 11)
        assert abs(est.mean - 0.5) <= 3 * est.stderr

    def test_deterministic_in_seed_base(self):
        a, b = (estimator.estimate_value(
            prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL, 1.0, 2.0), 500, 99)
            for _ in range(2))
        assert a == b

    def test_threads_do_not_change_result(self):
        results = []
        for workers in WORKERS:
            with estimator.worker_pool(workers):
                results.append(estimator.estimate_value(prepare_simulation(
                    0.0, START, ConstantPolicy(0), CRITICAL, 1.0, 2.0), 400, 5))
        assert results == [results[0]] * len(WORKERS)

    def test_replications_equal_setup_free_paths(self):
        """A set-up tables its founders' streams; each replication is still
        the path of a set-up without a table, on one worker or two."""
        m = make_model(b=0.1, sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4,
                       mean_bound=1.2)
        expected = []
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.1, 1.0)
        plain = replace(setup, streams=None)
        for seed in range(21, 61):
            path = simulate(plain, seed)
            expected.append((seed, pathwise_cost(path, m), path.sup_population,
                             len(path.events), path.extinct))
        for workers in (1, 2):
            with estimator.worker_pool(workers):
                reps = estimator.run_replications(setup, 40, 21)
            assert [(r.seed, r.cost, r.sup_population, r.n_events, r.extinct)
                    for r in reps] == expected

    def test_needs_two_replications(self):
        with pytest.raises(ConfigurationError):
            estimator.estimate_value(
                prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL, 1.0, 1.0), 1, 0)

    def test_explosion_reports_partial_count(self):
        boom = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, mean_bound=2.0)
        with pytest.raises(ExplosionGuardError) as err:
            estimator.estimate_value(prepare_simulation(
                0.0, START, ConstantPolicy(0), boom, 1.0, 30.0, population_cap=128), 200, 0)
        assert err.value.completed_replications is not None


class TestCommonRandomNumberMonotonicity:
    def test_antitone_in_running_cost(self):
        lo = make_model(sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                        c=0.1, g=BUMP, mean_bound=1.1)
        hi = make_model(sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                        c=0.5, g=BUMP, mean_bound=1.1)
        setup_lo = prepare_simulation(0.0, START, ConstantPolicy(0), lo, 0.1, 1.5)
        setup_hi = prepare_simulation(0.0, START, ConstantPolicy(0), hi, 0.1, 1.5)
        for seed in range(200):
            a = pathwise_cost(simulate(setup_lo, seed, record_paths=False), lo)
            b = pathwise_cost(simulate(setup_hi, seed, record_paths=False), hi)
            assert b <= a + 1e-15

    def test_monotone_in_terminal_cost(self):
        g_lo = M.CoefficientSpec(family="gaussian-bump", offset=0.05,
                                 amplitude=0.8, center=(0.0,), width=1.0)
        lo = make_model(sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                        g=g_lo, mean_bound=1.1)
        hi = make_model(sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                        g=BUMP, mean_bound=1.1)
        setup_lo = prepare_simulation(0.0, START, ConstantPolicy(0), lo, 0.1, 1.5)
        setup_hi = prepare_simulation(0.0, START, ConstantPolicy(0), hi, 0.1, 1.5)
        for seed in range(200):
            a = pathwise_cost(simulate(setup_lo, seed, record_paths=False), lo)
            b = pathwise_cost(simulate(setup_hi, seed, record_paths=False), hi)
            assert a <= b + 1e-15


class TestBranching:
    def test_single_particle_trivial(self):
        setup = prepare_simulation(0.0, {(0,): X0}, ConstantPolicy(0), CRITICAL, 1.0, 1.0)
        rep = estimator.check_branching(setup, 500, 3)
        assert rep.passed
        assert rep.difference <= rep.band

    def test_independent_particles_factorize(self):
        m = make_model(sigma=0.5, gamma=0.0, rate_bound=1.0, p0=0.5, g=BUMP)
        setup = prepare_simulation(0.0, {(0,): [-0.4], (1,): [0.5]}, ConstantPolicy(0),
                                   m, 0.1, 1.0)
        rep = estimator.check_branching(setup, 4000, 17)
        assert rep.passed

    def test_branching_model_factorizes(self):
        m = make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.5, g=BUMP)
        setup = prepare_simulation(0.0, {(0,): [-0.3], (1,): [0.4]}, ConstantPolicy(0),
                                   m, 0.05, 1.0)
        rep = estimator.check_branching(setup, 6000, 23)
        assert rep.passed

    def test_open_loop_policy_accepted(self):
        """An open-loop schedule is the same for every label; on a one-control
        model it gives the constant policy's report."""
        from branchdiff.simulator import OpenLoopPolicy
        reports = [estimator.check_branching(prepare_simulation(
                       0.0, {(0,): X0, (1,): X0 + 0.5}, pol, CRITICAL, 1.0, 1.0), 100, 0)
                   for pol in (OpenLoopPolicy(([0.0], [0])), ConstantPolicy(0))]
        assert reports[0] == reports[1]


class TestDynkinResidual:
    def test_constant_one_zero_pathwise(self):
        m = make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.5,
                       g=M.constant(1.0))
        u = estimator.SmoothTestFunction(family="constant", base=1.0)
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.1, 1.0)
        est = estimator.dynkin_residual(setup, u, 100, 5)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_classical_single_diffusion(self):
        m = make_model(b=0.1, sigma=0.5, gamma=0.0, rate_bound=0.0, c=0.2)
        u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.2,
                                         scale=0.6, decay=0.4, center=(0.0,),
                                         width=0.7)
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 2e-3, 0.6)
        est = estimator.dynkin_residual(setup, u, 4000, 101)
        assert abs(est.mean) <= 3 * est.stderr + 0.5 * 2e-3

    def test_branching_model(self):
        m = make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.5, c=0.1,
                       g=M.constant(1.0))
        u = estimator.SmoothTestFunction(family="polynomial-times-bump",
                                         base=0.3, scale=0.5, decay=0.2,
                                         center=(0.1,), width=0.8)
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 2e-3, 0.5)
        est = estimator.dynkin_residual(setup, u, 4000, 55)
        assert abs(est.mean) <= 3 * est.stderr + 0.5 * 2e-3

    def test_multi_particle_start(self):
        m = make_model(sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.2,
                       mean_bound=1.2, c=0.05)
        u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.3,
                                         scale=0.5, decay=0.1, center=(0.0,),
                                         width=1.0)
        mu = {(0,): np.array([-0.2]), (1,): np.array([0.3])}
        setup = prepare_simulation(0.0, mu, ConstantPolicy(0), m, 2e-3, 0.5)
        est = estimator.dynkin_residual(setup, u, 4000, 77)
        assert abs(est.mean) <= 3 * est.stderr + 0.5 * 2e-3


class TestTestFunctionDim:
    """Unset center and direction follow the positions' dim; set ones must
    match the model's dim before a Dynkin call runs."""

    @pytest.mark.parametrize("family", ["gaussian-bump", "polynomial-times-bump"])
    def test_defaults_follow_positions(self, family):
        xs = np.random.default_rng(3).normal(size=(6, 2))
        unset = estimator.SmoothTestFunction(family=family, base=0.3, scale=0.5)
        explicit = estimator.SmoothTestFunction(family=family, base=0.3, scale=0.5,
                                                center=(0.0, 0.0), direction=(1.0, 0.0))
        got = (unset.value(0.2, xs), *unset.jet(0.2, xs))
        want = (explicit.value(0.2, xs), *explicit.jet(0.2, xs))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert [g.shape for g in got] == [(6,), (6,), (6,), (6, 2), (6, 2, 2)]

    @pytest.mark.parametrize("name", ["center", "direction"])
    def test_wrong_length_rejected_by_dynkin(self, name):
        u = estimator.SmoothTestFunction(family="polynomial-times-bump", base=0.3,
                                         scale=0.5, **{name: (0.5, 0.5)})
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL, 0.1, 1.0)
        with pytest.raises(ConfigurationError, match=f"{name} has length 2, expected dim = 1"):
            estimator.dynkin_residual(setup, u, 10, 0)


def bump_function(family, dim):
    """A decaying bump of ``family`` in ``dim`` dimensions, its center off
    the origin and, in two dimensions, its direction off the axes."""
    extra = {"direction": (1.0, 0.7)} if family == "polynomial-times-bump" and dim == 2 else {}
    return estimator.SmoothTestFunction(family=family, base=0.3, scale=0.5, decay=0.4,
                                        center=(0.1, -0.2)[:dim], width=0.8, **extra)


class TestJet:
    """The jet's derivatives against central differences (h = 1e-5) of
    value, the Hessian against those of the jet's gradient: second
    differences of value at that step carry rounding errors near 1e-6."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", ["gaussian-bump", "polynomial-times-bump"])
    def test_derivatives_match_central_differences(self, family, dim):
        u = bump_function(family, dim)
        rng_ = np.random.default_rng(12)
        ts, xs = rng_.uniform(0.0, 1.0, 9), rng_.normal(0.0, 0.8, (9, dim))
        h = 1e-5
        steps = h * np.eye(dim)
        value, du_dt, grad, hess = u.jet(ts, xs)
        assert value.tobytes() == u.value(ts, xs).tobytes()
        fd_t = (u.value(ts + h, xs) - u.value(ts - h, xs)) / (2 * h)
        fd_grad = np.stack([(u.value(ts, xs + e) - u.value(ts, xs - e)) / (2 * h)
                            for e in steps], axis=-1)
        fd_hess = np.stack([(u.jet(ts, xs + e)[2] - u.jet(ts, xs - e)[2]) / (2 * h)
                            for e in steps], axis=-1)
        assert np.abs(du_dt - fd_t).max() <= 1e-8 and np.abs(du_dt).max() > 0.01
        assert np.abs(grad - fd_grad).max() <= 1e-8 and np.abs(grad).max() > 0.01
        assert np.abs(hess - fd_hess).max() <= 1e-8 and np.abs(hess).max() > 0.01
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))

    def test_constant_family_has_zero_derivatives(self):
        u = estimator.SmoothTestFunction(family="constant", base=0.7, decay=0.4)
        xs = np.ones((3, 2))
        value, du_dt, grad, hess = u.jet(0.5, xs)
        assert value.tolist() == [0.7] * 3
        assert [a.shape for a in (du_dt, grad, hess)] == [(3,), (3, 2), (3, 2, 2)]
        assert not (du_dt.any() or grad.any() or hess.any())


class TestTestFunctionRange:
    """u(t, .) spans [base + min(0, a(t)), base + max(0, a(t))] with
    a(t) = scale * exp(-decay t); that range may not leave [0, 1] from the
    earliest time u is evaluated on, t = 0 or an earlier start."""

    @pytest.mark.parametrize("kw", [dict(base=0.1, scale=-0.5),
                                    dict(base=0.3, scale=0.5, decay=-1.0),
                                    dict(base=0.8, scale=0.6)],
                             ids=["below_zero", "negative_decay", "above_one"])
    def test_leaving_rejected(self, kw):
        with pytest.raises(ConfigurationError, match="test function|decay"):
            estimator.SmoothTestFunction(family="gaussian-bump", **kw)

    def test_negative_scale_inside_accepted(self):
        u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.8, scale=-0.5)
        values = u.value(0.0, np.linspace(-4.0, 4.0, 81)[:, None])
        assert values.min() == pytest.approx(0.3) and values.max() <= 0.8

    def test_constant_ignores_scale(self):
        """A constant is base everywhere, whatever its scale."""
        u = estimator.SmoothTestFunction(family="constant", base=0.7, scale=0.5)
        u.check_range(-1e6)
        assert u.value(0.0, np.zeros((3, 1))).tolist() == [0.7] * 3

    def test_earlier_start_checked(self):
        u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.3, scale=0.5,
                                         decay=1.0)
        u.check_range(0.5)
        for t in (-1.0, -1e6):     # a(-1) = 0.5 e; a(-1e6) overflows
            with pytest.raises(ConfigurationError, match=r"inside \[0, 1\]"):
                u.check_range(t)
        estimator.SmoothTestFunction(family="gaussian-bump", base=0.3, decay=1.0
                                     ).check_range(-1e6)
        setup = prepare_simulation(-1.0, START, ConstantPolicy(0), CRITICAL, 0.1, 0.0)
        with pytest.raises(ConfigurationError, match=r"at t = -1\.0"):
            estimator.dynkin_residual(setup, u, 10, 0)


class TestDpp:
    def setup_method(self):
        self.m = make_model(sigma=0.45, gamma=0.8, rate_bound=0.8, p0=0.5,
                            c=0.1, g=BUMP)
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=161, n_t=1, horizon=1.0)
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=161,
                             n_t=hjb.required_time_steps_for(self.m, cfg),
                             horizon=1.0)
        self.grid = hjb.solve(self.m, cfg)

    def test_degenerate_stopping_time(self):
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), self.m, 0.1, 0.0)
        rep = estimator.dpp_check(setup, "fixed", self.grid, 50, 1)
        assert rep.slack == 0.0
        assert rep.estimate.stderr == 0.0

    def test_terminal_stopping_time(self):
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), self.m, 0.05, 1.0)
        rep = estimator.dpp_check(setup, "fixed", self.grid, 4000, 9, allowance=0.01)
        assert rep.lower_bound_ok
        assert rep.within_band  # single control: the policy is optimal

    def test_first_event_stopping_time(self):
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), self.m, 0.05, 0.6)
        rep = estimator.dpp_check(setup, "first-event", self.grid, 4000, 13, allowance=0.01)
        assert rep.lower_bound_ok
        assert rep.within_band

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            estimator.dpp_check(prepare_simulation(0.0, START, ConstantPolicy(0), self.m,
                                                   0.1, 0.5), "sometimes", self.grid, 10, 0)

    @pytest.mark.parametrize("rule", ["fixed", "first-event"])
    def test_records_only_for_first_event(self, rule, monkeypatch):
        """The fixed rule simulates without tracks, the first-event rule with
        them, and the report equals that of a run that records every path."""
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), self.m, 0.05, 0.6)
        asked = []

        def simulate(setup, seed, *, record_paths=True, forced=None):
            asked.append(record_paths)
            record = record_paths if forced is None else forced
            return simulator.simulate(setup, seed, record_paths=record)

        monkeypatch.setattr(estimator, "simulate", functools.partial(simulate, forced=True))
        every_path_recorded = estimator.dpp_check(setup, rule, self.grid, 300, 21)
        asked.clear()
        monkeypatch.setattr(estimator, "simulate", simulate)
        assert estimator.dpp_check(setup, rule, self.grid, 300, 21) == every_path_recorded
        assert set(asked) == {rule == "first-event"}


class TestMoment:
    def test_no_branching_supremum_constant(self):
        m = make_model(gamma=0.0, rate_bound=0.5, p0=0.5, mean_bound=1.0)
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 1.0, 1.0)
        sums = estimator.run_replications(setup, 200, 3)
        rep = estimator.moment_check(sums, setup)
        assert rep.mean_sup == 1.0
        assert rep.passed

    def test_supercritical_within_bound(self):
        m = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, mean_bound=2.0)
        setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 1.0, 1.0)
        sums = estimator.run_replications(setup, 2000, 29)
        rep = estimator.moment_check(sums, setup)
        assert rep.bound == pytest.approx(math.exp(2.0))
        assert rep.passed

    def test_needs_replications(self):
        with pytest.raises(ConfigurationError):
            estimator.moment_check([], prepare_simulation(0.0, START, ConstantPolicy(0),
                                                          CRITICAL, 1.0, 1.0))


def test_summary_fields():
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), CRITICAL, 1.0, 2.0)
    sums = estimator.run_replications(setup, 50, 1000)
    assert [s.seed for s in sums] == list(range(1000, 1050))
    for s in sums:
        assert s.cost in (0.0, 1.0)  # g == 0: cost is the extinction indicator
        assert s.extinct == (s.cost == 1.0)
        assert s.sup_population >= 1


# motion, two controls with different death rates and running costs: every
# part of the simulation set-up is in use
HARVEST = M.ModelParams(
    dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
    drift=(M.constant_vector([0.0]),) * 2,
    diffusion=(M.constant_vector([0.45]),) * 2,
    death_rate=(M.constant(0.8), M.constant(0.3)),
    offspring=((M.constant(0.5), M.constant(0.0)),) * 2,
    running_cost=(M.constant(0.4), M.constant(0.05)),
    terminal=BUMP, rate_bound=1.0, mean_offspring_bound=1.0, max_children=2)
PAIR = {(0,): np.array([-0.3]), (1,): np.array([0.4])}
U = estimator.SmoothTestFunction(family="gaussian-bump", base=0.2, scale=0.6,
                                 decay=0.3, center=(0.0,), width=0.8)


def harvest_grid():
    cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81, n_t=1, horizon=1.0)
    cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81,
                         n_t=hjb.required_time_steps_for(HARVEST, cfg), horizon=1.0)
    return hjb.solve(HARVEST, cfg)


def harvest_setup(name):
    """The set-up of estimator ``name``'s calls: dynkin and dpp stop early."""
    horizon = {"dynkin": 0.7, "dpp": 0.8}.get(name, 1.0)
    return prepare_simulation(0.0, PAIR, ConstantPolicy(1), HARVEST, 0.1, horizon)


def run_estimator(name, n_reps, grid=None, seed_shift=0, setup=None):
    """One call of estimator ``name``, on ``setup`` if given, else on a fresh
    set-up."""
    setup = harvest_setup(name) if setup is None else setup
    if name == "estimate":
        return estimator.estimate_value(setup, n_reps, 40 + seed_shift)
    if name == "dynkin":
        return estimator.dynkin_residual(setup, U, n_reps, 41 + seed_shift)
    if name == "dpp":
        return estimator.dpp_check(setup, "first-event", grid, n_reps, 42 + seed_shift)
    tilde = M.perturbed_copy(HARVEST, 0.05)
    return estimator.coupling_probe(setup, tilde, 0.05, n_reps, 43 + seed_shift)


ESTIMATORS = ["estimate", "dynkin", "dpp", "couple"]


class TestSetupBuiltOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("_make_plan", "offspring_boundaries"):
            def counted(*args, _fn=getattr(simulator, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(simulator, name, counted)
        return calls

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_once_per_call(self, name, calls):
        grid = harvest_grid() if name == "dpp" else None
        run_estimator(name, 200, grid=grid)
        builds = 2 if name == "couple" else 1     # coupling: one per model
        # the event geometry is position-free: one boundary set per control
        assert calls == {"_make_plan": builds, "offspring_boundaries": 2 * builds}

    def test_coupled_models_share_one_stream_table(self, monkeypatch):
        """The stream words depend on (seed, label) only: a coupling call
        computes each block of them once for both models, and a worker gets
        the pair with one table."""
        blocks, fanned = Counter(), []

        def counted(seeds, labels, _fn=rng.stream_words):
            blocks[(seeds.start, seeds.stop)] += 1
            return _fn(seeds, labels)

        def recorded(worker, args, n_reps, _fn=estimator._fan_out):
            fanned.append(args)
            return _fn(worker, args, n_reps)

        monkeypatch.setattr(rng, "stream_words", counted)
        monkeypatch.setattr(estimator, "_fan_out", recorded)
        run_estimator("couple", 400)
        ranges = sorted(blocks)
        assert set(blocks.values()) == {1}
        # the last block may reach past the call's last seed, 442
        assert ranges[0][0] == 43 and ranges[-1][0] <= 442 < ranges[-1][1]
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        setup, tilde = pickle.loads(pickle.dumps(fanned[0][:2]))
        assert setup.streams is tilde.streams
        assert setup.params == HARVEST and tilde.params != HARVEST


@pytest.mark.parametrize("name", ESTIMATORS)
def test_threads_do_not_change_estimators(name):
    grid = harvest_grid() if name == "dpp" else None
    results = []
    for workers in WORKERS:
        with estimator.worker_pool(workers):
            results.append(run_estimator(name, 120, grid=grid))
    assert results == [results[0]] * len(WORKERS)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_reused_setup_equals_fresh_setups(name):
    """Calls on one set-up at seed bases that run ahead of, into and behind
    the seeds its table holds give what fresh set-ups give, in process and
    fanned out."""
    grid = harvest_grid() if name == "dpp" else None
    shifts = (0, 30, -20)
    fresh = [run_estimator(name, 60, grid, shift) for shift in shifts]
    for workers in (1, 2):
        setup = harvest_setup(name)
        with estimator.worker_pool(workers):
            assert [run_estimator(name, 60, grid, shift, setup) for shift in shifts] == fresh


def _worker_pid(args, k):
    return os.getpid()


class _CountsPickling:
    """Counts how often it is pickled (in the process that pickles it)."""

    def __init__(self):
        self.pickled = 0

    def __getstate__(self):
        self.pickled += 1
        return dict(vars(self))


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Every pool built, with the futures submitted to it."""
        built = []

        class RecordingPool(estimator.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submitted = []
                built.append(self)

            def submit(self, *args, **kwargs):
                self.submitted.append(super().submit(*args, **kwargs))
                return self.submitted[-1]

        monkeypatch.setattr(estimator, "ProcessPoolExecutor", RecordingPool)
        return built

    def test_no_block_runs_in_process(self, pools):
        assert estimator._fan_out(_worker_pid, None, 5) == [os.getpid()] * 5
        with estimator.worker_pool(1):
            assert estimator._fan_out(_worker_pid, None, 5) == [os.getpid()] * 5
        assert pools == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_eight_chunks_per_worker(self, pools, workers):
        with estimator.worker_pool(workers):
            pids = estimator._fan_out(_worker_pid, None, 100)
        assert len(pids) == 100 and os.getpid() not in pids
        assert [len(p.submitted) for p in pools] == [8 * workers]

    def test_nested_block_reuses_outer_pool(self, pools):
        with estimator.worker_pool(2):
            outer = estimator._POOL.get()
            with estimator.worker_pool(3):
                assert estimator._POOL.get() is outer
                estimator._fan_out(_worker_pid, None, 100)
            assert estimator._POOL.get() is outer
        assert estimator._POOL.get() is None
        assert [len(p.submitted) for p in pools] == [16]

    def test_arguments_pickled_once_per_call(self, pools):
        args = _CountsPickling()
        with estimator.worker_pool(2):
            pids = estimator._fan_out(_worker_pid, args, 100)
        assert len(pids) == 100 and len(pools[0].submitted) == 16
        assert args.pickled == 1

    def test_serial_again_after_failed_block(self, pools):
        with pytest.raises(RuntimeError):
            with estimator.worker_pool(2):
                raise RuntimeError("body failed")
        assert estimator._POOL.get() is None
        assert estimator._fan_out(_worker_pid, None, 5) == [os.getpid()] * 5
        assert len(pools) == 1 and pools[0].submitted == []
