import hashlib
import math

import numpy as np
import pytest

from branchdiff import hjb, model as M
from branchdiff.errors import (ConfigurationError, ExplosionGuardError,
                               NumericalFailureError)
from branchdiff.labels import is_antichain
from branchdiff.rng import RandomDriver
from branchdiff.simulator import (
    ConstantPolicy,
    OpenLoopPolicy,
    particle_grid,
    pathwise_cost,
    pathwise_cost_log_form,
    simulate,
    write_path_csv,
)

X0 = np.zeros(1)
ROOT_START = {(): X0}


def make_model(b=0.0, sigma=0.0, gamma=0.0, rate_bound=0.0, p0=1.0, p1=0.0,
               c=0.0, g=None, mean_bound=1.0, affine_drift=None):
    drift = (M.constant_vector([b]),)
    if affine_drift is not None:
        drift = (M.VectorSpec((M.CoefficientSpec(
            family="affine", intercept=affine_drift[0],
            slope=(affine_drift[1],)),)),)
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
        drift=drift,
        diffusion=(M.constant_vector([sigma]),),
        death_rate=(M.constant(gamma),),
        offspring=((M.constant(p0), M.constant(p1)),),
        running_cost=(M.constant(c),),
        terminal=g if g is not None else M.constant(0.0),
        rate_bound=rate_bound, mean_offspring_bound=mean_bound, max_children=2,
    )


CRITICAL_BINARY = make_model(gamma=1.0, rate_bound=1.0, p0=0.5, p1=0.0)
PURE_DEATH = make_model(gamma=1.0, rate_bound=1.0, p0=1.0)


class TestSingleDiffusion:
    def test_no_branching_single_particle(self):
        m = make_model(b=0.2, sigma=0.5, gamma=0.0, rate_bound=1.0, p0=0.5)
        path = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 1.0, seed=3)
        assert all(ev.kind == "phantom" for ev in path.events)
        assert set(path.final) == {()}
        assert path.sup_population == 1

    def test_endpoint_matches_manual_euler_maruyama(self):
        # state-dependent drift forces the sequential stepping path; replay
        # the left-endpoint recursion on the same stream, bit for bit
        m = make_model(sigma=0.3, affine_drift=(0.1, -0.5))
        h, horizon, seed = 0.1, 1.0, 77
        path = simulate(0.0, ROOT_START, ConstantPolicy(0), m, h, horizon, seed)
        grid = particle_grid(0.0, 0.0, horizon, h)
        deltas = np.diff(grid)
        z = RandomDriver(seed).motion_stream(()).standard_normal((len(deltas), 1))
        dw = z * np.sqrt(deltas)[:, None]
        x = X0
        for k in range(len(deltas)):
            x = x + m.drift_at(x, 0) * deltas[k]
            x = x + m.diffusion_at(x, 0) @ dw[k]
        assert path.final[()][0] == x[0]

    def test_terminal_law_constant_coefficients(self):
        m = make_model(b=0.3, sigma=0.7)
        ends = []
        for seed in range(4000):
            p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.25, 1.0, seed,
                         record_paths=False)
            ends.append(p.final[()][0])
        ends = np.array(ends)
        assert abs(ends.mean() - 0.3) < 4 * 0.7 / math.sqrt(len(ends))
        assert abs(ends.std() - 0.7) < 0.03

    def test_ode_accuracy_improves_with_step(self):
        m = make_model(affine_drift=(1.0, -1.0))  # x' = 1 - x, x(0)=0
        exact = 1.0 - math.exp(-1.0)
        errs = []
        for h in (0.2, 0.05):
            p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, h, 1.0, seed=0)
            errs.append(abs(p.final[()][0] - exact))
        assert errs[1] < errs[0]
        assert errs[1] < 0.02


class TestBranchingLaw:
    def test_pure_death_extinction_fraction(self):
        n = 20000
        extinct = sum(
            simulate(0.0, ROOT_START, ConstantPolicy(0), PURE_DEATH, 1.0, 1.0,
                     seed, record_paths=False).extinct
            for seed in range(n))
        target = 1.0 - math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(extinct / n - target) <= 3 * se

    def test_critical_binary_extinction_fraction(self):
        n = 20000
        extinct = sum(
            simulate(0.0, ROOT_START, ConstantPolicy(0), CRITICAL_BINARY,
                     2.0, 2.0, seed, record_paths=False).extinct
            for seed in range(n))
        se = math.sqrt(0.25 / n)
        assert abs(extinct / n - 0.5) <= 3 * se

    def test_moment_bound(self):
        m = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0, mean_bound=2.0)
        sups = [simulate(0.0, ROOT_START, ConstantPolicy(0), m, 1.0, 1.0, seed,
                         record_paths=False).sup_population
                for seed in range(2000)]
        sups = np.array(sups, dtype=float)
        bound = math.exp(1.0 * 2.0 * 1.0)
        assert sups.mean() <= bound + 3 * sups.std(ddof=1) / math.sqrt(len(sups))

    def test_population_changes_by_children_minus_one(self):
        sizes = {(): 1}
        for seed in range(200):
            p = simulate(0.0, ROOT_START, ConstantPolicy(0), CRITICAL_BINARY,
                         2.0, 2.0, seed)
            n = 1
            for ev in p.events:
                if ev.kind == "phantom":
                    assert ev.pop_size_after == n
                else:
                    assert ev.pop_size_after == n + ev.n_children - 1
                    n = ev.pop_size_after
            assert len(p.final) == n

    def test_antichain_after_every_event(self):
        m = make_model(gamma=1.0, rate_bound=1.0, p0=0.4, p1=0.2, mean_bound=1.2)
        for seed in range(100):
            p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 1.0, 3.0, seed)
            for idx in range(len(p.events)):
                _, pop, _ = p.state_after_event(idx, m)
                assert is_antichain(pop.keys())

    def test_children_born_at_death_position(self):
        m = make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0,
                       mean_bound=2.0)
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.1, 1.5, seed=11)
        for idx, ev in enumerate(p.events):
            if ev.kind != "branch":
                continue
            _, pop, _ = p.state_after_event(idx, m)
            for child_idx in range(ev.n_children):
                child = ev.label + (child_idx,)
                np.testing.assert_array_equal(pop[child], ev.position)

    def test_trajectories_continuous_across_segments(self):
        m = make_model(sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.3, p1=0.1,
                       mean_bound=1.5)
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 2.0, seed=5)
        for lab in {ev.label for ev in p.events} | set(p.final):
            try:
                ts, xs = p.trajectory(lab)
            except KeyError:
                continue
            assert np.all(np.diff(ts) >= 0)
            assert np.isfinite(xs).all()

    def test_explosion_guard(self):
        boom = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0,
                          mean_bound=2.0)
        with pytest.raises(ExplosionGuardError) as err:
            simulate(0.0, ROOT_START, ConstantPolicy(0), boom, 1.0, 40.0,
                     seed=1, population_cap=64)
        assert err.value.population > 64


class TestThinning:
    def test_all_marks_phantom_when_rate_zero(self):
        m = make_model(gamma=0.0, rate_bound=2.0, p0=0.5)
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 1.0, 20.0, seed=4)
        assert p.events and all(ev.kind == "phantom" for ev in p.events)

    def test_interevent_gaps_exponential_chisquare(self):
        # population pinned at one particle; ring gaps are iid Exp(rate_bound)
        m = make_model(gamma=0.0, rate_bound=2.0, p0=0.5)
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 10.0, 600.0, seed=12)
        times = np.array([ev.time for ev in p.events])
        gaps = np.diff(np.concatenate(([0.0], times)))
        n_bins = 10
        qs = np.arange(1, n_bins) / n_bins
        edges = -np.log1p(-qs) / 2.0
        counts = np.histogram(gaps, bins=np.concatenate(([0], edges, [np.inf])))[0]
        expected = len(gaps) / n_bins
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < 21.67  # chi-square 99th percentile, 9 degrees of freedom

    def test_marks_lie_in_rate_band(self):
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), CRITICAL_BINARY,
                     1.0, 2.0, seed=9)
        for ev in p.events:
            assert 0.0 <= ev.mark <= 1.0


class TestDeterminism:
    def test_bit_identical_rerun(self):
        m = make_model(b=0.1, sigma=0.4, gamma=0.7, rate_bound=1.0, p0=0.3,
                       p1=0.2, c=0.2, mean_bound=1.2)
        a = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 2.0, seed=21)
        b = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 2.0, seed=21)
        assert a.equals(b)

    def test_different_seeds_differ(self):
        m = make_model(sigma=0.4)
        a = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.1, 1.0, seed=1)
        b = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.1, 1.0, seed=2)
        assert not a.equals(b)

    def test_single_control_feedback_equals_constant(self):
        m = make_model(b=0.2, sigma=0.5, gamma=0.6, rate_bound=1.0, p0=0.4,
                       p1=0.1, c=0.1, mean_bound=1.1,
                       g=M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                           amplitude=0.8, center=(0.0,),
                                           width=1.0))
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81, n_t=1, horizon=1.0)
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81,
                             n_t=hjb.required_time_steps_for(m, cfg), horizon=1.0)
        feedback = hjb.extract_feedback(hjb.solve(m, cfg))
        a = simulate(0.0, ROOT_START, feedback, m, 0.05, 1.0, seed=33)
        b = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 1.0, seed=33)
        assert a.equals(b)


FOUNDERS = {(i,): np.array([0.25 * i - 0.5]) for i in range(6)}


def event_digest(path):
    h = hashlib.sha256()
    for ev in path.events:
        h.update(f"{ev.time.hex()} {ev.label} {ev.kind} {ev.n_children} "
                 f"{ev.mark.hex()}\n".encode())
    return h.hexdigest()[:16]


def own_grid_steps(path, step):
    """Euler steps each particle takes on its own grid, rebuilt from the event
    log: its lifespan cut at its own rings, each piece on the global grid."""
    birth = {lab: path.start_time for lab in path.initial}
    cuts = {lab: [] for lab in path.initial}
    for ev in path.events:
        cuts[ev.label].append(ev.time)
        for child in [ev.label + (i,) for i in range(ev.n_children)]:
            birth[child] = ev.time
            cuts[child] = []
    steps = {}
    for lab, t_birth in birth.items():
        ends = cuts[lab] if lab not in path.final else cuts[lab] + [path.horizon]
        points = [t_birth] + ends
        steps[lab] = sum(len(particle_grid(path.start_time, a, b, step)) - 1
                         for a, b in zip(points, points[1:]))
    return steps


class TestParticleLocalStepping:
    # state-independent rates and offspring: the event log depends on the
    # event streams alone, so these digests, recorded from the lockstep
    # engine this one replaced, pin the order in which the streams are read
    PINNED = {
        "critical": ["40eb66ef17197dd1", "018dc13a3dae7ea6", "6c82d33c79232398",
                     "8f1ec5bac830b05d"],
        "thinned": ["1cbc1b6ced342c98", "9b8a901cc86320c3", "0da42f48e04c6316",
                    "cfbeaefefb1f433a"],
    }
    MODELS = {
        "critical": make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.5),
        "thinned": make_model(b=0.3, sigma=0.4, gamma=1.0, rate_bound=1.5,
                              p0=0.3, p1=0.2, mean_bound=1.2),
    }

    @pytest.mark.parametrize("name", ["critical", "thinned"])
    def test_event_log_pinned(self, name):
        for seed, want in enumerate(self.PINNED[name]):
            p = simulate(0.0, FOUNDERS, ConstantPolicy(0), self.MODELS[name],
                         0.1, 3.0, seed, record_paths=False)
            assert event_digest(p) == want, seed

    def test_sibling_leaves_particle_path_unchanged(self):
        logistic = M.VectorSpec((M.CoefficientSpec(
            family="logistic", slope=(3.0,), center=(0.2,), lo=-1.0, hi=1.0),))
        m = M.ModelParams(
            dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
            drift=(logistic,), diffusion=(M.constant_vector([0.5]),),
            death_rate=(M.constant(0.0),),
            offspring=((M.constant(0.5), M.constant(0.0)),),
            running_cost=(M.constant(0.0),), terminal=M.constant(0.5),
            rate_bound=2.0, mean_offspring_bound=1.0, max_children=2)
        alone = {(0,): np.zeros(1)}
        pair = {(0,): np.zeros(1), (1,): np.array([0.7])}
        sibling_rang = 0
        for seed in range(50):
            a = simulate(0.0, alone, ConstantPolicy(0), m, 0.1, 1.0, seed)
            b = simulate(0.0, pair, ConstantPolicy(0), m, 0.1, 1.0, seed)
            sibling_rang += any(ev.label == (1,) for ev in b.events)
            np.testing.assert_array_equal(a.final[(0,)], b.final[(0,)])
            assert a.tracks[(0,)].equals(b.tracks[(0,)])
        assert sibling_rang >= 30

    @pytest.mark.parametrize("name", ["critical", "thinned"])
    def test_counter_identities(self, name):
        m = self.MODELS[name]
        for seed in range(20):
            p = simulate(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 3.0, seed)
            kinds = [ev.kind for ev in p.events]
            assert len(p.events) == (kinds.count("phantom") + kinds.count("death")
                                     + kinds.count("branch"))
            assert len(p.final) == (len(p.initial) - kinds.count("death")
                                    + sum(ev.n_children - 1 for ev in p.events
                                          if ev.kind == "branch"))
            steps = own_grid_steps(p, 0.1)
            assert set(steps) == set(p.tracks)
            for lab, track in p.tracks.items():
                assert len(track.times) - 1 == steps[lab], (seed, lab)
            assert p.n_steps == sum(steps.values())

    def test_ring_free_steps_per_founder(self):
        m = make_model(b=0.2, sigma=0.3)
        for t, horizon, step in ((0.0, 3.0, 0.1), (0.1, 1.0, 0.2), (0.0, 0.6, 0.05),
                                 (0.3, 2.0, 0.07)):
            p = simulate(t, FOUNDERS, ConstantPolicy(0), m, step, horizon, seed=1,
                         record_paths=False)
            assert p.n_steps == len(FOUNDERS) * math.ceil((horizon - t) / step)

    def test_own_grid_is_global_grid_plus_rings(self):
        m = self.MODELS["thinned"]
        p = simulate(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 3.0, seed=2)
        for lab, track in p.tracks.items():
            rings = {ev.time for ev in p.events if ev.label == lab}
            born = track.times[0]
            inner = [t for t in track.times[1:-1] if t not in rings]
            k = np.rint(np.array(inner) / 0.1)
            np.testing.assert_array_equal(np.array(inner), 0.1 * k)
            assert born == 0.0 or any(ev.time == born for ev in p.events)

    def test_snapshot_cost_is_population_time(self):
        # unit running cost: the cost integral up to an event is the
        # population-time integral, exact under the left-endpoint rule
        m = make_model(sigma=0.3, gamma=1.0, rate_bound=1.0, p0=0.4, p1=0.1,
                       c=1.0, mean_bound=1.2)
        for seed in range(20):
            p = simulate(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 2.0, seed)
            area, last, n = 0.0, 0.0, len(FOUNDERS)
            for idx, ev in enumerate(p.events):
                area += n * (ev.time - last)
                last, n = ev.time, ev.pop_size_after
                tau, pop, cost = p.state_after_event(idx, m)
                assert tau == ev.time
                assert len(pop) == ev.pop_size_after
                assert cost == pytest.approx(area, rel=1e-12, abs=1e-12)

    def test_snapshot_bridge_law(self):
        # two driftless founders at the origin, pure death: at the first
        # death the survivor sits inside a coarse Euler step, and its bridged
        # position must be N(0, sigma^2 tau)
        sigma = 0.5
        m = make_model(sigma=sigma, gamma=1.0, rate_bound=1.0, p0=1.0)
        zs = []
        for seed in range(2000):
            p = simulate(0.0, {(0,): X0, (1,): X0}, ConstantPolicy(0), m, 0.5,
                         3.0, seed)
            if not p.events:
                continue
            tau, pop, _ = p.state_after_event(0, m)
            again = p.state_after_event(0, m)[1]
            (lab, x), = pop.items()
            np.testing.assert_array_equal(x, again[lab])
            assert p.tracks[lab].times[0] == 0.0
            zs.append(x[0] / (sigma * math.sqrt(tau)))
        zs = np.array(zs)
        n = len(zs)
        assert abs(zs.mean()) < 4.0 / math.sqrt(n)
        assert abs(zs.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_non_finite_position_raises(self):
        m = make_model(sigma=0.3, affine_drift=(0.0, -200.0))
        with pytest.raises(NumericalFailureError, match="non-finite position"):
            simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.05, 20.0, seed=1,
                     record_paths=False)


class TestPathwiseCost:
    def test_extinct_empty_product_is_one(self):
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), PURE_DEATH, 1.0, 50.0,
                     seed=2)
        assert p.extinct
        assert pathwise_cost(p, PURE_DEATH) == 1.0

    def test_single_survivor_terminal_cost(self):
        m = make_model(g=M.constant(0.3))
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.5, 1.0, seed=0)
        assert pathwise_cost(p, m) == pytest.approx(0.3)

    def test_unit_running_cost_discount(self):
        m = make_model(c=1.0, g=M.constant(1.0))
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.25, 2.0, seed=0)
        assert pathwise_cost(p, m) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_log_form_trivial(self):
        m = make_model(g=M.constant(1.0))
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.5, 1.0, seed=0)
        assert pathwise_cost_log_form(p, m) == pytest.approx(1.0)

    def test_log_form_half(self):
        m = make_model(g=M.constant(0.5))
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.5, 1.0, seed=0)
        assert pathwise_cost_log_form(p, m) == pytest.approx(0.5, rel=1e-12)

    def test_log_form_matches_product_form_on_random_paths(self):
        m = make_model(b=0.1, sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.3,
                       p1=0.1, c=0.3, mean_bound=1.3,
                       g=M.CoefficientSpec(family="gaussian-bump", offset=0.2,
                                           amplitude=0.6, center=(0.0,),
                                           width=1.0))
        for seed in range(300):
            p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.1, 2.0, seed,
                         record_paths=False)
            a = pathwise_cost(p, m)
            b = pathwise_cost_log_form(p, m)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)

    def test_log_form_rejects_zero_terminal(self):
        m = make_model(g=M.constant(0.0))
        p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            pathwise_cost_log_form(p, m)


class TestInputChecks:
    def test_bad_step_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate(0.0, ROOT_START, ConstantPolicy(0), PURE_DEATH, 0.0, 1.0, 1)

    def test_start_after_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate(2.0, ROOT_START, ConstantPolicy(0), PURE_DEATH, 0.1, 1.0, 1)

    def test_non_antichain_initials_rejected(self):
        with pytest.raises(ValueError):
            simulate(0.0, {(): X0, (0,): X0}, ConstantPolicy(0), PURE_DEATH,
                     0.1, 1.0, 1)

    def test_open_loop_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            OpenLoopPolicy(([0.0, 0.0], [0, 1]))


def test_open_loop_policy_lookup():
    pol = OpenLoopPolicy(([0.0, 0.5], [0, 1]))
    assert pol.control_at(0.0, X0, ()) == 0
    assert pol.control_at(0.49, X0, ()) == 0
    assert pol.control_at(0.5, X0, ()) == 1
    assert pol.control_at(2.0, X0, ()) == 1
    np.testing.assert_array_equal(
        pol.controls_along(np.array([0.1, 0.6]), np.zeros((2, 1)), ()),
        [0, 1])


def test_write_path_csv(tmp_path):
    m = make_model(sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                   mean_bound=1.1, g=M.constant(0.5))
    p = simulate(0.0, ROOT_START, ConstantPolicy(0), m, 0.1, 2.0, seed=8)
    out = tmp_path / "path.csv"
    with open(out, "w", newline="") as fh:
        write_path_csv(p, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,label,event,mark,x0"
    assert len(lines) == 1 + len(p.events) + len(p.final)
