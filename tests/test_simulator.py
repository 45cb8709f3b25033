import dataclasses
import hashlib
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdiff import hjb, model as M
from branchdiff.errors import (ConfigurationError, ExplosionGuardError,
                               NumericalFailureError)
from branchdiff.labels import is_antichain
from branchdiff.modelio import load_model
from branchdiff.rng import RandomDriver
from branchdiff.simulator import (
    ConstantPolicy,
    OpenLoopPolicy,
    grid_times,
    particle_grid,
    pathwise_cost,
    pathwise_cost_log_form,
    prepare_simulation,
    simulate,
    write_path_csv,
)
from model_cases import two_control_motion
from path_equality import paths_equal, tracks_equal

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


def root_setup(m, step, horizon, **kwargs):
    """The set-up of one founder at the origin at time 0, under control 0."""
    return prepare_simulation(0.0, ROOT_START, ConstantPolicy(0), m, step, horizon,
                              **kwargs)


class TestSingleDiffusion:
    def test_no_branching_single_particle(self):
        m = make_model(b=0.2, sigma=0.5, gamma=0.0, rate_bound=1.0, p0=0.5)
        path = simulate(root_setup(m, 0.05, 1.0), 3)
        assert all(ev.kind == "phantom" for ev in path.events)
        assert set(path.final) == {()}
        assert path.sup_population == 1

    def test_endpoint_matches_manual_euler_maruyama(self):
        # state-dependent drift forces the sequential stepping path; replay
        # the left-endpoint recursion on the same stream, bit for bit
        m = make_model(sigma=0.3, affine_drift=(0.1, -0.5))
        h, horizon, seed = 0.1, 1.0, 77
        path = simulate(root_setup(m, h, horizon), seed)
        grid = particle_grid(0.0, horizon, h, grid_times(0.0, horizon, h))
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
            p = simulate(root_setup(m, 0.25, 1.0), seed, record_paths=False)
            ends.append(p.final[()][0])
        ends = np.array(ends)
        assert abs(ends.mean() - 0.3) < 4 * 0.7 / math.sqrt(len(ends))
        assert abs(ends.std() - 0.7) < 0.03

    def test_ode_accuracy_improves_with_step(self):
        m = make_model(affine_drift=(1.0, -1.0))  # x' = 1 - x, x(0)=0
        exact = 1.0 - math.exp(-1.0)
        errs = []
        for h in (0.2, 0.05):
            p = simulate(root_setup(m, h, 1.0), 0)
            errs.append(abs(p.final[()][0] - exact))
        assert errs[1] < errs[0]
        assert errs[1] < 0.02


class TestBranchingLaw:
    def test_pure_death_extinction_fraction(self):
        n = 20000
        extinct = sum(
            simulate(root_setup(PURE_DEATH, 1.0, 1.0), seed, record_paths=False).extinct
            for seed in range(n))
        target = 1.0 - math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(extinct / n - target) <= 3 * se

    def test_critical_binary_extinction_fraction(self):
        n = 20000
        extinct = sum(
            simulate(root_setup(CRITICAL_BINARY, 2.0, 2.0), seed,
                     record_paths=False).extinct
            for seed in range(n))
        se = math.sqrt(0.25 / n)
        assert abs(extinct / n - 0.5) <= 3 * se

    def test_moment_bound(self):
        m = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0, mean_bound=2.0)
        sups = [simulate(root_setup(m, 1.0, 1.0), seed, record_paths=False).sup_population
                for seed in range(2000)]
        sups = np.array(sups, dtype=float)
        bound = math.exp(1.0 * 2.0 * 1.0)
        assert sups.mean() <= bound + 3 * sups.std(ddof=1) / math.sqrt(len(sups))

    def test_population_changes_by_children_minus_one(self):
        sizes = {(): 1}
        for seed in range(200):
            p = simulate(root_setup(CRITICAL_BINARY, 2.0, 2.0), seed)
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
            p = simulate(root_setup(m, 1.0, 3.0), seed)
            for idx in range(len(p.events)):
                _, pop, _ = p.state_after_event(idx, m)
                assert is_antichain(pop.keys())

    def test_children_born_at_death_position(self):
        m = make_model(sigma=0.4, gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0,
                       mean_bound=2.0)
        p = simulate(root_setup(m, 0.1, 1.5), 11)
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
        p = simulate(root_setup(m, 0.05, 2.0), 5)
        for lab in {ev.label for ev in p.events} | set(p.final):
            ts, xs = p.tracks[lab].times, p.tracks[lab].positions
            assert np.all(np.diff(ts) >= 0)
            assert np.isfinite(xs).all()

    def test_explosion_guard(self):
        boom = make_model(gamma=1.0, rate_bound=1.0, p0=0.0, p1=0.0,
                          mean_bound=2.0)
        with pytest.raises(ExplosionGuardError) as err:
            simulate(root_setup(boom, 1.0, 40.0, population_cap=64), 1)
        assert err.value.population > 64


class TestThinning:
    def test_all_marks_phantom_when_rate_zero(self):
        m = make_model(gamma=0.0, rate_bound=2.0, p0=0.5)
        p = simulate(root_setup(m, 1.0, 20.0), 4)
        assert p.events and all(ev.kind == "phantom" for ev in p.events)

    def test_interevent_gaps_exponential_chisquare(self):
        # population pinned at one particle; ring gaps are iid Exp(rate_bound)
        m = make_model(gamma=0.0, rate_bound=2.0, p0=0.5)
        p = simulate(root_setup(m, 10.0, 600.0), 12)
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
        p = simulate(root_setup(CRITICAL_BINARY, 1.0, 2.0), 9)
        for ev in p.events:
            assert 0.0 <= ev.mark <= 1.0


class TestDeterminism:
    def test_bit_identical_rerun(self):
        m = make_model(b=0.1, sigma=0.4, gamma=0.7, rate_bound=1.0, p0=0.3,
                       p1=0.2, c=0.2, mean_bound=1.2)
        a = simulate(root_setup(m, 0.05, 2.0), 21)
        b = simulate(root_setup(m, 0.05, 2.0), 21)
        assert paths_equal(a, b)

    def test_different_seeds_differ(self):
        m = make_model(sigma=0.4)
        a = simulate(root_setup(m, 0.1, 1.0), 1)
        b = simulate(root_setup(m, 0.1, 1.0), 2)
        assert not paths_equal(a, b)

    @pytest.mark.parametrize("c", [0.0, 0.2])
    def test_recording_changes_no_number(self, c):
        """Unrecorded paths of constant-coefficient motion compute only each
        advance's end position and step costs; they equal the recorded paths
        bit for bit, from several founders, starts off the grid and a step
        that does not divide the horizon."""
        m = make_model(b=0.1, sigma=0.4, gamma=0.9, rate_bound=1.2, p0=0.3,
                       p1=0.2, c=c, mean_bound=1.2)
        setup = prepare_simulation(0.13, FOUNDERS, ConstantPolicy(0), m, 0.07, 1.6)
        for seed in range(20):
            recorded = simulate(setup, seed)
            assert paths_equal(simulate(setup, seed, record_paths=False),
                               dataclasses.replace(recorded, tracks=None))

    def test_single_control_feedback_equals_constant(self):
        m = make_model(b=0.2, sigma=0.5, gamma=0.6, rate_bound=1.0, p0=0.4,
                       p1=0.1, c=0.1, mean_bound=1.1,
                       g=M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                           amplitude=0.8, center=(0.0,),
                                           width=1.0))
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81, n_t=1, horizon=1.0)
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81,
                             n_t=hjb.required_time_steps_for(m, cfg), horizon=1.0)
        feedback = hjb.FeedbackPolicy(hjb.solve(m, cfg))
        a = simulate(prepare_simulation(0.0, ROOT_START, feedback, m, 0.05, 1.0), 33)
        b = simulate(root_setup(m, 0.05, 1.0), 33)
        assert paths_equal(a, b)


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
        steps[lab] = sum(len(particle_grid(a, b, step,
                                           grid_times(path.start_time, b, step))) - 1
                         for a, b in zip(points, points[1:]))
    return steps


@st.composite
def grid_intervals(draw):
    """(t0, step, horizon, start, end): steps that divide the horizons and 1/3,
    which does not; each of the horizon and the ends on a global grid point,
    within 0.5e-9 or 2e-9 steps of one or between two, and start = end in a
    fifth of the draws."""
    t0 = draw(st.sampled_from((0.0, 0.3, -1.0)))
    step = draw(st.sampled_from((0.05, 0.02, 0.1, 0.5, 1 / 3)))
    offsets = st.one_of(st.sampled_from((0.0, 0.5e-9, -0.5e-9, 2e-9, -2e-9)),
                        st.floats(0.0, 1.0))

    def near(k):
        return t0 + step * k + step * draw(offsets)

    n = draw(st.integers(0, 40))
    horizon = max(t0, near(n))
    i = draw(st.integers(0, n))
    start = min(max(t0, near(i)), horizon)
    end = start if draw(st.integers(0, 4)) == 0 else min(max(start, near(
        draw(st.integers(i, n)))), horizon)
    return t0, step, horizon, start, end


@settings(max_examples=400, deadline=None)
@given(grid_intervals())
def test_particle_grid_matches_brute_force(case):
    """The global grid holds the points t0 + step*k short of the horizon by
    more than 1e-9 steps; a particle grid has both ends exact and, between
    them, the global points farther than 1e-9 steps from either end."""
    t0, step, horizon, start, end = case
    tol = 1e-9 * step
    points = [t0 + step * k for k in range(int((horizon - t0) / step) + 3)]
    times = grid_times(t0, horizon, step)
    assert times.tolist() == [p for p in points if p < horizon - tol]
    grid = particle_grid(start, end, step, times)
    assert (grid[0].hex(), grid[-1].hex()) == (start.hex(), end.hex())
    assert grid[1:-1].tolist() == [p for p in points if start + tol < p < end - tol]


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
        setup = prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), self.MODELS[name],
                                   0.1, 3.0)
        for seed, want in enumerate(self.PINNED[name]):
            p = simulate(setup, seed, record_paths=False)
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
        setup_alone = prepare_simulation(0.0, alone, ConstantPolicy(0), m, 0.1, 1.0)
        setup_pair = prepare_simulation(0.0, pair, ConstantPolicy(0), m, 0.1, 1.0)
        for seed in range(50):
            a = simulate(setup_alone, seed)
            b = simulate(setup_pair, seed)
            sibling_rang += any(ev.label == (1,) for ev in b.events)
            np.testing.assert_array_equal(a.final[(0,)], b.final[(0,)])
            assert tracks_equal(a.tracks[(0,)], b.tracks[(0,)])
        assert sibling_rang >= 30

    @pytest.mark.parametrize("name", ["critical", "thinned"])
    def test_counter_identities(self, name):
        setup = prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), self.MODELS[name],
                                   0.1, 3.0)
        for seed in range(20):
            p = simulate(setup, seed)
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
            setup = prepare_simulation(t, FOUNDERS, ConstantPolicy(0), m, step, horizon)
            p = simulate(setup, 1, record_paths=False)
            assert p.n_steps == len(FOUNDERS) * math.ceil((horizon - t) / step)

    def test_own_grid_is_global_grid_plus_rings(self):
        m = self.MODELS["thinned"]
        p = simulate(prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 3.0), 2)
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
        setup = prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 2.0)
        for seed in range(20):
            p = simulate(setup, seed)
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
        setup = prepare_simulation(0.0, {(0,): X0, (1,): X0}, ConstantPolicy(0), m,
                                   0.5, 3.0)
        for seed in range(2000):
            p = simulate(setup, seed)
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
            simulate(root_setup(m, 0.05, 20.0), 1, record_paths=False)

    def test_recorded_path_checks_every_position(self):
        # the Brownian sum leaves the float range at time 0.8 and returns by
        # the end; a recorded track would store the overflowed position
        m = make_model(sigma=1e308)
        end = simulate(root_setup(m, 0.1, 1.0), 4, record_paths=False).final[()]
        assert np.isfinite(end).all()
        with pytest.raises(NumericalFailureError,
                           match=r"non-finite position \[-inf\] at time 0\.8,"):
            simulate(root_setup(m, 0.1, 1.0), 4, record_paths=True)

    @pytest.mark.parametrize("cost", [
        M.constant(math.inf),
        M.CoefficientSpec(family="gaussian-bump", offset=1e308, amplitude=1e308,
                          center=(0.0,), width=1.0)])
    def test_non_finite_running_cost_raises(self, cost):
        # position-free and position-dependent costs alike: the first step
        # cost is inf, at the founder's position
        m = dataclasses.replace(make_model(sigma=0.3), running_cost=(cost,))
        for record in (False, True):
            with pytest.raises(NumericalFailureError) as info:
                simulate(root_setup(m, 0.05, 1.0), 1, record_paths=record)
            assert str(info.value) == ("particle (root) has the non-finite running "
                                       "cost inf over the Euler step from time 0.0 "
                                       "at position [0.0]")


class TestPathwiseCost:
    def test_extinct_empty_product_is_one(self):
        p = simulate(root_setup(PURE_DEATH, 1.0, 50.0), 2)
        assert p.extinct
        assert pathwise_cost(p, PURE_DEATH) == 1.0

    def test_single_survivor_terminal_cost(self):
        m = make_model(g=M.constant(0.3))
        p = simulate(root_setup(m, 0.5, 1.0), 0)
        assert pathwise_cost(p, m) == pytest.approx(0.3)

    def test_unit_running_cost_discount(self):
        m = make_model(c=1.0, g=M.constant(1.0))
        p = simulate(root_setup(m, 0.25, 2.0), 0)
        assert pathwise_cost(p, m) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_log_form_trivial(self):
        m = make_model(g=M.constant(1.0))
        p = simulate(root_setup(m, 0.5, 1.0), 0)
        assert pathwise_cost_log_form(p, m) == pytest.approx(1.0)

    def test_log_form_half(self):
        m = make_model(g=M.constant(0.5))
        p = simulate(root_setup(m, 0.5, 1.0), 0)
        assert pathwise_cost_log_form(p, m) == pytest.approx(0.5, rel=1e-12)

    def test_log_form_matches_product_form_on_random_paths(self):
        m = make_model(b=0.1, sigma=0.4, gamma=0.8, rate_bound=1.0, p0=0.3,
                       p1=0.1, c=0.3, mean_bound=1.3,
                       g=M.CoefficientSpec(family="gaussian-bump", offset=0.2,
                                           amplitude=0.6, center=(0.0,),
                                           width=1.0))
        for seed in range(300):
            p = simulate(root_setup(m, 0.1, 2.0), seed, record_paths=False)
            a = pathwise_cost(p, m)
            b = pathwise_cost_log_form(p, m)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)

    def test_log_form_rejects_zero_terminal(self):
        m = make_model(g=M.constant(0.0))
        p = simulate(root_setup(m, 0.5, 1.0), 0)
        with pytest.raises(ValueError):
            pathwise_cost_log_form(p, m)


class TestInputChecks:
    def test_bad_step_rejected(self):
        with pytest.raises(ConfigurationError):
            root_setup(PURE_DEATH, 0.0, 1.0)

    def test_start_after_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            prepare_simulation(2.0, ROOT_START, ConstantPolicy(0), PURE_DEATH, 0.1, 1.0)

    def test_non_antichain_initials_rejected(self):
        with pytest.raises(ValueError):
            prepare_simulation(0.0, {(): X0, (0,): X0}, ConstantPolicy(0), PURE_DEATH,
                               0.1, 1.0)

    def test_open_loop_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            OpenLoopPolicy(([0.0, 0.0], [0, 1]))


class TestSimulationSetup:
    m = make_model(b=0.2, sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                   c=0.2, mean_bound=1.1)

    def inputs(self):
        return (0.0, dict(FOUNDERS), ConstantPolicy(0), self.m, 0.1, 1.0)

    def test_shared_and_fresh_setup_give_same_path(self):
        shared = prepare_simulation(*self.inputs())
        for seed in range(5):
            for record in (False, True):
                a = simulate(prepare_simulation(*self.inputs()), seed, record_paths=record)
                b = simulate(shared, seed, record_paths=record)
                assert paths_equal(a, b)

    def test_arrays_read_only_and_callers_untouched(self):
        args = self.inputs()
        setup = prepare_simulation(*args)
        for copy in (setup, pickle.loads(pickle.dumps(setup))):
            arrays = [*copy.initial.values(), copy.plan.b_const, copy.plan.sig_const,
                      copy.times, copy.cost_rates]
            arrays += [bounds for _, bounds in copy.static_geom.values()]
            assert arrays and not any(a.flags.writeable for a in arrays)
        assert all(x.flags.writeable for x in args[1].values())
        path = simulate(setup, 3)
        assert all(x.flags.writeable for x in path.initial.values())
        assert all(x.flags.writeable for x in path.final.values())


class TestConstantValueRules:
    """The set-up reads constant coefficients by value: a logistic of slope
    0 with lo = -hi is exactly 0.0, so its diffusion draws no noise and its
    running cost is free, and its paths are those of the constant 0."""

    @staticmethod
    def flat_zero(half_width):
        return M.CoefficientSpec(family="logistic", lo=-half_width, hi=half_width,
                                 slope=(0.0,), center=(0.3,))

    def models(self):
        zero = make_model(b=0.2, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                          mean_bound=1.1)
        flat = dataclasses.replace(zero, diffusion=(M.VectorSpec((self.flat_zero(0.2),)),),
                                   running_cost=(self.flat_zero(0.1),))
        return zero, flat

    def test_flat_zero_draws_no_noise_and_costs_nothing(self):
        for m in self.models():
            setup = prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 1.0)
            assert setup.plan.draw_noise is False and setup.cost_free is True

    def test_paths_equal_constant_zero_paths(self):
        setups = [prepare_simulation(0.0, FOUNDERS, ConstantPolicy(0), m, 0.1, 1.0)
                  for m in self.models()]
        for seed in range(20):
            for record in (False, True):
                zero, flat = (simulate(s, seed, record_paths=record) for s in setups)
                assert paths_equal(zero, flat)


class TestStreamTable:
    """A set-up serves its founders' and first generation's streams from a
    table, under any seed; every path is the same as without."""

    MODELS = Path(__file__).resolve().parents[1] / "configs" / "models"

    @pytest.mark.parametrize("name", ["critical_binary", "subcritical_drift",
                                      "two_control_harvest"])
    def test_paths_equal_setup_free_paths(self, name):
        m = load_model(self.MODELS / f"{name}.yaml")
        for founders in (ROOT_START, FOUNDERS):
            tabled = prepare_simulation(0.0, founders, ConstantPolicy(0), m, 0.05, 1.5)
            plain = dataclasses.replace(tabled, streams=None)
            founder_depth = len(next(iter(founders)))
            deepest = 0
            for seed in [*range(3, 43), 0, 2, 10**6, 2**40, -3]:
                a = simulate(plain, seed)
                b = simulate(tabled, seed)
                assert paths_equal(a, b)
                deepest = max(deepest, *(len(lab) - founder_depth for lab in a.tracks))
            assert deepest >= 2     # labels beyond the tabled generation

    def test_pickled_setup_carries_no_block(self):
        args = (0.0, dict(FOUNDERS), ConstantPolicy(0),
                TestSimulationSetup.m, 0.1, 1.0)
        setup = prepare_simulation(*args)
        before = pickle.dumps(setup)
        simulate(setup, 100)
        assert setup.streams._block is not None
        assert pickle.dumps(setup) == before
        copy = pickle.loads(before)
        assert copy.streams._block is None
        plain = dataclasses.replace(setup, streams=None)
        assert paths_equal(simulate(copy, 150), simulate(plain, 150))


def test_open_loop_policy_lookup():
    pol = OpenLoopPolicy(([0.0, 0.5], [0, 1]))
    for t, want in ((0.0, 0), (0.49, 0), (0.5, 1), (2.0, 1)):
        assert pol.controls_along(np.array([t]), X0[None], ())[0] == want
    # the first control also applies before the first switch time
    late = OpenLoopPolicy(([0.3, 0.6], [1, 0]))
    for t, want in ((0.1, 1), (0.3, 1), (0.59, 1), (0.6, 0), (2.0, 0)):
        assert late.controls_along(np.array([t]), X0[None], ())[0] == want
    np.testing.assert_array_equal(
        pol.controls_along(np.array([0.1, 0.6]), np.zeros((2, 1)), ()),
        [0, 1])


def track_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        for lab in sorted(p.tracks):
            tr = p.tracks[lab]
            for arr in (tr.times, tr.positions, tr.controls, tr.cost_cum):
                h.update(arr.tobytes())
        h.update(p.cost_integral.hex().encode())
    return h.hexdigest()[:16]


class PerLabelSchedule:
    """Open-loop schedules that differ by label: a label with its own
    schedule follows it, every other label the default one."""

    control = None

    def __init__(self, default, per_label):
        self.default = OpenLoopPolicy(default)
        self.per_label = {lab: OpenLoopPolicy(s) for lab, s in per_label.items()}

    def controls_along(self, times, xs, label):
        return self.per_label.get(label, self.default).controls_along(times, xs, label)


class TestControlDependentMotion:
    # recorded from the engine that asked the policy one point at a time
    # through a separate per-point method, over seeds 0..19
    PINNED = {"open_loop": "1aba6e5a9b355e1f", "feedback": "d2264babbe4dd8dd"}

    @staticmethod
    def policy(name, m):
        if name == "open_loop":
            return PerLabelSchedule(([0.0, 0.4], [1, 0]), {(0,): ([0.0, 0.7], [0, 1])})
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81, n_t=1, horizon=1.0)
        cfg = hjb.GridConfig(x_lo=-4, x_hi=4, n_x=81,
                             n_t=hjb.required_time_steps_for(m, cfg), horizon=1.0)
        return hjb.FeedbackPolicy(hjb.solve(m, cfg))

    @pytest.mark.parametrize("name", ["open_loop", "feedback"])
    def test_tracks_pinned(self, name):
        m = two_control_motion()
        setup = prepare_simulation(0.0, ROOT_START, self.policy(name, m), m, 0.05, 1.0)
        paths = [simulate(setup, seed) for seed in range(20)]
        used = {int(a) for p in paths for tr in p.tracks.values() for a in tr.controls}
        assert used == {0, 1}
        assert track_digest(paths) == self.PINNED[name]


def test_write_path_csv(tmp_path):
    m = make_model(sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1,
                   mean_bound=1.1, g=M.constant(0.5))
    p = simulate(root_setup(m, 0.1, 2.0), 8)
    out = tmp_path / "path.csv"
    with open(out, "w", newline="") as fh:
        write_path_csv(p, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,label,event,mark,x0"
    assert len(lines) == 1 + len(p.events) + len(p.final)
