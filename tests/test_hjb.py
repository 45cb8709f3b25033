import copy
import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdiff import estimator, hjb, model as M
from branchdiff.errors import ConfigurationError, NumericalFailureError
from branchdiff.modelio import load_model
from branchdiff.simulator import OpenLoopPolicy, prepare_simulation, simulate
from model_cases import (coefficient_models, costless_motion, deathless, driftless_two_control,
                         far_bump_two_control, opposite_drifts, shared_drift_two_control,
                         single_control, state_dependent_two_control, still_two_control,
                         transport_two_control, two_dim_two_control)

MODELS = Path(__file__).resolve().parents[1] / "configs" / "models"

X0 = np.zeros(1)


def two_control(c0=1.0, c1=2.0, **kw):
    base = single_control(**kw)
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=base.drift * 2, diffusion=base.diffusion * 2,
        death_rate=base.death_rate * 2, offspring=base.offspring * 2,
        running_cost=(M.constant(c0), M.constant(c1)),
        terminal=base.terminal, rate_bound=base.rate_bound,
        mean_offspring_bound=base.mean_offspring_bound, max_children=2,
    )


def grid_for(params, x_lo, x_hi, n_x, horizon, refine=1.0):
    cfg = hjb.GridConfig(x_lo=x_lo, x_hi=x_hi, n_x=n_x, n_t=1, horizon=horizon)
    n_t = max(1, int(math.ceil(hjb.required_time_steps_for(params, cfg) * refine)))
    return hjb.GridConfig(x_lo=x_lo, x_hi=x_hi, n_x=n_x, n_t=n_t, horizon=horizon)


CRITICAL = single_control(gamma=1.0, rate_bound=1.0, p0=0.5, p1=0.0)


def generator_at(m, r, p=0.0, m2=0.0):
    """Generator values of every control at X0, stacked (n_controls,)."""
    vals = M.generator(m.coefficients(X0[None, :]), np.array([r]), np.array([[p]]),
                       np.array([[[m2]]]))
    return np.broadcast_to(vals, (len(m.controls), 1))[:, 0]


def hamiltonian(m, r, p, m2):
    """Minimum over the controls of the generator at X0, and the minimizing
    index (lowest index wins ties)."""
    vals = generator_at(m, r, p, m2)
    return vals.min(), int(np.argmin(vals))


class TestZeroOrderTerm:
    # b = sigma = c = 0, so the generator is its zero-order branching term
    def test_vanishes_at_one(self):
        m = single_control(gamma=0.7, rate_bound=1.0, p0=0.3, p1=0.2,
                           mean_bound=1.2)
        assert generator_at(m, 1.0)[0] == 0.0

    def test_hand_value(self):
        got = generator_at(CRITICAL, 0.5)[0]
        assert got == pytest.approx(0.125, abs=1e-15)

    def test_clamps_above_one(self):
        m = single_control(gamma=0.7, rate_bound=1.0, p0=0.3, p1=0.2,
                           mean_bound=1.2)
        assert generator_at(m, 2.0)[0] == generator_at(m, 1.0)[0]


class TestHamiltonian:
    def test_all_zero_ties_to_lowest_index(self):
        m = two_control(c0=0.0, c1=0.0)
        val, a = hamiltonian(m, 0.5, 1.0, 1.0)
        assert val == 0.0 and a == 0

    def test_linear_term_only(self):
        m = single_control(b=2.0)
        val, a = hamiltonian(m, 0.0, 3.0, 7.0)
        assert val == pytest.approx(6.0) and a == 0

    def test_cost_term_selects_discount(self):
        # minimizing -c r: positive r prefers the larger cost, negative r the
        # smaller one
        m = two_control(c0=1.0, c1=2.0)
        val, a = hamiltonian(m, 0.5, 0.0, 0.0)
        assert val == pytest.approx(-1.0) and a == 1
        val, a = hamiltonian(m, -0.5, 0.0, 0.0)
        assert val == pytest.approx(0.5) and a == 0


class TestSolve:
    def test_constant_one_is_fixed_point(self):
        m = single_control(b=0.3, sigma=0.5, gamma=0.7, rate_bound=0.7, p0=0.3,
                           p1=0.2, g=M.constant(1.0), mean_bound=1.2)
        grid = grid_for(m, -2, 2, 81, 1.0)
        out = hjb.solve(m, grid)
        assert np.array_equal(out.values, np.ones_like(out.values))
        assert out.clamp_events == 0

    def test_space_independent_ode_oracle(self):
        grid = hjb.GridConfig(x_lo=-1, x_hi=1, n_x=21, n_t=4000, horizon=2.0)
        out = hjb.solve(CRITICAL, grid)
        assert np.all(np.abs(out.values[0] - 0.5) < 1e-3)
        assert out.clamp_events == 0
        # terminal layer equals the terminal cost samples
        np.testing.assert_array_equal(out.values[-1], np.zeros(21))

    def test_heat_kernel_closed_form(self):
        amp, width, horizon = 0.9, 0.5, 0.5
        m = single_control(sigma=math.sqrt(2.0),
                           g=M.CoefficientSpec(family="gaussian-bump",
                                               amplitude=amp, center=(0.0,),
                                               width=width))
        grid = grid_for(m, -8, 8, 401, horizon)
        out = hjb.solve(m, grid)
        xs = np.linspace(-2, 2, 9)
        var = width**2 + 2 * horizon
        exact = amp * math.sqrt(width**2 / var) * np.exp(-xs**2 / (2 * var))
        got = np.array([hjb.evaluate(out, 0.0, [x]) for x in xs])
        assert np.abs(got - exact).max() < 1e-2
        assert out.clamp_events == 0

    def test_self_convergence(self):
        m = single_control(b=0.2, sigma=0.6, gamma=0.5, rate_bound=0.5, p0=0.2,
                           p1=0.3, c=0.1, mean_bound=1.3,
                           g=M.CoefficientSpec(family="gaussian-bump",
                                               offset=0.1, amplitude=0.7,
                                               center=(0.0,), width=0.8))
        xs = np.linspace(-1, 1, 11)
        sols = []
        for level in range(3):
            n_x = 51 * 2**level - (2**level - 1)   # nested nodes
            grid = grid_for(m, -6, 6, n_x, 1.0)
            out = hjb.solve(m, grid)
            sols.append(np.array([hjb.evaluate(out, 0.0, [x]) for x in xs]))
        d01 = np.abs(sols[1] - sols[0]).max()
        d12 = np.abs(sols[2] - sols[1]).max()
        assert d12 < d01

    def test_cfl_violation_rejected(self):
        m = single_control(sigma=1.0)
        bad = hjb.GridConfig(x_lo=-2, x_hi=2, n_x=201, n_t=5, horizon=1.0)
        with pytest.raises(ConfigurationError, match="CFL"):
            hjb.solve(m, bad)

    def test_solve_reports_the_ratio_it_checked(self, monkeypatch):
        """At required_time_steps_for's n_t the solve passes and reports the
        ratio it checked, dt times its CFL bound; a grid with too few steps
        fails, naming that n_t.  Either way the bound is computed once."""
        m = single_control(sigma=1.0)
        need = hjb.required_time_steps_for(
            m, hjb.GridConfig(x_lo=-2, x_hi=2, n_x=201, n_t=5, horizon=1.0))
        cfg = hjb.GridConfig(x_lo=-2, x_hi=2, n_x=201, n_t=need, horizon=1.0)
        bounds, cfl_bound = [], hjb._cfl_bound
        monkeypatch.setattr(hjb, "_cfl_bound",
                            lambda *args: bounds.append(cfl_bound(*args)) or bounds[-1])
        out = hjb.solve(m, cfg)
        assert out.cfl_ratio == cfg.dt * cfl_bound(m, cfg.dx,
                                                   hjb._node_coefficients(m, cfg.nodes))
        assert 0.0 < out.cfl_ratio <= 1.0
        assert len(bounds) == 1
        message = (re.escape("CFL violation: dt * (max sigma^2/dx^2 + max |b|/dx + "
                             "rate_bound * (M + 1) + max cost) = ")
                   + r"[0-9.e+]+" + re.escape(f" > 1; increase n_t to at least {need}") + "$")
        with pytest.raises(ConfigurationError, match=message):
            hjb.solve(m, hjb.GridConfig(x_lo=-2, x_hi=2, n_x=201, n_t=need // 2,
                                        horizon=1.0))
        assert len(bounds) == 2

    def test_overflowing_cfl_bound_rejected(self):
        """|b|/dx overflows: the bound is not finite, which solve and
        required_time_steps_for report, unwarned, instead of sizing a grid."""
        m = single_control(b=1e308, sigma=0.3)
        cfg = hjb.GridConfig(x_lo=-2, x_hi=2, n_x=41, n_t=100, horizon=1.0)
        for call in (hjb.solve, hjb.required_time_steps_for):
            with pytest.raises(ConfigurationError, match="the CFL bound .* is inf"):
                call(m, cfg)

    @pytest.mark.parametrize("horizon, steps", [(1.0, 2500), (0.7, 1750)])
    def test_required_steps_at_an_exact_bound(self, horizon, steps):
        """Where horizon times the bound is a whole number of steps, that
        number passes the check of solve and is the one asked for; one step
        fewer fails and names it."""
        m = single_control(sigma=1.0)
        cfg = hjb.GridConfig(x_lo=-2, x_hi=2, n_x=201, n_t=1, horizon=horizon)
        assert hjb.required_time_steps_for(m, cfg) == steps
        assert hjb.solve(m, replace(cfg, n_t=steps)).cfl_ratio <= 1.0
        with pytest.raises(ConfigurationError,
                           match=f"increase n_t to at least {steps}$"):
            hjb.solve(m, replace(cfg, n_t=steps - 1))

    def test_identical_controls_solve_as_one(self):
        """Two controls that share every coefficient give the one-control
        surface bit for bit, and control 0 everywhere, in the solve and in
        feedback queries."""
        kw = dict(b=0.1, sigma=0.4, gamma=0.5, rate_bound=0.5, p0=0.4, c=0.3,
                  g=M.CoefficientSpec(family="gaussian-bump", amplitude=0.8,
                                      center=(0.0,), width=0.7))
        one, two = single_control(**kw), two_control(c0=0.3, c1=0.3, **kw)
        cfg = grid_for(one, -2, 2, 41, 1.0)
        solved = hjb.solve(two, cfg)
        assert solved.values.tobytes() == hjb.solve(one, cfg).values.tobytes()
        assert not solved.argmin_control.any()
        xs = np.linspace(-3.0, 3.0, 13)[:, None]
        assert not hjb.FeedbackPolicy(solved).controls_along(
            np.full(13, 0.5), xs, ()).any()

    def test_dimension_guard(self):
        m2 = M.ModelParams(
            dim=2, noise_dim=1, controls=M.ControlSet.of_size(1),
            drift=(M.constant_vector([0.0, 0.0]),),
            diffusion=(M.constant_vector([0.1, 0.1]),),
            death_rate=(M.constant(0.0),),
            offspring=((M.constant(1.0), M.constant(0.0)),),
            running_cost=(M.constant(0.0),),
            terminal=M.constant(0.5),
            rate_bound=0.0, mean_offspring_bound=1.0, max_children=2)
        cfg = hjb.GridConfig(x_lo=-1, x_hi=1, n_x=11, n_t=10, horizon=1.0)
        for sized_or_solved in (hjb.solve, hjb.required_time_steps_for):
            with pytest.raises(ConfigurationError, match="one-dimensional models only"):
                sized_or_solved(m2, cfg)

    def test_semilinear_path_identical(self):
        m = single_control(b=0.2, sigma=0.5, gamma=0.6, rate_bound=0.6, p0=0.3,
                           p1=0.1, c=0.2, mean_bound=1.1,
                           g=M.CoefficientSpec(family="gaussian-bump",
                                               offset=0.2, amplitude=0.5,
                                               center=(0.0,), width=1.0))
        grid = grid_for(m, -4, 4, 101, 1.0)
        a = hjb.solve(m, grid)
        # explicit Euler over the single control's generator, no minimum
        xs, dx = grid.nodes[:, None], grid.dx
        coef = m.coefficients(xs)      # one control: no control axis
        u = np.clip(m.terminal_many(xs), 0.0, 1.0)
        for k in range(grid.n_t - 1, -1, -1):
            slope = np.concatenate(([0.0], (u[1:] - u[:-1]) / dx, [0.0]))
            upwind = np.where(coef.drift >= 0.0, slope[1:, None], slope[:-1, None])
            m2 = np.concatenate(([u[1] - u[0]], u[2:] - 2.0 * u[1:-1] + u[:-2],
                                 [u[-2] - u[-1]])) / dx**2
            u = np.clip(u + grid.dt * M.generator(coef, u, upwind, m2[:, None, None]),
                        0.0, 1.0)
            assert np.array_equal(a.values[k], u)

    def test_degenerate_diffusion_reported(self):
        out = hjb.solve(CRITICAL, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=11,
                                                 n_t=100, horizon=1.0))
        assert out.degenerate_diffusion


class TestComparisonPrinciple:
    def test_ordered_terminal_data_stay_ordered(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n_controls = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.2, 1.0))
            p0 = float(rng.uniform(0.1, 0.8))
            base = dict(
                dim=1, noise_dim=1, controls=M.ControlSet.of_size(n_controls),
                drift=tuple(M.constant_vector([float(rng.uniform(-0.5, 0.5))])
                            for _ in range(n_controls)),
                diffusion=tuple(M.constant_vector([float(rng.uniform(0.1, 0.8))])
                                for _ in range(n_controls)),
                death_rate=(M.constant(gamma),) * n_controls,
                offspring=((M.constant(p0), M.constant(0.0)),) * n_controls,
                running_cost=tuple(M.constant(float(rng.uniform(0, 0.5)))
                                   for _ in range(n_controls)),
                rate_bound=1.0, mean_offspring_bound=2.0, max_children=2,
            )
            off1 = float(rng.uniform(0.0, 0.2))
            amp1 = float(rng.uniform(0.1, 0.5))
            lift = float(rng.uniform(0.0, 1.0 - off1 - amp1))
            g1 = M.CoefficientSpec(family="gaussian-bump", offset=off1,
                                   amplitude=amp1, center=(0.0,), width=0.7)
            g2 = M.CoefficientSpec(family="gaussian-bump", offset=off1 + lift,
                                   amplitude=amp1, center=(0.0,), width=0.7)
            m1 = M.ModelParams(terminal=g1, **base)
            m2 = M.ModelParams(terminal=g2, **base)
            grid = grid_for(m1, -3, 3, 41, 0.8)
            u1 = hjb.solve(m1, grid)
            u2 = hjb.solve(m2, grid)
            violations = int(np.count_nonzero(u1.values > u2.values + 1e-12))
            assert violations == 0


class TestEvaluate:
    def setup_method(self):
        g = M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                              amplitude=0.8, center=(0.0,), width=1.0)
        self.m = single_control(sigma=0.4, g=g)
        self.out = hjb.solve(self.m, grid_for(self.m, -3, 3, 61, 1.0))

    def test_exact_at_nodes(self):
        k, j = 0, 30
        got = hjb.evaluate(self.out, float(self.out.times[k]),
                           [float(self.out.nodes[j])])
        assert got == pytest.approx(float(self.out.values[k, j]), abs=1e-14)

    def test_midpoint_linear(self):
        j = 30
        x_mid = 0.5 * (self.out.nodes[j] + self.out.nodes[j + 1])
        want = 0.5 * (self.out.values[-1, j] + self.out.values[-1, j + 1])
        got = hjb.evaluate(self.out, float(self.out.times[-1]), [float(x_mid)])
        assert got == pytest.approx(float(want), abs=1e-14)

    def test_clamps_beyond_domain(self):
        got = hjb.evaluate(self.out, 0.0, [99.0])
        edge = hjb.evaluate(self.out, 0.0, [float(self.out.nodes[-1])])
        assert got == edge

    def test_time_domain_error(self):
        with pytest.raises(ValueError):
            hjb.evaluate(self.out, 2.0, [0.0])


class TestFeedback:
    def test_singleton_constant(self):
        out = hjb.solve(CRITICAL, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=11,
                                                 n_t=50, horizon=1.0))
        pol = hjb.FeedbackPolicy(out)
        assert pol.controls_along(np.array([0.3]), np.array([[0.2]]), ())[0] == 0

    @pytest.mark.parametrize("n_controls, const", [(1, 0), (2, None)])
    def test_one_control_feedback_runs_as_constant(self, n_controls, const):
        """A one-control model's feedback policy runs as constant control 0;
        a two-control one's has no constant control."""
        m = CRITICAL if n_controls == 1 else two_control(sigma=0.4, g=M.constant(0.8))
        pol = hjb.FeedbackPolicy(hjb.solve(m, grid_for(m, -1, 1, 11, 1.0)))
        setup = prepare_simulation(0.0, {(): np.zeros(1)}, pol, m, 0.05, 1.0)
        assert setup.plan.const_control == const

    def test_dominating_control_chosen_everywhere(self):
        # all else equal and u > 0: the larger running cost minimizes the
        # operator, so control 1 dominates
        m = two_control(c0=0.1, c1=0.6, sigma=0.4, g=M.constant(0.8))
        out = hjb.solve(m, grid_for(m, -2, 2, 41, 1.0))
        pol = hjb.FeedbackPolicy(out)
        ts = np.linspace(0, 1, 7)
        xs = np.linspace(-1.5, 1.5, 9)
        for t in ts:
            for x in xs:
                assert pol.controls_along(np.array([t]), np.array([[x]]), ())[0] == 1
        assert np.all(out.argmin_control == 1)

    def test_tie_breaks_to_lowest_index(self):
        m = two_control(c0=0.3, c1=0.3, sigma=0.4, g=M.constant(0.8))
        out = hjb.solve(m, grid_for(m, -2, 2, 41, 1.0))
        pol = hjb.FeedbackPolicy(out)
        for x in np.linspace(-1.5, 1.5, 9):
            assert pol.controls_along(np.array([0.5]), np.array([[x]]), ())[0] == 0
        assert np.all(out.argmin_control == 0)

    def test_vectorized_queries_match_scalar(self):
        import branchdiff.modelio as modelio
        from pathlib import Path
        models = Path(__file__).resolve().parents[1] / "configs" / "models"
        m = modelio.load_model(models / "two_control_harvest.yaml")
        out = hjb.solve(m, grid_for(m, -4, 4, 161, 1.0))
        pol = hjb.FeedbackPolicy(out)
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 1, 40)
        xs = rng.uniform(-5, 5, (40, 1))
        batch = pol.controls_along(times, xs, ())
        single = [pol.controls_along(np.array([t]), x[None], ())[0]
                  for t, x in zip(times, xs)]
        np.testing.assert_array_equal(batch, single)

    def test_evaluate_many_matches_scalar(self):
        out = hjb.solve(CRITICAL, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=11,
                                                 n_t=100, horizon=1.0))
        xs = np.linspace(-2, 2, 13)[:, None]
        batch = hjb.evaluate_many(out, 0.4, xs)
        single = [hjb.evaluate(out, 0.4, x) for x in xs]
        np.testing.assert_allclose(batch, single, rtol=0, atol=0)


def test_boundary_sensitivity_small_for_wide_domain():
    g = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.8,
                          center=(0.0,), width=1.0)
    m = single_control(sigma=0.5, gamma=0.4, rate_bound=0.4, p0=0.3, p1=0.1,
                       mean_bound=1.1, g=g)
    grid = grid_for(m, -6, 6, 121, 1.0)
    base, xs = hjb.solve(m, grid), [-1.0, 0.0, 1.0]
    sens = hjb.boundary_sensitivity(m, grid, xs, [hjb.evaluate(base, 0.0, [x]) for x in xs])
    assert sens < 1e-6


def test_grid_csv_export(tmp_path):
    out = hjb.solve(CRITICAL, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=5, n_t=20,
                                             horizon=1.0))
    dest = tmp_path / "grid.csv"
    hjb.write_grid_csv(out, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "t,x,u,control"
    assert len(lines) == 1 + 21 * 5


class TestLayerGuards:
    """The per-layer guards of ``solve``: a layer operator patched to push one
    chosen layer off [0, 1] by a set amount, on a model whose own operator
    is zero and whose terminal value is 0.5."""

    N_T = 5

    def solve_with_step(self, monkeypatch, layer, offsets):
        """Solve with the step onto ``layer`` moved by ``offsets`` (per node;
        dt = 1) and every other step zero."""
        calls = []

        def patched(u, coef, forward, dx):
            calls.append(None)
            # call i steps onto layer N_T - 1 - i; the last one is layer 0's argmin
            on_layer = self.N_T - len(calls) == layer
            return np.asarray(offsets if on_layer else np.zeros_like(u))[None, :]

        monkeypatch.setattr(hjb, "_layer_operator", patched)
        params = single_control(g=M.constant(0.5))
        cfg = hjb.GridConfig(x_lo=-1.0, x_hi=1.0, n_x=5, n_t=self.N_T,
                             horizon=float(self.N_T))
        return hjb.solve(params, cfg)

    def test_within_tolerance_clipped_not_counted(self, monkeypatch):
        out = self.solve_with_step(monkeypatch, 2, [0.0, 0.5 + 1e-13, 0.0, 0.0, 0.0])
        assert out.values[2].tolist() == [0.5, 1.0, 0.5, 0.5, 0.5]
        assert out.clamp_events == 0

    def test_beyond_tolerance_clipped_and_counted(self, monkeypatch):
        out = self.solve_with_step(monkeypatch, 3,
                                   [0.0, 0.5 + 1e-6, 0.0, -0.5 - 1e-6, 0.0])
        assert out.values[3].tolist() == [0.5, 1.0, 0.5, 0.0, 0.5]
        assert out.values[0].tolist() == [0.5, 1.0, 0.5, 0.0, 0.5]
        assert out.clamp_events == 2

    def test_solve_after_patched_solve_unchanged(self, monkeypatch):
        params, cfg = FEEDBACK_CASES["harvest"][0](), FEEDBACK_CASES["harvest"][1]
        before = solve_bytes(params, cfg)
        self.solve_with_step(monkeypatch, 2, [0.0, 0.5 + 1e-6, 0.0, 0.0, 0.0])
        monkeypatch.undo()
        assert solve_bytes(params, cfg) == before

    def test_nan_raises_with_layer(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalFailureError) as info:
                self.solve_with_step(monkeypatch, 1, [0.0, 0.0, np.nan, 0.0, 0.0])
        assert info.value.layer == 1
        assert str(info.value) == "non-finite values while stepping onto layer 1"


# ---------------------------------------------------------------------------
# bit-for-bit pins: recorded from the solver and feedback query that
# evaluated every coefficient at every point; the shared_drift and
# state_dependent solve pins, and the Dynkin integrand pins, from the solver
# that broadcast position-free rows over the nodes and the integrand that
# evaluated one control at a time

FEEDBACK_CASES = {
    # the grid of the bundled dpp_two_control experiment
    "harvest": (lambda: load_model(MODELS / "two_control_harvest.yaml"),
                hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=161, n_t=90, horizon=1.0)),
    "state_dependent": (state_dependent_two_control,
                        hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=161, n_t=400,
                                       horizon=1.0)),
    "shared_drift": (shared_drift_two_control,
                     hjb.GridConfig(x_lo=-3.0, x_hi=3.0, n_x=121, n_t=800, horizon=1.0)),
    # zero drift for both controls, other fields position-dependent
    "driftless": (driftless_two_control,
                  hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=161, n_t=200, horizon=1.0)),
    # position-dependent drift and cost that are 0.0 at every node
    "far_bump": (far_bump_two_control,
                 hjb.GridConfig(x_lo=-2.0, x_hi=2.0, n_x=81, n_t=100, horizon=1.0)),
}
FEEDBACK_PINNED = {
    "harvest": "0b9dcf00bed542e5",
    "state_dependent": "43be48c9f094275b",
    "shared_drift": "f077fa5b18f4b146",
    "driftless": "da22262012094ce3",
    "far_bump": "218b97194ade881a",
}


def feedback_digest(params, cfg, n_queries=5000):
    """Hash of the controls chosen over seeded random batches of (t, x)
    queries of 1 to 32 points: positions reach 2 beyond the domain, and
    about a tenth of the times each sit at 0 and at the horizon."""
    pol = hjb.FeedbackPolicy(hjb.solve(params, cfg))
    rng = np.random.default_rng(2026)
    h = hashlib.sha256()
    counts = np.zeros(len(params.controls), dtype=np.int64)
    done = 0
    while done < n_queries:
        n = int(rng.integers(1, 33))
        times = rng.uniform(0.0, cfg.horizon, n)
        times[rng.random(n) < 0.1] = 0.0
        times[rng.random(n) < 0.1] = cfg.horizon
        xs = rng.uniform(cfg.x_lo - 2.0, cfg.x_hi + 2.0, (n, 1))
        chosen = np.asarray(pol.controls_along(times, xs, ()), dtype=np.int64)
        h.update(chosen.tobytes())
        counts += np.bincount(chosen, minlength=len(counts))
        done += n
    return h.hexdigest()[:16], counts


@pytest.mark.parametrize("name", sorted(FEEDBACK_CASES))
def test_feedback_queries_pinned(name):
    make, cfg = FEEDBACK_CASES[name]
    got, counts = feedback_digest(make(), cfg)
    assert counts.min() > 0          # the pin covers both controls
    assert got == FEEDBACK_PINNED[name]


def bundled(name):
    return lambda: load_model(MODELS / f"{name}.yaml")


DYNKIN_PINNED = {
    "harvest": "1a35721cab66c217",
    "state_dependent": "1fd04f978e415fb9",
    "shared_drift": "5fa473bb4d63efd3",
    "two_dim": "eb5753ca78344829",
    "driftless": "51f563267c470700",
}


def dynkin_case(name):
    """The model, policy, founders and test functions of a Dynkin pin: a
    feedback case's solved policy, or, in two dimensions, where the
    generator sums over axes, an open-loop schedule of both controls."""
    if name == "two_dim":
        return (two_dim_two_control(), OpenLoopPolicy(([0.0, 0.3, 0.6], [1, 0, 1])),
                {(0,): np.array([-0.5, 0.2]), (1,): np.array([0.7, -0.3])},
                [estimator.SmoothTestFunction(family="polynomial-times-bump", base=0.2,
                                              scale=0.6, decay=0.3, center=(0.1, -0.2),
                                              width=0.9, direction=(1.0, 0.5)),
                 estimator.SmoothTestFunction(family="gaussian-bump", base=0.2, scale=0.6,
                                              decay=0.3, center=(0.1, 0.3), width=0.9)])
    make, cfg = FEEDBACK_CASES[name]
    params = make()
    return (params, hjb.FeedbackPolicy(hjb.solve(params, cfg)),
            {(0,): np.array([-0.5]), (1,): np.array([0.7])},
            [estimator.SmoothTestFunction(family="polynomial-times-bump", base=0.2,
                                          scale=0.6, decay=0.3, center=(0.1,), width=0.9)])


@pytest.mark.parametrize("name", sorted(DYNKIN_PINNED))
def test_dynkin_integrand_pinned(name):
    """The pathwise operator integral of the martingale residual along paths
    on which both controls are used."""
    params, policy, founders, functions = dynkin_case(name)
    setup = prepare_simulation(0.0, founders, policy, params, 0.05, 1.0)
    h = hashlib.sha256()
    used = set()
    for seed in range(10):
        path = simulate(setup, seed)
        used.update(*(tr.controls.tolist() for tr in path.tracks.values()))
        for u in functions:
            h.update(estimator._path_operator_integral(path, u, params).hex().encode())
    assert used == {0, 1}
    assert h.hexdigest()[:16] == DYNKIN_PINNED[name]


DYNKIN_RESIDUALS_PINNED = {
    "harvest": "734f9ab99cbbdd5d",
    "state_dependent": "9bc06de84b85fdf3",
    "two_dim": "1936bc007b686699",
}


def residual_case(name):
    """The model, policy, founders and test function of a per-path residual
    pin: the harvest feedback policy from the root, the state-dependent one
    from four founders, and the two-dimensional schedule from sixteen
    founders under a bump whose direction is off the axes."""
    params, policy, _, functions = dynkin_case(name)
    if name == "two_dim":
        founders = {(i,): np.array([0.2 * i - 1.5, 0.7 - 0.1 * i]) for i in range(16)}
        return params, policy, founders, estimator.SmoothTestFunction(
            family="polynomial-times-bump", base=0.2, scale=0.6, decay=0.3,
            center=(0.1, -0.2), width=0.9, direction=(1.0, 0.7))
    if name == "state_dependent":
        return (params, policy, {(i,): np.array([0.5 * i - 0.8]) for i in range(4)},
                functions[0])
    return params, policy, {(): np.zeros(1)}, functions[0]


@pytest.mark.parametrize("name", sorted(DYNKIN_RESIDUALS_PINNED))
def test_dynkin_residuals_pinned(name, monkeypatch):
    """Every per-path residual that dynkin_residual averages: the discounted
    terminal product, the founders' product and the operator integral, path
    by path, as the array handed to estimate_from_samples."""
    params, policy, founders, u = residual_case(name)
    setup = prepare_simulation(0.0, founders, policy, params, 0.05, 1.0)
    seen = []
    monkeypatch.setattr(estimator, "estimate_from_samples",
                        lambda values, seed_base: seen.append(values))
    estimator.dynkin_residual(setup, u, 40, 11)
    (residuals,) = seen
    assert residuals.shape == (40,) and np.all(residuals != 0.0)
    assert hashlib.sha256(residuals.tobytes()).hexdigest()[:16] == DYNKIN_RESIDUALS_PINNED[name]


# the grids of the pde_sweep benchmark workload: the harvest grid, the doubled
# domain its boundary sensitivity solves, and the long critical grid; the two
# ways a model's coefficients can reach the solver that those grids do not
# cover, fields evaluated at every node (state_dependent) and rows shared by
# some fields only (shared_drift); and models whose generator lacks a term at
# every node and control, in the combinations the bundled models do not have
# (harvest lacks the drift, critical all but the branching)
SOLVE_CASES = {
    "harvest": (bundled("two_control_harvest"),
                hjb.GridConfig(x_lo=-8.0, x_hi=8.0, n_x=1601, n_t=2040, horizon=1.0)),
    "harvest_wide": (bundled("two_control_harvest"),
                     hjb.GridConfig(x_lo=-16.0, x_hi=16.0, n_x=3201, n_t=2040,
                                    horizon=1.0)),
    "critical": (bundled("critical_binary"),
                 hjb.GridConfig(x_lo=-1.0, x_hi=1.0, n_x=21, n_t=6000, horizon=2.0)),
    "state_dependent": FEEDBACK_CASES["state_dependent"],
    "shared_drift": FEEDBACK_CASES["shared_drift"],
    "driftless": FEEDBACK_CASES["driftless"],
    "far_bump": FEEDBACK_CASES["far_bump"],
    "transport": (transport_two_control,
                  hjb.GridConfig(x_lo=-3.0, x_hi=3.0, n_x=121, n_t=100, horizon=1.0)),
    "still": (still_two_control,
              hjb.GridConfig(x_lo=-3.0, x_hi=3.0, n_x=121, n_t=100, horizon=1.0)),
    "costless": (costless_motion,
                 hjb.GridConfig(x_lo=-3.0, x_hi=3.0, n_x=121, n_t=200, horizon=1.0)),
    "deathless": (deathless,
                  hjb.GridConfig(x_lo=-3.0, x_hi=3.0, n_x=121, n_t=100, horizon=1.0)),
}
SOLVE_PINNED = {
    "harvest": "41526e24372553d3",
    "harvest_wide": "365f629202b482c1",
    "critical": "df994fb34282fffb",
    "state_dependent": "5ef9dcaa74ac2dc8",
    "shared_drift": "a056fa65548a5632",
    "driftless": "f88dd09752471de8",
    "far_bump": "027775d60405647c",
    "transport": "f23866c600a46ce0",
    "still": "1b6d972d7d4d65d8",
    "costless": "1feefa982ef4df06",
    "deathless": "cfcf75a8f02c721c",
}


def solve_bytes(params, cfg):
    out = hjb.solve(params, cfg)
    return out.values.tobytes(), out.argmin_control.tobytes()


POSITION_FREE = {
    "critical": bundled("critical_binary"),
    "harvest": bundled("two_control_harvest"),
    "shared_drift": shared_drift_two_control,
    "opposite_drifts": opposite_drifts,
}


@pytest.mark.parametrize("name", sorted(POSITION_FREE))
def test_rows_give_what_node_tables_give(name, monkeypatch):
    """A position-free model solved, queried and integrated on its rows
    gives the bits it gives when every field is evaluated at every point."""
    u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.2, scale=0.6,
                                     decay=0.3, center=(0.1,), width=0.9)
    rng = np.random.default_rng(8)
    times, xs = rng.uniform(0.0, 1.0, 200), rng.uniform(-4.0, 4.0, (200, 1))

    def run():
        params = POSITION_FREE[name]()
        solved = hjb.solve(params, grid_for(params, -3, 3, 61, 1.0))
        policy = hjb.FeedbackPolicy(solved)
        setup = prepare_simulation(0.0, {(0,): np.array([-0.5]), (1,): np.array([0.7])},
                                   policy, params, 0.05, 1.0)
        integrals = [estimator._path_operator_integral(simulate(setup, seed), u, params)
                     for seed in range(5)]
        return (params._position_free, solved.values.tobytes(),
                solved.argmin_control.tobytes(),
                policy.controls_along(times, xs, ()).tobytes(), integrals)

    on_rows = run()
    monkeypatch.setattr(M.ModelParams, "_rows", M.Coefficients(*[None] * 5))
    on_tables = run()
    assert (on_rows[0], on_tables[0]) == (True, False)
    assert on_rows[1:] == on_tables[1:]


# ---------------------------------------------------------------------------
# the certified control table of a position-free model

def evaluated(policy):
    """A copy of ``policy`` that evaluates the generator at every query."""
    plain = copy.copy(policy)
    plain._cells = None
    return plain


def table_queries(policy, rng, n=300):
    """(times, xs): random points reaching past the domain, nodes of random
    layers (the ends of cells) and random points inside every mixed cell."""
    grid = policy.grid
    n_x = len(grid.nodes)
    times = [rng.uniform(-0.1, 1.1, n) * grid.horizon,
             grid.times[rng.integers(0, len(grid.times), n)]]
    xs = [rng.uniform(grid.nodes[0] - 1.0, grid.nodes[-1] + 1.0, n),
          grid.nodes[rng.integers(0, n_x, n)]]
    k, j = np.divmod(np.flatnonzero(policy._cells < 0), n_x - 1)
    for w in rng.uniform(0.0, 1.0, 5):
        times.append(grid.times[k])
        xs.append(grid.nodes[j] * (1.0 - w) + grid.nodes[j + 1] * w)
    return np.concatenate(times), np.concatenate(xs)[:, None]


@settings(max_examples=40, deadline=None)
@given(coefficient_models(dims=(1,), kinds=("shared", "per control")),
       st.integers(0, 2**32 - 1))
def test_table_gives_the_evaluated_controls(params, seed):
    """On a position-free model the table's answer is the evaluated one, at
    random points, at cell ends and inside mixed cells."""
    params = replace(params, terminal=M.CoefficientSpec(
        family="gaussian-bump", offset=0.1, amplitude=0.8, center=(0.3,), width=0.6))
    policy = hjb.FeedbackPolicy(hjb.solve(params, grid_for(params, -2.0, 2.0, 41, 1.0)))
    assert policy.mixed_cells is not None
    times, xs = table_queries(policy, np.random.default_rng(seed))
    assert np.array_equal(policy.controls_along(times, xs, ()),
                          evaluated(policy).controls_along(times, xs, ()))


def test_harvest_table_mixed_cells():
    """Two cells a layer, at the switching boundary near |x| = 1.5, are
    mixed on the bundled dpp grid; a position-dependent model has no table."""
    make, cfg = FEEDBACK_CASES["harvest"]
    assert hjb.FeedbackPolicy(hjb.solve(make(), cfg)).mixed_cells == 182
    make, cfg = FEEDBACK_CASES["state_dependent"]
    assert hjb.FeedbackPolicy(hjb.solve(make(), cfg)).mixed_cells is None


def curved_branching():
    """Two controls without motion, L^1 - L^0 = -(s - 0.4)(s - 0.6)/2 in
    s = 1 - r: on a cell whose value runs from 0.1 to 0.9, control 1 wins at
    both ends and control 0 in the middle."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.0]),), diffusion=(M.constant_vector([0.0]),),
        death_rate=(M.constant(1.0), M.constant(0.38)),
        offspring=((M.constant(0.5), M.constant(0.0)), (M.constant(1.0), M.constant(0.0))),
        running_cost=(M.constant(0.0), M.constant(0.12)),
        terminal=M.CoefficientSpec(family="logistic", lo=0.1, hi=0.9, slope=(40.0,),
                                   center=(0.0,)),
        rate_bound=1.0, mean_offspring_bound=1.0, max_children=2)


def test_certificate_needs_the_curvature_bound(monkeypatch):
    grid = hjb.solve(curved_branching(),
                     hjb.GridConfig(x_lo=-1.5, x_hi=1.5, n_x=4, n_t=4, horizon=1.0))
    # the middle cell of the last layer, from 0.1 to 0.9
    times, xs = np.ones(11), np.linspace(-0.5, 0.5, 11)[:, None]
    want = evaluated(hjb.FeedbackPolicy(grid)).controls_along(times, xs, ())
    assert want[[0, 5, 10]].tolist() == [1, 0, 1]
    assert np.array_equal(hjb.FeedbackPolicy(grid).controls_along(times, xs, ()), want)
    monkeypatch.setattr(hjb, "_curvature_bounds", lambda gp: np.zeros((len(gp), len(gp))))
    assert not np.array_equal(hjb.FeedbackPolicy(grid).controls_along(times, xs, ()), want)


@pytest.mark.parametrize("name", sorted(FEEDBACK_CASES))
def test_successive_solves_identical(name):
    make, cfg = FEEDBACK_CASES[name]
    params = make()
    assert solve_bytes(params, cfg) == solve_bytes(params, cfg)


def record_layers(monkeypatch):
    """Patch the layer operator and the generator to pass through, keeping
    every argument and result they see (so no two are the same object by
    reuse of a freed one's id)."""
    seen = {"operator": [], "generator": [], "kwargs": []}
    layer_operator, generator = hjb._layer_operator, hjb.generator

    def operator(u, coef, stencil, dx):
        out = layer_operator(u, coef, stencil, dx)
        seen["operator"].append((coef, stencil, out))
        return out

    def gen(coef, r, grad, hess, **kw):
        result = generator(coef, r, grad, hess, **kw)
        seen["generator"].append((grad, hess, result))
        seen["kwargs"].append(kw)
        return result

    monkeypatch.setattr(hjb, "_layer_operator", operator)
    monkeypatch.setattr(hjb, "generator", gen)
    return seen


def test_value_grid_shares_no_buffer(monkeypatch):
    make, cfg = FEEDBACK_CASES["harvest"]
    seen = record_layers(monkeypatch)
    out = hjb.solve(make(), cfg)
    coef, stencil, _ = seen["operator"][0]
    buffers = [*coef, *(v for v in vars(stencil).values() if isinstance(v, np.ndarray))]
    buffers += [arr for call in seen["generator"] for arr in call]
    for kept in (out.values, out.argmin_control, out.times, out.nodes):
        assert not any(np.shares_memory(kept, buf) for buf in buffers)


def test_layers_reuse_their_buffers(monkeypatch):
    """Every layer of a solve fills the same stencil and operator arrays."""
    make, cfg = FEEDBACK_CASES["harvest"]
    seen = record_layers(monkeypatch)
    hjb.solve(make(), cfg)
    assert len(seen["generator"]) == cfg.n_t + 1
    for column in zip(*seen["generator"]):     # upwind slope, curvature, result
        assert len({id(arr) for arr in column}) == 1


LAYER_SKIPS = {"critical": {"drift", "cov", "cost"}, "still": {"drift", "cov"},
               "harvest": {"drift"}, "deathless": {"death_rate"}, "transport": {"cov"},
               "costless": {"cost"}, "state_dependent": set(), "driftless": {"drift"},
               "far_bump": {"drift", "cost"}}


@pytest.mark.parametrize("name", sorted(LAYER_SKIPS))
def test_layers_skip_zero_fields(name, monkeypatch):
    """Every layer evaluates the generator without its clip and skipping the
    fields zero at every node for every control, position-dependent ones
    included; no second difference is taken where sigma sigma^T is zero."""
    calls, second = [], hjb._second_difference
    monkeypatch.setattr(hjb, "_second_difference",
                        lambda u, dx, out=None: calls.append(None) or second(u, dx, out))
    seen = record_layers(monkeypatch)
    make, cfg = SOLVE_CASES[name]
    hjb.solve(make(), cfg)
    assert len(seen["generator"]) == cfg.n_t + 1
    assert {(kw["skip"], kw["clip"]) for kw in seen["kwargs"]} == {
        (frozenset(LAYER_SKIPS[name]), False)}
    assert len(calls) == (0 if "cov" in LAYER_SKIPS[name] else cfg.n_t + 1)


def test_solve_peak_memory_is_its_surface():
    """Under tracemalloc, a long narrow solve holds little beyond the arrays
    it returns: its work arrays are O(n_x), whatever n_t is."""
    make, cfg = SOLVE_CASES["critical"]
    params = make()
    hjb.solve(params, cfg)                 # one-time allocations of numpy itself
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = hjb.solve(params, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    returned = sum(arr.nbytes for arr in (out.values, out.argmin_control,
                                          out.times, out.nodes))
    assert out.values.shape == (6001, 21)
    assert peak <= returned + 1000 * cfg.n_x


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_pinned(name):
    make, cfg = SOLVE_CASES[name]
    out = hjb.solve(make(), cfg)
    if name not in ("harvest_wide", "critical"):
        assert set(np.unique(out.argmin_control)) == {0, 1}
    h = hashlib.sha256(out.values.tobytes())
    h.update(out.argmin_control.astype(np.int64).tobytes())
    assert h.hexdigest()[:16] == SOLVE_PINNED[name]


@pytest.mark.parametrize("model_name", ["critical_binary", "two_control_harvest"])
def test_argmin_control_smallest_unsigned(model_name):
    params = load_model(MODELS / f"{model_name}.yaml")
    out = hjb.solve(params, grid_for(params, -2.0, 2.0, 21, 1.0))
    assert out.argmin_control.dtype == np.uint8


# the bytes of write_grid_csv: pde_sweep's critical grid, the bundled
# dpp_two_control grid (both controls in the control column) and a grid whose
# nodes are not round decimals
CSV_CASES = {
    "critical": SOLVE_CASES["critical"],
    "harvest": FEEDBACK_CASES["harvest"],
    "off_decimal": (lambda: CRITICAL,
                    hjb.GridConfig(x_lo=-1.0, x_hi=1.0, n_x=7, n_t=20, horizon=1.0)),
}
CSV_PINNED = {
    "critical": "e02f3b25cad55282",
    "harvest": "8ac195c0d4ee8618",
    "off_decimal": "42f1833d38d1823b",
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_grid_csv_pinned(name, tmp_path):
    make, cfg = CSV_CASES[name]
    out = hjb.solve(make(), cfg)
    if name == "harvest":
        assert set(np.unique(out.argmin_control)) == {0, 1}
    dest = tmp_path / "grid.csv"
    hjb.write_grid_csv(out, dest)
    assert hashlib.sha256(dest.read_bytes()).hexdigest()[:16] == CSV_PINNED[name]
