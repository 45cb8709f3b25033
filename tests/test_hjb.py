import math

import numpy as np
import pytest

from branchdiff import hjb, model as M
from branchdiff.errors import ConfigurationError

X0 = np.zeros(1)


def single_control(b=0.0, sigma=0.0, gamma=0.0, rate_bound=0.0, p0=1.0, p1=0.0,
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
    return np.array([M.generator(m.coefficients(X0[None, :], a), np.array([r]),
                                 np.array([[p]]), np.array([[[m2]]]))[0]
                     for a in m.controls.indices])


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
        with pytest.raises(ConfigurationError):
            hjb.solve(m2, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=11, n_t=10,
                                         horizon=1.0))

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
        coef = m.coefficients(xs, 0)
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
        pol = hjb.extract_feedback(out)
        assert pol.constant_control() == 0
        assert pol.control_at(0.3, np.array([0.2]), ()) == 0

    def test_dominating_control_chosen_everywhere(self):
        # all else equal and u > 0: the larger running cost minimizes the
        # operator, so control 1 dominates
        m = two_control(c0=0.1, c1=0.6, sigma=0.4, g=M.constant(0.8))
        out = hjb.solve(m, grid_for(m, -2, 2, 41, 1.0))
        pol = hjb.extract_feedback(out)
        ts = np.linspace(0, 1, 7)
        xs = np.linspace(-1.5, 1.5, 9)
        for t in ts:
            for x in xs:
                assert pol.control_at(float(t), np.array([x]), ()) == 1
        assert np.all(out.argmin_control == 1)

    def test_tie_breaks_to_lowest_index(self):
        m = two_control(c0=0.3, c1=0.3, sigma=0.4, g=M.constant(0.8))
        out = hjb.solve(m, grid_for(m, -2, 2, 41, 1.0))
        pol = hjb.extract_feedback(out)
        for x in np.linspace(-1.5, 1.5, 9):
            assert pol.control_at(0.5, np.array([x]), ()) == 0
        assert np.all(out.argmin_control == 0)

    def test_vectorized_queries_match_scalar(self):
        import branchdiff.modelio as modelio
        from pathlib import Path
        models = Path(__file__).resolve().parents[1] / "configs" / "models"
        m = modelio.load_model(models / "two_control_harvest.yaml")
        out = hjb.solve(m, grid_for(m, -4, 4, 161, 1.0))
        pol = hjb.extract_feedback(out)
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 1, 40)
        xs = rng.uniform(-5, 5, (40, 1))
        batch = pol.controls_along(times, xs, ())
        single = [pol.control_at(float(t), x, ()) for t, x in zip(times, xs)]
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
    sens = hjb.boundary_sensitivity(m, grid, [[-1.0], [0.0], [1.0]])
    assert sens < 1e-6


def test_grid_csv_export(tmp_path):
    out = hjb.solve(CRITICAL, hjb.GridConfig(x_lo=-1, x_hi=1, n_x=5, n_t=20,
                                             horizon=1.0))
    dest = tmp_path / "grid.csv"
    hjb.write_grid_csv(out, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "t,x,u,control"
    assert len(lines) == 1 + 21 * 5
