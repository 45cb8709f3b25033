"""The particle engine is dimension-generic even though the PDE solver is
one-dimensional; these tests exercise d = 2."""

import math

import numpy as np

from branchdiff import estimator, model as M
from branchdiff.simulator import ConstantPolicy, prepare_simulation, simulate


def planar_model(gamma=0.0, rate_bound=0.0, c=0.0):
    # drift (0.1, -0.2); diffusion diag(0.5, 0.3); binary offspring
    return M.ModelParams(
        dim=2, noise_dim=2, controls=M.ControlSet.of_size(1),
        drift=(M.constant_vector([0.1, -0.2]),),
        diffusion=(M.constant_vector([0.5, 0.0, 0.0, 0.3]),),
        death_rate=(M.constant(gamma),),
        offspring=((M.constant(0.5), M.constant(0.0)),),
        running_cost=(M.constant(c),),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                   amplitude=0.8, center=(0.0, 0.0), width=1.0),
        rate_bound=rate_bound, mean_offspring_bound=1.0, max_children=2,
    )


START = {(): np.zeros(2)}


def test_terminal_law_in_two_dimensions():
    m = planar_model()
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.25, 1.0)
    ends = np.array([simulate(setup, seed, record_paths=False).final[()]
                     for seed in range(3000)])
    assert np.allclose(ends.mean(axis=0), [0.1, -0.2], atol=0.05)
    assert abs(ends[:, 0].std() - 0.5) < 0.03
    assert abs(ends[:, 1].std() - 0.3) < 0.03


def test_branching_positions_are_vectors():
    m = planar_model(gamma=1.0, rate_bound=1.0)
    p = simulate(prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.1, 2.0), 5)
    for lab, x in p.final.items():
        assert x.shape == (2,)


def test_dynkin_residual_two_dimensional():
    m = planar_model(gamma=0.8, rate_bound=1.0, c=0.1)
    u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.2,
                                     scale=0.6, decay=0.3,
                                     center=(0.0, 0.0), width=0.9)
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 2e-3, 0.5)
    est = estimator.dynkin_residual(setup, u, 2000, 404)
    assert abs(est.mean) <= 3 * est.stderr + 0.5 * 2e-3


def test_moment_bound_two_dimensional():
    m = planar_model(gamma=1.0, rate_bound=1.0)
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, 0.5, 1.5)
    sums = estimator.run_replications(setup, 1000, 3)
    rep = estimator.moment_check(sums, setup)
    assert rep.bound == math.exp(1.5)
    assert rep.passed
