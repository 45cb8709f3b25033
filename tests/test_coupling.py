import math

import numpy as np
import pytest

from branchdiff import model as M
from branchdiff.errors import ConfigurationError
from branchdiff.estimator import coupling_probe
from branchdiff.simulator import (ConstantPolicy, coupled_setup, prepare_simulation,
                                  simulate_coupled)
from path_equality import paths_equal

X0 = np.zeros(1)
START = {(): X0}


def subcritical(gamma=0.6, p0=0.7, b=0.1, sigma=0.3, rate_bound=1.0, n_controls=1):
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(n_controls),
        drift=(M.constant_vector([b]),),
        diffusion=(M.constant_vector([sigma]),),
        death_rate=(M.constant(gamma),),
        offspring=((M.constant(p0), M.constant(0.0)),),
        running_cost=(M.constant(0.0),),
        terminal=M.constant(0.5),
        rate_bound=rate_bound, mean_offspring_bound=1.0, max_children=2,
    )


def setups(m, m_tilde, step, horizon):
    """The set-ups of two models from one founder at the origin."""
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), m, step, horizon)
    return setup, coupled_setup(setup, m_tilde)


def test_identical_parameters_always_succeed():
    m = subcritical()
    pair = setups(m, m, 0.05, 1.5)
    for seed in range(50):
        p1, p2, ok = simulate_coupled(*pair, 0.05, seed)
        assert ok
        assert paths_equal(p1, p2)


def test_opposite_rates_rarely_succeed():
    # every ring is real in one system and phantom in the other, so success
    # requires no ring at all before the horizon
    on = subcritical(gamma=1.0, rate_bound=1.0)
    off = subcritical(gamma=0.0, rate_bound=1.0)
    horizon = 2.303  # one-particle ring probability about 0.9
    n = 2000
    hits = 0
    pair = setups(on, off, 0.5, horizon)
    for seed in range(n):
        _, _, ok = simulate_coupled(*pair, 0.05, seed)
        hits += ok
    rate = hits / n
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / n)
    assert rate <= 0.1 + 3 * se + 0.02


def test_success_rate_monotone_in_perturbation():
    base = subcritical()
    rates = []
    setup = prepare_simulation(0.0, START, ConstantPolicy(0), base, 0.05, 1.0)
    for eps in (0.3, 0.03, 0.003):
        tilde = M.perturbed_copy(base, eps)
        rep = coupling_probe(setup, tilde, 0.05, 1500, seed_base=100)
        rates.append(rep.rate)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] >= 0.99


def test_divergence_reported_not_raised():
    on = subcritical(gamma=1.0)
    milder = subcritical(gamma=0.2)
    p1, p2, ok = simulate_coupled(*setups(on, milder, 0.25, 4.0), 0.05, 3)
    # paths finish either way; disagreement only flips the flag
    assert p1.horizon == p2.horizon == 4.0
    assert isinstance(ok, bool)


def test_position_tolerance_enforced():
    base = subcritical(gamma=0.0, rate_bound=1.0, b=0.0)
    shifted = subcritical(gamma=0.0, rate_bound=1.0, b=1.0)
    # identical event skeletons (all phantoms), but drift gap 1.0 over T=1
    pair = setups(base, shifted, 0.05, 1.0)
    _, _, tight = simulate_coupled(*pair, 0.05, 0)
    _, _, loose = simulate_coupled(*pair, 5.0, 0)
    assert not tight
    assert loose


def test_structural_mismatch_rejected():
    m1 = subcritical(rate_bound=1.0)
    for m2 in (subcritical(rate_bound=2.0), subcritical(n_controls=2)):
        with pytest.raises(ConfigurationError, match="not comparable"):
            setups(m1, m2, 0.1, 1.0)
        with pytest.raises(ConfigurationError, match="not comparable"):
            M.coefficient_distance(m1, m2)
