import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdiff import model as M
from branchdiff.errors import ConfigurationError
from branchdiff.modelio import load_model
from model_cases import partly_shared, state_dependent_two_control, two_dim_two_control

X0 = np.zeros(1)


def binary_model(p0=0.5, gamma=1.0, rate_bound=1.0, mean_bound=1.0,
                 residual=True, p2=None):
    if residual:
        offspring = ((M.constant(p0), M.constant(0.0)),)
    else:
        offspring = ((M.constant(p0), M.constant(0.0), M.constant(p2)),)
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
        drift=(M.constant_vector([0.0]),),
        diffusion=(M.constant_vector([0.0]),),
        death_rate=(M.constant(gamma),),
        offspring=offspring,
        running_cost=(M.constant(0.0),),
        terminal=M.constant(0.0),
        rate_bound=rate_bound, mean_offspring_bound=mean_bound, max_children=2,
        offspring_residual_last=residual,
    )


class TestValidation:
    def test_binary_model_passes(self):
        report = M.validate_params(binary_model(), [(X0, None)])
        assert report.ok
        assert report.summary() == "ok"

    def test_probability_sum_violation(self):
        bad = binary_model(p0=0.5, residual=False, p2=0.4)
        report = M.validate_params(bad, [(X0, 0)])
        assert not report.ok
        assert any(v.kind == "probability-sum" for v in report.violations)

    def test_rate_bound_violation(self):
        bad = binary_model(gamma=2.0, rate_bound=1.0)
        report = M.validate_params(bad, [(X0, 0)])
        # plain floats, not 0-d array reprs, reach the message
        assert [v.detail for v in report.violations if v.kind == "rate-bound"] == [
            "death rate 2.0 exceeds bound 1.0"]

    def test_mean_offspring_violation(self):
        bad = binary_model(p0=0.1, mean_bound=1.0)  # mean = 2 * 0.9 = 1.8
        report = M.validate_params(bad, [(X0, 0)])
        assert any(v.kind == "mean-offspring" for v in report.violations)

    def test_non_finite_running_cost_violation(self):
        # the bump overflows to inf at its center and stays finite away from it
        cost = M.CoefficientSpec(family="gaussian-bump", offset=1e308, amplitude=1e308,
                                 center=(0.0,), width=1.0)
        bad = dataclasses.replace(binary_model(), running_cost=(cost,))
        report = M.validate_params(bad, [(X0, 0), (np.array([5.0]), 0)])
        assert [(v.kind, v.point, v.detail) for v in report.violations] == [
            ("cost-non-finite", (0.0,), "running cost inf is not finite")]

    def test_position_free_violation_reported_once_per_control(self):
        """A bad constant is reported at each control's first probe point; a
        bad field that depends on the position at every probe where it is
        bad."""
        base = load_model(MODELS / "two_control_harvest.yaml")
        falling = M.CoefficientSpec(family="affine", intercept=0.1, slope=(-1.0,))
        bad = dataclasses.replace(base, diffusion=(M.constant_vector([1e160]),),
                                  running_cost=(base.running_cost[0], falling))
        probes = [(np.array([x]), None) for x in (-1.0, 0.0, 0.5, 1.0, 2.0)]
        report = M.validate_params(bad, probes)
        assert [(v.kind, v.control, v.point) for v in report.violations] == [
            ("motion-non-finite", 0, (-1.0,)), ("motion-non-finite", 1, (-1.0,)),
            ("cost-negative", 1, (0.5,)), ("cost-negative", 1, (1.0,)),
            ("cost-negative", 1, (2.0,))]

    def test_empty_probes_rejected(self):
        with pytest.raises(ConfigurationError):
            M.validate_params(binary_model(), [])


def interval_overlap(x, y, a, params, params_tilde):
    """Oracle: Lebesgue measure of the marks the two models classify alike,
    the union over k of the k-th offspring interval intersections plus the
    shared phantom segment up to the common rate bound."""
    M.coefficient_distance(params, params_tilde)   # rejects models that are not comparable
    b1 = M.offspring_boundaries(x, a, params)
    b2 = M.offspring_boundaries(y, a, params_tilde)
    total = 0.0
    for k in range(len(b1) - 1):
        lo = max(b1[k], b2[k])
        hi = min(b1[k + 1], b2[k + 1])
        if hi > lo:
            total += hi - lo
    top = params.rate_bound - max(b1[-1], b2[-1])
    if top > 0:
        total += top
    return min(total, params.rate_bound)


class TestOffspringIntervals:
    # interval k of the partition of [0, gamma) is [b_k, b_{k+1})
    def test_binary_partition(self):
        bounds = M.offspring_boundaries(X0, 0, binary_model())
        assert bounds.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_zero_rate_degenerate(self):
        bounds = M.offspring_boundaries(X0, 0, binary_model(gamma=0.0))
        assert np.all(np.diff(bounds) == 0.0)

    def test_lengths_scale_with_rate(self):
        m = M.ModelParams(
            dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
            drift=(M.constant_vector([0.0]),),
            diffusion=(M.constant_vector([0.0]),),
            death_rate=(M.constant(2.0),),
            offspring=((M.constant(0.25), M.constant(0.25)),),
            running_cost=(M.constant(0.0),),
            terminal=M.constant(0.0),
            rate_bound=2.0, mean_offspring_bound=1.5, max_children=2)
        assert M.offspring_boundaries(X0, 0, m).tolist() == [0.0, 0.5, 1.0, 2.0]

    def test_lengths_sum_to_rate_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p0, p1 = rng.dirichlet([1, 1, 1])[:2]
            gamma = rng.uniform(0, 1)
            m = binary_model(p0=p0, gamma=gamma)
            m = M.ModelParams(
                dim=1, noise_dim=1, controls=m.controls, drift=m.drift,
                diffusion=m.diffusion, death_rate=(M.constant(gamma),),
                offspring=((M.constant(p0), M.constant(p1)),),
                running_cost=m.running_cost, terminal=m.terminal,
                rate_bound=1.0, mean_offspring_bound=2.0, max_children=2)
            bounds = M.offspring_boundaries(X0, 0, m)
            total = sum(np.diff(bounds))
            assert abs(total - gamma) <= 1e-12
            assert bounds[0] == 0.0
            assert bounds[-1] == gamma


class TestIntervalOverlap:
    def test_identical_models_full_overlap(self):
        m = binary_model()
        assert interval_overlap(X0, X0, 0, m, m) == m.rate_bound

    def test_hand_union(self):
        m1 = binary_model(p0=0.5)
        m2 = binary_model(p0=0.4)
        got = interval_overlap(X0, X0, 0, m1, m2)
        assert got == pytest.approx(0.9, abs=1e-12)

    def test_disjoint_rates(self):
        m1 = binary_model(gamma=1.0)
        m2 = binary_model(gamma=0.0)
        assert interval_overlap(X0, X0, 0, m1, m2) == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_rate_bound_rejected(self):
        m1 = binary_model(rate_bound=1.0)
        m2 = binary_model(rate_bound=2.0)
        with pytest.raises(ConfigurationError):
            interval_overlap(X0, X0, 0, m1, m2)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    def test_symmetry(self, p0a, p0b, ga, gb):
        m1 = binary_model(p0=p0a, gamma=ga)
        m2 = binary_model(p0=p0b, gamma=gb)
        lhs = interval_overlap(X0, X0, 0, m1, m2)
        rhs = interval_overlap(X0, X0, 0, m2, m1)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_overlap_gap_shrinks_with_perturbation(self):
        base = binary_model(p0=0.5, gamma=0.6, rate_bound=1.0)
        gaps = []
        for eps in (0.3, 0.03, 0.003):
            tilde = M.perturbed_copy(base, eps)
            overlap = interval_overlap(X0, X0, 0, base, tilde)
            gaps.append(base.rate_bound - overlap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01


def curved_specs(d):
    """One spec of each family, position-dependent where the family can be."""
    return (M.constant(0.7),
            M.CoefficientSpec(family="affine", intercept=0.5, slope=(1.0, 2.0)[:d]),
            M.CoefficientSpec(family="gaussian-bump", offset=0.2, amplitude=0.3,
                              center=(0.1, -0.1)[:d], width=0.8),
            M.CoefficientSpec(family="logistic", lo=0.1, hi=0.9,
                              slope=(0.5, -0.5)[:d], center=(0.0, 0.0)[:d]))


def curved_model(d):
    """A d-dimensional model whose offspring probabilities and diffusion vary
    with position."""
    const, affine, bump, logistic = curved_specs(d)
    small = M.CoefficientSpec(family="logistic", lo=0.05, hi=0.3,
                              slope=logistic.slope, center=logistic.center)
    return M.ModelParams(
        dim=d, noise_dim=2, controls=M.ControlSet.of_size(1),
        drift=(M.VectorSpec((bump,) * d),),
        diffusion=(M.VectorSpec((const, affine, bump, logistic)[:2 * d]),),
        death_rate=(bump,), offspring=((bump, small),), running_cost=(const,),
        terminal=bump, rate_bound=1.0, mean_offspring_bound=2.0, max_children=2)


class TestCoefficientSpecs:
    def test_families_evaluate(self):
        x = np.array([0.3, -0.2])
        affine = M.CoefficientSpec(family="affine", intercept=1.0, slope=(2.0, -1.0))
        assert affine(x) == pytest.approx(1.0 + 0.6 + 0.2)
        bump = M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                 amplitude=0.5, center=(0.0, 0.0), width=1.0)
        assert bump(np.zeros(2)) == pytest.approx(0.6)
        logi = M.CoefficientSpec(family="logistic", lo=0.0, hi=1.0,
                                 slope=(1.0, 0.0), center=(0.0, 0.0))
        assert logi(np.zeros(2)) == pytest.approx(0.5)

    def test_eval_many_matches_scalar(self):
        """A point's value equals its entry of any batch, bit for bit."""
        rng = np.random.default_rng(1)
        for d in (1, 2):
            specs = curved_specs(d)
            params = curved_model(d)
            xs = rng.normal(size=(4, 5, d))
            for spec in specs:
                assert spec(xs[0, 0]).shape == ()
                each = np.array([[spec(x) for x in row] for row in xs])
                assert spec(xs).tobytes() == each.tobytes()
                assert spec(xs[1]).tobytes() == each[1].tobytes()
            for at, many in ((params.offspring_probs_at, params.offspring_probs_many),
                             (params.diffusion_at, params.diffusion_many)):
                each = np.array([[at(x, 0) for x in row] for row in xs])
                assert many(xs, 0).tobytes() == each.tobytes()
                assert many(xs[1], 0).tobytes() == each[1].tobytes()

    def test_sup_distance_exact_cases(self):
        a = M.constant(0.3)
        b = M.constant(0.8)
        assert M.sup_distance(a, b) == pytest.approx(0.5)
        g1 = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.5,
                               center=(0.0,), width=1.0)
        g2 = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.7,
                               center=(0.0,), width=1.0)
        assert M.sup_distance(g1, g2) == pytest.approx(0.2)
        a1 = M.CoefficientSpec(family="affine", intercept=0.0, slope=(1.0,))
        a2 = M.CoefficientSpec(family="affine", intercept=0.0, slope=(2.0,))
        assert M.sup_distance(a1, a2) == math.inf

    def test_sup_distance_bounds_actual_gap(self):
        rng = np.random.default_rng(3)
        g1 = M.CoefficientSpec(family="gaussian-bump", offset=0.2, amplitude=0.4,
                               center=(0.3,), width=0.7)
        g2 = M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.5,
                               center=(-0.2,), width=0.9)
        bound = M.sup_distance(g1, g2)
        xs = rng.normal(scale=3, size=(500, 1))
        actual = np.abs(g1(xs) - g2(xs)).max()
        assert actual <= bound + 1e-12


def test_perturbed_copy_distance():
    base = binary_model(p0=0.5, gamma=0.6, rate_bound=1.0)
    for eps in (0.1, 0.01, 0.001):
        tilde = M.perturbed_copy(base, eps)
        assert M.coefficient_distance(base, tilde) == pytest.approx(eps, rel=1e-9)
    with pytest.raises(ConfigurationError):
        M.perturbed_copy(binary_model(gamma=1.0, rate_bound=1.0), 0.1)


def test_offspring_distribution_normalizes_by_construction():
    m = binary_model(p0=0.3)
    probs = m.offspring_probs_at(X0, 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(probs, [0.3, 0.0, 0.7])


# ---------------------------------------------------------------------------
# position-free coefficient rows

MODELS = Path(__file__).resolve().parents[1] / "configs" / "models"

FLAT_SPECS = {
    "constant": M.constant(0.35),
    "affine": M.CoefficientSpec(family="affine", intercept=0.3, slope=(0.0, 0.0)),
    "logistic": M.CoefficientSpec(family="logistic", lo=0.1, hi=0.5, slope=(0.0, 0.0),
                                  center=(0.2, -0.1)),
    "gaussian-bump": M.CoefficientSpec(family="gaussian-bump", offset=0.25,
                                       amplitude=0.0, center=(0.3, 0.3), width=0.6),
}


def flat_model(spec, max_children=2):
    """A two-dimensional model whose every coefficient is ``spec``."""
    return M.ModelParams(
        dim=2, noise_dim=2, controls=M.ControlSet.of_size(1),
        drift=(M.VectorSpec((spec,) * 2),), diffusion=(M.VectorSpec((spec,) * 4),),
        death_rate=(spec,), offspring=((spec,) * max_children,),
        running_cost=(spec,), terminal=M.constant(0.5), rate_bound=1.0,
        mean_offspring_bound=float(max_children), max_children=max_children)


ROW_CASES = {
    **{name: (lambda n=name: load_model(MODELS / f"{n}.yaml"))
       for name in ("critical_binary", "subcritical_drift", "two_control_harvest")},
    **{f"flat_{fam}": (lambda s=spec: flat_model(s)) for fam, spec in FLAT_SPECS.items()},
    # enough children that a pairwise sum of the probabilities would differ
    "ten_children": lambda: flat_model(M.constant(0.0713), max_children=10),
}


STACKED_CASES = {**ROW_CASES, "partly_shared": partly_shared}
# the fields each model shares among its controls (one control shares all)
SHARED_FIELDS = {"two_control_harvest": {"drift", "cov", "probs"},
                 "partly_shared": {"drift", "probs"}}


def reference_coefficients(params, xs, a):
    """Control ``a``'s coefficients at the (n, d) points ``xs``, from the
    ``*_many`` methods."""
    sig = params.diffusion_many(xs, a)
    return M.Coefficients(drift=params.drift_many(xs, a), cov=sig @ sig.transpose(0, 2, 1),
                          death_rate=params.death_rate_many(xs, a),
                          probs=params.offspring_probs_many(xs, a),
                          cost=params.running_cost_many(xs, a))


def position_dependent(params, name, controls=None):
    """Whether the spec of field ``name`` of some control in ``controls``
    (every control when None) depends on the position."""
    specs = {"drift": [v.components for v in params.drift],
             "cov": [v.components for v in params.diffusion],
             "death_rate": [(c,) for c in params.death_rate],
             "probs": params.offspring,
             "cost": [(c,) for c in params.running_cost]}[name]
    controls = params.controls.indices if controls is None else controls
    return not all(spec.state_independent for a in controls for spec in specs[a])


def check_field_rule(params, seed):
    """``params.coefficients`` at random points follows the per-field rule,
    in the model and in a pickled copy, which rebuilds its rows; one
    generator call on it gives each control the bits the generator gives on
    that control's coefficients alone."""
    rng = np.random.default_rng(seed)
    n, d, n_controls = 37, params.dim, len(params.controls)
    xs = rng.uniform(-5.0, 5.0, (n, d))
    r = rng.uniform(-1.5, 1.5, n)
    grad, hess = rng.normal(size=(n, d)), rng.normal(size=(n, d, d))
    refs = [reference_coefficients(params, xs, a) for a in params.controls.indices]
    coef = params.coefficients(xs)
    copy = pickle.loads(pickle.dumps(params))
    assert "_rows" not in vars(copy)
    for name, got, from_copy, per_control in zip(M.Coefficients._fields, coef,
                                                 copy.coefficients(xs), zip(*refs)):
        core = per_control[0].shape[1:]
        assert params.field(name, xs).tobytes() == got.tobytes()
        assert (from_copy.shape, from_copy.tobytes()) == (got.shape, got.tobytes())
        if position_dependent(params, name):
            assert got.shape == (n_controls, n) + core
        else:
            assert not got.flags.writeable and not from_copy.flags.writeable
            shared = all(v.tobytes() == per_control[0].tobytes() for v in per_control)
            assert got.shape == (core if shared else (n_controls, 1) + core)
        every = np.broadcast_to(got, (n_controls, n) + core)
        for a, want in enumerate(per_control):
            assert every[a].tobytes() == want.tobytes()
    every = np.broadcast_to(M.generator(coef, r, grad, hess), (n_controls, n))
    for a, ref in enumerate(refs):
        assert every[a].tobytes() == M.generator(ref, r, grad, hess).tobytes()


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_rows_match_per_point_coefficients(name):
    check_field_rule(STACKED_CASES[name](), seed=5)


@st.composite
def coefficient_models(draw):
    """Models of 1 to 3 controls in d = 1 or 2 whose every field of
    :class:`~branchdiff.model.Coefficients` is drawn position-free and
    shared by the controls, position-free and different in each control, or
    position-dependent in one control's spec; the position-free specs come
    from every family."""
    n_controls, d = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2)))
    noise_dim, max_children = draw(st.sampled_from((1, 2))), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("shared", "per control", "dependent")),
                          min_size=5, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def flat(value):
        center, zeros = tuple(rng.uniform(-1.0, 1.0, d)), (0.0,) * d
        return [M.constant(value),
                M.CoefficientSpec(family="affine", intercept=value, slope=zeros),
                M.CoefficientSpec(family="gaussian-bump", offset=value, amplitude=0.0,
                                  center=center, width=0.7),
                M.CoefficientSpec(family="logistic", lo=value - 0.1, hi=value + 0.1,
                                  slope=zeros, center=center)][rng.integers(4)]

    def sloped(value):
        slope, center = tuple(rng.uniform(0.1, 0.5, d)), tuple(rng.uniform(-1.0, 1.0, d))
        return [M.CoefficientSpec(family="affine", intercept=value, slope=slope),
                M.CoefficientSpec(family="gaussian-bump", offset=value, amplitude=0.3,
                                  center=center, width=0.7),
                M.CoefficientSpec(family="logistic", lo=value - 0.1, hi=value + 0.1,
                                  slope=slope, center=center)][rng.integers(3)]

    def specs(kind, count):
        """Per control, the ``count`` specs of one field."""
        values = rng.uniform(0.1, 0.5, count)
        step = 0.0 if kind == "shared" else 0.1
        per_control = [[flat(v + step * a) for v in values] for a in range(n_controls)]
        if kind == "dependent":
            j = rng.integers(count)
            per_control[rng.integers(n_controls)][j] = sloped(values[j])
        return per_control

    drift, diffusion, death, probs, cost = (
        specs(kind, count) for kind, count in zip(kinds, (d, d * noise_dim, 1,
                                                          max_children, 1)))
    return M.ModelParams(
        dim=d, noise_dim=noise_dim, controls=M.ControlSet.of_size(n_controls),
        drift=tuple(M.VectorSpec(tuple(s)) for s in drift),
        diffusion=tuple(M.VectorSpec(tuple(s)) for s in diffusion),
        death_rate=tuple(s[0] for s in death), offspring=tuple(tuple(s) for s in probs),
        running_cost=tuple(s[0] for s in cost), terminal=M.constant(0.5), rate_bound=1.0,
        mean_offspring_bound=float(max_children), max_children=max_children)


@settings(max_examples=100, deadline=None)
@given(coefficient_models(), st.integers(0, 2**32 - 1))
def test_coefficients_follow_the_field_rule(params, seed):
    check_field_rule(params, seed)


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_stacked_rows_match_per_control_rows(name):
    """A position-free model's coefficients are one cached object whatever
    the points: a field every control shares is one row without point or
    control axis, any other is stacked over the controls, (n_controls, 1,
    ...)."""
    params = STACKED_CASES[name]()
    shared = SHARED_FIELDS.get(name, set(M.Coefficients._fields))
    d, n_controls = params.dim, len(params.controls)
    rows = params.coefficients(np.zeros((3, d)))
    assert params.coefficients(np.ones((7, d))) is rows
    cores = [(d,), (d, d), (), (params.max_children + 1,), ()]
    for field, row, core in zip(M.Coefficients._fields, rows, cores):
        assert row.shape == (core if field in shared else (n_controls, 1) + core)


def test_rows_read_only_after_pickle():
    """The rows of a model and those its pickled copy rebuilds are the same
    bits, and read-only."""
    for params in (load_model(MODELS / "two_control_harvest.yaml"), partly_shared()):
        xs = np.zeros((3, 1))
        rows = params.coefficients(xs)         # the rows exist before pickling
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and "_rows" not in vars(copy)
        for got, want in zip(copy.coefficients(xs), rows):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            for arr in (got, want):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0


def test_no_stacked_rows_for_position_dependent_model():
    """Once one control's drift depends on the position the model has no one
    cached set of coefficients: the drift is evaluated per point, while the
    position-free fields stay the model's cached rows, stacked over the
    controls where they differ."""
    sloped = M.VectorSpec((M.CoefficientSpec(family="affine", intercept=0.1,
                                             slope=(0.2,)),))
    params = dataclasses.replace(partly_shared(), drift=(sloped, partly_shared().drift[1]))
    xs, ys = np.zeros((3, 1)), np.ones((4, 1))
    coef, other = params.coefficients(xs), params.coefficients(ys)
    assert coef is not other
    assert coef.drift.shape == (2, 3, 1) and other.drift.shape == (2, 4, 1)
    assert coef.drift.flags.writeable
    for name in M.Coefficients._fields[1:]:
        row = getattr(coef, name)
        assert row is getattr(other, name) is params.field(name, ys)
        assert not row.flags.writeable
    assert [getattr(coef, name).shape for name in M.Coefficients._fields[1:]] == [
        (2, 1, 1, 1), (2, 1), (3,), (2, 1)]


def test_stacked_rows_rebuilt_after_pickle():
    """A pickled copy of a model whose controls differ in some fields does
    not carry the rows; it rebuilds them, stacked the same way, bit for bit,
    read-only, and caches them for any points."""
    params = partly_shared()
    xs = np.zeros((3, 1))
    rows = params.coefficients(xs)
    copy = pickle.loads(pickle.dumps(params))
    assert "_rows" not in vars(copy)
    rebuilt = copy.coefficients(xs)
    assert copy.coefficients(np.ones((7, 1))) is rebuilt
    for got, want in zip(rebuilt, rows):
        assert got is not want
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_position_dependent_control_gets_every_point():
    """A field that one control's spec makes position-dependent is evaluated
    at every point for every control; the other fields stay rows."""
    base = load_model(MODELS / "two_control_harvest.yaml")
    sloped = M.VectorSpec((M.CoefficientSpec(family="affine", intercept=0.1,
                                             slope=(0.2,)),))
    params = M.ModelParams(
        dim=1, noise_dim=1, controls=base.controls, drift=(sloped, base.drift[1]),
        diffusion=base.diffusion, death_rate=base.death_rate, offspring=base.offspring,
        running_cost=base.running_cost, terminal=base.terminal,
        rate_bound=base.rate_bound, mean_offspring_bound=base.mean_offspring_bound,
        max_children=base.max_children)
    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    coef = params.coefficients(xs)
    assert [f.shape for f in coef] == [(2, 5, 1), (1, 1), (2, 1), (3,), (2, 1)]
    np.testing.assert_array_equal(coef.drift[0, :, 0], 0.1 + 0.2 * xs[:, 0])
    np.testing.assert_array_equal(coef.drift[1, :, 0], 0.0)
    assert [f.flags.writeable for f in coef] == [True, False, False, False, False]


CONSTANTS_CASES = {**STACKED_CASES,
                   "state_dependent_two_control": state_dependent_two_control,
                   "two_dim_two_control": two_dim_two_control}


def check_constants(params):
    """Each control's table entry of a field is None exactly where that
    control's specs for it depend on the position, and otherwise the
    read-only value at the origin, shape (1, ...), with the bits of the
    ``*_many`` methods; a pickled copy rebuilds the table."""
    origin = np.zeros((1, params.dim))
    table = params.constants
    copy = pickle.loads(pickle.dumps(params))
    assert "constants" not in vars(copy)
    assert len(table) == len(copy.constants) == len(params.controls)
    for a, (entries, rebuilt) in enumerate(zip(table, copy.constants)):
        want = reference_coefficients(params, origin, a)
        for name, got, again, ref in zip(M.Coefficients._fields, entries, rebuilt, want):
            if position_dependent(params, name, [a]):
                assert got is None and again is None
                continue
            assert ref.shape[0] == 1
            for arr in (got, again):
                assert not arr.flags.writeable
                assert (arr.shape, arr.tobytes()) == (ref.shape, ref.tobytes())


@pytest.mark.parametrize("name", sorted(CONSTANTS_CASES))
def test_constants_follow_each_controls_specs(name):
    check_constants(CONSTANTS_CASES[name]())


@settings(max_examples=100, deadline=None)
@given(coefficient_models())
def test_constants_of_drawn_models(params):
    check_constants(params)


def generator_one_expression(coef, r, grad, hess):
    """L^a u written as one expression, each intermediate a fresh array, its
    two sums summed from +0.0 and the k = 1 branching term included: the
    reference for the generator's bits."""
    rc = np.minimum(np.maximum(r, -1.0), 1.0)
    probs = coef.probs
    branching = probs[..., 0] * (1.0 - rc)
    for k in range(1, probs.shape[-1]):
        branching += probs[..., k] * (rc**k - rc)
    return (np.add.reduce(coef.drift * grad, -1)
            + 0.5 * np.add.reduce(coef.cov * hess, (-2, -1))
            + coef.death_rate * branching - coef.cost * r)


@st.composite
def generator_inputs(draw):
    """(coef, r, grad, hess) in each layout the package feeds the generator
    (:meth:`~branchdiff.model.ModelParams.field`), drawn per field: a row
    that every control shares (no point or control axis), a row per control
    (n_controls, 1, ...) or values at the n points per control
    (n_controls, n, ...).  The points may carry a leading axis of one, as on
    a solver layer.  max_children is 0 to 3 or 10; a quarter or, in a third
    of the draws, four fifths of the entries are -0.0, 0.0, 1.0 or -1.0 in
    every field (so that every term of some results is a signed zero), r
    reaches past [-1, 1], and in half the draws a fifth of r, grad and hess
    is NaN."""
    d, n = draw(st.sampled_from((1, 2))), draw(st.integers(1, 12))
    n_controls = draw(st.sampled_from((1, 2, 3)))
    n_probs = draw(st.sampled_from((1, 2, 3, 4, 11)))
    leads = draw(st.lists(st.sampled_from(((), (n_controls, 1), (n_controls, n))),
                          min_size=5, max_size=5))
    points_lead = draw(st.sampled_from(((), (1,))))
    special_share = draw(st.sampled_from((0.25, 0.25, 0.8)))
    with_nan = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def array(*shape):
        special = rng.choice([-0.0, 0.0, 1.0, -1.0], shape)
        return np.where(rng.random(shape) < special_share, special,
                        rng.uniform(-3.0, 3.0, shape))

    fields = []
    for core, lead in zip(((d,), (d, d), (), (n_probs,), ()), leads):
        fields.append(array(*lead, *core))
    points = [array(*points_lead, n), array(*points_lead, n, d),
              array(*points_lead, n, d, d)]
    if with_nan:
        for arr in points:
            arr[rng.random(arr.shape) < 0.2] = np.nan
    return (M.Coefficients(*fields), *points)


@settings(max_examples=400)
@given(generator_inputs())
def test_generator_into_out_matches_fresh_result(inputs):
    """The generator gives the bits of the formula as written, summed term
    by term from +0.0 with the k = 1 branching term, into ``out`` or not;
    NaN where that formula gives NaN."""
    coef, r, grad, hess = inputs
    expected = generator_one_expression(coef, r, grad, hess)
    nan = np.isnan(expected)
    for out in (None, np.full(expected.shape, 7.0)):
        got = M.generator(coef, r, grad, hess, out=out)
        assert got.shape == expected.shape
        assert out is None or got is out
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()


@settings(max_examples=400)
@given(generator_inputs(), st.sets(st.sampled_from(("drift", "cov", "death_rate", "cost"))),
       st.booleans())
def test_generator_skips_zero_fields(inputs, zeroed, in_range):
    """With the fields ``zeroed`` made signed zeros and finite r, grad and
    hess, the generator that skips their terms gives the bits of the
    formula as written (broadcast to its shape: a skipped term may have
    carried an axis), into ``out`` or not; with r in [-1, 1] it does so
    without the clip too."""
    coef, r, grad, hess = inputs
    coef = coef._replace(**{name: getattr(coef, name) * 0.0 for name in zeroed})
    r, grad, hess = (np.nan_to_num(arr, nan=0.5) for arr in (r, grad, hess))
    if in_range:
        r = np.minimum(np.maximum(r, -1.0), 1.0)
    expected = generator_one_expression(coef, r, grad, hess)
    for out in (None, np.full(expected.shape, 7.0)):
        got = M.generator(coef, r, grad, hess, out=out, skip=zeroed, clip=not in_range)
        assert out is None or got is out
        assert np.broadcast_to(got, expected.shape).tobytes() == expected.tobytes()
