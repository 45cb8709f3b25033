"""Hand-made models that more than one test module uses, defined once, and
the hypothesis strategy that draws models."""

import numpy as np
from hypothesis import strategies as st

from branchdiff import model as M


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


def state_dependent_two_control():
    """Control 0 has a position-dependent drift and running cost; control 1
    is position-free.  Neither dominates, so both are chosen."""
    bump = M.CoefficientSpec(family="gaussian-bump", offset=0.05, amplitude=0.5,
                             center=(0.5,), width=0.7)
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.VectorSpec((M.CoefficientSpec(family="affine", intercept=0.1,
                                               slope=(-0.4,)),)),
               M.constant_vector([0.0])),
        diffusion=(M.constant_vector([0.45]),),
        death_rate=(M.constant(0.8), M.constant(0.3)),
        offspring=((M.constant(0.5), M.constant(0.0)),),
        running_cost=(bump, M.constant(0.2)),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.15,
                                   amplitude=0.7, center=(0.0,), width=0.8),
        rate_bound=0.8, mean_offspring_bound=1.0, max_children=2)


def shared_drift_two_control():
    """Two controls that share the drift (negative, so the backward
    difference is picked) but not the diffusion, death rate, offspring or
    running cost; three children, so the k = 3 branching term is exercised.
    Neither dominates, so both are chosen."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([-0.2]),),
        diffusion=(M.constant_vector([0.3]), M.constant_vector([0.6])),
        death_rate=(M.constant(0.7), M.constant(0.2)),
        offspring=((M.constant(0.5), M.constant(0.1), M.constant(0.0)),
                   (M.constant(0.3), M.constant(0.2), M.constant(0.1))),
        running_cost=(M.constant(0.3), M.constant(0.1)),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                   amplitude=0.8, center=(0.3,), width=0.9),
        rate_bound=0.8, mean_offspring_bound=1.6, max_children=3)


def opposite_drifts():
    """Two position-free controls whose drifts point opposite ways, so that
    each reads its own upwind slope."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.3]), M.constant_vector([-0.25])),
        diffusion=(M.constant_vector([0.4]),),
        death_rate=(M.constant(0.6), M.constant(0.3)),
        offspring=((M.constant(0.4), M.constant(0.2)),),
        running_cost=(M.constant(0.2), M.constant(0.1)),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.1,
                                   amplitude=0.8, center=(0.0,), width=0.9),
        rate_bound=0.6, mean_offspring_bound=1.4, max_children=2)


def partly_shared():
    """Two controls sharing drift and offspring but not diffusion, death rate
    or running cost."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([-0.2]),),
        diffusion=(M.constant_vector([0.3]), M.constant_vector([0.6])),
        death_rate=(M.constant(0.7), M.constant(0.2)),
        offspring=((M.constant(0.5), M.constant(0.1)),),
        running_cost=(M.constant(0.3), M.constant(0.1)),
        terminal=M.constant(0.5), rate_bound=0.8, mean_offspring_bound=1.5,
        max_children=2)


def two_dim_two_control():
    """d = 2 with two noise coordinates.  Both controls' drifts depend on the
    position; control 0's diffusion and running cost do too, control 1's do
    not.  The death rates are position-free but differ between the controls,
    and the offspring law is shared."""
    def affine(intercept, *slope):
        return M.CoefficientSpec(family="affine", intercept=intercept, slope=slope)

    def logistic(lo, hi, *slope):
        return M.CoefficientSpec(family="logistic", lo=lo, hi=hi, slope=slope,
                                 center=(0.1, -0.2))

    return M.ModelParams(
        dim=2, noise_dim=2, controls=M.ControlSet.of_size(2),
        drift=(M.VectorSpec((affine(0.1, -0.4, 0.1), affine(-0.05, 0.2, -0.3))),
               M.VectorSpec((affine(0.0, 0.0, 0.15), M.constant(0.2)))),
        diffusion=(M.VectorSpec((logistic(0.2, 0.5, 1.0, 0.0), M.constant(0.1),
                                 affine(0.05, 0.02, 0.0), logistic(0.3, 0.4, 0.0, -1.5))),
                   M.constant_vector([0.35, 0.0, 0.05, 0.3])),
        death_rate=(M.constant(0.7), M.constant(0.25)),
        offspring=((M.constant(0.4), M.constant(0.2)),),
        running_cost=(M.CoefficientSpec(family="gaussian-bump", offset=0.05,
                                        amplitude=0.4, center=(0.3, -0.1), width=0.8),
                      M.constant(0.15)),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.1, amplitude=0.8,
                                   center=(0.0, 0.0), width=0.9),
        rate_bound=0.7, mean_offspring_bound=1.4, max_children=2)


def two_control_motion():
    """Drift and diffusion differ per control, so the engine asks the policy
    for the control of every Euler step as the particle moves."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.4]),
               M.VectorSpec((M.CoefficientSpec(family="affine", intercept=-0.2,
                                               slope=(-0.5,)),))),
        diffusion=(M.constant_vector([0.3]), M.constant_vector([0.7])),
        death_rate=(M.constant(0.8),),
        offspring=((M.constant(0.4), M.constant(0.2)),),
        running_cost=(M.constant(0.1), M.constant(0.4)),
        terminal=M.CoefficientSpec(family="gaussian-bump", offset=0.2,
                                   amplitude=0.7, center=(0.0,), width=0.8),
        rate_bound=1.0, mean_offspring_bound=1.2, max_children=2)


def state_dependent():
    """Motion, death rate and offspring all depend on the position, so no
    part of the event geometry or the motion can be cached."""
    affine = M.VectorSpec((M.CoefficientSpec(family="affine", intercept=0.1,
                                             slope=(-0.4,)),))
    logistic = M.CoefficientSpec(family="logistic", lo=0.2, hi=0.9, slope=(2.0,),
                                 center=(0.0,))
    bump = M.CoefficientSpec(family="gaussian-bump", offset=0.2, amplitude=0.3,
                             center=(0.5,), width=0.7)
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(1),
        drift=(affine,),
        diffusion=(M.VectorSpec((M.CoefficientSpec(
            family="affine", intercept=0.3, slope=(0.05,)),)),),
        death_rate=(logistic,), offspring=((bump, M.constant(0.1)),),
        running_cost=(M.constant(0.2),),
        terminal=M.constant(0.5),
        rate_bound=1.0, mean_offspring_bound=1.5, max_children=2)


# models whose generator lacks a term at every point and control: the
# solver's and the feedback policy's pins on them hold whether or not a
# term with a zero coefficient is computed

def _bump(offset, amplitude, center, width):
    return M.CoefficientSpec(family="gaussian-bump", offset=offset, amplitude=amplitude,
                             center=(center,), width=width)


def _logistic(lo, hi, slope, center):
    return M.CoefficientSpec(family="logistic", lo=lo, hi=hi, slope=(slope,),
                             center=(center,))


def transport_two_control():
    """Pure transport: no diffusion, a position-dependent drift that changes
    sign and a constant one of the other sign.  Neither control dominates."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.VectorSpec((M.CoefficientSpec(family="affine", intercept=0.3,
                                               slope=(-0.2,)),)),
               M.constant_vector([-0.4])),
        diffusion=(M.constant_vector([0.0]),),
        death_rate=(M.constant(0.5), M.constant(0.3)),
        offspring=((M.constant(0.4), M.constant(0.2)),),
        running_cost=(M.constant(0.1), M.constant(0.2)),
        terminal=_bump(0.1, 0.8, 0.3, 0.6),
        rate_bound=0.5, mean_offspring_bound=1.0, max_children=2)


def still_two_control():
    """No motion (b = sigma = 0); control 0's death rate and control 1's
    running cost depend on the position, so each node solves its own ODE."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.0]),),
        diffusion=(M.constant_vector([0.0]),),
        death_rate=(_logistic(0.2, 0.9, 1.5, 0.0), M.constant(0.4)),
        offspring=((M.constant(0.5), M.constant(0.0)),
                   (M.constant(0.3), M.constant(0.3))),
        running_cost=(M.constant(0.05), _bump(0.1, 0.3, -0.5, 0.8)),
        terminal=_bump(0.1, 0.8, 0.0, 0.9),
        rate_bound=0.9, mean_offspring_bound=1.1, max_children=2)


def costless_motion():
    """Drift and diffusion, one drift position-dependent, and no running
    cost for either control."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.VectorSpec((M.CoefficientSpec(family="affine", intercept=-0.1,
                                               slope=(-0.3,)),)),
               M.constant_vector([0.2])),
        diffusion=(M.constant_vector([0.4]), M.constant_vector([0.25])),
        death_rate=(M.constant(0.6), M.constant(0.4)),
        offspring=((M.constant(0.4), M.constant(0.2)),),
        running_cost=(M.constant(0.0),),
        terminal=_bump(0.1, 0.8, 0.2, 0.7),
        rate_bound=0.6, mean_offspring_bound=1.0, max_children=2)


def deathless():
    """No particle dies (death rate zero): motion and a running cost that
    depends on the position for control 1."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.2]), M.constant_vector([-0.1])),
        diffusion=(M.constant_vector([0.3]),),
        death_rate=(M.constant(0.0),),
        offspring=((M.constant(0.5), M.constant(0.0)),),
        running_cost=(M.constant(0.1), _bump(0.02, 0.3, 0.4, 0.6)),
        terminal=_bump(0.1, 0.8, -0.2, 0.8),
        rate_bound=0.0, mean_offspring_bound=1.0, max_children=2)


def driftless_two_control():
    """Zero drift for both controls while the diffusion, death rate and
    running cost of one or the other depend on the position."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.constant_vector([0.0]),),
        diffusion=(M.VectorSpec((_logistic(0.2, 0.5, 1.0, 0.0),)),
                   M.constant_vector([0.3])),
        death_rate=(_logistic(0.3, 0.8, -1.0, 1.5), M.constant(0.3)),
        offspring=((M.constant(0.5), M.constant(0.0)),),
        running_cost=(M.constant(0.3), _bump(0.05, 0.2, 0.0, 0.7)),
        terminal=_bump(0.15, 0.7, 0.0, 0.8),
        rate_bound=0.8, mean_offspring_bound=1.0, max_children=2)


def far_bump_two_control():
    """Control 0's drift and running cost are gaussian bumps centred at
    x = 1000: position-dependent, yet exactly 0.0 at every point within a
    few hundred of the origin, where exp underflows.  Control 1 has neither,
    and the two differ in death rate and offspring so that both are chosen."""
    return M.ModelParams(
        dim=1, noise_dim=1, controls=M.ControlSet.of_size(2),
        drift=(M.VectorSpec((_bump(0.0, 0.5, 1000.0, 1.0),)),
               M.constant_vector([0.0])),
        diffusion=(M.constant_vector([0.35]),),
        death_rate=(M.constant(0.8), M.constant(0.5)),
        offspring=((M.constant(0.5), M.constant(0.0)),
                   (M.constant(0.6), M.constant(0.3))),
        running_cost=(_bump(0.0, 0.3, 1000.0, 1.0), M.constant(0.0)),
        terminal=_bump(0.1, 0.8, 0.0, 0.8),
        rate_bound=0.8, mean_offspring_bound=1.0, max_children=2)


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


def flat_model(spec, max_children=2):
    """A two-dimensional model whose every coefficient is ``spec``."""
    return M.ModelParams(
        dim=2, noise_dim=2, controls=M.ControlSet.of_size(1),
        drift=(M.VectorSpec((spec,) * 2),), diffusion=(M.VectorSpec((spec,) * 4),),
        death_rate=(spec,), offspring=((spec,) * max_children,),
        running_cost=(spec,), terminal=M.constant(0.5), rate_bound=1.0,
        mean_offspring_bound=float(max_children), max_children=max_children)


@st.composite
def coefficient_models(draw, dims=(1, 2), kinds=("shared", "per control", "dependent")):
    """Models of 1 to 3 controls in d in ``dims`` whose every field of
    :class:`~branchdiff.model.Coefficients` is drawn, among ``kinds``,
    position-free and shared by the controls, position-free and different in
    each control, or position-dependent in one control's spec; the
    position-free specs come from every family."""
    n_controls, d = draw(st.integers(1, 3)), draw(st.sampled_from(dims))
    noise_dim, max_children = draw(st.sampled_from((1, 2))), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=5, max_size=5))
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
