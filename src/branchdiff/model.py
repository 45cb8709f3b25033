"""Model coefficients, the generator, their validity checks, and
offspring-interval geometry.

A model bundles the drift, diffusion, death rate, offspring distribution,
running cost and terminal cost of a controlled branching diffusion, together
with the global bounds (dominating death rate, mean-offspring bound) that the
simulator's thinning construction and the moment bound depend on.
:func:`generator` is the one definition of the operator L^a of the value
equation; the PDE solver, the feedback policy and the martingale-residual
integrand all evaluate it.

Coefficients are declarative family specs rather than arbitrary callables so
that model files serialize, coupled experiments can perturb parameters
numerically, and sup-norm distances between two specs of the same family come
out in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

PROB_TOL = 1e-12

# each family, with its parameters that hold one entry per coordinate of x
_FAMILIES = {"constant": (), "affine": ("slope",), "gaussian-bump": ("center",),
             "logistic": ("slope", "center")}


@dataclass(frozen=True)
class CoefficientSpec:
    """A scalar field on R^d from a small set of closed-form families.

    Families
    --------
    constant:       value
    affine:         intercept + slope . x
    gaussian-bump:  offset + amplitude * exp(-|x - center|^2 / (2 width^2))
    logistic:       lo + (hi - lo) / (1 + exp(-slope . (x - center)))

    Every family evaluates totally on R^d.
    """

    family: str
    value: float = 0.0
    intercept: float = 0.0
    slope: tuple[float, ...] = ()
    offset: float = 0.0
    amplitude: float = 0.0
    center: tuple[float, ...] = ()
    width: float = 1.0
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown coefficient family {self.family!r}")
        if self.family == "gaussian-bump" and self.width <= 0:
            raise ConfigurationError("gaussian-bump width must be positive")
        # the vector parameters as float arrays, made once instead of per call
        object.__setattr__(self, "_slope", np.asarray(self.slope, dtype=float))
        object.__setattr__(self, "_center", np.asarray(self.center, dtype=float))

    @property
    def state_independent(self) -> bool:
        """True when the field is constant in x."""
        if self.family == "gaussian-bump":
            return self.amplitude == 0.0
        return self.family == "constant" or all(s == 0.0 for s in self.slope)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points x of shape (..., d); returns shape (...), a 0-d
        value for one point.  One formula serves a point and a batch, so a
        point's value equals its row of a batch bit for bit."""
        if self.family == "constant":
            return np.full(np.shape(x)[:-1], self.value)
        if self.family == "affine":
            return self.intercept + x @ self._slope
        diff = x - self._center
        if self.family == "gaussian-bump":
            q = np.einsum("...i,...i->...", diff, diff) / (2.0 * self.width * self.width)
            return self.offset + self.amplitude * np.exp(-q)
        s = diff @ self._slope
        return self.lo + (self.hi - self.lo) / (1.0 + np.exp(-s))

    def bounds(self) -> tuple[float, float]:
        """Range of the field over all of R^d (closed form; inf for affine)."""
        if self.family == "constant":
            return (self.value, self.value)
        if self.family == "affine":
            if self.state_independent:
                return (self.intercept, self.intercept)
            return (-math.inf, math.inf)
        if self.family == "gaussian-bump":
            lo = min(self.offset, self.offset + self.amplitude)
            hi = max(self.offset, self.offset + self.amplitude)
            return (lo, hi)
        return (min(self.lo, self.hi), max(self.lo, self.hi))


def sup_distance(a: CoefficientSpec, b: CoefficientSpec) -> float:
    """Supremum over R^d of |a(x) - b(x)|.

    Exact when the two specs share family and shape parameters (slope, center,
    width); otherwise a safe upper bound derived from the families' ranges
    (infinite when either range is unbounded).
    """
    if a.family == b.family:
        if a.family == "constant":
            return abs(a.value - b.value)
        if a.family == "affine" and a.slope == b.slope:
            return abs(a.intercept - b.intercept)
        if a.family == "gaussian-bump" and a.center == b.center and a.width == b.width:
            d_off = a.offset - b.offset
            d_amp = a.amplitude - b.amplitude
            # the bump factor spans (0, 1]; |d_amp * q + d_off| is convex in q
            return max(abs(d_off), abs(d_amp + d_off))
        if a.family == "logistic" and a.slope == b.slope and a.center == b.center:
            return max(abs(a.lo - b.lo), abs(a.hi - b.hi))
    lo_a, hi_a = a.bounds()
    lo_b, hi_b = b.bounds()
    if not all(map(math.isfinite, (lo_a, hi_a, lo_b, hi_b))):
        return math.inf
    return max(hi_a - lo_b, hi_b - lo_a, 0.0)


def _stack_last(values: list) -> np.ndarray:
    """``np.stack(values, axis=-1)`` for numpy values of one shape, without
    its per-call checks: a point's values cost a microsecond, not three."""
    return np.concatenate([v[..., None] for v in values], axis=-1)


@dataclass(frozen=True)
class VectorSpec:
    """A vector field assembled from per-component scalar specs."""

    components: tuple[CoefficientSpec, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(..., d) points -> (..., len(components)) values."""
        return _stack_last([c(x) for c in self.components])


def vector_sup_distance(a: VectorSpec, b: VectorSpec) -> float:
    """Upper bound on sup |a(x) - b(x)| (Euclidean), from per-component sups."""
    if len(a.components) != len(b.components):
        raise ConfigurationError("vector specs of different lengths")
    per = [sup_distance(ca, cb) for ca, cb in zip(a.components, b.components)]
    return math.sqrt(sum(p * p for p in per))


def constant(value: float) -> CoefficientSpec:
    return CoefficientSpec(family="constant", value=value)


def constant_vector(values) -> VectorSpec:
    return VectorSpec(tuple(constant(float(v)) for v in values))


@dataclass(frozen=True)
class ControlSet:
    """Finite ordered control set; controls are referred to by index.

    Each control may carry a real-vector payload (used only for reporting;
    coefficient specs are listed per control index).
    """

    payloads: tuple[tuple[float, ...] | None, ...]

    def __post_init__(self):
        if len(self.payloads) == 0:
            raise ConfigurationError("control set must be non-empty")

    @classmethod
    def of_size(cls, n: int) -> "ControlSet":
        return cls(payloads=(None,) * n)

    def __len__(self) -> int:
        return len(self.payloads)

    @property
    def indices(self) -> range:
        return range(len(self.payloads))


def _per_control(name: str, items, n: int) -> tuple:
    items = tuple(items)
    if len(items) == 1 and n > 1:
        items = items * n
    if len(items) != n:
        raise ConfigurationError(
            f"{name}: expected one spec per control ({n}), got {len(items)}")
    return items


# the ModelParams method that evaluates each field of Coefficients (cov from sigma)
_FIELD_METHODS = {"drift": "drift_many", "cov": "diffusion_many",
                  "death_rate": "death_rate_many", "probs": "offspring_probs_many",
                  "cost": "running_cost_many"}


@dataclass(frozen=True)
class ModelParams:
    """Coefficient bundle of one controlled branching diffusion.

    ``offspring`` lists, per control, the specs of the offspring-count
    probabilities.  When ``offspring_residual_last`` is set the list has
    ``max_children`` entries and the last probability is defined as one minus
    their sum, so the distribution normalizes exactly by construction;
    otherwise all ``max_children + 1`` probabilities are explicit and
    validation checks their sum.
    """

    dim: int
    noise_dim: int
    controls: ControlSet
    drift: tuple[VectorSpec, ...]
    diffusion: tuple[VectorSpec, ...]
    death_rate: tuple[CoefficientSpec, ...]
    offspring: tuple[tuple[CoefficientSpec, ...], ...]
    running_cost: tuple[CoefficientSpec, ...]
    terminal: CoefficientSpec
    rate_bound: float
    mean_offspring_bound: float
    max_children: int
    offspring_residual_last: bool = True

    def __post_init__(self):
        n = len(self.controls)
        if self.dim < 1 or self.noise_dim < 1:
            raise ConfigurationError("dim and noise_dim must be positive")
        if self.rate_bound < 0:
            raise ConfigurationError("rate bound must be nonnegative")
        if self.max_children < 0:
            raise ConfigurationError("max_children must be nonnegative")
        object.__setattr__(self, "drift", _per_control("drift", self.drift, n))
        object.__setattr__(self, "diffusion", _per_control("diffusion", self.diffusion, n))
        object.__setattr__(self, "death_rate", _per_control("death_rate", self.death_rate, n))
        object.__setattr__(self, "offspring", _per_control("offspring", self.offspring, n))
        object.__setattr__(self, "running_cost",
                           _per_control("running_cost", self.running_cost, n))
        want = self.max_children if self.offspring_residual_last else self.max_children + 1
        for a, probs in enumerate(self.offspring):
            if len(probs) != want:
                raise ConfigurationError(
                    f"offspring[{a}]: expected {want} probability specs, got {len(probs)}")
        named = [("terminal", self.terminal)]
        for a in self.controls.indices:
            if len(self.drift[a].components) != self.dim:
                raise ConfigurationError(f"drift[{a}]: expected {self.dim} components")
            if len(self.diffusion[a].components) != self.dim * self.noise_dim:
                raise ConfigurationError(
                    f"diffusion[{a}]: expected {self.dim * self.noise_dim} components "
                    "(row-major d x m)")
            named += [(f"drift[{a}][{i}]", c) for i, c in enumerate(self.drift[a].components)]
            named += [(f"diffusion[{a}][{i}]", c)
                      for i, c in enumerate(self.diffusion[a].components)]
            named += [(f"death_rate[{a}]", self.death_rate[a]),
                      (f"running_cost[{a}]", self.running_cost[a])]
            named += [(f"offspring[{a}][{k}]", p) for k, p in enumerate(self.offspring[a])]
        for name, spec in named:
            for key in _FAMILIES[spec.family]:
                if len(getattr(spec, key)) != self.dim:
                    raise ConfigurationError(
                        f"{name}: {key} has length {len(getattr(spec, key))}, "
                        f"expected dim = {self.dim}")

    # -- evaluation over (..., d) position arrays ------------------------------

    def drift_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.drift[a](xs)

    def diffusion_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        flat = self.diffusion[a](xs)
        return flat.reshape(*flat.shape[:-1], self.dim, self.noise_dim)

    def death_rate_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.death_rate[a](xs)

    def offspring_probs_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        """(..., d) points -> (..., max_children + 1) probabilities."""
        cols = [p(xs) for p in self.offspring[a]]
        if self.offspring_residual_last:
            # summed in order at any n (np.sum over the last axis pairs terms
            # up at n = 1), so a position-free row equals the rows of many points
            cols.append(1.0 - sum(cols, np.zeros(np.shape(xs)[:-1])))
        return _stack_last(cols)

    def running_cost_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.running_cost[a](xs)

    def terminal_many(self, xs: np.ndarray) -> np.ndarray:
        return self.terminal(xs)

    # -- the same at one point x of shape (d,), for the simulator and the tracer

    drift_at = drift_many
    diffusion_at = diffusion_many
    offspring_probs_at = offspring_probs_many

    def death_rate_at(self, x: np.ndarray, a: int) -> float:
        return float(self.death_rate[a](x))

    def running_cost_at(self, x: np.ndarray, a: int) -> float:
        return float(self.running_cost[a](x))

    def terminal_at(self, x: np.ndarray) -> float:
        return float(self.terminal(x))

    def coefficients(self, xs: np.ndarray) -> "Coefficients":
        """Every control's coefficients at the (n, d) points ``xs``, each
        field by :meth:`field`.  When no field depends on the position this
        is one cached object, whatever ``xs`` is."""
        if self._position_free:
            return self._rows
        return Coefficients(*(self.field(name, xs) for name in Coefficients._fields))

    def field(self, name: str, xs: np.ndarray) -> np.ndarray:
        """Field ``name`` of :class:`Coefficients` for every control at the
        (n, d) points ``xs``.  A field that no control's coefficient makes
        position-dependent is a read-only row computed once per model: one
        value without point or control axis when every control's row is the
        same, bit for bit (drift (d,), cov (d, d), death_rate (), probs
        (K + 1,), cost ()), else (n_controls, 1, ...).  Any other field is
        evaluated at every point for every control, (n_controls, n, ...)."""
        row = getattr(self._rows, name)
        if row is not None:
            return row
        return np.stack([self._field_at(name, xs, a) for a in self.controls.indices])

    def _field_at(self, name: str, xs: np.ndarray, a: int) -> np.ndarray:
        values = getattr(self, _FIELD_METHODS[name])(xs, a)
        return values @ np.swapaxes(values, -1, -2) if name == "cov" else values

    def _field_specs(self, name: str, a: int) -> tuple[CoefficientSpec, ...]:
        return {"drift": self.drift[a].components, "cov": self.diffusion[a].components,
                "death_rate": (self.death_rate[a],), "probs": self.offspring[a],
                "cost": (self.running_cost[a],)}[name]

    @functools.cached_property
    def constants(self) -> tuple[Coefficients, ...]:
        """Per control, each field of :class:`Coefficients` at one point,
        shape (1, ...) and read-only, where none of that control's specs for
        the field depends on the position; None where one does.  A value
        that overflows is left as it is, to be reported where it is used."""
        origin = np.zeros((1, self.dim))
        table = []
        with np.errstate(over="ignore", invalid="ignore"):
            for a in self.controls.indices:
                fields = []
                for name in Coefficients._fields:
                    value = None
                    if all(spec.state_independent for spec in self._field_specs(name, a)):
                        value = self._field_at(name, origin, a)
                        value.flags.writeable = False
                    fields.append(value)
                table.append(Coefficients(*fields))
        return tuple(table)

    @functools.cached_property
    def _rows(self) -> Coefficients:
        """Per field, the read-only row of :meth:`field`, or None where some
        control's coefficient depends on the position."""
        fields = []
        for values in zip(*self.constants):
            if any(v is None for v in values):
                fields.append(None)
                continue
            if all(v.tobytes() == values[0].tobytes() for v in values):
                row = values[0][0, ...]
            else:
                row = np.stack(values)
            row.flags.writeable = False
            fields.append(row)
        return Coefficients(*fields)

    @functools.cached_property
    def _position_free(self) -> bool:
        return all(row is not None for row in self._rows)

    def __getstate__(self):
        # a copy rebuilds its own constants and rows, read-only like these
        state = dict(self.__dict__)
        for name in ("constants", "_rows", "_position_free"):
            state.pop(name, None)
        return state

    def motion_control_independent(self) -> bool:
        return all(self.drift[a] == self.drift[0] and self.diffusion[a] == self.diffusion[0]
                   for a in self.controls.indices)


class Coefficients(NamedTuple):
    """Coefficients at n points, each field with a leading control axis
    (:meth:`ModelParams.coefficients`).  A field may instead be one row
    (n = 1) that holds at every point, or, when every control shares it, one
    value without point or control axis (:meth:`ModelParams.field`).  The
    shapes below are those of one control at n points."""

    drift: np.ndarray       # (n, d)
    cov: np.ndarray         # (n, d, d): sigma sigma^T
    death_rate: np.ndarray  # (n,)
    probs: np.ndarray       # (n, max_children + 1): offspring probabilities
    cost: np.ndarray        # (n,): running cost


def generator(coef: Coefficients, r, grad, hess, out=None, *, skip=frozenset(),
              clip=True) -> np.ndarray:
    """The operator of the value equation applied at n points:

        L^a u = b . grad + 1/2 sum_ij (sigma sigma^T)_ij hess_ij
                + gamma sum_k p_k (rc^k - rc) - c r,

    with rc = r clipped to [-1, 1].  ``r`` has shape (n,), ``grad`` (n, d) and
    ``hess`` (n, d, d); leading axes (one per control, say) broadcast against
    those of ``coef``, and so do a position-free row of ``coef`` (n = 1) and
    a field given without point and control axes (:meth:`ModelParams.field`),
    whose terms are then computed once for every control.  The zero-order
    term carries the branching: the summand form (rc^k - rc) vanishes at
    r = 1 exactly, probability rounding notwithstanding.  The result, into
    ``out`` when it is given (an array of the result's shape, same bits as a
    fresh result), is summed as written:
    ((b . grad + 1/2 sigma sigma^T : hess) + branching) - c r.

    Only the terms there are get computed: the k = 1 summand p_1 (rc - rc)
    is skipped, and so is the term of each field in ``skip``, which must be
    zero in ``coef`` everywhere (the solver passes the fields that are zero
    at its nodes for every control); in one dimension b . grad and sigma
    sigma^T : hess are single products, not sums over axes of length one.
    ``clip=False`` leaves out the clip, which changes no r in [-1, 1].  For
    finite coefficients and arguments the bits are those of the formula as
    written, summed term by term from +0.0:

    - The written formula never gives -0.0 unless a NaN is involved: its two
      sums start from +0.0, and a sum or difference whose first operand is
      not -0.0 is not -0.0 under rounding to nearest, so neither is any
      later partial result.
    - Each skipped step changes a value at most in the sign of a zero: p_1
      (rc - rc) and a term whose coefficient is zero are signed zeros for
      finite rc and arguments (for NaN rc the k = 0 term is NaN already),
      and a sum over one term differs from the term only when it is -0.0.
      Sums, differences and products with finite operands keep such a
      difference to the sign of a zero.
    - The result may thus be -0.0 where the written formula gives +0.0, and
      the closing ``+ 0.0`` maps exactly those back.
    """
    one_dim = grad.shape[-1] == 1
    # out of place up to the last step: a term made of fields the controls
    # share lacks the control axis of the result
    terms = []
    if "drift" not in skip:
        # np.add.reduce is ndarray.sum without its per-call wrapper
        terms.append(coef.drift[..., 0] * grad[..., 0] if one_dim
                     else np.add.reduce(coef.drift * grad, -1))
    if "cov" not in skip:
        curvature = (coef.cov[..., 0, 0] * hess[..., 0, 0] if one_dim
                     else np.add.reduce(coef.cov * hess, (-2, -1)))
        curvature *= 0.5
        terms.append(curvature)
    if "death_rate" not in skip:
        # np.clip costs more per call
        rc = np.minimum(np.maximum(r, -1.0), 1.0) if clip else r
        probs = coef.probs
        branching = probs[..., 0] * (1.0 - rc)
        for k in range(2, probs.shape[-1]):
            power = rc**k
            power -= rc
            branching += probs[..., k] * power
        terms.append(branching * coef.death_rate)
    lead = functools.reduce(np.add, terms) if terms else np.zeros(np.shape(r))
    if "cost" in skip:
        return np.add(lead, 0.0, out=out)
    result = np.subtract(lead, coef.cost * r, out=out)
    result += 0.0
    return result


def check_comparable(params: ModelParams, other: ModelParams) -> None:
    """Raise :class:`ConfigurationError` unless the models share rate bound,
    offspring support, dimensions and control count."""
    if (params.rate_bound != other.rate_bound
            or params.max_children != other.max_children
            or params.dim != other.dim or params.noise_dim != other.noise_dim
            or len(params.controls) != len(other.controls)):
        raise ConfigurationError("models are not comparable: they must share rate "
                                 "bound, offspring support, dimensions and control count")


def coefficient_distance(params: ModelParams, other: ModelParams) -> float:
    """Sup-norm distance between two models' dynamics coefficients:
    drift + diffusion + death rate + 2^-k weighted offspring probabilities.

    This is the quantity the coupling-success probability is controlled by.
    """
    check_comparable(params, other)
    ctrls = params.controls.indices
    d_b = max(vector_sup_distance(params.drift[a], other.drift[a]) for a in ctrls)
    d_s = max(vector_sup_distance(params.diffusion[a], other.diffusion[a]) for a in ctrls)
    d_g = max(sup_distance(params.death_rate[a], other.death_rate[a]) for a in ctrls)
    d_p = 0.0
    for k in range(params.max_children + 1):
        worst = max(_offspring_prob_sup_distance(params, other, a, k) for a in ctrls)
        d_p += worst / 2.0**k
    return d_b + d_s + d_g + d_p


def _offspring_prob_sup_distance(p1: ModelParams, p2: ModelParams, a: int, k: int) -> float:
    last = p1.max_children
    s1 = None if (p1.offspring_residual_last and k == last) else p1.offspring[a][k]
    s2 = None if (p2.offspring_residual_last and k == last) else p2.offspring[a][k]
    if s1 is not None and s2 is not None:
        return sup_distance(s1, s2)
    # residual probabilities: |p_last - q_last| <= sum of the other gaps
    gaps = 0.0
    for j in range(last):
        gaps += sup_distance(p1.offspring[a][j], p2.offspring[a][j])
    return gaps


def perturbed_copy(params: ModelParams, eps: float) -> ModelParams:
    """A model at coefficient distance ``eps`` from ``params``: the budget is
    split equally between drift (first component), death rate and offspring
    probabilities (first probability raised, the residual absorbing it).

    The perturbed coefficients must be constant-family and the perturbed
    death rate must stay under the shared rate bound, so pick models with
    headroom.  Used by the coupling-stability ladder.
    """
    if eps < 0:
        raise ConfigurationError("perturbation size must be nonnegative")
    if not params.offspring_residual_last:
        raise ConfigurationError("perturbation requires residual-last offspring")
    if params.max_children < 1:
        raise ConfigurationError("perturbation requires at least one offspring spec")
    eps_each = eps / 3.0
    eps_p = eps_each / (1.0 + 2.0**-params.max_children)
    drift, death, offspring = [], [], []
    for a in params.controls.indices:
        b0 = params.drift[a].components[0]
        g = params.death_rate[a]
        p0 = params.offspring[a][0]
        if not (b0.family == "constant" and g.family == "constant"
                and p0.family == "constant"):
            raise ConfigurationError(
                "perturbation requires constant drift, death rate and offspring")
        if g.value + eps_each > params.rate_bound + PROB_TOL:
            raise ConfigurationError(
                f"perturbed death rate {g.value + eps_each} would exceed the "
                f"rate bound {params.rate_bound}")
        drift.append(VectorSpec((constant(b0.value + eps_each),)
                                + params.drift[a].components[1:]))
        death.append(constant(g.value + eps_each))
        offspring.append((constant(p0.value + eps_p),) + params.offspring[a][1:])
    return ModelParams(
        dim=params.dim, noise_dim=params.noise_dim, controls=params.controls,
        drift=tuple(drift), diffusion=params.diffusion, death_rate=tuple(death),
        offspring=tuple(offspring), running_cost=params.running_cost,
        terminal=params.terminal, rate_bound=params.rate_bound,
        mean_offspring_bound=params.mean_offspring_bound,
        max_children=params.max_children, offspring_residual_last=True)


# -- offspring intervals ------------------------------------------------------

def offspring_boundaries(x: np.ndarray, a: int, params: ModelParams) -> np.ndarray:
    """Boundaries 0 = b_0 <= b_1 <= ... <= b_{K+1} = gamma(x, a) of the
    offspring intervals; interval k is [b_k, b_{k+1})."""
    gamma = params.death_rate_at(x, a)
    probs = params.offspring_probs_at(x, a)
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    bounds = gamma * cum
    bounds[-1] = gamma  # the partition ends at gamma exactly
    return bounds


# -- validation ---------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    control: int | None
    point: tuple[float, ...] | None
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, control, point, detail: str) -> None:
        pt = tuple(float(v) for v in np.atleast_1d(point)) if point is not None else None
        self.violations.append(Violation(kind, control, pt, detail))

    def summary(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for v in self.violations:
            where = "" if v.point is None else f" at x={list(v.point)}"
            ctrl = "" if v.control is None else f" control={v.control}"
            lines.append(f"{v.kind}{ctrl}{where}: {v.detail}")
        return "\n".join(lines)


def validate_params(params: ModelParams, probe_points) -> ValidationReport:
    """Check every model invariant at each probe point.

    Violations are data, not exceptions: the report lists everything found.
    ``probe_points`` is an iterable of (x, a) pairs; ``a = None`` probes all
    controls at that point.  A check of fields that are position-free for a
    control (:attr:`ModelParams.constants`) runs at its first probe only.
    """
    probe_points = list(probe_points)
    if not probe_points:
        raise ConfigurationError("probe_points must be non-empty")
    report = ValidationReport()
    seen_x, done = [], set()
    # a value that overflows is reported as a violation, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for x, a in probe_points:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            seen_x.append(x)
            controls = params.controls.indices if a is None else [a]
            for ctrl in controls:
                _validate_point(params, x, ctrl, report, done)
        for x in seen_x:
            g = params.terminal_at(x)
            if not -PROB_TOL <= g <= 1.0 + PROB_TOL:
                report.add("terminal-range", None, x, f"g(x)={g!r} outside [0, 1]")
    return report


def _validate_point(params: ModelParams, x: np.ndarray, a: int,
                    report: ValidationReport, done: set) -> None:
    def due(*fields) -> bool:   # False once a position-free check has run
        if (a, fields) in done:
            return False
        if all(getattr(params.constants[a], name) is not None for name in fields):
            done.add((a, fields))
        return True

    if due("death_rate"):
        gamma = params.death_rate_at(x, a)
        if gamma < -PROB_TOL:
            report.add("rate-negative", a, x, f"death rate {gamma!r} < 0")
        if gamma > params.rate_bound + PROB_TOL:
            report.add("rate-bound", a, x,
                       f"death rate {gamma!r} exceeds bound {params.rate_bound!r}")
    if due("probs"):
        probs = params.offspring_probs_at(x, a)
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            report.add("probability-sum", a, x,
                       f"offspring probabilities sum to {total!r}, not 1")
        for k, p in enumerate(probs):
            if p < -PROB_TOL or p > 1.0 + PROB_TOL:
                report.add("probability-range", a, x,
                           f"p_{k}={float(p)!r} outside [0, 1]")
        mean = float(np.dot(np.arange(len(probs)), probs))
        if mean > params.mean_offspring_bound + PROB_TOL:
            report.add("mean-offspring", a, x,
                       f"mean offspring {mean!r} exceeds bound "
                       f"{params.mean_offspring_bound!r}")
    if due("drift", "cov"):
        b, sig = params.drift_at(x, a), params.diffusion_at(x, a)
        cov = sig @ sig.T
        if not (np.isfinite(b).all() and np.isfinite(cov).all()):
            report.add("motion-non-finite", a, x, f"drift {b.tolist()} or sigma "
                       f"sigma^T {cov.tolist()} is not finite")
    if due("cost"):
        c = params.running_cost_at(x, a)
        if not math.isfinite(c):
            report.add("cost-non-finite", a, x, f"running cost {c!r} is not finite")
        elif c < -PROB_TOL:
            report.add("cost-negative", a, x, f"running cost {c!r} < 0")
