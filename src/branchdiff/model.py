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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

PROB_TOL = 1e-12

_FAMILIES = ("constant", "affine", "gaussian-bump", "logistic")


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

    @property
    def state_independent(self) -> bool:
        """True when the field is constant in x."""
        if self.family == "constant":
            return True
        if self.family == "affine":
            return all(s == 0.0 for s in self.slope)
        if self.family == "logistic":
            return all(s == 0.0 for s in self.slope)
        if self.family == "gaussian-bump":
            return self.amplitude == 0.0
        return False

    def __call__(self, x: np.ndarray) -> float:
        """Evaluate at a single point x of shape (d,)."""
        if self.family == "constant":
            return self.value
        if self.family == "affine":
            return self.intercept + float(np.dot(self.slope, x))
        if self.family == "gaussian-bump":
            diff = x - np.asarray(self.center, dtype=float)
            q = float(np.dot(diff, diff)) / (2.0 * self.width * self.width)
            return self.offset + self.amplitude * math.exp(-q)
        # logistic
        diff = x - np.asarray(self.center, dtype=float)
        s = float(np.dot(self.slope, diff))
        return self.lo + (self.hi - self.lo) / (1.0 + math.exp(-s))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points; returns shape (n,)."""
        xs = np.asarray(xs, dtype=float)
        n = xs.shape[0]
        if self.family == "constant":
            return np.full(n, self.value)
        if self.family == "affine":
            return self.intercept + xs @ np.asarray(self.slope, dtype=float)
        if self.family == "gaussian-bump":
            diff = xs - np.asarray(self.center, dtype=float)
            q = np.sum(diff * diff, axis=1) / (2.0 * self.width * self.width)
            return self.offset + self.amplitude * np.exp(-q)
        diff = xs - np.asarray(self.center, dtype=float)
        s = diff @ np.asarray(self.slope, dtype=float)
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


@dataclass(frozen=True)
class VectorSpec:
    """A vector field assembled from per-component scalar specs."""

    components: tuple[CoefficientSpec, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.array([c(x) for c in self.components])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """(n, d) points -> (n, len(components)) values."""
        return np.stack([c.eval_many(xs) for c in self.components], axis=1)

    @property
    def state_independent(self) -> bool:
        return all(c.state_independent for c in self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.state_independent and c.bounds() == (0.0, 0.0)
                   for c in self.components)


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
        if n < 1:
            raise ConfigurationError("control set must be non-empty")
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
    lipschitz_bound: float = 0.0
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
        for a in self.controls.indices:
            if len(self.drift[a].components) != self.dim:
                raise ConfigurationError(f"drift[{a}]: expected {self.dim} components")
            if len(self.diffusion[a].components) != self.dim * self.noise_dim:
                raise ConfigurationError(
                    f"diffusion[{a}]: expected {self.dim * self.noise_dim} components "
                    "(row-major d x m)")

    # -- pointwise evaluation -------------------------------------------------

    def drift_at(self, x: np.ndarray, a: int) -> np.ndarray:
        return self.drift[a](x)

    def diffusion_at(self, x: np.ndarray, a: int) -> np.ndarray:
        return self.diffusion[a](x).reshape(self.dim, self.noise_dim)

    def death_rate_at(self, x: np.ndarray, a: int) -> float:
        return self.death_rate[a](x)

    def offspring_probs_at(self, x: np.ndarray, a: int) -> np.ndarray:
        probs = np.array([p(x) for p in self.offspring[a]])
        if self.offspring_residual_last:
            probs = np.append(probs, 1.0 - probs.sum())
        return probs

    def running_cost_at(self, x: np.ndarray, a: int) -> float:
        return self.running_cost[a](x)

    def terminal_at(self, x: np.ndarray) -> float:
        return self.terminal(x)

    # -- vectorized evaluation over (n, d) position arrays --------------------

    def drift_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.drift[a].eval_many(xs)

    def diffusion_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        flat = self.diffusion[a].eval_many(xs)
        return flat.reshape(len(xs), self.dim, self.noise_dim)

    def death_rate_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.death_rate[a].eval_many(xs)

    def offspring_probs_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        """(n, d) points -> (n, max_children + 1) probabilities."""
        cols = [p.eval_many(xs) for p in self.offspring[a]]
        if self.offspring_residual_last:
            residual = 1.0 - (np.sum(cols, axis=0) if cols else np.zeros(len(xs)))
            cols.append(residual)
        return np.stack(cols, axis=1)

    def running_cost_many(self, xs: np.ndarray, a: int) -> np.ndarray:
        return self.running_cost[a].eval_many(xs)

    def terminal_many(self, xs: np.ndarray) -> np.ndarray:
        return self.terminal.eval_many(xs)

    def coefficients(self, xs: np.ndarray, a: int) -> "Coefficients":
        """Every coefficient of control ``a`` at the (n, d) points ``xs``."""
        sig = self.diffusion_many(xs, a)
        return Coefficients(drift=self.drift_many(xs, a),
                            cov=sig @ sig.transpose(0, 2, 1),
                            death_rate=self.death_rate_many(xs, a),
                            probs=self.offspring_probs_many(xs, a),
                            cost=self.running_cost_many(xs, a))

    # -- structure queries used by the simulator fast paths -------------------

    def motion_state_independent(self, a: int) -> bool:
        return self.drift[a].state_independent and self.diffusion[a].state_independent

    def motion_control_independent(self) -> bool:
        return all(self.drift[a] == self.drift[0] and self.diffusion[a] == self.diffusion[0]
                   for a in self.controls.indices)

    def diffusion_is_zero(self) -> bool:
        return all(self.diffusion[a].is_zero for a in self.controls.indices)

    def cost_is_zero(self) -> bool:
        return all(self.running_cost[a].state_independent
                   and self.running_cost[a].bounds() == (0.0, 0.0)
                   for a in self.controls.indices)


class Coefficients(NamedTuple):
    """Coefficients of one control at n points (:meth:`ModelParams.coefficients`).
    Stacking each field over controls adds a leading control axis."""

    drift: np.ndarray       # (n, d)
    cov: np.ndarray         # (n, d, d): sigma sigma^T
    death_rate: np.ndarray  # (n,)
    probs: np.ndarray       # (n, max_children + 1): offspring probabilities
    cost: np.ndarray        # (n,): running cost


def generator(coef: Coefficients, r, grad, hess) -> np.ndarray:
    """The operator of the value equation applied at n points:

        L^a u = b . grad + 1/2 sum_ij (sigma sigma^T)_ij hess_ij
                + gamma sum_k p_k (rc^k - rc) - c r,

    with rc = r clipped to [-1, 1].  ``r`` has shape (n,), ``grad`` (n, d) and
    ``hess`` (n, d, d); leading axes (one per control, say) broadcast against
    those of ``coef``.  The zero-order term carries the branching: the summand
    form (rc^k - rc) vanishes at r = 1 exactly, probability rounding
    notwithstanding.
    """
    rc = np.minimum(np.maximum(r, -1.0), 1.0)   # np.clip costs more per call
    probs = coef.probs
    branching = probs[..., 0] * (1.0 - rc)
    for k in range(1, probs.shape[-1]):
        branching += probs[..., k] * (rc**k - rc)
    return ((coef.drift * grad).sum(-1) + 0.5 * (coef.cov * hess).sum((-2, -1))
            + coef.death_rate * branching - coef.cost * r)


def coefficient_distance(params: ModelParams, other: ModelParams) -> float:
    """Sup-norm distance between two models' dynamics coefficients:
    drift + diffusion + death rate + 2^-k weighted offspring probabilities.

    This is the quantity the coupling-success probability is controlled by.
    """
    if (params.rate_bound != other.rate_bound
            or params.max_children != other.max_children
            or params.dim != other.dim or params.noise_dim != other.noise_dim
            or len(params.controls) != len(other.controls)):
        raise ConfigurationError("models are not comparable")
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

    def spec_dist(m1: ModelParams, m2: ModelParams) -> float:
        s1 = None if (m1.offspring_residual_last and k == last) else m1.offspring[a][k]
        s2 = None if (m2.offspring_residual_last and k == last) else m2.offspring[a][k]
        if s1 is not None and s2 is not None:
            return sup_distance(s1, s2)
        # residual probabilities: |p_last - q_last| <= sum of the other gaps
        gaps = 0.0
        for j in range(last):
            gaps += sup_distance(m1.offspring[a][j], m2.offspring[a][j])
        return gaps

    return spec_dist(p1, p2)


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
        max_children=params.max_children, lipschitz_bound=params.lipschitz_bound,
        offspring_residual_last=True)


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


def offspring_intervals(x: np.ndarray, a: int, params: ModelParams) -> list[tuple[float, float]]:
    """The half-open intervals partitioning [0, gamma(x, a)); interval k has
    length gamma * p_k.  Zero-length intervals are retained as empty markers."""
    bounds = offspring_boundaries(x, a, params)
    return [(float(bounds[k]), float(bounds[k + 1])) for k in range(len(bounds) - 1)]


def interval_overlap(x: np.ndarray, y: np.ndarray, a: int,
                     params: ModelParams, params_tilde: ModelParams) -> float:
    """Lebesgue measure of the set of marks classified identically by the two
    models: the union over k of the k-th interval intersections, plus the
    shared phantom segment up to the common rate bound.  At most rate_bound."""
    if params.rate_bound != params_tilde.rate_bound:
        raise ConfigurationError("models must share the same rate bound")
    if params.max_children != params_tilde.max_children:
        raise ConfigurationError("models must share the same offspring support")
    b1 = offspring_boundaries(x, a, params)
    b2 = offspring_boundaries(y, a, params_tilde)
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
    controls at that point.
    """
    probe_points = list(probe_points)
    if not probe_points:
        raise ConfigurationError("probe_points must be non-empty")
    report = ValidationReport()
    seen_x = []
    for x, a in probe_points:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        seen_x.append(x)
        controls = params.controls.indices if a is None else [a]
        for ctrl in controls:
            _validate_point(params, x, ctrl, report)
    for x in seen_x:
        g = params.terminal_at(x)
        if not -PROB_TOL <= g <= 1.0 + PROB_TOL:
            report.add("terminal-range", None, x, f"g(x)={g!r} outside [0, 1]")
    return report


def _validate_point(params: ModelParams, x: np.ndarray, a: int,
                    report: ValidationReport) -> None:
    gamma = params.death_rate_at(x, a)
    if gamma < -PROB_TOL:
        report.add("rate-negative", a, x, f"death rate {gamma!r} < 0")
    if gamma > params.rate_bound + PROB_TOL:
        report.add("rate-bound", a, x,
                   f"death rate {gamma!r} exceeds bound {params.rate_bound!r}")
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
    c = params.running_cost_at(x, a)
    if c < -PROB_TOL:
        report.add("cost-negative", a, x, f"running cost {c!r} < 0")
