"""Monte Carlo estimation and numerical verification of the toolkit's
structural identities: value estimates with error bars, the product
factorization of multi-particle values, the martingale residual of smooth
test functions along simulated paths, dynamic-programming inequalities
against a solved value surface, the population moment bound, and the
coupling-success probability of perturbed models.

Every estimate is a deterministic function of its inputs and the seed base;
replication k uses seed ``seed_base + k``.  Replications may fan out over
worker processes; results are keyed by replication index, so the reduction
does not depend on completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ExplosionGuardError
from .hjb import ValueGrid, evaluate, evaluate_many
from .model import ModelParams, generator
from .simulator import PopulationPath, pathwise_cost, simulate, simulate_coupled


# ---------------------------------------------------------------------------
# basic containers

@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_reps: int
    seed_base: int

    def band(self, sigmas: float = 3.0, allowance: float = 0.0) -> float:
        return sigmas * self.stderr + allowance


@dataclass(frozen=True)
class RepSummary:
    """One replication's footprint; see the JSON-lines dump format."""
    seed: int
    cost: float
    sup_population: int
    n_events: int
    extinct: bool


def estimate_from_samples(values: np.ndarray, seed_base: int) -> Estimate:
    """Sample mean and standard error; exact for degenerate samples, where
    the two-pass variance would otherwise manufacture rounding noise."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n > 0 and np.all(values == values[0]):
        return Estimate(mean=float(values[0]), stderr=0.0, n_reps=n,
                        seed_base=seed_base)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_reps=n, seed_base=seed_base)


# the benchmark's tracer (perfbench/tracing.py) patches this name; nothing
# in the package calls it
_estimate_from = estimate_from_samples


# ---------------------------------------------------------------------------
# replication fan-out

def _run_chunk(worker, args, lo, hi):
    return [worker(args, i) for i in range(lo, hi)]


def _fan_out(worker, args, n_reps: int, threads: int) -> list:
    """Map ``worker(args, k)`` over replication indices, optionally across
    processes.  Results come back in index order regardless of scheduling."""
    if threads <= 1:
        out = []
        for k in range(n_reps):
            try:
                out.append(worker(args, k))
            except ExplosionGuardError as err:
                err.completed_replications = k
                raise
        return out
    n_chunks = threads * 8
    bounds = np.linspace(0, n_reps, n_chunks + 1).astype(int)
    futures = []
    with ProcessPoolExecutor(max_workers=threads) as ex:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                futures.append(ex.submit(_run_chunk, worker, args, int(lo), int(hi)))
        results = []
        done = 0
        for fut in futures:
            try:
                chunk = fut.result()
            except ExplosionGuardError as err:
                err.completed_replications = done
                raise
            results.extend(chunk)
            done += len(chunk)
    return results


def _cost_worker(args, k):
    (t, mu, policy, params, step, horizon, seed_base, cap) = args
    path = simulate(t, mu, policy, params, step, horizon, seed_base + k,
                    population_cap=cap, record_paths=False)
    return RepSummary(seed=seed_base + k, cost=pathwise_cost(path, params),
                      sup_population=path.sup_population,
                      n_events=len(path.events), extinct=path.extinct)


def run_replications(t, mu, policy, params: ModelParams, n_reps: int, step: float,
                     horizon: float, seed_base: int, *, population_cap: int = 10**6,
                     threads: int = 1) -> list[RepSummary]:
    """Simulate independent replications and collect per-path summaries."""
    args = (t, dict(mu), policy, params, step, horizon, seed_base, population_cap)
    return _fan_out(_cost_worker, args, n_reps, threads)


# ---------------------------------------------------------------------------
# value estimation

def estimate_value(t, mu, policy, params: ModelParams, n_reps: int, step: float,
                   seed_base: int, *, horizon: float, population_cap: int = 10**6,
                   threads: int = 1) -> Estimate:
    """Sample mean and standard error of the pathwise cost over independent
    replications seeded ``seed_base + k``."""
    if n_reps < 2:
        raise ConfigurationError("need at least 2 replications")
    summaries = run_replications(t, mu, policy, params, n_reps, step, horizon,
                                 seed_base, population_cap=population_cap,
                                 threads=threads)
    costs = np.array([s.cost for s in summaries])
    return estimate_from_samples(costs, seed_base)


@dataclass(frozen=True)
class BranchingReport:
    multi: Estimate
    singles: tuple[Estimate, ...]
    product_of_singles: float
    difference: float
    band: float
    passed: bool


def check_branching(t, x_list, policy, params: ModelParams, n_reps: int, step: float,
                    seed_base: int, *, horizon: float, population_cap: int = 10**6,
                    threads: int = 1) -> BranchingReport:
    """Compare the value of a multi-particle start against the product of the
    single-particle values at the same positions.

    The policy must be label-independent (constant or feedback), so the same
    rule drives every subfamily.  The pass band is three combined standard
    errors: the multi estimate's own plus the delta-method error of the
    product of singles.
    """
    if policy.constant_control() is None and not hasattr(policy, "grid"):
        raise ConfigurationError("branching check needs a label-independent policy")
    positions = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x_list]
    multi_mu = {(i,): pos for i, pos in enumerate(positions)}
    stride = n_reps
    multi = estimate_value(t, multi_mu, policy, params, n_reps, step, seed_base,
                           horizon=horizon, population_cap=population_cap,
                           threads=threads)
    singles = []
    for i, pos in enumerate(positions):
        singles.append(estimate_value(
            t, {(): pos}, policy, params, n_reps, step,
            seed_base + (i + 1) * stride, horizon=horizon,
            population_cap=population_cap, threads=threads))
    means = np.array([e.mean for e in singles])
    errs = np.array([e.stderr for e in singles])
    prod = float(np.prod(means))
    var_prod = 0.0
    for i in range(len(singles)):
        partial = np.prod(np.delete(means, i))
        var_prod += (partial * errs[i])**2
    band = 3.0 * math.sqrt(multi.stderr**2 + var_prod)
    diff = abs(multi.mean - prod)
    return BranchingReport(multi=multi, singles=tuple(singles),
                           product_of_singles=prod, difference=diff,
                           band=band, passed=diff <= band)


# ---------------------------------------------------------------------------
# smooth test functions

@dataclass(frozen=True)
class SmoothTestFunction:
    """Bounded smooth function of (t, x) valued in [0, 1] with analytic
    derivatives, for the martingale-residual check.

    Families: ``constant`` (u = base), ``gaussian-bump``
    (base + scale * exp(-decay t) * bump), and ``polynomial-times-bump``
    (base + scale * exp(-decay t) * (1 + directional bump) / 2).  Parameters
    must keep base >= 0 and base + scale <= 1.
    """

    family: str
    base: float = 0.5
    scale: float = 0.0
    decay: float = 0.0
    center: tuple[float, ...] = (0.0,)
    width: float = 1.0
    direction: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.family not in ("constant", "gaussian-bump", "polynomial-times-bump"):
            raise ConfigurationError(f"unknown test function family {self.family!r}")
        if self.base < 0 or self.base + abs(self.scale) > 1.0 + 1e-12:
            raise ConfigurationError("test function must stay inside [0, 1]")
        if self.width <= 0:
            raise ConfigurationError("width must be positive")
        if self.family == "polynomial-times-bump":
            e = np.asarray(self.direction, dtype=float)
            norm = float(np.linalg.norm(e))
            if norm == 0.0:
                raise ConfigurationError("direction must be non-zero")
            object.__setattr__(self, "direction", tuple(e / norm))

    def _bump(self, x: np.ndarray):
        z = x - np.asarray(self.center, dtype=float)
        q = np.sum(z * z, axis=-1) / (2.0 * self.width**2)
        return z, np.exp(-q)

    def value(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return np.broadcast_to(np.asarray(self.base), x.shape[:-1]).copy()
        amp = self.scale * np.exp(-self.decay * np.asarray(t))
        if self.family == "gaussian-bump":
            _, phi = self._bump(x)
            return self.base + amp * phi
        z, phi = self._bump(x)
        s = (z @ np.asarray(self.direction, dtype=float)) / self.width
        psi = s * phi * math.sqrt(math.e)
        return self.base + amp * (1.0 + psi) / 2.0

    def time_derivative(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "constant" or self.decay == 0.0:
            return np.zeros(x.shape[:-1])
        return -self.decay * (self.value(t, x) - self.base)

    def gradient(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return np.zeros_like(x)
        amp = self.scale * np.exp(-self.decay * np.asarray(t))
        z, phi = self._bump(x)
        w2 = self.width**2
        if self.family == "gaussian-bump":
            return -np.asarray(amp)[..., None] * phi[..., None] * z / w2
        e = np.asarray(self.direction, dtype=float)
        s = (z @ e) / self.width
        grad_psi = math.sqrt(math.e) * phi[..., None] * (
            e / self.width - s[..., None] * z / w2)
        return np.asarray(amp)[..., None] * grad_psi / 2.0

    def hessian(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        eye = np.eye(d)
        if self.family == "constant":
            return np.zeros(x.shape[:-1] + (d, d))
        amp = self.scale * np.exp(-self.decay * np.asarray(t))
        z, phi = self._bump(x)
        w2 = self.width**2
        outer = z[..., :, None] * z[..., None, :]
        if self.family == "gaussian-bump":
            core = outer / w2**2 - eye / w2
            return np.asarray(amp)[..., None, None] * phi[..., None, None] * core
        e = np.asarray(self.direction, dtype=float)
        s = (z @ e) / self.width
        sym = (e[:, None] * z[..., None, :] + z[..., :, None] * e[None, :]) / self.width**3
        core = -sym + s[..., None, None] * outer / w2**2 - s[..., None, None] * eye / w2
        hess_psi = math.sqrt(math.e) * phi[..., None, None] * core
        return np.asarray(amp)[..., None, None] * hess_psi / 2.0


# ---------------------------------------------------------------------------
# martingale residual

def _products_excluding(values: np.ndarray) -> np.ndarray:
    """values (n, K) -> (n, K) with entry i = product over j != i."""
    n = values.shape[0]
    pref = np.ones_like(values)
    for i in range(1, n):
        pref[i] = pref[i - 1] * values[i - 1]
    suf = np.ones_like(values)
    for i in range(n - 2, -1, -1):
        suf[i] = suf[i + 1] * values[i + 1]
    return pref * suf


def _path_operator_integral(path: PopulationPath, u: SmoothTestFunction,
                            params: ModelParams) -> float:
    """Left-endpoint quadrature of the compensator integrand along the path.

    The integrand, a product over the living particles, is taken on the union
    of their grids: between two of its own grid points a particle holds the
    values of the earlier one, and so does the discount, whose exponent sums
    each particle's running cost by the same rule.
    """
    tracks = list(path.tracks.values())
    union = np.unique(np.concatenate([tr.times for tr in tracks]))
    left = union[:-1]
    if len(left) == 0:
        return 0.0
    uvals = np.ones((len(tracks), len(left)))
    lus = np.zeros((len(tracks), len(left)))
    cost = np.zeros(len(union))
    for i, tr in enumerate(tracks):
        tl = tr.times[:-1]
        xs = tr.positions[:-1]
        ctrls = tr.controls
        uv = u.value(tl, xs)
        lu = u.time_derivative(tl, xs)
        grad = u.gradient(tl, xs)
        hess = u.hessian(tl, xs)
        for a in np.unique(ctrls):
            m = ctrls == a
            coef = params.coefficients(xs[m], int(a))
            lu[m] += generator(coef, uv[m], grad[m], hess[m])
        alive = (left >= tr.times[0]) & (left < tr.times[-1])
        held = np.searchsorted(tr.times, left[alive], side="right") - 1
        uvals[i, alive] = uv[held]
        lus[i, alive] = lu[held]
        cost += np.interp(union, tr.times, tr.cost_cum)
    gammas = np.exp(-cost[:-1])
    prod_exc = _products_excluding(uvals)
    return float(np.sum(np.diff(union) * gammas * np.sum(lus * prod_exc, axis=0)))


def _dynkin_worker(args, k):
    (t, mu, policy, params, u, s, step, seed_base, cap) = args
    path = simulate(t, mu, policy, params, step, s, seed_base + k,
                    population_cap=cap, record_paths=True)
    terminal = math.exp(-path.cost_integral)
    for x in path.final.values():
        terminal *= float(u.value(s, x))
    initial = 1.0
    for x in path.initial.values():
        initial *= float(u.value(t, x))
    return terminal - initial - _path_operator_integral(path, u, params)


def dynkin_residual(u: SmoothTestFunction, t, mu, policy, params: ModelParams,
                    s: float, n_reps: int, step: float, seed_base: int, *,
                    population_cap: int = 10**6, threads: int = 1) -> Estimate:
    """Monte Carlo mean of the martingale bracket at time ``s``: discounted
    terminal product minus initial product minus the pathwise integral of the
    operator applied to the test function.  Zero in expectation up to O(step)
    quadrature bias."""
    if not t <= s:
        raise ConfigurationError("need t <= s")
    args = (t, dict(mu), policy, params, u, s, step, seed_base, population_cap)
    residuals = np.array(_fan_out(_dynkin_worker, args, n_reps, threads))
    return estimate_from_samples(residuals, seed_base)


# ---------------------------------------------------------------------------
# dynamic programming inequalities

@dataclass(frozen=True)
class DppReport:
    estimate: Estimate
    reference: float          # product of v(t, x_i) over the initial family
    slack: float              # estimate.mean - reference
    band: float               # 3 stderr + allowance
    lower_bound_ok: bool      # slack >= -band
    within_band: bool         # |slack| <= band


def _dpp_worker(args, k):
    (t, mu, policy, params, grid, tau_kind, s, step, seed_base, cap) = args
    path = simulate(t, mu, policy, params, step, s, seed_base + k,
                    population_cap=cap, record_paths=True)
    if tau_kind == "first-event":
        for idx, ev in enumerate(path.events):
            if ev.kind != "phantom":
                tau, pop, cost = path.state_after_event(idx, params)
                value = math.exp(-cost)
                if pop:
                    xs = np.stack(list(pop.values()))
                    value *= float(np.prod(evaluate_many(grid, tau, xs)))
                return value
    value = math.exp(-path.cost_integral)
    if path.final:
        xs = np.stack(list(path.final.values()))
        value *= float(np.prod(evaluate_many(grid, s, xs)))
    return value


def dpp_check(t, mu, policy, params: ModelParams, tau_rule, value_grid: ValueGrid,
              n_reps: int, step: float, seed_base: int, *, allowance: float = 0.0,
              population_cap: int = 10**6, threads: int = 1) -> DppReport:
    """Estimate the expected discounted product of interpolated values at a
    stopping time and compare with the initial product.

    ``tau_rule`` is ("fixed", s) for the deterministic time s, or
    ("first-event", s) for the first population-changing jump capped at s.
    Any admissible policy must come out at or above the initial product
    (lower_bound_ok); the feedback policy extracted from the same surface
    should land within the band (within_band).
    """
    kind, s = tau_rule
    if kind not in ("fixed", "first-event"):
        raise ConfigurationError(f"unknown stopping rule {kind!r}")
    if not t <= s <= value_grid.horizon + 1e-12:
        raise ConfigurationError("stopping time must lie in [t, horizon]")
    args = (t, dict(mu), policy, params, value_grid, kind, s, step, seed_base,
            population_cap)
    values = np.array(_fan_out(_dpp_worker, args, n_reps, threads))
    est = estimate_from_samples(values, seed_base)
    reference = 1.0
    for x in mu.values():
        reference *= evaluate(value_grid, t, np.atleast_1d(np.asarray(x, dtype=float)))
    band = est.band(3.0, allowance)
    slack = est.mean - reference
    return DppReport(estimate=est, reference=reference, slack=slack, band=band,
                     lower_bound_ok=slack >= -band, within_band=abs(slack) <= band)


# ---------------------------------------------------------------------------
# moment bound

@dataclass(frozen=True)
class MomentReport:
    mean_sup: float
    stderr: float
    bound: float
    n_reps: int
    passed: bool


def moment_check(summaries: list[RepSummary], params: ModelParams,
                 n_initial: int, t: float, horizon: float) -> MomentReport:
    """Check the population moment bound: the mean running supremum of the
    population size may not exceed initial size times
    exp(rate_bound * mean_offspring_bound * elapsed), up to 3 standard errors."""
    if len(summaries) < 100:
        raise ConfigurationError("moment check needs at least 100 replications")
    sups = np.array([s.sup_population for s in summaries], dtype=float)
    mean = float(np.mean(sups))
    stderr = float(np.std(sups, ddof=1) / math.sqrt(len(sups)))
    bound = n_initial * math.exp(
        params.rate_bound * params.mean_offspring_bound * (horizon - t))
    return MomentReport(mean_sup=mean, stderr=stderr, bound=bound,
                        n_reps=len(sups), passed=mean <= bound + 3.0 * stderr)


# ---------------------------------------------------------------------------
# coupling stability

@dataclass(frozen=True)
class CouplingReport:
    n_reps: int
    n_success: int
    rate: float
    stderr: float


def _coupling_worker(args, k):
    (t, mu, policy, params, params_tilde, delta, step, horizon, seed_base, cap) = args
    _, _, ok = simulate_coupled(t, mu, policy, params, params_tilde, delta,
                                step, horizon, seed_base + k, population_cap=cap)
    return bool(ok)


def coupling_probe(t, mu, policy, params: ModelParams, params_tilde: ModelParams,
                   delta: float, n_reps: int, step: float, horizon: float,
                   seed_base: int, *, population_cap: int = 10**6,
                   threads: int = 1) -> CouplingReport:
    """Empirical probability that two models driven by identical randomness
    keep the same genealogy and stay within ``delta`` of each other."""
    args = (t, dict(mu), policy, params, params_tilde, delta, step, horizon,
            seed_base, population_cap)
    flags = _fan_out(_coupling_worker, args, n_reps, threads)
    n_success = int(sum(flags))
    rate = n_success / n_reps
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-300) / n_reps)
    return CouplingReport(n_reps=n_reps, n_success=n_success, rate=rate,
                          stderr=stderr)
