"""Monte Carlo estimation and numerical verification of the toolkit's
structural identities: value estimates with error bars, the product
factorization of multi-particle values, the martingale residual of smooth
test functions along simulated paths, dynamic-programming inequalities
against a solved value surface, the population moment bound, and the
coupling-success probability of perturbed models.

Every estimate is a deterministic function of its set-up, replication count
and seed base.  The caller checks a problem's path inputs once, building its
set-up with :func:`~branchdiff.simulator.prepare_simulation`, and passes it
to every estimator call on that problem; replication k is
``simulate(setup, seed_base + k)``.  Replications run in process, or, inside
a :func:`worker_pool` block, fan out over that block's worker processes::

    setup = prepare_simulation(t, mu, policy, params, step, horizon)
    with worker_pool(4):
        est = estimate_value(setup, n_reps, seed_base)

Each worker runs one contiguous block of a call's replication indices, from
one unpickled copy of the call's arguments, so the caches that a set-up and
its model build on first use serve the whole block.  Results are keyed by
replication index, so the reduction does not depend on completion order or
on the number of workers.  An explosion ends its own block only: a failed
call may still wait for the other blocks to finish or fail.
"""

from __future__ import annotations

import contextlib
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ExplosionGuardError
from .hjb import ValueGrid, evaluate, evaluate_many
from .model import ModelParams, generator
from .simulator import (PopulationPath, SimulationSetup, coupled_setup, pathwise_cost,
                        prepare_simulation, simulate, simulate_coupled)

MIN_REPLICATIONS = 2            # a standard error needs two samples
MIN_MOMENT_REPLICATIONS = 100   # the moment check's fewest


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

# (executor, workers) of the enclosing worker_pool block
_POOL: ContextVar[tuple[ProcessPoolExecutor, int] | None] = ContextVar(
    "branchdiff_pool", default=None)


@contextlib.contextmanager
def worker_pool(threads: int):
    """Run the block with one pool of ``threads`` worker processes, shared by
    every fan-out inside it and shut down when it ends.  Within a block that
    already holds a pool, and for ``threads <= 1``, it does nothing."""
    if threads <= 1 or _POOL.get() is not None:
        yield
        return
    with ProcessPoolExecutor(max_workers=threads) as ex:
        token = _POOL.set((ex, threads))
        try:
            yield
        finally:
            _POOL.reset(token)


def _run_block(worker, args, lo: int, hi: int) -> list:
    """``worker(args, k)`` for k in [lo, hi).  An explosion reports the indices
    before it as completed, as in process: the caller raises the first failed
    block's error."""
    results = []
    try:
        for k in range(lo, hi):
            results.append(worker(args, k))
    except ExplosionGuardError as err:
        err.completed_replications = lo + len(results)
        raise
    return results


def _run_pickled(worker, payload: bytes, lo: int, hi: int) -> list:
    return _run_block(worker, pickle.loads(payload), lo, hi)   # pickled by _fan_out


def _fan_out(worker, args, n_reps: int) -> list:
    """Map ``worker(args, k)`` over replication indices, across the enclosing
    :func:`worker_pool` if there is one, as one contiguous block of indices
    per worker.  Results come back in index order regardless of
    scheduling."""
    pool = _POOL.get()
    if pool is None:
        return _run_block(worker, args, 0, n_reps)
    ex, threads = pool
    bounds = [n_reps * i // threads for i in range(threads + 1)]
    # pickled once per call; a worker unpickles them once for its whole block
    payload = pickle.dumps(args)
    futures = [ex.submit(_run_pickled, worker, payload, lo, hi)
               for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    return [result for fut in futures for result in fut.result()]


def _cost_worker(args, k):
    (setup, seed_base) = args
    path = simulate(setup, seed_base + k, record_paths=False)
    return RepSummary(seed=seed_base + k, cost=pathwise_cost(path, setup.params),
                      sup_population=path.sup_population,
                      n_events=len(path.events), extinct=path.extinct)


def run_replications(setup: SimulationSetup, n_reps: int, seed_base: int
                     ) -> list[RepSummary]:
    """Simulate independent replications and collect per-path summaries."""
    return _fan_out(_cost_worker, (setup, seed_base), n_reps)


# ---------------------------------------------------------------------------
# value estimation

def estimate_value(setup: SimulationSetup, n_reps: int, seed_base: int) -> Estimate:
    """Sample mean and standard error of the pathwise cost over independent
    replications seeded ``seed_base + k``."""
    if n_reps < MIN_REPLICATIONS:
        raise ConfigurationError(f"need at least {MIN_REPLICATIONS} replications")
    summaries = run_replications(setup, n_reps, seed_base)
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


def check_branching(setup: SimulationSetup, n_reps: int, seed_base: int
                    ) -> BranchingReport:
    """Compare the value of the set-up's founders against the product of the
    single-particle values at the same positions, each founder re-rooted at
    ``()`` and seeded from ``seed_base + (i + 1) * n_reps``.

    The policy must not depend on the particle's label (no policy in the
    package does), so the same rule drives every subfamily.  The pass band is
    three combined standard errors: the multi estimate's own plus the
    delta-method error of the product of singles.
    """
    multi = estimate_value(setup, n_reps, seed_base)
    singles = []
    for i, x in enumerate(setup.initial.values()):
        single = prepare_simulation(setup.t, {(): x}, setup.policy, setup.params, setup.step,
                                    setup.horizon, population_cap=setup.population_cap)
        singles.append(estimate_value(single, n_reps, seed_base + (i + 1) * n_reps))
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

    Families: ``constant`` (u = base), ``gaussian-bump`` (base + a(t) * bump)
    and ``polynomial-times-bump`` (base + a(t) * (1 + directional bump) / 2),
    where a(t) = scale * exp(-decay t) and decay >= 0.  u(t, .) spans
    [base + min(0, a(t)), base + max(0, a(t))] (a(t) = 0 for ``constant``),
    widest at the earliest time; it must lie in [0, 1] from t = 0 on, and
    :meth:`check_range` checks an earlier start.
    """

    family: str
    base: float = 0.5
    scale: float = 0.0
    decay: float = 0.0
    center: tuple[float, ...] | None = None      # unset: the origin
    width: float = 1.0
    direction: tuple[float, ...] | None = None   # unset: the first unit vector

    def __post_init__(self):
        if self.family not in ("constant", "gaussian-bump", "polynomial-times-bump"):
            raise ConfigurationError(f"unknown test function family {self.family!r}")
        if self.decay < 0:
            raise ConfigurationError(f"decay must not be negative, got {self.decay!r}")
        self.check_range(0.0)
        if self.width <= 0:
            raise ConfigurationError("width must be positive")
        if self.family == "polynomial-times-bump" and self.direction is not None:
            e = np.asarray(self.direction, dtype=float)
            norm = float(np.linalg.norm(e))
            if norm == 0.0:
                raise ConfigurationError("direction must be non-zero")
            object.__setattr__(self, "direction", tuple(e / norm))

    def check_dim(self, dim: int) -> None:
        """Raise :class:`ConfigurationError` unless a set center and direction
        have one entry per coordinate of the positions."""
        for name in ("center", "direction"):
            given = getattr(self, name)
            if given is not None and len(given) != dim:
                raise ConfigurationError(
                    f"test function {name} has length {len(given)}, expected dim = {dim}")

    def check_range(self, t: float) -> None:
        """Raise :class:`ConfigurationError` unless u stays inside [0, 1] from
        time t on."""
        try:
            # a constant's value ignores its scale
            amp = 0.0 if self.family == "constant" else self.scale * math.exp(-self.decay * t)
        except OverflowError:
            amp = self.scale * math.inf     # nan, and so no bound, for scale 0
        lo, hi = self.base + min(0.0, amp), self.base + max(0.0, amp)
        if lo < 0 or hi > 1.0 + 1e-12:
            raise ConfigurationError(f"test function must stay inside [0, 1]; "
                                     f"it spans [{lo!r}, {hi!r}] at t = {t!r}")

    def _direction(self, d: int) -> np.ndarray:
        if self.direction is None:
            return np.eye(d)[0]
        return np.asarray(self.direction, dtype=float)

    def _bump(self, t, x: np.ndarray):
        """u at the (..., d) points x and its terms: a(t), the offset z from
        the center, the bump phi and the directional coordinate s (or None)."""
        center = np.zeros(x.shape[-1]) if self.center is None else self.center
        z = x - np.asarray(center, dtype=float)
        phi = np.exp(-(np.sum(z * z, axis=-1) / (2.0 * self.width**2)))
        amp = self.scale * np.exp(-self.decay * np.asarray(t))
        if self.family == "gaussian-bump":
            return self.base + amp * phi, amp, z, phi, None
        s = (z @ self._direction(x.shape[-1])) / self.width
        return self.base + amp * (1.0 + s * phi * math.sqrt(math.e)) / 2.0, amp, z, phi, s

    def value(self, t, x: np.ndarray) -> np.ndarray:
        """u at the (..., d) points x, shape (...)."""
        x = np.asarray(x, dtype=float)
        if self.family == "constant":
            return np.broadcast_to(np.asarray(self.base), x.shape[:-1]).copy()
        return self._bump(t, x)[0]

    def jet(self, t, x: np.ndarray):
        """(u, du/dt, grad u, Hessian of u) at the (..., d) points x, of
        shapes (...), (...), (..., d) and (..., d, d), from one evaluation of
        the bump."""
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        if self.family == "constant":
            return (self.value(t, x), np.zeros(x.shape[:-1]), np.zeros_like(x),
                    np.zeros(x.shape[:-1] + (d, d)))
        u, amp, z, phi, s = self._bump(t, x)
        du_dt = np.zeros(x.shape[:-1]) if self.decay == 0.0 else -self.decay * (u - self.base)
        # from here on amp and phi carry an axis for the coordinates
        amp, phi = np.asarray(amp)[..., None], phi[..., None]
        w2 = self.width**2
        eye = np.eye(d)
        outer = z[..., :, None] * z[..., None, :]
        if s is None:
            grad = -amp * phi * z / w2
            hess = amp[..., None] * phi[..., None] * (outer / w2**2 - eye / w2)
            return u, du_dt, grad, hess
        e, s = self._direction(d), s[..., None]
        grad = amp * (math.sqrt(math.e) * phi * (e / self.width - s * z / w2)) / 2.0
        sym = (e[:, None] * z[..., None, :] + z[..., :, None] * e[None, :]) / self.width**3
        core = -sym + s[..., None] * outer / w2**2 - s[..., None] * eye / w2
        hess = amp[..., None] * (math.sqrt(math.e) * phi[..., None] * core) / 2.0
        return u, du_dt, grad, hess


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
    # the integrand at the left grid points of every track, as one batch:
    # each value depends on its own row alone
    tl = np.concatenate([tr.times[:-1] for tr in tracks])
    xs = np.concatenate([tr.positions[:-1] for tr in tracks])
    ctrls = np.concatenate([tr.controls for tr in tracks])
    uv, lu, grad, hess = u.jet(tl, xs)
    # every control at every point in one call, each point keeping its own
    # control's value (all controls' are one when they share every field)
    every = np.broadcast_to(generator(params.coefficients(xs), uv, grad, hess),
                            (len(params.controls), len(uv)))
    lu += every[ctrls, np.arange(len(uv))]
    uvals = np.ones((len(tracks), len(left)))
    lus = np.zeros((len(tracks), len(left)))
    cost = np.zeros(len(union))
    first = 0     # the batch row of the track's first grid point
    for i, tr in enumerate(tracks):
        alive = (left >= tr.times[0]) & (left < tr.times[-1])
        held = first + np.searchsorted(tr.times, left[alive], side="right") - 1
        uvals[i, alive] = uv[held]
        lus[i, alive] = lu[held]
        cost += np.interp(union, tr.times, tr.cost_cum)
        first += len(tr.times) - 1
    gammas = np.exp(-cost[:-1])
    prod_exc = _products_excluding(uvals)
    return float(np.sum(np.diff(union) * gammas * np.sum(lus * prod_exc, axis=0)))


def _dynkin_worker(args, k):
    (setup, u, initial, seed_base) = args
    path = simulate(setup, seed_base + k)
    terminal = math.prod((float(u.value(setup.horizon, x)) for x in path.final.values()),
                         start=math.exp(-path.cost_integral))
    return terminal - initial - _path_operator_integral(path, u, setup.params)


def dynkin_residual(setup: SimulationSetup, u: SmoothTestFunction, n_reps: int,
                    seed_base: int) -> Estimate:
    """Monte Carlo mean of the martingale bracket at the set-up's horizon:
    discounted terminal product minus initial product minus the pathwise
    integral of the operator applied to the test function.  Zero in
    expectation up to O(step) quadrature bias."""
    u.check_dim(setup.params.dim)
    u.check_range(setup.t)
    initial = math.prod(float(u.value(setup.t, x)) for x in setup.initial.values())
    args = (setup, u, initial, seed_base)
    residuals = np.array(_fan_out(_dynkin_worker, args, n_reps))
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
    (setup, grid, tau_kind, seed_base) = args
    # only the first-event rule reads the tracks (state_after_event)
    path = simulate(setup, seed_base + k, record_paths=tau_kind == "first-event")
    tau, pop, cost = setup.horizon, path.final, path.cost_integral
    if tau_kind == "first-event":
        first = next((i for i, ev in enumerate(path.events) if ev.kind != "phantom"), None)
        if first is not None:
            tau, pop, cost = path.state_after_event(first, setup.params)
    values = evaluate_many(grid, tau, np.stack(list(pop.values()))) if pop else 1.0
    return math.exp(-cost) * float(np.prod(values))


def dpp_check(setup: SimulationSetup, rule: str, value_grid: ValueGrid, n_reps: int,
              seed_base: int, *, allowance: float = 0.0) -> DppReport:
    """Estimate the expected discounted product of interpolated values at a
    stopping time and compare with the initial product.

    ``rule`` is "fixed" for the set-up's horizon s, or "first-event" for the
    first population-changing jump capped at s.  Any admissible policy must
    come out at or above the initial product (lower_bound_ok); the feedback
    policy extracted from the same surface should land within the band
    (within_band).
    """
    if rule not in ("fixed", "first-event"):
        raise ConfigurationError(f"unknown stopping rule {rule!r}")
    if setup.horizon > value_grid.horizon + 1e-12:
        raise ConfigurationError("stopping time lies past the value grid's horizon")
    args = (setup, value_grid, rule, seed_base)
    values = np.array(_fan_out(_dpp_worker, args, n_reps))
    est = estimate_from_samples(values, seed_base)
    reference = math.prod(evaluate(value_grid, setup.t, x) for x in setup.initial.values())
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


def moment_check(summaries: list[RepSummary], setup: SimulationSetup) -> MomentReport:
    """Check the population moment bound on replications of ``setup``: the
    mean running supremum of the population size may not exceed initial size
    times exp(rate_bound * mean_offspring_bound * elapsed), up to 3 standard
    errors."""
    if len(summaries) < MIN_MOMENT_REPLICATIONS:
        raise ConfigurationError(
            f"moment check needs at least {MIN_MOMENT_REPLICATIONS} replications")
    sups = np.array([s.sup_population for s in summaries], dtype=float)
    mean = float(np.mean(sups))
    stderr = float(np.std(sups, ddof=1) / math.sqrt(len(sups)))
    params = setup.params
    bound = len(setup.initial) * math.exp(
        params.rate_bound * params.mean_offspring_bound * (setup.horizon - setup.t))
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
    (setup, setup_tilde, delta, seed_base) = args
    _, _, ok = simulate_coupled(setup, setup_tilde, delta, seed_base + k)
    return bool(ok)


def coupling_probe(setup: SimulationSetup, params_tilde: ModelParams, delta: float,
                   n_reps: int, seed_base: int) -> CouplingReport:
    """Empirical probability that the set-up's model and ``params_tilde``,
    driven by identical randomness, keep the same genealogy and stay within
    ``delta`` of each other."""
    args = (setup, coupled_setup(setup, params_tilde), delta, seed_base)
    flags = _fan_out(_coupling_worker, args, n_reps)
    n_success = int(sum(flags))
    rate = n_success / n_reps
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-300) / n_reps)
    return CouplingReport(n_reps=n_reps, n_success=n_success, rate=rate,
                          stderr=stderr)
