"""Monte Carlo engine for controlled branching diffusions.

The engine follows the construction of the model: every particle, named by
its genealogy label, carries its own Brownian motion and its own exponential
clock at the dominating rate.  Pending rings wait in a heap ordered by
(time, label).  At a ring only the ringing particle moves: Euler-Maruyama
steps carry it from its own time to the ring time on its own grid, which is
the global grid ``t0 + k*step`` inside that interval plus the particle's birth
and ring times (:func:`particle_grid`).  The particle then draws a uniform
mark on [0, rate_bound], classified against its offspring intervals
(thinning): marks at or above the local death rate are phantoms, the lowest
interval is a death, interval l replaces the particle by l children at its
position.  At the horizon every survivor steps on to the horizon.  Event times
are exact in law; only the diffusion carries O(step) weak bias.

A path has two inputs: the set-up that :func:`prepare_simulation` checks and
builds from the problem data (start time, founders, policy, model, step size,
horizon, population cap), and the seed; ``simulate(setup, seed)`` runs it.
The set-up also holds, computed once, whatever depends on that data alone:
the global grid ``t0 + k*step`` (:func:`grid_times`), from which two
bisections cut a particle's grid between its two ends; the motion plan and
each control's position-free event geometry and running-cost rate, read from
the model's table of constant coefficients (``ModelParams.constants``); and
the seed words of its founders' and first generation's streams under any
seed; so a caller builds it once per problem and runs any seeds on it.  An advance computes the
positions of a particle's Euler steps only when something reads them: a
recorded track, state-dependent motion, a per-step policy query or a
state-dependent running cost.  Otherwise the motion is linear and the advance
computes its end position alone, from the same sums (x0 + (t_end - t_start)
b plus the last row of the cumulated increments times sigma^T), and step
costs c_a dt; so a path is the same bits whether or not it is recorded.
A particle's path depends only on (seed, its label, its own history): its
Brownian increments come from its own keyed stream (see
:mod:`branchdiff.rng`) and its grid from its own birth and rings.  So a rerun
with the same seed reproduces the path bit for bit, adding an unrelated
particle leaves every other particle's path unchanged, and two models run on
one seed (:func:`coupled_setup`) are coupled through identical Brownian
increments, clocks and marks.  An event costs one particle advance, whatever
the population size.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, ExplosionGuardError, NumericalFailureError
from .labels import Label, assert_antichain, children, label_to_str
from .model import ModelParams, check_comparable, offspring_boundaries
from .rng import RandomDriver, StreamTable


# ---------------------------------------------------------------------------
# policies: ``control`` is the one control a policy applies throughout, or None

class ConstantPolicy:
    """Apply one control index to every particle at all times."""

    def __init__(self, control: int):
        self.control = int(control)

    def controls_along(self, times: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        return np.full(len(times), self.control, dtype=np.int64)


class OpenLoopPolicy:
    """A deterministic piecewise-constant control schedule, the same for every
    particle.

    The schedule is (switch_times, controls) with switch_times strictly
    increasing; controls[j] applies on [switch_times[j], switch_times[j+1]),
    and controls[0] also before switch_times[0].
    """

    def __init__(self, schedule: tuple):
        self.control = None
        times, ctrls = schedule
        self.times = np.asarray(times, dtype=float)
        self.controls = np.asarray(ctrls, dtype=np.int64)
        if len(self.times) != len(self.controls) or len(self.times) == 0:
            raise ConfigurationError("schedule needs matching, non-empty times and controls")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("schedule switch times must be strictly increasing")

    def controls_along(self, times_q: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        idx = np.searchsorted(self.times, times_q, side="right") - 1
        return self.controls[np.clip(idx, 0, len(self.controls) - 1)]


# ---------------------------------------------------------------------------
# path records

@dataclass
class JumpEvent:
    time: float
    label: Label
    mark: float
    kind: str            # "phantom" | "death" | "branch"
    n_children: int
    position: np.ndarray
    pop_size_after: int


@dataclass
class Track:
    """One particle's Euler path from its birth to its death or the horizon.

    ``controls[k]`` is in force on step k (left-endpoint control);
    ``cost_cum`` is the particle's own running-cost integral since its birth,
    left-endpoint rule, at the grid times.
    """

    times: np.ndarray        # (K+1,)
    positions: np.ndarray    # (K+1, d)
    controls: np.ndarray     # (K,) control indices
    cost_cum: np.ndarray     # (K+1,)


@dataclass
class PopulationPath:
    start_time: float
    horizon: float
    initial: dict[Label, np.ndarray]
    final: dict[Label, np.ndarray]
    events: list[JumpEvent]
    cost_integral: float
    sup_population: int
    seed: int
    n_steps: int
    tracks: dict[Label, Track] | None = field(default=None, repr=False)

    @property
    def extinct(self) -> bool:
        return not self.final

    def _recorded_tracks(self) -> dict[Label, Track]:
        if self.tracks is None:
            raise ValueError("path was simulated with record_paths=False")
        return self.tracks

    def state_after_event(self, idx: int, params: ModelParams
                          ) -> tuple[float, dict[Label, np.ndarray], float]:
        """Population and cost integral immediately after event ``idx``.

        The event's particle, or its children, sit at the event position.
        Every other living particle is placed at the event time by a
        Brownian-bridge draw inside the Euler step of its own grid that
        contains that time; the draw comes from the particle's bridge stream
        for this event, so the path itself is untouched.  Each particle's
        running cost up to the event time follows the left-endpoint rule.
        """
        tracks = self._recorded_tracks()
        ev = self.events[idx]
        tau = ev.time
        living = dict.fromkeys(self.initial)
        for past in self.events[:idx + 1]:
            if past.kind != "phantom":
                del living[past.label]
                living.update(dict.fromkeys(children(past.label, past.n_children)))
        driver = RandomDriver(self.seed)
        pop = {}
        for lab in living:
            if lab[:len(ev.label)] == ev.label:
                pop[lab] = ev.position
            else:
                pop[lab] = _bridge_position(tracks[lab], tau, params,
                                            lambda: driver.bridge_stream(lab, idx))
        cost = sum(float(np.interp(tau, tr.times, tr.cost_cum)) for tr in tracks.values())
        return tau, pop, cost


def _bridge_position(track: Track, tau: float, params: ModelParams,
                     stream) -> np.ndarray:
    """Position at ``tau`` of the Euler interpolation of ``track``, given
    both ends of the step around ``tau``: the chord plus the bridge noise
    sigma * sqrt(theta (1 - theta) dt) * Z under the step's frozen diffusion.
    ``stream()`` yields the generator of Z; it is derived only when needed."""
    times = track.times
    k = int(np.searchsorted(times, tau, side="right")) - 1
    if times[k] == tau:
        return track.positions[k]
    dt = times[k + 1] - times[k]
    theta = (tau - times[k]) / dt
    x0, x1 = track.positions[k], track.positions[k + 1]
    x = x0 + theta * (x1 - x0)
    sig = params.diffusion_at(x0, int(track.controls[k]))
    if np.any(sig):
        z = stream().standard_normal(params.noise_dim)
        x = x + (sig @ z) * math.sqrt(theta * (1.0 - theta) * dt)
    return x


# ---------------------------------------------------------------------------
# pathwise cost functionals

def pathwise_cost(path: PopulationPath, params: ModelParams) -> float:
    """Discount factor times the product of terminal costs over survivors.

    An extinct population contributes an empty product, i.e. one.
    """
    value = math.exp(-path.cost_integral)
    for x in path.final.values():
        value *= params.terminal_at(x)
    return value


def pathwise_cost_log_form(path: PopulationPath, params: ModelParams) -> float:
    """Same functional written through logarithms; requires a positive
    terminal cost at every surviving particle.  Serves as a consistency
    oracle for :func:`pathwise_cost`."""
    log_total = -path.cost_integral
    for x in path.final.values():
        g = params.terminal_at(x)
        if g <= 0.0:
            raise ValueError("log-form cost undefined: terminal cost is zero "
                             f"at position {np.asarray(x).tolist()}")
        log_total += math.log(g)
    return math.exp(log_total)


# ---------------------------------------------------------------------------
# simulation

@dataclass
class _MotionPlan:
    const_control: int | None
    motion_control: int | None   # control used for motion when control-independent
    draw_noise: bool
    b_const: np.ndarray | None = None    # set when the motion is linear
    sig_const: np.ndarray | None = None


def _make_plan(policy, params: ModelParams) -> _MotionPlan:
    const = 0 if len(params.controls) == 1 else policy.control
    if const is not None:
        motion_ctrl = const
    elif params.motion_control_independent():
        motion_ctrl = 0
    else:
        motion_ctrl = None
    # a constant diffusion draws noise when some entry of sigma is nonzero
    # (sigma sigma^T may underflow to zero), a position-dependent one always
    origin = np.zeros(params.dim)
    movers = params.controls.indices if motion_ctrl is None else [motion_ctrl]
    plan = _MotionPlan(const_control=const, motion_control=motion_ctrl, draw_noise=any(
        params.constants[a].cov is None or params.diffusion_at(origin, a).any() for a in movers))
    if motion_ctrl is not None:
        constants = params.constants[motion_ctrl]
        if constants.drift is not None and constants.cov is not None:
            plan.b_const = constants.drift[0]
            plan.sig_const = params.diffusion_at(origin, motion_ctrl)
    return plan


@dataclass(frozen=True, eq=False)
class SimulationSetup:
    """A path's checked inputs (start time, founders, policy, model, step
    size, horizon, population cap) and what it needs that does not depend on
    its seed: the global time grid, the motion plan, each control's
    position-free event geometry, the running-cost rates when they are
    position-free and whether running costs vanish.  Built once per problem
    by :func:`prepare_simulation` and passed to every estimator call on it;
    its arrays are read-only, in the workers too.  ``streams`` holds the seed
    words of the founders' and their children's streams under any seed
    (:class:`~branchdiff.rng.StreamTable`)."""

    t: float
    initial: dict[Label, np.ndarray]   # founders' positions as float arrays
    policy: object
    params: ModelParams
    step: float
    horizon: float
    population_cap: int
    times: np.ndarray                  # the global grid t + k*step (grid_times)
    plan: _MotionPlan
    static_geom: dict[int, tuple[float, np.ndarray]]   # control -> (death rate, boundaries)
    cost_rates: np.ndarray | None      # control -> running cost, if position-free
    cost_free: bool
    streams: StreamTable | None = None

    def __post_init__(self):
        arrays = [*self.initial.values(), *(b for _, b in self.static_geom.values()),
                  self.times, self.plan.b_const, self.plan.sig_const, self.cost_rates]
        for arr in arrays:
            if arr is not None:
                arr.flags.writeable = False

    def __reduce__(self):
        # unpickling goes through __init__, so the copy in a worker is
        # read-only as well
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _model_fields(policy, params: ModelParams) -> dict:
    """The set-up fields that depend on the model."""
    origin = np.zeros(params.dim)
    static_geom = {a: (float(c.death_rate[0]), offspring_boundaries(origin, a, params))
                   for a, c in enumerate(params.constants)
                   if c.death_rate is not None and c.probs is not None}
    costs = [c.cost for c in params.constants]
    cost_rates = None if any(c is None for c in costs) else np.concatenate(costs)
    return dict(params=params, plan=_make_plan(policy, params), static_geom=static_geom,
                cost_rates=cost_rates,
                cost_free=cost_rates is not None and not cost_rates.any())


def prepare_simulation(t: float, initial: dict, policy, params: ModelParams,
                       step: float, horizon: float, *, population_cap: int = 10**6
                       ) -> SimulationSetup:
    """Check the inputs of a path and build their :class:`SimulationSetup`.

    ``initial`` maps labels to positions and must satisfy the antichain
    condition.  A path stops with :class:`ExplosionGuardError` once its
    population exceeds ``population_cap``.  Paths take the streams of their
    founders and first generation from a :class:`~branchdiff.rng.StreamTable`;
    every path is the same as without one.
    """
    if step <= 0:
        raise ConfigurationError("step size must be positive")
    if t > horizon:
        raise ConfigurationError("start time exceeds horizon")
    founders = {}    # fresh float arrays, made read-only by the set-up
    for lab, x in initial.items():
        pos = np.array(x, dtype=float, ndmin=1)
        if pos.shape != (params.dim,):
            raise ConfigurationError(
                f"position for label {lab!r} has shape {pos.shape}, "
                f"expected ({params.dim},)")
        founders[tuple(lab)] = pos
    assert_antichain(founders.keys())
    labels = [lab for f in founders for lab in [f, *children(f, params.max_children)]]
    return SimulationSetup(
        t=float(t), initial=founders, policy=policy, step=float(step),
        horizon=float(horizon), population_cap=int(population_cap),
        times=grid_times(t, horizon, step), streams=StreamTable(labels),
        **_model_fields(policy, params))


def coupled_setup(setup: SimulationSetup, params_tilde: ModelParams) -> SimulationSetup:
    """``setup`` under the comparable model ``params_tilde``
    (:func:`~branchdiff.model.check_comparable`): same founders, policy, step
    size, horizon, population cap, time grid and stream table, whose words
    depend on (seed, label) only."""
    check_comparable(setup.params, params_tilde)
    return replace(setup, **_model_fields(setup.policy, params_tilde))


def grid_times(t0: float, horizon: float, step: float) -> np.ndarray:
    """The global grid ``t0 + k*step`` for k = 0, 1, ... up to the last point
    short of the horizon by more than 1e-9 steps."""
    times = t0 + step * np.arange(math.ceil((horizon - t0) / step) + 1)
    return times[:bisect.bisect_left(times, horizon - 1e-9 * step)]


def particle_grid(start: float, end: float, step: float, times: np.ndarray) -> np.ndarray:
    """Euler grid of one particle on [start, end]: the points of the global
    grid ``times`` (:func:`grid_times`, of a path ending at ``end`` or later)
    strictly inside the interval, plus both ends; a global point within 1e-9
    steps of an end merges into it.  Always at least one step, of length zero
    when ``start == end``."""
    tol = 1e-9 * step
    # bisect on the array costs less per call than two ndarray.searchsorted
    lo = bisect.bisect_right(times, start + tol)
    hi = bisect.bisect_left(times, end - tol)
    grid = np.empty(max(hi - lo, 0) + 2)
    grid[0] = start
    grid[1:-1] = times[lo:hi]
    grid[-1] = end
    return grid


def _segment_costs(params: ModelParams, xs_left: np.ndarray, a) -> np.ndarray:
    """Per-step running cost of one particle, left-endpoint evaluation, under
    control ``a``: one index for every step, or an array of one per step."""
    if np.ndim(a) == 0:
        return params.running_cost_many(xs_left, a)
    every = np.broadcast_to(params.field("cost", xs_left), (len(params.controls), len(a)))
    return every[a, np.arange(len(a))]


def _build_track(pieces: list[tuple], const_control: int | None) -> Track:
    """One particle's track from the (grid, positions, controls, step costs)
    pieces of its consecutive advances, which share their end points;
    controls are None under ``const_control`` and step costs None when
    running costs vanish."""
    if len(pieces) == 1:
        times, positions = pieces[0][0], pieces[0][1]
    else:
        times = np.concatenate([pieces[0][0]] + [p[0][1:] for p in pieces[1:]])
        positions = np.concatenate([pieces[0][1]] + [p[1][1:] for p in pieces[1:]])
    n = len(times) - 1
    if const_control is None:
        controls = np.concatenate([p[2] for p in pieces])
    else:
        controls = np.full(n, const_control, dtype=np.int64)
    cost_cum = np.zeros(n + 1)
    if pieces[0][3] is not None:
        np.concatenate([p[3] for p in pieces]).cumsum(out=cost_cum[1:])
    return Track(times=times, positions=positions, controls=controls, cost_cum=cost_cum)


class _Simulation:
    def __init__(self, setup: SimulationSetup, seed, record_paths):
        self.setup = setup
        self.params = setup.params
        self.plan = plan = setup.plan
        self.seed = int(seed)
        self.driver = RandomDriver(seed, setup.streams)
        # the positions of a particle's Euler steps are computed only when
        # something reads them; otherwise an advance computes its end point
        self.reads_positions = (record_paths or plan.b_const is None
                                or plan.const_control is None or setup.cost_rates is None)
        # label -> position at its own time; positions are replaced, never
        # written into, so the founders' read-only arrays can start it
        self.pop = dict(setup.initial)
        self.clock = dict.fromkeys(self.pop, setup.t)   # label -> its own time
        self.rings: list[tuple[float, Label]] = []      # heap of pending rings
        self.cost = 0.0
        self.events: list[JumpEvent] = []
        self.pieces: dict[Label, list] | None = (
            {lab: [] for lab in self.pop} if record_paths else None)
        self.sup_n = len(self.pop)
        self.n_steps = 0

    def _spawn_clock(self, label: Label, now: float) -> None:
        if self.params.rate_bound > 0.0:
            gap = self.driver.event_stream(label).exponential(1.0 / self.params.rate_bound)
            heapq.heappush(self.rings, (now + gap, label))

    # a blow-up overflows on its way to a non-finite position; the checks in
    # _advance report it once, so numpy's warnings stay silent
    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> PopulationPath:
        setup = self.setup
        horizon = setup.horizon
        initial = {lab: pos.copy() for lab, pos in self.pop.items()}
        for lab in self.pop:
            self._spawn_clock(lab, setup.t)
        rings = self.rings
        while rings and rings[0][0] < horizon:
            now, lab = heapq.heappop(rings)
            control = self._advance(lab, now)
            self._fire_event(lab, now, control)
        for lab in self.pop:
            self._advance(lab, horizon)
        tracks = None
        if self.pieces is None:
            # every survivor's last advance made its position afresh
            final = dict(self.pop)
        else:
            final = {lab: pos.copy() for lab, pos in self.pop.items()}
            const = self.plan.const_control
            tracks = {lab: _build_track(pieces, const)
                      for lab, pieces in self.pieces.items()}
        return PopulationPath(
            start_time=setup.t, horizon=horizon, initial=initial, final=final,
            events=self.events, cost_integral=self.cost,
            sup_population=self.sup_n, seed=self.seed,
            n_steps=self.n_steps, tracks=tracks,
        )

    # -- one particle's diffusion ----------------------------------------------

    def _advance(self, lab: Label, target: float) -> int:
        """Step particle ``lab`` from its own time to ``target`` on its own
        grid; returns the control of its last step."""
        setup, plan = self.setup, self.plan
        start = self.clock[lab]
        grid = particle_grid(start, target, setup.step, setup.times)
        deltas = grid[1:] - grid[:-1]
        n_steps = len(deltas)
        x0 = self.pop[lab]
        dw = None
        if plan.draw_noise:
            z = self.driver.motion_stream(lab).standard_normal(
                (n_steps, self.params.noise_dim))
            dw = z * np.sqrt(deltas)[:, None]
        if self.reads_positions:
            xs, ctrls = self._motion(lab, x0, grid, deltas, dw)
            self._check_positions(lab, grid, xs)
            x = xs[-1]
        else:
            # the last row of the linear branch of _motion, from the same sums
            xs, ctrls = None, None
            x = x0 + (target - start) * plan.b_const
            if dw is not None:
                x = x + (dw.cumsum(0) @ plan.sig_const.T)[-1]
            # only the end position is checked: an intermediate position can
            # overflow while the end stays finite only near the largest float;
            # the steps are made only to name the first non-finite one
            if not math.isfinite(sum(x.tolist())):
                self._check_positions(
                    lab, grid, self._motion(lab, x0, grid, deltas, dw)[0])
        self.pop[lab] = x
        self.clock[lab] = target
        self.n_steps += n_steps
        step_cost = None
        if not setup.cost_free:
            a = plan.const_control if ctrls is None else ctrls
            if setup.cost_rates is not None:
                step_cost = setup.cost_rates[a] * deltas
            else:
                step_cost = _segment_costs(self.params, xs[:-1], a) * deltas
            self.cost += float(np.add.reduce(step_cost))
            if not math.isfinite(self.cost):
                if xs is None:
                    xs = self._motion(lab, x0, grid, deltas, dw)[0]
                self._check_costs(lab, grid, xs, step_cost)
        if self.pieces is not None:
            self.pieces[lab].append((grid, xs, ctrls, step_cost))
        return plan.const_control if ctrls is None else int(ctrls[-1])

    def _motion(self, lab, x0, grid, deltas, dw):
        """Euler-Maruyama positions on ``grid`` and the control of each step,
        or None for the latter when the control is constant."""
        params, plan = self.params, self.plan
        n_steps = len(deltas)
        if plan.b_const is not None:
            xs = x0 + (grid - grid[0])[:, None] * plan.b_const
            if dw is not None:
                xs[1:] += dw.cumsum(0) @ plan.sig_const.T
        else:
            xs = np.empty((n_steps + 1, params.dim))
            xs[0] = x0
            x = x0
            a = plan.motion_control
            # control-dependent motion: the control of each step is read at
            # its left end, where the position is known only inside the loop
            queried = np.empty(n_steps, dtype=np.int64) if a is None else None
            for k in range(n_steps):
                if queried is not None:
                    a = queried[k] = self.setup.policy.controls_along(
                        grid[k:k + 1], x[None], lab)[0]
                x = x + params.drift_at(x, a) * deltas[k]
                if dw is not None:
                    x = x + params.diffusion_at(x, a) @ dw[k]
                xs[k + 1] = x
            if queried is not None:
                return xs, queried
        if plan.const_control is None:
            return xs, np.asarray(
                self.setup.policy.controls_along(grid[:-1], xs[:-1], lab), dtype=np.int64)
        return xs, None

    @staticmethod
    def _check_positions(lab, grid, xs):
        """Raise on the first non-finite position of ``xs``, if any."""
        finite = np.isfinite(xs).all(axis=1)
        if finite.all():
            return
        bad = int(np.argmin(finite))
        before = (f", one Euler step after {xs[bad - 1].tolist()} at time "
                  f"{float(grid[bad - 1])!r}" if bad else "")
        raise NumericalFailureError(
            f"particle {label_to_str(lab) or '(root)'} reached the non-finite "
            f"position {xs[bad].tolist()} at time {float(grid[bad])!r}{before}")

    def _check_costs(self, lab, grid, xs, step_cost):
        """Raise once the running-cost integral stops being finite: at the
        first non-finite step cost of this advance, or at its end when the
        sum of finite step costs overflowed."""
        where = f"particle {label_to_str(lab) or '(root)'}"
        bad = np.flatnonzero(~np.isfinite(step_cost))
        if len(bad):
            k = int(bad[0])
            raise NumericalFailureError(
                f"{where} has the non-finite running cost {float(step_cost[k])!r} "
                f"over the Euler step from time {float(grid[k])!r} at position "
                f"{xs[k].tolist()}")
        raise NumericalFailureError(
            f"{where} took the running-cost integral to {self.cost!r} at time "
            f"{float(grid[-1])!r}, position {xs[-1].tolist()}")

    # -- events ----------------------------------------------------------------

    def _fire_event(self, lab: Label, now: float, a: int) -> None:
        """Classify the ring of particle ``lab`` at ``now`` under control ``a``,
        the control in force on its last Euler step."""
        params = self.params
        x = self.pop[lab]
        # the draw of uniform(0, rate_bound), which computes 0 + rate_bound * u
        mark = float(self.driver.event_stream(lab).random() * params.rate_bound)
        geom = self.setup.static_geom.get(a)
        if geom is not None:
            gamma, bounds = geom
        else:
            gamma = params.death_rate_at(x, a)
            bounds = None
        if gamma > params.rate_bound + 1e-9:
            raise ConfigurationError(
                f"death rate {gamma} exceeds the dominating rate {params.rate_bound} "
                f"at x={x.tolist()}, control {a}")
        if mark >= gamma:
            kind, n_children = "phantom", 0
            self._spawn_clock(lab, now)
        else:
            if bounds is None:
                bounds = offspring_boundaries(x, a, params)
            k = int(bounds.searchsorted(mark, "right")) - 1
            k = min(max(k, 0), params.max_children)
            del self.pop[lab]
            del self.clock[lab]
            if k == 0:
                kind, n_children = "death", 0
            else:
                kind, n_children = "branch", k
                for child in children(lab, k):
                    # positions are never written into: the children share x
                    self.pop[child] = x
                    self.clock[child] = now
                    if self.pieces is not None:
                        self.pieces[child] = []
                    self._spawn_clock(child, now)
        self.sup_n = max(self.sup_n, len(self.pop))
        self.events.append(JumpEvent(
            time=now, label=lab, mark=mark, kind=kind,
            n_children=n_children, position=x.copy(),
            pop_size_after=len(self.pop),
        ))
        cap = self.setup.population_cap
        if len(self.pop) > cap:
            raise ExplosionGuardError(
                f"population {len(self.pop)} exceeded cap {cap} "
                f"at time {now}",
                time_reached=now, population=len(self.pop),
                n_events=len(self.events))


def write_path_csv(path: PopulationPath, file) -> None:
    """Dump the event log and terminal population as CSV rows
    (time, label, event, mark, positions...).  Terminal rows use event
    "final" and an empty mark; labels render dot-joined, the root empty."""
    import csv as _csv

    dim = len(next(iter(path.initial.values()))) if path.initial else 1
    writer = _csv.writer(file)
    writer.writerow(["time", "label", "event", "mark"]
                    + [f"x{i}" for i in range(dim)])
    for ev in path.events:
        writer.writerow([format(ev.time, ".17g"), label_to_str(ev.label),
                         ev.kind if ev.kind != "branch" else f"branch({ev.n_children})",
                         format(ev.mark, ".17g")]
                        + [format(v, ".17g") for v in ev.position])
    for lab in sorted(path.final):
        writer.writerow([format(path.horizon, ".17g"), label_to_str(lab), "final", ""]
                        + [format(v, ".17g") for v in path.final[lab]])


def simulate(setup: SimulationSetup, seed: int, *, record_paths: bool = True
             ) -> PopulationPath:
    """The path of sample ``seed`` on [setup.t, setup.horizon], bit-identical
    on every call.  Raises :class:`ExplosionGuardError` when the population
    exceeds the set-up's ``population_cap`` and :class:`NumericalFailureError`
    when a particle's position stops being finite."""
    return _Simulation(setup, seed, record_paths).run()


def simulate_coupled(setup: SimulationSetup, setup_tilde: SimulationSetup,
                     delta: float, seed: int
                     ) -> tuple[PopulationPath, PopulationPath, bool]:
    """Run two models on identical randomness and compare their paths.

    ``setup_tilde`` is ``coupled_setup(setup, params_tilde)``.  Both runs see
    the same per-label Brownian increments, clocks and marks.  Success means
    the event outcome sequences agree event by event (each system
    classifying marks against its own intervals at its own positions) and
    the particle positions never drift more than ``delta`` apart.  After a
    divergence the runs simply continue independently.
    """
    path = simulate(setup, seed)
    path_tilde = simulate(setup_tilde, seed)
    return path, path_tilde, _coupling_success(path, path_tilde, delta)


def _coupling_success(p1: PopulationPath, p2: PopulationPath, delta: float) -> bool:
    if len(p1.events) != len(p2.events):
        return False
    for a, b in zip(p1.events, p2.events):
        if (a.time != b.time or a.label != b.label or a.kind != b.kind
                or a.n_children != b.n_children):
            return False
    # coupled set-ups share founders and step size, so equal event logs give
    # both runs the same particles, each on the same grid; every track's
    # positions stay within delta when the largest distance of all does
    if not p1.tracks:
        return True
    tracks2 = p2.tracks
    gap = (np.concatenate([tr.positions for tr in p1.tracks.values()])
           - np.concatenate([tracks2[lab].positions for lab in p1.tracks]))
    return math.sqrt(np.add.reduce(gap * gap, axis=1).max()) <= delta
