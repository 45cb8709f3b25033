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

A particle's path depends only on (seed, its label, its own history): its
Brownian increments come from its own keyed stream (see
:mod:`branchdiff.rng`) and its grid from its own birth and rings.  So a rerun
with the same seed reproduces the path bit for bit, adding an unrelated
particle leaves every other particle's path unchanged, and two runs with
different coefficients but one seed are coupled through identical Brownian
increments, clocks and marks.  An event costs one particle advance, whatever
the population size.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ExplosionGuardError, NumericalFailureError
from .labels import Label, assert_antichain, children, label_to_str
from .model import ModelParams, offspring_boundaries
from .rng import RandomDriver


# ---------------------------------------------------------------------------
# policies

class ConstantPolicy:
    """Apply one control index to every particle at all times."""

    def __init__(self, control: int):
        self.control = int(control)

    def constant_control(self) -> int | None:
        return self.control

    def control_at(self, t: float, x: np.ndarray, label: Label) -> int:
        return self.control

    def controls_along(self, times: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        return np.full(len(times), self.control, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, ConstantPolicy) and other.control == self.control


class OpenLoopPolicy:
    """Deterministic piecewise-constant control schedules, optionally per label.

    A schedule is (switch_times, controls) with switch_times ascending;
    controls[j] applies on [switch_times[j], switch_times[j+1]).  Labels
    without their own schedule use the default one.
    """

    def __init__(self, default: tuple, per_label: dict[Label, tuple] | None = None):
        self.default = self._check(default)
        self.per_label = {k: self._check(v) for k, v in (per_label or {}).items()}

    @staticmethod
    def _check(schedule):
        times, ctrls = schedule
        times = np.asarray(times, dtype=float)
        ctrls = np.asarray(ctrls, dtype=np.int64)
        if len(times) != len(ctrls) or len(times) == 0:
            raise ConfigurationError("schedule needs matching, non-empty times and controls")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("schedule switch times must be strictly increasing")
        return times, ctrls

    def constant_control(self) -> int | None:
        return None

    def _schedule(self, label: Label):
        return self.per_label.get(label, self.default)

    def control_at(self, t: float, x: np.ndarray, label: Label) -> int:
        times, ctrls = self._schedule(label)
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return int(ctrls[max(idx, 0)])

    def controls_along(self, times_q: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        times, ctrls = self._schedule(label)
        idx = np.searchsorted(times, times_q, side="right") - 1
        return ctrls[np.clip(idx, 0, len(ctrls) - 1)]


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

    def equals(self, other: "Track") -> bool:
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.controls, other.controls)
                and np.array_equal(self.cost_cum, other.cost_cum))


@dataclass
class PopulationPath:
    start_time: float
    horizon: float
    initial: dict[Label, np.ndarray]
    final: dict[Label, np.ndarray]
    events: list[JumpEvent]
    cost_integral: float
    sup_population: int
    population_record: list[tuple[float, int]]
    seed: int
    n_steps: int
    tracks: dict[Label, Track] | None = field(default=None, repr=False)

    @property
    def extinct(self) -> bool:
        return not self.final

    def _recorded_tracks(self) -> dict[Label, Track]:
        if self.tracks is None:
            raise ValueError("path was simulated without trajectory recording")
        return self.tracks

    def trajectory(self, label: Label) -> tuple[np.ndarray, np.ndarray]:
        """Sampled (times, positions) over the particle's lifespan."""
        track = self._recorded_tracks().get(label)
        if track is None:
            raise KeyError(f"label {label!r} never alive on this path")
        return track.times, track.positions

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

    def equals(self, other: "PopulationPath") -> bool:
        """Bitwise path equality (the determinism contract)."""
        if (self.start_time != other.start_time or self.horizon != other.horizon
                or self.cost_integral != other.cost_integral
                or self.sup_population != other.sup_population
                or self.n_steps != other.n_steps
                or self.population_record != other.population_record
                or len(self.events) != len(other.events)
                or sorted(self.initial) != sorted(other.initial)
                or sorted(self.final) != sorted(other.final)):
            return False
        for lab in self.initial:
            if not np.array_equal(self.initial[lab], other.initial[lab]):
                return False
        for lab in self.final:
            if not np.array_equal(self.final[lab], other.final[lab]):
                return False
        for a, b in zip(self.events, other.events):
            if (a.time != b.time or a.label != b.label or a.mark != b.mark
                    or a.kind != b.kind or a.n_children != b.n_children
                    or a.pop_size_after != b.pop_size_after
                    or not np.array_equal(a.position, b.position)):
                return False
        if (self.tracks is None) != (other.tracks is None):
            return False
        if self.tracks is not None:
            if sorted(self.tracks) != sorted(other.tracks):
                return False
            return all(tr.equals(other.tracks[lab]) for lab, tr in self.tracks.items())
        return True


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
    linear: bool
    draw_noise: bool
    query_in_loop: bool
    b_const: np.ndarray | None = None
    sig_const: np.ndarray | None = None


def _make_plan(policy, params: ModelParams) -> _MotionPlan:
    const = 0 if len(params.controls) == 1 else policy.constant_control()
    if const is not None:
        motion_ctrl = const
    elif params.motion_control_independent():
        motion_ctrl = 0
    else:
        motion_ctrl = None
    linear = motion_ctrl is not None and params.motion_state_independent(motion_ctrl)
    if motion_ctrl is not None:
        draw_noise = not params.diffusion[motion_ctrl].is_zero
    else:
        draw_noise = not params.diffusion_is_zero()
    plan = _MotionPlan(
        const_control=const,
        motion_control=motion_ctrl,
        linear=linear,
        draw_noise=draw_noise,
        query_in_loop=motion_ctrl is None,
    )
    if linear:
        origin = np.zeros(params.dim)
        plan.b_const = params.drift_at(origin, motion_ctrl)
        plan.sig_const = params.diffusion_at(origin, motion_ctrl)
    return plan


def particle_grid(t0: float, start: float, end: float, step: float) -> np.ndarray:
    """Euler grid of one particle on [start, end] for a path started at t0.

    The global grid points ``t0 + k*step`` strictly inside the interval, plus
    both ends; a global point within 1e-9 steps of an end merges into it.
    Always at least one step, of length zero when ``start == end``.
    """
    tol = 1e-9 * step
    k_lo = math.floor((start - t0) / step)
    while t0 + step * k_lo > start + tol:
        k_lo -= 1
    while t0 + step * k_lo <= start + tol:
        k_lo += 1
    k_hi = math.ceil((end - t0) / step)
    while t0 + step * k_hi < end - tol:
        k_hi += 1
    while t0 + step * k_hi >= end - tol:
        k_hi -= 1
    grid = np.empty(max(k_hi - k_lo + 1, 0) + 2)
    grid[0] = start
    grid[1:-1] = t0 + step * np.arange(k_lo, k_hi + 1)
    grid[-1] = end
    return grid


def _segment_costs(params: ModelParams, xs_left: np.ndarray, ctrls: np.ndarray) -> np.ndarray:
    """Per-step running cost of one particle, left-endpoint evaluation."""
    out = np.empty(len(ctrls))
    for a in np.unique(ctrls):
        mask = ctrls == a
        out[mask] = params.running_cost_many(xs_left[mask], int(a))
    return out


def _join_pieces(pieces: list[tuple]) -> Track:
    """One track from the (grid, positions, controls, step costs) pieces of
    consecutive advances, which share their end points."""
    first = pieces[0]
    times = np.concatenate([first[0]] + [p[0][1:] for p in pieces[1:]])
    positions = np.concatenate([first[1]] + [p[1][1:] for p in pieces[1:]])
    controls = np.concatenate([p[2] for p in pieces])
    cost_cum = np.concatenate(([0.0], np.cumsum(np.concatenate([p[3] for p in pieces]))))
    return Track(times=times, positions=positions, controls=controls, cost_cum=cost_cum)


class _Simulation:
    def __init__(self, t, initial, policy, params: ModelParams, step, horizon, seed,
                 population_cap, record_paths):
        if step <= 0:
            raise ConfigurationError("step size must be positive")
        if t > horizon:
            raise ConfigurationError("start time exceeds horizon")
        init = {}
        for lab, x in initial.items():
            pos = np.atleast_1d(np.asarray(x, dtype=float))
            if pos.shape != (params.dim,):
                raise ConfigurationError(
                    f"position for label {lab!r} has shape {pos.shape}, "
                    f"expected ({params.dim},)")
            init[tuple(lab)] = pos
        assert_antichain(init.keys())
        self.params = params
        self.policy = policy
        self.step = float(step)
        self.start = float(t)
        self.horizon = float(horizon)
        self.cap = int(population_cap)
        self.seed = int(seed)
        self.plan = _make_plan(policy, params)
        self.cost_free = params.cost_is_zero()
        self.driver = RandomDriver(seed)
        self.pop = init                                      # label -> position at its own time
        self.clock = {lab: self.start for lab in init}      # label -> its own time
        self.rings: list[tuple[float, Label]] = []          # heap of pending rings
        self.cost = 0.0
        self.events: list[JumpEvent] = []
        self.pieces: dict[Label, list] | None = (
            {lab: [] for lab in init} if record_paths else None)
        self.pop_record: list[tuple[float, int]] = [(self.start, len(init))]
        self.sup_n = len(init)
        self.n_steps = 0
        self.initial_snapshot = {lab: pos.copy() for lab, pos in init.items()}
        # event geometry is position-free for many models; cache it per control
        self._static_geom: dict[int, tuple[float, np.ndarray]] = {}
        origin = np.zeros(params.dim)
        for a in params.controls.indices:
            if (params.death_rate[a].state_independent
                    and all(p.state_independent for p in params.offspring[a])):
                self._static_geom[a] = (params.death_rate_at(origin, a),
                                        offspring_boundaries(origin, a, params))

    def _spawn_clock(self, label: Label, now: float) -> None:
        if self.params.rate_bound > 0.0:
            gap = self.driver.event_stream(label).exponential(1.0 / self.params.rate_bound)
            heapq.heappush(self.rings, (now + gap, label))

    def run(self) -> PopulationPath:
        # a blow-up overflows on its way to a non-finite position; the check
        # in _advance reports it once, so numpy's warnings stay silent
        with np.errstate(over="ignore", invalid="ignore"):
            for lab in self.pop:
                self._spawn_clock(lab, self.start)
            rings = self.rings
            while rings and rings[0][0] < self.horizon:
                now, lab = heapq.heappop(rings)
                control = self._advance(lab, now)
                self._fire_event(lab, now, control)
            for lab in self.pop:
                self._advance(lab, self.horizon)
        final = {lab: pos.copy() for lab, pos in self.pop.items()}
        tracks = None
        if self.pieces is not None:
            tracks = {lab: _join_pieces(pieces) for lab, pieces in self.pieces.items()}
        return PopulationPath(
            start_time=self.start, horizon=self.horizon,
            initial=self.initial_snapshot, final=final,
            events=self.events, cost_integral=self.cost,
            sup_population=self.sup_n, population_record=self.pop_record,
            seed=self.seed, n_steps=self.n_steps, tracks=tracks,
        )

    # -- one particle's diffusion ----------------------------------------------

    def _advance(self, lab: Label, target: float) -> int:
        """Step particle ``lab`` from its own time to ``target`` on its own
        grid; returns the control of its last step."""
        grid = particle_grid(self.start, self.clock[lab], target, self.step)
        deltas = np.diff(grid)
        xs, ctrls = self._motion(lab, self.pop[lab], grid, deltas)
        if not np.isfinite(xs).all():
            bad = int(np.argmin(np.isfinite(xs).all(axis=1)))
            before = (f", one Euler step after {xs[bad - 1].tolist()} at time "
                      f"{float(grid[bad - 1])!r}" if bad else "")
            raise NumericalFailureError(
                f"particle {label_to_str(lab) or '(root)'} reached the non-finite "
                f"position {xs[bad].tolist()} at time {float(grid[bad])!r}{before}")
        self.pop[lab] = xs[-1]
        self.clock[lab] = target
        self.n_steps += len(deltas)
        if self.cost_free:
            step_cost = None
        else:
            step_cost = _segment_costs(self.params, xs[:-1], ctrls) * deltas
            self.cost += float(step_cost.sum())
        if self.pieces is not None:
            if step_cost is None:
                step_cost = np.zeros(len(deltas))
            self.pieces[lab].append((grid, xs, ctrls, step_cost))
        return int(ctrls[-1])

    def _motion(self, lab, x0, grid, deltas):
        """Euler-Maruyama positions on ``grid`` and the control of each step."""
        params, plan = self.params, self.plan
        n_steps = len(deltas)
        dw = None
        if plan.draw_noise:
            z = self.driver.motion_stream(lab).standard_normal((n_steps, params.noise_dim))
            dw = z * np.sqrt(deltas)[:, None]
        xs = np.empty((n_steps + 1, params.dim))
        if plan.linear:
            xs[:] = x0
            xs += (grid - grid[0])[:, None] * plan.b_const
            if dw is not None:
                xs[1:] += np.cumsum(dw, axis=0) @ plan.sig_const.T
        else:
            xs[0] = x0
            x = x0
            if plan.query_in_loop:
                ctrls = np.empty(n_steps, dtype=np.int64)
                for k in range(n_steps):
                    a = self.policy.control_at(grid[k], x, lab)
                    ctrls[k] = a
                    x = x + params.drift_at(x, a) * deltas[k]
                    if dw is not None:
                        x = x + params.diffusion_at(x, a) @ dw[k]
                    xs[k + 1] = x
                return xs, ctrls
            a = plan.motion_control
            for k in range(n_steps):
                x = x + params.drift_at(x, a) * deltas[k]
                if dw is not None:
                    x = x + params.diffusion_at(x, a) @ dw[k]
                xs[k + 1] = x
        if plan.const_control is not None:
            ctrls = np.full(n_steps, plan.const_control, dtype=np.int64)
        else:
            ctrls = np.asarray(
                self.policy.controls_along(grid[:-1], xs[:-1], lab), dtype=np.int64)
        return xs, ctrls

    # -- events ----------------------------------------------------------------

    def _fire_event(self, lab: Label, now: float, a: int) -> None:
        """Classify the ring of particle ``lab`` at ``now`` under control ``a``,
        the control in force on its last Euler step."""
        params = self.params
        x = self.pop[lab]
        mark = float(self.driver.event_stream(lab).uniform(0.0, params.rate_bound))
        geom = self._static_geom.get(a)
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
            k = int(np.searchsorted(bounds, mark, side="right")) - 1
            k = min(max(k, 0), params.max_children)
            del self.pop[lab]
            del self.clock[lab]
            if k == 0:
                kind, n_children = "death", 0
            else:
                kind, n_children = "branch", k
                for child in children(lab, k):
                    self.pop[child] = x.copy()
                    self.clock[child] = now
                    if self.pieces is not None:
                        self.pieces[child] = []
                    self._spawn_clock(child, now)
            self.pop_record.append((now, len(self.pop)))
        self.sup_n = max(self.sup_n, len(self.pop))
        self.events.append(JumpEvent(
            time=now, label=lab, mark=mark, kind=kind,
            n_children=n_children, position=x.copy(),
            pop_size_after=len(self.pop),
        ))
        if len(self.pop) > self.cap:
            raise ExplosionGuardError(
                f"population {len(self.pop)} exceeded cap {self.cap} "
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


def simulate(t: float, initial: dict, policy, params: ModelParams, step: float,
             horizon: float, seed: int, *, population_cap: int = 10**6,
             record_paths: bool = True) -> PopulationPath:
    """Simulate one path of the controlled branching diffusion on [t, horizon].

    ``initial`` maps labels to positions and must satisfy the antichain
    condition.  Fixed seed and inputs give a bit-identical path on every call.
    Raises :class:`ExplosionGuardError` when the population exceeds
    ``population_cap`` and :class:`NumericalFailureError` when a particle's
    position stops being finite.
    """
    sim = _Simulation(t, initial, policy, params, step, horizon, seed,
                      population_cap, record_paths)
    return sim.run()


def simulate_coupled(t: float, initial: dict, policy, params: ModelParams,
                     params_tilde: ModelParams, delta: float, step: float,
                     horizon: float, seed: int, *, population_cap: int = 10**6
                     ) -> tuple[PopulationPath, PopulationPath, bool]:
    """Run two models on identical randomness and compare their paths.

    Both runs see the same per-label Brownian increments, clocks and marks.
    Success means the event outcome sequences agree event by event (each
    system classifying marks against its own intervals at its own positions)
    and the particle positions never drift more than ``delta`` apart.  After
    a divergence the runs simply continue independently.
    """
    if (params.rate_bound != params_tilde.rate_bound
            or params.max_children != params_tilde.max_children
            or params.dim != params_tilde.dim
            or params.noise_dim != params_tilde.noise_dim):
        raise ConfigurationError(
            "coupled models must share rate bound, offspring support and dimensions")
    path = simulate(t, initial, policy, params, step, horizon, seed,
                    population_cap=population_cap, record_paths=True)
    path_tilde = simulate(t, initial, policy, params_tilde, step, horizon, seed,
                          population_cap=population_cap, record_paths=True)
    return path, path_tilde, _coupling_success(path, path_tilde, delta)


def _coupling_success(p1: PopulationPath, p2: PopulationPath, delta: float) -> bool:
    if len(p1.events) != len(p2.events):
        return False
    for a, b in zip(p1.events, p2.events):
        if (a.time != b.time or a.label != b.label or a.kind != b.kind
                or a.n_children != b.n_children):
            return False
    # equal event logs give every particle the same grid in both runs
    if p1.tracks.keys() != p2.tracks.keys():
        return False
    for lab, track in p1.tracks.items():
        xa, xb = track.positions, p2.tracks[lab].positions
        if xa.shape != xb.shape:
            return False
        if np.linalg.norm(xa - xb, axis=1).max() > delta:
            return False
    return True
