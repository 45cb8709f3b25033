"""Monotone explicit finite-difference solver for the value PDE in one
spatial dimension.

The equation is backward in time: the time derivative of u plus the infimum
over controls of the generator L^a u vanishes, with terminal data g.  L^a is
:func:`branchdiff.model.generator`, the one definition of the operator; the
solver adds only the stencil.  The scheme uses upwinded first
differences (direction picked by the drift sign per control before the
minimum), centered second differences, and explicit Euler stepping backward
from the terminal layer.  Under the CFL bound checked here every updated
value is a nondecreasing function of the neighboring values, which keeps the
solution inside [0, 1] and makes two solutions with ordered terminal data
stay ordered.

Edge nodes close the stencil by constant extrapolation: a one-sided
difference is used when it looks into the domain, and a difference that would
look outside is dropped (ghost value equal to the edge value).  This keeps
the edge update monotone; the domain is meant to be taken wide enough that
the edge rule does not influence values at probe points, which
:func:`boundary_sensitivity` quantifies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .labels import Label
from .model import Coefficients, ModelParams, generator

CLAMP_TOL = 1e-12

_BOUNDARY_RULES = ("one-sided",)


@dataclass(frozen=True)
class GridConfig:
    """Discretization of [0, horizon] x [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n_x: int
    n_t: int
    horizon: float
    boundary: str = "one-sided"

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ConfigurationError("x_hi must exceed x_lo")
        if self.n_x < 3:
            raise ConfigurationError("need at least 3 space nodes")
        if self.n_t < 1:
            raise ConfigurationError("need at least 1 time step")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.boundary not in _BOUNDARY_RULES:
            raise ConfigurationError(
                f"unknown boundary rule {self.boundary!r}; choose from {_BOUNDARY_RULES}")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)


@dataclass
class ValueGrid:
    """Solved value surface with the argmin control at every node."""

    times: np.ndarray
    nodes: np.ndarray
    values: np.ndarray          # (n_t + 1, n_x), within [0, 1]
    argmin_control: np.ndarray  # (n_t + 1, n_x) int
    params: ModelParams
    clamp_events: int
    degenerate_diffusion: bool
    config: GridConfig = field(repr=False, default=None)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# CFL

def _coefficient_tables(params: ModelParams, nodes: np.ndarray) -> Coefficients:
    """Coefficients over the node set, stacked over the controls."""
    per_control = [params.coefficients(nodes[:, None], a)
                   for a in params.controls.indices]
    return Coefficients(*map(np.stack, zip(*per_control)))


def cfl_ratio(params: ModelParams, grid: GridConfig) -> float:
    """Largest over nodes of dt * (max_a sigma^2/dx^2 + max_a |b|/dx +
    rate_bound * (mean offspring bound + 1) + max_a running cost).
    The scheme is monotone when this is at most one."""
    if params.dim != 1:
        raise ConfigurationError("the PDE solver handles one-dimensional models only")
    coef = _coefficient_tables(params, grid.nodes)
    per_node = (coef.cov[:, :, 0, 0].max(axis=0) / grid.dx**2
                + np.abs(coef.drift[:, :, 0]).max(axis=0) / grid.dx
                + params.rate_bound * (params.mean_offspring_bound + 1.0)
                + coef.cost.max(axis=0))
    return float(grid.dt * per_node.max())


def check_cfl(params: ModelParams, grid: GridConfig) -> None:
    ratio = cfl_ratio(params, grid)
    if ratio > 1.0:
        raise ConfigurationError(
            f"CFL violation: dt * (max sigma^2/dx^2 + max |b|/dx + "
            f"rate_bound * (M + 1) + max cost) = {ratio:.6g} > 1; "
            f"increase n_t to at least {required_time_steps_for(params, grid)}")


def required_time_steps_for(params: ModelParams, grid: GridConfig) -> int:
    """Smallest n_t satisfying the CFL bound on this spatial grid."""
    ratio = cfl_ratio(params, grid)
    return max(1, int(math.ceil(grid.n_t * ratio * (1.0 + 1e-12))))


# ---------------------------------------------------------------------------
# solver

def _layer_operator(u: np.ndarray, coef: Coefficients, forward: np.ndarray,
                    dx: float) -> np.ndarray:
    """Stacked per-control generator values (n_controls, n_x) on one layer;
    the first difference looks forward where ``forward`` (drift >= 0) holds."""
    n_x = len(u)
    slope = np.zeros(n_x + 1)  # a difference looking outside the domain is dropped
    slope[1:-1] = (u[1:] - u[:-1]) / dx
    m2 = np.empty(n_x)
    m2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    m2[0] = (u[1] - u[0]) / dx**2
    m2[-1] = (u[-2] - u[-1]) / dx**2
    upwind = np.where(forward, slope[1:, None], slope[:-1, None])
    return generator(coef, u, upwind, m2[:, None, None])


def solve(params: ModelParams, grid: GridConfig) -> ValueGrid:
    """Backward explicit sweep from the terminal layer; rejects grids that
    violate the CFL bound and reports clamp events (layer values that left
    [0, 1] by more than a floating-point guard before clipping)."""
    if params.dim != 1:
        raise ConfigurationError("the PDE solver handles one-dimensional models only")
    check_cfl(params, grid)
    nodes = grid.nodes
    coef = _coefficient_tables(params, nodes)
    forward = coef.drift >= 0.0
    terminal = params.terminal_many(nodes[:, None])
    if terminal.min() < -CLAMP_TOL or terminal.max() > 1.0 + CLAMP_TOL:
        raise ConfigurationError("terminal cost leaves [0, 1] on the grid")
    terminal = np.clip(terminal, 0.0, 1.0)
    n_t = grid.n_t
    values = np.empty((n_t + 1, grid.n_x))
    argmin = np.zeros((n_t + 1, grid.n_x), dtype=np.int64)
    values[n_t] = terminal
    clamp_events = 0
    dt = grid.dt
    for k in range(n_t - 1, -1, -1):
        stacked = _layer_operator(values[k + 1], coef, forward, grid.dx)
        argmin[k + 1] = np.argmin(stacked, axis=0)
        u_new = values[k + 1] + dt * np.minimum.reduce(stacked, axis=0)
        if np.isnan(u_new).any():
            raise NumericalFailureError(
                f"non-finite values while stepping onto layer {k}", layer=k)
        clamp_events += int(np.count_nonzero(
            (u_new < -CLAMP_TOL) | (u_new > 1.0 + CLAMP_TOL)))
        np.clip(u_new, 0.0, 1.0, out=u_new)
        values[k] = u_new
    argmin[0] = np.argmin(_layer_operator(values[0], coef, forward, grid.dx), axis=0)
    degenerate = bool(np.any(coef.cov == 0.0))
    return ValueGrid(times=grid.times, nodes=nodes, values=values,
                     argmin_control=argmin, params=params,
                     clamp_events=clamp_events, degenerate_diffusion=degenerate,
                     config=grid)


# ---------------------------------------------------------------------------
# evaluation and feedback extraction

def evaluate(grid: ValueGrid, t: float, x) -> float:
    """Bilinear interpolation of the value surface; x is clamped to the
    domain, t must lie within [0, horizon]."""
    return float(evaluate_many(grid, t, np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0])


def evaluate_many(grid: ValueGrid, t: float, xs: np.ndarray) -> np.ndarray:
    horizon = grid.horizon
    if t < -1e-9 * max(1.0, horizon) or t > horizon * (1.0 + 1e-9) + 1e-12:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    t = min(max(t, 0.0), horizon)
    xs = np.asarray(xs, dtype=float)
    xq = np.clip(xs[:, 0], grid.nodes[0], grid.nodes[-1])
    dt = grid.times[1] - grid.times[0]
    kf = min(int(t / dt), len(grid.times) - 2)
    wt = (t - grid.times[kf]) / dt
    j = np.clip(np.searchsorted(grid.nodes, xq, side="right") - 1, 0, len(grid.nodes) - 2)
    wx = (xq - grid.nodes[j]) / (grid.nodes[j + 1] - grid.nodes[j])
    lo = grid.values[kf, j] * (1 - wx) + grid.values[kf, j + 1] * wx
    hi = grid.values[kf + 1, j] * (1 - wx) + grid.values[kf + 1, j + 1] * wx
    return np.clip(lo * (1 - wt) + hi * wt, 0.0, 1.0)


def _derivative_tables(values: np.ndarray, dx: float):
    """Nodewise first (centered, one-sided at edges) and second derivatives
    of every layer, with the same edge closure as the solver stencil."""
    du = np.empty_like(values)
    du[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dx)
    du[:, 0] = (values[:, 1] - values[:, 0]) / dx
    du[:, -1] = (values[:, -1] - values[:, -2]) / dx
    d2u = np.empty_like(values)
    d2u[:, 1:-1] = (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / dx**2
    d2u[:, 0] = (values[:, 1] - values[:, 0]) / dx**2
    d2u[:, -1] = (values[:, -2] - values[:, -1]) / dx**2
    return du, d2u


class FeedbackPolicy:
    """Markov control synthesized from a solved value surface.

    A query snaps to the nearest time layer, linearly interpolates the value
    and its space derivatives at the (domain-clamped) position, and returns
    the control minimizing the generator there; ties go to the lowest index.
    Total on all of R: positions are clamped to the grid.
    """

    def __init__(self, grid: ValueGrid):
        self.grid = grid
        self.params = grid.params
        dx = float(grid.nodes[1] - grid.nodes[0])
        self._dx = dx
        self._du, self._d2u = _derivative_tables(grid.values, dx)

    def constant_control(self) -> int | None:
        return 0 if len(self.params.controls) == 1 else None

    def control_at(self, t: float, x: np.ndarray, label: Label) -> int:
        return int(self.controls_along(np.array([t]), np.atleast_1d(x)[None, :], label)[0])

    def controls_along(self, times: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        grid = self.grid
        times = np.asarray(times, dtype=float)
        xs = np.asarray(xs, dtype=float)
        n = len(times)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        dt = grid.times[1] - grid.times[0]
        k = np.clip(np.rint((times - grid.times[0]) / dt).astype(int),
                    0, len(grid.times) - 1)
        xq = np.clip(xs[:, 0], grid.nodes[0], grid.nodes[-1])
        j = np.clip(np.searchsorted(grid.nodes, xq, side="right") - 1,
                    0, len(grid.nodes) - 2)
        wx = (xq - grid.nodes[j]) / self._dx
        r = grid.values[k, j] * (1 - wx) + grid.values[k, j + 1] * wx
        p = self._du[k, j] * (1 - wx) + self._du[k, j + 1] * wx
        m2 = self._d2u[k, j] * (1 - wx) + self._d2u[k, j + 1] * wx
        pts, grad, hess = xq[:, None], p[:, None], m2[:, None, None]
        vals = np.empty((len(self.params.controls), n))
        for a in self.params.controls.indices:
            vals[a] = generator(self.params.coefficients(pts, a), r, grad, hess)
        return np.argmin(vals, axis=0)   # lowest index wins ties, as in solve


def extract_feedback(grid: ValueGrid) -> FeedbackPolicy:
    """Feedback rule applying, at any time and position, the control that
    minimizes the operator on the solved value surface."""
    return FeedbackPolicy(grid)


# ---------------------------------------------------------------------------
# diagnostics and export

def boundary_sensitivity(params: ModelParams, grid: GridConfig,
                         probe_xs, t: float = 0.0) -> float:
    """Max change of u(t, probe) when the domain width doubles at the same
    resolution.  Small values certify that the edge closure does not reach
    the probes."""
    base = solve(params, grid)
    half = (grid.x_hi - grid.x_lo) / 2.0
    wide_cfg = GridConfig(
        x_lo=grid.x_lo - half, x_hi=grid.x_hi + half,
        n_x=2 * grid.n_x - 1, n_t=grid.n_t, horizon=grid.horizon,
        boundary=grid.boundary)
    n_t_needed = required_time_steps_for(params, wide_cfg)
    if n_t_needed > wide_cfg.n_t:
        wide_cfg = GridConfig(
            x_lo=wide_cfg.x_lo, x_hi=wide_cfg.x_hi, n_x=wide_cfg.n_x,
            n_t=n_t_needed, horizon=wide_cfg.horizon, boundary=wide_cfg.boundary)
    wide = solve(params, wide_cfg)
    worst = 0.0
    for x in probe_xs:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        worst = max(worst, abs(evaluate(base, t, xv) - evaluate(wide, t, xv)))
    return worst


def write_grid_csv(grid: ValueGrid, path) -> None:
    """Export (t, x, u, argmin control index) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "u", "control"])
        for k, t in enumerate(grid.times):
            for j, x in enumerate(grid.nodes):
                writer.writerow([format(t, ".17g"), format(x, ".17g"),
                                 format(grid.values[k, j], ".17g"),
                                 int(grid.argmin_control[k, j])])
