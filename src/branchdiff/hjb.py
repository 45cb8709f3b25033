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
:func:`boundary_sensitivity` quantifies by solving again on a domain twice as
wide.  It takes the base grid's probe values rather than the grid, so that a
caller who reads nothing else from that grid can release its surface before
the doubled one is allocated.

A solve reads every control's coefficients at the nodes once
(:meth:`~branchdiff.model.ModelParams.coefficients`) and decides from them
its CFL bound, reported as the ratio ``ValueGrid.cfl_ratio``, its upwind
directions and the terms its layers skip.  A position-free field is a row,
and one that every control shares is kept once, so its terms are computed
once per layer for all controls.  The stencil's work arrays are allocated
once and refilled in place by every layer.  A field zero at every node for
every control drops its term, and a zero drift or sigma sigma^T its
difference, from every layer; a layer lies in [0, 1], so it skips the
generator's clip too, with the same bits (each skipped step is a signed
zero: :func:`~branchdiff.model.generator`).

A :class:`FeedbackPolicy` of a position-free model tables, once, the control
of every (layer, cell) pair whose answer a certificate proves constant over
the cell, and evaluates the generator only for queries in the other cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .labels import Label
from .model import Coefficients, ModelParams, generator

CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class GridConfig:
    """Discretization of [0, horizon] x [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n_x: int
    n_t: int
    horizon: float

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ConfigurationError("x_hi must exceed x_lo")
        if self.n_x < 3:
            raise ConfigurationError("need at least 3 space nodes")
        if self.n_t < 1:
            raise ConfigurationError("need at least 1 time step")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")

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
    argmin_control: np.ndarray  # (n_t + 1, n_x), np.min_scalar_type(n_controls - 1)
    params: ModelParams
    cfl_ratio: float            # the CFL ratio the solve checked, at most one
    clamp_events: int
    degenerate_diffusion: bool
    config: GridConfig = field(repr=False)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


# ---------------------------------------------------------------------------
# CFL

def _node_coefficients(params: ModelParams, nodes: np.ndarray) -> Coefficients:
    """The coefficients a solve reads: every control's at the nodes
    (:meth:`~branchdiff.model.ModelParams.coefficients`)."""
    if params.dim != 1:
        raise ConfigurationError("the PDE solver handles one-dimensional models only")
    # an overflow is reported by the CFL check (_cfl_bound), not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        return params.coefficients(nodes[:, None])


def _cfl_bound(params: ModelParams, dx: float, coef: Coefficients) -> float:
    """Largest over nodes of max_a sigma^2/dx^2 + max_a |b|/dx +
    rate_bound * (mean offspring bound + 1) + max_a running cost: the CFL
    ratio is dt times this, and the scheme is monotone when it is at most
    one.  Raises :class:`ConfigurationError` when the bound is not finite."""
    def worst(field):    # max over the controls, per node or for all nodes
        return np.atleast_2d(field).max(axis=0)

    # an overflow is reported once, below, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        per_node = (worst(coef.cov[..., 0, 0]) / dx**2
                    + worst(np.abs(coef.drift[..., 0])) / dx
                    + params.rate_bound * (params.mean_offspring_bound + 1.0)
                    + worst(coef.cost))
    bound = float(per_node.max())
    if not math.isfinite(bound):
        raise ConfigurationError(
            f"the CFL bound max sigma^2/dx^2 + max |b|/dx + rate_bound * (M + 1) "
            f"+ max cost is {bound!r} on this grid: the drift, diffusion or running "
            f"cost is too large")
    return bound


def _steps_for(bound: float, horizon: float) -> int:
    """Least n_t whose ratio (horizon / n_t) * bound passes the check of
    ``solve``."""
    # horizon * bound is rounded: the least n_t is its ceiling, one less, or
    # (up to about 1e15 steps, more than any grid that fits in memory) one more
    first = max(1, math.ceil(horizon * bound) - 1)
    for n_t in (first, first + 1):
        if horizon / n_t * bound <= 1.0:
            return n_t
    return first + 2


def required_time_steps_for(params: ModelParams, grid: GridConfig) -> int:
    """Smallest n_t satisfying the CFL bound on this spatial grid."""
    coef = _node_coefficients(params, grid.nodes)
    return _steps_for(_cfl_bound(params, grid.dx, coef), grid.horizon)


# ---------------------------------------------------------------------------
# solver

def _second_difference(u: np.ndarray, dx: float, out: np.ndarray = None) -> np.ndarray:
    """Centered second difference along the first axis, into ``out`` when it
    is given; at an edge node the ghost value equals the edge value, leaving
    the one inward difference."""
    m2 = np.empty_like(u) if out is None else out
    n, inner, mid = len(u), m2[1:-1], u[1:-1]
    np.multiply(mid, 2.0, out=inner)
    np.subtract(u[2:], inner, out=inner)
    np.add(inner, u[:-2], out=inner)
    # both edges in one call: u[1] - u[0] and u[-2] - u[-1]
    np.subtract(mid[::max(n - 3, 1)], u[::n - 1], out=m2[::n - 1])
    return np.divide(m2, dx**2, out=m2)


class _Stencil:
    """The work arrays of one solve's layer updates, allocated once and
    refilled in place on every layer, and the fields whose terms every layer
    skips: those zero at every node for every control.  The upwind direction
    follows the drift's sign per node, for each control or once for a drift
    that every control shares."""

    def __init__(self, params: ModelParams, coef: Coefficients, n_x: int):
        self.skip = frozenset(name for name in ("drift", "cov", "death_rate", "cost")
                              if not getattr(coef, name).any())
        self.slope = np.zeros(n_x + 1)   # a difference looking outside the domain is dropped
        self.inner = self.slope[1:-1]
        # the slope entry each (control, node) reads: forward where the drift
        # is nonnegative, backward elsewhere
        self.pick = np.arange(n_x) + np.atleast_2d(coef.drift[..., 0] >= 0.0)
        self.upwind = np.empty(self.pick.shape)
        self.grad = self.upwind[..., None]
        self.m2 = np.empty(n_x)
        self.hess = self.m2[None, :, None, None]
        self.out = np.empty((len(params.controls), n_x))


def _layer_operator(u: np.ndarray, coef: Coefficients, stencil: _Stencil,
                    dx: float) -> np.ndarray:
    """Stacked per-control generator values (n_controls, n_x) on one layer,
    in ``stencil.out``; the first difference is upwinded by ``stencil.pick``.
    No difference is taken for a skipped term, and no clip: ``u`` is in [0, 1]."""
    if "drift" not in stencil.skip:
        np.divide(np.subtract(u[1:], u[:-1], out=stencil.inner), dx, out=stencil.inner)
        np.take(stencil.slope, stencil.pick, out=stencil.upwind, mode="clip")
    if "cov" not in stencil.skip:
        _second_difference(u, dx, out=stencil.m2)
    # u and the second difference with a control axis of one: the terms of
    # a shared field are then same-shape operations, numpy's fastest
    return generator(coef, u[None], stencil.grad, stencil.hess, out=stencil.out,
                     skip=stencil.skip, clip=False)


def _minimize(stacked: np.ndarray, argmin_row: np.ndarray) -> np.ndarray:
    """Minimum over the controls (axis 0) of ``stacked``, overwriting it; the
    minimizing index goes into ``argmin_row`` (zeros on entry), the lowest
    index on ties as in np.argmin."""
    best = stacked[0]
    for a in range(1, len(stacked)):
        np.copyto(argmin_row, a, where=stacked[a] < best)
        np.minimum(best, stacked[a], out=best)
    return best


def solve(params: ModelParams, grid: GridConfig) -> ValueGrid:
    """Backward explicit sweep from the terminal layer; rejects grids that
    violate the CFL bound and reports the ratio and clamp events (layer values
    that left [0, 1] by more than a floating-point guard before clipping)."""
    nodes = grid.nodes
    coef = _node_coefficients(params, nodes)
    bound = _cfl_bound(params, grid.dx, coef)
    ratio = grid.dt * bound
    if ratio > 1.0:
        raise ConfigurationError(
            f"CFL violation: dt * (max sigma^2/dx^2 + max |b|/dx + "
            f"rate_bound * (M + 1) + max cost) = {ratio:.6g} > 1; "
            f"increase n_t to at least {_steps_for(bound, grid.horizon)}")
    terminal = params.terminal_many(nodes[:, None])
    if terminal.min() < -CLAMP_TOL or terminal.max() > 1.0 + CLAMP_TOL:
        raise ConfigurationError("terminal cost leaves [0, 1] on the grid")
    terminal = np.clip(terminal, 0.0, 1.0)
    n_t = grid.n_t
    values = np.empty((n_t + 1, grid.n_x))
    argmin = np.zeros((n_t + 1, grid.n_x),
                      dtype=np.min_scalar_type(len(params.controls) - 1))
    values[n_t] = terminal
    clamp_events = 0
    stencil = _Stencil(params, coef, grid.n_x)
    dx, dt = grid.dx, grid.dt
    u = values[n_t]
    for k in range(n_t - 1, -1, -1):
        best = _minimize(_layer_operator(u, coef, stencil, dx), argmin[k + 1])
        u_new = values[k]
        np.add(np.multiply(best, dt, out=best), u, out=u_new)
        # a NaN fails both comparisons; clipping in-range values (-0.0
        # included) changes nothing
        if not (np.minimum.reduce(u_new) >= 0.0 and np.maximum.reduce(u_new) <= 1.0):
            if np.isnan(u_new).any():
                raise NumericalFailureError(
                    f"non-finite values while stepping onto layer {k}", layer=k)
            clamp_events += int(np.count_nonzero(
                (u_new < -CLAMP_TOL) | (u_new > 1.0 + CLAMP_TOL)))
            np.clip(u_new, 0.0, 1.0, out=u_new)
        u = u_new
    _minimize(_layer_operator(u, coef, stencil, dx), argmin[0])
    degenerate = bool(np.any(coef.cov == 0.0))
    return ValueGrid(times=grid.times, nodes=nodes, values=values,
                     argmin_control=argmin, params=params, cfl_ratio=ratio,
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
    # np.minimum/np.maximum compute np.clip at a lower cost per call
    xq = np.minimum(np.maximum(xs[:, 0], grid.nodes[0]), grid.nodes[-1])
    dt = grid.times[1] - grid.times[0]
    kf = min(int(t / dt), len(grid.times) - 2)
    wt = (t - grid.times[kf]) / dt
    j = np.minimum(np.maximum(np.searchsorted(grid.nodes, xq, side="right") - 1, 0),
                   len(grid.nodes) - 2)
    wx = (xq - grid.nodes[j]) / (grid.nodes[j + 1] - grid.nodes[j])
    lo = grid.values[kf, j] * (1 - wx) + grid.values[kf, j + 1] * wx
    hi = grid.values[kf + 1, j] * (1 - wx) + grid.values[kf + 1, j + 1] * wx
    return np.minimum(np.maximum(lo * (1 - wt) + hi * wt, 0.0), 1.0)


def _derivative_tables(values: np.ndarray, dx: float):
    """Nodewise first (centered, one-sided at edges) and second derivatives
    of every layer, with the same edge closure as the solver stencil."""
    du = np.empty_like(values)
    du[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dx)
    du[:, 0] = (values[:, 1] - values[:, 0]) / dx
    du[:, -1] = (values[:, -1] - values[:, -2]) / dx
    return du, _second_difference(values.T, dx).T


class FeedbackPolicy:
    """Markov control synthesized from a solved value surface.

    A query snaps to the nearest time layer, linearly interpolates the value
    and its space derivatives at the (domain-clamped) position, and returns
    the control minimizing the generator there; ties go to the lowest index.
    Total on all of R: positions are clamped to the grid.

    A policy of a model whose fields are all position-free tables, once, the
    control that every query snapped to (layer k, cell j) gets, or -1 where
    the certificate below fails; ``mixed_cells`` counts those (None for a
    position-dependent model, whose every query is evaluated).  A query
    evaluates the generator only at its points in mixed cells.

    The certificate.  In a cell r, p and m2 are linear in the weight w in
    [0, 1], so two controls' difference D(w) is linear but for the branching
    sum, |D''| <= C = sum_k |gamma_a p_ak - gamma_b p_bk| k (k - 1) dr^2 as r
    stays in [0, 1], and D(w) <= max(D(0), D(1)) + C/8.  The cell gets
    control a when, for every other b, max(D(0), D(1)) + C/8 < -margin =
    -2^-40 (K + 4) ((S_a + S_b) T + C), where K is the most children, S =
    |c| + |b| + |sigma sigma^T|/2 + sum_k |gamma p_k| and T the largest of 1,
    |p| and |m2| at the ends.  To first order in eps = 2^-52, a query's value
    of a control, and each end's (what a query gives at w = 0 and 1), is
    within (4K + 16) eps S T of the exact value at its weight: the margin is
    about 500 times what a query and both ends can lose together, and covers
    a query's weight past 1 by the nodes' rounding while |x| < 1000 dx.
    """

    def __init__(self, grid: ValueGrid):
        self.control = None   # a one-control model runs at 0 (simulator._make_plan)
        self.grid = grid
        self.params = grid.params
        dx = float(grid.nodes[1] - grid.nodes[0])
        self._dx = dx
        # value, slope and curvature side by side, one row per (layer, node):
        # a query gathers each of its two bracketing nodes once
        self._table = np.stack([grid.values, *_derivative_tables(grid.values, dx)],
                               axis=-1).reshape(-1, 3)
        self._t0, self._dt = grid.times[0], grid.times[1] - grid.times[0]
        # the control of (layer k, cell j) at k * (n_x - 1) + j
        self._cells = self._certify() if self.params._position_free else None
        self.mixed_cells = None if self._cells is None else int(np.sum(self._cells < 0))

    def controls_along(self, times: np.ndarray, xs: np.ndarray, label: Label) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        xs = np.asarray(xs, dtype=float)
        if len(times) == 0:
            return np.empty(0, dtype=np.int64)
        k = np.minimum(np.maximum(np.rint((times - self._t0) / self._dt).astype(int), 0),
                       len(self.grid.times) - 1)
        # the cell j in [0, n_x - 2] of the domain-clamped position
        inner = self.grid.nodes[1:-1]
        j = inner.searchsorted(xs[:, 0], "right")
        if self._cells is None:
            return self._argmin(k, j, xs[:, 0])
        chosen = self._cells[k * (len(inner) + 1) + j].astype(np.int64)
        mixed = (chosen < 0).nonzero()[0]
        if len(mixed):
            chosen[mixed] = self._argmin(k[mixed], j[mixed], xs[mixed, 0])
        return chosen

    def _argmin(self, k: np.ndarray, j: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The control minimizing the evaluated generator at layers ``k`` and
        positions ``x`` in cells ``j``; the lowest index wins ties, as in solve."""
        nodes = self.grid.nodes
        xq = np.minimum(np.maximum(x, nodes[0]), nodes[-1])
        row, wx = k * len(nodes) + j, ((xq - nodes[j]) / self._dx)[:, None]
        return self._generator(self._table[row] * (1 - wx) + self._table[row + 1] * wx,
                               xq).argmin(0)

    def _generator(self, rpm: np.ndarray, xq: np.ndarray) -> np.ndarray:
        """Every control's generator value from (n, 3) rows of value, slope and
        curvature at positions ``xq``: (n_controls, n), or one row when the
        controls share every field."""
        r, p, m2 = rpm.T
        coef = self.params.coefficients(xq[:, None])
        return np.atleast_2d(generator(coef, r, p[:, None], m2[:, None, None]))

    def _certify(self) -> np.ndarray:
        """The control table of a position-free model (class docstring),
        built four layers at a time to keep its work arrays small."""
        n_layers, n_x = self.grid.values.shape
        coef, n_c = self.params.coefficients(None), len(self.params.controls)
        gp = np.broadcast_to(coef.death_rate[..., None] * coef.probs,
                             (n_c, 1, coef.probs.shape[-1]))[:, 0]
        size = np.abs(gp).sum(-1) + sum(np.broadcast_to(np.abs(f), (n_c, 1))[:, 0] for f in
                                        (coef.cost, coef.drift[..., 0], 0.5 * coef.cov[..., 0, 0]))
        pair, curvature = size[:, None, None] + size[:, None], _curvature_bounds(gp)[..., None]
        cells = np.zeros((n_layers, n_x - 1), dtype=np.min_scalar_type(-n_c))
        for first in range(0, n_layers, 4):
            row = (np.arange(first, min(first + 4, n_layers))[:, None] * n_x
                   + np.arange(n_x - 1)).ravel()
            ends = [self._generator(self._table[row + e], self.grid.nodes[row % n_x + e])
                    for e in (0, 1)]
            if len(ends[0]) == 1:      # every field shared: every control ties
                break
            top = np.maximum(np.abs(self._table[row]), np.abs(self._table[row + 1])).max(1)
            curve = curvature * (self._table[row + 1, 0] - self._table[row, 0])**2
            margin = 2.0**-40 * (gp.shape[-1] + 3) * (pair * np.maximum(top, 1.0) + curve)
            worst = np.maximum(*(e[:, None] - e[None, :] for e in ends))
            won = ((worst + curve / 8 < -margin) | np.eye(n_c, dtype=bool)[..., None]).all(1)
            cells.flat[row - row // n_x] = np.where(won.any(0), won.argmax(0), -1)
        return cells.ravel()


def _curvature_bounds(gp: np.ndarray) -> np.ndarray:
    """sum_k |gp_ak - gp_bk| k (k - 1) per pair of rows of gp = gamma p_k."""
    k = np.arange(gp.shape[-1])
    return np.abs(gp[:, None] - gp[None, :]) @ (k * (k - 1.0))


# ---------------------------------------------------------------------------
# diagnostics and export

def boundary_sensitivity(params: ModelParams, config: GridConfig, probe_xs,
                         base_values) -> float:
    """Max change of u(0, x) over the probes ``probe_xs`` when the domain of
    ``config`` doubles in width at the same resolution; ``base_values`` are
    u(0, x) on ``config``'s own solved grid, in probe order.  Small values
    certify that the edge closure does not reach the probes.  The base grid
    is not an argument, so a caller done with it can let it go before the
    doubled domain is solved."""
    half = (config.x_hi - config.x_lo) / 2.0
    wide_cfg = replace(config, x_lo=config.x_lo - half, x_hi=config.x_hi + half,
                       n_x=2 * config.n_x - 1)
    n_t_needed = required_time_steps_for(params, wide_cfg)
    if n_t_needed > wide_cfg.n_t:
        wide_cfg = replace(wide_cfg, n_t=n_t_needed)
    wide = solve(params, wide_cfg)
    worst = 0.0
    for x, u in zip(probe_xs, base_values):
        worst = max(worst, abs(u - evaluate(wide, 0.0, [x])))
    return worst


def write_grid_csv(grid: ValueGrid, path) -> None:
    """Export (t, x, u, argmin control index) rows, comma-separated with
    CRLF line ends and 17 significant digits, one layer at a time."""
    # one template per grid with the nodes written in; a layer fills it from
    # (t, u, control) triples, one % operation per layer
    template = "".join([f"%s,{x:.17g},%.17g,%d\r\n" for x in grid.nodes.tolist()])
    n_x = len(grid.nodes)
    row = [None] * (3 * n_x)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u,control\r\n")
        for k, t in enumerate(grid.times.tolist()):
            row[0::3] = [format(t, ".17g")] * n_x
            row[1::3] = grid.values[k].tolist()
            row[2::3] = grid.argmin_control[k].tolist()
            fh.write(template % tuple(row))
