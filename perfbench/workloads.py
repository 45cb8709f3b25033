"""Seeded inputs for the benchmark workloads.

Each workload is one or more experiment files for the ``branchdiff`` CLI,
written into a scratch directory.  ``--seed`` and the repetition index fix
every ``seed_base`` and the start positions of ``population_growth``; the
same pair always yields byte-identical files.  Bundled models under ``configs/models`` are read, never
written.  Besides the files, a workload carries what the benchmark needs to
check and count the run from outside the program: the number of checks each
``summary.csv`` must hold, the ``simulate`` calls each config implies, and the
closed-form references of its own output checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mc_estimate", "feedback_dpp", "population_growth", "pde_sweep")

# Sizes of one CLI run of each workload.  A timed run repeats the workload's
# CLI runs several times inside its measuring window.
MC_ESTIMATE_REPS = 5000
MC_MOMENT_REPS = 1500
MC_COUPLE_REPS = 400
DPP_REPS = 600
DYNKIN_REPS = 300
GROWTH_PATHS = 6
HARVEST_GRID = {"x_lo": -8.0, "x_hi": 8.0, "n_x": 1601, "n_t": 2040}
CRITICAL_GRID = {"x_lo": -1.0, "x_hi": 1.0, "n_x": 21, "n_t": 6000}
# The grid mc_estimate's estimate is compared with: solved once per CLI run in
# about 15 ms (under 1% of the run).  At x = 0 it reads 0.8938; grids of 61,
# 121 and 641 nodes read 0.8916, 0.8931 and 0.8941, so its first-order error
# is about 7e-4, which the allowance covers.  The band, 3 estimated standard
# errors (about 0.0013 each at 5000 paths) plus the allowance, is about 0.006
# wide: halving the motion noise (+0.021) or turning a fifth of the deaths and
# branchings into phantoms (+0.012) fails it; dropping the drift (+0.005) does
# not.
MC_GRID = {"x_lo": -3.0, "x_hi": 3.0, "n_x": 241, "n_t": 151}
MC_PDE_ALLOWANCE = 0.002

# The generated supercritical model of population_growth: binary splitting at
# rate GROWTH_RATE under a dominating rate GROWTH_BOUND, so phantom marks,
# deaths and branchings all occur.
GROWTH_RATE = 1.0
GROWTH_BOUND = 1.25
GROWTH_P_DEATH = 0.2
GROWTH_SIGMA = 0.3
GROWTH_HORIZON = 0.6
GROWTH_FOUNDERS = 128
GROWTH_TARGET = 0.5          # the value the terminal cost is tuned to
CRITICAL_HORIZON = 2.0
PDE_TOLERANCE = 1e-3         # nodewise acceptance tolerance of the solver


@dataclass
class Invocation:
    """One CLI run: its config, worker count and what it must produce."""
    name: str
    config: Path
    threads: int
    n_checks: int            # rows its summary.csv must hold
    work: int                # simulate calls, or PDE node updates, it implies


@dataclass
class Workload:
    name: str
    seed: int
    seed_base: int
    invocations: list[Invocation]
    references: dict = field(default_factory=dict)
    # each repetition of a timed run draws fresh seed bases: set where the
    # work of one repetition depends on its seeds enough to move the median
    reseed: bool = False

    @property
    def work(self) -> int:
        return sum(inv.work for inv in self.invocations)


def seed_base_for(name: str, seed: int, rep: int) -> int:
    digest = hashlib.sha256(f"{name}/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:5], "big")


def _write(path: Path, doc: dict) -> Path:
    # JSON is a subset of YAML, so the CLI reads these files as written
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _experiment(model: Path, out: Path, step: float, horizon: float,
                seed_base: int, tasks: list, grid: dict | None = None,
                particles: list | None = None, **simulation) -> dict:
    doc = {
        "model": str(model),
        "output_dir": str(out),
        "initial": {"time": 0.0, "particles": particles or
                    [{"label": "", "position": [0.0]}]},
        "simulation": {"step": step, "horizon": horizon, "replications": 100,
                       "seed_base": seed_base, **simulation},
        "tasks": tasks,
    }
    if grid is not None:
        doc["grid"] = dict(grid)
    return doc


def growth_value(g: float) -> float:
    """phi(T) for phi' = gamma (p0 + p2 phi^2 - phi), phi(0) = g, by RK4.

    With a state-independent terminal cost g and no running cost, the value of
    one particle is the generating function E[g^N_T] of its surviving family,
    which solves this ODE; the value of N founders is its N-th power."""
    p2 = 1.0 - GROWTH_P_DEATH

    def rhs(phi):
        return GROWTH_RATE * (GROWTH_P_DEATH + p2 * phi * phi - phi)

    n_steps = 4000
    h = GROWTH_HORIZON / n_steps
    phi = g
    for _ in range(n_steps):
        k1 = rhs(phi)
        k2 = rhs(phi + 0.5 * h * k1)
        k3 = rhs(phi + 0.5 * h * k2)
        k4 = rhs(phi + h * k3)
        phi += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return phi


@functools.cache
def growth_terminal_cost() -> tuple[float, float, float]:
    """Terminal cost g, found by bisection, whose founder value is closest to
    GROWTH_TARGET; returns (g, value, standard deviation of one path's cost).
    phi(T) increases with g.  The founders' families are independent, so the
    second moment of the cost, a product over founders of g^N, is the value
    at terminal cost g^2."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if growth_value(mid) ** GROWTH_FOUNDERS < GROWTH_TARGET:
            lo = mid
        else:
            hi = mid
    g = round(0.5 * (lo + hi), 12)
    value = growth_value(g) ** GROWTH_FOUNDERS
    second = growth_value(g * g) ** GROWTH_FOUNDERS
    return g, value, math.sqrt(second - value * value)


def growth_model(g: float) -> dict:
    return {
        "dim": 1, "noise_dim": 1,
        "rate_bound": GROWTH_BOUND, "max_children": 2,
        "mean_offspring_bound": 2.0,
        "controls": {"count": 1},
        "coefficients": {
            "drift": [{"family": "constant", "value": 0.0}],
            "diffusion": [{"family": "constant", "value": GROWTH_SIGMA}],
            "death_rate": {"family": "constant", "value": GROWTH_RATE},
            "offspring": {"residual_last": True, "probs": [
                {"family": "constant", "value": GROWTH_P_DEATH},
                {"family": "constant", "value": 0.0}]},
            "running_cost": {"family": "constant", "value": 0.0},
            "terminal": {"family": "constant", "value": g},
        },
    }


def build(name: str, seed: int, rep: int, repo: Path, scratch: Path) -> Workload:
    """Write the files of repetition ``rep`` of the workload under ``scratch``
    and describe them."""
    models = repo / "configs" / "models"
    scratch.mkdir(parents=True, exist_ok=True)
    base = seed_base_for(name, seed, rep)
    out = scratch / "out"
    if name == "mc_estimate":
        # rungs far enough apart that the rates rise with overwhelming
        # probability: about 0.18, 0.94 and 0.9993 at these perturbations
        couple_eps = [0.3, 0.1, 0.001]
        doc = _experiment(
            models / "subcritical_drift.yaml", out / "main", 0.05, 1.0, base,
            grid=MC_GRID, coupling_delta=0.05, tasks=[
                {"kind": "estimate", "policy": {"kind": "constant", "control": 0},
                 "replications": MC_ESTIMATE_REPS, "compare_pde": True,
                 "allowance": MC_PDE_ALLOWANCE},
                {"kind": "moment", "replications": MC_MOMENT_REPS},
                {"kind": "couple", "perturbations": couple_eps,
                 "replications": MC_COUPLE_REPS, "final_rate_min": 0.99},
            ])
        paths = (MC_ESTIMATE_REPS + MC_MOMENT_REPS
                 + 2 * len(couple_eps) * MC_COUPLE_REPS)
        return Workload(name, seed, base, [Invocation(
            "main", _write(scratch / "main.json", doc), 1, 1 + 1 + 2, paths)])
    if name == "feedback_dpp":
        policies = [{"kind": "feedback", "role": "optimal"},
                    {"kind": "constant", "control": 1, "role": "suboptimal"}]
        stopping = [{"rule": "fixed", "time": 0.5},
                    {"rule": "first-event", "time": 0.5}]
        functions = [
            {"family": "gaussian-bump", "base": 0.2, "scale": 0.6, "decay": 0.3,
             "center": [0.0], "width": 0.8},
            {"family": "polynomial-times-bump", "base": 0.3, "scale": 0.5,
             "decay": 0.2, "center": [0.1], "width": 0.9}]
        times = [0.25, 0.5]
        doc = _experiment(
            models / "two_control_harvest.yaml", out / "main", 0.02, 1.0, base,
            grid={"x_lo": -4.0, "x_hi": 4.0, "n_x": 161, "n_t": 90}, tasks=[
                {"kind": "solve", "probe_points": [-1.0, 0.0, 1.0]},
                {"kind": "dpp", "allowance": 0.015, "policies": policies,
                 "stopping": stopping, "replications": DPP_REPS},
                {"kind": "dynkin", "policy": {"kind": "feedback"},
                 "replications": DYNKIN_REPS, "times": times, "functions": functions},
            ])
        n_calls = len(policies) * len(stopping) + len(functions) * len(times)
        paths = (len(policies) * len(stopping) * DPP_REPS
                 + len(functions) * len(times) * DYNKIN_REPS)
        return Workload(name, seed, base, [Invocation(
            "main", _write(scratch / "main.json", doc), 2, 3 + n_calls, paths)])
    if name == "population_growth":
        g, value, sd = growth_terminal_cost()
        model = _write(scratch / "growth_model.json", growth_model(g))
        rng = random.Random(base)
        particles = [{"label": str(i), "position": [round(rng.uniform(-1.0, 1.0), 6)]}
                     for i in range(GROWTH_FOUNDERS)]
        # Band: the three estimated standard errors the oracle check uses by
        # default, plus three exact ones.  From a handful of paths the
        # estimated standard error alone is too uncertain: a bare 3-sigma band
        # would fail about 3% of correct runs at 6 paths (Student t, 5 dof).
        allowance = 3.0 * sd / math.sqrt(GROWTH_PATHS)
        doc = _experiment(
            model, out / "main", 0.05, GROWTH_HORIZON, base, particles=particles,
            tasks=[{"kind": "estimate", "replications": GROWTH_PATHS,
                    "oracle": {"value": value, "sigmas": 3.0, "allowance": allowance}}])
        return Workload(name, seed, base, [Invocation(
            "main", _write(scratch / "main.json", doc), 1, 1, GROWTH_PATHS)],
            references={"growth_value": value, "path_cost_sd": sd, "terminal_cost": g},
            reseed=True)
    if name == "pde_sweep":
        harvest = _experiment(
            models / "two_control_harvest.yaml", out / "harvest", 0.02, 1.0, base,
            grid=HARVEST_GRID, tasks=[
                {"kind": "solve", "export_csv": False,
                 "probe_points": [-1.0, 0.0, 1.0], "boundary_sensitivity": True}])
        critical = _experiment(
            models / "critical_binary.yaml", out / "critical", 0.5,
            CRITICAL_HORIZON, base, grid=CRITICAL_GRID,
            tasks=[{"kind": "solve", "probe_points": [0.0]}])
        # the harvest run solves its grid, then the same grid and the doubled
        # domain again for the boundary sensitivity (the CFL ratio, hence n_t,
        # is unchanged at equal spacing)
        n_x, n_t = HARVEST_GRID["n_x"], HARVEST_GRID["n_t"]
        harvest_nodes = n_t * (n_x + n_x + 2 * n_x - 1)
        critical_nodes = CRITICAL_GRID["n_t"] * CRITICAL_GRID["n_x"]
        return Workload(name, seed, base, [
            Invocation("harvest", _write(scratch / "harvest.json", harvest), 1, 3,
                       harvest_nodes),
            Invocation("critical", _write(scratch / "critical.json", critical), 1, 3,
                       critical_nodes),
        ], references={"critical_value": CRITICAL_HORIZON / (2.0 + CRITICAL_HORIZON)})
    raise ValueError(f"unknown workload {name!r}; known: {list(WORKLOADS)}")
