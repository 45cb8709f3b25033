"""Experiment runner: parse a declarative experiment file, execute its task
list (solve / estimate / branching / dpp / dynkin / moment / couple /
verify-all), and write reproducible artifacts.

The whole file is parsed before any task runs: each task is checked against
the spec of its kind (``_TASKS``) and turned into plain values, so a bad key
in the last task stops the run before the first one starts.

Outputs land in the experiment's output directory: one JSON report per task,
a summary.csv table of all checks, and manifest.json carrying the config
digest, versions and seeds.  Reports contain no timestamps, so identical
configs and seeds reproduce them byte for byte; the manifest's
``generated_at`` field is the one value excluded from comparison.  All floats
serialize with 17 significant digits.  ``branchdiff --help`` lists the exit
codes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from . import __version__, estimator, hjb, model as model_mod, modelio, simulator
from .errors import ConfigurationError, ExplosionGuardError, NumericalFailureError
from .labels import label_from_str, label_to_str, nested_pair
from .modelio import (REQUIRED, _build, _fail, _fields, _flag, _items, _list_of, _of_kind,
                      _one_of, _raw, _real, _real_in, _reals, _require_mapping, _section,
                      _whole)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EXPLOSION = 4
EXIT_CHECKS_FAILED = 5
EXIT_IO = 6


# ---------------------------------------------------------------------------
# deterministic serialization (17 significant digits)

def _fmt(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {dump_json(str(k))}: {dump_json(v, indent + 2)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dump_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_digest(doc) -> str:
    canonical = yaml.dump(doc, Dumper=modelio.YAML_DUMPER, sort_keys=True,
                          default_flow_style=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# experiment config parsing: one spec per task kind (see modelio._fields), its
# parsers taking the experiment parsed so far as their context

FEEDBACK = "feedback"   # a parsed feedback policy: built from the solved grid
_count = _whole(1)
_nonneg = _real_in(0.0)   # a band's width, an allowance, a tolerance or a size


def _text(exp, value, path) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a file path, got {value!r}")
    return value


def _point(exp, value, path) -> tuple[float, ...]:
    x = modelio._float_list(value, path)
    if len(x) != exp.params.dim:
        _fail(path, f"expected {exp.params.dim} coordinate(s), got {len(x)}")
    return x


def _position(exp, value, path) -> np.ndarray:
    return np.array(_point(exp, value, path))


def _label(exp, text, path):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        # YAML reads an unquoted 0.10 as the number 0.1
        _fail(path, f"expected a quoted label such as \"0.1\", got {text!r}")
    try:
        return label_from_str(str(text))
    except ValueError as err:
        _fail(path, str(err))


_PARTICLE = {"label": (_label, ()), "position": (_position, REQUIRED)}


def _particles(exp, value, path) -> dict:
    """{label: position} of the founders, which must form an antichain."""
    initial, index = {}, {}     # index: label -> its particle's index in the list
    for i, particle in enumerate(_list_of(_section(_PARTICLE))(exp, value, path)):
        lab = particle["label"]
        if lab in index:
            _fail(f"{path}[{i}].label", f"label {label_to_str(lab)!r} repeats the "
                                        f"label of {path}[{index[lab]}]")
        index[lab] = i
        initial[lab] = particle["position"]
    pair = nested_pair(index)
    if pair is not None:
        i, j = sorted(index[lab] for lab in pair)
        _fail(f"{path}[{j}].label", f"the founders violate the antichain condition: one of "
                                    f"{path}[{i}] and [{j}] descends from the other")
    return initial


def _control(exp, value, path) -> int:
    c = modelio._int(value, path)
    n = len(exp.params.controls)
    if not 0 <= c < n:
        _fail(path, f"control index {c} is out of range: the model has {n} control(s)")
    return c


_POLICIES = {
    "constant": {"control": (_control, 0)},
    "feedback": {},
    "open-loop": {"switch_times": (_reals, REQUIRED),
                  "controls": (_list_of(_control), REQUIRED)},
}


def _needs_solver(exp, path, what):
    """Fail at ``path`` unless the experiment has a grid and a 1-d model to solve on."""
    if exp.grid is None:
        _fail(path, f"{what} needs a grid section")
    if exp.params.dim != 1:
        _fail(path, f"{what} needs the PDE solver, which handles one-dimensional "
                    f"models only; the model has dim = {exp.params.dim}")


def _policy(exp, node, path):
    """A constant or open-loop policy, or FEEDBACK."""
    kind, v = _of_kind(exp, node, _POLICIES, path)
    if kind == "constant":
        return simulator.ConstantPolicy(v["control"])
    if kind == "open-loop":
        return _build(f"{path}.switch_times", simulator.OpenLoopPolicy,
                      (v["switch_times"], v["controls"]))
    _needs_solver(exp, path, "a feedback policy")
    return FEEDBACK


def _dpp_policy(exp, node, path):
    """(role, policy): a policy with an optional role."""
    node = dict(_require_mapping(node, path))
    role = _one_of("admissible", "optimal", "suboptimal")(
        exp, node.pop("role", "admissible"), f"{path}.role")
    return role, _policy(exp, node, path)


_TEST_FUNCTION = {
    "family": (_one_of("constant", "gaussian-bump", "polynomial-times-bump"), REQUIRED),
    **{key: (_real, None) for key in ("base", "scale", "decay", "width")},
    **{key: (_point, None) for key in ("center", "direction")},
}


def _test_function(exp, node, path) -> estimator.SmoothTestFunction:
    given = _fields(exp, node, _TEST_FUNCTION, path)
    fn = _build(path, estimator.SmoothTestFunction,
                **{k: v for k, v in given.items() if v is not None})
    # the task evaluates u from initial.time on, before t = 0 if that is negative
    _build(path, fn.check_range, exp.start_time)
    return fn


def _times(exp, value, path) -> list:
    """(time as written, time) pairs: a check is named by its time as written.
    No time may precede initial.time; one past the horizon is legal."""
    times = _list_of(_real)(exp, value, path)
    for j, s in enumerate(times):
        if s < exp.start_time:
            _fail(f"{path}[{j}]", f"must not precede initial.time = "
                                  f"{exp.start_time!r}, got {s!r}")
    return list(zip(map(str, value), times))


def _path_time(exp, value, path) -> float:
    s = modelio._number(value, path)
    if not exp.start_time <= s <= exp.horizon:
        _fail(path, f"must lie in [initial.time, simulation.horizon] = "
                    f"[{exp.start_time!r}, {exp.horizon!r}], got {s!r}")
    return s


def _probes(exp, value, path) -> tuple[float, ...]:
    """Probe positions, each within [grid.x_lo, grid.x_hi]; without a grid
    the task fails its grid check instead."""
    xs = _reals(exp, value, path)
    if exp.grid is not None:
        lo, hi = exp.grid.x_lo, exp.grid.x_hi
        for j, x in enumerate(xs):
            if not lo <= x <= hi:
                _fail(f"{path}[{j}]", f"must lie in [grid.x_lo, grid.x_hi] = "
                                      f"[{lo!r}, {hi!r}], got {x!r}")
    return xs


def _ladder(exp, value, path) -> list:
    return sorted(_list_of(_nonneg)(exp, value, path), reverse=True)


def _reps(cap=None):
    """A replication count, by default simulation.replications capped at ``cap``."""
    return (_count, lambda exp, _: exp.n_reps if cap is None else min(exp.n_reps, cap))


_POLICY = (_policy, simulator.ConstantPolicy(0))
_STOPPING = {"rule": (_one_of("fixed", "first-event"), REQUIRED),
             "time": (_path_time, REQUIRED)}
_ORACLE = {"value": (_real, REQUIRED), "sigmas": (_nonneg, 3.0),
           "allowance": (_nonneg, 0.0)}

_TASKS = {
    "solve": {"export_csv": (_flag, True), "probe_points": (_probes, None),
              "boundary_sensitivity": (_flag, False)},
    "estimate": {"policy": _POLICY, "replications": _reps(),
                 "oracle": (_section(_ORACLE), None), "compare_pde": (_flag, False),
                 "allowance": (_nonneg, 0.01), "dump_summaries": (_flag, False),
                 "dump_paths": (_whole(0), 0)},
    "branching": {"positions": (_list_of(_position), REQUIRED), "policy": _POLICY,
                  "replications": _reps()},
    "dpp": {"policies": (_list_of(_dpp_policy), REQUIRED),
            "stopping": (_list_of(_section(_STOPPING)), REQUIRED),
            "replications": _reps(20000), "allowance": (_nonneg, 0.01)},
    "dynkin": {"functions": (_list_of(_test_function), REQUIRED),
               "times": (_times, REQUIRED), "policy": _POLICY,
               "replications": _reps(10000), "allowance_per_step": (_nonneg, 0.5)},
    "moment": {"policy": _POLICY, "replications": _reps()},
    "couple": {"perturbations": (_ladder, REQUIRED), "policy": _POLICY,
               "replications": _reps(10000), "final_rate_min": (_real_in(0.0, 1.0), 0.99)},
    "verify-all": {"replications": _reps(),
                   "check_replications": (_count,
                                          lambda exp, v: min(5000, v["replications"])),
                   "allowance": (_nonneg, 0.01), "oracle": (_real, None),
                   "perturbations": (_raw, None),
                   "branching_positions": (_list_of(_position), None)},
}


def _reads_grid(kind, values) -> bool:
    """Whether a parsed task reads the solved grid: a solve, dpp (under any
    of its policies) or verify-all task, an estimate with compare_pde, or a
    task under the feedback policy."""
    return (kind in ("solve", "dpp", "verify-all") or values.get("compare_pde", False)
            or values.get("policy") is FEEDBACK)


# the estimator's minimums of each task's counts, checked before the first task runs
_MIN_REPS = {kind: {"replications": estimator.MIN_REPLICATIONS}
             for kind in ("estimate", "branching", "dpp", "dynkin")}
_MIN_REPS["moment"] = {"replications": estimator.MIN_MOMENT_REPLICATIONS}
_MIN_REPS["verify-all"] = {"replications": estimator.MIN_REPLICATIONS,
                           "check_replications": estimator.MIN_MOMENT_REPLICATIONS}

_EXPERIMENT = {"model": (_text, REQUIRED), "output_dir": (_text, REQUIRED),
               "initial": (_raw, REQUIRED), "simulation": (_raw, REQUIRED),
               "grid": (_raw, None), "tasks": (_raw, REQUIRED)}
_SIMULATION = {"step": (_real, REQUIRED), "horizon": (_real, REQUIRED),
               "replications": (_count, REQUIRED), "seed_base": (_whole(0), REQUIRED),
               "population_cap": (_count, 10**6), "coupling_delta": (_nonneg, 0.05)}
_INITIAL = {"time": (_real, 0.0), "particles": (_particles, REQUIRED)}
_GRID = {"x_lo": (_real, REQUIRED), "x_hi": (_real, REQUIRED),
         "n_x": (_whole(3), REQUIRED), "n_t": (_count, REQUIRED)}


class Experiment:
    """A parsed experiment: model, initial family, numerics, and every task
    as its kind and plain values, all checked before any task runs."""

    def __init__(self, doc: dict, config_path: Path, overrides):
        self.digest = config_digest(doc)
        top = _fields(self, _require_mapping(doc, "experiment"), _EXPERIMENT, "")
        self.model_path = (config_path.parent / top["model"]).resolve()
        self.output_dir = Path(overrides.out if overrides.out is not None
                               else top["output_dir"])
        # loaded first: positions and control indices are checked against it
        self.params = modelio.load_model(self.model_path)

        sim = _fields(self, top["simulation"], _SIMULATION, "simulation")
        self.step, self.horizon = sim["step"], sim["horizon"]
        self.population_cap, self.coupling_delta = sim["population_cap"], sim["coupling_delta"]
        if self.step <= 0:
            _fail("simulation.step", f"must be positive, got {self.step!r}")
        self.n_reps = (sim["replications"] if overrides.reps is None
                       else _count(self, overrides.reps, "--reps"))
        self.seed_base = (sim["seed_base"] if overrides.seed is None
                          else _whole(0)(self, overrides.seed, "--seed"))

        init = _fields(self, top["initial"], _INITIAL, "initial")
        self.start_time, self.initial = init["time"], init["particles"]
        if self.horizon < self.start_time:
            _fail("simulation.horizon", f"{self.horizon!r} lies before the start "
                                        f"time initial.time = {self.start_time!r}")

        self.grid = None
        if top["grid"] is not None:
            if self.start_time < 0:
                _fail("initial.time", f"must not precede the grid, which spans "
                                      f"[0, simulation.horizon], got {self.start_time!r}")
            self.grid = _build("grid", hjb.GridConfig, horizon=self.horizon,
                               **_fields(self, top["grid"], _GRID, "grid"))
        self.tasks = [self._task(node, where) for where, node in _items(top["tasks"], "tasks")]

    def _task(self, node, path):
        kind, values = _of_kind(self, node, _TASKS, path)
        if _reads_grid(kind, values):
            _needs_solver(self, path, "this task")
        if kind == "verify-all":
            # the coupling ladder is a couple task at the check replications
            ladder = values.pop("perturbations")
            values["couple"] = None if ladder is None else _fields(
                self, {"perturbations": ladder,
                       "replications": values["check_replications"]},
                _TASKS["couple"], path)
        return kind, values

    def check_replications(self) -> None:
        """Raise ConfigurationError at the first task count below its minimum."""
        for i, (kind, values) in enumerate(self.tasks):
            for key, least in _MIN_REPS.get(kind, {}).items():
                if values[key] < least:
                    raise ConfigurationError(
                        f"tasks[{i}].{key}: needs at least {least} replications, "
                        f"got {values[key]}")


# ---------------------------------------------------------------------------
# shared task helpers

class Runner:
    def __init__(self, exp: Experiment):
        self.exp = exp
        self._solved: hjb.ValueGrid | None = None
        # the index of the last task that reads the solved grid, -1 for none
        self._last_reader = max((i for i, (kind, values) in enumerate(exp.tasks)
                                 if _reads_grid(kind, values)), default=-1)
        self.checks_rows = []

    def solved_grid(self) -> hjb.ValueGrid:
        """The experiment's solved grid, solved on first use (again after a
        release)."""
        if self._solved is None:
            self._solved = hjb.solve(self.exp.params, self.exp.grid)
        return self._solved

    def release_grid(self, idx: int) -> None:
        """Drop the solved grid when task ``idx`` is the last that reads it."""
        if idx == self._last_reader:
            self._solved = None

    def policy(self, policy):
        """The parsed policy, with FEEDBACK built from the solved grid."""
        return hjb.FeedbackPolicy(self.solved_grid()) if policy is FEEDBACK else policy

    def setup(self, policy, *, positions=None, horizon=None) -> simulator.SimulationSetup:
        """The set-up of a task's paths under a resolved ``policy``: from the
        experiment's founders, or founders (i,) at ``positions``, and its
        horizon unless another is given."""
        exp = self.exp
        initial = (exp.initial if positions is None
                   else {(i,): x for i, x in enumerate(positions)})
        return simulator.prepare_simulation(
            exp.start_time, initial, policy, exp.params, exp.step,
            exp.horizon if horizon is None else horizon, population_cap=exp.population_cap)

    def check(self, task_idx, kind, name, value, reference, band, passed):
        row = {"name": name, "value": value, "reference": reference, "band": band,
               "passed": bool(passed)}
        self.checks_rows.append((task_idx, kind, row))
        return row


def _probe_lattice(exp: Experiment, n: int = 21):
    if exp.grid is not None and exp.params.dim == 1:
        pts = [np.array([x]) for x in np.linspace(exp.grid.x_lo, exp.grid.x_hi, n)]
    else:
        anchor = np.stack(list(exp.initial.values()))
        lo, hi = anchor.min(axis=0) - 2.0, anchor.max(axis=0) + 2.0
        pts = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    return [(x, None) for x in pts]


# ---------------------------------------------------------------------------
# task implementations: each takes its task's parsed values and returns a
# report dict

def _task_solve(runner: Runner, idx: int, *, export_csv, probe_points,
                boundary_sensitivity) -> dict:
    exp, cfg = runner.exp, runner.exp.grid
    grid = runner.solved_grid()   # a grid past the CFL bound raises instead
    u_min, u_max = float(grid.values.min()), float(grid.values.max())
    checks = [
        runner.check(idx, "solve", "cfl_ratio", grid.cfl_ratio, 1.0, 0.0, True),
        runner.check(idx, "solve", "clamp_events", float(grid.clamp_events),
                     0.0, 0.0, grid.clamp_events == 0),
        runner.check(idx, "solve", "range", u_min, 0.0, 0.0,
                     0.0 <= u_min and u_max <= 1.0),
    ]
    results = {"cfl_ratio": grid.cfl_ratio, "clamp_events": grid.clamp_events,
               "degenerate_diffusion": grid.degenerate_diffusion,
               "u_min": u_min, "u_max": u_max}
    if probe_points is not None:
        results["probes"] = [{"x": x, "u0": hjb.evaluate(grid, 0.0, [x])}
                             for x in probe_points]
    if export_csv:
        csv_path = exp.output_dir / f"task_{idx:02d}_grid.csv"
        hjb.write_grid_csv(grid, csv_path)
    if boundary_sensitivity:
        # at the report's probes, else at the midpoint.  All the task reports
        # is read from the grid by now, so unless a later task reads it, the
        # grid is released before the doubled domain's surface is allocated
        xs = probe_points or [0.5 * (cfg.x_lo + cfg.x_hi)]
        u0 = ([p["u0"] for p in results["probes"]] if probe_points
              else [hjb.evaluate(grid, 0.0, xs)])
        del grid
        runner.release_grid(idx)
        results["boundary_sensitivity"] = hjb.boundary_sensitivity(exp.params, cfg, xs, u0)
    if export_csv:
        results["grid_csv"] = csv_path.name
    return {"results": results, "checks": checks}


def _task_estimate(runner: Runner, idx: int, *, policy, replications, oracle,
                   compare_pde, allowance, dump_summaries, dump_paths) -> dict:
    exp = runner.exp
    setup = runner.setup(runner.policy(policy))
    summaries = estimator.run_replications(setup, replications, exp.seed_base)
    costs = np.array([s.cost for s in summaries])
    est = estimator.estimate_from_samples(costs, exp.seed_base)
    results = {"mean": est.mean, "stderr": est.stderr, "replications": replications,
               "mean_sup_population": float(np.mean([s.sup_population
                                                     for s in summaries])),
               "extinct_fraction": float(np.mean([s.extinct for s in summaries]))}
    checks = []
    if oracle is not None:
        band = oracle["sigmas"] * est.stderr + oracle["allowance"]
        checks.append(runner.check(idx, "estimate", "oracle",
                                   est.mean, oracle["value"], band,
                                   abs(est.mean - oracle["value"]) <= band))
    if compare_pde:
        grid = runner.solved_grid()
        ref = math.prod(hjb.evaluate(grid, exp.start_time, x) for x in exp.initial.values())
        band = 3.0 * est.stderr + allowance
        checks.append(runner.check(idx, "estimate", "pde_agreement",
                                   est.mean, ref, band,
                                   abs(est.mean - ref) <= band))
    if dump_summaries:
        jl_path = exp.output_dir / f"task_{idx:02d}_replications.jsonl"
        with open(jl_path, "w") as fh:
            for s in summaries:
                fh.write(dump_json({
                    "seed": s.seed, "cost": s.cost,
                    "sup_population": s.sup_population,
                    "n_events": s.n_events, "extinct": s.extinct,
                }).replace("\n", " ") + "\n")
        results["replications_jsonl"] = jl_path.name
    for k in range(dump_paths):
        # the CSV holds the events and the final positions, not the tracks
        p = simulator.simulate(setup, exp.seed_base + k, record_paths=False)
        csv_path = exp.output_dir / f"task_{idx:02d}_path_{k}.csv"
        with open(csv_path, "w", newline="") as fh:
            simulator.write_path_csv(p, fh)
    return {"results": results, "checks": checks}


def _task_branching(runner: Runner, idx: int, *, positions, policy,
                    replications) -> dict:
    exp = runner.exp
    report = estimator.check_branching(runner.setup(runner.policy(policy), positions=positions),
                                       replications, exp.seed_base)
    checks = [runner.check(idx, "branching", "product_factorization",
                           report.multi.mean, report.product_of_singles,
                           report.band, report.passed)]
    return {"results": {
        "multi_mean": report.multi.mean, "multi_stderr": report.multi.stderr,
        "singles": [{"mean": e.mean, "stderr": e.stderr} for e in report.singles],
        "product_of_singles": report.product_of_singles,
        "difference": report.difference, "band": report.band,
    }, "checks": checks}


def _task_dynkin(runner: Runner, idx: int, *, functions, times, policy,
                 replications, allowance_per_step) -> dict:
    exp = runner.exp
    policy = runner.policy(policy)
    setups = [runner.setup(policy, horizon=s) for _, s in times]
    rows, checks = [], []
    for fi, fn in enumerate(functions):
        for (written, s), setup in zip(times, setups):
            est = estimator.dynkin_residual(setup, fn, replications,
                                            exp.seed_base + 1000 * fi)
            band = 3.0 * est.stderr + allowance_per_step * exp.step
            ok = abs(est.mean) <= band
            rows.append({"function": fi, "family": fn.family, "time": s,
                         "mean": est.mean, "stderr": est.stderr, "band": band,
                         "passed": ok})
            checks.append(runner.check(idx, "dynkin",
                                       f"residual_f{fi}_s{written}",
                                       est.mean, 0.0, band, ok))
    return {"results": {"residuals": rows}, "checks": checks}


def _task_dpp(runner: Runner, idx: int, *, policies, stopping, replications,
              allowance) -> dict:
    exp = runner.exp
    grid = runner.solved_grid()
    rows, checks = [], []
    for pi, (role, policy) in enumerate(policies):
        policy = runner.policy(policy)
        for si, stop in enumerate(stopping):
            rule, s = stop["rule"], stop["time"]
            report = estimator.dpp_check(
                runner.setup(policy, horizon=s), rule, grid, replications,
                exp.seed_base + 7000 * pi + 100 * si, allowance=allowance)
            ok = {"optimal": report.within_band,
                  "suboptimal": report.slack > 3.0 * report.estimate.stderr,
                  "admissible": report.lower_bound_ok}[role]
            rows.append({"policy": pi, "role": role, "rule": rule,
                         "time": s, "estimate": report.estimate.mean,
                         "stderr": report.estimate.stderr,
                         "reference": report.reference, "slack": report.slack,
                         "band": report.band, "passed": ok})
            checks.append(runner.check(
                idx, "dpp", f"p{pi}_{role}_{rule}", report.slack,
                0.0, report.band, ok))
    return {"results": {"inequalities": rows}, "checks": checks}


def _task_moment(runner: Runner, idx: int, *, policy, replications) -> dict:
    setup = runner.setup(runner.policy(policy))
    summaries = estimator.run_replications(setup, replications, runner.exp.seed_base)
    report = estimator.moment_check(summaries, setup)
    checks = [runner.check(idx, "moment", "mean_sup_population",
                           report.mean_sup, report.bound,
                           3.0 * report.stderr, report.passed)]
    return {"results": {
        "mean_sup_population": report.mean_sup, "stderr": report.stderr,
        "bound": report.bound, "replications": report.n_reps,
    }, "checks": checks}


def _task_couple(runner: Runner, idx: int, *, perturbations, policy, replications,
                 final_rate_min) -> dict:
    exp = runner.exp
    setup = runner.setup(runner.policy(policy))
    rows, rates = [], []
    for li, eps in enumerate(perturbations):
        tilde = model_mod.perturbed_copy(exp.params, eps)
        rep = estimator.coupling_probe(setup, tilde, exp.coupling_delta, replications,
                                       exp.seed_base + 30000 * li)
        distance = model_mod.coefficient_distance(exp.params, tilde)
        rows.append({"perturbation": eps, "coefficient_distance": distance,
                     "rate": rep.rate, "stderr": rep.stderr,
                     "successes": rep.n_success, "replications": rep.n_reps})
        rates.append(rep.rate)
    monotone = all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))
    checks = [
        runner.check(idx, "couple", "rate_nondecreasing",
                     float(min(np.diff(rates), default=0.0)), 0.0, 0.0, monotone),
        runner.check(idx, "couple", "final_rate", rates[-1], final_rate_min, 0.0,
                     rates[-1] >= final_rate_min),
    ]
    return {"results": {"ladder": rows}, "checks": checks}


def _task_verify_all(runner: Runner, idx: int, *, replications, check_replications,
                     allowance, oracle, branching_positions, couple) -> dict:
    """Canned composition: solve, MC estimate vs the PDE value, moment bound,
    branching factorization, martingale residual, DPP with the feedback
    policy, determinism, (when g is positive) cost-form identity, and the
    coupling ladder, whose parsed couple task is ``couple``."""
    exp = runner.exp
    n_small = check_replications
    checks, results = [], {}
    grid = runner.solved_grid()
    checks.append(runner.check(idx, "verify-all", "clamp_events",
                               float(grid.clamp_events), 0.0, 0.0,
                               grid.clamp_events == 0))

    policy = hjb.FeedbackPolicy(grid)
    setup = runner.setup(policy)
    est = estimator.estimate_value(setup, replications, exp.seed_base)
    ref = math.prod(hjb.evaluate(grid, exp.start_time, x) for x in exp.initial.values())
    band = 3.0 * est.stderr + allowance
    checks.append(runner.check(idx, "verify-all", "mc_pde_agreement",
                               est.mean, ref, band, abs(est.mean - ref) <= band))
    results["estimate"] = {"mean": est.mean, "stderr": est.stderr,
                           "pde_value": ref}
    if oracle is not None:
        checks.append(runner.check(idx, "verify-all", "oracle", est.mean,
                                   oracle, band, abs(est.mean - oracle) <= band))

    summaries = estimator.run_replications(setup, n_small, exp.seed_base + 1)
    mom = estimator.moment_check(summaries, setup)
    checks.append(runner.check(idx, "verify-all", "moment_bound", mom.mean_sup,
                               mom.bound, 3.0 * mom.stderr, mom.passed))

    mid = 0.5 * (grid.nodes[0] + grid.nodes[-1])
    span = grid.nodes[-1] - grid.nodes[0]
    if branching_positions is None:
        branching_positions = [[mid - span / 8.0], [mid + span / 8.0]]
    branch = estimator.check_branching(runner.setup(policy, positions=branching_positions),
                                       n_small, exp.seed_base + 2)
    checks.append(runner.check(idx, "verify-all", "branching",
                               branch.multi.mean, branch.product_of_singles,
                               branch.band, branch.passed))

    fn = estimator.SmoothTestFunction(
        family="gaussian-bump", base=0.2, scale=0.6, decay=0.3,
        center=(float(mid),) * exp.params.dim, width=float(span) / 4.0)
    s_mid = exp.start_time + 0.5 * (exp.horizon - exp.start_time)
    mid_setup = runner.setup(policy, horizon=s_mid)
    dyn = estimator.dynkin_residual(mid_setup, fn, n_small, exp.seed_base + 3)
    dband = 3.0 * dyn.stderr + 0.5 * exp.step
    checks.append(runner.check(idx, "verify-all", "dynkin_residual", dyn.mean,
                               0.0, dband, abs(dyn.mean) <= dband))

    for rule in ("fixed", "first-event"):
        rep = estimator.dpp_check(mid_setup, rule, grid, n_small, exp.seed_base + 4,
                                  allowance=allowance)
        checks.append(runner.check(idx, "verify-all", f"dpp_{rule}", rep.slack,
                                   0.0, rep.band, rep.within_band))

    est2, est2b = (estimator.estimate_value(setup, min(n_small, 1000), exp.seed_base + 5)
                   for _ in range(2))
    checks.append(runner.check(idx, "verify-all", "determinism", est2.mean,
                               est2b.mean, 0.0, est2.mean == est2b.mean))

    g_lo, _ = exp.params.terminal.bounds()
    if g_lo > 0.0:
        worst = 0.0
        for k in range(min(200, n_small)):
            p = simulator.simulate(setup, exp.seed_base + 6 + k, record_paths=False)
            a = simulator.pathwise_cost(p, exp.params)
            b = simulator.pathwise_cost_log_form(p, exp.params)
            denom = max(abs(a), 1e-300)
            worst = max(worst, abs(a - b) / denom)
        checks.append(runner.check(idx, "verify-all", "cost_form_identity",
                                   worst, 0.0, 1e-10, worst < 1e-10))

    if couple is not None:
        couple_report = _task_couple(runner, idx, **couple)
        checks.extend(couple_report["checks"])
        results["coupling"] = couple_report["results"]

    return {"results": results, "checks": checks}


_TASK_FUNCS = {
    "solve": _task_solve,
    "estimate": _task_estimate,
    "branching": _task_branching,
    "dpp": _task_dpp,
    "dynkin": _task_dynkin,
    "moment": _task_moment,
    "couple": _task_couple,
    "verify-all": _task_verify_all,
}


# ---------------------------------------------------------------------------
# driver

def run(config_path, *, out=None, seed=None, reps=None, threads=1) -> int:
    """Execute an experiment file; returns the process exit code."""
    config_path = Path(config_path)
    ov = SimpleNamespace(out=out, seed=seed, reps=reps)
    bad_config = EXIT_PARSE   # a ConfigurationError once the file is parsed fails validation
    try:
        exp = Experiment(modelio.read_document(config_path, "config"), config_path, ov)
        bad_config = EXIT_VALIDATION
        exp.output_dir.mkdir(parents=True, exist_ok=True)
        exp.check_replications()
        validation = model_mod.validate_params(exp.params, _probe_lattice(exp))
        if not validation.ok:
            print("error: model validation failed:\n" + validation.summary(),
                  file=sys.stderr)
            return EXIT_VALIDATION

        report_files = []
        runner = Runner(exp)
        with estimator.worker_pool(threads):   # one pool for every task
            for idx, (kind, values) in enumerate(exp.tasks):
                body = _TASK_FUNCS[kind](runner, idx, **values)
                passed = all(c["passed"] for c in body["checks"])
                report = {
                    "task": idx, "kind": kind,
                    "config_digest": exp.digest,
                    "model": exp.model_path.name,
                    "seed_base": exp.seed_base,
                    "step": exp.step, "horizon": exp.horizon,
                    "results": body["results"], "checks": body["checks"],
                    "passed": passed,
                }
                fname = f"task_{idx:02d}_{kind.replace('-', '_')}.json"
                (exp.output_dir / fname).write_text(dump_json(report) + "\n")
                report_files.append((idx, kind, passed, fname))
                print(f"[{'pass' if passed else 'FAIL'}] task {idx} {kind}")

        with open(exp.output_dir / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "kind", "check", "value", "reference",
                             "band", "passed"])
            for task, kind, row in runner.checks_rows:
                writer.writerow([task, kind, row["name"], _fmt(row["value"]),
                                 _fmt(row["reference"]), _fmt(row["band"]), row["passed"]])

        all_passed = all(p for (_, _, p, _) in report_files)
        manifest = {
            "config_digest": exp.digest,
            "model": exp.model_path.name,
            "seed_base": exp.seed_base,
            "versions": {"branchdiff": __version__, "numpy": np.__version__,
                         "python": sys.version.split()[0]},
            "tasks": [{"index": i, "kind": k, "passed": p, "report": f}
                      for (i, k, p, f) in report_files],
            "all_passed": all_passed,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        (exp.output_dir / "manifest.json").write_text(dump_json(manifest) + "\n")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return bad_config
    except ExplosionGuardError as err:
        print(f"error: explosion guard: {err} "
              f"(population {err.population}, time {err.time_reached})",
              file=sys.stderr)
        return EXIT_EXPLOSION
    except NumericalFailureError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if all_passed else EXIT_CHECKS_FAILED


_EPILOG = """exit codes:
  0  all tasks ran and every verification check passed
  1  unexpected internal error
  2  config or model file parse error: an unknown or missing key, a wrong type or
     an out-of-range value, named by its key path (checked before any task runs)
  3  validation failure (model invariants, CFL bound, numerical failure)
  4  explosion guard tripped (population exceeded the configured cap)
  5  tasks ran but at least one verification check failed
  6  a file the run cannot read or write (a missing config or model file, an
     unwritable output directory or report)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchdiff",
        description="Run declarative branching-diffusion experiments: "
                    "simulate, solve the value PDE, and verify their "
                    "structural identities.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="experiment file (YAML or JSON)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed base override")
    parser.add_argument("--reps", type=int, default=None,
                        help="replication count override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for replication fan-out")
    parser.add_argument("--version", action="version",
                        version=f"branchdiff {__version__}")
    args = parser.parse_args(argv)
    try:
        return run(args.config, out=args.out, seed=args.seed, reps=args.reps,
                   threads=args.threads)
    except Exception as err:  # noqa: BLE001 - last-resort report
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
