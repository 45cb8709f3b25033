"""Experiment runner: parse a declarative experiment file, execute its task
list (solve / estimate / branching / dpp / dynkin / moment / couple /
verify-all), and write reproducible artifacts.

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
from .labels import label_from_str
from .modelio import _check_empty, _fail, _require_mapping, _take

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EXPLOSION = 4
EXIT_CHECKS_FAILED = 5
EXIT_IO = 6

_TASK_KINDS = ("solve", "estimate", "branching", "dpp", "dynkin", "moment",
               "couple", "verify-all")


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
    canonical = yaml.safe_dump(doc, sort_keys=True, default_flow_style=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# experiment config parsing

class Experiment:
    """Parsed experiment: model, initial family, numerics, tasks."""

    def __init__(self, doc: dict, config_path: Path, overrides):
        self.digest = config_digest(doc)
        doc = dict(_require_mapping(doc, "experiment"))
        base = config_path.parent
        model_ref = _take(doc, "model", "experiment")
        self.model_path = (base / model_ref).resolve()
        file_out = _take(doc, "output_dir", "experiment")
        self.output_dir = Path(overrides.out if overrides.out is not None
                               else file_out)

        sim = dict(_require_mapping(_take(doc, "simulation", "experiment"),
                                    "simulation"))
        self.step = float(_take(sim, "step", "simulation"))
        self.horizon = float(_take(sim, "horizon", "simulation"))
        file_reps = _take(sim, "replications", "simulation")
        self.n_reps = int(overrides.reps if overrides.reps is not None else file_reps)
        file_seed = _take(sim, "seed_base", "simulation")
        self.seed_base = int(overrides.seed if overrides.seed is not None
                             else file_seed)
        self.population_cap = int(_take(sim, "population_cap", "simulation",
                                        required=False, default=10**6))
        self.coupling_delta = float(_take(sim, "coupling_delta", "simulation",
                                          required=False, default=0.05))
        _check_empty(sim, "simulation")

        init = dict(_require_mapping(_take(doc, "initial", "experiment"), "initial"))
        self.start_time = float(_take(init, "time", "initial", required=False,
                                      default=0.0))
        particles = _take(init, "particles", "initial")
        _check_empty(init, "initial")
        if not isinstance(particles, list) or not particles:
            _fail("initial.particles", "expected a non-empty list")
        self.initial = {}
        index = {}     # label -> its particle's index in the list
        for i, p in enumerate(particles):
            where = f"initial.particles[{i}]"
            p = dict(_require_mapping(p, where))
            text = _take(p, "label", where, required=False, default="")
            if isinstance(text, bool) or not isinstance(text, (str, int)):
                # YAML reads an unquoted 0.10 as the number 0.1
                _fail(f"{where}.label", f"expected a quoted label such as \"0.1\", "
                                        f"got {text!r}")
            text = str(text)
            try:
                lab = label_from_str(text)
            except ValueError as err:
                _fail(f"{where}.label", str(err))
            if lab in index:
                _fail(f"{where}.label", f"label {text!r} repeats the label of "
                                        f"initial.particles[{index[lab]}]")
            index[lab] = i
            pos = _take(p, "position", where)
            _check_empty(p, where)
            self.initial[lab] = np.asarray(pos, dtype=float)
        # sorted, a label is followed by its descendants (as in is_antichain)
        ordered = sorted(index)
        for a, b in zip(ordered, ordered[1:]):
            if b[:len(a)] == a:
                i, j = sorted((index[a], index[b]))
                _fail(f"initial.particles[{j}].label",
                      f"the founders violate the antichain condition: one of "
                      f"initial.particles[{i}] and [{j}] descends from the other")

        grid_node = _take(doc, "grid", "experiment", required=False)
        self.grid_doc = None
        if grid_node is not None:
            g = dict(_require_mapping(grid_node, "grid"))
            self.grid_doc = {
                "x_lo": float(_take(g, "x_lo", "grid")),
                "x_hi": float(_take(g, "x_hi", "grid")),
                "n_x": int(_take(g, "n_x", "grid")),
                "n_t": int(_take(g, "n_t", "grid")),
            }
            _check_empty(g, "grid")

        tasks = _take(doc, "tasks", "experiment")
        _check_empty(doc, "experiment")
        if not isinstance(tasks, list) or not tasks:
            _fail("tasks", "expected a non-empty task list")
        self.tasks = []
        for i, task in enumerate(tasks):
            task = dict(_require_mapping(task, f"tasks[{i}]"))
            kind = _take(task, "kind", f"tasks[{i}]")
            if kind not in _TASK_KINDS:
                _fail(f"tasks[{i}].kind", f"unknown task kind {kind!r}; "
                                          f"known: {list(_TASK_KINDS)}")
            self.tasks.append((kind, task))

        self.params = modelio.load_model(self.model_path)

    def grid_config(self) -> hjb.GridConfig:
        if self.grid_doc is None:
            _fail("grid", "this task needs a grid section")
        return hjb.GridConfig(horizon=self.horizon, **self.grid_doc)


# ---------------------------------------------------------------------------
# shared task helpers

class Runner:
    def __init__(self, exp: Experiment):
        self.exp = exp
        self._solved: hjb.ValueGrid | None = None
        self.checks_rows = []

    def solved_grid(self) -> hjb.ValueGrid:
        if self._solved is None:
            self._solved = hjb.solve(self.exp.params, self.exp.grid_config())
        return self._solved

    def policy_from(self, node, path) -> object:
        if node is None:
            return simulator.ConstantPolicy(0)
        node = dict(_require_mapping(node, path))
        kind = _take(node, "kind", path)
        if kind == "constant":
            ctrl = int(_take(node, "control", path, required=False, default=0))
            _check_empty(node, path)
            return simulator.ConstantPolicy(ctrl)
        if kind == "feedback":
            _check_empty(node, path)
            return hjb.extract_feedback(self.solved_grid())
        if kind == "open-loop":
            times = _take(node, "switch_times", path)
            ctrls = _take(node, "controls", path)
            _check_empty(node, path)
            return simulator.OpenLoopPolicy((times, ctrls))
        _fail(path, f"unknown policy kind {kind!r}")

    def check(self, task_idx, kind, name, value, reference, band, passed):
        self.checks_rows.append({
            "task": task_idx, "kind": kind, "check": name,
            "value": value, "reference": reference, "band": band,
            "passed": bool(passed)})
        return {"name": name, "value": value, "reference": reference,
                "band": band, "passed": bool(passed)}


def _probe_lattice(exp: Experiment, n: int = 21):
    if exp.grid_doc is not None:
        xs = np.linspace(exp.grid_doc["x_lo"], exp.grid_doc["x_hi"], n)
        pts = [np.array([x]) for x in xs] if exp.params.dim == 1 else None
    else:
        pts = None
    if pts is None:
        anchor = np.stack(list(exp.initial.values()))
        lo, hi = anchor.min(axis=0) - 2.0, anchor.max(axis=0) + 2.0
        pts = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    return [(x, None) for x in pts]


# ---------------------------------------------------------------------------
# task implementations (each returns a report dict)

def _task_solve(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    export = _take(task, "export_csv", f"tasks[{idx}]", required=False, default=True)
    probes = _take(task, "probe_points", f"tasks[{idx}]", required=False)
    sensitivity = _take(task, "boundary_sensitivity", f"tasks[{idx}]",
                        required=False, default=False)
    _check_empty(task, f"tasks[{idx}]")
    cfg = exp.grid_config()
    ratio = hjb.cfl_ratio(exp.params, cfg)
    grid = runner.solved_grid()
    u_min, u_max = float(grid.values.min()), float(grid.values.max())
    checks = [
        runner.check(idx, "solve", "cfl_ratio", ratio, 1.0, 0.0, ratio <= 1.0),
        runner.check(idx, "solve", "clamp_events", float(grid.clamp_events),
                     0.0, 0.0, grid.clamp_events == 0),
        runner.check(idx, "solve", "range", u_min, 0.0, 0.0,
                     0.0 <= u_min and u_max <= 1.0),
    ]
    results = {
        "cfl_ratio": ratio,
        "clamp_events": grid.clamp_events,
        "degenerate_diffusion": grid.degenerate_diffusion,
        "u_min": u_min,
        "u_max": u_max,
    }
    if probes is not None:
        results["probes"] = [
            {"x": float(x), "u0": hjb.evaluate(grid, 0.0, [float(x)])}
            for x in probes]
    if sensitivity:
        sens = hjb.boundary_sensitivity(
            grid,
            [[float(p["x"])] for p in results.get("probes", [])] or
            [[0.5 * (cfg.x_lo + cfg.x_hi)]])
        results["boundary_sensitivity"] = sens
    if export:
        csv_path = exp.output_dir / f"task_{idx:02d}_grid.csv"
        hjb.write_grid_csv(grid, csv_path)
        results["grid_csv"] = csv_path.name
    return {"results": results, "checks": checks}


def _task_estimate(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    policy = runner.policy_from(_take(task, "policy", path, required=False), f"{path}.policy")
    n_reps = int(_take(task, "replications", path, required=False, default=exp.n_reps))
    oracle = _take(task, "oracle", path, required=False)
    compare_pde = _take(task, "compare_pde", path, required=False, default=False)
    allowance = float(_take(task, "allowance", path, required=False, default=0.01))
    dump_summaries = _take(task, "dump_summaries", path, required=False, default=False)
    dump_paths = int(_take(task, "dump_paths", path, required=False, default=0))
    _check_empty(task, path)
    summaries = estimator.run_replications(
        exp.start_time, exp.initial, policy, exp.params, n_reps, exp.step,
        exp.horizon, exp.seed_base, population_cap=exp.population_cap)
    costs = np.array([s.cost for s in summaries])
    est = estimator.estimate_from_samples(costs, exp.seed_base)
    results = {"mean": est.mean, "stderr": est.stderr, "replications": n_reps,
               "mean_sup_population": float(np.mean([s.sup_population
                                                     for s in summaries])),
               "extinct_fraction": float(np.mean([s.extinct for s in summaries]))}
    checks = []
    if oracle is not None:
        onode = dict(_require_mapping(oracle, f"{path}.oracle"))
        target = float(_take(onode, "value", f"{path}.oracle"))
        sigmas = float(_take(onode, "sigmas", f"{path}.oracle", required=False,
                             default=3.0))
        o_allow = float(_take(onode, "allowance", f"{path}.oracle",
                              required=False, default=0.0))
        _check_empty(onode, f"{path}.oracle")
        band = sigmas * est.stderr + o_allow
        checks.append(runner.check(idx, "estimate", "oracle",
                                   est.mean, target, band,
                                   abs(est.mean - target) <= band))
    if compare_pde:
        grid = runner.solved_grid()
        ref = 1.0
        for x in exp.initial.values():
            ref *= hjb.evaluate(grid, exp.start_time, x)
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
    if dump_paths:
        setup = simulator.prepare_simulation(
            exp.start_time, exp.initial, policy, exp.params, exp.step, exp.horizon,
            seeds=range(exp.seed_base, exp.seed_base + dump_paths))
        for k in range(dump_paths):
            p = simulator.simulate(*setup.inputs, exp.seed_base + k,
                                   population_cap=exp.population_cap, setup=setup)
            csv_path = exp.output_dir / f"task_{idx:02d}_path_{k}.csv"
            with open(csv_path, "w", newline="") as fh:
                simulator.write_path_csv(p, fh)
    return {"results": results, "checks": checks}


def _task_branching(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    positions = _take(task, "positions", path)
    policy = runner.policy_from(_take(task, "policy", path, required=False),
                                f"{path}.policy")
    n_reps = int(_take(task, "replications", path, required=False,
                       default=exp.n_reps))
    _check_empty(task, path)
    report = estimator.check_branching(
        exp.start_time, [np.atleast_1d(np.asarray(p, dtype=float))
                         for p in positions],
        policy, exp.params, n_reps, exp.step, exp.seed_base,
        horizon=exp.horizon, population_cap=exp.population_cap)
    checks = [runner.check(idx, "branching", "product_factorization",
                           report.multi.mean, report.product_of_singles,
                           report.band, report.passed)]
    return {"results": {
        "multi_mean": report.multi.mean, "multi_stderr": report.multi.stderr,
        "singles": [{"mean": e.mean, "stderr": e.stderr} for e in report.singles],
        "product_of_singles": report.product_of_singles,
        "difference": report.difference, "band": report.band,
    }, "checks": checks}


def _parse_test_function(node, path) -> estimator.SmoothTestFunction:
    node = dict(_require_mapping(node, path))
    kwargs = {"family": _take(node, "family", path)}
    for key in ("base", "scale", "decay", "width"):
        if key in node:
            kwargs[key] = float(node.pop(key))
    for key in ("center", "direction"):
        if key in node:
            kwargs[key] = tuple(float(v) for v in node.pop(key))
    _check_empty(node, path)
    return estimator.SmoothTestFunction(**kwargs)


def _task_dynkin(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    fn_nodes = _take(task, "functions", path)
    times = _take(task, "times", path)
    policy = runner.policy_from(_take(task, "policy", path, required=False),
                                f"{path}.policy")
    n_reps = int(_take(task, "replications", path, required=False,
                       default=min(exp.n_reps, 10000)))
    allow_coef = float(_take(task, "allowance_per_step", path, required=False,
                             default=0.5))
    _check_empty(task, path)
    functions = [_parse_test_function(n, f"{path}.functions[{i}]")
                 for i, n in enumerate(fn_nodes)]
    rows, checks = [], []
    for fi, fn in enumerate(functions):
        for s in times:
            est = estimator.dynkin_residual(
                fn, exp.start_time, exp.initial, policy, exp.params, float(s),
                n_reps, exp.step, exp.seed_base + 1000 * fi,
                population_cap=exp.population_cap)
            band = 3.0 * est.stderr + allow_coef * exp.step
            ok = abs(est.mean) <= band
            rows.append({"function": fi, "family": fn.family, "time": float(s),
                         "mean": est.mean, "stderr": est.stderr, "band": band,
                         "passed": ok})
            checks.append(runner.check(idx, "dynkin",
                                       f"residual_f{fi}_s{s}",
                                       est.mean, 0.0, band, ok))
    return {"results": {"residuals": rows}, "checks": checks}


def _task_dpp(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    policy_nodes = _take(task, "policies", path)
    stopping = _take(task, "stopping", path)
    n_reps = int(_take(task, "replications", path, required=False,
                       default=min(exp.n_reps, 20000)))
    allowance = float(_take(task, "allowance", path, required=False, default=0.01))
    _check_empty(task, path)
    grid = runner.solved_grid()
    rows, checks = [], []
    for pi, pnode in enumerate(policy_nodes):
        pnode = dict(_require_mapping(pnode, f"{path}.policies[{pi}]"))
        role = _take(pnode, "role", f"{path}.policies[{pi}]", required=False,
                     default="admissible")
        policy = runner.policy_from(pnode, f"{path}.policies[{pi}]")
        for si, snode in enumerate(stopping):
            snode = dict(_require_mapping(snode, f"{path}.stopping[{si}]"))
            skind = _take(snode, "rule", f"{path}.stopping[{si}]")
            stime = float(_take(snode, "time", f"{path}.stopping[{si}]"))
            _check_empty(snode, f"{path}.stopping[{si}]")
            report = estimator.dpp_check(
                exp.start_time, exp.initial, policy, exp.params,
                (skind, stime), grid, n_reps, exp.step,
                exp.seed_base + 7000 * pi + 100 * si, allowance=allowance,
                population_cap=exp.population_cap)
            if role == "optimal":
                ok = report.within_band
            elif role == "suboptimal":
                ok = report.slack > 3.0 * report.estimate.stderr
            else:
                ok = report.lower_bound_ok
            rows.append({"policy": pi, "role": role, "rule": skind,
                         "time": stime, "estimate": report.estimate.mean,
                         "stderr": report.estimate.stderr,
                         "reference": report.reference, "slack": report.slack,
                         "band": report.band, "passed": ok})
            checks.append(runner.check(
                idx, "dpp", f"p{pi}_{role}_{skind}", report.slack,
                0.0, report.band, ok))
    return {"results": {"inequalities": rows}, "checks": checks}


def _task_moment(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    policy = runner.policy_from(_take(task, "policy", path, required=False),
                                f"{path}.policy")
    n_reps = int(_take(task, "replications", path, required=False,
                       default=exp.n_reps))
    _check_empty(task, path)
    summaries = estimator.run_replications(
        exp.start_time, exp.initial, policy, exp.params, n_reps, exp.step,
        exp.horizon, exp.seed_base, population_cap=exp.population_cap)
    report = estimator.moment_check(summaries, exp.params, len(exp.initial),
                                    exp.start_time, exp.horizon)
    checks = [runner.check(idx, "moment", "mean_sup_population",
                           report.mean_sup, report.bound,
                           3.0 * report.stderr, report.passed)]
    return {"results": {
        "mean_sup_population": report.mean_sup, "stderr": report.stderr,
        "bound": report.bound, "replications": report.n_reps,
    }, "checks": checks}


def _task_couple(runner: Runner, idx: int, task: dict) -> dict:
    exp = runner.exp
    path = f"tasks[{idx}]"
    perturbations = _take(task, "perturbations", path)
    policy = runner.policy_from(_take(task, "policy", path, required=False),
                                f"{path}.policy")
    n_reps = int(_take(task, "replications", path, required=False,
                       default=min(exp.n_reps, 10000)))
    final_min = float(_take(task, "final_rate_min", path, required=False,
                            default=0.99))
    _check_empty(task, path)
    ladder = sorted((float(e) for e in perturbations), reverse=True)
    rows = []
    rates = []
    for li, eps in enumerate(ladder):
        tilde = model_mod.perturbed_copy(exp.params, eps)
        rep = estimator.coupling_probe(
            exp.start_time, exp.initial, policy, exp.params, tilde,
            exp.coupling_delta, n_reps, exp.step, exp.horizon,
            exp.seed_base + 30000 * li, population_cap=exp.population_cap)
        distance = model_mod.coefficient_distance(exp.params, tilde)
        rows.append({"perturbation": eps, "coefficient_distance": distance,
                     "rate": rep.rate, "stderr": rep.stderr,
                     "successes": rep.n_success, "replications": rep.n_reps})
        rates.append(rep.rate)
    monotone = all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))
    checks = [
        runner.check(idx, "couple", "rate_nondecreasing",
                     float(min(np.diff(rates), default=0.0)), 0.0, 0.0, monotone),
        runner.check(idx, "couple", "final_rate", rates[-1], final_min, 0.0,
                     rates[-1] >= final_min),
    ]
    return {"results": {"ladder": rows}, "checks": checks}


def _task_verify_all(runner: Runner, idx: int, task: dict) -> dict:
    """Canned composition: solve, MC estimate vs the PDE value, moment bound,
    branching factorization, martingale residual, DPP with the feedback
    policy, determinism, and (when g is positive) cost-form identity."""
    exp = runner.exp
    path = f"tasks[{idx}]"
    n_est = int(_take(task, "replications", path, required=False,
                      default=exp.n_reps))
    n_small = int(_take(task, "check_replications", path, required=False,
                        default=min(5000, n_est)))
    allowance = float(_take(task, "allowance", path, required=False, default=0.01))
    oracle = _take(task, "oracle", path, required=False)
    perturbations = _take(task, "perturbations", path, required=False)
    positions = _take(task, "branching_positions", path, required=False)
    _check_empty(task, path)

    checks = []
    results = {}

    grid = runner.solved_grid()
    checks.append(runner.check(idx, "verify-all", "clamp_events",
                               float(grid.clamp_events), 0.0, 0.0,
                               grid.clamp_events == 0))

    policy = hjb.extract_feedback(grid)
    est = estimator.estimate_value(
        exp.start_time, exp.initial, policy, exp.params, n_est, exp.step,
        exp.seed_base, horizon=exp.horizon, population_cap=exp.population_cap)
    ref = 1.0
    for x in exp.initial.values():
        ref *= hjb.evaluate(grid, exp.start_time, x)
    band = 3.0 * est.stderr + allowance
    checks.append(runner.check(idx, "verify-all", "mc_pde_agreement",
                               est.mean, ref, band, abs(est.mean - ref) <= band))
    results["estimate"] = {"mean": est.mean, "stderr": est.stderr,
                           "pde_value": ref}
    if oracle is not None:
        target = float(oracle)
        checks.append(runner.check(idx, "verify-all", "oracle", est.mean,
                                   target, band, abs(est.mean - target) <= band))

    summaries = estimator.run_replications(
        exp.start_time, exp.initial, policy, exp.params, n_small, exp.step,
        exp.horizon, exp.seed_base + 1, population_cap=exp.population_cap)
    mom = estimator.moment_check(summaries, exp.params, len(exp.initial),
                                 exp.start_time, exp.horizon)
    checks.append(runner.check(idx, "verify-all", "moment_bound", mom.mean_sup,
                               mom.bound, 3.0 * mom.stderr, mom.passed))

    if positions is None:
        mid = 0.5 * (grid.nodes[0] + grid.nodes[-1])
        span = grid.nodes[-1] - grid.nodes[0]
        positions = [[mid - span / 8.0], [mid + span / 8.0]]
    branch = estimator.check_branching(
        exp.start_time, [np.atleast_1d(np.asarray(p, dtype=float))
                         for p in positions],
        policy, exp.params, n_small, exp.step, exp.seed_base + 2,
        horizon=exp.horizon, population_cap=exp.population_cap)
    checks.append(runner.check(idx, "verify-all", "branching",
                               branch.multi.mean, branch.product_of_singles,
                               branch.band, branch.passed))

    mid = 0.5 * (grid.nodes[0] + grid.nodes[-1])
    span = grid.nodes[-1] - grid.nodes[0]
    fn = estimator.SmoothTestFunction(
        family="gaussian-bump", base=0.2, scale=0.6, decay=0.3,
        center=(float(mid),) * exp.params.dim, width=float(span) / 4.0)
    dyn = estimator.dynkin_residual(
        fn, exp.start_time, exp.initial, policy, exp.params,
        exp.start_time + 0.5 * (exp.horizon - exp.start_time),
        n_small, exp.step, exp.seed_base + 3,
        population_cap=exp.population_cap)
    dband = 3.0 * dyn.stderr + 0.5 * exp.step
    checks.append(runner.check(idx, "verify-all", "dynkin_residual", dyn.mean,
                               0.0, dband, abs(dyn.mean) <= dband))

    s_mid = exp.start_time + 0.5 * (exp.horizon - exp.start_time)
    for rule in ("fixed", "first-event"):
        rep = estimator.dpp_check(
            exp.start_time, exp.initial, policy, exp.params, (rule, s_mid),
            grid, n_small, exp.step, exp.seed_base + 4, allowance=allowance,
            population_cap=exp.population_cap)
        checks.append(runner.check(idx, "verify-all", f"dpp_{rule}", rep.slack,
                                   0.0, rep.band, rep.within_band))

    est2 = estimator.estimate_value(
        exp.start_time, exp.initial, policy, exp.params,
        min(n_small, 1000), exp.step, exp.seed_base + 5, horizon=exp.horizon,
        population_cap=exp.population_cap)
    est2b = estimator.estimate_value(
        exp.start_time, exp.initial, policy, exp.params,
        min(n_small, 1000), exp.step, exp.seed_base + 5, horizon=exp.horizon,
        population_cap=exp.population_cap)
    checks.append(runner.check(idx, "verify-all", "determinism", est2.mean,
                               est2b.mean, 0.0, est2.mean == est2b.mean))

    g_lo, _ = exp.params.terminal.bounds()
    if g_lo > 0.0:
        worst = 0.0
        n_paths = min(200, n_small)
        setup = simulator.prepare_simulation(
            exp.start_time, exp.initial, policy, exp.params, exp.step, exp.horizon,
            seeds=range(exp.seed_base + 6, exp.seed_base + 6 + n_paths))
        for k in range(n_paths):
            p = simulator.simulate(*setup.inputs, exp.seed_base + 6 + k,
                                   population_cap=exp.population_cap,
                                   record_paths=False, setup=setup)
            a = simulator.pathwise_cost(p, exp.params)
            b = simulator.pathwise_cost_log_form(p, exp.params)
            denom = max(abs(a), 1e-300)
            worst = max(worst, abs(a - b) / denom)
        checks.append(runner.check(idx, "verify-all", "cost_form_identity",
                                   worst, 0.0, 1e-10, worst < 1e-10))

    if perturbations:
        couple_report = _task_couple(
            runner, idx, {"perturbations": perturbations, "replications": n_small})
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

    try:
        text = config_path.read_text()
    except OSError as err:
        print(f"error: cannot read config {config_path}: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        print(f"error: {config_path}: YAML parse error{where}: {err}",
              file=sys.stderr)
        return EXIT_PARSE

    try:
        exp = Experiment(doc, config_path, ov)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE

    try:
        exp.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output dir: {err}", file=sys.stderr)
        return EXIT_IO

    report_files = []
    runner = Runner(exp)
    try:
        lattice = _probe_lattice(exp)
        validation = model_mod.validate_params(exp.params, lattice)
        if not validation.ok:
            print("error: model validation failed:\n" + validation.summary(),
                  file=sys.stderr)
            return EXIT_VALIDATION

        with estimator.worker_pool(threads):   # one pool for every task
            for idx, (kind, task) in enumerate(exp.tasks):
                body = _TASK_FUNCS[kind](runner, idx, dict(task))
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
                status = "pass" if passed else "FAIL"
                print(f"[{status}] task {idx} {kind}")
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ExplosionGuardError as err:
        print(f"error: explosion guard: {err} "
              f"(population {err.population}, time {err.time_reached})",
              file=sys.stderr)
        return EXIT_EXPLOSION
    except NumericalFailureError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    with open(exp.output_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "kind", "check", "value", "reference",
                         "band", "passed"])
        for row in runner.checks_rows:
            writer.writerow([row["task"], row["kind"], row["check"],
                             _fmt(row["value"]), _fmt(row["reference"]),
                             _fmt(row["band"]), row["passed"]])

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
    return EXIT_OK if all_passed else EXIT_CHECKS_FAILED


_EPILOG = """exit codes:
  0  all tasks ran and every verification check passed
  1  unexpected internal error
  2  config or model file parse error
  3  validation failure (model invariants, CFL bound, numerical failure)
  4  explosion guard tripped (population exceeded the configured cap)
  5  tasks ran but at least one verification check failed
  6  I/O error (missing file, unwritable output directory)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchdiff",
        description="Run declarative branching-diffusion experiments: "
                    "simulate, solve the value PDE, and verify their "
                    "structural identities.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="experiment file (YAML)")
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
