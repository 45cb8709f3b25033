"""In-process tracing of the branchdiff layers, from outside the package.

``Tracer.installed(package)`` replaces the module attributes and methods the
layers call each other through with wrappers that record one span per call:
name, start, end and the enclosing span.  Spans live in flat arrays in memory
and are written out once, at the end (``Tracer.save``).  A span's self time is
its duration minus the time its child spans cover.  Worker processes inherit
the wrappers but their spans stay in the worker, so inner-layer numbers come
from single-worker runs.

Every ``simulate`` call also feeds a per-path record (duration, Euler steps,
events by kind, peak population) and is checked against three counter
identities (``IDENTITIES``); a broken one is kept in ``Tracer.violations``.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

_SCALAR = ("drift_at", "diffusion_at", "death_rate_at", "offspring_probs_at",
           "running_cost_at", "terminal_at")
_VECTOR = ("drift_many", "diffusion_many", "death_rate_many",
           "offspring_probs_many", "running_cost_many", "terminal_many")
_ESTIMATOR = ("run_replications", "estimate_value", "estimate_from_samples",
              "_estimate_from", "check_branching", "dynkin_residual", "dpp_check",
              "moment_check", "coupling_probe")
_POP_BINS = (("pop_lt_64", 0, 64), ("pop_64_255", 64, 256),
             ("pop_ge_256", 256, float("inf")))
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IDENTITIES = ("events", "population", "streams")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.derived = 0                   # keyed streams derived so far
        self.path_rows: list[tuple] = []   # one per simulate call
        self.grids: list[tuple[int, int]] = []   # (n_t, n_x) per solve
        self.feedback_points = 0
        self.violations: list[tuple[str, str]] = []   # (identity, detail)

    # -- spans -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None, outermost=False):
        """Wrapper recording a span per call.  ``after(result)`` runs once the
        span is closed; with ``outermost`` a call made inside a span of the
        same name (recursion) records nothing."""
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if outermost and stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    # -- per-call records ------------------------------------------------------

    def _wrap_simulate(self, fn):
        nid = self._id("simulator.simulate")
        tracer = self

        def traced(*args, **kwargs):
            derived_before = tracer.derived
            idx = tracer.open(nid)
            try:
                path = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._record_path(path, idx, tracer.derived - derived_before)
            return path

        return traced

    def _record_path(self, path, idx: int, derived: int) -> None:
        kinds = Counter(ev.kind for ev in path.events)
        branch_children = sum(ev.n_children for ev in path.events
                              if ev.kind == "branch")
        n_init, n_final = len(path.initial), len(path.final)
        n_kinds = kinds["phantom"] + kinds["death"] + kinds["branch"]
        if len(path.events) != n_kinds:
            self.violations.append(("events", f"seed {path.seed}: {len(path.events)} "
                                    f"events but phantom + death + branch = {n_kinds}"))
        expected_final = n_init + branch_children - kinds["branch"] - kinds["death"]
        if n_final != expected_final:
            self.violations.append(("population", f"seed {path.seed}: final population "
                                    f"{n_final}, initial + sum(children - 1) - deaths "
                                    f"= {expected_final}"))
        ever_alive = n_init + branch_children
        if derived > 2 * ever_alive:
            self.violations.append(("streams", f"seed {path.seed}: {derived} streams "
                                    f"derived for {ever_alive} particles ever alive"))
        self.path_rows.append((idx, path.n_steps, len(path.events), kinds["phantom"],
                               kinds["death"], kinds["branch"], path.sup_population))

    def _wrap_derive(self, fn):
        traced_inner = self.wrap("rng.derive", fn)
        tracer = self

        def traced(*args, **kwargs):
            tracer.derived += 1
            return traced_inner(*args, **kwargs)

        return traced

    def _after_solve(self, grid) -> None:
        n_layers, n_x = grid.values.shape
        self.grids.append((n_layers - 1, n_x))

    def _after_feedback(self, result) -> None:
        self.feedback_points += len(result)

    def _pool_class(self, base):
        nid = self._id("estimator.pool")
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._span = tracer.open(nid)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap the layer boundaries of the imported package ``pkg`` (a
        namespace with modules cli, estimator, hjb, model, modelio, rng and
        simulator) and restore every original on exit."""
        cli, est, hjb, model, sim = pkg.cli, pkg.estimator, pkg.hjb, pkg.model, pkg.simulator
        simulate = self._wrap_simulate(sim.simulate)
        evaluate = self.wrap("hjb.evaluate", hjb.evaluate)
        patches = [
            (cli, "run", self.wrap("cli.run", cli.run)),
            (cli, "dump_json", self.wrap("cli.write", cli.dump_json, outermost=True)),
            (hjb, "write_grid_csv", self.wrap("hjb.csv", hjb.write_grid_csv)),
            (pkg.modelio, "load_model", self.wrap("modelio.load", pkg.modelio.load_model)),
            (model, "validate_params", self.wrap("model.validate", model.validate_params)),
            (pkg.rng.RandomDriver, "_derive", self._wrap_derive(pkg.rng.RandomDriver._derive)),
            (sim, "children", self.wrap("labels", sim.children)),
            (sim, "assert_antichain", self.wrap("labels", sim.assert_antichain)),
            (sim, "simulate", simulate),
            (est, "simulate", simulate),
            (hjb, "solve", self.wrap("hjb.solve", hjb.solve, after=self._after_solve)),
            (hjb.FeedbackPolicy, "controls_along",
             self.wrap("hjb.feedback", hjb.FeedbackPolicy.controls_along,
                       after=self._after_feedback)),
            (hjb, "evaluate", evaluate),
            (est, "evaluate", evaluate),
            (est, "evaluate_many", self.wrap("hjb.evaluate", est.evaluate_many)),
            (est, "ProcessPoolExecutor", self._pool_class(est.ProcessPoolExecutor)),
        ]
        patches += [(model.ModelParams, m, self.wrap("model.scalar", getattr(model.ModelParams, m)))
                    for m in _SCALAR]
        patches += [(model.ModelParams, m, self.wrap("model.vector", getattr(model.ModelParams, m)))
                    for m in _VECTOR]
        patches += [(est, f, self.wrap("estimator", getattr(est, f))) for f in _ESTIMATOR]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return name_id, parent, dur, dur - covered

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    def top_level_durations(self, name: str) -> np.ndarray:
        """Durations of the spans of ``name`` not nested in another one."""
        name_id, parent, dur, _ = self.arrays()
        nid = self._ids.get(name, -1)
        mask = name_id == nid
        parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
        return dur[mask & (parent_name != nid)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one single-worker traced pass."""
    name_id, parent, dur, self_t = tr.arrays()

    def sel(name):
        return name_id == tr._ids.get(name, -1)

    def total(name):
        return float(dur[sel(name)].sum())

    def count(name):
        return int(sel(name).sum())

    m = {}
    sim_total = total("simulator.simulate")
    n_derive = count("rng.derive")
    m["rng.streams_derived"] = (n_derive, "count")
    m["rng.derive_us"] = (_ratio(total("rng.derive"), n_derive, 1e6), "us")
    m["rng.share_of_simulate"] = (_ratio(total("rng.derive"), sim_total), "ratio")
    m["labels.calls"] = (count("labels"), "count")
    m["labels.s"] = (total("labels"), "s")
    m["model.coeff_calls.scalar"] = (count("model.scalar"), "count")
    m["model.coeff_calls.vector"] = (count("model.vector"), "count")
    m["model.coeff_s"] = (total("model.scalar") + total("model.vector"), "s")
    m["model.validate_s"] = (total("model.validate"), "s")
    m["modelio.load_s"] = (total("modelio.load"), "s")

    rows = np.array(tr.path_rows, dtype=np.int64).reshape(-1, 7)
    path_dur = dur[rows[:, 0]] if len(rows) else np.zeros(0)
    m["simulator.paths"] = (len(rows), "count")
    m["simulator.simulate_us.p50"] = (
        float(np.percentile(path_dur, 50)) * 1e6 if len(rows) else 0.0, "us")
    tail_pct = next((p for p in _TAIL_PERCENTILES
                     if len(rows) * (1.0 - p / 100.0) >= 10), 50.0)
    m["simulator.simulate_us.tail"] = (
        float(np.percentile(path_dur, tail_pct)) * 1e6 if len(rows) else 0.0, "us")
    m["simulator.simulate_us.tail_pct"] = (tail_pct, "pct")
    m["simulator.self_s"] = (float(self_t[sel("simulator.simulate")].sum()), "s")
    steps = int(rows[:, 1].sum())
    m["simulator.particle_steps"] = (steps, "count")
    m["simulator.ns_per_particle_step"] = (_ratio(sim_total, steps, 1e9), "ns")
    m["simulator.events.phantom"] = (int(rows[:, 3].sum()), "count")
    m["simulator.events.death"] = (int(rows[:, 4].sum()), "count")
    m["simulator.events.branch"] = (int(rows[:, 5].sum()), "count")
    m["simulator.peak_population"] = (int(rows[:, 6].max()) if len(rows) else 0, "count")
    for label, lo, hi in _POP_BINS:
        in_bin = (rows[:, 6] >= lo) & (rows[:, 6] < hi)
        m[f"simulator.us_per_event.{label}"] = (
            _ratio(float(path_dur[in_bin].sum()), int(rows[in_bin, 2].sum()), 1e6), "us")

    solve_s = total("hjb.solve")
    nodes = sum(n_t * n_x for n_t, n_x in tr.grids)
    layers = sum(n_t for n_t, _ in tr.grids)
    m["hjb.solve_s"] = (solve_s, "s")
    m["hjb.node_updates"] = (nodes, "count")
    m["hjb.ns_per_node_update"] = (_ratio(solve_s, nodes, 1e9), "ns")
    m["hjb.us_per_layer"] = (_ratio(solve_s, layers, 1e6), "us")
    m["hjb.csv_s"] = (total("hjb.csv"), "s")
    m["hjb.feedback_calls"] = (count("hjb.feedback"), "count")
    m["hjb.feedback_points"] = (tr.feedback_points, "count")
    m["hjb.feedback_ns_per_point"] = (
        _ratio(total("hjb.feedback"), tr.feedback_points, 1e9), "ns")
    m["hjb.evaluate_calls"] = (count("hjb.evaluate"), "count")
    m["hjb.evaluate_s"] = (total("hjb.evaluate"), "s")

    m["estimator.calls"] = (len(tr.top_level_durations("estimator")), "count")
    m["estimator.self_s"] = (float(self_t[sel("estimator")].sum()), "s")
    m["cli.run_s"] = (total("cli.run"), "s")
    m["cli.write_s"] = (total("cli.write") + total("hjb.csv"), "s")
    return m


def fanout_metrics(one: Tracer | None, two: Tracer | None) -> dict[str, tuple[float, str]]:
    """Pool metrics of a two-worker traced pass, and the fan-out efficiency
    of the same estimator calls against the single-worker pass."""
    if two is None:
        return {"estimator.pools_created": (0, "count"),
                "estimator.pool_s": (0.0, "s"),
                "estimator.fanout_efficiency": (0.0, "ratio")}
    pools = two.top_level_durations("estimator.pool")
    t1 = float(one.top_level_durations("estimator").sum())
    t2 = float(two.top_level_durations("estimator").sum())
    return {"estimator.pools_created": (len(pools), "count"),
            "estimator.pool_s": (float(pools.sum()), "s"),
            "estimator.fanout_efficiency": (_ratio(t1, 2.0 * t2), "ratio")}
