#!/usr/bin/env python3
"""Benchmark of the branchdiff CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``
(it need not be installed).  Workloads are listed in ``workloads.py`` and
described in ``README.md`` beside this file.

``--trace 0`` times the workload: it measures the set-up cost in fresh
interpreters, then runs the workload's CLI invocations as subprocesses, again
and again for ``--seconds`` seconds.  It reports the mean time of a
repetition and the median time of a set-up, both at a reference speed
(``reference_s``), and the median peak memory.
Repetitions reuse the inputs, except on workloads whose work varies with the
seed: there each repetition has its own seed bases, all derived from
``--seed``.  ``--trace 1`` runs the first repetition's inputs in process,
untraced before and after one traced pass (see ``tracing.py``), and reports
the per-layer metrics.  Both modes check the program's outputs from outside:
every check row of ``summary.csv`` and its completeness, byte-identical
reports from every repetition or pass of the same inputs, the closed-form
value of the critical binary model and, when tracing, the counter identities
of every simulated path.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record with the machine, the inputs and every raw per-repetition value is
written to ``.perfbench/runs/``.  The exit code is 0 when every check passed,
1 when one failed and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REPO = HERE.parent
SRC = REPO / "src"
STATE = REPO / ".perfbench"
SETUP_PROBES = 7        # timed fresh-interpreter set-ups per run, at least
SETUPS_PER_REP = 2      # set-ups timed after each repetition
MIN_REPS = 3            # repetitions of the workload per timed run, at least
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("checks_passed_share", "ratio"))


# ---------------------------------------------------------------------------
# output checks, made from outside the program

def _digest(out_dir: Path) -> str:
    """Digest of every output file except the manifest, whose
    ``generated_at`` field changes from run to run."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _own_checks(inv, reference_digest) -> list[str]:
    names = [f"{inv.name}.summary_complete"]
    if reference_digest is not None:
        names.append(f"{inv.name}.deterministic")
    if inv.name == "critical":
        names.append(f"{inv.name}.closed_form")
    return names


def inspect_outputs(wl, inv, out_dir: Path, code: int, reference_digest):
    """Checks of one CLI run as (name, passed) pairs, and its output digest.
    A failed run fails every check it would have made."""
    own = _own_checks(inv, reference_digest)
    if code != 0:
        return ([(f"{inv.name}.summary[{i}]", False) for i in range(inv.n_checks)]
                + [(name, False) for name in own]), None
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    checks = [(f"{inv.name}.{r['kind']}.{r['check']}", r["passed"] == "True")
              for r in rows]
    digest = _digest(out_dir)
    complete = (len(rows) == inv.n_checks
                and manifest["all_passed"] == all(ok for _, ok in checks))
    checks.append((own[0], complete))
    if reference_digest is not None:
        checks.append((f"{inv.name}.deterministic", digest == reference_digest))
    if inv.name == "critical":
        report = json.loads((out_dir / "task_00_solve.json").read_text())
        u0 = report["results"]["probes"][0]["u0"]
        gap = abs(u0 - wl.references["critical_value"])
        checks.append((f"{inv.name}.closed_form", gap <= workloads.PDE_TOLERANCE))
    return checks, digest


# ---------------------------------------------------------------------------
# timed runs (tracing off)

def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _launch(cmd: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run ``cmd`` to completion; returns (wall seconds, exit code, peak RSS
    in MB of the largest single process among it and the children it waited
    for).  ``wait4`` gives the usage of this one child, where RUSAGE_CHILDREN
    would accumulate over runs."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=REPO, stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _show_failure(inv, code: int, log: Path) -> None:
    tail = log.read_text(errors="replace")[-2000:]
    print(f"error: {inv.name} exited {code}:\n{tail}", file=sys.stderr)


def _pooled_oracle(wl, means: list[float]) -> bool:
    """All repetitions' estimates of population_growth pooled against the
    exact value, within 4 exact standard errors.  One repetition's own check
    sees only a few paths; the pool of a whole run detects a 4% error."""
    if not means:
        return False
    n_paths = len(means) * workloads.GROWTH_PATHS
    stderr = wl.references["path_cost_sd"] / math.sqrt(n_paths)
    return abs(statistics.fmean(means) - wl.references["growth_value"]) <= 4.0 * stderr


# Nominal time of reference_s(), in seconds.  Timed steps are rescaled from
# the machine's speed during the run to the speed at which the reference takes
# this long.
REFERENCE_S = 0.15


def reference_s() -> float:
    """Seconds a fixed piece of work, which is not the program, takes now:
    interpreted Python and tiny numpy calls as in the simulator, and passes
    over a larger array as in the PDE solver."""
    import numpy as np
    rng = np.random.default_rng(12345)
    big = rng.standard_normal(50_000)
    acc, table = 0.0, {}
    t0 = time.perf_counter()
    for i in range(5000):
        xs = np.cumsum(rng.standard_normal(16) * 0.1)
        acc += float(np.sqrt(np.abs(xs)).sum())
        table[str(i % 97)] = (int(np.searchsorted(xs, 0.0)), acc)
        for j in range(60):
            acc += (j * 0.5) % 7.0
        if i % 20 == 0:
            big = np.maximum(big * 0.999 + 0.001, np.roll(big, 1))
    return time.perf_counter() - t0


def timed_run(wl, seconds: float, tmp: Path) -> tuple[dict, list, dict]:
    env = _cli_env()
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(wl.invocations[0].config)]
    setup, refs = [], [reference_s()]

    def set_up() -> float:
        wall, code, _ = _launch(probe, env, tmp / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               + (tmp / "setup.log").read_text()[-2000:])
        return wall

    set_up()                            # fills the file and bytecode caches
    checks, reps, digests, growth_means = [], [], {}, []
    start = time.perf_counter()
    while True:
        # Repetitions rerun the same files, and must reproduce their outputs
        # byte for byte, unless the workload reseeds them: then one run
        # averages the seed-to-seed differences in work too.
        k = len(reps)
        wl_k = wl
        if wl.reseed and k > 0:
            wl_k = workloads.build(wl.name, wl.seed, k, REPO, tmp / f"rep{k}")
        rep = {"seed_base": wl_k.seed_base, "wall_s": 0.0, "peak_rss_mb": 0.0,
               "invocations": []}
        for inv in wl_k.invocations:
            out = tmp / f"rep{k}" / "out" / inv.name
            log = tmp / f"{inv.name}.log"
            cmd = [sys.executable, "-m", "branchdiff.cli", "--config", str(inv.config),
                   "--out", str(out), "--threads", str(inv.threads)]
            wall, code, rss = _launch(cmd, env, log)
            if code != 0:
                _show_failure(inv, code, log)
            found, digest = inspect_outputs(wl_k, inv, out, code,
                                            None if wl.reseed else digests.get(inv.name))
            digests.setdefault(inv.name, digest)
            checks += found
            if code == 0 and "growth_value" in wl.references:
                report = json.loads((out / "task_00_estimate.json").read_text())
                growth_means.append(report["results"]["mean"])
            shutil.rmtree(out, ignore_errors=True)
            rep["wall_s"] += wall
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            rep["invocations"].append({"name": inv.name, "wall_s": wall,
                                       "peak_rss_mb": rss, "exit": code})
        reps.append(rep)
        refs.append(reference_s())
        # set-up probes spread over the window sample the machine as the
        # repetitions do
        for _ in range(SETUPS_PER_REP):
            setup.append(set_up())
            refs.append(reference_s())
        elapsed = time.perf_counter() - start
        typical = (statistics.median(r["wall_s"] for r in reps)
                   + SETUPS_PER_REP * statistics.median(setup))
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(set_up())
        refs.append(reference_s())
    if "growth_value" in wl.references:
        checks.append(("main.pooled_oracle", _pooled_oracle(wl, growth_means)))

    # Times at the reference speed.  The reference is timed between every two
    # steps, so the total times of the steps and of the reference cover the
    # same fast and slow spells of the machine, and their ratio cancels them.
    scale = REFERENCE_S / statistics.fmean(refs)
    wall = scale * statistics.fmean(r["wall_s"] for r in reps)
    passed = sum(ok for _, ok in checks)
    metrics = {
        "wall_s": wall,
        "setup_s": scale * statistics.median(setup),
        "work_per_s": wl.work / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "checks_passed_share": passed / len(checks),
    }
    raw = {"setup_s": setup, "reference_s": refs, "reps": reps, "measured_s": elapsed}
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, checks, raw


# ---------------------------------------------------------------------------
# traced run (in process)

def _import_package():
    sys.path.insert(0, str(SRC))
    from branchdiff import cli, estimator, hjb, model, modelio, rng, simulator
    return SimpleNamespace(cli=cli, estimator=estimator, hjb=hjb, model=model,
                           modelio=modelio, rng=rng, simulator=simulator)


def _in_process_pass(pkg, wl, tmp: Path, tag: str, threads, tracer, digests):
    """Run every invocation of the workload once through ``cli.run``;
    returns (seconds inside ``cli.run``, checks).  Outputs must match
    ``digests``, the digests of the first pass, which this fills in when
    empty."""
    checks, wall = [], 0.0
    for inv in wl.invocations:
        out = tmp / tag / inv.name
        guard = tracer.installed(pkg) if tracer is not None else contextlib.nullcontext()
        with guard, contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = pkg.cli.run(inv.config, out=str(out),
                                   threads=threads or inv.threads)
            except Exception:    # report like the CLI's last-resort handler
                traceback.print_exc()
                code = 1
            wall += time.perf_counter() - t0
        found, digest = inspect_outputs(wl, inv, out, code, digests.get(inv.name))
        digests.setdefault(inv.name, digest)
        checks += [(f"{tag}.{name}", ok) for name, ok in found]
        shutil.rmtree(out, ignore_errors=True)
    return wall, checks


def traced_run(wl, tmp: Path) -> tuple[dict, list, dict]:
    from tracing import IDENTITIES, Tracer, fanout_metrics, layer_metrics

    pkg = _import_package()
    digests = {}
    before_s, checks = _in_process_pass(pkg, wl, tmp, "untraced", 1, None, digests)
    one = Tracer()
    traced_s, found = _in_process_pass(pkg, wl, tmp, "traced", 1, one, digests)
    checks += found
    after_s, found = _in_process_pass(pkg, wl, tmp, "untraced_again", 1, None, digests)
    checks += found
    plain_s = 0.5 * (before_s + after_s)
    two = None
    workers = max(inv.threads for inv in wl.invocations)
    if workers > 1:
        two = Tracer()
        _, found = _in_process_pass(pkg, wl, tmp, f"traced_w{workers}", None, two, digests)
        checks += found
    for identity in IDENTITIES:
        broken = [detail for kind, detail in one.violations if kind == identity]
        for detail in broken[:5]:
            print(f"error: counter identity broken: {detail}", file=sys.stderr)
        checks.append((f"identity.{identity}", not broken))

    traces = STATE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    one.save(traces / f"{wl.name}-seed{wl.seed}-w1.npz")
    if two is not None:
        two.save(traces / f"{wl.name}-seed{wl.seed}-w{workers}.npz")

    metrics = layer_metrics(one)
    metrics.update(fanout_metrics(one, two))
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    raw = {"untraced_s": [before_s, after_s], "traced_s": traced_s, "spans": len(one.start),
           "identity_violations": one.violations[:20]}
    return metrics, checks, raw


# ---------------------------------------------------------------------------
# record and report

def _git_commit():
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "branchdiff").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit(),
            "source_sha256": _source_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "branchdiff" / "cli.py").is_file() or not (REPO / "configs" / "models").is_dir():
        print(f"error: no branchdiff source tree at {REPO} (need src/branchdiff "
              "and configs/models)", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        wl = workloads.build(args.workload, args.seed, 0, REPO, tmp / "rep0")
        if args.trace:
            metrics, checks, raw = traced_run(wl, tmp)
        else:
            metrics, checks, raw = timed_run(wl, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [name for name, ok in checks if not ok]
    record = {
        "workload": wl.name, "seed": wl.seed, "seed_base": wl.seed_base,
        "trace": args.trace, "seconds": args.seconds,
        "workers": {inv.name: inv.threads for inv in wl.invocations},
        "work": {inv.name: inv.work for inv in wl.invocations},
        "references": wl.references,
        "machine": machine_record(),
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": {"attempted": len(checks), "failed": failed},
        "raw": raw,
    }
    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"branchdiff benchmark  workload={wl.name} seed={wl.seed} "
          f"trace={args.trace} workers={record['workers']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed"
          + (f"; failed: {', '.join(failed[:10])}" if failed else ""))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
