"""Check that two source trees give the same CLI results on benchmark configs
and on the bundled experiments.

    python3 tools/same_reports.py OLD_TREE NEW_TREE \
        --workload population_growth --seeds 1-30 --reps 0-11 [--threads 2]
    python3 tools/same_reports.py OLD_TREE NEW_TREE \
        --experiment dpp_two_control [--threads 2]

Each benchmark config comes from ``perfbench/workloads.build`` of the
checkout that holds this script (its bundled models included) and is
written once, under one scratch path; a bundled experiment,
``configs/experiments/NAME.yaml`` of that checkout, is read in place.  Either
way both trees read the same file and report the same config digest.  Each
tree's CLI runs as ``python -m branchdiff.cli`` with its own ``src`` on the
path and bytecode writing off, at the worker count ``--threads`` gives every
run, or else at the workload invocation's own count and at 1 for an
experiment.  Without ``--workload`` or ``--experiment`` every workload runs.
The two runs must exit with the same code and leave the same files with the
same bytes; the only value left out is the manifest's ``generated_at``.

Exit code 0 when every config agrees, 1 when any differs, 2 on bad
arguments.  Nothing is written outside the scratch directory, a fresh
temporary one unless ``--scratch`` names one.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXPERIMENTS = REPO / "configs" / "experiments"


def load_workloads():
    """``perfbench/workloads.py`` of this checkout, imported without bytecode."""
    spec = importlib.util.spec_from_file_location("same_reports_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def span(text: str) -> range:
    """``"3"`` or ``"1-30"`` as the inclusive range it names."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N-M, got {text!r}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"expected 0 <= N <= M, got {text!r}")
    return range(first, last + 1)


def positive(text: str) -> int:
    """``text`` as an int of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def outputs(out_dir: Path) -> dict[str, bytes]:
    """Every file a run left, by name; the manifest without ``generated_at``."""
    if not out_dir.is_dir():
        return {}
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    if "manifest.json" in files:
        manifest = json.loads(files["manifest.json"])
        manifest.pop("generated_at", None)
        files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """Names of the files that only one side has or whose bytes differ."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_cli(tree: Path, config: Path, out: Path, threads: int) -> int:
    """Exit code of ``tree``'s CLI on ``config``; its standard error goes to
    a file beside ``out``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "branchdiff.cli", "--config", str(config),
           "--out", str(out), "--threads", str(threads)]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.with_name(out.name + ".stderr"), "w") as err:
        return subprocess.run(cmd, env=env, cwd=tree, stdout=subprocess.DEVNULL,
                              stderr=err).returncode


def disagreement(trees: tuple[Path, Path], config: Path, where: Path, run: str,
                 label: str, workers: int) -> str | None:
    """The line naming how the trees' runs of ``config`` at ``workers``
    differ, or None; each writes into ``where / side / run``.  Prints the
    outcome either way."""
    tag = f"{label} --threads {workers}"
    (code_a, files_a), (code_b, files_b) = [
        (run_cli(tree, config, where / side / run, workers), outputs(where / side / run))
        for tree, side in zip(trees, ("old", "new"))]
    problem = None
    if code_a != code_b:
        problem = f"exit {code_a} != {code_b}"
    elif differ := differences(files_a, files_b):
        problem = f"exit {code_a}, files differ: {', '.join(differ)}"
    print(f"{tag}: " + (problem or f"exit {code_a}, same outputs"))
    return problem and f"{tag}: {problem}"


def compare(trees: tuple[Path, Path], names, seeds, reps, scratch: Path,
            threads: int | None = None, experiments=()) -> list[str]:
    """One line per CLI run on which the trees disagree; each run uses
    ``threads`` workers, or when that is None its invocation's count, or 1
    for a bundled experiment.  The files of a config whose runs agree are
    removed; those of one that differs, its runs' standard error included,
    stay under ``scratch``."""
    workloads = load_workloads()
    found = []
    for name in names:
        for seed in seeds:
            for rep in reps:
                where = scratch / f"{name}_{seed}_{rep}"
                wl = workloads.build(name, seed, rep, REPO, where)
                problems = [disagreement(trees, inv.config, where, inv.name,
                                         f"{name} seed {seed} rep {rep} {inv.name}",
                                         threads or inv.threads)
                            for inv in wl.invocations]
                found += filter(None, problems)
                if not any(problems):
                    shutil.rmtree(where)
    for name in experiments:
        where = scratch / f"experiment_{name}"
        problem = disagreement(trees, EXPERIMENTS / f"{name}.yaml", where, name,
                               f"experiment {name}", threads or 1)
        if problem:
            found.append(problem)
        else:
            shutil.rmtree(where, ignore_errors=True)
    return found


def main(argv=None) -> int:
    names_known = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(
        prog="same_reports",
        description="Compare two source trees' CLI outputs on benchmark configs.")
    parser.add_argument("old", type=Path, help="first source tree (holds src/branchdiff)")
    parser.add_argument("new", type=Path, help="second source tree")
    parser.add_argument("--workload", action="append", choices=names_known,
                        help="workload to build configs of (repeatable; default: "
                             "all, unless --experiment is given)")
    parser.add_argument("--experiment", action="append", default=[],
                        choices=sorted(p.stem for p in EXPERIMENTS.glob("*.yaml")),
                        help="bundled experiment to run in place (repeatable)")
    parser.add_argument("--seeds", type=span, default=span("1"), help="N or N-M (default 1)")
    parser.add_argument("--reps", type=span, default=span("0"), help="N or N-M (default 0)")
    parser.add_argument("--threads", type=positive, default=None,
                        help="worker count of every CLI run (default: each "
                             "invocation's own, 1 for an experiment)")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for configs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = (args.old.resolve(), args.new.resolve())
    for tree in trees:
        if not (tree / "src" / "branchdiff" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/branchdiff/cli.py")
    names = args.workload or ([] if args.experiment else list(names_known))
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        scratch = args.scratch.resolve() if args.scratch else Path(tmp)
        found = compare(trees, names, args.seeds, args.reps, scratch, args.threads,
                        args.experiment)
    for line in found:
        print(line, file=sys.stderr)
    n_configs = len(names) * len(args.seeds) * len(args.reps) + len(args.experiment)
    print(f"{n_configs} config(s): " + (f"{len(found)} difference(s)" if found
                                        else "identical exit codes and outputs"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
