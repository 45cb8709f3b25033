"""Check that two source trees give the same CLI results on benchmark configs.

    python3 tools/same_reports.py OLD_TREE NEW_TREE \
        --workload population_growth --seeds 1-30 --reps 0-11 [--threads 2]

Each config comes from ``perfbench/workloads.build`` of the checkout that
holds this script (its bundled models included) and is written once, under
one scratch path, so both trees read the same file and report the same
config digest.  Each tree's CLI runs as ``python -m branchdiff.cli`` with its
own ``src`` on the path and bytecode writing off, at the worker count of the
workload's invocation or at the one ``--threads`` gives every invocation.
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


def compare(trees: tuple[Path, Path], names, seeds, reps, scratch: Path,
            threads: int | None = None) -> list[str]:
    """One line per CLI run on which the trees disagree; each run uses
    ``threads`` workers, or its invocation's count when that is None.  The
    files of a config whose runs agree are removed; those of one that
    differs, its runs' standard error included, stay under ``scratch``."""
    workloads = load_workloads()
    found = []
    for name in names:
        for seed in seeds:
            for rep in reps:
                where = scratch / f"{name}_{seed}_{rep}"
                wl = workloads.build(name, seed, rep, REPO, where)
                agree = True
                for inv in wl.invocations:
                    workers = threads or inv.threads
                    tag = f"{name} seed {seed} rep {rep} {inv.name} --threads {workers}"
                    (code_a, files_a), (code_b, files_b) = [
                        (run_cli(tree, inv.config, where / side / inv.name, workers),
                         outputs(where / side / inv.name))
                        for tree, side in zip(trees, ("old", "new"))]
                    problem = None
                    if code_a != code_b:
                        problem = f"exit {code_a} != {code_b}"
                    elif differ := differences(files_a, files_b):
                        problem = f"exit {code_a}, files differ: {', '.join(differ)}"
                    print(f"{tag}: " + (problem or f"exit {code_a}, same outputs"))
                    if problem:
                        found.append(f"{tag}: {problem}")
                        agree = False
                if agree:
                    shutil.rmtree(where)
    return found


def main(argv=None) -> int:
    names_known = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(
        prog="same_reports",
        description="Compare two source trees' CLI outputs on benchmark configs.")
    parser.add_argument("old", type=Path, help="first source tree (holds src/branchdiff)")
    parser.add_argument("new", type=Path, help="second source tree")
    parser.add_argument("--workload", action="append", choices=names_known,
                        help="workload to build configs of (repeatable; default: all)")
    parser.add_argument("--seeds", type=span, default=span("1"), help="N or N-M (default 1)")
    parser.add_argument("--reps", type=span, default=span("0"), help="N or N-M (default 0)")
    parser.add_argument("--threads", type=positive, default=None,
                        help="worker count of every CLI run (default: each "
                             "invocation's own)")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for configs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = (args.old.resolve(), args.new.resolve())
    for tree in trees:
        if not (tree / "src" / "branchdiff" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/branchdiff/cli.py")
    names = args.workload or list(names_known)
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        scratch = args.scratch.resolve() if args.scratch else Path(tmp)
        found = compare(trees, names, args.seeds, args.reps, scratch, args.threads)
    for line in found:
        print(line, file=sys.stderr)
    n_configs = len(names) * len(args.seeds) * len(args.reps)
    print(f"{n_configs} config(s): " + (f"{len(found)} difference(s)" if found
                                        else "identical exit codes and outputs"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
