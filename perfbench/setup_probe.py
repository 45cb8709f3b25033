"""The set-up every CLI run pays before its first task, in a fresh interpreter:
import the package, parse the experiment and its model, and validate the
model on the CLI's probe lattice.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py EXPERIMENT_FILE
Exits 0 when the model validates, 3 when it does not.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import yaml

from branchdiff import cli, model


def main(config: str) -> int:
    path = Path(config)
    overrides = SimpleNamespace(out=None, seed=None, reps=None, threads=1)
    exp = cli.Experiment(yaml.safe_load(path.read_text()), path, overrides)
    report = model.validate_params(exp.params, cli._probe_lattice(exp))
    return 0 if report.ok else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
