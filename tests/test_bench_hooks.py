"""The benchmark in perfbench/ reaches into the package by name: the tracer
patches module attributes and methods, and the set-up probe calls the CLI's
config parser.  These tests fail when a rename or deletion in the package
would break either."""

import importlib.util
from pathlib import Path

import branchdiff
# the tracer reaches the layers as attributes of the package
from branchdiff import cli, estimator, hjb, model, modelio, rng, simulator  # noqa: F401

REPO = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load("tracing")
    run, solve = cli.run, hjb.solve
    with tracing.Tracer().installed(branchdiff):
        assert cli.run is not run
    assert cli.run is run and hjb.solve is solve


def test_setup_probe_on_bundled_experiment():
    setup_probe = load("setup_probe")
    config = REPO / "configs" / "experiments" / "dpp_two_control.yaml"
    assert setup_probe.main(str(config)) == 0
