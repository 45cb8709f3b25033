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


def test_tracer_sees_every_path():
    """Workers reach the engine through the patched ``simulate``: a refactor
    that routes around it would leave the traced path metrics empty."""
    tracing = load("tracing")
    params = modelio.load_model(REPO / "configs" / "models" / "subcritical_drift.yaml")
    start = {(): [0.0]}
    policy = simulator.ConstantPolicy(0)
    tracer = tracing.Tracer()
    with tracer.installed(branchdiff):
        estimator.estimate_value(0.0, start, policy, params, 50, 0.05, 7, horizon=1.0)
        assert len(tracer.path_rows) == 50
        estimator.coupling_probe(0.0, start, policy, params,
                                 model.perturbed_copy(params, 0.01), 0.05, 20,
                                 0.05, 1.0, 8)
    assert len(tracer.path_rows) == 50 + 2 * 20
    assert tracer.violations == []
