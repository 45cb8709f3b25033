"""The benchmark in perfbench/ reaches into the package by name: the tracer
patches module attributes and methods, and the set-up probe calls the CLI's
config parser.  These tests fail when a rename or deletion in the package
would break either."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import yaml

import branchdiff
# the tracer reaches the layers as attributes of the package
from branchdiff import cli, estimator, hjb, model, modelio, rng, simulator  # noqa: F401

REPO = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
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


def test_shipped_configs_parse(tmp_path):
    """The bundled experiments and every config a benchmark workload writes
    parse: a spec too strict for a shipped config fails here, not at
    benchmark time."""
    workloads = load("workloads")
    configs = sorted((REPO / "configs" / "experiments").glob("*.yaml"))
    for name in workloads.WORKLOADS:
        built = workloads.build(name, 1, 0, REPO, tmp_path / name)
        configs += [inv.config for inv in built.invocations]
    assert len(configs) == 3 + 5
    overrides = SimpleNamespace(out=None, seed=None, reps=None, threads=1)
    for path in configs:
        exp = cli.Experiment(yaml.safe_load(path.read_text()), path, overrides)
        assert exp.tasks
    assert not any(p.name == "out" for p in tmp_path.rglob("*"))


def test_benchmark_config_with_exponent_founder_runs(tmp_path):
    """Repetition 18 of population_growth at seed 9 places a founder at
    -1e-05, which its JSON config spells without a dot: the CLI reads it as
    a number and the run succeeds."""
    workloads = load("workloads")
    (inv,) = workloads.build("population_growth", 9, 18, REPO, tmp_path).invocations
    assert "[\n     -1e-05\n    ]" in inv.config.read_text()
    assert cli.run(inv.config, out=tmp_path / "out", threads=inv.threads) == cli.EXIT_OK


def test_tracer_sees_every_path():
    """Every estimator worker reaches the engine through the patched
    ``simulate``: a refactor that routes around it would leave the traced path
    metrics empty."""
    tracing = load("tracing")
    params = modelio.load_model(REPO / "configs" / "models" / "subcritical_drift.yaml")
    start = {(): [0.0]}
    policy = simulator.ConstantPolicy(0)
    cfg = hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=41, n_t=1, horizon=1.0)
    grid = hjb.solve(params, hjb.GridConfig(
        x_lo=-4.0, x_hi=4.0, n_x=41, n_t=hjb.required_time_steps_for(params, cfg),
        horizon=1.0))
    u = estimator.SmoothTestFunction(family="gaussian-bump", base=0.2, scale=0.6,
                                     center=(0.0,), width=0.8)
    setup = simulator.prepare_simulation(0.0, start, policy, params, 0.05, 1.0)
    half = simulator.prepare_simulation(0.0, start, policy, params, 0.05, 0.5)
    calls = [
        (lambda: estimator.estimate_value(setup, 50, 7), 50),
        (lambda: estimator.coupling_probe(setup, model.perturbed_copy(params, 0.01), 0.05,
                                          20, 8), 2 * 20),
        (lambda: estimator.dpp_check(half, "first-event", grid, 30, 9), 30),
        (lambda: estimator.dynkin_residual(half, u, 30, 10), 30),
    ]
    tracer = tracing.Tracer()
    with tracer.installed(branchdiff):
        for call, paths in calls:
            before = len(tracer.path_rows)
            call()
            assert len(tracer.path_rows) == before + paths
    assert tracer.violations == []


def test_tracer_counts_every_stream():
    """Streams served from a set-up's table still pass through
    ``RandomDriver._derive``: one ``rng.derive`` span per stream a path uses,
    a motion and an event stream per particle ever alive."""
    tracing = load("tracing")
    params = modelio.load_model(REPO / "configs" / "models" / "subcritical_drift.yaml")
    start = {(): [0.0]}
    policy = simulator.ConstantPolicy(0)
    setup = simulator.prepare_simulation(0.0, start, policy, params, 0.05, 1.0)
    tracer = tracing.Tracer()
    with tracer.installed(branchdiff):
        estimator.estimate_value(setup, 200, 7)
    name_id, _, _, _ = tracer.arrays()
    spans = int((name_id == tracer._ids["rng.derive"]).sum())
    expected = 0
    for seed in range(7, 207):
        path = simulator.simulate(setup, seed)
        expected += 2 * (len(path.initial) + sum(ev.n_children for ev in path.events))
    assert spans == tracer.derived == expected
    assert tracer.violations == []


def one_pool_config(tmp_path):
    """Three estimator calls under the feedback policy: two DPP stopping
    rules and one Dynkin residual."""
    doc = {
        "model": str(REPO / "configs" / "models" / "two_control_harvest.yaml"),
        "output_dir": str(tmp_path / "out"),
        "initial": {"time": 0.0, "particles": [{"label": "", "position": [0.0]}]},
        "simulation": {"step": 0.05, "horizon": 1.0, "replications": 60,
                       "seed_base": 11},
        "grid": {"x_lo": -4.0, "x_hi": 4.0, "n_x": 161, "n_t": 90},
        "tasks": [
            {"kind": "dpp", "allowance": 0.05,
             "policies": [{"kind": "feedback", "role": "optimal"}],
             "stopping": [{"rule": "fixed", "time": 0.5},
                          {"rule": "first-event", "time": 0.5}]},
            {"kind": "dynkin", "policy": {"kind": "feedback"}, "times": [0.5],
             "functions": [{"family": "gaussian-bump", "base": 0.2, "scale": 0.6,
                            "center": [0.0], "width": 0.8}]},
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def report_bytes(out_dir):
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    manifest.pop("generated_at")
    return files, manifest


def test_cli_run_builds_one_pool(tmp_path):
    """A CLI run shares one worker pool across its estimator calls, and
    sharing it changes no report."""
    tracing = load("tracing")
    tracer = tracing.Tracer()
    cfg = one_pool_config(tmp_path)
    with tracer.installed(branchdiff):
        code = cli.run(cfg, out=tmp_path / "two", threads=2)
    assert code == cli.run(cfg, out=tmp_path / "one", threads=1)
    assert code in (cli.EXIT_OK, cli.EXIT_CHECKS_FAILED)
    assert len(tracer.top_level_durations("estimator")) == 3
    name_id, _, dur, _ = tracer.arrays()
    pools = name_id == tracer._ids["estimator.pool"]
    assert pools.sum() == 1
    assert dur[pools][0] > 0 and not tracer._stack      # closed
    assert report_bytes(tmp_path / "two") == report_bytes(tmp_path / "one")


def test_tracer_sees_every_solve(tmp_path):
    """The solve task reaches the solver and the CSV export through the
    patched ``hjb.solve`` and ``hjb.write_grid_csv``, the boundary
    sensitivity's doubled domain included."""
    tracing = load("tracing")
    doc = {
        "model": str(REPO / "configs" / "models" / "two_control_harvest.yaml"),
        "output_dir": str(tmp_path / "out"),
        "initial": {"time": 0.0, "particles": [{"label": "", "position": [0.0]}]},
        "simulation": {"step": 0.05, "horizon": 1.0, "replications": 10,
                       "seed_base": 11},
        "grid": {"x_lo": -4.0, "x_hi": 4.0, "n_x": 81, "n_t": 90},
        "tasks": [{"kind": "solve", "probe_points": [0.0],
                   "boundary_sensitivity": True}],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    tracer = tracing.Tracer()
    with tracer.installed(branchdiff):
        code = cli.run(cfg, out=tmp_path / "traced")
    assert code == cli.run(cfg, out=tmp_path / "plain") == cli.EXIT_OK
    name_id, _, _, _ = tracer.arrays()
    assert (name_id == tracer._ids["hjb.solve"]).sum() == 2
    assert (name_id == tracer._ids["hjb.csv"]).sum() == 1
    assert tracer.grids == [(90, 81), (90, 161)]
    assert report_bytes(tmp_path / "traced") == report_bytes(tmp_path / "plain")
