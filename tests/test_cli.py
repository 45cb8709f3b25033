import gc
import hashlib
import io
import json
import re
import shutil
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from branchdiff import cli, estimator, modelio, simulator
from branchdiff.errors import ConfigurationError
from branchdiff.model import ModelParams

REPO = Path(__file__).resolve().parents[1]
MODELS = REPO / "configs" / "models"

EXPERIMENT = """
model: critical_binary.yaml
output_dir: {out}
initial:
  time: 0.0
  particles:
    - {{label: "", position: [0.0]}}
simulation:
  step: 0.5
  horizon: 2.0
  replications: 2000
  seed_base: 4242
grid:
  x_lo: -1.0
  x_hi: 1.0
  n_x: 11
  n_t: 500
tasks:
  - kind: solve
    probe_points: [0.0]
  - kind: estimate
    policy: {{kind: constant, control: 0}}
    oracle: {{value: 0.5, sigmas: 3, allowance: 0.002}}
    dump_summaries: true
    dump_paths: 2
  - kind: moment
    replications: 500
"""


def write_experiment(tmp_path, out_name="out", body=None):
    shutil.copy(MODELS / "critical_binary.yaml", tmp_path / "critical_binary.yaml")
    cfg = tmp_path / "exp.yaml"
    cfg.write_text((body or EXPERIMENT).format(out=tmp_path / out_name))
    return cfg


# pure binary splitting: every path outgrows any population cap
BOOM_MODEL = """
dim: 1
noise_dim: 1
rate_bound: 1.0
max_children: 2
mean_offspring_bound: 2.0
controls: {count: 1}
coefficients:
  drift: [{family: constant, value: 0.0}]
  diffusion: [{family: constant, value: 0.0}]
  death_rate: {family: constant, value: 1.0}
  offspring:
    probs:
      - {family: constant, value: 0.0}
      - {family: constant, value: 0.0}
  running_cost: {family: constant, value: 0.0}
  terminal: {family: constant, value: 0.5}
"""


def write_explosion(tmp_path, population_cap):
    (tmp_path / "boom.yaml").write_text(BOOM_MODEL)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"""
model: boom.yaml
output_dir: {tmp_path / 'out'}
initial:
  particles: [{{label: "", position: [0.0]}}]
simulation:
  step: 1.0
  horizon: 40.0
  replications: 50
  seed_base: 1
  population_cap: {population_cap}
tasks:
  - kind: estimate
""")
    return cfg


def read_json(path):
    return json.loads(path.read_text())


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path):
        cfg = write_experiment(tmp_path)
        code = cli.run(cfg)
        assert code == cli.EXIT_OK
        out = tmp_path / "out"
        manifest = read_json(out / "manifest.json")
        assert manifest["all_passed"] is True
        assert {t["kind"] for t in manifest["tasks"]} == {"solve", "estimate",
                                                          "moment"}
        assert "config_digest" in manifest
        assert (out / "summary.csv").exists()
        assert (out / "task_00_solve.json").exists()
        assert (out / "task_01_estimate.json").exists()
        # dumped wire formats
        jsonl = (out / "task_01_replications.jsonl").read_text().splitlines()
        assert len(jsonl) == 2000
        first = json.loads(jsonl[0])
        assert set(first) == {"seed", "cost", "sup_population", "n_events",
                              "extinct"}
        # dumped paths are the paths of a set-up without a stream table
        params = modelio.load_model(MODELS / "critical_binary.yaml")
        setup = simulator.prepare_simulation(0.0, {(): [0.0]}, simulator.ConstantPolicy(0),
                                             params, 0.5, 2.0)
        for k in range(2):
            path = simulator.simulate(setup, 4242 + k)
            expected = io.StringIO(newline="")
            simulator.write_path_csv(path, expected)
            assert ((out / f"task_01_path_{k}.csv").read_bytes()
                    == expected.getvalue().encode())
        grid_csv = (out / "task_00_grid.csv").read_text().splitlines()
        assert grid_csv[0] == "t,x,u,control"

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        cfg = write_experiment(tmp_path)
        assert cli.run(cfg, out=tmp_path / "a") == cli.EXIT_OK
        assert cli.run(cfg, out=tmp_path / "b") == cli.EXIT_OK
        for name in ("task_00_solve.json", "task_01_estimate.json",
                     "task_02_moment.json", "summary.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        ma = read_json(tmp_path / "a" / "manifest.json")
        mb = read_json(tmp_path / "b" / "manifest.json")
        ma.pop("generated_at")
        mb.pop("generated_at")
        assert ma == mb

    def test_seed_override_changes_reports(self, tmp_path):
        cfg = write_experiment(tmp_path)
        cli.run(cfg, out=tmp_path / "a")
        cli.run(cfg, out=tmp_path / "b", seed=1)
        ra = read_json(tmp_path / "a" / "task_01_estimate.json")
        rb = read_json(tmp_path / "b" / "task_01_estimate.json")
        assert ra["seed_base"] != rb["seed_base"]
        assert ra["results"]["mean"] != rb["results"]["mean"]

    def test_failing_check_exits_5(self, tmp_path):
        body = EXPERIMENT.replace("value: 0.5", "value: 0.9")
        cfg = write_experiment(tmp_path, body=body)
        assert cli.run(cfg) == cli.EXIT_CHECKS_FAILED

    def test_missing_model_file_exits_io(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(EXPERIMENT.format(out=tmp_path / "out")
                       .replace("critical_binary.yaml", "nope.yaml"))
        assert cli.run(cfg) == cli.EXIT_IO

    def test_missing_config_exits_io(self, tmp_path):
        assert cli.run(tmp_path / "absent.yaml") == cli.EXIT_IO

    def test_unwritable_report_exits_io(self, tmp_path, capsys):
        """A report the run cannot write, here because a directory holds its
        name, exits 6 and names the file."""
        cfg = write_experiment(tmp_path, body=EXPERIMENT.split("  - kind: estimate")[0])
        (tmp_path / "out" / "task_00_solve.json").mkdir(parents=True)
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "task_00_solve.json" in err and "internal error" not in err

    def test_unknown_key_exits_parse(self, tmp_path):
        cfg = write_experiment(tmp_path, body=EXPERIMENT + "\nbogus: 1\n")
        assert cli.run(cfg) == cli.EXIT_PARSE

    def test_boundary_sensitivity_reuses_solved_grid(self, tmp_path, monkeypatch):
        calls = []
        solve = cli.hjb.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(cli.hjb, "solve", counted)
        body = EXPERIMENT.split("  - kind: estimate")[0].replace(
            "probe_points: [0.0]",
            "probe_points: [0.0]\n    boundary_sensitivity: true\n    export_csv: false")
        cfg = write_experiment(tmp_path, body=body)
        assert cli.run(cfg) == cli.EXIT_OK
        assert len(calls) == 2   # the task's grid, then the doubled domain
        results = read_json(tmp_path / "out" / "task_00_solve.json")["results"]
        assert 0.0 <= results["boundary_sensitivity"] < 1.0

    @pytest.mark.parametrize("probes", ["probe_points: [0.0]\n    ", ""],
                             ids=["probes", "midpoint"])
    def test_boundary_sensitivity_releases_the_task_grid_first(self, tmp_path, monkeypatch,
                                                               probes):
        """A solve task that is the last to read its grid lets it go before
        the doubled domain is solved: the two surfaces are never held at
        once, and the task's grid is still solved first."""
        configs, alive_at_call, grids = [], [], []
        solve = cli.hjb.solve

        def tracked(params, config):
            gc.collect()
            alive_at_call.append([ref() is not None for ref in grids])
            configs.append(config)
            grid = solve(params, config)
            grids.append(weakref.ref(grid))
            return grid

        monkeypatch.setattr(cli.hjb, "solve", tracked)
        body = EXPERIMENT.split("  - kind: estimate")[0].replace(
            "probe_points: [0.0]", f"{probes}boundary_sensitivity: true")
        cfg = write_experiment(tmp_path, body=body)
        assert cli.run(cfg) == cli.EXIT_OK
        assert [c.n_x for c in configs] == [11, 21]   # the task's grid, then the doubled one
        assert alive_at_call == [[], [False]]
        results = read_json(tmp_path / "out" / "task_00_solve.json")["results"]
        assert list(results)[-2:] == ["boundary_sensitivity", "grid_csv"]
        assert (tmp_path / "out" / results["grid_csv"]).is_file()

    @pytest.mark.parametrize("later", [
        {"kind": "dpp", "replications": 100, "policies": [{"kind": "constant"}],
         "stopping": [{"rule": "fixed", "time": 0.5}]},
        {"kind": "estimate", "replications": 100, "compare_pde": True},
        {"kind": "estimate", "replications": 100, "policy": {"kind": "feedback"}},
    ], ids=["dpp", "compare_pde", "feedback"])
    def test_later_grid_reader_keeps_the_solved_grid(self, tmp_path, monkeypatch, later):
        """The solve task keeps the grid for a later task that reads it: two
        solves, the task's grid and the doubled domain, and no third."""
        calls = []
        solve = cli.hjb.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(cli.hjb, "solve", counted)
        doc = base_doc(tmp_path, tasks=[
            {"kind": "solve", "probe_points": [0.0], "boundary_sensitivity": True,
             "export_csv": False}, later])
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert cli.run(cfg) == cli.EXIT_OK
        assert [args[1].n_x for args in calls] == [41, 81]

    @pytest.mark.parametrize("sensitivity, builds", [(False, 1), (True, 3)])
    def test_solve_builds_coefficient_tables_once(self, tmp_path, monkeypatch,
                                                  sensitivity, builds):
        """A solve task reads the model's coefficients once; the boundary
        sensitivity adds one read to size the doubled domain's n_t and one
        for its solve."""
        calls = []
        coefficients = ModelParams.coefficients

        def counted(self, *args):
            calls.append(args)
            return coefficients(self, *args)

        monkeypatch.setattr(ModelParams, "coefficients", counted)
        body = EXPERIMENT.split("  - kind: estimate")[0].replace(
            "probe_points: [0.0]",
            f"probe_points: [0.0]\n    boundary_sensitivity: {str(sensitivity).lower()}")
        cfg = write_experiment(tmp_path, body=body)
        assert cli.run(cfg) == cli.EXIT_OK
        assert len(calls) == builds
        results = read_json(tmp_path / "out" / "task_00_solve.json")["results"]
        assert 0.0 < results["cfl_ratio"] <= 1.0

    def test_yaml_syntax_error_exits_parse(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("tasks: [unclosed\n")
        assert cli.run(cfg) == cli.EXIT_PARSE
        assert "YAML parse error at line 2, column 1" in capsys.readouterr().err

    def test_undecodable_config_exits_parse(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_bytes(b"model: \xff.yaml\n")
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "YAML parse error" in err and "internal error" not in err

    def test_cfl_violation_exits_validation_and_names_bound(self, tmp_path, capsys):
        body = EXPERIMENT.replace("n_t: 500", "n_t: 1")
        cfg = write_experiment(tmp_path, body=body)
        assert cli.run(cfg) == cli.EXIT_VALIDATION
        assert "CFL" in capsys.readouterr().err

    def test_invalid_model_exits_validation(self, tmp_path):
        model_text = (MODELS / "critical_binary.yaml").read_text()
        bad = model_text.replace("rate_bound: 1.0", "rate_bound: 0.5")
        (tmp_path / "critical_binary.yaml").write_text(bad)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(EXPERIMENT.format(out=tmp_path / "out"))
        assert cli.run(cfg) == cli.EXIT_VALIDATION

    def test_explosion_guard_exits_4(self, tmp_path):
        assert cli.run(write_explosion(tmp_path, 64)) == cli.EXIT_EXPLOSION

    def test_explosion_in_blocks_exits_4(self, tmp_path, monkeypatch):
        # every replication trips the guard, so each worker's block of the
        # call ends at its first replication
        submitted = []

        class RecordingPool(estimator.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(super().submit(*args, **kwargs))
                return submitted[-1]

        monkeypatch.setattr(estimator, "ProcessPoolExecutor", RecordingPool)
        cfg = write_explosion(tmp_path, 400)
        assert cli.run(cfg, threads=2) == cli.EXIT_EXPLOSION
        assert len(submitted) == 2
        assert [fut.exception().completed_replications for fut in submitted] == [0, 25]

    def test_numerical_blowup_exits_validation(self, tmp_path, capsys):
        # explicit Euler on x' = -200 x at step 0.05 multiplies x by -9 per
        # step, overflowing after about 320 steps
        (tmp_path / "stiff.yaml").write_text("""
dim: 1
noise_dim: 1
rate_bound: 0.0
max_children: 1
mean_offspring_bound: 1.0
controls: {count: 1}
coefficients:
  drift: [{family: affine, intercept: 0.0, slope: [-200.0]}]
  diffusion: [{family: constant, value: 0.3}]
  death_rate: {family: constant, value: 0.0}
  offspring:
    probs: [{family: constant, value: 1.0}]
  running_cost: {family: constant, value: 0.0}
  terminal: {family: gaussian-bump, offset: 0.1, amplitude: 0.8, center: [0.0], width: 1.0}
""")
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"""
model: stiff.yaml
output_dir: {tmp_path / 'out'}
initial:
  particles: [{{label: "", position: [0.1]}}]
simulation:
  step: 0.05
  horizon: 20.0
  replications: 10
  seed_base: 1
tasks:
  - kind: estimate
""")
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "numerical failure" in err and "non-finite position" in err
        assert not (tmp_path / "out" / "summary.csv").exists()


    def test_non_finite_running_cost_exits_validation(self, tmp_path, capsys):
        # finite parameters whose sum overflows: the cost is inf at x = 0
        model_text = (MODELS / "subcritical_drift.yaml").read_text()
        bad = model_text.replace(
            "running_cost: {family: constant, value: 0.0}",
            "running_cost: {family: gaussian-bump, offset: 1.0e+308, "
            "amplitude: 1.0e+308, center: [0.0], width: 1.0}")
        assert bad != model_text
        (tmp_path / "model.yaml").write_text(bad)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"""
model: model.yaml
output_dir: {tmp_path / 'out'}
initial:
  particles: [{{label: "", position: [0.0]}}]
simulation: {{step: 0.05, horizon: 1.0, replications: 20, seed_base: 1}}
tasks:
  - kind: estimate
""")
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "model validation failed" in err and "cost-non-finite control=0" in err
        assert not list((tmp_path / "out").glob("task_*.json"))


class TestMainEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "branchdiff" in capsys.readouterr().out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = capsys.readouterr().out
        for token in ("exit codes", "parse error", "explosion guard"):
            assert token in text
        # every exit code is one line of the table: its number, then its meaning
        codes = {int(line.split()[0]) for line in text.splitlines()
                 if line.strip() and line.split()[0].isdigit()}
        exits = {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
        assert len(exits) == 7
        assert exits <= codes

    def test_main_runs_experiment(self, tmp_path):
        cfg = write_experiment(tmp_path)
        assert cli.main(["--config", str(cfg), "--reps", "500"]) == cli.EXIT_OK


def test_dump_json_17_digits():
    text = cli.dump_json({"x": 1.0 / 3.0, "n": 3, "flag": True, "s": "a"})
    assert "0.33333333333333331" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "n": 3, "flag": True, "s": "a"}


def test_branching_dynkin_couple_tasks(tmp_path):
    shutil.copy(MODELS / "subcritical_drift.yaml",
                tmp_path / "subcritical_drift.yaml")
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"""
model: subcritical_drift.yaml
output_dir: {tmp_path / 'out'}
initial:
  particles: [{{label: "", position: [0.0]}}]
simulation:
  step: 0.05
  horizon: 1.0
  replications: 1500
  seed_base: 12
  coupling_delta: 0.05
grid:
  x_lo: -5.0
  x_hi: 5.0
  n_x: 101
  n_t: 30
tasks:
  - kind: branching
    positions: [[-0.5], [0.5]]
    policy: {{kind: feedback}}
  - kind: dynkin
    times: [0.5]
    functions:
      - {{family: gaussian-bump, base: 0.2, scale: 0.6, decay: 0.3,
          center: [0.0], width: 0.8}}
  - kind: couple
    perturbations: [0.2, 0.002]
    final_rate_min: 0.98
""")
    assert cli.run(cfg) == cli.EXIT_OK
    branching = read_json(tmp_path / "out" / "task_00_branching.json")
    assert branching["passed"] is True
    couple = read_json(tmp_path / "out" / "task_02_couple.json")
    ladder = couple["results"]["ladder"]
    assert ladder[0]["perturbation"] == 0.2
    assert ladder[-1]["rate"] >= 0.98


def test_verify_all_on_bundled_critical_binary(tmp_path):
    repo_cfg = REPO / "configs" / "experiments" / "verify_critical_binary.yaml"
    code = cli.run(repo_cfg, out=tmp_path / "out", reps=4000, threads=2)
    assert code == cli.EXIT_OK
    manifest = read_json(tmp_path / "out" / "manifest.json")
    assert manifest["all_passed"] is True
    report = read_json(tmp_path / "out" / "task_00_verify_all.json")
    names = {c["name"] for c in report["checks"]}
    assert {"clamp_events", "mc_pde_agreement", "oracle", "moment_bound",
            "branching", "dynkin_residual", "dpp_fixed", "dpp_first-event",
            "determinism"} <= names


def test_two_control_dpp_tasks(tmp_path):
    shutil.copy(MODELS / "two_control_harvest.yaml",
                tmp_path / "two_control_harvest.yaml")
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"""
model: two_control_harvest.yaml
output_dir: {tmp_path / 'out'}
initial:
  particles: [{{label: "", position: [0.0]}}]
simulation:
  step: 0.02
  horizon: 1.0
  replications: 3000
  seed_base: 777
grid:
  x_lo: -4.0
  x_hi: 4.0
  n_x: 161
  n_t: 450
tasks:
  - kind: dpp
    allowance: 0.015
    stopping:
      - {{rule: fixed, time: 0.5}}
      - {{rule: first-event, time: 0.5}}
    policies:
      - {{kind: feedback, role: optimal}}
      - {{kind: constant, control: 0, role: admissible}}
      - {{kind: constant, control: 1, role: admissible}}
      - {{kind: open-loop, switch_times: [0.0, 0.3], controls: [1, 0],
          role: admissible}}
""")
    code = cli.run(cfg, threads=2)
    assert code == cli.EXIT_OK
    report = read_json(tmp_path / "out" / "task_00_dpp.json")
    assert len(report["results"]["inequalities"]) == 8
    assert report["passed"] is True


TWO_FOUNDERS = EXPERIMENT.replace(
    '    - {{label: "", position: [0.0]}}',
    '    - {{label: "{a}", position: [0.0]}}\n    - {{label: "{b}", position: [0.5]}}')


@pytest.mark.parametrize("first, second, bad", [
    ("x", "1", 0),          # not a number
    ("0", "1..2", 1),       # empty part
    ("-1", "0", 0),         # negative
    ("0", "0.1", 1),        # a founder descends from another
    ("0", "0", 1),          # the same label twice
], ids=["not_a_number", "empty_part", "negative", "not_antichain", "duplicate"])
def test_bad_initial_label_exits_parse(tmp_path, capsys, first, second, bad):
    body = TWO_FOUNDERS.replace("{a}", first).replace("{b}", second)
    cfg = write_experiment(tmp_path, body=body)
    assert cli.run(cfg) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"initial.particles[{bad}].label" in err
    assert "internal error" not in err


def test_unquoted_dotted_label_exits_parse(tmp_path, capsys):
    # unquoted, YAML reads 0.10 as the number 0.1, which would be label (0, 1)
    body = TWO_FOUNDERS.replace('"{a}"', "0.10").replace("{b}", "1")
    cfg = write_experiment(tmp_path, body=body)
    assert cli.run(cfg) == cli.EXIT_PARSE
    assert "initial.particles[0].label" in capsys.readouterr().err


SIGMA_1E160 = ("diffusion:\n    - {family: constant, value: 0.45}",
               "diffusion:\n    - {family: constant, value: 1.0e+160}")
DRIFT_1E308 = ("drift:\n    - {family: constant, value: 0.0}",
               "drift:\n    - {family: constant, value: 1.0e+308}")
# sigma sigma^T overflows at the grid node 0.2 only, which no probe point hits
SIGMA_BUMP_1E200 = (SIGMA_1E160[0], "diffusion:\n    - {family: gaussian-bump, offset: 0.45, "
                    "amplitude: 1.0e+200, center: [0.2], width: 0.01}")


@pytest.mark.parametrize("edit, task, message", [
    (SIGMA_1E160, {"kind": "solve"}, "motion-non-finite control=0"),
    (DRIFT_1E308, {"kind": "solve"}, "the CFL bound"),
    (SIGMA_BUMP_1E200, {"kind": "solve"}, "the CFL bound"),
    (SIGMA_1E160, {"kind": "dynkin", "times": [0.5], "functions": [
        {"family": "gaussian-bump", "base": 0.3, "scale": 0.5}]},
     "motion-non-finite control=0"),
], ids=["diffusion_solve", "drift_solve", "diffusion_at_node_solve", "diffusion_dynkin"])
def test_overflowing_motion_exits_validation(tmp_path, capsys, edit, task, message):
    """sigma sigma^T that overflows fails validation; a drift whose CFL term
    overflows, or sigma sigma^T that overflows at a grid node between the
    probe points, fails the solve's CFL check: exit 3 either way, unwarned
    (RuntimeWarning is an error under this suite's settings)."""
    text = (MODELS / "two_control_harvest.yaml").read_text()
    assert edit[0] in text
    model = tmp_path / "model.yaml"
    model.write_text(text.replace(*edit))
    doc = base_doc(tmp_path, tasks=[task])
    doc["model"] = str(model)
    if task["kind"] == "dynkin":
        del doc["grid"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err
    assert "internal error" not in err and "RuntimeWarning" not in err
    assert not list((tmp_path / "out").glob("task_*.json"))


# ---------------------------------------------------------------------------
# the whole experiment is parsed before any task runs

def base_doc(tmp_path, model="two_control_harvest.yaml", tasks=None):
    return {
        "model": str(MODELS / model),
        "output_dir": str(tmp_path / "out"),
        "initial": {"time": 0.0, "particles": [{"label": "", "position": [0.0]}]},
        "simulation": {"step": 0.05, "horizon": 1.0, "replications": 200,
                       "seed_base": 5},
        "grid": {"x_lo": -4.0, "x_hi": 4.0, "n_x": 41, "n_t": 90},
        "tasks": tasks or [{"kind": "estimate", "replications": 100}],
    }


def run_rejected(tmp_path, capsys, doc, path, *argv):
    """Run ``doc`` and assert it exits 2 naming ``path`` before any output."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg), *argv]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


# a valid second task of each kind, a key of it to misspell, and a key with a
# wrongly typed value
SECOND_TASKS = {
    "solve": ({"probe_points": [0.0]}, "probe_points", ("export_csv", "no")),
    "estimate": ({"replications": 100}, "replications", ("replications", "lots")),
    "branching": ({"positions": [[0.0], [0.5]]}, "positions",
                  ("positions", [["zero"]])),
    "dpp": ({"policies": [{"kind": "feedback", "role": "optimal"}],
             "stopping": [{"rule": "fixed", "time": 0.5}]}, "stopping",
            ("allowance", "wide")),
    "dynkin": ({"functions": [{"family": "constant"}], "times": [0.5]}, "functions",
               ("times", "soon")),
    "moment": ({"replications": 200}, "replications", ("replications", 200.5)),
    "couple": ({"perturbations": [0.1]}, "perturbations", ("final_rate_min", "high")),
    "verify-all": ({"check_replications": 200}, "check_replications",
                   ("oracle", "half")),
}


def test_second_task_kinds_cover_every_kind():
    assert set(SECOND_TASKS) == set(cli._TASKS)


@pytest.mark.parametrize("fault", ["misspelled", "wrong_type"])
@pytest.mark.parametrize("kind", list(SECOND_TASKS))
def test_bad_second_task_exits_parse_before_any_task(tmp_path, capsys, kind, fault):
    task, key, (typed_key, bad_value) = SECOND_TASKS[kind]
    task = {"kind": kind, **task}
    if fault == "misspelled":
        key = key[:-3] + key[-2] + key[-3] + key[-1]    # swap two letters
        task[key] = task.pop(SECOND_TASKS[kind][1])
    else:
        key = typed_key
        task[key] = bad_value
    doc = base_doc(tmp_path, tasks=[{"kind": "estimate", "replications": 100}, task])
    run_rejected(tmp_path, capsys, doc, f"tasks[1].{key}")


def set_in(doc, keys, value):
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


DPP = {"kind": "dpp", "policies": [{"kind": "feedback"}],
       "stopping": [{"rule": "fixed", "time": 0.5}]}


def on_planar_model(doc):
    """Move ``doc`` to the 2-d PLANAR_MODEL, written beside its output dir."""
    model = Path(doc["output_dir"]).with_name("planar.yaml")
    model.write_text(PLANAR_MODEL)
    doc["model"] = str(model)
    set_in(doc, ["initial", "particles", 0, "position"], [0.0, 0.0])

BAD_INPUTS = {
    "step_zero": (lambda d: set_in(d, ["simulation", "step"], 0), "simulation.step"),
    "step_fast": (lambda d: set_in(d, ["simulation", "step"], "fast"),
                  "simulation.step"),
    "fractional_replications": (lambda d: set_in(d, ["tasks", 0, "replications"], 200.5),
                                "tasks[0].replications"),
    "reps_override_zero": (None, "--reps"),
    "negative_seed_override": (None, "--seed"),
    "horizon_before_start": (lambda d: set_in(d, ["initial", "time"], 1.5),
                             "simulation.horizon"),
    "start_before_grid": (
        lambda d: (set_in(d, ["initial", "time"], -0.5),
                   set_in(d, ["tasks", 0, "compare_pde"], True)),
        "initial.time"),
    "position_not_a_number": (
        lambda d: set_in(d, ["initial", "particles", 0, "position"], ["zero"]),
        "initial.particles[0].position"),
    "position_wrong_dimension": (
        lambda d: set_in(d, ["initial", "particles", 0, "position"], [0.0, 1.0]),
        "initial.particles[0].position"),
    "feedback_without_grid": (
        lambda d: (d.pop("grid"), set_in(d, ["tasks", 0, "policy"], {"kind": "feedback"})),
        "tasks[0].policy"),
    "solve_without_grid": (
        lambda d: (d.pop("grid"), set_in(d, ["tasks"], [{"kind": "solve"}])), "tasks[0]"),
    "solve_on_planar_model": (
        lambda d: (on_planar_model(d), set_in(d, ["tasks"], [{"kind": "solve"}])), "tasks[0]"),
    "compare_pde_without_grid": (
        lambda d: (d.pop("grid"), set_in(d, ["tasks", 0, "compare_pde"], True)),
        "tasks[0]"),
    "probe_past_grid": (
        lambda d: set_in(d, ["tasks"], [{"kind": "solve", "probe_points": [4.0, 5.0, 40.0]}]),
        "tasks[0].probe_points[1]"),
    "probe_before_grid": (
        lambda d: set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100},
                                        {"kind": "solve", "probe_points": [-4.5]}]),
        "tasks[1].probe_points[0]"),
    "too_few_space_nodes": (lambda d: set_in(d, ["grid", "n_x"], 2), "grid.n_x"),
    "grid_bounds_reversed": (lambda d: set_in(d, ["grid", "x_hi"], -5.0), "grid"),
    "decreasing_switch_times": (
        lambda d: set_in(d, ["tasks", 0, "policy"], {
            "kind": "open-loop", "switch_times": [0.5, 0.2], "controls": [0, 1]}),
        "tasks[0].policy.switch_times"),
    "unknown_policy_kind": (
        lambda d: set_in(d, ["tasks", 0, "policy"], {"kind": "greedy"}),
        "tasks[0].policy.kind"),
    "unknown_stopping_rule": (
        lambda d: set_in(d, ["tasks"], [{**DPP, "stopping": [
            {"rule": "sometime", "time": 0.5}]}]),
        "tasks[0].stopping[0].rule"),
    "stopping_time_before_start": (
        lambda d: set_in(d, ["tasks"], [{**DPP, "stopping": [
            {"rule": "fixed", "time": -0.1}]}]),
        "tasks[0].stopping[0].time"),
    "stopping_time_after_horizon": (
        lambda d: set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100}, {
            **DPP, "stopping": [{"rule": "first-event", "time": 0.5},
                                {"rule": "fixed", "time": 2.0}]}]),
        "tasks[1].stopping[1].time"),
    "dynkin_time_before_start": (
        lambda d: set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100}, {
            "kind": "dynkin", "functions": [{"family": "constant"}],
            "times": [0.5, -0.5]}]),
        "tasks[1].times[1]"),
    "unknown_role": (
        lambda d: set_in(d, ["tasks"], [{**DPP, "policies": [
            {"kind": "feedback", "role": "optimall"}]}]),
        "tasks[0].policies[0].role"),
    "unknown_test_function_family": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5],
                                         "functions": [{"family": "gaussian"}]}]),
        "tasks[0].functions[0].family"),
    "test_function_center_wrong_dimension": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5], "functions": [
            {"family": "gaussian-bump", "center": [0.0, 3.0]}]}]),
        "tasks[0].functions[0].center"),
    "test_function_leaves_unit_interval": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5], "functions": [
            {"family": "gaussian-bump", "base": 0.8, "scale": 0.6}]}]),
        "tasks[0].functions[0]"),
    "test_function_dips_below_zero": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5], "functions": [
            {"family": "constant"}, {"family": "gaussian-bump", "base": 0.1, "scale": -0.5}]}]),
        "tasks[0].functions[1]"),
    "test_function_negative_decay": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5], "functions": [
            {"family": "gaussian-bump", "base": 0.3, "scale": 0.5, "decay": -1.0}]}]),
        "tasks[0].functions[0]"),
    "test_function_leaves_before_time_zero": (
        lambda d: (d.pop("grid"), set_in(d, ["initial", "time"], -1.0),
                   set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100}, {
                       "kind": "dynkin", "times": [0.5], "functions": [
                           {"family": "gaussian-bump", "base": 0.3, "scale": 0.5,
                            "decay": 1.0}]}])),
        "tasks[1].functions[0]"),
    "constant_test_function_above_one": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5], "functions": [
            {"family": "constant", "base": 0.7, "scale": 0.5},
            {"family": "constant", "base": 1.2}]}]),
        "tasks[0].functions[1]"),
    "flag_not_boolean": (
        lambda d: set_in(d, ["tasks"], [{"kind": "solve", "export_csv": "no"}]),
        "tasks[0].export_csv"),
    "negative_dump_paths": (lambda d: set_in(d, ["tasks", 0, "dump_paths"], -1),
                            "tasks[0].dump_paths"),
    "empty_ladder": (
        lambda d: set_in(d, ["tasks"], [{"kind": "couple", "perturbations": []}]),
        "tasks[0].perturbations"),
    # a negative band, tolerance or ladder size, and a rate floor outside [0, 1]
    "negative_oracle_sigmas": (
        lambda d: set_in(d, ["tasks", 0, "oracle"], {"value": 0.5, "sigmas": -3.0}),
        "tasks[0].oracle.sigmas: must be at least 0.0, got -3.0"),
    "negative_oracle_allowance": (
        lambda d: set_in(d, ["tasks", 0, "oracle"], {"value": 0.5, "allowance": -0.01}),
        "tasks[0].oracle.allowance"),
    "negative_estimate_allowance": (
        lambda d: set_in(d, ["tasks", 0, "allowance"], -0.01), "tasks[0].allowance"),
    "negative_dpp_allowance": (
        lambda d: set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100},
                                        {**DPP, "allowance": -0.01}]),
        "tasks[1].allowance"),
    "negative_allowance_per_step": (
        lambda d: set_in(d, ["tasks"], [{"kind": "dynkin", "times": [0.5],
                                         "functions": [{"family": "constant"}],
                                         "allowance_per_step": -0.5}]),
        "tasks[0].allowance_per_step"),
    "negative_verify_all_allowance": (
        lambda d: set_in(d, ["tasks"], [{"kind": "verify-all", "allowance": -0.01}]),
        "tasks[0].allowance"),
    "negative_coupling_delta": (
        lambda d: set_in(d, ["simulation", "coupling_delta"], -0.05),
        "simulation.coupling_delta"),
    "final_rate_min_above_one": (
        lambda d: set_in(d, ["tasks"], [{"kind": "couple", "perturbations": [0.1],
                                         "final_rate_min": 1.5}]),
        "tasks[0].final_rate_min: must lie in [0.0, 1.0], got 1.5"),
    "negative_final_rate_min": (
        lambda d: set_in(d, ["tasks"], [{"kind": "couple", "perturbations": [0.1],
                                         "final_rate_min": -0.1}]),
        "tasks[0].final_rate_min"),
    "negative_perturbation": (
        lambda d: set_in(d, ["tasks"], [{"kind": "estimate", "replications": 100},
                                        {"kind": "couple", "perturbations": [0.1, -0.01]}]),
        "tasks[1].perturbations[1]: must be at least 0.0, got -0.01"),
    "negative_verify_all_perturbation": (
        lambda d: set_in(d, ["tasks"], [{"kind": "verify-all", "perturbations": [-0.1]}]),
        "tasks[0].perturbations[0]"),
}
OVERRIDES = {"reps_override_zero": ["--reps", "0"],
             "negative_seed_override": ["--seed", "-1"]}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_parse_with_its_path(tmp_path, capsys, case):
    mutate, path = BAD_INPUTS[case]
    doc = base_doc(tmp_path)
    if mutate is not None:
        mutate(doc)
    run_rejected(tmp_path, capsys, doc, path, *OVERRIDES.get(case, []))


@pytest.mark.parametrize("written, broken, message", [
    ("center: [0.0]", "center: [0.0, 0.0]", "terminal: center has length 2"),
    ("- {family: constant, value: 0.1}",
     "- {family: affine, intercept: 0.1, slope: [0.0, 1.0]}",
     "drift[0][0]: slope has length 2"),
], ids=["terminal_center", "drift_slope"])
def test_spec_length_other_than_dim_exits_parse(tmp_path, capsys, written, broken,
                                                message):
    text = (MODELS / "subcritical_drift.yaml").read_text()
    assert written in text
    model = tmp_path / "model.yaml"
    model.write_text(text.replace(written, broken))
    doc = base_doc(tmp_path, tasks=[{"kind": "solve"},
                                    {"kind": "estimate", "replications": 100}])
    doc["model"] = str(model)
    run_rejected(tmp_path, capsys, doc, message)


@pytest.mark.parametrize("model, policy, path", [
    ("two_control_harvest.yaml", {"kind": "constant", "control": -1}, "policy.control"),
    ("two_control_harvest.yaml", {"kind": "constant", "control": 7}, "policy.control"),
    ("two_control_harvest.yaml", {"kind": "open-loop", "switch_times": [0.0],
                                  "controls": [5]}, "policy.controls[0]"),
    ("critical_binary.yaml", {"kind": "constant", "control": 1}, "policy.control"),
    ("critical_binary.yaml", {"kind": "open-loop", "switch_times": [0.0, 0.5],
                              "controls": [0, -1]}, "policy.controls[1]"),
], ids=["negative", "too_large", "open_loop", "one_control", "one_control_open_loop"])
def test_control_index_out_of_range_exits_parse(tmp_path, capsys, model, policy, path):
    doc = base_doc(tmp_path, model=model,
                   tasks=[{"kind": "estimate", "replications": 100, "policy": policy}])
    run_rejected(tmp_path, capsys, doc, f"tasks[0].{path}")


def test_branching_accepts_open_loop_policy(tmp_path):
    """No policy depends on the particle's label, so the product
    factorization holds under an open-loop schedule too."""
    policy = {"kind": "open-loop", "switch_times": [0.0, 0.5], "controls": [1, 0]}
    doc = base_doc(tmp_path, tasks=[{"kind": "branching", "positions": [[-0.5], [0.5]],
                                     "policy": policy}])
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.run(cfg) == cli.EXIT_OK
    report = read_json(tmp_path / "out" / "task_00_branching.json")
    assert [c["name"] for c in report["checks"]] == ["product_factorization"]
    assert report["passed"] is True


PLANAR_MODEL = """
dim: 2
noise_dim: 2
rate_bound: 1.0
max_children: 2
mean_offspring_bound: 1.0
controls: {count: 1}
coefficients:
  drift: [{family: constant, value: 0.1}, {family: constant, value: 0.0}]
  diffusion:
    - {family: constant, value: 0.3}
    - {family: constant, value: 0.0}
    - {family: constant, value: 0.0}
    - {family: constant, value: 0.3}
  death_rate: {family: constant, value: 0.8}
  offspring:
    residual_last: true
    probs: [{family: constant, value: 0.5}, {family: constant, value: 0.0}]
  running_cost: {family: constant, value: 0.0}
  terminal: {family: constant, value: 0.5}
"""


@pytest.mark.parametrize("task, path", [
    ({"kind": "estimate", "replications": 100}, None),
    ({"kind": "estimate", "replications": 100, "policy": {"kind": "feedback"}},
     "tasks[0].policy"),
    ({"kind": "dpp", "replications": 100, "policies": [{"kind": "constant"}],
      "stopping": [{"rule": "fixed", "time": 0.5}]}, "tasks[0]"),
    ({"kind": "verify-all"}, "tasks[0]"),
], ids=["estimate", "feedback", "dpp", "verify_all"])
def test_only_solving_tasks_need_a_one_dimensional_model(tmp_path, task, path):
    """A 2-d run with a grid section parses unless a task solves the PDE."""
    doc = base_doc(tmp_path, tasks=[task])
    on_planar_model(doc)
    overrides = SimpleNamespace(out=None, seed=None, reps=None)
    if path is None:
        cli.Experiment(doc, tmp_path / "exp.json", overrides)
    else:
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{path}: ") + ".*one-dimensional models only"):
            cli.Experiment(doc, tmp_path / "exp.json", overrides)


@pytest.mark.parametrize("tasks, reps, path", [
    ([{"kind": "estimate"}, {"kind": "moment"}], 50, "tasks[1].replications"),
    ([{"kind": "estimate", "replications": 100},
      {"kind": "branching", "positions": [[0.0], [0.5]]}], 1, "tasks[1].replications"),
    ([{"kind": "estimate"}], 1, "tasks[0].replications"),
    ([{"kind": "estimate", "replications": 100},
      {"kind": "dynkin", "times": [0.5], "functions": [{"family": "constant"}]}], 1,
     "tasks[1].replications"),
    ([{"kind": "estimate", "replications": 100}, DPP], 1, "tasks[1].replications"),
    ([{"kind": "estimate", "replications": 100}, {"kind": "verify-all"}], 1,
     "tasks[1].replications"),
    ([{"kind": "estimate", "replications": 100},
      {"kind": "verify-all", "replications": 200, "check_replications": 99}], 200,
     "tasks[1].check_replications"),
    ([{"kind": "estimate"}, {"kind": "moment"}], "--reps 99", "tasks[1].replications"),
], ids=["moment", "branching", "lone_estimate", "dynkin", "dpp", "verify_all",
        "verify_all_checks", "reps_override"])
def test_too_few_replications_exit_before_any_task(tmp_path, capsys, tasks, reps, path):
    """Every task's replication count is held to its estimator minimum before
    the first task runs, whether written, defaulted or set by --reps."""
    doc = base_doc(tmp_path, tasks=tasks)
    argv = []
    if isinstance(reps, str):
        argv = reps.split()
    else:
        doc["simulation"]["replications"] = reps
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["--config", str(cfg), *argv]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{path}: needs at least" in err and "internal error" not in err
    assert not list((tmp_path / "out").glob("task_*.json"))


def test_negative_scale_inside_unit_interval_accepted(tmp_path):
    """base 0.8 with scale -0.5 spans [0.3, 0.8], inside [0, 1]."""
    doc = base_doc(tmp_path, tasks=[{"kind": "dynkin", "times": [0.5], "functions": [
        {"family": "gaussian-bump", "base": 0.8, "scale": -0.5, "decay": 0.2}]}])
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    exp = cli.Experiment(doc, cfg, SimpleNamespace(out=None, seed=None, reps=None))
    fn = exp.tasks[0][1]["functions"][0]
    assert (fn.base, fn.scale, fn.decay) == (0.8, -0.5, 0.2)


def test_constant_test_function_with_scale_runs(tmp_path):
    """A constant is base everywhere: its scale does not count against the
    range."""
    doc = base_doc(tmp_path, tasks=[{"kind": "dynkin", "times": [0.5], "replications": 100,
                                     "functions": [{"family": "constant", "base": 0.7,
                                                    "scale": 0.5}]}])
    del doc["grid"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.run(cfg) == cli.EXIT_OK
    rows = read_json(tmp_path / "out" / "task_00_dynkin.json")["results"]["residuals"]
    assert [row["family"] for row in rows] == ["constant"]


def test_test_function_vectors_default_at_the_model_dim(tmp_path):
    """On a 2-d model a test function without center or direction takes the
    origin and the first unit vector."""
    (tmp_path / "planar.yaml").write_text(PLANAR_MODEL)
    doc = {"model": "planar.yaml", "output_dir": str(tmp_path / "out"),
           "initial": {"particles": [{"label": "", "position": [0.0, 0.0]}]},
           "simulation": {"step": 0.05, "horizon": 1.0, "replications": 300,
                          "seed_base": 3},
           "tasks": [{"kind": "dynkin", "times": [0.5], "functions": [
               {"family": "polynomial-times-bump", "base": 0.3, "scale": 0.5}]}]}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    exp = cli.Experiment(doc, cfg, SimpleNamespace(out=None, seed=None, reps=None))
    fn = exp.tasks[0][1]["functions"][0]
    explicit = estimator.SmoothTestFunction(
        family="polynomial-times-bump", base=0.3, scale=0.5,
        center=(0.0, 0.0), direction=(1.0, 0.0))
    xs = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
    got, want = (fn.value(0.2, xs), *fn.jet(0.2, xs)), (explicit.value(0.2, xs),
                                                      *explicit.jet(0.2, xs))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert cli.run(cfg) == cli.EXIT_OK


def test_task_defaults_follow_the_reps_override(tmp_path):
    doc = base_doc(tmp_path, tasks=[{"kind": "verify-all", "perturbations": [0.1, 0.2]},
                                    {"kind": "dynkin", "times": [1, 0.5],
                                     "functions": [{"family": "constant"}]}])
    cfg = tmp_path / "exp.json"
    exp = cli.Experiment(doc, cfg, SimpleNamespace(out=None, seed=None, reps=7000))
    (_, verify), (_, dynkin) = exp.tasks
    assert (verify["replications"], verify["check_replications"]) == (7000, 5000)
    assert verify["couple"]["perturbations"] == [0.2, 0.1]
    assert verify["couple"]["replications"] == 5000
    assert dynkin["replications"] == 7000
    # a check is named by its time as written
    assert dynkin["times"] == [("1", 1.0), ("0.5", 0.5)]


def test_schema_doc_lists_every_task_option():
    """Each task's section in docs/experiment_schema.md has one table row per
    key of that kind's spec."""
    documented, kind = {}, None
    for line in (REPO / "docs" / "experiment_schema.md").read_text().splitlines():
        if line.startswith("#"):
            heading = re.fullmatch(r"### `([a-z-]+)`", line)
            kind = heading and heading.group(1)
            if kind:
                documented[kind] = []
        elif kind and (row := re.match(r"\| `(\w+)` \|", line)):
            documented[kind].append(row.group(1))
    assert documented == {kind: list(spec) for kind, spec in cli._TASKS.items()}


@pytest.mark.parametrize("path", sorted((REPO / "configs").rglob("*.yaml")),
                         ids=lambda p: p.stem)
def test_yaml_classes_read_and_digest_like_pure_python(path):
    """The parser and emitter in use (libyaml's when PyYAML has it) give the
    documents and the config digest of PyYAML's pure-Python classes."""
    text = path.read_text()
    doc = yaml.load(text, Loader=modelio.YAML_LOADER)
    assert repr(doc) == repr(yaml.safe_load(text))
    pure = yaml.safe_dump(doc, sort_keys=True, default_flow_style=True)
    assert cli.config_digest(doc) == hashlib.sha256(pure.encode()).hexdigest()
