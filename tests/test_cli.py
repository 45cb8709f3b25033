import json
import shutil
from pathlib import Path

import pytest

from branchdiff import cli

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
        assert (out / "task_01_path_0.csv").exists()
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

    def test_unknown_key_exits_parse(self, tmp_path):
        cfg = write_experiment(tmp_path, body=EXPERIMENT + "\nbogus: 1\n")
        assert cli.run(cfg) == cli.EXIT_PARSE

    def test_yaml_syntax_error_exits_parse(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("tasks: [unclosed\n")
        assert cli.run(cfg) == cli.EXIT_PARSE

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
        model_text = """
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
        (tmp_path / "boom.yaml").write_text(model_text)
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
  population_cap: 64
tasks:
  - kind: estimate
""")
        assert cli.run(cfg) == cli.EXIT_EXPLOSION

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
