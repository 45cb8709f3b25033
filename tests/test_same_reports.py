"""tools/same_reports.py: a tree agrees with itself, and a changed byte
anywhere but the manifest's ``generated_at`` is a difference."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("same_reports",
                                                  REPO / "tools" / "same_reports.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tree_agrees_with_itself(tmp_path, capsys):
    tool = load_tool()
    code = tool.main([str(REPO), str(REPO), "--workload", "population_growth",
                      "--seeds", "1", "--reps", "0", "--scratch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "population_growth seed 1 rep 0 main --threads 1: exit 0, same outputs" in out
    assert not list(tmp_path.iterdir())      # an agreeing config's files are removed


def test_threads_override_every_invocation(tmp_path, monkeypatch, capsys):
    """``--threads`` sets every CLI run's worker count; without it each
    invocation runs at its own (2 on feedback_dpp, 1 on population_growth)."""
    tool = load_tool()
    seen = []
    monkeypatch.setattr(tool, "run_cli",
                        lambda tree, config, out, threads: seen.append(threads) or 0)
    argv = [str(REPO), str(REPO), "--workload", "feedback_dpp", "--workload",
            "population_growth", "--scratch", str(tmp_path)]
    assert tool.main(argv) == 0
    assert sorted(seen) == [1, 1, 2, 2]
    seen.clear()
    assert tool.main(argv + ["--threads", "3"]) == 0
    assert seen == [3, 3, 3, 3]
    assert "feedback_dpp seed 1 rep 0 main --threads 3: exit 0, same outputs" in (
        capsys.readouterr().out)
    for bad in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as info:
            tool.main(argv + ["--threads", bad])
        assert info.value.code == 2


def test_experiments_run_in_place(tmp_path, monkeypatch, capsys):
    """``--experiment`` runs that bundled config, read where it lies, in both
    trees at 1 worker or at ``--threads``; alone it runs no workload."""
    tool = load_tool()
    seen = []
    monkeypatch.setattr(tool, "run_cli",
                        lambda tree, config, out, threads: seen.append((config, threads)) or 0)
    argv = [str(REPO), str(REPO), "--experiment", "coupling_ladder", "--experiment",
            "dpp_two_control", "--scratch", str(tmp_path)]
    assert tool.main(argv) == 0
    bundled = REPO / "configs" / "experiments"
    assert seen == [(bundled / "coupling_ladder.yaml", 1)] * 2 + [
        (bundled / "dpp_two_control.yaml", 1)] * 2
    out = capsys.readouterr().out
    assert "experiment coupling_ladder --threads 1: exit 0, same outputs" in out
    assert "2 config(s): identical exit codes and outputs" in out
    seen.clear()
    assert tool.main(argv + ["--threads", "2", "--workload", "population_growth"]) == 0
    assert [threads for _, threads in seen] == [2] * 6
    assert "3 config(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        tool.main(argv + ["--experiment", "no_such_experiment"])
    assert info.value.code == 2


def write_run(out_dir, generated_at, report):
    out_dir.mkdir()
    (out_dir / "task_00_estimate.json").write_text(report)
    (out_dir / "manifest.json").write_text(json.dumps(
        {"all_passed": True, "generated_at": generated_at}))


def test_only_generated_at_is_left_out(tmp_path):
    tool = load_tool()
    write_run(tmp_path / "a", "2020-01-01T00:00:00", '{"mean": 0.5}\n')
    write_run(tmp_path / "b", "2021-06-30T12:00:00", '{"mean": 0.5}\n')
    write_run(tmp_path / "c", "2020-01-01T00:00:00", '{"mean": 0.50000000000000011}\n')
    a, b, c = (tool.outputs(tmp_path / side) for side in "abc")
    assert tool.differences(a, b) == []
    assert tool.differences(a, c) == ["task_00_estimate.json"]
    (tmp_path / "b" / "summary.csv").write_text("")
    assert tool.differences(a, tool.outputs(tmp_path / "b")) == ["summary.csv"]
