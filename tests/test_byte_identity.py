"""Bit-for-bit pins of the engine's output.

Each digest hashes, path by path, the event log (time, label, kind, number of
children, mark, position), the final positions, the cost integral, the step
and population counters and, when they are recorded, the tracks.  A change
that is meant to leave the engine's results alone must leave these digests
alone; one that changes the streams or the order of float operations shows
up here first.  The bundled experiments' reports, at capped replication
counts, and one report on a position-dependent model are pinned the same way.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from branchdiff import cli, hjb
from branchdiff import model as M
from branchdiff.modelio import load_model
from branchdiff.simulator import (ConstantPolicy, OpenLoopPolicy, coupled_setup,
                                  prepare_simulation, simulate, simulate_coupled)
import model_cases
from model_cases import state_dependent, state_dependent_two_control, two_control_motion

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MODELS = CONFIGS / "models"
SEEDS = range(20)
STEP, HORIZON = 0.05, 1.0

ROOT = {(): np.zeros(1)}
FOUNDERS_16 = {(i,): np.array([0.2 * i - 1.5]) for i in range(16)}


def harvest_feedback():
    """The feedback policy of a small solve of the two-control model: the
    control of every step is queried at its position."""
    params = load_model(MODELS / "two_control_harvest.yaml")
    coarse = hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=41, n_t=1, horizon=HORIZON)
    grid = hjb.GridConfig(x_lo=-4.0, x_hi=4.0, n_x=41, horizon=HORIZON,
                          n_t=hjb.required_time_steps_for(params, coarse))
    return params, hjb.FeedbackPolicy(hjb.solve(params, grid))


def case(name):
    if name == "state_dependent":
        return state_dependent(), ConstantPolicy(0)
    if name == "harvest_feedback":
        return harvest_feedback()
    if name.startswith("state_dependent_two_control_c"):
        return state_dependent_two_control(), ConstantPolicy(int(name[-1]))
    model_name, policy = {
        "critical_binary": ("critical_binary", ConstantPolicy(0)),
        "subcritical_drift": ("subcritical_drift", ConstantPolicy(0)),
        "harvest_c0": ("two_control_harvest", ConstantPolicy(0)),
        "harvest_c1": ("two_control_harvest", ConstantPolicy(1)),
        "harvest_open_loop": ("two_control_harvest",
                              OpenLoopPolicy(([0.0, 0.5], [1, 0]))),
    }[name]
    return load_model(MODELS / f"{model_name}.yaml"), policy


def update_path(h, path):
    for ev in path.events:
        h.update(f"{ev.time.hex()} {ev.label} {ev.kind} {ev.n_children} "
                 f"{ev.mark.hex()} {ev.pop_size_after}\n".encode())
        h.update(ev.position.tobytes())
    for lab in sorted(path.final):
        h.update(f"final {lab}\n".encode())
        h.update(path.final[lab].tobytes())
    h.update(f"{path.cost_integral.hex()} {path.n_steps} "
             f"{path.sup_population}\n".encode())
    if path.tracks is not None:
        for lab in sorted(path.tracks):
            tr = path.tracks[lab]
            h.update(f"track {lab}\n".encode())
            for arr in (tr.times, tr.positions, tr.controls.astype(np.int64),
                        tr.cost_cum):
                h.update(arr.tobytes())


def digest(name, start, record):
    params, policy = case(name)
    h = hashlib.sha256()
    setup = prepare_simulation(0.0, start, policy, params, STEP, HORIZON)
    for seed in SEEDS:
        path = simulate(setup, seed, record_paths=record)
        assert (path.tracks is not None) == record
        update_path(h, path)
    return h.hexdigest()[:16]


# recorded from the engine that rebuilt every path's set-up per call; the
# harvest_feedback digests from the engine that advanced every particle's
# positions on every step; the state_dependent_two_control digests, a constant
# control on a position-dependent cost, from the engine that evaluated every
# control's running cost at every step point
PINNED = {
    # (model case, start, record_paths): digest over seeds 0..19
    ("critical_binary", "root", False): "72f2932895a6915d",
    ("critical_binary", "root", True): "3f0983a40f357139",
    ("critical_binary", "founders16", False): "ee38a4ff1fcbaf5d",
    ("critical_binary", "founders16", True): "15eff6c49917e962",
    ("subcritical_drift", "root", False): "e2efd5d5a2715b64",
    ("subcritical_drift", "root", True): "d84dff6d8fd37d2c",
    ("subcritical_drift", "founders16", False): "16fbd10d1ad23cd6",
    ("subcritical_drift", "founders16", True): "84f3589b0bdd638d",
    ("harvest_c0", "root", False): "7eb201a75d346719",
    ("harvest_c0", "root", True): "4114551f530d02c6",
    ("harvest_c0", "founders16", False): "1feadee1f7f48d51",
    ("harvest_c0", "founders16", True): "48af9b7c59dc272b",
    ("harvest_c1", "root", False): "c2f91af2cee1d414",
    ("harvest_c1", "root", True): "4e495e069f5e03fb",
    ("harvest_c1", "founders16", False): "78008cd17497b304",
    ("harvest_c1", "founders16", True): "ee3e5cb412df306c",
    ("harvest_open_loop", "root", False): "9bc86f3d3cc9b094",
    ("harvest_open_loop", "root", True): "1a0d1da2b2cdf359",
    ("harvest_open_loop", "founders16", False): "9c5ca4352c089d90",
    ("harvest_open_loop", "founders16", True): "2816baf189bab351",
    ("state_dependent", "root", False): "8d502a23f5c42e8a",
    ("state_dependent", "root", True): "112e32d827a2dceb",
    ("state_dependent", "founders16", False): "6dce2cc606d22720",
    ("state_dependent", "founders16", True): "69930d7c6b961eed",
    ("harvest_feedback", "root", False): "7eb201a75d346719",
    ("harvest_feedback", "root", True): "4114551f530d02c6",
    ("harvest_feedback", "founders16", False): "bf756e4aa560c342",
    ("harvest_feedback", "founders16", True): "e6f5fe507075aedb",
    ("state_dependent_two_control_c0", "founders16", False): "d99e9cd602d9996d",
    ("state_dependent_two_control_c0", "founders16", True): "c6310dad0576040b",
    ("state_dependent_two_control_c1", "founders16", False): "df7ae271a4da02a5",
    ("state_dependent_two_control_c1", "founders16", True): "072a5188920c123c",
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
def test_paths_pinned(key):
    name, start, record = key
    assert digest(name, {"root": ROOT, "founders16": FOUNDERS_16}[start],
                  record) == PINNED[key]


COUPLED_PINNED = "e73e01f5b135daf3"


def test_coupled_pair_pinned():
    params = load_model(MODELS / "subcritical_drift.yaml")
    tilde = M.perturbed_copy(params, 0.1)
    setups = []
    for start in (ROOT, FOUNDERS_16):
        setup = prepare_simulation(0.0, start, ConstantPolicy(0), params, STEP, HORIZON)
        setups.append((setup, coupled_setup(setup, tilde)))
    h = hashlib.sha256()
    for seed in SEEDS:
        for setup, setup_tilde in setups:
            path, path_tilde, ok = simulate_coupled(setup, setup_tilde, 0.05, seed)
            update_path(h, path)
            update_path(h, path_tilde)
            h.update(b"1" if ok else b"0")
    assert h.hexdigest()[:16] == COUPLED_PINNED


SETUP_MODELS = {
    "single_control": model_cases.single_control,
    "single_control_moving": lambda: model_cases.single_control(
        b=0.2, sigma=0.3, gamma=0.8, rate_bound=1.0, p0=0.4, p1=0.1, c=0.2,
        mean_bound=1.1),
    "state_dependent_two_control": state_dependent_two_control,
    "shared_drift_two_control": model_cases.shared_drift_two_control,
    "opposite_drifts": model_cases.opposite_drifts,
    "partly_shared": model_cases.partly_shared,
    "two_dim_two_control": model_cases.two_dim_two_control,
    "state_dependent": state_dependent,
    "two_control_motion": two_control_motion,
    **{name: (lambda name=name: load_model(MODELS / f"{name}.yaml"))
       for name in ("critical_binary", "subcritical_drift", "two_control_harvest")},
}


def setup_cases():
    """(model, policy) names: each constant control, and an open-loop
    schedule where there are two controls."""
    for name, make in SETUP_MODELS.items():
        n_controls = len(make().controls)
        yield from ((name, f"c{a}") for a in range(n_controls))
        if n_controls == 2:
            yield name, "open_loop"


def setup_fields_digest(setup):
    """Digest of what ``prepare_simulation`` derives from the model and the
    policy: the static event geometry, the running-cost rates, whether costs
    vanish, and the motion plan."""
    plan = setup.plan

    def array(arr):
        return None if arr is None else arr.tobytes()

    fields = (
        sorted((a, float(gamma).hex(), bounds.tobytes())
               for a, (gamma, bounds) in setup.static_geom.items()),
        array(setup.cost_rates), bool(setup.cost_free),
        *(None if c is None else int(c) for c in (plan.const_control, plan.motion_control)),
        bool(plan.draw_noise), array(plan.b_const), array(plan.sig_const))
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


# recorded from the set-up that decided from the coefficient specs which
# coefficients are constant
SETUP_PINNED = {
    ("single_control", "c0"): "a702315135c07446",
    ("single_control_moving", "c0"): "4f71cabc1829f4fd",
    ("state_dependent_two_control", "c0"): "c439e1d0bbd30ab9",
    ("state_dependent_two_control", "c1"): "f8ea92dfc5953f67",
    ("state_dependent_two_control", "open_loop"): "0a8b0f8a4b6c31ea",
    ("shared_drift_two_control", "c0"): "0fa8ed5626daa043",
    ("shared_drift_two_control", "c1"): "383bd59508dda871",
    ("shared_drift_two_control", "open_loop"): "230839832263d8e0",
    ("opposite_drifts", "c0"): "aa3be305e3ea9996",
    ("opposite_drifts", "c1"): "805062285dcd90fd",
    ("opposite_drifts", "open_loop"): "40b3db9b7e5cb05f",
    ("partly_shared", "c0"): "d009331d757f660f",
    ("partly_shared", "c1"): "bab199bc1c24bd92",
    ("partly_shared", "open_loop"): "184269b7d33cfbc1",
    ("two_dim_two_control", "c0"): "0ac74c6ff207ec49",
    ("two_dim_two_control", "c1"): "6c53f32ee4598bbc",
    ("two_dim_two_control", "open_loop"): "6a657cd9fd260978",
    ("state_dependent", "c0"): "780e89498febea22",
    ("two_control_motion", "c0"): "5408683fb3daec93",
    ("two_control_motion", "c1"): "aa93de27ada947a8",
    ("two_control_motion", "open_loop"): "1899480dc0c0935c",
    ("critical_binary", "c0"): "86a4baf77d45e34d",
    ("subcritical_drift", "c0"): "14b41336d7e6d8f3",
    ("two_control_harvest", "c0"): "13788b61bbfd91ed",
    ("two_control_harvest", "c1"): "15d88fc4b371a3b4",
    ("two_control_harvest", "open_loop"): "6a9894a1e45092c3",
}


@pytest.mark.parametrize("key", list(setup_cases()), ids="-".join)
def test_setup_fields_pinned(key):
    name, policy = key
    params = SETUP_MODELS[name]()
    policy = (OpenLoopPolicy(([0.0, 0.5], [1, 0])) if policy == "open_loop"
              else ConstantPolicy(int(policy[1:])))
    setup = prepare_simulation(0.0, {(): np.zeros(params.dim)}, policy, params,
                               STEP, HORIZON)
    assert setup_fields_digest(setup) == SETUP_PINNED[key]


# ---------------------------------------------------------------------------
# the bundled experiments' reports

REPORT_REPS = 300     # every replication count of a bundled experiment, capped


def capped(doc):
    """``doc`` with every replication count at most REPORT_REPS."""
    if isinstance(doc, dict):
        return {k: min(v, REPORT_REPS) if k in ("replications", "check_replications")
                else capped(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [capped(v) for v in doc]
    return doc


def report_digest(out_dir):
    """Digest of the task reports, summary.csv and the manifest, which enters
    without its ``generated_at`` time and the interpreter and numpy versions."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    del manifest["generated_at"], manifest["versions"]
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    reports = sorted(out_dir.glob("task_*.json"))
    assert len(reports) == len(manifest["tasks"])
    for path in [out_dir / "summary.csv", *reports]:
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()[:16]


# state_dependent_two_control as a model file, and an experiment on it that
# solves, runs a dpp check under the feedback policy and a dynkin task: the
# bundled models are all position-free, so only this report is computed from
# coefficients evaluated point by point
STATE_DEPENDENT_MODEL = """\
dim: 1
noise_dim: 1
rate_bound: 0.8
max_children: 2
mean_offspring_bound: 1.0
controls: {count: 2}
coefficients:
  drift:
    - [{family: affine, intercept: 0.1, slope: [-0.4]}]
    - [{family: constant, value: 0.0}]
  diffusion:
    - {family: constant, value: 0.45}
  death_rate:
    - {family: constant, value: 0.8}
    - {family: constant, value: 0.3}
  offspring:
    probs:
      - {family: constant, value: 0.5}
      - {family: constant, value: 0.0}
  running_cost:
    - {family: gaussian-bump, offset: 0.05, amplitude: 0.5, center: [0.5], width: 0.7}
    - {family: constant, value: 0.2}
  terminal: {family: gaussian-bump, offset: 0.15, amplitude: 0.7, center: [0.0],
             width: 0.8}
"""
STATE_DEPENDENT_EXPERIMENT = {
    "model": "../models/state_dependent_two_control.yaml",
    "output_dir": "out",
    "initial": {"time": 0.0, "particles": [{"label": "", "position": [0.2]}]},
    "simulation": {"step": 0.02, "horizon": 1.0, "replications": REPORT_REPS,
                   "seed_base": 613},
    "grid": {"x_lo": -4.0, "x_hi": 4.0, "n_x": 161, "n_t": 400},
    "tasks": [
        {"kind": "solve", "probe_points": [-1.0, 0.0, 1.0]},
        {"kind": "dpp", "stopping": [{"rule": "fixed", "time": 0.5}],
         "policies": [{"kind": "feedback", "role": "optimal"},
                      {"kind": "constant", "control": 1, "role": "admissible"}]},
        {"kind": "dynkin", "times": [0.5], "policy": {"kind": "feedback"},
         "functions": [{"family": "polynomial-times-bump", "base": 0.2, "scale": 0.6,
                        "decay": 0.3, "center": [0.1], "width": 0.9}]},
    ],
}

# (exit code, digest) of each experiment at REPORT_REPS replications
REPORTS_PINNED = {
    "coupling_ladder": (0, "0b89f3008bc92083"),
    "dpp_two_control": (0, "88c7dd8491f36074"),
    "state_dependent_two_control": (0, "b5fd595d4d9c6323"),
    "verify_critical_binary": (0, "a66db1d9e63c8e6f"),
}


@pytest.mark.parametrize("name", sorted(REPORTS_PINNED))
def test_bundled_reports_pinned(name, tmp_path):
    """Each bundled experiment, run from a copy whose replication counts are
    capped, and the experiment on state_dependent_two_control write the same
    task reports, summary.csv and manifest body."""
    shutil.copytree(MODELS, tmp_path / "models")
    (tmp_path / "experiments").mkdir()
    if name == "state_dependent_two_control":
        model = tmp_path / "models" / f"{name}.yaml"
        model.write_text(STATE_DEPENDENT_MODEL)
        assert load_model(model) == state_dependent_two_control()
        doc = STATE_DEPENDENT_EXPERIMENT
    else:
        doc = capped(yaml.safe_load((CONFIGS / "experiments" / f"{name}.yaml").read_text()))
    config = tmp_path / "experiments" / f"{name}.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = cli.run(config, out=tmp_path / "out")
    assert (code, report_digest(tmp_path / "out")) == REPORTS_PINNED[name]
