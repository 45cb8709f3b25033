import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from branchdiff import modelio, model as M
from branchdiff.errors import ConfigurationError

CONFIGS = Path(__file__).resolve().parents[1] / "configs" / "models"

MINIMAL = """
dim: 1
noise_dim: 1
rate_bound: 1.0
max_children: 2
mean_offspring_bound: 1.0
controls:
  count: 1
coefficients:
  drift:
    - {family: constant, value: 0.0}
  diffusion:
    - {family: constant, value: 0.0}
  death_rate: {family: constant, value: 1.0}
  offspring:
    probs:
      - {family: constant, value: 0.5}
      - {family: constant, value: 0.0}
  running_cost: {family: constant, value: 0.0}
  terminal: {family: constant, value: 0.0}
"""


def parse(text):
    return modelio.parse_model(yaml.safe_load(text), source="<test>")


def test_minimal_model_parses():
    m = parse(MINIMAL)
    assert m.dim == 1 and len(m.controls) == 1
    assert m.death_rate_at(np.zeros(1), 0) == 1.0
    probs = m.offspring_probs_at(np.zeros(1), 0)
    np.testing.assert_allclose(probs, [0.5, 0.0, 0.5])


def test_bundled_models_parse_and_validate():
    for path in sorted(CONFIGS.glob("*.yaml")):
        m = modelio.load_model(path)
        report = M.validate_params(
            m, [(np.full(m.dim, x), None) for x in (-2.0, 0.0, 2.0)])
        assert report.ok, f"{path.name}: {report.summary()}"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse(MINIMAL + "\nextra_field: 1\n")


def test_unknown_spec_key_rejected():
    bad = MINIMAL.replace("{family: constant, value: 1.0}",
                          "{family: constant, value: 1.0, slop: 2}")
    with pytest.raises(ConfigurationError, match="slop"):
        parse(bad)


def test_missing_required_key_rejected():
    bad = MINIMAL.replace("rate_bound: 1.0\n", "")
    with pytest.raises(ConfigurationError, match="rate_bound"):
        parse(bad)


def test_error_messages_carry_path():
    bad = MINIMAL.replace("death_rate: {family: constant, value: 1.0}",
                          "death_rate: {family: nonsense, value: 1.0}")
    with pytest.raises(ConfigurationError, match="death_rate"):
        parse(bad)


def test_per_control_lists_must_match_count():
    doc = yaml.safe_load(MINIMAL)
    doc["controls"]["count"] = 2
    doc["coefficients"]["death_rate"] = [
        {"family": "constant", "value": 0.5}]
    with pytest.raises(ConfigurationError, match="per-control"):
        modelio.parse_model(doc, source="<test>")


def test_shared_specs_broadcast_across_controls():
    doc = yaml.safe_load(MINIMAL)
    doc["controls"]["count"] = 3
    m = modelio.parse_model(doc, source="<test>")
    assert len(m.controls) == 3
    assert m.motion_control_independent()


def test_explicit_offspring_probabilities():
    doc = yaml.safe_load(MINIMAL)
    doc["coefficients"]["offspring"] = {
        "residual_last": False,
        "probs": [
            {"family": "constant", "value": 0.5},
            {"family": "constant", "value": 0.1},
            {"family": "constant", "value": 0.4},
        ],
    }
    m = modelio.parse_model(doc, source="<test>")
    np.testing.assert_allclose(m.offspring_probs_at(np.zeros(1), 0),
                               [0.5, 0.1, 0.4])


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        modelio.load_model(tmp_path / "absent.yaml")


def test_yaml_error_position_annotated(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("dim: 1\n  noise_dim: [unclosed\n")
    with pytest.raises(ConfigurationError, match="line"):
        modelio.load_model(bad)


@pytest.mark.parametrize("text, value", [
    ("4e-06", 4e-06), ("-1e-05", -1e-05), ("1e+20", 1e20), ("1E5", 1e5),
    ("1.5e5", 1.5e5), ("'4e-06'", "4e-06"),
])
def test_exponent_numbers_read_as_floats(text, value):
    """A number with an exponent and no dot, or an unsigned exponent, as JSON
    writes it, is a float; a quoted one stays a string."""
    doc = yaml.load(f"x: {text}\n", Loader=modelio.YAML_LOADER)
    assert type(doc["x"]) is type(value) and doc["x"] == value


def test_json_model_with_exponent_number_loads(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["coefficients"]["drift"] = [{"family": "constant", "value": 1e-05}]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert "1e-05" in path.read_text()
    assert modelio.load_model(path).drift_at(np.zeros(1), 0)[0] == 1e-05
