"""Strict parsing of declarative model definition files.

A model file is a single YAML (or JSON) document naming the dimensions, the
global bounds, the control set and one coefficient spec per coefficient per
control.  Field names are fixed in docs/model_schema.md; unknown keys are
errors, as are missing required ones.  Error messages carry the key path of
the offending node.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .model import CoefficientSpec, ControlSet, ModelParams, VectorSpec

_SPEC_FIELDS = {
    "constant": {"required": {"value"}, "optional": set()},
    "affine": {"required": {"intercept", "slope"}, "optional": set()},
    "gaussian-bump": {"required": {"amplitude", "center", "width"},
                      "optional": {"offset"}},
    "logistic": {"required": {"lo", "hi", "slope", "center"}, "optional": set()},
}


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _take(node: dict, key: str, path: str, *, required=True, default=None):
    if key in node:
        return node.pop(key)
    if required:
        _fail(path, f"missing required key {key!r}")
    return default


def _check_empty(node: dict, path: str):
    if node:
        _fail(path, f"unknown key(s): {sorted(node)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        _fail(path, "number must be finite")
    return float(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _float_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        _fail(path, f"expected a list of numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def parse_spec(node, path: str) -> CoefficientSpec:
    node = dict(_require_mapping(node, path))
    family = _take(node, "family", path)
    if family not in _SPEC_FIELDS:
        _fail(path, f"unknown family {family!r}; known: {sorted(_SPEC_FIELDS)}")
    fields = _SPEC_FIELDS[family]
    kwargs = {}
    for key in fields["required"]:
        kwargs[key] = node.pop(key, None)
        if kwargs[key] is None:
            _fail(path, f"family {family!r} requires key {key!r}")
    for key in fields["optional"]:
        if key in node:
            kwargs[key] = node.pop(key)
    _check_empty(node, path)
    for key in ("slope", "center"):
        if key in kwargs:
            kwargs[key] = _float_list(kwargs[key], f"{path}.{key}")
    for key in ("value", "intercept", "offset", "amplitude", "width", "lo", "hi"):
        if key in kwargs:
            kwargs[key] = _number(kwargs[key], f"{path}.{key}")
    return CoefficientSpec(family=family, **kwargs)


def _parse_spec_list(node, path: str) -> tuple[CoefficientSpec, ...]:
    if not isinstance(node, list) or not all(isinstance(e, dict) for e in node):
        _fail(path, "expected a list of coefficient specs")
    return tuple(parse_spec(e, f"{path}[{i}]") for i, e in enumerate(node))


def _per_control_scalar(node, path: str, n: int) -> tuple[CoefficientSpec, ...]:
    """A single spec (shared) or a list of one spec per control."""
    if isinstance(node, dict):
        return (parse_spec(node, path),) * n
    if isinstance(node, list):
        specs = _parse_spec_list(node, path)
        if len(specs) != n:
            _fail(path, f"expected {n} per-control specs, got {len(specs)}")
        return specs
    _fail(path, "expected a spec or a list of per-control specs")


def _per_control_vector(node, path: str, n: int) -> tuple[VectorSpec, ...]:
    """A component list (shared) or a per-control list of component lists."""
    if not isinstance(node, list) or not node:
        _fail(path, "expected a non-empty list")
    if all(isinstance(e, dict) for e in node):
        shared = VectorSpec(_parse_spec_list(node, path))
        return (shared,) * n
    if all(isinstance(e, list) for e in node):
        if len(node) != n:
            _fail(path, f"expected {n} per-control component lists, got {len(node)}")
        return tuple(VectorSpec(_parse_spec_list(e, f"{path}[{i}]"))
                     for i, e in enumerate(node))
    _fail(path, "mixed list: use either one component list or one list per control")


def parse_model(doc, source: str = "<model>") -> ModelParams:
    doc = dict(_require_mapping(doc, source))
    dim = _int(_take(doc, "dim", source), f"{source}.dim")
    noise_dim = _int(_take(doc, "noise_dim", source), f"{source}.noise_dim")
    rate_bound = _number(_take(doc, "rate_bound", source), f"{source}.rate_bound")
    max_children = _int(_take(doc, "max_children", source), f"{source}.max_children")
    mean_bound = _number(_take(doc, "mean_offspring_bound", source),
                         f"{source}.mean_offspring_bound")

    controls_node = dict(_require_mapping(_take(doc, "controls", source),
                                          f"{source}.controls"))
    count = _int(_take(controls_node, "count", f"{source}.controls"),
                 f"{source}.controls.count")
    payloads_node = _take(controls_node, "payloads", f"{source}.controls",
                          required=False)
    _check_empty(controls_node, f"{source}.controls")
    if payloads_node is None:
        controls = ControlSet.of_size(count)
    else:
        if not isinstance(payloads_node, list) or len(payloads_node) != count:
            _fail(f"{source}.controls.payloads", f"expected {count} payload vectors")
        controls = ControlSet(tuple(
            _float_list(p, f"{source}.controls.payloads[{i}]")
            for i, p in enumerate(payloads_node)))

    coeffs = dict(_require_mapping(_take(doc, "coefficients", source),
                                   f"{source}.coefficients"))
    cpath = f"{source}.coefficients"
    drift = _per_control_vector(_take(coeffs, "drift", cpath), f"{cpath}.drift", count)
    diffusion = _per_control_vector(_take(coeffs, "diffusion", cpath),
                                    f"{cpath}.diffusion", count)
    death = _per_control_scalar(_take(coeffs, "death_rate", cpath),
                                f"{cpath}.death_rate", count)
    cost = _per_control_scalar(_take(coeffs, "running_cost", cpath),
                               f"{cpath}.running_cost", count)
    terminal = parse_spec(_take(coeffs, "terminal", cpath), f"{cpath}.terminal")

    off_node = dict(_require_mapping(_take(coeffs, "offspring", cpath),
                                     f"{cpath}.offspring"))
    off_path = f"{cpath}.offspring"
    residual_last = _take(off_node, "residual_last", off_path, required=False,
                          default=True)
    if not isinstance(residual_last, bool):
        _fail(f"{off_path}.residual_last", "expected a boolean")
    probs_node = _take(off_node, "probs", off_path)
    _check_empty(off_node, off_path)
    if not isinstance(probs_node, list) or not probs_node:
        _fail(f"{off_path}.probs", "expected a non-empty list")
    if all(isinstance(e, dict) for e in probs_node):
        shared = _parse_spec_list(probs_node, f"{off_path}.probs")
        offspring = (shared,) * count
    elif all(isinstance(e, list) for e in probs_node):
        if len(probs_node) != count:
            _fail(f"{off_path}.probs", f"expected {count} per-control lists")
        offspring = tuple(_parse_spec_list(e, f"{off_path}.probs[{i}]")
                          for i, e in enumerate(probs_node))
    else:
        _fail(f"{off_path}.probs", "mixed list: use one spec list or one per control")

    _check_empty(coeffs, cpath)
    _check_empty(doc, source)
    return ModelParams(
        dim=dim, noise_dim=noise_dim, controls=controls, drift=drift,
        diffusion=diffusion, death_rate=death, offspring=offspring,
        running_cost=cost, terminal=terminal, rate_bound=rate_bound,
        mean_offspring_bound=mean_bound, max_children=max_children,
        offspring_residual_last=residual_last)


def load_model(path) -> ModelParams:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise FileNotFoundError(f"cannot read model file {path}: {err}") from err
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"{path}: YAML parse error{where}: {err}") from err
    return parse_model(doc, source=str(path))
