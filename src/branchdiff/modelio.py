"""Strict parsing of declarative model definition files, and the spec-driven
parser that experiment files share.

A model file is a single YAML (or JSON) document naming the dimensions, the
global bounds, the control set and one coefficient spec per coefficient per
control.  Field names are fixed in docs/model_schema.md; unknown keys are
errors, as are missing required ones.  Error messages carry the key path of
the offending node.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .model import CoefficientSpec, ControlSet, ModelParams, VectorSpec

# libyaml's parser and emitter when PyYAML was built with them, about five
# times faster than the pure-Python classes and giving the same objects and text
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, reading a number with an exponent and no dot, or an
    unsigned exponent, as a float: YAML 1.1 reads JSON's 4e-06 as a string."""


YAML_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def _fail(path: str, message: str):
    raise ConfigurationError(f"{path}: {message}")


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


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


# A spec maps each key of a mapping to (parser, default).  A parser takes a
# context (the experiment parsed so far, for the CLI), the value and its key
# path, and returns a plain value or fails naming the path.  A default is a
# value, REQUIRED, or a function of the context and the values parsed before
# it.

REQUIRED = object()


def _key(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _fields(ctx, node, spec: dict, path: str) -> dict:
    """The parsed values of mapping ``node``, one per key of ``spec``."""
    _require_mapping(node, path)
    for key in node:
        if key not in spec:
            _fail(_key(path, key), f"unknown key; known: {sorted(spec)}")
    values = {}
    for key, (parse, default) in spec.items():
        where = _key(path, key)
        if key in node:
            values[key] = parse(ctx, node[key], where)
        elif default is REQUIRED:
            _fail(where, "missing required key")
        else:
            values[key] = default(ctx, values) if callable(default) else default
    return values


def _of_kind(ctx, node, specs: dict, path: str, key: str = "kind"):
    """(kind, values) of a mapping whose ``key`` entry picks its spec."""
    node = dict(_require_mapping(node, path))
    kind = node.pop(key, None)
    if not isinstance(kind, str) or kind not in specs:
        _fail(_key(path, key), f"expected one of {list(specs)}, got {kind!r}")
    return kind, _fields(ctx, node, specs[kind], path)


def _items(value, path: str) -> list:
    """(key path, entry) of each entry of a non-empty list."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    return [(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ConfigurationError reported at ``path``."""
    try:
        return make(*args, **kwargs)
    except ConfigurationError as err:
        _fail(path, str(err))


def _plain(check):
    """The parser of a check of (value, path) that needs no context."""
    return lambda ctx, value, path: check(value, path)


def _section(spec: dict):
    return lambda ctx, value, path: _fields(ctx, value, spec, path)


def _list_of(parse):
    """The parser of a non-empty list whose entries ``parse`` parses."""
    return lambda ctx, value, path: [parse(ctx, v, where) for where, v in _items(value, path)]


def _whole(low: int):
    """The parser of the integers from ``low`` up."""
    def parse(ctx, value, path: str) -> int:
        n = _int(value, path)
        if n < low:
            _fail(path, f"must be at least {low}, got {n}")
        return n
    return parse


def _real_in(lo: float, hi: float = math.inf):
    """The parser of the numbers in [lo, hi]."""
    def parse(ctx, value, path: str) -> float:
        x = _number(value, path)
        if not lo <= x <= hi:
            _fail(path, f"must be at least {lo!r}, got {x!r}" if hi == math.inf
                  else f"must lie in [{lo!r}, {hi!r}], got {x!r}")
        return x
    return parse


def _one_of(*options):
    def parse(ctx, value, path: str) -> str:
        if not isinstance(value, str) or value not in options:
            _fail(path, f"expected one of {list(options)}, got {value!r}")
        return value
    return parse


def _flag(ctx, value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r}")
    return value


_real = _plain(_number)
_reals = _plain(_float_list)
_integer = _plain(_int)
_raw = _plain(lambda value, path: value)

_FAMILIES = {
    "constant": {"value": (_real, REQUIRED)},
    "affine": {"intercept": (_real, REQUIRED), "slope": (_reals, REQUIRED)},
    "gaussian-bump": {"amplitude": (_real, REQUIRED), "center": (_reals, REQUIRED),
                      "width": (_real, REQUIRED), "offset": (_real, None)},
    "logistic": {"lo": (_real, REQUIRED), "hi": (_real, REQUIRED),
                 "slope": (_reals, REQUIRED), "center": (_reals, REQUIRED)},
}


def parse_spec(ctx, node, path: str) -> CoefficientSpec:
    family, given = _of_kind(ctx, node, _FAMILIES, path, key="family")
    return _build(path, CoefficientSpec, family=family,
                  **{k: v for k, v in given.items() if v is not None})


def _spec_list(ctx, node, path: str) -> tuple[CoefficientSpec, ...]:
    return tuple(_list_of(parse_spec)(ctx, node, path))


def _is_spec_list(node) -> bool:
    return isinstance(node, list) and all(isinstance(e, dict) for e in node)


def _per_control(parse_one, shared):
    """The parser of one entry shared by every control (when ``shared(node)``)
    or a list of one entry per control; its context is the control count."""
    def parse(n: int, node, path: str) -> tuple:
        if shared(node):
            return (parse_one(n, node, path),) * n
        entries = _list_of(parse_one)(n, node, path)
        if len(entries) != n:
            _fail(path, f"expected {n} per-control entries, got {len(entries)}")
        return tuple(entries)
    return parse


def _vector(n, node, path: str) -> VectorSpec:
    return VectorSpec(_spec_list(n, node, path))


_scalar_per_control = _per_control(parse_spec, lambda node: isinstance(node, dict))
_vector_per_control = _per_control(_vector, _is_spec_list)
_COEFFICIENTS = {
    "drift": (_vector_per_control, REQUIRED),
    "diffusion": (_vector_per_control, REQUIRED),
    "death_rate": (_scalar_per_control, REQUIRED),
    "offspring": (_section({"residual_last": (_flag, True),
                            "probs": (_per_control(_spec_list, _is_spec_list), REQUIRED)}),
                  REQUIRED),
    "running_cost": (_scalar_per_control, REQUIRED),
    "terminal": (parse_spec, REQUIRED),
}
_MODEL = {
    "dim": (_integer, REQUIRED), "noise_dim": (_integer, REQUIRED),
    "rate_bound": (_real, REQUIRED), "max_children": (_integer, REQUIRED),
    "mean_offspring_bound": (_real, REQUIRED),
    "controls": (_section({"count": (_integer, REQUIRED),
                           "payloads": (_list_of(_reals), None)}), REQUIRED),
    "coefficients": (_raw, REQUIRED),
}


def parse_model(doc, source: str = "<model>") -> ModelParams:
    m = _fields(None, _require_mapping(doc, source), _MODEL, source)
    count, payloads = m["controls"]["count"], m["controls"]["payloads"]
    if payloads is None:
        controls = _build(f"{source}.controls.count", ControlSet.of_size, count)
    elif len(payloads) != count:
        _fail(f"{source}.controls.payloads", f"expected {count} payload vectors")
    else:
        controls = ControlSet(tuple(payloads))
    # the context of the coefficients' parsers is the control count
    c = _fields(count, m["coefficients"], _COEFFICIENTS, f"{source}.coefficients")
    return _build(source, ModelParams,
                  dim=m["dim"], noise_dim=m["noise_dim"], controls=controls,
                  drift=c["drift"], diffusion=c["diffusion"], death_rate=c["death_rate"],
                  offspring=c["offspring"]["probs"], running_cost=c["running_cost"],
                  terminal=c["terminal"], rate_bound=m["rate_bound"],
                  mean_offspring_bound=m["mean_offspring_bound"],
                  max_children=m["max_children"],
                  offspring_residual_last=c["offspring"]["residual_last"])


def read_document(path, what: str):
    """The parsed YAML (or JSON) document of the file at ``path``; ``what``
    names the file in the error when it cannot be read.  The parser decodes
    the bytes, so a file that is not UTF-8 or UTF-16 text fails to parse."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise FileNotFoundError(f"cannot read {what} {path}: {err}") from err
    try:
        return yaml.load(data, Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"{path}: YAML parse error{where}: {err}") from err


def load_model(path) -> ModelParams:
    return parse_model(read_document(path, "model file"), source=str(path))
