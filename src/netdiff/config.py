"""Experiment configuration: schema validation and object construction.

A configuration is a single JSON document.  ``validate_config`` checks it
against a closed schema, and one ``build_*`` reader per section turns it into
a live object; unknown keys, params of nested laws included, are rejected.
All randomness downstream flows from the single ``seed`` field.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache

import numpy as np

from . import graphs
from .coefficients import ConstantDiffusion, DriftTable, TanhDiagonalDiffusion, parse_drift
from .engine import _check_grid
from .graphs import Graph, InfiniteGraph
from .initials import FactorModelInitial, NormalInitial, PerVertexInitial, PointMass, UniformInitial

__all__ = [
    "ConfigError",
    "CONFIG_SCHEMA",
    "OPTION_SCHEMAS",
    "COMMANDS",
    "load_config",
    "validate_config",
    "validate_options",
    "config_hash",
    "build_graph",
    "build_drift",
    "build_diffusion",
    "build_initial",
    "build_grid",
    "resolve_vertex",
]

class ConfigError(ValueError):
    """Configuration rejected: schema violation or unresolvable reference."""


_VERTEX = {
    "anyOf": [
        {"type": "integer"},
        {"type": "string"},
        {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
    ]
}
_VERTEX_LIST = {"type": "array", "items": _VERTEX, "minItems": 1}
_EXPR = {"type": "string", "minLength": 1}

_GRAPH = {
    "type": "object",
    "oneOf": [
        {
            "properties": {"kind": {"const": "path"}, "n": {"type": "integer", "minimum": 1}, "root": _VERTEX},
            "required": ["kind", "n"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "cycle"}, "n": {"type": "integer", "minimum": 3}, "root": _VERTEX},
            "required": ["kind", "n"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "grid"},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
                "root": _VERTEX,
            },
            "required": ["kind", "rows", "cols"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "tree"},
                "branching": {"type": "integer", "minimum": 1},
                "depth": {"type": "integer", "minimum": 0},
                "root": _VERTEX,
            },
            "required": ["kind", "branching", "depth"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "z_line"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "edges"},
                "edges": {
                    "type": "array",
                    "items": {"type": "array", "items": _VERTEX, "minItems": 2, "maxItems": 2},
                },
                "vertices": _VERTEX_LIST,
                "root": _VERTEX,
            },
            "required": ["kind", "edges"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "file"}, "path": {"type": "string"}, "root": _VERTEX},
            "required": ["kind", "path"],
            "additionalProperties": False,
        },
    ],
}

OPTION_SCHEMAS = {
    "graph": {
        "type": "object",
        "properties": {
            "set": _VERTEX_LIST,
            "cliques_order": {"enum": [1, 2]},
            "truncation_n": {"type": "integer", "minimum": 4},
        },
        "additionalProperties": False,
    },
    "gaussian": {
        "type": "object",
        "properties": {
            "t": {"type": "number", "exclusiveMinimum": 0},
            "precision_tol": {"type": "number", "exclusiveMinimum": 0},
            "conditionals": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"target": _VERTEX_LIST, "given": _VERTEX_LIST},
                    "required": ["target", "given"],
                    "additionalProperties": False,
                },
            },
        },
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "substeps": {"type": "integer", "minimum": 1},
            "save_paths": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "girsanov-check": {"type": "object", "additionalProperties": False},
    "ci-scan": {
        "type": "object",
        "properties": {
            "mode": {"enum": ["exact", "ensemble"]},
            "scheme": {"enum": ["euler", "exact"]},
            "orders": {"type": "array", "items": {"enum": [1, 2]}, "minItems": 1, "uniqueItems": True},
            "tol": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "feature_times": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "sets": {"type": "array", "items": _VERTEX_LIST, "minItems": 1},
            "expect": {
                "type": "object",
                "patternProperties": {"^[12]$": {"enum": ["pass", "fail", "inconclusive"]}},
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
    "approx": {
        "type": "object",
        "properties": {
            "window": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
            "levels": {"type": "array", "items": {"type": "integer", "minimum": 4}, "minItems": 2},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "steps": {"type": "integer", "minimum": 1},
            "substeps": {"type": "integer", "minimum": 1},
        },
        "required": ["window"],
        "additionalProperties": False,
    },
    "hc-lab": {
        "type": "object",
        "properties": {
            "k": {"type": "integer", "minimum": 2},
            "models": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "reproduce-paper": {"type": "object", "additionalProperties": False},
}
COMMANDS = tuple(OPTION_SCHEMAS)

# the params each diffusion and initial kind reads; nested per_vertex laws
# never reach the schema, so the readers check these keys themselves
_DIFFUSION_PARAMS = {"constant": {"value", "matrix"}, "tanh_diagonal": {"a", "b"}}
_INITIAL_PARAMS = {
    "point": {"value"}, "normal": {"mean", "std"}, "uniform": {"lo", "hi"},
    "per_vertex": {"default", "overrides"}, "factor_model": {"model", "state_values"},
}
# a per_vertex law draws vertex by vertex, so it nests every kind but the joint one
_PRODUCT_PARAMS = {k: v for k, v in _INITIAL_PARAMS.items() if k != "factor_model"}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "graph": _GRAPH,
        "drift": {
            "type": "object",
            "properties": {
                "default": _EXPR,
                "overrides": {"type": "object", "additionalProperties": _EXPR},
            },
            "additionalProperties": False,
        },
        "diffusion": {
            "type": "object",
            "properties": {
                "kind": {"enum": list(_DIFFUSION_PARAMS)},
                "params": {"type": "object"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {
                "kind": {"enum": list(_INITIAL_PARAMS)},
                "params": {"type": "object"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "t_max": {"type": "number", "exclusiveMinimum": 0},
                        "steps": {"type": "integer", "minimum": 1},
                    },
                    "required": ["t_max", "steps"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "times": {"type": "array", "items": {"type": "number"}, "minItems": 2}
                    },
                    "required": ["times"],
                    "additionalProperties": False,
                },
            ],
        },
        "replicas": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "options": {
            "type": "object",
            "properties": dict(OPTION_SCHEMAS),
            "additionalProperties": False,
        },
    },
    "required": ["seed"],
    "additionalProperties": False,
}


@cache
def _validator():
    """Built once, on first use: jsonschema.validate checks the schema against its meta-schema on every call."""
    import jsonschema
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    from jsonschema.exceptions import best_match
    exc = best_match(_validator().iter_errors(cfg))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<top level>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc


def validate_options(command: str, cfg: dict) -> dict:
    """Extract the (already schema-checked) options section for one command."""
    if command not in OPTION_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    return cfg.get("options", {}).get(command, {})


def config_hash(cfg: dict, command: str) -> str:
    """Content address of an effective configuration for one command."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((canon + "\n" + command).encode()).hexdigest()


def _label(raw):
    return tuple(raw) if isinstance(raw, list) else raw


def _params(spec, kinds: dict):
    """Kind and params of a ``{"kind", "params"}`` spec, keeping to the keys its kind reads."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    params = spec.get("params", {}) if kind in kinds else None
    if not isinstance(params, dict) or set(spec) - {"kind", "params"}:
        raise ValueError(f"{spec!r} is not a kind among {', '.join(kinds)} with an object of params")
    unknown = sorted(set(params) - kinds[kind])
    if unknown:
        raise ValueError(f"unknown {kind} params: {', '.join(map(repr, unknown))}")
    return kind, params


def build_graph(cfg: dict):
    """Graph section -> Graph or InfiniteGraph, rooted at the vertex ``root`` names."""
    spec = cfg.get("graph")
    if spec is None:
        raise ConfigError("config has no graph section")
    kind = spec["kind"]
    try:
        if kind == "z_line":
            return graphs.z_line()
        if kind == "path":
            g = graphs.path_graph(spec["n"])
        elif kind == "cycle":
            g = graphs.cycle_graph(spec["n"])
        elif kind == "grid":
            g = graphs.grid_graph(spec["rows"], spec["cols"])
        elif kind == "tree":
            g = graphs.regular_tree(spec["branching"], spec["depth"])
        elif kind == "edges":
            edges = [tuple(map(_label, e)) for e in spec["edges"]]
            verts = map(_label, spec["vertices"]) if "vertices" in spec else dict.fromkeys(v for e in edges for v in e)
            g = Graph(verts, edges)
        else:  # file
            with open(spec["path"], encoding="utf-8") as fh:
                g = graphs.parse_edge_list(fh.read())
        if not g.vertices:
            raise ValueError("the graph has no vertices")
        return g if "root" not in spec else g.with_root(resolve_vertex(g, spec["root"]))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"graph section: {exc}") from exc


def resolve_vertex(g, raw):
    """Map a JSON vertex reference onto an actual label of ``g``."""
    label = _label(raw)
    if isinstance(g, InfiniteGraph):
        if isinstance(label, int):
            return label
        raise ConfigError(f"vertex {raw!r} is not an integer site")
    if label in g:
        return label
    matches = [v for v in g.vertices if str(v) == str(label)]
    if len(matches) == 1:
        return matches[0]
    raise ConfigError(f"vertex {raw!r} does not name a graph vertex")


def resolve_vertices(g, raws):
    out = [resolve_vertex(g, r) for r in raws]
    if len(set(out)) != len(out):
        raise ConfigError(f"vertex list {raws!r} has duplicates")
    return tuple(out)


def build_drift(cfg: dict, g) -> DriftTable:
    spec = cfg.get("drift")
    if spec is None:
        raise ConfigError("config has no drift section")
    try:
        default = parse_drift(spec["default"]) if "default" in spec else None
        raw_overrides = spec.get("overrides", {})
        if raw_overrides and isinstance(g, InfiniteGraph):
            raise ConfigError("drift overrides need a finite graph")
        overrides = {resolve_vertex(g, key): parse_drift(text) for key, text in raw_overrides.items()}
    except ValueError as exc:
        raise ConfigError(f"drift section: {exc}") from exc
    return DriftTable(default, overrides)


def build_diffusion(cfg: dict):
    spec = cfg.get("diffusion")
    if spec is None:
        raise ConfigError("config has no diffusion section")
    try:
        kind, params = _params(spec, _DIFFUSION_PARAMS)
        if kind == "tanh_diagonal":
            return TanhDiagonalDiffusion(params["a"], params["b"])
        if {"value", "matrix"} <= set(params):
            raise ValueError("constant params take 'value' or 'matrix', not both")
        if "matrix" in params:
            return ConstantDiffusion(params["matrix"])
        return ConstantDiffusion([[float(params.get("value", 1.0))]])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"diffusion section: {exc}") from exc


def build_initial(cfg: dict, g):
    """Initial section -> initial law (a point mass at 0 when absent); ``per_vertex``
    laws nest, and their override keys name vertices of ``g`` at every level.
    On a finite graph every vertex must get a law; the vertices of z_line are
    known only per truncation level."""
    spec = cfg.get("initial")
    if spec is None:
        return PointMass(0.0)
    try:
        return _initial_law(spec, g, _INITIAL_PARAMS, () if isinstance(g, InfiniteGraph) else g.vertices)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"initial section: {exc}") from exc


def _initial_law(spec, g, kinds, cover):
    """The law of ``spec``, which must give one to every vertex in ``cover``."""
    kind, params = _params(spec, kinds)
    if kind == "point":
        return PointMass(params.get("value", 0.0))
    if kind == "normal":
        return NormalInitial(params.get("mean", 0.0), params.get("std", 1.0))
    if kind == "uniform":
        return UniformInitial(params["lo"], params["hi"])
    if kind == "factor_model":
        from .discrete import factor_model_from_json  # deferred: discrete layer is optional here

        return FactorModelInitial(factor_model_from_json(json.dumps(params["model"])), params.get("state_values"))
    overrides = params.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ValueError("per_vertex overrides must map vertices to laws")
    if overrides and isinstance(g, InfiniteGraph):
        raise ConfigError("initial overrides need a finite graph")
    keyed = {resolve_vertex(g, key): sub for key, sub in overrides.items()}
    laws = {key: _initial_law(sub, g, _PRODUCT_PARAMS, (key,)) for key, sub in keyed.items()}
    rest, default = tuple(v for v in cover if v not in laws), params.get("default")
    if rest and default is None:
        raise ValueError(f"no initial law for vertex {rest[0]!r}: per_vertex needs a default or an override")
    return PerVertexInitial(None if default is None else _initial_law(default, g, _PRODUCT_PARAMS, rest), laws)


def build_grid(cfg: dict) -> np.ndarray:
    spec = cfg.get("grid")
    if spec is None:
        raise ConfigError("config has no grid section")
    if "times" in spec:
        grid = spec["times"]
    else:
        grid = np.linspace(0.0, float(spec["t_max"]), int(spec["steps"]) + 1)
    try:
        return _check_grid(grid)
    except ValueError as exc:
        raise ConfigError(f"grid section: {exc}") from exc
