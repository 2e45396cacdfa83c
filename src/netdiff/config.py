"""Experiment configuration: schema validation and object construction.

A configuration is a single JSON document.  ``validate_config`` checks it
against a closed schema (unknown keys are rejected), and the ``build_*``
helpers turn sections into live objects.  All randomness downstream flows
from the single ``seed`` field.
"""

from __future__ import annotations

import hashlib
import json

import jsonschema
import numpy as np

from . import graphs
from .coefficients import DriftTable, diffusion_from_config, parse_drift
from .engine import _check_grid
from .graphs import Graph, InfiniteGraph
from .initials import PointMass, initial_from_config

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

COMMANDS = (
    "graph",
    "gaussian",
    "simulate",
    "girsanov-check",
    "ci-scan",
    "approx",
    "hc-lab",
    "reproduce-paper",
)


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
            "variant": {"enum": ["standard", "zero_diagonal"]},
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
            "variant": {"enum": ["standard", "zero_diagonal"]},
            "orders": {"type": "array", "items": {"enum": [1, 2]}, "minItems": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "feature_times": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "sets": {"type": "array", "items": _VERTEX_LIST, "minItems": 1},
            "substeps": {"type": "integer", "minimum": 1},
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
                "kind": {"enum": ["constant", "tanh_diagonal"]},
                "params": {"type": "object"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "initial": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["point", "normal", "uniform", "per_vertex", "factor_model"]},
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
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
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


def build_graph(cfg: dict):
    """Graph section -> Graph or InfiniteGraph."""
    spec = cfg.get("graph")
    if spec is None:
        raise ConfigError("config has no graph section")
    kind = spec["kind"]
    root = spec.get("root")
    if isinstance(root, list):
        root = tuple(root)
    try:
        if kind == "path":
            return graphs.path_graph(spec["n"], root=root)
        if kind == "cycle":
            return graphs.cycle_graph(spec["n"], root=root)
        if kind == "grid":
            return graphs.grid_graph(spec["rows"], spec["cols"], root=root)
        if kind == "tree":
            g = graphs.regular_tree(spec["branching"], spec["depth"])
            return g if root is None else g.with_root(resolve_vertex(g, root))
        if kind == "z_line":
            return graphs.z_line()
        if kind == "edges":
            edges = [tuple(tuple(x) if isinstance(x, list) else x for x in e) for e in spec["edges"]]
            verts = spec.get("vertices")
            if verts is None:
                seen = []
                for u, w in edges:
                    for v in (u, w):
                        if v not in seen:
                            seen.append(v)
                verts = seen
            else:
                verts = [tuple(v) if isinstance(v, list) else v for v in verts]
            return Graph(verts, edges, root=root)
        if kind == "file":
            with open(spec["path"], encoding="utf-8") as fh:
                g = graphs.parse_edge_list(fh.read())
            return g if root is None else g.with_root(resolve_vertex(g, root))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"graph section: {exc}") from exc
    raise ConfigError(f"unknown graph kind {kind!r}")


def resolve_vertex(g, raw):
    """Map a JSON vertex reference onto an actual label of ``g``."""
    label = tuple(raw) if isinstance(raw, list) else raw
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
        overrides = {
            resolve_vertex(g, key): parse_drift(text) for key, text in raw_overrides.items()
        }
    except ValueError as exc:
        raise ConfigError(f"drift section: {exc}") from exc
    return DriftTable(default, overrides)


def build_diffusion(cfg: dict):
    spec = cfg.get("diffusion")
    if spec is None:
        raise ConfigError("config has no diffusion section")
    try:
        return diffusion_from_config(spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"diffusion section: {exc}") from exc


def build_initial(cfg: dict, g=None):
    spec = cfg.get("initial")
    if spec is None:
        return PointMass(0.0)
    try:
        if spec["kind"] == "factor_model":
            from .discrete import factor_model_from_json
            from .initials import FactorModelInitial

            params = spec.get("params", {})
            model = factor_model_from_json(json.dumps(params["model"]))
            return FactorModelInitial(model, params.get("state_values"))
        law = initial_from_config(spec)
        if spec["kind"] == "per_vertex" and g is not None:
            if law.overrides and isinstance(g, InfiniteGraph):
                raise ConfigError("initial overrides need a finite graph")
            resolved = {resolve_vertex(g, key): sub for key, sub in law.overrides.items()}
            law = type(law)(law.default, resolved)
        return law
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"initial section: {exc}") from exc


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
