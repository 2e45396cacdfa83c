"""Layer spans for the traced run, recorded from outside the package.

Each boundary is traced by rebinding the name a calling module looks up
(for example ``netdiff.engine.evaluate_vectorized`` or
``netdiff.discrete.boundary2``) to a wrapper that records a span.  Nothing
in ``netdiff`` is edited.  A boundary whose module or name no longer exists
is reported as absent with zero calls, so the benchmark keeps running when
the package is refactored.

Spans live in memory as ``[name, start, end, parent, op]`` rows; ``parent``
is the row index of the enclosing span (-1 for none) and ``op`` the id of
the benchmark operation that caused it.  The workload runs on one thread,
so the children of a span never overlap and the part of a span they cover
is the sum of their durations.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

OP_SPAN = "op"

# Dense CI test cost: eigvalsh (tridiagonal reduction, ~4/3 n^3) plus inv
# (LU and inverse, ~2 n^3) on an n x n marginal covariance.
EXACT_CI_FLOPS_PER_N3 = 4.0 / 3.0 + 2.0


@dataclass(frozen=True)
class Boundary:
    span: str
    owner: str  # module under ``netdiff`` that defines the name
    attr: str
    callers: tuple = ()  # modules whose binding of ``attr`` is replaced ("" is the package)
    method: bool = False  # wrap ``attr`` on every class of ``owner`` that defines it
    post: Callable | None = None  # post(tracer, args, result) -> result

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


class _TracedStream:
    """Noise generator proxy that times its normal draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        i = self._tracer.begin("engine.noise.draw")
        try:
            return self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.end(i)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _proxy_stream(tracer, args, gen):
    return _TracedStream(gen, tracer)


def _store_bytes(tracer, args, ens):
    # computed, not measured: R * V * T * d float64 values per ensemble
    tracer.count("engine.store.bytes_computed", math.prod(ens.values.shape) * 8)
    return ens


def _points_in(tracer, args, result):
    tracer.count("engine.energy_distance.points_in", len(args[0]) + len(args[1]))
    return result


def _exact_ci_size(tracer, args, report):
    n = report.n_features
    tracer.count("independence.exact_ci.dim_sum", n)
    tracer.count("independence.exact_ci.gflop_computed", EXACT_CI_FLOPS_PER_N3 * n**3 / 1e9)
    return report


def _subsets(tracer, args, result):
    tracer.count("discrete.check_mrf.subsets", 2 ** len(args[0].labels) - 1)
    return result


_ENTRY = ("", "cli")  # the benchmark calls through the package; the CLI imports by name

BOUNDARIES = (
    Boundary("engine.noise.setup", "engine", "noise_stream", ("engine",), post=_proxy_stream),
    Boundary("engine.simulate", "engine", "simulate", _ENTRY + ("engine",), post=_store_bytes),
    Boundary("engine.simulate", "engine", "simulate_driftless", _ENTRY + ("engine",), post=_store_bytes),
    Boundary("engine.simulate", "engine", "simulate_truncated", _ENTRY + ("engine",), post=_store_bytes),
    Boundary("engine.girsanov", "engine", "girsanov_weights", _ENTRY),
    Boundary("engine.entropy", "engine", "entropy_bound_estimate", _ENTRY),
    Boundary("engine.energy_distance", "engine", "energy_distance", ("", "engine"), post=_points_in),
    Boundary("coefficients.eval", "coefficients", "evaluate_vectorized", ("engine",)),
    Boundary("coefficients.parse", "coefficients", "parse_drift", ("", "coefficients", "config")),
    Boundary("gaussian.path_covariance", "gaussian", "path_covariance", _ENTRY),
    Boundary("gaussian.precision_blocks", "gaussian", "path_precision_blocks", _ENTRY),
    Boundary("gaussian.closed_form", "gaussian", "covariance_at", _ENTRY),
    Boundary("gaussian.closed_form", "gaussian", "precision_at", _ENTRY),
    Boundary("gaussian.closed_form", "gaussian", "conditional_covariance", _ENTRY),
    Boundary("independence.scan", "independence", "mrf_order_scan", _ENTRY),
    Boundary("independence.exact_ci", "independence", "exact_gaussian_ci", ("independence",), post=_exact_ci_size),
    Boundary("independence.partial_corr", "independence", "partial_correlation_ci_test", ("independence",)),
    Boundary("graphs.boundary", "graphs", "boundary", ("discrete", "independence")),
    Boundary("graphs.boundary", "graphs", "boundary2", ("discrete", "independence")),
    Boundary("graphs.cliques", "graphs", "cliques", ("discrete",)),
    # the CLI imports the discrete functions inside cmd_hc_lab, from the module
    Boundary("discrete.check_mrf", "discrete", "check_mrf_bruteforce", ("", "discrete"), post=_subsets),
    Boundary("discrete.factorize", "discrete", "factorize_positive_2mrf", ("", "discrete")),
    Boundary("discrete.joint_table", "discrete", "joint_table", ("", "discrete")),
    Boundary("discrete.kernel", "discrete", "conditional_specification", ("", "discrete")),
    Boundary("discrete.random_model", "discrete", "random_factor_model", ("", "discrete")),
    Boundary("initials.sample", "initials", "sample", method=True),
    Boundary("config.load", "config", "load_config", ("cli",)),
    Boundary("config.load", "config", "validate_options", ("cli",)),
)

# per-layer metric -> (how, span or counter name)
#   total: summed duration of the outermost spans of that name
#   self:  summed duration of those spans minus their children
#   calls: number of spans of that name
#   count: summed counter
LAYER_METRICS = {
    "engine.noise.streams": ("calls", "engine.noise.setup"),
    "engine.noise.setup_s": ("total", "engine.noise.setup"),
    "engine.noise.draw_s": ("total", "engine.noise.draw"),
    "engine.simulate.s": ("total", "engine.simulate"),
    "engine.simulate.self_s": ("self", "engine.simulate"),
    "engine.store.bytes_computed": ("count", "engine.store.bytes_computed"),
    "engine.girsanov.s": ("total", "engine.girsanov"),
    "engine.entropy.s": ("total", "engine.entropy"),
    "engine.energy_distance.s": ("total", "engine.energy_distance"),
    "engine.energy_distance.points_in": ("count", "engine.energy_distance.points_in"),
    "coefficients.eval.calls": ("calls", "coefficients.eval"),
    "coefficients.eval.s": ("total", "coefficients.eval"),
    "coefficients.parse.s": ("total", "coefficients.parse"),
    "gaussian.path_covariance.s": ("total", "gaussian.path_covariance"),
    "gaussian.precision_blocks.s": ("total", "gaussian.precision_blocks"),
    "gaussian.closed_form.s": ("total", "gaussian.closed_form"),
    "independence.exact_ci.calls": ("calls", "independence.exact_ci"),
    "independence.exact_ci.s": ("total", "independence.exact_ci"),
    "independence.exact_ci.gflop_computed": ("count", "independence.exact_ci.gflop_computed"),
    "independence.scan.self_s": ("self", "independence.scan"),
    "independence.partial_corr.calls": ("calls", "independence.partial_corr"),
    "independence.partial_corr.s": ("total", "independence.partial_corr"),
    "graphs.boundary.calls": ("calls", "graphs.boundary"),
    "graphs.boundary.s": ("total", "graphs.boundary"),
    "graphs.cliques.calls": ("calls", "graphs.cliques"),
    "graphs.cliques.s": ("total", "graphs.cliques"),
    "discrete.check_mrf.calls": ("calls", "discrete.check_mrf"),
    "discrete.check_mrf.s": ("total", "discrete.check_mrf"),
    "discrete.check_mrf.subsets": ("count", "discrete.check_mrf.subsets"),
    "discrete.factorize.self_s": ("self", "discrete.factorize"),
    "discrete.joint_table.s": ("total", "discrete.joint_table"),
    "discrete.kernel.s": ("total", "discrete.kernel"),
    "discrete.random_model.s": ("total", "discrete.random_model"),
    "initials.sample.s": ("total", "initials.sample"),
    "config.load.s": ("total", "config.load"),
    "cli.artifacts.bytes": ("count", "cli.artifacts.bytes"),
}

CLI_COMMANDS = (
    "graph", "gaussian", "simulate", "girsanov-check", "ci-scan", "approx", "hc-lab", "reproduce-paper",
)


def _qualified(name) -> str:
    return "netdiff" + (f".{name}" if name else "")


class Tracer:
    """In-memory span recorder that installs and removes the boundary wrappers."""

    def __init__(self):
        self.spans = []
        self.counters = []  # (name, value, op)
        self.op = -1
        self.warnings = Counter()
        self.status = {}  # boundary key -> modules where it is bound, "unbound" or "absent"
        self._stack = []
        self._restore = []

    def begin(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def end(self, i) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value, op=None) -> None:
        self.counters.append((name, value, self.op if op is None else op))

    def _wrap(self, b: Boundary, fn):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.begin(b.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            if b.post is None:
                return result
            try:
                return b.post(tracer, args, result)
            except Exception as exc:  # a counter must never break the traced call
                tracer.warnings[f"{b.key}: counter failed: {type(exc).__name__}: {exc}"] += 1
                return result

        traced.__name__ = getattr(fn, "__name__", b.attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _rebind(self, obj, attr, original, wrapped) -> None:
        setattr(obj, attr, wrapped)
        self._restore.append((obj, attr, original))

    def install(self) -> None:
        for b in BOUNDARIES:
            try:
                owner = importlib.import_module(_qualified(b.owner))
            except ImportError:
                self.status[b.key] = "absent"
                continue
            bound = []
            if b.method:
                for cls in vars(owner).values():
                    if isinstance(cls, type) and cls.__module__ == owner.__name__ and b.attr in cls.__dict__:
                        self._rebind(cls, b.attr, cls.__dict__[b.attr], self._wrap(b, cls.__dict__[b.attr]))
                        bound.append(cls.__name__)
                self.status[b.key] = bound or "absent"
                continue
            original = getattr(owner, b.attr, None)
            if not callable(original):
                self.status[b.key] = "absent"
                continue
            wrapped = self._wrap(b, original)
            for caller in b.callers:
                mod = sys.modules.get(_qualified(caller))
                if mod is not None and getattr(mod, b.attr, None) is original:
                    self._rebind(mod, b.attr, original, wrapped)
                    bound.append(caller or "netdiff")
            # present, but no loaded caller binds it: this workload cannot reach it
            self.status[b.key] = bound or "unbound"

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def flagged(self, state) -> list:
        return sorted(k for k, v in self.status.items() if v == state)

    def layer_metrics(self, ops) -> dict:
        """Per-layer figures over the spans caused by the given op ids."""
        ops = set(ops)
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] in ops]
        child_time = defaultdict(float)
        for _, s in rows:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _) in rows:
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        counts = defaultdict(float)
        for name, value, op in self.counters:
            if op in ops:
                counts[name] += value
        table = {"total": total, "self": self_time, "calls": calls, "count": counts}
        out = {metric: table[how][name] for metric, (how, name) in LAYER_METRICS.items()}
        n = calls["independence.exact_ci"]
        out["independence.exact_ci.dim_mean"] = counts["independence.exact_ci.dim_sum"] / n if n else 0.0
        out["trace.uncovered_s"] = self_time[OP_SPAN]
        return out

    def op_rows(self, ops) -> list:
        """(op id, wall seconds, seconds no layer span covers) for each op span."""
        ops = set(ops)
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0 and s[4] in ops:
                child_time[s[3]] += s[2] - s[1]
        return [
            (s[4], s[2] - s[1], s[2] - s[1] - child_time[i])
            for i, s in enumerate(self.spans)
            if s[0] == OP_SPAN and s[4] in ops
        ]

    def write(self, path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc.update(
            {
                "span_names": names,
                "span_columns": ["name", "start", "end", "parent", "op"],
                "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans],
                "counters": self.counters,
                "boundaries": self.status,
                "warnings": dict(self.warnings),
            }
        )
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
