"""Exact finite-state laboratory for second-order Markov random fields.

Everything here works on full joint tables (state-space cap 2^20 entries),
so Markov properties, factorizations, projections, and conditional kernels
are all checked by exact enumeration rather than sampling.  The canonical
factorization fixes the gauge freedom of factor systems by Moebius
inversion around the all-zeros reference configuration.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, _closed_masks, _split, _truncate, boundary2, cliques, square_graph
from .graphs import _graph_from_json, _graph_to_json, _label_from_json, _label_to_json

__all__ = [
    "FactorModel",
    "JointTable",
    "MrfCheck",
    "Violation",
    "Witness",
    "ConditionalKernel",
    "joint_table",
    "marginalize",
    "check_mrf_bruteforce",
    "factorize_positive_2mrf",
    "project_to_truncation",
    "projection_counterexample_search",
    "conditional_specification",
    "random_factor_model",
    "total_variation",
    "factor_model_to_json",
    "factor_model_from_json",
]

_MAX_TABLE = 2**20


def _weights(m: "FactorModel", scope, vertices, keys) -> np.ndarray:
    """Product over the axes of `scope`: base weights of `vertices` first,
    then the factors of `m` on `keys`, in the order given, each broadcast."""
    pos = {v: i for i, v in enumerate(scope)}
    w = np.ones((m.k,) * len(scope))
    items = [((v,), m.base[v]) for v in vertices if v in m.base] + [(key, m.factors[key]) for key in keys]
    for key, table in items:
        axes = [pos[v] for v in key]
        shape = [m.k if i in axes else 1 for i in range(len(scope))]
        w *= table.transpose(sorted(range(len(axes)), key=axes.__getitem__)).reshape(shape)
    return w


class _Plan:
    """The discrete lab's bookkeeping for one graph, each part built on first use.

    `cliques` maps each 2-clique, keyed in graph order, to the index holding
    every other vertex at state 0.  `subsets(order)` lists in combinations
    order each vertex set A whose closed order-`order` neighbourhood (a
    bitmask from `graphs._closed_masks`) misses a vertex, as (A, its boundary
    S in graph order, the axes of A, then S, then the rest).
    """

    def __init__(self, g: Graph):
        self._graph = g
        self._subsets = {}

    @cached_property
    def cliques(self) -> dict:
        g = self._graph
        keys = (tuple(sorted(c, key=g.index)) for c in cliques(g, 2))
        return {key: tuple(slice(None) if v in key else 0 for v in g.vertices) for key in keys}

    def subsets(self, order: int) -> list:
        if order in self._subsets:
            return self._subsets[order]
        g = self._graph
        nv = len(g.vertices)
        closed = _closed_masks(g, order)
        out = self._subsets[order] = []
        for r in range(1, nv + 1):
            for a in itertools.combinations(range(nv), r):
                s, rest = _split(closed, a, range(nv))
                if rest:
                    out.append((tuple(g.vertices[i] for i in a), tuple(g.vertices[i] for i in s), a + s + rest))
        return out


def _plan(g: Graph) -> _Plan:
    """The plan of `g`, built on first use and stored on `g` (as `square_graph` stores G²)."""
    if g._plan is None:
        g._plan = _Plan(g)
    return g._plan


class FactorModel:
    """Nonnegative factors on the 2-cliques of a graph, over states {0..k-1}.

    `base` holds per-vertex reference weights (defaults to uniform); the
    joint law is the normalized product of base weights and factor tables.
    """

    def __init__(self, graph: Graph, k: int, factors=None, base=None):
        if k < 2:
            raise ValueError("need at least two states per vertex")
        nv = len(graph.vertices)
        if k**nv > _MAX_TABLE:
            raise ValueError(f"state space k^|V| = {k}^{nv} exceeds the exact-computation cap")
        self.graph = graph
        self.k = int(k)
        square = square_graph(graph)
        self.factors = {}
        for key, table in (factors or {}).items():
            key = tuple(sorted(key, key=graph.index))
            # the square graph has no self-loops, so a repeated vertex fails too
            if not key or not all(square.has_edge(u, w) for u, w in itertools.combinations(key, 2)):
                raise ValueError(f"{key!r} is not a 2-clique of the graph")
            table = np.asarray(table, dtype=float)
            if table.shape != (k,) * len(key):
                raise ValueError(f"factor on {key!r} must have shape {(k,) * len(key)}")
            if (table < 0).any() or not np.isfinite(table).all():
                raise ValueError(f"factor on {key!r} must be nonnegative and finite")
            if key in self.factors:
                self.factors[key] = self.factors[key] * table
            else:
                self.factors[key] = table
        self.base = {}
        for v, w in (base or {}).items():
            graph.index(v)
            w = np.asarray(w, dtype=float)
            if w.shape != (k,):
                raise ValueError(f"base weight for {v!r} must have shape ({k},)")
            if (w < 0).any() or not np.isfinite(w).all():
                raise ValueError(f"base weight for {v!r} must be nonnegative and finite")
            self.base[v] = w

    def to_config(self) -> dict:
        g = self.graph
        return {
            **_graph_to_json(g),
            "k": self.k,
            "factors": {
                "|".join(str(v) for v in key): {
                    "clique": [_label_to_json(v) for v in key],
                    "table": np.asarray(t).reshape(-1).tolist(),
                }
                for key, t in self.factors.items()
            },
            "base": {str(v): {"vertex": _label_to_json(v), "weights": w.tolist()} for v, w in self.base.items()},
        }


def factor_model_to_json(m: FactorModel) -> str:
    return json.dumps(m.to_config())


def factor_model_from_json(text: str) -> FactorModel:
    cfg = json.loads(text)
    g = _graph_from_json(cfg)
    k = cfg["k"]
    factors = {}
    for item in cfg.get("factors", {}).values():
        key = tuple(_label_from_json(v) for v in item["clique"])
        factors[key] = np.asarray(item["table"], dtype=float).reshape((k,) * len(key))
    base = {}
    for item in cfg.get("base", {}).values():
        base[_label_from_json(item["vertex"])] = np.asarray(item["weights"], dtype=float)
    return FactorModel(g, k, factors, base)


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact joint law: probs has one axis per vertex in graph order."""

    probs: np.ndarray
    labels: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != len(self.labels):
            raise ValueError("one axis per vertex required")
        if len(set(p.shape)) > 1:
            raise ValueError("every vertex needs the same number of states")
        if (p < 0).any() or not np.isfinite(p).all():
            raise ValueError("probabilities must be nonnegative and finite")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("table must sum to 1")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", tuple(self.labels))


def joint_table(m: FactorModel) -> JointTable:
    """Normalized product of base weights and factors, exact."""
    w = _weights(m, m.graph.vertices, m.base, m.factors)
    z = w.sum()
    if not z > 0:
        raise ValueError("zero normalizing constant")
    return JointTable(w / z, m.graph.vertices)


def marginalize(t: JointTable, keep) -> JointTable:
    keep = set(keep)
    unknown = keep.difference(t.labels)
    if unknown:
        raise ValueError(f"labels not in the table: {sorted(map(repr, unknown))}")
    drop = tuple(i for i, lab in enumerate(t.labels) if lab not in keep)
    kept = [lab for lab in t.labels if lab in keep]
    return JointTable(t.probs.sum(axis=drop), kept)


def total_variation(a: JointTable, b: JointTable) -> float:
    if a.labels != b.labels:
        raise ValueError("tables index different vertices")
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


@dataclass(frozen=True)
class Violation:
    a: tuple
    boundary: tuple
    config: tuple
    tv: float


@dataclass(frozen=True)
class MrfCheck:
    order: int
    max_violation: float
    worst: Violation | None
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol


def check_mrf_bruteforce(t: JointTable, g: Graph, order: int, tol: float = 1e-10) -> MrfCheck:
    """Exhaustive Markov-property check: X_A independent of the exterior
    given the order-1 or order-2 boundary, for every nonempty vertex set A.

    Returns the worst total-variation violation over (A, boundary config).
    This is the reference test: it enumerates all 2^|V| - 1 sets A and
    assumes nothing about the law.  The sets, their boundaries and axes
    come from the graph's plan, built once per graph.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if t.labels != g.vertices:
        raise ValueError("table does not index this graph's vertices")
    k = t.probs.shape[0] if g.vertices else 1
    max_violation = 0.0
    worst = None
    for a_labs, s_labs, axes in _plan(g).subsets(order):
        p = t.probs.transpose(axes).reshape(k ** len(a_labs), k ** len(s_labs), -1)
        ps = p.sum(axis=(0, 2))
        # a boundary state of probability 0 has p = 0, so cond = 0 and tv = 0 there
        cond = p / np.where(ps > 0, ps, 1.0)[:, None]
        ca = cond.sum(axis=2)
        cc = cond.sum(axis=0)
        prod = ca[:, :, None] * cc[None, :, :]
        tv = 0.5 * np.abs(cond - prod).sum(axis=(0, 2))
        j = int(np.argmax(tv))
        if tv[j] > max_violation:
            cfg = tuple(int(x) for x in np.unravel_index(j, (k,) * len(s_labs))) if s_labs else ()
            max_violation = float(tv[j])
            worst = Violation(a_labs, s_labs, cfg, float(tv[j]))
    return MrfCheck(order, max_violation, worst, tol)


def factorize_positive_2mrf(t: JointTable, g: Graph, tol: float = 1e-10) -> FactorModel:
    """Canonical 2-clique factorization of a strictly positive second-order MRF.

    Potentials come from Moebius inversion of log p around the all-zeros
    configuration; singleton potentials land in the base weights.  The
    reconstruction is also the Markov test: by Hammersley-Clifford on the
    square graph, a strictly positive table is a second-order MRF on g exactly
    when it factorizes over the 2-cliques of g, so a reconstruction that
    differs from the input by more than `tol` in total variation is rejected.
    The 2-cliques and their state-0 slices come from the graph's plan, built
    once per graph.
    """
    if t.labels != g.vertices:
        raise ValueError("table does not index this graph's vertices")
    if np.any(t.probs <= 0):
        raise ValueError("factorization requires a strictly positive table")
    k = t.probs.shape[0]
    logp = np.log(t.probs)
    base = {}
    factors = {}
    for key, held in _plan(g).cliques.items():
        # every vertex outside the clique held at state 0, then differenced
        diff = logp[held]
        for ax in range(len(key)):
            diff = diff - diff[(slice(None),) * ax + (slice(0, 1),)]
        table = np.exp(diff)
        if len(key) == 1:
            base[key[0]] = table
        else:
            factors[key] = table
    try:
        model = FactorModel(g, k, factors, base)
        recon = joint_table(model)
    except ValueError as err:  # e.g. potentials or their product overflow float64
        raise ValueError(f"cannot rebuild this table from its 2-clique potentials: {err}") from err
    tv = total_variation(recon, t)
    if tv > tol:
        raise ValueError(f"not a second-order MRF on this graph: 2-clique reconstruction differs by TV {tv:.3g}")
    return model


def project_to_truncation(m: FactorModel, n: int) -> FactorModel:
    """Marginal of the model onto the level-n augmented truncation.

    Factors wholly inside the truncation are copied verbatim; everything
    touching the removed exterior collapses, by exact summation, into a
    single aggregate factor on the outer shell U_n (a clique of the
    augmented graph).  The result's joint table equals the exact marginal.
    """
    g = m.graph
    gn, shell = _truncate(g, n)
    keep = set(gn.vertices)
    outside = [v for v in g.vertices if v not in keep]

    inner = {}
    outer = {}
    for key, table in m.factors.items():
        if set(key) <= keep:
            inner[key] = table
        else:
            outer[key] = table
    base = {v: w for v, w in m.base.items() if v in keep}

    if outside:
        scope = shell + outside
        # the axes of agg follow `shell`, which is already in the key's vertex order
        agg = _weights(m, scope, outside, outer).sum(axis=tuple(range(len(shell), len(scope))))
        shell_key = tuple(shell)
        if shell_key in inner:
            inner[shell_key] = inner[shell_key] * agg
        else:
            inner[shell_key] = agg

    result = FactorModel(gn, m.k, inner, base)
    got = joint_table(result)
    want = marginalize(joint_table(m), gn.vertices)
    tv = total_variation(got, want)
    if tv > 1e-10:
        raise ValueError(f"projection self-check failed: TV {tv:.3g}")
    return result


@dataclass(frozen=True)
class Witness:
    model: FactorModel
    check: MrfCheck
    trial: int


def random_factor_model(g: Graph, k: int, rng) -> FactorModel:
    """Random strictly positive pairwise model: log-normal entries on every edge."""
    factors = {edge: np.exp(rng.normal(size=(k, k))) for edge in g.edges()}
    base = {v: np.exp(rng.normal(size=k)) for v in g.vertices}
    return FactorModel(g, k, factors, base)


def projection_counterexample_search(
    g: Graph, sub, trials: int, order: int = 1, seed: int = 0, threshold: float = 1e-6, k: int = 2
) -> Witness | None:
    """Search for a factor model whose marginal onto an induced subgraph
    fails the order-`order` Markov property there.

    Trials use derived seeds (seed + trial index) so they are independent
    and safely parallelizable.
    """
    sub = list(sub)
    induced = g.subgraph(sub)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        model = random_factor_model(g, k, rng)
        marg = marginalize(joint_table(model), induced.vertices)
        chk = check_mrf_bruteforce(marg, induced, order, tol=threshold)
        if not chk.ok:
            return Witness(model, chk, i)
    return None


@dataclass(frozen=True, eq=False)
class ConditionalKernel:
    """Exact law of X_A as a function of the second-order boundary state.

    `table` has one axis per boundary vertex followed by one per target
    vertex; each boundary slice sums to 1.  Boundary configurations of
    probability zero are listed in `zero_boundary` (their rows computed
    from the local factor formula, or NaN if that is degenerate too).
    """

    a_vertices: tuple
    boundary: tuple
    table: np.ndarray
    zero_boundary: tuple
    max_discrepancy: float


def conditional_specification(m: FactorModel, a_set, joint: JointTable | None = None) -> ConditionalKernel:
    """Kernel x_{boundary2(A)} -> law of X_A, computed two independent ways.

    Route one conditions the exact joint table, `joint` when the caller has
    already built `joint_table(m)`; route two uses only the factors meeting
    A (the local specification formula).  The two must agree within 1e-10
    on every boundary configuration of positive probability, else this
    raises.
    """
    g = m.graph
    k = m.k
    a = tuple(sorted(a_set, key=g.index))
    if not a:
        raise ValueError("target set is empty")
    if len(set(a)) < len(a):
        raise ValueError("duplicate vertex in target")
    b = tuple(sorted(boundary2(g, a), key=g.index))
    if joint is None:
        joint = joint_table(m)
    elif joint.labels != g.vertices or joint.probs.shape[:1] != (k,):
        raise ValueError("joint table does not index this model's vertices and states")

    axes = [g.index(v) for v in b + a]
    rest = [i for i in range(len(g.vertices)) if i not in axes]
    p = joint.probs.transpose(axes + rest).reshape(k ** len(b), k ** len(a), -1).sum(axis=2)
    pb = p.sum(axis=1)
    live = pb > 0
    exact = np.full_like(p, np.nan)
    exact[live] = p[live] / pb[live][:, None]

    meeting = [key for key in m.factors if any(v in a for v in key)]
    local = _weights(m, b + a, a, meeting).reshape(k ** len(b), k ** len(a))
    denom = local.sum(axis=1)
    ok_rows = denom > 0
    kernel = np.full_like(local, np.nan)
    kernel[ok_rows] = local[ok_rows] / denom[ok_rows][:, None]

    both = live & ok_rows
    disc = float(np.abs(exact[both] - kernel[both]).max()) if np.any(both) else 0.0
    if disc > 1e-10:
        raise ValueError(f"specification routes disagree: max difference {disc:.3g}")
    zero = tuple(
        tuple(int(x) for x in np.unravel_index(j, (k,) * len(b)))
        for j in np.flatnonzero(~live)
    )
    shape = (k,) * len(b) + (k,) * len(a)
    return ConditionalKernel(a, b, kernel.reshape(shape), zero, disc)
