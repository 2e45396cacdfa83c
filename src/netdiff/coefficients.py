"""Drift and diffusion coefficient specifications.

Drifts are written in a small expression language over a vertex's own state
``x``, the neighbor state ``y`` (inside ``nbr_sum``/``nbr_avg`` only), the time
``t``, and history functionals ``lag(x, tau)``, ``runavg(x, w)``,
``runmax_norm(x)``.  The language is deliberately closed under exactly the
operations for which affine-growth and Lipschitz certificates can be derived
structurally, so validation is a syntax-directed computation rather than an
empirical test.

Evaluation is vectorized: all state arguments carry a leading replica axis, so
the simulation engine can advance every replica of a vertex with a handful of
numpy operations per step.  History functionals read the path on the
simulation grid with left-constant interpolation and never look past ``t``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .graphs import _truncate

__all__ = [
    "ConstantDiffusion",
    "DiffusionTable",
    "DriftSpec",
    "DriftTable",
    "EvalError",
    "ParseError",
    "TanhDiagonalDiffusion",
    "ValidationReport",
    "diffusion_from_config",
    "eval_drift",
    "parse_drift",
    "serialize",
    "truncated_drift_family",
    "validate_linear_growth",
    "validate_lipschitz",
    "zero_drift",
]


class ParseError(ValueError):
    """Raised on malformed drift expressions; carries the source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class OwnState:
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class NbrState:
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class TimeVar:
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Component:
    base: object
    index: int
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Call1:
    fn: str  # sin | cos | tanh
    arg: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Clamp:
    lo: float
    hi: float
    arg: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class NbrAgg:
    kind: str  # sum | avg
    arg: object
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Lag:
    tau: float
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class RunAvg:
    window: object  # positive float, or None meaning the whole past [0, t]
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class RunMaxNorm:
    pos: int = field(default=-1, compare=False, repr=False)


_UNARY_FNS = ("sin", "cos", "tanh")
_HISTORY_NODES = (Lag, RunAvg, RunMaxNorm)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/()\[\],]))"
)


def _tokenize(src):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        m = _TOKEN_RE.match(src, i)
        if m is None or m.end() == i:
            rest = src[i:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", i)
        if m.group("num") is not None:
            toks.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name"), m.start("name")))
        else:
            toks.append(("sym", m.group("sym"), m.start("sym")))
        i = m.end()
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, src):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self, in_nbr):
        node = self.term(in_nbr)
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            _, op, pos = self.next()
            rhs = self.term(in_nbr)
            node = BinOp(op, node, rhs, pos=pos)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self, in_nbr):
        node = self.unary(in_nbr)
        while self.peek()[:2] in (("sym", "*"), ("sym", "/")):
            _, op, pos = self.next()
            rhs = self.unary(in_nbr)
            if op == "/":
                c = _const_value(rhs)
                if c is None:
                    raise ParseError("division requires a constant denominator", pos)
                if c == 0.0:
                    raise ParseError("division by zero constant", pos)
            node = BinOp(op, node, rhs, pos=pos)
        return node

    def unary(self, in_nbr):
        if self.peek()[:2] == ("sym", "-"):
            _, _, pos = self.next()
            arg = self.unary(in_nbr)
            if isinstance(arg, Num):
                return Num(-arg.value, pos=pos)
            return Neg(arg, pos=pos)
        return self.postfix(in_nbr)

    def postfix(self, in_nbr):
        node = self.primary(in_nbr)
        if self.peek()[:2] == ("sym", "["):
            _, _, pos = self.next()
            if not isinstance(node, (OwnState, NbrState)):
                raise ParseError("component access applies to x or y only", pos)
            tok = self.expect("num")
            idx = tok[1]
            if idx != int(idx) or idx < 0:
                raise ParseError("component index must be a nonnegative integer", tok[2])
            self.expect("sym", "]")
            node = Component(node, int(idx), pos=pos)
        return node

    def primary(self, in_nbr):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val, pos=pos)
        if kind == "sym" and val == "(":
            node = self.expr(in_nbr)
            self.expect("sym", ")")
            return node
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        if val == "x":
            return OwnState(pos=pos)
        if val == "y":
            if not in_nbr:
                raise ParseError("y is only meaningful inside nbr_sum/nbr_avg", pos)
            return NbrState(pos=pos)
        if val == "t":
            return TimeVar(pos=pos)
        if val in _UNARY_FNS:
            self.expect("sym", "(")
            arg = self.expr(in_nbr)
            self.expect("sym", ")")
            return Call1(val, arg, pos=pos)
        if val == "clamp":
            self.expect("sym", "(")
            lo_node = self.expr(in_nbr)
            self.expect("sym", ",")
            hi_node = self.expr(in_nbr)
            self.expect("sym", ")")
            lo, hi = _const_value(lo_node), _const_value(hi_node)
            if lo is None or hi is None:
                raise ParseError("clamp bounds must be constants", pos)
            if lo > hi:
                raise ParseError("clamp bounds must satisfy lo <= hi", pos)
            self.expect("sym", "(")
            arg = self.expr(in_nbr)
            self.expect("sym", ")")
            return Clamp(lo, hi, arg, pos=pos)
        if val in ("nbr_sum", "nbr_avg"):
            if in_nbr:
                raise ParseError("neighbor aggregates cannot nest", pos)
            self.expect("sym", "(")
            arg = self.expr(True)
            self.expect("sym", ")")
            return NbrAgg(val[4:], arg, pos=pos)
        if val == "lag":
            self.expect("sym", "(")
            self.expect("name", "x")
            self.expect("sym", ",")
            tau_node = self.expr(in_nbr)
            self.expect("sym", ")")
            tau = _const_value(tau_node)
            if tau is None or tau < 0:
                raise ParseError("lag delay must be a nonnegative constant", pos)
            return Lag(tau, pos=pos)
        if val == "runavg":
            self.expect("sym", "(")
            self.expect("name", "x")
            self.expect("sym", ",")
            kind2, val2, pos2 = self.peek()
            if kind2 == "name" and val2 == "t":
                self.next()
                window = None
            else:
                wnode = self.expr(in_nbr)
                window = _const_value(wnode)
                if window is None or window <= 0:
                    raise ParseError("runavg window must be a positive constant or t", pos2)
            self.expect("sym", ")")
            return RunAvg(window, pos=pos)
        if val == "runmax_norm":
            self.expect("sym", "(")
            self.expect("name", "x")
            self.expect("sym", ")")
            return RunMaxNorm(pos=pos)
        raise ParseError(f"unknown identifier {val!r}", pos)


def _const_value(node):
    """Value of a state- and time-independent subtree, else None."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        v = _const_value(node.arg)
        return None if v is None else -v
    if isinstance(node, BinOp):
        l, r = _const_value(node.left), _const_value(node.right)
        if l is None or r is None:
            return None
        if node.op == "+":
            return l + r
        if node.op == "-":
            return l - r
        if node.op == "*":
            return l * r
        return l / r if r != 0 else None
    if isinstance(node, Call1):
        v = _const_value(node.arg)
        if v is None:
            return None
        return float(getattr(np, node.fn)(v))
    if isinstance(node, Clamp):
        v = _const_value(node.arg)
        return None if v is None else float(np.clip(v, node.lo, node.hi))
    return None


# ---------------------------------------------------------------------------
# serialization

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def serialize(node) -> str:
    """Canonical text form; parse(serialize(ast)) reproduces the AST exactly."""
    return _ser(node, 0)


def _ser(node, min_prec):
    if isinstance(node, Num):
        s = repr(node.value)
        if s.endswith(".0"):
            s = s[:-2]
        return s if node.value >= 0 or min_prec <= 3 else f"({s})"
    if isinstance(node, OwnState):
        return "x"
    if isinstance(node, NbrState):
        return "y"
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Component):
        return f"{_ser(node.base, 4)}[{node.index}]"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        s = f"{_ser(node.left, p)} {node.op} {_ser(node.right, p + 1)}"
        return f"({s})" if p < min_prec else s
    if isinstance(node, Neg):
        inner = _ser(node.arg, 4)
        s = f"-{inner}"
        return f"({s})" if min_prec > 3 else s
    if isinstance(node, Call1):
        return f"{node.fn}({_ser(node.arg, 0)})"
    if isinstance(node, Clamp):
        return f"clamp({_fmt(node.lo)}, {_fmt(node.hi)})({_ser(node.arg, 0)})"
    if isinstance(node, NbrAgg):
        return f"nbr_{node.kind}({_ser(node.arg, 0)})"
    if isinstance(node, Lag):
        return f"lag(x, {_fmt(node.tau)})"
    if isinstance(node, RunAvg):
        return f"runavg(x, {'t' if node.window is None else _fmt(node.window)})"
    if isinstance(node, RunMaxNorm):
        return "runmax_norm(x)"
    raise TypeError(f"not an expression node: {node!r}")


def _fmt(v):
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _walk(node):
    yield node
    for attr in ("base", "left", "right", "arg"):
        child = getattr(node, attr, None)
        if child is not None and not isinstance(child, (int, float, str)):
            yield from _walk(child)


# ---------------------------------------------------------------------------
# DriftSpec / tables


@dataclass(frozen=True)
class DriftSpec:
    """A parsed drift expression for one vertex."""

    ast: object

    @property
    def text(self) -> str:
        return serialize(self.ast)

    @property
    def uses_history(self) -> bool:
        return any(isinstance(n, _HISTORY_NODES) for n in _walk(self.ast))

    @property
    def uses_neighbors(self) -> bool:
        return any(isinstance(n, NbrAgg) for n in _walk(self.ast))

    @property
    def is_zero(self) -> bool:
        return isinstance(self.ast, Num) and self.ast.value == 0.0

    def max_component(self):
        idxs = [n.index for n in _walk(self.ast) if isinstance(n, Component)]
        return max(idxs) if idxs else None

    def __repr__(self):
        return f"DriftSpec({self.text!r})"


def parse_drift(source: str) -> DriftSpec:
    """Parse a drift expression; raises ParseError with a source position."""
    p = _Parser(source)
    node = p.expr(False)
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return DriftSpec(node)


def zero_drift() -> DriftSpec:
    return DriftSpec(Num(0.0))


@dataclass(frozen=True)
class DriftTable:
    """Per-vertex drift assignment: a default plus explicit overrides.

    ``None`` entries mean "no drift" (the zero drift, skipped entirely by the
    engine's fast path).
    """

    default: object = None
    overrides: dict = field(default_factory=dict)

    def for_vertex(self, v):
        return self.overrides.get(v, self.default)

    def specs(self):
        out = [] if self.default is None else [self.default]
        out.extend(s for s in self.overrides.values() if s is not None)
        return out

    @classmethod
    def uniform(cls, spec):
        return cls(default=spec)

    @classmethod
    def from_strings(cls, default=None, overrides=None):
        d = parse_drift(default) if default is not None else None
        o = {v: parse_drift(s) for v, s in (overrides or {}).items()}
        return cls(default=d, overrides=o)


def truncated_drift_family(drift, g, n: int) -> DriftTable:
    """Drift table for the level-n truncation: the original drift on the inner
    region (radius n-2), zero drift on the outer shell.

    ``g`` is the original rooted graph (finite or infinite); the shell is
    taken from distances measured there, not in the truncation, whose shell
    clique would distort them.
    """
    gn, shell = _truncate(g, n)
    shell = set(shell)
    base = drift if isinstance(drift, DriftTable) else DriftTable.uniform(drift)
    zero = zero_drift()
    table = {v: zero if v in shell else base.for_vertex(v) for v in gn.vertices}
    return DriftTable(default=None, overrides=table)


# ---------------------------------------------------------------------------
# evaluation


class EvalContext:
    """Vectorized evaluation state for one vertex at one time.

    own / neighbor values are (R, d) arrays; histories, when present, are
    (R, m, d) arrays aligned with ``times`` (grid points ≤ t, plus possibly
    later ones, which are masked out so evaluation never reads past t).
    """

    __slots__ = ("t", "times", "own", "own_hist", "nbrs", "active")

    def __init__(self, t, own, nbrs=(), times=None, own_hist=None):
        self.t = float(t)
        self.own = own
        self.nbrs = list(nbrs)
        self.times = times
        self.own_hist = own_hist
        self.active = None


def _evaluate(node, ctx):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, OwnState):
        return ctx.own
    if isinstance(node, NbrState):
        if ctx.active is None:
            raise EvalError("neighbor state read outside a neighbor aggregate")
        return ctx.nbrs[ctx.active]
    if isinstance(node, TimeVar):
        return ctx.t
    if isinstance(node, Component):
        base = _evaluate(node.base, ctx)
        if node.index >= base.shape[-1]:
            raise EvalError(
                f"component {node.index} out of range for dimension {base.shape[-1]}"
            )
        return base[..., node.index : node.index + 1]
    if isinstance(node, BinOp):
        l = _evaluate(node.left, ctx)
        r = _evaluate(node.right, ctx)
        if node.op == "+":
            return l + r
        if node.op == "-":
            return l - r
        if node.op == "*":
            return l * r
        return l / r
    if isinstance(node, Neg):
        return -_evaluate(node.arg, ctx)
    if isinstance(node, Call1):
        return getattr(np, node.fn)(_evaluate(node.arg, ctx))
    if isinstance(node, Clamp):
        return np.clip(_evaluate(node.arg, ctx), node.lo, node.hi)
    if isinstance(node, NbrAgg):
        if not ctx.nbrs:
            return 0.0
        acc = None
        for j in range(len(ctx.nbrs)):
            ctx.active = j
            val = _evaluate(node.arg, ctx)
            acc = val if acc is None else acc + val
        ctx.active = None
        if node.kind == "avg":
            acc = acc / len(ctx.nbrs)
        return acc
    # history functionals
    if ctx.own_hist is None or ctx.times is None:
        raise EvalError(f"{type(node).__name__} requires a path history")
    upto = int(np.searchsorted(ctx.times, ctx.t, side="right"))
    if upto == 0:
        raise EvalError("history does not cover the evaluation time")
    times = ctx.times[:upto]
    hist = ctx.own_hist[:, :upto, :]
    if isinstance(node, Lag):
        s = max(0.0, ctx.t - node.tau)
        idx = int(np.searchsorted(times, s, side="right")) - 1
        if idx < 0:
            raise EvalError("history is shorter than the requested lag window")
        return hist[:, idx, :]
    if isinstance(node, RunAvg):
        lo = 0.0 if node.window is None else max(0.0, ctx.t - node.window)
        start = int(np.searchsorted(times, lo, side="left"))
        if start >= upto:
            start = upto - 1
        return hist[:, start:, :].mean(axis=1)
    if isinstance(node, RunMaxNorm):
        norms = np.sqrt((hist**2).sum(axis=2))
        return norms.max(axis=1, keepdims=True)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_vectorized(spec: DriftSpec, ctx: EvalContext, d: int):
    """Evaluate for all replicas at once; result broadcasts to (R, d)."""
    val = np.asarray(_evaluate(spec.ast, ctx), dtype=float)
    r = ctx.own.shape[0]
    if val.shape == (r, d):
        return val
    return np.broadcast_to(val, (r, d))


def eval_drift(spec, t, own_history, neighbor_histories=(), vertex=None):
    """Evaluate a drift at time t for a single path.

    Parameters
    ----------
    spec : DriftSpec or DriftTable
        With a table, ``vertex`` selects the entry.
    t : float
    own_history : (times, values)
        ``times`` increasing from 0; ``values`` of shape (m,) or (m, d).
        Only the portion with times ≤ t is ever read.
    neighbor_histories : sequence of (times, values)
        One per neighbor, in the graph's neighbor order.

    Returns
    -------
    numpy.ndarray of shape (d,)
    """
    if isinstance(spec, DriftTable):
        spec = spec.for_vertex(vertex)
    if spec is None:
        spec = zero_drift()
    times, values = own_history
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    own_cur = _value_at(times, values, t)
    nbr_cur = []
    for nt, nv in neighbor_histories:
        nt = np.asarray(nt, dtype=float)
        nv = np.asarray(nv, dtype=float)
        if nv.ndim == 1:
            nv = nv[:, None]
        nbr_cur.append(_value_at(nt, nv, t)[None, :])
    ctx = EvalContext(
        t,
        own_cur[None, :],
        nbrs=nbr_cur,
        times=times,
        own_hist=values[None, :, :],
    )
    out = evaluate_vectorized(spec, ctx, d)
    return out[0]


def _value_at(times, values, t):
    """Left-constant interpolation of a grid path at time t."""
    idx = int(np.searchsorted(times, t, side="right")) - 1
    if idx < 0:
        raise EvalError("history does not cover the evaluation time")
    return values[idx]


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    """Outcome of a structural certificate computation.

    ``passed`` is true exactly when ``violations`` is empty.  Constants are
    None when the corresponding certificate was not requested or could not be
    derived.
    """

    kind: str
    violations: list
    growth_constant: float = None
    lipschitz_constant: float = None
    diffusion_lipschitz: float = None
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


_INF = math.inf


class _GrowthCert:
    __slots__ = ("c0", "cx", "cy", "mag", "state_free")

    def __init__(self, c0, cx, cy, mag, state_free):
        self.c0 = c0  # constant part of the affine bound
        self.cx = cx  # coefficient of ||x||_{*,t}
        self.cy = cy  # coefficient of the (per-neighbor or summed) ||y||_{*,t}
        self.mag = mag  # uniform magnitude bound, inf if unbounded
        self.state_free = state_free  # independent of x and y


def validate_linear_growth(spec: DriftSpec, horizon: float, degree_bound=None) -> ValidationReport:
    """Derive |b| ≤ C(1 + ||x|| + Σ_u ||y_u||) structurally.

    Every admissible node maps to an affine certificate; products need one
    uniformly bounded factor, and ``nbr_sum`` over expressions that mention
    anything besides y needs ``degree_bound``.
    """
    violations = []
    notes = []

    def bad(node, rule):
        violations.append((serialize(node), rule))
        return _GrowthCert(_INF, _INF, _INF, _INF, False)

    def cert(node):
        if isinstance(node, Num):
            v = abs(node.value)
            return _GrowthCert(v, 0.0, 0.0, v, True)
        if isinstance(node, TimeVar):
            return _GrowthCert(horizon, 0.0, 0.0, horizon, True)
        if isinstance(node, (OwnState, Lag, RunAvg, RunMaxNorm)):
            return _GrowthCert(0.0, 1.0, 0.0, _INF, False)
        if isinstance(node, NbrState):
            return _GrowthCert(0.0, 0.0, 1.0, _INF, False)
        if isinstance(node, Component):
            return cert(node.base)
        if isinstance(node, Neg):
            return cert(node.arg)
        if isinstance(node, Call1):
            c = cert(node.arg)
            return _GrowthCert(1.0, 0.0, 0.0, 1.0, c.state_free)
        if isinstance(node, Clamp):
            c = cert(node.arg)
            m = max(abs(node.lo), abs(node.hi))
            return _GrowthCert(m, 0.0, 0.0, m, c.state_free)
        if isinstance(node, BinOp):
            l, r = cert(node.left), cert(node.right)
            if node.op in "+-":
                return _GrowthCert(
                    l.c0 + r.c0,
                    l.cx + r.cx,
                    l.cy + r.cy,
                    l.mag + r.mag,
                    l.state_free and r.state_free,
                )
            if node.op == "*":
                if l.mag < _INF:
                    s = l.mag
                    return _GrowthCert(s * r.c0, s * r.cx, s * r.cy, s * r.mag, l.state_free and r.state_free)
                if r.mag < _INF:
                    s = r.mag
                    return _GrowthCert(s * l.c0, s * l.cx, s * l.cy, s * l.mag, l.state_free and r.state_free)
                return bad(node, "product of two unbounded expressions has no affine growth certificate")
            # division by a nonzero constant, guaranteed by the parser
            s = 1.0 / abs(_const_value(node.right))
            return _GrowthCert(s * l.c0, s * l.cx, s * l.cy, s * l.mag, l.state_free)
        if isinstance(node, NbrAgg):
            c = cert(node.arg)
            if node.kind == "avg":
                # average of per-neighbor bounds never needs the degree
                return _GrowthCert(c.c0, c.cx, c.cy, c.mag, c.state_free)
            if c.c0 > 0 or c.cx > 0:
                if degree_bound is None:
                    return bad(
                        node,
                        "nbr_sum over an expression with non-neighbor terms requires a degree bound",
                    )
                dg = float(degree_bound)
                return _GrowthCert(dg * c.c0, dg * c.cx, c.cy, dg * c.mag, c.state_free)
            # pure neighbor content: Σ_u bound folds into the Σ_u ||y_u|| slot
            mag = 0.0 if c.mag == 0.0 else _INF
            return _GrowthCert(c.c0, c.cx, c.cy, mag, c.state_free)
        raise TypeError(f"not an expression node: {node!r}")

    root = cert(spec.ast)
    growth = None
    if not violations:
        growth = max(root.c0, root.cx, root.cy)
    return ValidationReport(kind="growth", violations=violations, growth_constant=growth, notes=notes)


class _LipCert:
    __slots__ = ("kx", "ky", "mag", "state_free")

    def __init__(self, kx, ky, mag, state_free):
        self.kx = kx  # Lipschitz in ||x - x'||_{*,t}
        self.ky = ky  # Lipschitz in the degree-normalized neighbor average
        self.mag = mag
        self.state_free = state_free


def validate_lipschitz(spec: DriftSpec, diffusion=None, degree_bound=None, horizon: float = 1.0) -> ValidationReport:
    """Derive a global Lipschitz certificate in (own sup norm, normalized
    neighbor average).  Products require a constant or two bounded factors;
    ``nbr_sum`` requires a degree bound.  The constant scales with the horizon
    whenever ``t`` multiplies state, and the report notes that."""
    violations = []
    notes = []

    def bad(node, rule):
        violations.append((serialize(node), rule))
        return _LipCert(_INF, _INF, _INF, False)

    def cert(node):
        if isinstance(node, Num):
            return _LipCert(0.0, 0.0, abs(node.value), True)
        if isinstance(node, TimeVar):
            if "time-dependent coefficients: constant reported at the given horizon" not in notes:
                notes.append("time-dependent coefficients: constant reported at the given horizon")
            return _LipCert(0.0, 0.0, horizon, True)
        if isinstance(node, (OwnState, Lag, RunAvg, RunMaxNorm)):
            return _LipCert(1.0, 0.0, _INF, False)
        if isinstance(node, NbrState):
            return _LipCert(0.0, 1.0, _INF, False)
        if isinstance(node, Component):
            return cert(node.base)
        if isinstance(node, Neg):
            return cert(node.arg)
        if isinstance(node, Call1):
            c = cert(node.arg)
            return _LipCert(c.kx, c.ky, 1.0, c.state_free)
        if isinstance(node, Clamp):
            c = cert(node.arg)
            return _LipCert(c.kx, c.ky, max(abs(node.lo), abs(node.hi)), c.state_free)
        if isinstance(node, BinOp):
            l, r = cert(node.left), cert(node.right)
            if node.op in "+-":
                return _LipCert(l.kx + r.kx, l.ky + r.ky, l.mag + r.mag, l.state_free and r.state_free)
            if node.op == "*":
                if l.state_free:
                    return _LipCert(l.mag * r.kx, l.mag * r.ky, l.mag * r.mag, r.state_free)
                if r.state_free:
                    return _LipCert(r.mag * l.kx, r.mag * l.ky, l.mag * r.mag, l.state_free)
                if l.mag < _INF and r.mag < _INF:
                    kx = l.mag * r.kx + r.mag * l.kx
                    ky = l.mag * r.ky + r.mag * l.ky
                    return _LipCert(kx, ky, l.mag * r.mag, False)
                return bad(node, "product of unbounded state-dependent expressions is not globally Lipschitz")
            s = 1.0 / abs(_const_value(node.right))
            return _LipCert(s * l.kx, s * l.ky, s * l.mag, l.state_free)
        if isinstance(node, NbrAgg):
            c = cert(node.arg)
            if node.kind == "avg":
                return _LipCert(c.kx, c.ky, c.mag, c.state_free)
            if degree_bound is None:
                return bad(node, "nbr_sum requires a degree bound for a Lipschitz certificate")
            dg = float(degree_bound)
            return _LipCert(dg * c.kx, dg * c.ky, dg * c.mag if c.mag < _INF else _INF, c.state_free)
        raise TypeError(f"not an expression node: {node!r}")

    root = cert(spec.ast)
    lip = None if violations else max(root.kx, root.ky)
    dlip = None
    if diffusion is not None:
        dlip = diffusion.lipschitz_bound()
    return ValidationReport(
        kind="lipschitz",
        violations=violations,
        lipschitz_constant=lip,
        diffusion_lipschitz=dlip,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# diffusion specifications


class ConstantDiffusion:
    """Constant invertible diffusion matrix (d × d)."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("diffusion matrix must be square")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise ValueError("diffusion matrix must be invertible") from None
        if not np.all(np.isfinite(inv)):
            raise ValueError("diffusion matrix must be invertible")
        self.matrix = m
        self.inverse = inv
        # (σ σᵀ)⁻¹ applied to row vectors
        self._ssti = inv.T @ inv
        self.d = m.shape[0]

    def noise_increment(self, x, z):
        """σ z for row-stacked standard normals z of shape (R, d)."""
        if self.d == 1:
            return z * self.matrix[0, 0]
        return z @ self.matrix.T

    def sigma_inv_vec(self, x, b):
        if self.d == 1:
            return b * self.inverse[0, 0]
        return b @ self.inverse.T

    def sigma_sigmaT_inv_vec(self, x, b):
        if self.d == 1:
            return b * self._ssti[0, 0]
        return b @ self._ssti

    def operator_norm(self):
        return float(np.linalg.norm(self.matrix, 2))

    def inverse_norm(self):
        return float(np.linalg.norm(self.inverse, 2))

    def lipschitz_bound(self):
        return 0.0


class TanhDiagonalDiffusion:
    """Diagonal state-dependent diffusion σ_ii(x) = a_i + b_i tanh(x_i).

    Requires a_i > |b_i| ≥ 0 so that entries stay in [a_i − |b_i|, a_i + |b_i|],
    uniformly positive; the matrix is then invertible with uniformly bounded
    inverse, and 1-Lipschitz up to the factor max_i |b_i|.
    """

    def __init__(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be vectors of equal length")
        if not np.all(np.abs(b) >= 0) or not np.all(a > np.abs(b)):
            raise ValueError("require a_i > |b_i| >= 0 for uniform invertibility")
        self.a = a
        self.b = b
        self.d = a.shape[0]

    def entries(self, x):
        return self.a + self.b * np.tanh(x)

    def noise_increment(self, x, z):
        return self.entries(x) * z

    def sigma_inv_vec(self, x, v):
        return v / self.entries(x)

    def sigma_sigmaT_inv_vec(self, x, v):
        return v / self.entries(x) ** 2

    def operator_norm(self):
        return float(np.max(self.a + np.abs(self.b)))

    def inverse_norm(self):
        return float(1.0 / np.min(self.a - np.abs(self.b)))

    def lipschitz_bound(self):
        return float(np.max(np.abs(self.b)))


@dataclass(frozen=True)
class DiffusionTable:
    default: object = None
    overrides: dict = field(default_factory=dict)

    def for_vertex(self, v):
        spec = self.overrides.get(v, self.default)
        if spec is None:
            raise ValueError(f"no diffusion specified for vertex {v!r}")
        return spec

    @classmethod
    def uniform(cls, spec):
        return cls(default=spec)


def diffusion_from_config(cfg: dict):
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "constant":
        if "matrix" in params:
            return ConstantDiffusion(params["matrix"])
        return ConstantDiffusion([[float(params.get("value", 1.0))]])
    if kind == "tanh_diagonal":
        return TanhDiagonalDiffusion(params["a"], params["b"])
    raise ValueError(f"unknown diffusion kind {kind!r}")
