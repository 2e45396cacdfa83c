"""Drift and diffusion coefficient specifications.

Drifts are written in a small expression language over a vertex's own state
``x``, the neighbor state ``y`` (inside ``nbr_sum``/``nbr_avg`` only), the time
``t``, and history functionals ``lag(x, tau)``, ``runavg(x, w)``,
``runmax_norm(x)``.  Number literals and all constant arithmetic are finite:
the parser evaluates every constant operation it builds and rejects a
non-finite one, but keeps it in the tree (``2*3*x`` stays ``2 * 3 * x``), so
the canonical text of every tree parses again.

Each pass lives on the node classes: ``ev(ctx)`` evaluates a node, ``ser()``
gives its text and binding precedence, and ``affine()`` says whether the exact
Gaussian route can compile it.  A new node type implements all three.

Evaluation is vectorized: all state arguments carry leading batch axes (the
replicas, and optionally a block of vertices before them), so the simulation
engine can advance every replica of a group of vertices with a handful of
numpy operations per step.  History functionals read the path on the
simulation grid with left-constant interpolation and never look past ``t``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, fields

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
    "parse_drift",
    "serialize",
    "truncated_drift_family",
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

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG, _ATOM = 3, 4  # binding precedence of a leading minus and of an atom
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Node:
    """Shared defaults: generic children, and an ``affine()`` that holds for
    constants only.  A new node type implements ``ev``, ``ser`` and, where it
    can be affine in a state, ``affine``."""

    stateful = False  # reads x, y, t or the neighbor set itself

    def children(self):
        kids = (getattr(self, f.name) for f in fields(self))
        return tuple(k for k in kids if isinstance(k, _Node))

    def affine(self):
        """Affine in x and the y it reads; by default only a constant, which reads none of x, y and t."""
        return not any(n.stateful for n in _walk(self))


class _History(_Node):
    """Reads the own path on the grid points <= t, never past t."""

    stateful = True

    def ev(self, ctx):
        if ctx.own_hist is None or ctx.times is None:
            raise EvalError(f"{type(self).__name__} requires a path history")
        upto = int(np.searchsorted(ctx.times, ctx.t, side="right"))
        if upto == 0:
            raise EvalError("history does not cover the evaluation time")
        args = ctx.t, ctx.times[:upto], ctx.own_hist[..., :upto, :]
        return self.read(*args) if ctx.rows is None else self.take(*args, ctx.rows)

    def take(self, t, times, hist, rows):
        """``read`` for ``rows`` of a shared history, reduced over their span only."""
        lo = rows.min()
        return self.read(t, times, hist[lo : rows.max() + 1])[rows - lo]


@dataclass(frozen=True)
class Num(_Node):
    value: float

    def ev(self, ctx):
        return self.value

    def ser(self):
        return _fmt(self.value), _ATOM if self.value >= 0 else _NEG


@dataclass(frozen=True)
class OwnState(_Node):
    stateful = True

    def ev(self, ctx):
        return ctx.own

    def ser(self):
        return "x", _ATOM

    def affine(self):
        return True


@dataclass(frozen=True)
class NbrState(_Node):
    stateful = True

    def ev(self, ctx):
        return ctx.nbrs

    def ser(self):
        return "y", _ATOM

    def affine(self):
        return True


@dataclass(frozen=True)
class TimeVar(_Node):
    stateful = True

    def ev(self, ctx):
        return ctx.t

    def ser(self):
        return "t", _ATOM


@dataclass(frozen=True)
class Component(_Node):
    base: object
    index: int

    def ev(self, ctx):
        base = self.base.ev(ctx)
        if self.index >= base.shape[-1]:
            raise EvalError(f"component {self.index} out of range for dimension {base.shape[-1]}")
        return base[..., self.index : self.index + 1]

    def ser(self):
        return f"{_text(self.base, _ATOM)}[{self.index}]", _ATOM


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: object
    right: object

    def ev(self, ctx):
        return _OPS[self.op](self.left.ev(ctx), self.right.ev(ctx))

    def ser(self):
        p = _PREC[self.op]
        return f"{_text(self.left, p)} {self.op} {_text(self.right, p + 1)}", p

    def affine(self):
        l, r = self.left, self.right
        if self.op in "+-":
            return l.affine() and r.affine()
        # a product needs one constant factor; the parser keeps every denominator constant
        return (l.affine() and _const_value(r) is not None) or (self.op == "*" and r.affine() and _const_value(l) is not None)


@dataclass(frozen=True)
class Neg(_Node):
    arg: object

    def ev(self, ctx):
        return -self.arg.ev(ctx)

    def ser(self):
        return f"-{_text(self.arg, _ATOM)}", _NEG

    def affine(self):
        return self.arg.affine()


@dataclass(frozen=True)
class Call1(_Node):
    fn: str  # sin | cos | tanh
    arg: object

    def ev(self, ctx):
        return getattr(np, self.fn)(self.arg.ev(ctx))

    def ser(self):
        return f"{self.fn}({_text(self.arg)})", _ATOM


@dataclass(frozen=True)
class Clamp(_Node):
    lo: float
    hi: float
    arg: object

    def ev(self, ctx):
        return np.clip(self.arg.ev(ctx), self.lo, self.hi)

    def ser(self):
        return f"clamp({_fmt(self.lo)}, {_fmt(self.hi)})({_text(self.arg)})", _ATOM


@dataclass(frozen=True)
class NbrAgg(_Node):
    kind: str  # sum | avg
    arg: object
    stateful = True

    def ev(self, ctx):
        degree = len(ctx.nbrs)
        if degree == 0:
            return 0.0
        val = self.arg.ev(ctx)
        if not any(isinstance(n, NbrState) for n in _walk(self.arg)):
            val = np.broadcast_to(val, (degree,) + np.shape(val))  # a y-free value counts once per neighbor
        acc = val[0]
        for row in val[1:]:  # in neighbor order: a numpy sum over the axis may pair terms otherwise
            acc = acc + row
        return acc / degree if self.kind == "avg" else acc

    def ser(self):
        return f"nbr_{self.kind}({_text(self.arg)})", _ATOM

    def affine(self):
        return self.arg.affine()


@dataclass(frozen=True)
class Lag(_History):
    tau: float

    def read(self, t, times, hist):
        s = max(0.0, t - self.tau)
        idx = int(np.searchsorted(times, s, side="right")) - 1
        if idx < 0:
            raise EvalError("history is shorter than the requested lag window")
        return hist[..., idx, :]

    def ser(self):
        return f"lag(x, {_fmt(self.tau)})", _ATOM


@dataclass(frozen=True)
class RunAvg(_History):
    window: object  # positive float, or None meaning the whole past [0, t]

    def read(self, t, times, hist):
        lo = 0.0 if self.window is None else max(0.0, t - self.window)
        start = int(np.searchsorted(times, lo, side="left"))
        if start >= len(times):
            start = len(times) - 1
        total = hist[..., start, :].copy()  # in time order, so the bits ignore the layout
        for k in range(start + 1, hist.shape[-2]):
            total += hist[..., k, :]
        return np.divide(total, hist.shape[-2] - start, out=total)

    def ser(self):
        return f"runavg(x, {'t' if self.window is None else _fmt(self.window)})", _ATOM


@dataclass(frozen=True)
class RunMaxNorm(_History):
    def read(self, t, times, hist):
        norms = np.sqrt((hist**2).sum(axis=-1))
        return norms.max(axis=-1, keepdims=True)

    def take(self, t, times, hist, rows):
        # row by row: squaring the shared history at once would copy all of it
        return np.stack([self.read(t, times, hist[i]) for i in rows])

    def ser(self):
        return "runmax_norm(x)", _ATOM


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
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise ParseError("number too large for a float", m.start("num"))
            toks.append(("num", value, m.start("num")))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name"), m.start("name")))
        else:
            toks.append(("sym", m.group("sym"), m.start("sym")))
        i = m.end()
    toks.append(("end", None, n))
    return toks


# builtin -> (number of arguments, node class); clamp takes its operand in a second pair of parentheses
_BUILTINS = {
    "sin": (1, Call1), "cos": (1, Call1), "tanh": (1, Call1), "clamp": (2, Clamp),
    "nbr_sum": (1, NbrAgg), "nbr_avg": (1, NbrAgg), "lag": (2, Lag), "runavg": (2, RunAvg), "runmax_norm": (1, RunMaxNorm),
}


class _Parser:
    def __init__(self, src):
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
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {value or kind!r}, found {found}", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self, in_nbr):
        node = self.term(in_nbr)
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            _, op, pos = self.next()
            node = _binop(op, node, self.term(in_nbr), pos)
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
                    raise ParseError("division requires a finite constant denominator", pos)
                if c == 0.0:
                    raise ParseError("division by zero constant", pos)
                if not math.isfinite(1.0 / c):
                    raise ParseError("division by a constant whose reciprocal overflows", pos)
            node = _binop(op, node, rhs, pos)
        return node

    def unary(self, in_nbr):
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            arg = self.unary(in_nbr)
            return Num(-arg.value) if isinstance(arg, Num) else Neg(arg)
        return self.postfix(in_nbr)

    def postfix(self, in_nbr):
        node = self.primary(in_nbr)
        if self.peek()[:2] == ("sym", "["):
            _, _, pos = self.next()
            if not isinstance(node, (OwnState, NbrState)):
                raise ParseError("component access applies to x or y only", pos)
            _, idx, ipos = self.expect("num")
            if idx != int(idx) or idx < 0:
                raise ParseError("component index must be a nonnegative integer", ipos)
            self.expect("sym", "]")
            node = Component(node, int(idx))
        return node

    def args(self, n, pos, in_nbr):
        """``(e, ...)``: exactly n comma-separated expressions for the builtin at ``pos``."""
        self.expect("sym", "(")
        out = [self.expr(in_nbr)]
        while self.peek()[:2] == ("sym", ","):
            self.next()
            out.append(self.expr(in_nbr))
        self.expect("sym", ")")
        if len(out) != n:
            raise ParseError(f"expected {n} argument{'s' * (n > 1)}, found {len(out)}", pos)
        return out

    def primary(self, in_nbr):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val)
        if kind == "sym" and val == "(":
            node = self.expr(in_nbr)
            self.expect("sym", ")")
            return node
        if kind != "name":
            raise ParseError("unexpected end of input" if kind == "end" else f"unexpected token {val!r}", pos)
        if val == "x":
            return OwnState()
        if val == "y":
            if not in_nbr:
                raise ParseError("y is only meaningful inside nbr_sum/nbr_avg", pos)
            return NbrState()
        if val == "t":
            return TimeVar()
        if val not in _BUILTINS:
            raise ParseError(f"unknown identifier {val!r}", pos)
        arity, cls = _BUILTINS[val]
        if cls is NbrAgg and in_nbr:
            raise ParseError("neighbor aggregates cannot nest", pos)
        args = self.args(arity, pos, in_nbr or cls is NbrAgg)
        if cls is Call1 or cls is NbrAgg:
            return cls(val.removeprefix("nbr_"), *args)  # the function, or the aggregate's sum | avg
        if cls is Clamp:
            lo, hi = map(_const_value, args)
            if lo is None or hi is None:
                raise ParseError("clamp bounds must be finite constants", pos)
            if lo > hi:
                raise ParseError("clamp bounds must satisfy lo <= hi", pos)
            return Clamp(lo, hi, *self.args(1, pos, in_nbr))
        if not isinstance(args[0], OwnState):
            raise ParseError(f"{val} reads the own path x only", pos)
        if cls is RunMaxNorm:
            return RunMaxNorm()
        c = _const_value(args[1])
        if cls is Lag:
            if c is None or c < 0:
                raise ParseError("lag delay must be a nonnegative finite constant", pos)
            return Lag(c)
        if isinstance(args[1], TimeVar):
            return RunAvg(None)
        if c is None or c <= 0:
            raise ParseError("runavg window must be a positive finite constant or t", pos)
        return RunAvg(c)


def _binop(op, left, right, pos):
    """A BinOp node; a constant one stays in the tree, evaluated only to check that it is finite."""
    node = BinOp(op, left, right)
    if not any(n.stateful for n in _walk(node)) and not math.isfinite(node.ev(None)):
        raise ParseError("constant arithmetic overflows a float", pos)
    return node


def _const_value(node):
    """Finite value of a state- and time-independent subtree, else None."""
    if any(n.stateful for n in _walk(node)):
        return None
    value = float(node.ev(None))
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# serialization


def serialize(node) -> str:
    """Canonical text form; parse(serialize(ast)) reproduces the AST exactly."""
    return _text(node, 0)


def _text(node, min_prec=0):
    s, prec = node.ser()
    return f"({s})" if prec < min_prec else s


def _fmt(v):
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _walk(node):
    yield node
    for child in node.children():
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
        return any(isinstance(n, _History) for n in _walk(self.ast))

    @property
    def is_zero(self) -> bool:
        return isinstance(self.ast, Num) and self.ast.value == 0.0

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
    """Vectorized evaluation state for one vertex, or a group, at one time.

    Leading axes are batch axes: the own value is (R, d) for one vertex,
    (n, R, d) for n vertices.  ``nbrs`` is one block of shape
    ``(degree,) + own.shape``, row j holding the j-th neighbors in graph
    order; a stacked float array passes through without a copy, and a
    sequence of per-neighbor arrays is stacked.  Histories are (..., m, d),
    time at axis -2, aligned with ``times`` (grid points ≤ t, plus possibly
    later ones, which are masked out so evaluation never reads past t).  With
    ``rows``, ``own_hist`` is the shared (V, R, m, d) history, reduced over
    time on the span of ``rows`` only before they are taken."""

    __slots__ = ("t", "times", "own", "own_hist", "nbrs", "rows")

    def __init__(self, t, own, nbrs=(), times=None, own_hist=None, rows=None):
        self.t = float(t)
        self.own = own
        self.nbrs = np.asarray(nbrs, dtype=float).reshape((len(nbrs),) + own.shape)
        self.times = times
        self.own_hist = own_hist
        self.rows = rows


def evaluate_vectorized(spec: DriftSpec, ctx: EvalContext, d: int):
    """Evaluate for all replicas at once; result broadcasts to (..., R, d)."""
    val = np.asarray(spec.ast.ev(ctx), dtype=float)
    shape = ctx.own.shape[:-1] + (d,)
    return val if val.shape == shape else np.broadcast_to(val, shape)


# ---------------------------------------------------------------------------
# diffusion specifications


class ConstantDiffusion:
    """Constant invertible diffusion matrix (d × d)."""

    def __init__(self, matrix):
        m = np.atleast_2d(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("diffusion matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("diffusion matrix entries must be finite")
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise ValueError("diffusion matrix must be invertible") from None
        with np.errstate(over="ignore", invalid="ignore"):
            ssti = inv.T @ inv  # (σ σᵀ)⁻¹ applied to row vectors
        if not np.all(np.isfinite(ssti)):  # so is a non-finite inv
            raise ValueError("diffusion matrix must be invertible with a finite (σ σᵀ)⁻¹")
        self.matrix = m
        self.inverse = inv
        self._ssti = ssti
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
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("a and b must be finite")
        if not np.all(a > np.abs(b)):
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

