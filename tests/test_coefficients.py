import math
import random
import re

import numpy as np
import pytest

from netdiff.coefficients import (
    BinOp,
    Call1,
    Clamp,
    Component,
    ConstantDiffusion,
    DriftTable,
    EvalContext,
    EvalError,
    Lag,
    NbrAgg,
    NbrState,
    Neg,
    Num,
    OwnState,
    ParseError,
    RunAvg,
    RunMaxNorm,
    TanhDiagonalDiffusion,
    TimeVar,
    _binop,
    _const_value,
    evaluate_vectorized,
    parse_drift,
    serialize,
    truncated_drift_family,
    zero_drift,
)
from netdiff.graphs import path_graph, z_line


# ---------------------------------------------------------------- parsing


CATALOG = [
    "0",
    "x",
    "t",
    "x[0]",
    "nbr_sum(y) - 2*x",
    "nbr_sum(y - x)",
    "nbr_avg(y) - x",
    "tanh(x) * 3",
    "sin(t) + cos(x[1])",
    "clamp(-1, 1)(x - t)",
    "lag(x, 0.5) - runavg(x, 2) + runmax_norm(x)",
    "runavg(x, t)",
    "x / 4 - 1.5e2 * t",
    "-(x + t) * 0.25",
    "nbr_sum(tanh(y - x))",
]


@pytest.mark.parametrize("src", CATALOG)
def test_parse_serialize_round_trip(src):
    spec = parse_drift(src)
    text = spec.text
    again = parse_drift(text)
    assert again.ast == spec.ast
    assert again.text == text  # canonical form is a fixed point


def _random_ast(rng, depth, in_nbr, allow_nbr):
    leafs = ["num", "x", "t"]
    if in_nbr:
        leafs += ["y", "y"]
    if depth <= 0:
        kind = rng.choice(leafs)
    else:
        kinds = leafs + ["bin", "bin", "div", "neg", "call", "clamp", "comp"]
        if allow_nbr and not in_nbr:
            kinds += ["nbr", "nbr"]
        if not in_nbr:
            kinds += ["lag", "runavg", "runmax"]
        kind = rng.choice(kinds)
    if kind == "num":
        return Num(float(np.round(rng.uniform(-20, 20), 3)))
    if kind == "x":
        return OwnState()
    if kind == "y":
        return NbrState()
    if kind == "t":
        return TimeVar()
    if kind == "comp":
        base = NbrState() if in_nbr and rng.random() < 0.5 else OwnState()
        return __import__("netdiff.coefficients", fromlist=["Component"]).Component(base, int(rng.integers(0, 3)))
    if kind == "bin":
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, _random_ast(rng, depth - 1, in_nbr, allow_nbr), _random_ast(rng, depth - 1, in_nbr, allow_nbr))
    if kind == "div":
        denom = Num(float(np.round(rng.uniform(0.5, 5), 3)))
        return BinOp("/", _random_ast(rng, depth - 1, in_nbr, allow_nbr), denom)
    if kind == "neg":
        arg = _random_ast(rng, depth - 1, in_nbr, allow_nbr)
        if isinstance(arg, Num):
            return Num(-arg.value)
        return __import__("netdiff.coefficients", fromlist=["Neg"]).Neg(arg)
    if kind == "call":
        fn = rng.choice(["sin", "cos", "tanh"])
        return Call1(fn, _random_ast(rng, depth - 1, in_nbr, allow_nbr))
    if kind == "clamp":
        lo = float(np.round(rng.uniform(-5, 0), 2))
        hi = float(np.round(rng.uniform(0, 5), 2))
        return Clamp(lo, hi, _random_ast(rng, depth - 1, in_nbr, allow_nbr))
    if kind == "nbr":
        agg = rng.choice(["sum", "avg"])
        return NbrAgg(agg, _random_ast(rng, depth - 1, True, False))
    if kind == "lag":
        return Lag(float(np.round(rng.uniform(0, 2), 2)))
    if kind == "runavg":
        return RunAvg(None if rng.random() < 0.3 else float(np.round(rng.uniform(0.1, 2), 2)))
    return RunMaxNorm()


def test_parser_round_trip_200_random_expressions():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        ast = _random_ast(rng, int(rng.integers(1, 5)), False, True)
        text = serialize(ast)
        spec = parse_drift(text)
        assert spec.ast == ast, text


@pytest.mark.parametrize(
    "src",
    [
        "foo(x)",
        "y",  # neighbor state outside an aggregate
        "nbr_sum(nbr_avg(y))",
        "x / 0.0",
        "x / (2 - 2)",
        "clamp(-1, 1)(x / 0.0)",
        "clamp(1, -1)(x)",
        "lag(y, 1)",
        "lag(x, -1)",
        "runavg(x, 0)",
        "x[1.5]",
        "t[0]",
        "sin(x, 2)",
        "x +",
        "1 2",
        "x @ y",
        "1e400*x",  # non-finite constants
        "sin(1e400)*x",
        "x[1e400]",
        "x / 1e-320",
        "x / (1e308*10)",
        "clamp(-1e308*10, 1)(x)",
        "lag(x, 1e308*10)",
        "runavg(x, 1e308*10)",
        "sin(1e308*10)*x",  # constant arithmetic outside a folded position
    ],
)
def test_parse_errors(src):
    with pytest.raises(ParseError) as err:
        parse_drift(src)
    assert err.value.position >= 0


def test_unknown_identifier_reports_position():
    with pytest.raises(ParseError) as err:
        parse_drift("x + bogus")
    assert err.value.position == 4


# ---------------------------------------------------------------- the reference parser
# The parser as it was before every builtin read its arguments through one
# reader: a hand-written expect("(") ... expect(")") sequence per builtin.  It
# is kept here, unchanged but for the dropped node positions, as the oracle
# for the differential test below.

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/()\[\],]))"
)


def _reference_tokenize(src):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        m = _REFERENCE_TOKEN_RE.match(src, i)
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


class _ReferenceParser:
    def __init__(self, src):
        self.toks = _reference_tokenize(src)
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
            _, _, pos = self.next()
            arg = self.unary(in_nbr)
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Neg(arg)
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
            node = Component(node, int(idx))
        return node

    def primary(self, in_nbr):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(val)
        if kind == "sym" and val == "(":
            node = self.expr(in_nbr)
            self.expect("sym", ")")
            return node
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        if val == "x":
            return OwnState()
        if val == "y":
            if not in_nbr:
                raise ParseError("y is only meaningful inside nbr_sum/nbr_avg", pos)
            return NbrState()
        if val == "t":
            return TimeVar()
        if val in ("sin", "cos", "tanh"):
            self.expect("sym", "(")
            arg = self.expr(in_nbr)
            self.expect("sym", ")")
            return Call1(val, arg)
        if val == "clamp":
            self.expect("sym", "(")
            lo_node = self.expr(in_nbr)
            self.expect("sym", ",")
            hi_node = self.expr(in_nbr)
            self.expect("sym", ")")
            lo, hi = _const_value(lo_node), _const_value(hi_node)
            if lo is None or hi is None:
                raise ParseError("clamp bounds must be finite constants", pos)
            if lo > hi:
                raise ParseError("clamp bounds must satisfy lo <= hi", pos)
            self.expect("sym", "(")
            arg = self.expr(in_nbr)
            self.expect("sym", ")")
            return Clamp(lo, hi, arg)
        if val in ("nbr_sum", "nbr_avg"):
            if in_nbr:
                raise ParseError("neighbor aggregates cannot nest", pos)
            self.expect("sym", "(")
            arg = self.expr(True)
            self.expect("sym", ")")
            return NbrAgg(val[4:], arg)
        if val == "lag":
            self.expect("sym", "(")
            self.expect("name", "x")
            self.expect("sym", ",")
            tau_node = self.expr(in_nbr)
            self.expect("sym", ")")
            tau = _const_value(tau_node)
            if tau is None or tau < 0:
                raise ParseError("lag delay must be a nonnegative finite constant", pos)
            return Lag(tau)
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
                    raise ParseError("runavg window must be a positive finite constant or t", pos2)
            self.expect("sym", ")")
            return RunAvg(window)
        if val == "runmax_norm":
            self.expect("sym", "(")
            self.expect("name", "x")
            self.expect("sym", ")")
            return RunMaxNorm()
        raise ParseError(f"unknown identifier {val!r}", pos)


def _reference_parse(src):
    p = _ReferenceParser(src)
    node = p.expr(False)
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return node


_NAMES = ("x", "y", "t", "sin", "cos", "tanh", "clamp", "nbr_sum", "nbr_avg", "lag", "runavg", "runmax_norm", "foo")
_NUMBERS = ("0", "1", "2.5", ".5", "3.", "01", "0.0", "2e-3", "1e308", "1e400", "1e-320")
_SYMBOLS = ("+", "-", "*", "/", "(", ")", "[", "]", ",")
_SPACES = (" ", " ", " ", "", "\t", "\n")


def _random_tokens(rng, depth):
    """A near-grammatical token list: builtins with 0-3 arguments, history arguments often x or t."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        tok = rng.choice(_NAMES[:3] + _NUMBERS)
        return [tok, "[", rng.choice(_NUMBERS), "]"] if rng.random() < 0.1 else [tok]
    if r < 0.45:
        return _random_tokens(rng, depth - 1) + [rng.choice("+-*/")] + _random_tokens(rng, depth - 1)
    if r < 0.55:
        return ["-"] + _random_tokens(rng, depth - 1)
    if r < 0.65:
        return ["("] + _random_tokens(rng, depth - 1) + [")"]
    name = rng.choice(_NAMES[3:])
    toks = [name, "("]
    for i in range(rng.choice((0, 1, 1, 2, 2, 3))):
        bare = rng.choice((["x"], ["(", "x", ")"], ["t"], ["(", "t", ")"]))
        toks += ([","] if i else []) + (bare if rng.random() < 0.4 else _random_tokens(rng, depth - 1))
    toks.append(")")
    if name == "clamp":
        toks += ["("] + _random_tokens(rng, depth - 1) + [")"]
    return toks


def _random_source(rng):
    toks = _random_tokens(rng, rng.randrange(1, 5))
    for _ in range(rng.choice((0, 0, 1, 2))):  # delete, insert or replace a token
        i = rng.randrange(len(toks) + 1)
        new = [rng.choice(_NAMES + _NUMBERS + _SYMBOLS)]
        toks[i : i + rng.randrange(2)] = new if rng.random() < 0.7 else []
    return "".join(tok + rng.choice(_SPACES) for tok in toks)


def _strip_parenthesised_x_t(src):
    """``src`` with each ``(x)`` or ``(t)`` that is not a call's parentheses written bare."""
    toks = [m.group().strip() for m in _REFERENCE_TOKEN_RE.finditer(src)]
    i = 0
    while i + 2 < len(toks):
        call = i > 0 and (toks[i - 1] == ")" or toks[i - 1].isidentifier())
        if toks[i] == "(" and toks[i + 1] in ("x", "t") and toks[i + 2] == ")" and not call:
            toks[i : i + 3] = [toks[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return " ".join(toks)


def test_parser_agrees_with_the_reference_parser_on_random_strings():
    rng = random.Random(31)
    accepted = widened = 0
    for _ in range(20_000):
        src = _random_source(rng)
        try:
            want = _reference_parse(src)
        except ParseError:
            want = None
        try:
            got = parse_drift(src).ast
        except ParseError as err:
            assert 0 <= err.position <= len(src), src
            assert want is None, src
            continue
        if want is None:  # the one widening: a parenthesised x or t argument
            want = _reference_parse(_strip_parenthesised_x_t(src))
            widened += 1
        assert got == want and serialize(got) == serialize(want), src
        accepted += 1
    assert accepted >= 2000 and widened >= 10, (accepted, widened)


@pytest.mark.parametrize(
    "src, bare",
    [
        ("lag((x), 1)", "lag(x, 1)"),
        ("runavg(x, (t))", "runavg(x, t)"),
        ("runavg(((x)), ( t ))", "runavg(x, t)"),
        ("runmax_norm((x))", "runmax_norm(x)"),
        ("nbr_sum(y) - lag((x), 0)", "nbr_sum(y) - lag(x, 0)"),
    ],
)
def test_a_parenthesised_x_or_t_argument_stands_for_itself(src, bare):
    assert parse_drift(src).ast == parse_drift(bare).ast
    assert parse_drift(src).text == bare
    with pytest.raises(ParseError):  # the reference parser wanted the bare token
        _reference_parse(src)


@pytest.mark.parametrize("src", ["", "x +", "sin(", "nbr_sum(y", "lag(x, 1"])
def test_running_out_of_input_says_so(src):
    with pytest.raises(ParseError, match="end of input") as err:
        parse_drift(src)
    assert err.value.position == len(src)


@pytest.mark.parametrize(
    "src, pos",
    [("sin(x, 2)", 0), ("x + lag(x)", 4), ("clamp(0)(x)", 0), ("clamp(0, 1)(x, 2)", 0), ("-runmax_norm(x, x)", 1)],
)
def test_a_wrong_argument_count_is_reported_at_the_call(src, pos):
    with pytest.raises(ParseError, match="argument") as err:
        parse_drift(src)
    assert err.value.position == pos


# ---------------------------------------------------------------- evaluation


def test_eval_examples():
    spec = parse_drift("nbr_sum(y - x)")
    ctx = EvalContext(1.0, np.array([[1.0]]), [np.array([[2.0]]), np.array([[0.0]])])
    assert evaluate_vectorized(spec, ctx, 1).tolist() == [[0.0]]

    assert evaluate_vectorized(zero_drift(), EvalContext(0.3, np.array([[1.0]])), 1).tolist() == [[0.0]]

    times = np.linspace(0, 2, 9)
    const = np.full((1, times.size, 1), 3.25)
    ctx = EvalContext(2.0, const[:, -1], times=times, own_hist=const)
    assert evaluate_vectorized(parse_drift("runavg(x, t)"), ctx, 1)[0] == pytest.approx([3.25])


def test_eval_lag_and_clamping_at_zero():
    times = np.array([0.0, 0.25, 0.5, 0.75])
    hist = np.array([1.0, 2.0, 3.0, 4.0])[None, :, None]

    def lag(tau, t):
        ctx = EvalContext(t, hist[:, 0], times=times, own_hist=hist)
        return evaluate_vectorized(parse_drift(f"lag(x, {tau})"), ctx, 1).tolist()

    assert lag(0.5, 0.75) == [[2.0]]
    # left-constant: the path at 0.4 is its value at grid point 0.25
    assert lag(0.3, 0.7) == [[2.0]]
    # lag reaching before time 0 clamps to the path start
    assert lag(5, 0.75) == [[1.0]]


def test_eval_runmax_norm_multidim():
    times = np.array([0.0, 1.0, 2.0])
    hist = np.array([[[3.0, 4.0], [0.0, 1.0], [1.0, 1.0]]])
    ctx = EvalContext(2.0, hist[:, -1], times=times, own_hist=hist)
    assert evaluate_vectorized(parse_drift("runmax_norm(x)"), ctx, 2)[0] == pytest.approx([5.0, 5.0])


def test_eval_component_and_arithmetic():
    ctx = EvalContext(0.0, np.array([[2.0, -1.0]]))
    got = evaluate_vectorized(parse_drift("x[1] * 4 + x / 2"), ctx, 2)[0]
    assert got == pytest.approx([-4 + 1.0, -4 - 0.5])


def test_eval_component_out_of_range():
    with pytest.raises(EvalError, match="component 3 out of range"):
        evaluate_vectorized(parse_drift("x[3]"), EvalContext(0.0, np.array([[1.0]])), 1)


def test_progressive_measurability():
    rng = np.random.default_rng(8)
    specs = [
        parse_drift(s)
        for s in [
            "lag(x, 0.3) + runavg(x, 0.5) * runmax_norm(x)",
            "nbr_sum(y - x) + runavg(x, t)",
            "tanh(lag(x, 0.5))",
        ]
    ]
    times = np.linspace(0, 2, 17)
    cut = 9  # evaluate at times[cut], on 20 replicas at once
    own = rng.normal(size=(20, times.size, 1))
    nbrs = rng.normal(size=(2, 20, 1))
    own2 = own.copy()
    own2[:, cut + 1 :] = rng.normal(size=own2[:, cut + 1 :].shape) * 50
    for spec in specs:
        base = evaluate_vectorized(spec, EvalContext(times[cut], own[:, cut], nbrs, times=times, own_hist=own), 1)
        again = evaluate_vectorized(spec, EvalContext(times[cut], own2[:, cut], nbrs, times=times, own_hist=own2), 1)
        np.testing.assert_array_equal(again, base)


def test_eval_history_required():
    spec = parse_drift("lag(x, 0.1)")
    hist = np.ones((1, 1, 1))
    with pytest.raises(EvalError, match="does not cover the evaluation time"):
        evaluate_vectorized(spec, EvalContext(-1.0, hist[:, 0], times=np.array([0.0]), own_hist=hist), 1)
    with pytest.raises(EvalError, match="requires a path history"):
        evaluate_vectorized(spec, EvalContext(0.0, hist[:, 0]), 1)


def test_vectorized_matches_scalar_eval():
    rng = np.random.default_rng(5)
    spec = parse_drift("nbr_sum(y - x) + 0.5 * lag(x, 0.4) - runavg(x, 1)")
    times = np.linspace(0, 1, 9)
    R, d = 6, 1
    own_hist = rng.normal(size=(R, times.size, d))
    nbr_hist = [rng.normal(size=(R, times.size, d)) for _ in range(2)]
    t = times[-1]

    def ctx(r):
        nbrs = [h[r, -1, :] for h in nbr_hist]
        return EvalContext(t, own_hist[r, -1, :], nbrs, times=times, own_hist=own_hist[r])

    vec = evaluate_vectorized(spec, ctx(slice(None)), d)
    for r in range(R):
        np.testing.assert_array_equal(vec[r : r + 1], evaluate_vectorized(spec, ctx(slice(r, r + 1)), d))


Y_FREE = ["nbr_sum(x)", "nbr_avg(1)", "nbr_sum(t)", "nbr_sum(runmax_norm(x))"]
Y_READING = ["nbr_sum(y - x)", "nbr_avg(sin(2*y) * lag(x, 0.3))", "nbr_sum(y[1] * runmax_norm(x))"]


@pytest.mark.parametrize("src", Y_FREE + Y_READING)
def test_nbr_aggregate_matches_a_per_neighbor_loop(src):
    # the reference evaluates the argument once per neighbor, adds the values
    # in neighbor order and divides once; a y-free value counts once per neighbor
    rng = np.random.default_rng(31)
    times = np.linspace(0, 1, 5)
    t, d = times[3], 2
    hist = rng.normal(size=(6, 5, times.size, d))  # (V, R, m, d)
    group = np.array([1, 4])
    own = hist[group, :, 3]
    spec = parse_drift(src)
    agg = spec.ast
    for degree in range(5):
        block = rng.normal(size=(degree,) + own.shape)
        for kw in ({"own_hist": hist[group]}, {"own_hist": hist, "rows": group}):
            acc = 0.0
            for j in range(degree):
                val = agg.arg.ev(EvalContext(t, own, block[j : j + 1], times=times, **kw))
                val = val[0] if src in Y_READING else val
                acc = val if j == 0 else acc + val
            if agg.kind == "avg" and degree:
                acc = acc / degree
            want = np.broadcast_to(np.asarray(acc, dtype=float), own.shape).tobytes()
            for nbrs in (list(block), block):
                got = evaluate_vectorized(spec, EvalContext(t, own, nbrs, times=times, **kw), d)
                assert got.shape == own.shape and got.tobytes() == want, (src, degree, kw.keys())


def test_nbr_sum_adds_in_neighbor_order():
    # from degree 8 on, np.add.reduce over one state pairs the terms, which moves the last bits
    rng = np.random.default_rng(3)
    for _ in range(20):
        block = rng.normal(size=(12, 1, 1)) * 10 ** rng.uniform(-3, 3, size=(12, 1, 1))
        want = block[0]
        for row in block[1:]:
            want = want + row
        got = evaluate_vectorized(parse_drift("nbr_sum(y)"), EvalContext(0.0, np.zeros((1, 1)), block), 1)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- diffusions


def test_constant_diffusion_validation():
    with pytest.raises(ValueError):
        ConstantDiffusion([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):  # its inverse, 0, was accepted
        ConstantDiffusion([[np.inf]])
    with pytest.raises(ValueError, match="finite"):  # its (σ σᵀ)⁻¹ overflowed with only a warning
        ConstantDiffusion([[1e-200]])
    d = ConstantDiffusion([[2.0, 0.0], [0.0, 0.5]])
    z = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(d.noise_increment(None, z), [[2.0, 1.0]])
    np.testing.assert_allclose(d.sigma_inv_vec(None, z), [[0.5, 4.0]])
    np.testing.assert_allclose(d.sigma_sigmaT_inv_vec(None, z), [[0.25, 8.0]])


def test_tanh_diagonal_validation_and_bounds():
    with pytest.raises(ValueError):
        TanhDiagonalDiffusion([1.0], [1.0])
    with pytest.raises(ValueError):
        TanhDiagonalDiffusion([0.5], [0.6])
    with pytest.raises(ValueError, match="finite"):
        TanhDiagonalDiffusion([np.inf], [0.0])
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    spec = TanhDiagonalDiffusion(a, b)
    rng = np.random.default_rng(10)
    hi = np.max(a + np.abs(b))
    lo_inv = 1.0 / np.min(a - np.abs(b))
    for _ in range(1000):
        x = rng.normal(size=(2,)) * 10
        entries = spec.entries(x)
        assert np.max(np.abs(entries)) <= hi + 1e-12
        assert 1.0 / np.min(np.abs(entries)) <= lo_inv + 1e-12


# ---------------------------------------------------------------- tables


def test_drift_table_dispatch():
    table = DriftTable.from_strings("x", {2: "0", 3: "t"})
    assert table.for_vertex(1).text == "x"
    assert table.for_vertex(2).is_zero
    assert table.for_vertex(3).text == "t"


def test_truncated_drift_family_p9():
    g = path_graph(9, root=5)
    base = parse_drift("nbr_sum(y) - 2*x")
    fam = truncated_drift_family(base, g, 4)
    for v in (3, 4, 5, 6, 7):
        assert fam.for_vertex(v) == base
    for v in (1, 2, 8, 9):
        assert fam.for_vertex(v).is_zero
    assert fam.for_vertex(99) is None


def test_truncated_drift_family_levels_agree_inside():
    base = parse_drift("nbr_sum(y - x)")
    line = z_line()
    f4 = truncated_drift_family(base, line, 4)
    f6 = truncated_drift_family(base, line, 6)
    for v in range(-2, 3):
        assert f4.for_vertex(v) == f6.for_vertex(v) == base


def test_truncated_drift_family_guards():
    with pytest.raises(ValueError):
        truncated_drift_family(parse_drift("x"), path_graph(9, root=5), 3)
    with pytest.raises(ValueError):
        truncated_drift_family(parse_drift("x"), path_graph(9), 4)


AFFINE = ["x", "1", "tanh(2)", "-x", "3*x", "x*3", "x/4", "(1 + 2)*x", "sin(1)*x", "nbr_sum(y)",
          "nbr_avg(2*y - x)", "x - nbr_avg(y) + 1", "-(x - nbr_sum(y))/4"]
NOT_AFFINE = ["t", "sin(t)", "t*x", "x*x", "x*nbr_avg(y)", "nbr_sum(y*y)", "tanh(x)", "clamp(-1, 1)(x)",
              "lag(x, 1)", "runavg(x, t)", "runmax_norm(x)", "x[0]", "1/2*x + x[0]"]


def test_affine_subset():
    for text in AFFINE + NOT_AFFINE:
        assert parse_drift(text).ast.affine() == (text in AFFINE), text
