"""Tests for conditional-independence reports on exact and simulated sources."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from scipy import stats

import netdiff.gaussian
import netdiff.independence
from netdiff.coefficients import ConstantDiffusion, parse_drift
from netdiff.engine import PathEnsemble, simulate, simulate_driftless
from netdiff.gaussian import (
    StackedCovariance,
    _precision_block_maxima,
    build_linear_system,
    covariance_at,
    path_covariance,
    path_precision_blocks,
)
from netdiff.graphs import Graph, boundary, boundary2, cycle_graph, grid_graph, path_graph
from netdiff.independence import (
    _check_triple,
    _features,
    _partial_correlation,
    exact_gaussian_ci,
    mrf_order_scan,
    order_summary,
    partial_correlation_ci_test,
    reports_to_csv,
    reports_to_json,
)
from netdiff.initials import PointMass

UNIT = ConstantDiffusion([[1.0]])
P5 = path_graph(5)
P5_SYS = build_linear_system(P5, -2.0)
P5_DRIFT = parse_drift("nbr_sum(y) - 2*x")


def euler_stacked(steps=32, t=2.0):
    return path_covariance(P5_SYS, np.linspace(0.0, t, steps + 1), scheme="euler")


def single_time_stacked(sys, t):
    cov = covariance_at(sys, t)
    return StackedCovariance(cov.sigma, cov.labels, (t,), "exact")


def test_second_boundary_blocks_paths():
    rep = exact_gaussian_ci(euler_stacked(), [1], [2, 3], [4, 5])
    assert rep.verdict == "independent"
    assert rep.statistic < 1e-10
    assert rep.mode == "exact_gaussian"
    assert rep.threshold == 1e-8


def test_first_boundary_fails_on_paths():
    rep = exact_gaussian_ci(euler_stacked(), [1], [2], [3, 4, 5])
    assert rep.verdict == "dependent"
    assert rep.statistic > 1e-4


def test_exact_test_symmetric_in_a_b():
    st = euler_stacked()
    for a, s, b in ([(1,), (2, 3), (4, 5)], [(1,), (2,), (3, 4, 5)]):
        fwd = exact_gaussian_ci(st, a, s, b)
        rev = exact_gaussian_ci(st, b, s, a)
        assert fwd.statistic == rev.statistic
        assert fwd.verdict == rev.verdict


def test_time_zero_product_always_independent():
    rng = np.random.default_rng(5)
    labels = (1, 2, 3, 4, 5)
    st0 = StackedCovariance(np.diag(rng.uniform(0.5, 2.0, 5)), labels, (0.0,), "exact")
    for a, b in itertools.permutations(labels, 2):
        rest = tuple(v for v in labels if v not in (a, b))
        for s in ((), rest, rest[:2]):
            rep = exact_gaussian_ci(st0, [a], s, [b])
            assert rep.verdict == "independent"
            assert rep.statistic < 1e-14


def test_marginal_statistic_is_partial_correlation():
    # conditional covariance of (X1, X3) given X2 at t=2 is
    # [[0.2481, -0.0058], [-0.0058, 0.3397]]; the block statistic of the
    # single-time marginal equals the implied partial correlation
    rep = exact_gaussian_ci(single_time_stacked(P5_SYS, 2.0), [1], [2], [3])
    assert rep.verdict == "dependent"
    assert rep.statistic == pytest.approx(0.0058 / np.sqrt(0.2481 * 0.3397), abs=5e-4)


def test_singular_marginal_raises():
    st = StackedCovariance(np.ones((4, 4)), (1, 2, 3, 4), (1.0,), "exact")
    with pytest.raises(np.linalg.LinAlgError):
        exact_gaussian_ci(st, [1], [2], [3])


def test_triple_validation():
    st = euler_stacked(8)
    with pytest.raises(ValueError, match="overlap"):
        exact_gaussian_ci(st, [1, 2], [2], [3])
    with pytest.raises(ValueError, match="nonempty"):
        exact_gaussian_ci(st, [], [2], [3])
    with pytest.raises(ValueError, match="not in"):
        exact_gaussian_ci(st, [1], [2], [9])
    with pytest.raises(ValueError, match="duplicate"):
        exact_gaussian_ci(st, [1, 1], [2], [3])


def test_partial_correlation_independent_given_second_boundary():
    # euler stepping with the stored grid as the dynamics grid, so the
    # sampled law has the exact two-clique factorization
    grid = np.linspace(0.0, 2.0, 9)
    hits = 0
    for seed in range(20):
        ens = simulate(P5, P5_DRIFT, UNIT, PointMass(0.0), grid, 4000, seed=seed)
        rep = partial_correlation_ci_test(ens, [1], [2, 3], [4, 5], grid[1:], alpha=0.01)
        assert rep.verdict in ("independent", "dependent")
        hits += rep.verdict == "independent"
    assert hits >= 19


def test_partial_correlation_detects_marginal_dependence():
    # fine substeps so the time-2 marginal is near the continuum, where
    # the (1,3)-given-2 partial correlation is about -0.018
    grid = np.array([0.0, 1.0, 2.0])
    ens = simulate(P5, P5_DRIFT, UNIT, PointMass(0.0), grid, 100_000, seed=7, substeps=128)
    rep = partial_correlation_ci_test(ens, [1], [2], [3], [2.0], alpha=0.01)
    assert rep.verdict == "dependent"
    assert rep.p_value <= 0.01
    assert 0.008 < rep.statistic < 0.03
    assert rep.n_features == 3
    assert rep.n_replicas == 100_000


def test_calibration_under_true_independence():
    grid = np.array([0.0, 0.5, 1.0])
    g3 = path_graph(3)
    runs = 200
    fp05 = 0
    fp01 = 0
    for seed in range(runs):
        ens = simulate_driftless(g3, UNIT, PointMass(0.0), grid, 200, seed=seed)
        rep = partial_correlation_ci_test(ens, [1], [2], [3], [1.0], alpha=0.05)
        fp05 += rep.verdict == "dependent"
        fp01 += rep.p_value <= 0.01
    lo, hi = stats.binom.interval(0.99, runs, 0.05)
    assert lo <= fp05 <= hi
    assert (runs - fp01) / runs >= 0.95


def test_replica_floor():
    grid = np.linspace(0.0, 1.0, 5)
    ens = simulate_driftless(path_graph(3), UNIT, PointMass(0.0), grid, 500, seed=1)
    with pytest.raises(ValueError, match="replicas"):
        partial_correlation_ci_test(ens, [1], [2], [3], grid[1:], alpha=0.01)


def test_constant_feature_is_inconclusive():
    # the time-0 snapshot of a point-mass start duplicates the intercept
    grid = np.linspace(0.0, 1.0, 5)
    ens = simulate_driftless(path_graph(3), UNIT, PointMass(0.0), grid, 1000, seed=2)
    rep = partial_correlation_ci_test(ens, [1], [2], [3], [0.0, 1.0], alpha=0.01)
    assert rep.verdict == "inconclusive"
    assert np.isnan(rep.statistic)


def lstsq_oracle(ens, a, s, b, feature_grid, alpha):
    """The regression route, the reference for the ensemble kernel: matrix_rank
    of [1, S] and two lstsq over all R rows.  Returns (verdict, statistic, p_value)."""
    ks = [ens.time_index(t) for t in feature_grid]

    def features(labels):
        vi = [ens.labels.index(lab) for lab in labels]
        return ens.values[:, vi][:, :, ks, :].reshape(ens.n_replicas, -1)

    fa, fs, fb = features(a), features(s), features(b)
    n = ens.n_replicas
    n_pairs = fa.shape[1] * fb.shape[1]
    z = np.column_stack([np.ones(n), fs])
    if np.linalg.matrix_rank(z) < z.shape[1]:
        return "inconclusive", float("nan"), None
    ra = fa - z @ np.linalg.lstsq(z, fa, rcond=None)[0]
    rb = fb - z @ np.linalg.lstsq(z, fb, rcond=None)[0]
    ra = ra - ra.mean(axis=0)
    rb = rb - rb.mean(axis=0)
    na = np.sqrt((ra * ra).sum(axis=0))
    nb = np.sqrt((rb * rb).sum(axis=0))
    if np.any(na <= 1e-8 * np.sqrt((fa * fa).sum(axis=0)) + 1e-300) or np.any(
        nb <= 1e-8 * np.sqrt((fb * fb).sum(axis=0)) + 1e-300
    ):
        return "inconclusive", float("nan"), None
    r = np.clip((ra.T @ rb) / np.outer(na, nb), -1.0 + 1e-15, 1.0 - 1e-15)
    z_stat = np.abs(np.arctanh(r)) * np.sqrt(n - fs.shape[1] - 3)
    p = float(min(1.0, 2.0 * stats.norm.sf(z_stat).min() * n_pairs))
    return ("independent" if p > alpha else "dependent"), float(np.abs(r).max()), p


@pytest.mark.parametrize(
    "g, drift, steps, replicas",
    [
        (P5, "nbr_sum(y) - 2*x", 8, 10_000),
        (grid_graph(3, 3), "nbr_avg(y) - x", 8, 5000),
        (P5, "2*nbr_sum(sin(2*y)) - x", 4, 10_000),
    ],
    ids=["path5", "grid3x3", "sin"],
)
def test_ensemble_scan_matches_the_lstsq_oracle(g, drift, steps, replicas):
    grid = np.linspace(0.0, 2.0, steps + 1)
    ens = simulate(g, parse_drift(drift), UNIT, PointMass(0.0), grid, replicas, seed=11)
    reps = mrf_order_scan(g, ens, alpha=1e-4)
    assert len(reps) > 1
    for r in reps:
        verdict, statistic, p = lstsq_oracle(ens, r.a, r.s, r.b, grid[1:], 1e-4)
        assert r.verdict == verdict
        assert r.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert r.p_value == pytest.approx(p, rel=1e-9, abs=0.0)


def test_normal_tails_match_scipy_stats():
    # _partial_correlation reads the tails from scipy.special, bit for bit the values of scipy.stats.norm
    from scipy.special import ndtr, ndtri

    q = np.concatenate([np.logspace(-300, np.log10(0.5), 20_000), np.linspace(1e-6, 0.999, 5000)])
    z = np.concatenate([np.linspace(0.0, 40.0, 20_000), np.abs(np.arctanh(np.linspace(-1 + 1e-15, 1 - 1e-15, 5001)))])
    assert np.array_equal(-ndtri(q), stats.norm.isf(q))
    assert np.array_equal(ndtr(-z), stats.norm.sf(z))


def test_linear_feature_is_inconclusive():
    # vertex 1 is an exact affine function of vertex 2, and vertex 4 of vertex 3
    rng = np.random.default_rng(4)
    store = rng.standard_normal((3, 5, 1000, 1))
    store[:, 0] = 2.0 * store[:, 1] + 1.0
    store[:, 3] = -0.5 * store[:, 2]
    ens = PathEnsemble(path_graph(5), np.array([0.0, 0.5, 1.0]), store.transpose(2, 1, 0, 3), 4, {}, "P")
    for a, s, b in [([1], [2], [5]), ([5], [3, 4], [1])]:
        rep = partial_correlation_ci_test(ens, a, s, b, [0.5, 1.0], alpha=0.01)
        assert rep.verdict == "inconclusive"
        assert np.isnan(rep.statistic)
        assert lstsq_oracle(ens, rep.a, rep.s, rep.b, [0.5, 1.0], 0.01)[0] == "inconclusive"
    assert partial_correlation_ci_test(ens, [1], [3], [5], [0.5, 1.0], alpha=0.01).verdict == "independent"


def test_alpha_validation():
    grid = np.array([0.0, 1.0])
    ens = simulate_driftless(path_graph(3), UNIT, PointMass(0.0), grid, 500, seed=3)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            partial_correlation_ci_test(ens, [1], [2], [3], [1.0], alpha=alpha)


def test_order_scan_exact_source():
    st = euler_stacked()
    reps2 = mrf_order_scan(P5, st, orders=(2,))
    assert {r.a for r in reps2} == {(1,), (2,), (4,), (5,), (1, 2), (4, 5)}
    assert all(r.verdict == "independent" for r in reps2)
    assert order_summary(reps2) == {2: "pass"}

    reps1 = mrf_order_scan(P5, st, orders=(1,))
    assert any(r.a == (1,) and r.verdict == "dependent" for r in reps1)
    assert order_summary(reps1) == {1: "fail"}

    both = mrf_order_scan(P5, st)
    assert order_summary(both) == {1: "fail", 2: "pass"}


def sliced_marginal(stacked, a, s, b):
    """Label-ordered vertices of (A, S, B) and their explicitly sliced covariance."""
    pos = {lab: i for i, lab in enumerate(stacked.labels)}
    keep = sorted(a + s + b, key=pos.__getitem__)
    rows = np.arange(stacked.matrix.shape[0])
    cols = np.concatenate([rows[stacked.vertex_slice(v)] for v in keep])
    return keep, stacked.matrix[np.ix_(cols, cols)]


def marginal_statistic(stacked, a, s, b):
    """The exact statistic recomputed from an explicitly sliced marginal."""
    keep, sub = sliced_marginal(stacked, a, s, b)
    _, rel, _ = _precision_block_maxima(sub, stacked.n_times)
    at = {v: i for i, v in enumerate(keep)}
    return float(rel[np.ix_([at[u] for u in a], [at[v] for v in b])].max())


@pytest.mark.parametrize(
    "g, shift, steps",
    [(path_graph(6), -2.0, 12), (grid_graph(3, 3), -4.5, 6)],
    ids=["path6", "grid3x3"],
)
def test_order_scan_statistics_match_sliced_marginals(g, shift, steps):
    st = path_covariance(build_linear_system(g, shift), np.linspace(0.0, 1.0, steps + 1))
    reps = mrf_order_scan(g, st)
    assert order_summary(reps) == {1: "fail", 2: "pass"}
    for r in reps:
        assert r.statistic == marginal_statistic(st, r.a, r.s, r.b)


def test_partial_triple_matches_its_own_marginal():
    st = path_covariance(build_linear_system(path_graph(6), -2.0), np.linspace(0.0, 1.0, 13))
    for a, s, b in [((1,), (2,), (3,)), ((2,), (3, 4), (5,)), ((1, 2), (), (6,))]:
        rep = exact_gaussian_ci(st, a, s, b)
        assert rep.statistic == marginal_statistic(st, a, s, b)
        # the same marginal handed over whole takes the shared-factorization branch
        keep, sub = sliced_marginal(st, a, s, b)
        whole = StackedCovariance(sub, tuple(keep), st.times, st.scheme)
        assert exact_gaussian_ci(whole, a, s, b).statistic == rep.statistic


def test_scan_and_blocks_share_one_full_factorization(monkeypatch):
    st = euler_stacked(8)
    full = []

    def counting(cov, m):
        if cov.shape == st.matrix.shape:
            full.append(m)
        return _precision_block_maxima(cov, m)

    monkeypatch.setattr(netdiff.gaussian, "_precision_block_maxima", counting)
    monkeypatch.setattr(netdiff.independence, "_precision_block_maxima", counting)
    reps = mrf_order_scan(P5, st)
    blocks = path_precision_blocks(st)
    assert st.condition >= 1.0
    assert len(reps) > 1 and len(blocks) == 10
    assert full == [st.n_times]
    ev = np.linalg.eigvalsh(st.matrix)
    assert st.condition == ev[-1] / ev[0]


def test_stacked_matrix_is_a_read_only_copy():
    ref = euler_stacked(8)
    source = np.array(ref.matrix)
    st = StackedCovariance(source, ref.labels, ref.times, ref.scheme)
    assert st.matrix is not source
    with pytest.raises(ValueError):
        st.matrix[0, 0] = 1.0
    source[:] = np.eye(len(source))
    assert [r.statistic for r in mrf_order_scan(P5, st)] == [r.statistic for r in mrf_order_scan(P5, ref)]
    assert [bl.relative for bl in path_precision_blocks(st)] == [bl.relative for bl in path_precision_blocks(ref)]
    _, rel, _ = st._block_maxima
    with pytest.raises(ValueError):
        rel[0, 1] = 0.0


def test_order_scan_marginal_fails_both_orders():
    st0 = single_time_stacked(P5_SYS, 2.0)
    reps = mrf_order_scan(P5, st0)
    assert order_summary(reps) == {1: "fail", 2: "fail"}


def test_order_scan_ensemble_source():
    g3 = path_graph(3)
    grid = np.linspace(0.0, 1.0, 3)
    ens = simulate_driftless(g3, UNIT, PointMass(0.0), grid, 2000, seed=3)
    reps = mrf_order_scan(g3, ens, orders=(1,))
    assert {r.a for r in reps} == {(1,), (3,)}
    assert all(r.mode == "partial_correlation" for r in reps)
    assert all(r.verdict == "independent" for r in reps)


def test_order_scan_explicit_sets():
    st = euler_stacked(8)
    assert mrf_order_scan(P5, st, orders=(2,), sets=[(3,)]) == []
    reps = mrf_order_scan(P5, st, orders=(2,), sets=[(1,)])
    assert len(reps) == 1 and reps[0].order == 2


def test_order_scan_input_validation():
    st = euler_stacked(8)
    with pytest.raises(TypeError, match="source"):
        mrf_order_scan(P5, object())
    with pytest.raises(ValueError, match="orders"):
        mrf_order_scan(P5, st, orders=(3,))


@pytest.mark.parametrize("route", ["exact", "ensemble"])
@pytest.mark.parametrize(
    "bad_set, message",
    [((1, 1), "duplicate vertex in A"), ((), "A and B must be nonempty"), ((9,), "unknown vertex 9")],
    ids=["duplicate", "empty", "unknown"],
)
def test_order_scan_rejects_bad_sets(route, bad_set, message):
    if route == "exact":
        source = euler_stacked(8)
    else:
        source = simulate_driftless(P5, UNIT, PointMass(0.0), np.linspace(0.0, 1.0, 3), 600, seed=1)
    with pytest.raises(ValueError, match=message):
        mrf_order_scan(P5, source, sets=[bad_set])


def per_triple_scan(g, source, orders=(1, 2), sets=None, tol=1e-8, feature_grid=None, alpha=0.01):
    """The scan as one public test per triple, each checking its triple and
    rebuilding its boundary, then stamped with its order: the oracle."""
    if isinstance(source, StackedCovariance):
        def run(a, s, b):
            return exact_gaussian_ci(source, a, s, b, tol)
    else:
        if feature_grid is None:
            feature_grid = [t for t in source.grid if t > 0.0]
        features = _features(source, source.labels, feature_grid)

        def run(a, s, b):
            return _partial_correlation(features, source.n_replicas, alpha, *_check_triple(source.labels, a, s, b))
    if sets is None:
        sets = [(v,) for v in g.vertices] + [tuple(sorted(e, key=g.index)) for e in g.edges()]
    reports = []
    for a in sets:
        for k in orders:
            sk = boundary(g, a) if k == 1 else boundary2(g, a)
            rest = set(g.vertices) - set(a) - sk
            if rest:
                reports.append(dataclasses.replace(run(tuple(a), tuple(sk), tuple(rest)), order=k))
    return reports


def report_bits(reports):
    """Every field of every report, floats as their exact hex (an inconclusive report's nan included)."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)) for r in reports]


SCAN_GRAPHS = [(path_graph(10), -2.5), (grid_graph(6, 6), -4.5), (cycle_graph(12), -2.5)]
SCAN_IDS = ["path10", "grid6x6", "cycle12"]


def explicit_sets(g):
    """Multi-vertex sets in and out of label order, and one whose rest is empty."""
    v = g.vertices
    return [(v[2], v[0], v[1]), (v[-1], v[0]), (v[len(v) // 2],), tuple(v[1:])]


@pytest.mark.parametrize("orders", [(1, 2), (2,)], ids=["orders12", "orders2"])
@pytest.mark.parametrize("g, shift", SCAN_GRAPHS, ids=SCAN_IDS)
def test_exact_scan_matches_the_per_triple_loop_bit_for_bit(g, shift, orders):
    st = path_covariance(build_linear_system(g, shift), np.linspace(0.0, 1.0, 6))
    for sets in (None, explicit_sets(g)):
        got = mrf_order_scan(g, st, orders=orders, sets=sets)
        want = per_triple_scan(g, st, orders=orders, sets=sets)
        assert got == want and report_bits(got) == report_bits(want)
    # the explicit family tests fewer (set, order) pairs than it names: one set has an empty rest
    assert len(got) < len(orders) * len(explicit_sets(g))


@pytest.mark.parametrize("orders", [(1, 2), (2,)], ids=["orders12", "orders2"])
@pytest.mark.parametrize("g, shift", SCAN_GRAPHS, ids=SCAN_IDS)
def test_ensemble_scan_matches_the_per_triple_loop_bit_for_bit(g, shift, orders):
    grid = np.linspace(0.0, 1.0, 3)
    ens = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), grid, 100 * len(g) + 200, seed=5)
    for sets, times in ((None, None), (explicit_sets(g), [0.0, 1.0])):
        got = mrf_order_scan(g, ens, orders=orders, sets=sets, feature_grid=times)
        want = per_triple_scan(g, ens, orders=orders, sets=sets, feature_grid=times)
        assert report_bits(got) == report_bits(want)
    # from a point mass the features at t = 0 are constant, so the second family is inconclusive
    assert {r.verdict for r in got} == {"inconclusive"}


def test_scan_reads_the_source_in_its_own_label_order():
    # a source that lists the vertices in another order, and one that holds more vertices than the graph
    g = grid_graph(3, 3)
    sys = build_linear_system(g, -4.5)
    perm = np.random.default_rng(0).permutation(len(g))
    shuffled = netdiff.gaussian.GaussianSystem(sys.L[np.ix_(perm, perm)], tuple(g.vertices[i] for i in perm))
    grid = np.linspace(0.0, 1.0, 5)
    for st in (path_covariance(sys, grid), path_covariance(shuffled, grid)):
        for h in (g, g.subgraph(g.vertices[:7])):
            got = mrf_order_scan(h, st)
            assert report_bits(got) == report_bits(per_triple_scan(h, st))
    with pytest.raises(ValueError, match="not in source"):
        mrf_order_scan(grid_graph(3, 4), st)


def test_order_scan_rejects_a_repeated_order():
    st = euler_stacked(8)
    assert len(mrf_order_scan(P5, st, orders=(1,))) == 9
    with pytest.raises(ValueError, match="orders repeat"):
        mrf_order_scan(P5, st, orders=(1, 1))
    with pytest.raises(ValueError, match="orders repeat"):
        mrf_order_scan(P5, st, orders=[2, 1, 2])


def test_report_emitters():
    reps = mrf_order_scan(P5, euler_stacked(16))
    recs = json.loads(reports_to_json(reps))
    assert len(recs) == len(reps)
    assert recs[0]["mode"] == "exact_gaussian"
    assert recs[0]["a"] == list(reps[0].a)
    assert recs[0]["order"] == reps[0].order
    assert {r["verdict"] for r in recs} == {"independent", "dependent"}

    text = reports_to_csv(reps)
    lines = text.strip().split("\n")
    assert lines[0] == "set,order,mode,statistic,verdict"
    assert len(lines) == len(reps) + 1
    assert any(line.startswith("1|2,") for line in lines[1:])
