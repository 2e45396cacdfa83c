import itertools
import json

import networkx as nx
import numpy as np
import pytest

from netdiff.discrete import (
    ConditionalKernel,
    FactorModel,
    JointTable,
    check_mrf_bruteforce,
    conditional_specification,
    factor_model_from_json,
    factor_model_to_json,
    factorize_positive_2mrf,
    joint_table,
    marginalize,
    project_to_truncation,
    projection_counterexample_search,
    random_factor_model,
    total_variation,
)
from netdiff.discrete import MrfCheck, Violation, _plan, _weights
from netdiff.gaussian import build_linear_system, path_covariance
from netdiff.graphs import (
    Graph,
    boundary,
    boundary2,
    cliques,
    complete_graph,
    cycle_graph,
    grid_graph,
    is_2cutset,
    path_graph,
)
from netdiff.independence import mrf_order_scan
from netdiff.initials import FactorModelInitial

EQ_FACTOR = np.array([[2.0, 1.0], [1.0, 2.0]])


def empirical_table(samples: np.ndarray, k: int, labels) -> JointTable:
    """Frequency table of integer configurations, shape-compatible with joint_table."""
    raw = np.asarray(samples)
    samples = raw.astype(int)
    if np.any(samples != raw):
        raise ValueError("states must be integers")
    if samples.size and (samples.min() < 0 or samples.max() >= k):
        raise ValueError(f"states must lie in 0..{k - 1}")
    nv = samples.shape[1]
    counts = np.zeros((k,) * nv)
    np.add.at(counts, tuple(samples.T), 1.0)
    return JointTable(counts / samples.shape[0], labels)


def test_joint_table_uniform():
    g = path_graph(3)
    m = FactorModel(g, 2, {(1, 2): np.ones((2, 2))})
    t = joint_table(m)
    np.testing.assert_allclose(t.probs, np.full((2, 2, 2), 1 / 8))


def test_joint_table_single_edge_by_hand():
    g = path_graph(2)
    m = FactorModel(g, 2, {(1, 2): EQ_FACTOR})
    t = joint_table(m)
    np.testing.assert_allclose(t.probs, EQ_FACTOR / 6.0)


def test_joint_table_normalized_random():
    rng = np.random.default_rng(1)
    m = random_factor_model(path_graph(4), 2, rng)
    assert abs(joint_table(m).probs.sum() - 1.0) < 1e-12


def test_joint_table_zero_normalizer():
    g = path_graph(2)
    m = FactorModel(g, 2, {(1, 2): np.zeros((2, 2))})
    with pytest.raises(ValueError):
        joint_table(m)


def test_joint_table_rejects_nan_and_unequal_axes():
    p = np.full((2, 2), 0.25)
    p[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        JointTable(p, (1, 2))
    with pytest.raises(ValueError, match="same number of states"):
        JointTable(np.full((2, 3), 1 / 6), (1, 2))


def test_empirical_table_rejects_states_out_of_range():
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="states must lie in"):
            empirical_table(np.array([[0, 1], [bad, 0]]), 2, (1, 2))


def test_empirical_table_rejects_non_integer_states():
    with pytest.raises(ValueError, match="states must be integers"):
        empirical_table([[0.7, 1.9], [1.2, 0.0]], 2, (1, 2))
    t = empirical_table([[0.0, 1.0], [1.0, 0.0]], 2, (1, 2))
    assert t.probs[0, 1] == t.probs[1, 0] == 0.5


def test_marginalize_rejects_unknown_labels():
    t = joint_table(FactorModel(path_graph(3), 2))
    with pytest.raises(ValueError, match="99"):
        marginalize(t, [1, 99])
    assert marginalize(t, [3, 1]).labels == (1, 3)


def test_factor_model_validation():
    with pytest.raises(ValueError):
        FactorModel(path_graph(21), 2)  # 2^21 exceeds the cap
    with pytest.raises(ValueError, match="not a 2-clique"):
        FactorModel(path_graph(4), 2, {(1, 4): np.ones((2, 2))})  # distance 3
    with pytest.raises(ValueError):
        FactorModel(path_graph(2), 2, {(1, 2): -np.ones((2, 2))})
    with pytest.raises(ValueError):
        FactorModel(path_graph(2), 2, {(1, 2): np.ones((3, 3))})
    for key in ((1, 1), (1, 2, 2), ()):  # a repeated vertex, or none
        with pytest.raises(ValueError, match="not a 2-clique"):
            FactorModel(path_graph(3), 2, {key: np.ones((2,) * len(key))})
    # a clique read from JSON is validated the same way
    cfg = FactorModel(path_graph(4), 2, {(1, 3): np.ones((2, 2))}).to_config()
    cfg["factors"]["1|3"]["clique"] = [1, 4]
    with pytest.raises(ValueError, match="not a 2-clique"):
        factor_model_from_json(json.dumps(cfg))


def p3_dependent_table():
    # explicit 1-3 coupling with vertex 2 independent and uniform
    p = np.empty((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                p[x1, x2, x3] = 1.5 if x1 == x3 else 0.5
    return JointTable(p / p.sum(), (1, 2, 3))


def test_check_mrf_detects_p3_coupling():
    g = path_graph(3)
    res = check_mrf_bruteforce(p3_dependent_table(), g, 1)
    assert not res.ok
    # conditional joint [[.375,.125],[.125,.375]] vs product of uniform marginals
    assert res.max_violation == pytest.approx(0.25)
    assert res.worst.tv == res.max_violation
    assert set(res.worst.a) in ({1}, {3}, {1, 3})


def test_check_mrf_product_measure():
    g = path_graph(4)
    m = FactorModel(g, 2, {}, {v: np.array([0.3, 0.7]) for v in g.vertices})
    res = check_mrf_bruteforce(joint_table(m), g, 1)
    assert res.ok and res.max_violation < 1e-14


def _check_by_boundaries(t, g, order):
    """The exhaustive check as it was before the per-graph plan: one
    boundary call, one sort and one set difference per subset, and a masked
    division by the boundary marginal.  Also returns how many boundary
    states of probability zero it met."""
    nv = len(g.vertices)
    k = t.probs.shape[0]
    bnd = boundary if order == 1 else boundary2
    max_violation, worst, dead = 0.0, None, 0
    for r in range(1, nv + 1):
        for a_labs in itertools.combinations(g.vertices, r):
            s_labs = tuple(sorted(bnd(g, a_labs), key=g.index))
            if r + len(s_labs) == nv:
                continue
            axes = [g.index(v) for v in a_labs + s_labs]
            rest = sorted(set(range(nv)).difference(axes))
            p = t.probs.transpose(axes + rest).reshape(k**r, k ** len(s_labs), -1)
            ps = p.sum(axis=(0, 2))
            live = ps > 0
            dead += int((~live).sum())
            cond = np.zeros_like(p)
            cond[:, live, :] = p[:, live, :] / ps[live][None, :, None]
            ca = cond.sum(axis=2)
            cc = cond.sum(axis=0)
            prod = ca[:, :, None] * cc[None, :, :]
            tv = 0.5 * np.abs(cond - prod).sum(axis=(0, 2))
            tv[~live] = 0.0
            j = int(np.argmax(tv))
            if tv[j] > max_violation:
                cfg = tuple(int(x) for x in np.unravel_index(j, (k,) * len(s_labs))) if s_labs else ()
                max_violation = float(tv[j])
                worst = Violation(a_labs, s_labs, cfg, float(tv[j]))
    return MrfCheck(order, max_violation, worst, 1e-10), dead


def test_planned_check_matches_the_boundary_loop_on_the_atlas():
    rng = np.random.default_rng(43)
    atlas = [h for h in nx.graph_atlas_g() if 2 <= len(h) <= 5 and nx.is_connected(h)]
    assert len(atlas) == 30
    dead = failed = 0
    for h, k in itertools.product(atlas, (2, 3)):
        g = Graph(range(len(h)), h.edges())
        shape = (k,) * len(h)
        positive = rng.uniform(0.5, 1.5, size=shape)
        # zeros at random and wherever the first two vertices are both 1,
        # so some boundary states have probability zero
        sparse = np.where(rng.uniform(size=shape) < 0.3, 0.0, positive)
        sparse[1, 1] = 0.0
        tables = [joint_table(random_factor_model(g, k, rng))]
        tables += [JointTable(p / p.sum(), g.vertices) for p in (positive, sparse)]
        for t, order in itertools.product(tables, (1, 2)):
            want, zeros = _check_by_boundaries(t, g, order)
            got = check_mrf_bruteforce(t, g, order)
            assert np.float64(got.max_violation).tobytes() == np.float64(want.max_violation).tobytes()
            assert got.worst == want.worst
            dead += zeros
            failed += not got.ok
    assert dead > 0 and failed > 0


def test_plan_is_built_once_per_graph():
    g = grid_graph(2, 3)
    plan = _plan(g)
    assert _plan(g) is plan and plan.subsets(2) is plan.subsets(2)
    check_mrf_bruteforce(joint_table(random_factor_model(g, 2, np.random.default_rng(1))), g, 2)
    assert g._plan is plan
    assert list(plan.cliques) == [tuple(sorted(c, key=g.index)) for c in cliques(g, 2)]
    # a model alone never lists the 2-cliques: a star's square graph is
    # complete, so it has 2^12 - 1 of them
    star = Graph(range(12), [(0, i) for i in range(1, 12)])
    conditional_specification(random_factor_model(star, 2, np.random.default_rng(2)), [1])
    assert star._plan is None


@pytest.mark.parametrize("maker", [lambda: path_graph(5), lambda: grid_graph(2, 3), lambda: complete_graph(4)])
def test_factor_models_are_second_order_mrfs(maker):
    g = maker()
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = joint_table(random_factor_model(g, 2, rng))
        assert check_mrf_bruteforce(t, g, 2).ok


def test_factorize_round_trip_random_models():
    rng = np.random.default_rng(9)
    graphs = [path_graph(4), path_graph(6), grid_graph(2, 3), complete_graph(3)]
    count = 0
    for g in graphs:
        for _ in range(25):
            t = joint_table(random_factor_model(g, 2, rng))
            model = factorize_positive_2mrf(t, g)
            assert total_variation(joint_table(model), t) <= 1e-10
            assert {frozenset(key) for key in model.factors} <= set(cliques(g, 2))
            count += 1
    assert count == 100


def _broadcast_product(m, scope, vertices, keys):
    # each table transposed to ascending axes and reshaped to broadcast
    # over the scope's state array, then multiplied in
    nd = len(scope)
    w = np.ones((m.k,) * nd)
    items = [(m.base[v], (v,)) for v in vertices if v in m.base] + [(m.factors[key], key) for key in keys]
    for table, key in items:
        axes = [scope.index(v) for v in key]
        order = np.argsort(axes)
        shape = [m.k if i in axes else 1 for i in range(nd)]
        w = w * np.transpose(table, order).reshape(shape)
    return w


def test_weights_match_broadcast_product():
    rng = np.random.default_rng(31)
    for g in (path_graph(5), grid_graph(2, 3), cycle_graph(5)):
        m = random_factor_model(g, 3, rng)
        triple = tuple(g.vertices[:3])
        m = FactorModel(g, 3, {**m.factors, triple: np.exp(rng.normal(size=(3, 3, 3)))}, m.base)
        # graph order, the kernel's boundary-then-target order, and a reversed scope
        a = (g.vertices[2],)
        b = tuple(v for v in g.vertices if v != a[0])
        meeting = [key for key in m.factors if a[0] in key]
        for scope, vertices, keys in (
            (g.vertices, m.base, m.factors),
            (b + a, a, meeting),
            (tuple(reversed(g.vertices)), m.base, list(m.factors)[::-1]),
        ):
            got = _weights(m, scope, vertices, keys)
            assert got.flags.c_contiguous
            assert got.tobytes() == _broadcast_product(m, list(scope), vertices, keys).tobytes()


def test_clique_potentials_match_full_table_differencing():
    rng = np.random.default_rng(33)
    for g in (path_graph(5), grid_graph(2, 3)):
        t = joint_table(random_factor_model(g, 3, rng))
        model = factorize_positive_2mrf(t, g)
        logp = np.log(t.probs)
        for clique in cliques(g, 2):
            axes = sorted(g.index(v) for v in clique)
            diff = logp
            for ax in axes:
                diff = diff - np.take(diff, [0], axis=ax)
            want = np.exp(diff[tuple(slice(None) if i in axes else 0 for i in range(len(g.vertices)))])
            key = tuple(g.vertices[i] for i in axes)
            got = model.base[key[0]] if len(key) == 1 else model.factors[key]
            assert got.tobytes() == want.tobytes()


def test_square_graph_built_once_for_the_discrete_lab_and_scan(monkeypatch):
    g = grid_graph(2, 3, root=(0, 0))
    model = random_factor_model(g, 2, np.random.default_rng(5))
    joint = joint_table(model)
    stacked = path_covariance(build_linear_system(g, -2.0), np.linspace(0.0, 1.0, 3))
    cliques(g, 2)
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    FactorModel(g, 2, {((0, 0), (1, 1)): np.ones((2, 2))})
    cliques(g, 2)
    is_2cutset(g, [(0, 0)], [(0, 2)], [(0, 1), (1, 1)])
    check_mrf_bruteforce(joint, g, 2)
    factorize_positive_2mrf(joint, g)
    conditional_specification(model, [(0, 1)])
    mrf_order_scan(g, stacked, orders=(2,))
    assert built == []


def test_factorize_accepts_exactly_the_bruteforce_second_order_mrfs():
    # the 2-clique reconstruction is the Markov test (Hammersley-Clifford on
    # the square graph); the exhaustive check is the oracle
    rng = np.random.default_rng(11)
    graphs = [path_graph(5), path_graph(6), cycle_graph(6), grid_graph(2, 3), grid_graph(2, 4)]
    verdicts = []
    for g in graphs:
        n = len(g.vertices)
        tables = [joint_table(random_factor_model(g, 2, rng)) for _ in range(4)]
        for _ in range(4):
            p = rng.uniform(0.5, 1.5, size=(2,) * n)
            tables.append(JointTable(p / p.sum(), g.vertices))
        for t in tables:
            try:
                factorize_positive_2mrf(t, g)
                accepted = True
            except ValueError as err:
                assert "second-order" in str(err)
                accepted = False
            assert accepted == check_mrf_bruteforce(t, g, 2).ok
            verdicts.append(accepted)
    assert verdicts.count(True) == 20 and verdicts.count(False) == 20


def test_factorize_requires_the_tables_graph():
    t = joint_table(random_factor_model(path_graph(4), 2, np.random.default_rng(2)))
    for g in (path_graph(5), Graph([4, 3, 2, 1], [(1, 2), (2, 3), (3, 4)])):
        with pytest.raises(ValueError, match="does not index"):
            factorize_positive_2mrf(t, g)


def test_factorize_reports_potentials_beyond_float64():
    # a generic table spread over 300 decades: its Moebius potentials
    # overflow, so no reconstruction can be formed, let alone compared
    g = path_graph(5)
    p = np.exp(np.random.default_rng(0).uniform(-700.0, 0.0, size=(2,) * 5))
    t = JointTable(p / p.sum(), g.vertices)
    assert not check_mrf_bruteforce(t, g, 2).ok
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="2-clique potentials"):
        factorize_positive_2mrf(t, g)


def test_factorize_product_measure_gives_unit_factors():
    g = path_graph(4)
    probs = np.ones((2,) * 4)
    marg = np.array([0.2, 0.8])
    for ax in range(4):
        probs = probs * marg.reshape([2 if i == ax else 1 for i in range(4)])
    model = factorize_positive_2mrf(JointTable(probs, g.vertices), g)
    for key, table in model.factors.items():
        assert len(key) > 1
        np.testing.assert_allclose(table, np.ones_like(table))


def test_factorize_complete_graph_accepts_anything():
    g = complete_graph(3)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.5, 1.5, size=(2, 2, 2))
    t = JointTable(p / p.sum(), g.vertices)
    model = factorize_positive_2mrf(t, g)
    assert total_variation(joint_table(model), t) <= 1e-12


def test_factorize_rejects_bad_input():
    g = path_graph(5)
    p = np.ones((2,) * 5)
    p[0, 0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        factorize_positive_2mrf(JointTable(p / p.sum(), g.vertices), g)
    # distance-4 coupling cannot be a second-order MRF on the path
    q = np.ones((2,) * 5)
    for x1 in range(2):
        for x5 in range(2):
            q[x1, :, :, :, x5] *= 3.0 if x1 == x5 else 1.0
    with pytest.raises(ValueError, match="second-order"):
        factorize_positive_2mrf(JointTable(q / q.sum(), g.vertices), g)


def test_projection_p9_matches_bruteforce_marginal():
    g = path_graph(9, root=2)
    rng = np.random.default_rng(11)
    m = random_factor_model(g, 2, rng)
    proj = project_to_truncation(m, 4)
    assert set(proj.graph.vertices) == {1, 2, 3, 4, 5, 6}
    want = marginalize(joint_table(m), proj.graph.vertices)
    assert total_variation(joint_table(proj), want) <= 1e-10
    # the projected law is a second-order MRF for the augmented graph
    assert check_mrf_bruteforce(joint_table(proj), proj.graph, 2).ok


def test_projection_keeps_inner_factors_verbatim():
    g = path_graph(9, root=2)
    rng = np.random.default_rng(13)
    m = random_factor_model(g, 2, rng)
    proj = project_to_truncation(m, 4)
    inner = {1, 2, 3, 4}  # radius n-3 around the root
    for key, table in m.factors.items():
        if set(key) <= inner:
            assert np.array_equal(proj.factors[key], table)


def test_projection_whole_graph_is_identity():
    g = path_graph(9, root=5)
    rng = np.random.default_rng(15)
    m = random_factor_model(g, 2, rng)
    proj = project_to_truncation(m, 4)  # radius-4 ball is the whole path
    assert set(proj.factors) == set(m.factors)
    for key in m.factors:
        assert np.array_equal(proj.factors[key], m.factors[key])


def test_projection_requires_root():
    m = random_factor_model(path_graph(9), 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        project_to_truncation(m, 4)


def test_projection_counterexample_on_grid_row():
    g = grid_graph(3, 3)
    row = [(1, 0), (1, 1), (1, 2)]
    witness = projection_counterexample_search(g, row, trials=200, order=1, seed=0, threshold=1e-3)
    assert witness is not None
    assert witness.check.max_violation > 1e-3
    # completing the row ends into a clique restores the Markov property
    marg = marginalize(joint_table(witness.model), row)
    completed = Graph(row, [(row[0], row[1]), (row[1], row[2]), (row[0], row[2])])
    assert check_mrf_bruteforce(marg, completed, 1).ok


def test_projection_product_measure_never_a_witness():
    g = grid_graph(3, 3)
    row = [(1, 0), (1, 1), (1, 2)]
    rng = np.random.default_rng(2)
    m = FactorModel(g, 2, {}, {v: rng.uniform(0.5, 1.5, 2) for v in g.vertices})
    marg = marginalize(joint_table(m), row)
    assert check_mrf_bruteforce(marg, g.subgraph(row), 1).ok


def test_conditional_specification_product_ignores_boundary():
    g = path_graph(5)
    m = FactorModel(g, 2, {}, {v: np.array([0.4, 0.6]) for v in g.vertices})
    ker = conditional_specification(m, [3])
    flat = ker.table.reshape(-1, 2)
    for row in flat:
        np.testing.assert_allclose(row, flat[0])


def test_conditional_specification_routes_agree_p5():
    rng = np.random.default_rng(21)
    g = path_graph(5)
    m = random_factor_model(g, 2, rng)
    ker = conditional_specification(m, [3])
    assert ker.max_discrepancy <= 1e-10
    assert ker.boundary == (1, 2, 4, 5)
    assert ker.zero_boundary == ()
    # independent conditioning oracle straight from the joint table
    t = joint_table(m)
    p = t.probs.transpose([0, 1, 3, 4, 2]).reshape(16, 2)
    cond = p / p.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(ker.table.reshape(16, 2), cond, atol=1e-12)


def test_conditional_specification_rejects_a_repeated_target():
    # a repeated vertex used to reach numpy's transpose ("axes don't match array")
    m = random_factor_model(path_graph(5), 2, np.random.default_rng(21))
    for a in ((1, 1), [3, 2, 3]):
        with pytest.raises(ValueError, match="duplicate vertex in target"):
            conditional_specification(m, a)


def test_conditional_specification_conditions_the_joint_it_is_given():
    g = grid_graph(2, 3)
    rng = np.random.default_rng(25)
    m = random_factor_model(g, 3, rng)
    joint = joint_table(m)
    for a in ([(0, 0)], [(0, 1), (1, 1)]):
        fresh, given = conditional_specification(m, a), conditional_specification(m, a, joint)
        assert given.table.tobytes() == fresh.table.tobytes()
        assert (given.boundary, given.zero_boundary, given.max_discrepancy) == (
            fresh.boundary, fresh.zero_boundary, fresh.max_discrepancy
        )
    # route one reads the table it is given, so another model's joint fails
    with pytest.raises(ValueError, match="routes disagree"):
        conditional_specification(m, [(0, 0)], joint_table(random_factor_model(g, 3, rng)))
    for other in (joint_table(random_factor_model(g, 2, rng)), joint_table(random_factor_model(path_graph(6), 3, rng))):
        with pytest.raises(ValueError, match="does not index"):
            conditional_specification(m, [(0, 0)], other)


def shared_kernel_models():
    # two graphs agreeing on every clique that meets A = {1}
    rng = np.random.default_rng(33)
    g = path_graph(7)
    h = Graph([1, 2, 3, 4, 5, 8], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 8)])
    shared_keys = [(1,), (1, 2), (1, 3), (1, 2, 3)]
    shared = {k: np.exp(rng.normal(size=(2,) * len(k))) for k in shared_keys}
    mg = FactorModel(
        g,
        2,
        {**shared, (3, 4): np.exp(rng.normal(size=(2, 2))), (5, 6): np.exp(rng.normal(size=(2, 2))), (6, 7): np.exp(rng.normal(size=(2, 2)))},
    )
    mh = FactorModel(
        h,
        2,
        {**shared, (3, 4): np.exp(rng.normal(size=(2, 2))), (4, 5): np.exp(rng.normal(size=(2, 2))), (5, 8): np.exp(rng.normal(size=(2, 2)))},
    )
    return mg, mh


def test_conditional_specification_depends_only_on_local_factors():
    mg, mh = shared_kernel_models()
    ka = conditional_specification(mg, [1])
    kb = conditional_specification(mh, [1])
    assert ka.boundary == kb.boundary == (2, 3)
    assert np.array_equal(ka.table, kb.table)


def test_conditional_specification_zero_boundary_reported():
    g = path_graph(3)
    m = FactorModel(g, 2, {(1, 2): EQ_FACTOR}, {3: np.array([1.0, 0.0])})
    ker = conditional_specification(m, [1])
    assert ker.boundary == (2, 3)
    # configurations with x3 = 1 are impossible
    assert ker.zero_boundary == ((0, 1), (1, 1))
    assert np.all(np.isfinite(ker.table[:, 0, :]))


def cond_indep_tv(t: JointTable, g, a, b, s):
    k = t.probs.shape[0]
    ax = lambda vs: [g.index(v) for v in vs]
    rest = [v for v in t.labels if v not in set(a) | set(b) | set(s)]
    p = t.probs.transpose(ax(a) + ax(b) + ax(s) + ax(rest)).reshape(
        k ** len(a), k ** len(b), k ** len(s), -1
    ).sum(axis=3)
    worst = 0.0
    for j in range(p.shape[2]):
        blk = p[:, :, j]
        z = blk.sum()
        if z <= 0:
            continue
        blk = blk / z
        prod = blk.sum(1)[:, None] * blk.sum(0)[None, :]
        worst = max(worst, 0.5 * np.abs(blk - prod).sum())
    return worst


def test_cutsets_imply_exact_conditional_independence():
    rng = np.random.default_rng(17)
    cases = [
        (path_graph(5), [1], [4, 5], [2, 3]),
        (path_graph(6), [1, 2], [5, 6], [3, 4]),
        (grid_graph(2, 4), [(0, 0), (1, 0)], [(0, 3), (1, 3)], [(0, 1), (1, 1), (0, 2), (1, 2)]),
    ]
    for g, a, b, s in cases:
        assert is_2cutset(g, a, b, s)
        for _ in range(5):
            t = joint_table(random_factor_model(g, 2, rng))
            assert cond_indep_tv(t, g, a, b, s) <= 1e-10
    # sanity: a non-cutset shows real dependence
    c4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not is_2cutset(c4, [1], [3], [2])
    t = joint_table(random_factor_model(c4, 2, np.random.default_rng(23)))
    assert cond_indep_tv(t, c4, [1], [3], [2]) > 1e-4


def test_factor_model_json_round_trip():
    rng = np.random.default_rng(19)
    g = grid_graph(2, 2)
    m = random_factor_model(g, 3, rng)
    back = factor_model_from_json(factor_model_to_json(m))
    assert back.graph.vertices == m.graph.vertices
    assert back.graph.edge_set() == m.graph.edge_set()
    assert back.k == m.k
    assert set(back.factors) == set(m.factors)
    for key in m.factors:
        np.testing.assert_allclose(back.factors[key], m.factors[key])
    assert total_variation(joint_table(back), joint_table(m)) < 1e-14


def test_factor_model_initial_bridge():
    g = path_graph(3)
    m = FactorModel(g, 2, {(1, 2): EQ_FACTOR, (2, 3): EQ_FACTOR})
    law = FactorModelInitial(m)
    x = law.sample(40_000, g, seed=5)
    assert x.shape == (40_000, 3, 1)
    emp = empirical_table(x[:, :, 0].astype(int), 2, g.vertices)
    assert total_variation(emp, joint_table(m)) < 0.02
    again = FactorModelInitial(m).sample(40_000, g, seed=5)
    assert np.array_equal(x, again)

    spins = FactorModelInitial(m, state_values=[-1.0, 1.0]).sample(100, g, seed=1)
    assert set(np.unique(spins)) <= {-1.0, 1.0}

    with pytest.raises(ValueError):
        FactorModelInitial(m).sample(10, path_graph(4), seed=1)
