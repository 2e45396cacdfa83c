import dataclasses

import numpy as np
import pytest

from netdiff.coefficients import ConstantDiffusion, DriftTable
from netdiff.engine import simulate
from netdiff.gaussian import (
    build_linear_system,
    conditional_covariance,
    covariance_at,
    linear_system,
    matrix_csv,
    path_covariance,
    path_precision_blocks,
    precision_at,
    precision_edges_json,
    GaussianSystem,
    _step_matrices,
)
from netdiff.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph_distance,
    grid_graph,
    path_graph,
    regular_tree,
)
from netdiff.initials import PointMass


def p5_standard():
    return build_linear_system(path_graph(5), -2.0)


def test_build_linear_system_p5():
    sys = p5_standard()
    expected = np.array(
        [
            [-2, 1, 0, 0, 0],
            [1, -2, 1, 0, 0],
            [0, 1, -2, 1, 0],
            [0, 0, 1, -2, 1],
            [0, 0, 0, 1, -2],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(sys.L, expected)
    assert sys.labels == (1, 2, 3, 4, 5)

    zd = build_linear_system(path_graph(5), 0.0)
    np.testing.assert_array_equal(np.diag(zd.L), np.zeros(5))

    k1 = build_linear_system(complete_graph(1), -2.0)
    np.testing.assert_array_equal(k1.L, [[-2.0]])


# values as printed to four decimals
P5_SIGMA_T2 = {
    (1, 1): 0.3611,
    (1, 2): 0.2388,
    (1, 3): 0.1435,
    (1, 5): 0.0324,
    (3, 3): 0.5370,
}


def test_covariance_p5_t2_reference_entries():
    sys = p5_standard()
    cov = covariance_at(sys, 2.0)
    pos = {lab: i for i, lab in enumerate(cov.labels)}
    for (a, b), val in P5_SIGMA_T2.items():
        assert cov.sigma[pos[a], pos[b]] == pytest.approx(val, abs=1e-4)
    assert cov.method == "closed_form"


def test_covariance_zero_time_and_negative():
    sys = p5_standard()
    np.testing.assert_array_equal(covariance_at(sys, 0.0).sigma, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        covariance_at(sys, -0.5)


def test_covariance_quadrature_agrees_with_closed_form():
    for noise in (1.0, 0.3):
        sys = dataclasses.replace(p5_standard(), noise=noise)
        a = covariance_at(sys, 2.0).sigma
        b = covariance_at(sys, 2.0, method="quadrature").sigma
        assert np.abs(a - b).max() < 1e-8
    assert np.abs(a - 0.3 * covariance_at(p5_standard(), 2.0).sigma).max() < 1e-15


def test_covariance_nonsymmetric_closed_form_vs_quadrature():
    rng = np.random.default_rng(3)
    L = rng.normal(size=(4, 4)) * 0.4 - np.eye(4)
    sys = GaussianSystem(L, ("a", "b", "c", "d"), noise=2.5)
    a = covariance_at(sys, 1.5).sigma
    b = covariance_at(sys, 1.5, method="quadrature").sigma
    assert np.abs(a - b).max() < 1e-9


def test_covariance_psd_and_symmetric():
    sys = p5_standard()
    for t in (0.1, 1.0, 5.0, 20.0):
        s = covariance_at(sys, t).sigma
        np.testing.assert_allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() >= -1e-12


def test_precision_is_inverse():
    for noise in (1.0, 0.3):
        sys = dataclasses.replace(p5_standard(), noise=noise)
        for t in (0.5, 1.0, 2.0, 5.0):
            s = covariance_at(sys, t).sigma
            q = precision_at(sys, t).q
            assert np.abs(q @ s - np.eye(5)).max() < 1e-8


def test_precision_complete_graph_at_t2():
    res = precision_at(p5_standard(), 2.0, tol=1e-6)
    n = 5
    assert len(res.ci_edges) == n * (n - 1) // 2


def test_precision_zero_diagonal_exact_zeros():
    sys = build_linear_system(path_graph(5), 0.0)
    pos = {lab: i for i, lab in enumerate(sys.labels)}
    for t in (0.5, 1.0, 2.0, 5.0):
        q = precision_at(sys, t).q
        assert abs(q[pos[1], pos[4]]) < 1e-10
        assert abs(q[pos[2], pos[5]]) < 1e-10


def test_precision_long_time_limit():
    sys = p5_standard()
    q = precision_at(sys, 20.0).q
    assert np.abs(q - (-2.0 * sys.L)).max() < 1e-3


def test_precision_requires_positive_time():
    with pytest.raises(ValueError):
        precision_at(p5_standard(), 0.0)


# conditional covariances as printed to four decimals
COND_13_GIVEN_2 = np.array([[0.2481, -0.0058], [-0.0058, 0.3397]])
COND_14_GIVEN_23 = np.array([[0.2480, -0.0030], [-0.0030, 0.3189]])


def test_conditional_covariance_reference_values():
    cov = covariance_at(p5_standard(), 2.0)
    got = conditional_covariance(cov, [1, 3], [2])
    np.testing.assert_allclose(got, COND_13_GIVEN_2, atol=1e-4)
    got = conditional_covariance(cov, [1, 4], [2, 3])
    np.testing.assert_allclose(got, COND_14_GIVEN_23, atol=1e-4)


def test_conditional_covariance_empty_given():
    cov = covariance_at(p5_standard(), 2.0)
    got = conditional_covariance(cov, [1], [])
    assert got[0, 0] == pytest.approx(cov.sigma[0, 0])


def test_conditional_covariance_validation():
    cov = covariance_at(p5_standard(), 2.0)
    with pytest.raises(ValueError):
        conditional_covariance(cov, [1], [1, 2])
    with pytest.raises(ValueError):
        conditional_covariance(cov, [], [2])
    with pytest.raises(ValueError):
        conditional_covariance(cov, [9], [2])
    zero = covariance_at(p5_standard(), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        conditional_covariance(zero, [1], [2])


def test_conditional_covariance_rejects_repeated_labels():
    # a repeated target gave a singular matrix, and a repeated given label a LinAlgError
    cov = covariance_at(p5_standard(), 2.0)
    with pytest.raises(ValueError, match="duplicate vertex in target"):
        conditional_covariance(cov, [1, 1], [3])
    with pytest.raises(ValueError, match="duplicate vertex in given"):
        conditional_covariance(cov, [1], [3, 3])


def test_conditional_on_rest_matches_precision_diagonal():
    sys = p5_standard()
    cov = covariance_at(sys, 2.0)
    q = precision_at(sys, 2.0).q
    for i, lab in enumerate(sys.labels):
        rest = [u for u in sys.labels if u != lab]
        c = conditional_covariance(cov, [lab], rest)
        assert c[0, 0] == pytest.approx(1.0 / q[i, i], rel=1e-8)


def test_lyapunov_ode_finite_difference():
    sys = p5_standard()
    h = 1e-4
    for t in (0.5, 1.0, 2.0):
        sp = covariance_at(sys, t + h).sigma
        sm = covariance_at(sys, t - h).sigma
        fd = (sp - sm) / (2 * h)
        s = covariance_at(sys, t).sigma
        rhs = sys.L @ s + s @ sys.L.T + np.eye(5)
        err = np.abs(fd - rhs).max() / np.abs(rhs).max()
        assert err < 1e-5


# ------------------------------------------------------- stacked path law


def test_path_covariance_single_point_matches_marginal():
    sys = p5_standard()
    stacked = path_covariance(sys, [0.0, 2.0], scheme="exact")
    np.testing.assert_allclose(stacked.matrix, covariance_at(sys, 2.0).sigma, atol=1e-12)
    assert stacked.times == (2.0,)


def test_path_covariance_grid_validation():
    sys = p5_standard()
    with pytest.raises(ValueError):
        path_covariance(sys, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        path_covariance(sys, [0.5, 1.0])
    with pytest.raises(ValueError):
        path_covariance(sys, [0.0])
    with pytest.raises(ValueError):
        path_covariance(sys, [0.0, 1.0], scheme="midpoint")


def block_table(rows):
    return {(r.u, r.v): r for r in rows}


def test_euler_chain_block_sparsity_on_p5():
    sys = p5_standard()
    grid = np.linspace(0.0, 1.75, 8)
    stacked = path_covariance(sys, grid, scheme="euler")
    table = block_table(path_precision_blocks(stacked))
    for pair in [(1, 4), (1, 5), (2, 5)]:
        assert table[pair].relative < 1e-8, pair
    assert table[(1, 3)].relative > 1e-3
    for pair, row in table.items():
        if graph_distance(path_graph(5), pair[0], pair[1]) <= 2:
            assert row.relative > 1e-6, pair


def test_exact_chain_blocks_are_dense():
    sys = p5_standard()
    grid = np.linspace(0.0, 1.75, 8)
    stacked = path_covariance(sys, grid, scheme="exact")
    table = block_table(path_precision_blocks(stacked))
    assert table[(1, 4)].relative > 1e-8


def test_monte_carlo_euler_chain_agrees_with_stacked_covariance():
    # simulate the euler chain directly and compare second moments
    rng = np.random.default_rng(42)
    sys = p5_standard()
    grid = np.linspace(0.0, 1.0, 5)
    stacked = path_covariance(sys, grid, scheme="euler")
    n, m, reps = 5, 4, 200_000
    x = np.zeros((reps, n))
    paths = np.empty((reps, n, m))
    dt = 0.25
    f = np.eye(n) + sys.L * dt
    for k in range(m):
        x = x @ f.T + rng.normal(size=(reps, n)) * np.sqrt(dt)
        paths[:, :, k] = x
    flat = paths.reshape(reps, n * m)
    emp = np.cov(flat, rowvar=False, bias=True)
    assert np.abs(emp - stacked.matrix).max() < 0.02


# ------------------------------------------------------- the configured model


@pytest.mark.parametrize(
    "g", [path_graph(6), grid_graph(3, 4), cycle_graph(5), regular_tree(2, 3)], ids=["path", "grid", "cycle", "tree"]
)
def test_linear_system_compiles_the_standard_drift_bit_for_bit(g):
    sys = linear_system(g, DriftTable.from_strings("nbr_sum(y) - 2*x"), ConstantDiffusion([[1.0]]))
    assert sys.L.tobytes() == build_linear_system(g, -2.0).L.tobytes()
    assert sys.labels == g.vertices and sys.noise == 1.0


# a constant offset, a neighbour average and an override that scales, divides and negates
AFFINE = DriftTable.from_strings("0.5*nbr_avg(y) - 1.5*x + 1", {2: "-(x - nbr_sum(y))/4 + 2*(3*0.1)"})


def test_linear_system_reads_affine_drifts_and_the_noise():
    sys = linear_system(path_graph(3), AFFINE, ConstantDiffusion([[0.7]]))
    np.testing.assert_allclose(sys.L, [[-1.5, 0.5, 0.0], [0.25, -0.25, 0.25], [0.0, 0.5, -1.5]], atol=1e-15)
    assert sys.noise == 0.7**2


def test_stacked_covariance_of_the_configured_model_matches_an_euler_ensemble():
    # sigma = 0.7 and an offset, which moves only the mean; each empirical
    # covariance entry must lie within 5 Gaussian standard errors
    g = grid_graph(2, 3)
    drift = DriftTable.from_strings("0.5*nbr_avg(y) - 1.5*x + 1", {(0, 1): "-(x - nbr_sum(y))/4"})
    diff = ConstantDiffusion([[0.7]])
    grid, reps = np.linspace(0.0, 1.0, 5), 100_000
    stacked = path_covariance(linear_system(g, drift, diff), grid, scheme="euler").matrix
    ens = simulate(g, drift, diff, PointMass(0.0), grid, reps, seed=3)
    emp = np.cov(ens.values[:, :, 1:, 0].reshape(reps, -1), rowvar=False, bias=True)
    var = np.diag(stacked)
    se = np.sqrt((np.outer(var, var) + stacked**2) / reps)
    assert np.all(np.abs(emp - stacked) <= 5 * se)


def random_tree_graph(rng, n):
    labels = list(range(1, n + 1))
    edges = []
    for v in labels[1:]:
        edges.append((int(rng.integers(1, v)), v))
    return Graph(labels, edges)


def test_block_sparsity_random_trees_random_edge_drifts():
    rng = np.random.default_rng(7)
    for _ in range(6):
        n = int(rng.integers(4, 9))
        g = random_tree_graph(rng, n)
        L = np.diag(rng.uniform(-2.5, -1.5, n))
        for u, v in g.edges():
            i, j = g.index(u), g.index(v)
            L[i, j] = rng.normal() * 0.6
            L[j, i] = rng.normal() * 0.6
        sys = GaussianSystem(L, g.vertices)
        stacked = path_covariance(sys, np.linspace(0, 1, 6), scheme="euler")
        for row in path_precision_blocks(stacked):
            if graph_distance(g, row.u, row.v) >= 3:
                assert row.relative < 1e-8, (row.u, row.v)


def test_path_precision_blocks_diagonal_system():
    sys = GaussianSystem(np.diag([-1.0, -2.0, -0.5]), ("a", "b", "c"))
    stacked = path_covariance(sys, [0.0, 0.5, 1.0], scheme="exact")
    for row in path_precision_blocks(stacked):
        assert row.max_abs < 1e-10


def test_path_precision_blocks_single_vertex():
    sys = build_linear_system(complete_graph(1), -2.0)
    stacked = path_covariance(sys, [0.0, 0.5, 1.0])
    assert path_precision_blocks(stacked) == []


def test_path_covariance_with_initial_covariance():
    sys = p5_standard()
    s1 = covariance_at(sys, 1.0).sigma
    stacked = path_covariance(sys, [0.0, 1.0], scheme="exact", initial_cov=s1)
    # law of X(2) when X(0) ~ N(0, Sigma(1)) equals Sigma(2) by the flow property
    np.testing.assert_allclose(stacked.matrix, covariance_at(sys, 2.0).sigma, atol=1e-10)


def per_pair_path_covariance(sys, grid, scheme, initial_cov=None):
    """The stacked path covariance filled one (k, l) time block at a time: the oracle."""
    grid = np.asarray(grid, dtype=float)
    n, m = sys.n, grid.size - 1
    steps = [_step_matrices(sys, dt, scheme) for dt in np.diff(grid).tolist()]
    big = np.zeros((n, m, n, m))
    v = np.zeros((n, n)) if initial_cov is None else initial_cov
    for k, (f, q) in enumerate(steps):
        v = f @ v @ f.T + q
        c = 0.5 * (v + v.T)
        big[:, k, :, k] = c
        for l in range(k + 1, m):
            c = c @ steps[l][0].T
            big[:, k, :, l] = c
            big[:, l, :, k] = c.T
    return big.reshape(n * m, n * m)


@pytest.mark.parametrize("scheme", ["euler", "exact"])
@pytest.mark.parametrize("with_initial", [False, True], ids=["point", "initial_cov"])
@pytest.mark.parametrize(
    "g, shift, grid",
    [
        (path_graph(10), -2.5, np.linspace(0.0, 1.0, 33)),
        (grid_graph(4, 4), -4.5, np.linspace(0.0, 1.0, 9)),
        (cycle_graph(7), -2.5, np.array([0.0, 0.05, 0.1, 0.3, 0.35, 0.7, 1.0, 1.02])),
        (path_graph(5), -2.0, np.array([0.0, 1.5])),
    ],
    ids=["path10_uniform", "grid4x4_uniform", "cycle7_nonuniform", "path5_one_step"],
)
def test_path_covariance_matches_the_per_pair_loop_bit_for_bit(g, shift, grid, scheme, with_initial):
    sys = build_linear_system(g, shift)
    a = np.random.default_rng(len(g)).normal(size=(sys.n, sys.n))
    initial_cov = a @ a.T + np.eye(sys.n) if with_initial else None
    got = path_covariance(sys, grid, scheme=scheme, initial_cov=initial_cov).matrix
    assert np.array_equal(got, per_pair_path_covariance(sys, grid, scheme, initial_cov))


# ------------------------------------------------------- emitters


def test_matrix_csv_round_trip():
    sys = p5_standard()
    s = covariance_at(sys, 2.0).sigma
    text = matrix_csv(s, sys.labels)
    lines = text.strip().split("\n")
    assert lines[0] == "1,2,3,4,5"
    back = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    np.testing.assert_array_equal(back, s)


def test_precision_edges_json_sorted():
    res = precision_at(build_linear_system(path_graph(5), 0.0), 2.0, tol=1e-6)
    import json

    pairs = json.loads(precision_edges_json(res))
    assert [1, 4] not in pairs and [2, 5] not in pairs
    assert [1, 2] in pairs
    assert pairs == sorted(pairs)
