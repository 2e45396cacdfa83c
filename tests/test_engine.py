import numpy as np
import pytest

from netdiff.coefficients import (
    ConstantDiffusion,
    DiffusionTable,
    DriftTable,
    EvalContext,
    TanhDiagonalDiffusion,
    evaluate_vectorized,
    parse_drift,
)
from netdiff.engine import (
    PathEnsemble,
    SimulationError,
    _ENERGY_POINTS,
    _ks_statistic,
    _plan,
    energy_distance,
    ensemble_summary_csv,
    entropy_bound_estimate,
    girsanov_weights,
    load_ensemble,
    noise_stream,
    save_ensemble,
    simulate,
    simulate_driftless,
    simulate_truncated,
    truncation_convergence,
)
from netdiff.gaussian import build_linear_system
from netdiff.graphs import Graph, complete_graph, grid_graph, path_graph, z_line
from netdiff.initials import NormalInitial, PointMass

UNIT = ConstantDiffusion([[1.0]])
P5_DRIFT = parse_drift("nbr_sum(y) - 2*x")


def test_brownian_one_step_variance():
    g = complete_graph(1)
    ens = simulate(g, None, UNIT, PointMass(0.0), [0.0, 0.5], 20_000, seed=1)
    var = ens.at_time(0.5)[:, 0, 0].var()
    # SE of a variance estimate is Delta*sqrt(2/R)
    assert abs(var - 0.5) < 3 * 0.5 * np.sqrt(2 / 20_000)


def test_replay_is_bit_identical():
    g = path_graph(3)
    diff = TanhDiagonalDiffusion([1.0], [0.4])
    a = simulate(g, P5_DRIFT, diff, NormalInitial(0, 1), np.linspace(0, 1, 9), 500, seed=77)
    b = simulate(g, P5_DRIFT, diff, NormalInitial(0, 1), np.linspace(0, 1, 9), 500, seed=77)
    assert np.array_equal(a.values, b.values)
    c = simulate(g, P5_DRIFT, diff, NormalInitial(0, 1), np.linspace(0, 1, 9), 500, seed=78)
    assert not np.array_equal(a.values, c.values)


def euler_chain_cov(L, dt, steps):
    n = L.shape[0]
    f = np.eye(n) + L * dt
    v = np.zeros((n, n))
    for _ in range(steps):
        v = f @ v @ f.T + dt * np.eye(n)
    return v


def test_p5_sample_covariance_matches_discrete_chain():
    g = path_graph(5)
    sys = build_linear_system(g, -2.0)
    substeps = 256
    ens = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), [0.0, 2.0], 30_000, seed=3, substeps=substeps)
    emp = np.cov(ens.at_time(2.0)[:, :, 0], rowvar=False)
    exact = euler_chain_cov(sys.L, 2.0 / substeps, substeps)
    # statistical-only gap: the oracle is the same discrete chain
    assert np.abs(emp - exact).max() < 0.012


def test_halving_step_changes_covariance_within_noise():
    g = path_graph(5)
    cov = {}
    for substeps in (256, 512):
        ens = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), [0.0, 2.0], 40_000, seed=11, substeps=substeps)
        cov[substeps] = np.cov(ens.at_time(2.0)[:, :, 0], rowvar=False)
    assert np.abs(cov[256] - cov[512]).max() < 0.014


def test_nan_explosion_is_reported():
    g = complete_graph(1)
    with pytest.raises(SimulationError) as err:
        simulate(g, parse_drift("x * x"), UNIT, PointMass(10.0), np.linspace(0, 12, 13), 8, seed=5)
    assert err.value.vertex == 1
    assert err.value.time > 0


def reference_values(g, drift, diffusion, mu0, grid, n_replicas, seed, substeps=1):
    """The vertex-by-vertex Euler stepper that the grouped stepper replaced."""
    d = diffusion.for_vertex(g.vertices[0]).d
    values = np.empty((n_replicas, len(g), grid.size, d))
    values[:, :, 0, :] = mu0.sample(n_replicas, g, seed, d)
    cur = values[:, :, 0, :].copy()
    for k in range(grid.size - 1):
        h = (grid[k + 1] - grid[k]) / substeps
        for j in range(substeps):
            new = np.empty_like(cur)
            for i, v in enumerate(g.vertices):
                x = cur[:, i, :]
                z = noise_stream(seed, k * substeps + j, v).standard_normal((n_replicas, d))
                dx = diffusion.for_vertex(v).noise_increment(x, z * np.sqrt(h))
                spec = drift.for_vertex(v)
                if spec is not None and not spec.is_zero:
                    nbrs = [cur[:, g.index(u), :] for u in g.neighbors(v)]
                    ctx = EvalContext(grid[k] + j * h, x, nbrs, times=grid[: k + 1], own_hist=values[:, i, : k + 1, :])
                    dx = dx + evaluate_vectorized(spec, ctx, d) * h
                new[:, i, :] = x + dx
            cur = new
        values[:, :, k + 1, :] = cur
    return values


def reference_drift(ens, spec, i, k):
    """Drift of vertex i at grid index k, evaluated for that vertex alone."""
    g, values = ens.graph, ens.values
    state = values[:, :, k, :]
    nbrs = [state[:, g.index(u), :] for u in g.neighbors(g.vertices[i])]
    ctx = EvalContext(ens.grid[k], state[:, i, :], nbrs, times=ens.grid[: k + 1], own_hist=values[:, i, : k + 1, :])
    return evaluate_vectorized(spec, ctx, ens.dim)


def drift_steps(spec, n):
    return range(n if spec is not None and not spec.is_zero else 0)


def reference_log_factor_parts(ens, drift, diffusion):
    """Per-vertex (M_v, [M_v]), vertex by vertex."""
    grid, values = ens.grid, ens.values
    parts = {}
    for i, v in enumerate(ens.graph.vertices):
        spec, sigma = drift.for_vertex(v), diffusion.for_vertex(v)
        m = qv = np.zeros(ens.n_replicas)
        for k in drift_steps(spec, grid.size - 1):
            x = values[:, i, k, :]
            b = reference_drift(ens, spec, i, k)
            m = m + np.sum(sigma.sigma_sigmaT_inv_vec(x, b) * (values[:, i, k + 1, :] - x), axis=1)
            s = sigma.sigma_inv_vec(x, b)
            qv = qv + np.sum(s * s, axis=1) * (grid[k + 1] - grid[k])
        parts[v] = (m, qv)
    return parts


def reference_entropy_bound(ens, drift, diffusion, vertices, kt):
    """The entropy bound summed vertex by vertex, then step by step."""
    total = 0.0
    for v in vertices:
        spec, sigma, i = drift.for_vertex(v), diffusion.for_vertex(v), ens.graph.index(v)
        for k in drift_steps(spec, kt):
            s = sigma.sigma_inv_vec(ens.values[:, i, k, :], reference_drift(ens, spec, i, k))
            total += float(np.mean(np.sum(s * s, axis=1))) * (ens.grid[k + 1] - ens.grid[k])
    return 0.5 * total


def test_grouped_stepper_matches_the_vertex_loop():
    rng = np.random.default_rng(8)
    texts = [
        "nbr_avg(tanh(y)) - x",
        "nbr_sum(sin(y)) - runavg(x, t)",
        "lag(x, 0.1) - 2*x + cos(t)",
        "clamp(-1, 1)(nbr_avg(y*y)) - runmax_norm(x)",
        "0.5*(nbr_sum(y) - 3*x) - runavg(x, 0.3)",
        "0",
    ]
    specs = [parse_drift(text) for text in texts] + [None]
    grid = np.linspace(0.0, 1.0, 25)
    diffusions = {
        1: [UNIT, ConstantDiffusion([[0.6]]), TanhDiagonalDiffusion([1.0], [0.4])],
        2: [ConstantDiffusion([[1.0, 0.3], [0.0, 0.8]]), TanhDiagonalDiffusion([1.0, 0.8], [0.2, -0.3])],
    }
    for d, diffs in diffusions.items():
        for default in specs[:4]:
            base = random_graph(rng, int(rng.integers(6, 12)), p=0.3)
            g = Graph(base.vertices + (99,), base.edges())  # 99 is isolated
            drift = DriftTable(default, {v: specs[rng.integers(len(specs))] for v in g.vertices if rng.random() < 0.5})
            diffusion = DiffusionTable(diffs[0], {v: diffs[rng.integers(len(diffs))] for v in g.vertices if rng.random() < 0.4})
            seed = int(rng.integers(1000))
            ens = simulate(g, drift, diffusion, NormalInitial(0, 1), grid, 20, seed)
            assert np.array_equal(ens.values, reference_values(g, drift, diffusion, NormalInitial(0, 1), grid, 20, seed))
            # shuffled, so a group's rows are out of graph order, and one repeat
            vs = [g.vertices[i] for i in rng.permutation(len(g))] + [g.vertices[0]]
            bound = entropy_bound_estimate(ens, drift, diffusion, vs, grid[12])
            assert bound == reference_entropy_bound(ens, drift, diffusion, vs, 12)
            if d == 1:
                memoryless = DriftTable(specs[0], {v: specs[0] if rng.random() < 0.5 else specs[5] for v in g.vertices})
                ens = simulate(g, memoryless, diffusion, NormalInitial(0, 1), grid[:9], 20, seed, substeps=3)
                want = reference_values(g, memoryless, diffusion, NormalInitial(0, 1), grid[:9], 20, seed, substeps=3)
                assert np.array_equal(ens.values, want)
            ref = simulate_driftless(g, diffusion, NormalInitial(0, 1), grid, 20, seed)
            w = girsanov_weights(ref, drift, diffusion)
            for v, (m, qv) in reference_log_factor_parts(ref, drift, diffusion).items():
                assert np.array_equal(w.m[v], m) and np.array_equal(w.quadratic_variation[v], qv)
    # whole degree groups of history drifts, their rows out of graph order
    g = grid_graph(4, 4)
    diffusion = DiffusionTable.uniform(UNIT)
    for spec in specs[1:4]:
        ens = simulate(g, DriftTable(spec), diffusion, NormalInitial(0, 1), grid, 20, 5)
        vs = [g.vertices[i] for i in rng.permutation(len(g))]
        bound = entropy_bound_estimate(ens, DriftTable(spec), diffusion, vs, grid[12])
        assert bound == reference_entropy_bound(ens, DriftTable(spec), diffusion, vs, 12)


def test_plan_groups_overrides_by_their_text():
    # overrides parsed one by one are distinct objects with one text
    g = grid_graph(10, 10)
    text = "runavg(x, t) - x"
    table = DriftTable.from_strings(overrides={v: text for v in g.vertices})
    assert len(_plan(g, table, UNIT, g.vertices)) == 3
    grid = np.linspace(0.0, 1.0, 9)
    ens = simulate(g, table, UNIT, NormalInitial(0, 1), grid, 5, seed=2)
    uniform = simulate(g, parse_drift(text), UNIT, NormalInitial(0, 1), grid, 5, seed=2)
    assert np.array_equal(ens.values, uniform.values)
    # equal specs that differ in the sign of a zero keep their own groups
    g = Graph([0, 1], [])
    table = DriftTable.from_strings(overrides={0: "x + -0", 1: "x + 0"})
    assert table.for_vertex(0) == table.for_vertex(1)
    plan = _plan(g, table, UNIT, g.vertices)
    assert [grp.labels for grp in plan] == [(0,), (1,)]
    ctx = EvalContext(0.0, np.full((1, 1), -0.0), [])
    signs = [np.signbit(evaluate_vectorized(grp.spec, ctx, 1)).item() for grp in plan]
    assert signs == [True, False]


def test_explosion_reports_the_vertex_replica_and_time():
    # only the centre explodes; it sits in its own block, away from its
    # position in graph order
    g = grid_graph(3, 3)
    drift = DriftTable(parse_drift("-x"), {(1, 1): parse_drift("x * x")})
    grid = np.linspace(0.0, 3.0, 31)
    mu0 = NormalInitial(0.5, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_values(g, drift, DiffusionTable.uniform(UNIT), mu0, grid, 40, 3)
    k = int(np.flatnonzero(~np.isfinite(want).all(axis=(0, 1, 3)))[0])
    r, vi = np.argwhere(~np.isfinite(want[:, :, k, 0]))[0]
    assert g.vertices[vi] == (1, 1) and r > 0
    with pytest.raises(SimulationError) as err:
        simulate(g, drift, UNIT, mu0, grid, 40, 3)
    assert (err.value.replica, err.value.vertex, err.value.time) == (r, (1, 1), grid[k])


def test_bare_number_diffusion_is_rejected_up_front():
    grid = np.linspace(0.0, 1.0, 3)
    with pytest.raises(TypeError, match="diffusion"):
        simulate(path_graph(3), parse_drift("-x"), 1.0, PointMass(0.0), grid, 10, 1)
    ens = simulate_driftless(path_graph(3), UNIT, PointMass(0.0), grid, 10, 1)
    with pytest.raises(TypeError, match="diffusion"):
        girsanov_weights(ens, parse_drift("-x"), 1.0)


def test_history_drift_requires_substeps_one():
    g = complete_graph(1)
    with pytest.raises(ValueError):
        simulate(g, parse_drift("lag(x, 0.5)"), UNIT, PointMass(0.0), [0.0, 1.0], 10, seed=1, substeps=2)


def test_driftless_variance_and_independence():
    g = path_graph(4)
    ens = simulate_driftless(g, UNIT, NormalInitial(0, 1), [0.0, 0.5, 1.0], 20_000, seed=9)
    assert ens.measure == "P_star"
    x = ens.at_time(1.0)[:, :, 0]
    for col in x.T:
        # initial variance 1 plus Brownian variance t
        assert abs(col.var() - 2.0) < 3 * 2.0 * np.sqrt(2 / 20_000)
    corr = np.corrcoef(x, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 3 / np.sqrt(20_000)


def test_girsanov_zero_drift_gives_unit_weights():
    g = path_graph(3)
    ens = simulate_driftless(g, UNIT, PointMass(0.0), np.linspace(0, 1, 5), 50, seed=2)
    w = girsanov_weights(ens, None, UNIT)
    np.testing.assert_array_equal(w.weights, np.ones(50))


def test_girsanov_weights_have_mean_one():
    g = path_graph(3)
    ens = simulate_driftless(g, UNIT, PointMass(0.0), np.linspace(0, 1, 33), 20_000, seed=13)
    w = girsanov_weights(ens, P5_DRIFT, UNIT).weights
    assert w.min() > 0
    s = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 3 * s


def test_girsanov_reweighting_matches_direct_simulation():
    g = path_graph(3)
    drift = parse_drift("1 - x + 0.3 * nbr_sum(y)")
    grid = np.linspace(0, 0.5, 17)
    n = 40_000
    star = simulate_driftless(g, UNIT, PointMass(0.0), grid, n, seed=21)
    w = girsanov_weights(star, drift, UNIT).weights
    f_star = star.at_time(0.5)[:, 0, 0]
    weighted = w * f_star
    direct = simulate(g, drift, UNIT, PointMass(0.0), grid, n, seed=22).at_time(0.5)[:, 0, 0]
    se = np.sqrt(weighted.var(ddof=1) / n + direct.var(ddof=1) / n)
    assert abs(weighted.mean() - direct.mean()) < 3 * se


def test_girsanov_tag_and_scheme_checks():
    g = path_graph(3)
    p_ens = simulate(g, None, UNIT, PointMass(0.0), [0.0, 1.0], 10, seed=1)
    with pytest.raises(ValueError):
        girsanov_weights(p_ens, P5_DRIFT, UNIT)
    coarse = simulate_driftless(g, UNIT, PointMass(0.0), [0.0, 1.0], 10, seed=1, substeps=4)
    with pytest.raises(ValueError):
        girsanov_weights(coarse, P5_DRIFT, UNIT)


def random_graph(rng, n, p=0.4):
    labels = list(range(1, n + 1))
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :] if rng.random() < p]
    return Graph(labels, edges)


def test_girsanov_factor_locality_is_bitwise():
    rng = np.random.default_rng(31)
    drift = parse_drift("nbr_avg(y) - x")
    diff = TanhDiagonalDiffusion([1.0], [0.4])
    for _ in range(3):
        g = random_graph(rng, int(rng.integers(4, 9)))
        ens = simulate_driftless(g, diff, NormalInitial(0, 1), np.linspace(0, 1, 9), 200, seed=6)
        full = girsanov_weights(ens, drift, diff)
        for v in g.vertices:
            local = girsanov_weights(ens.restrict({v, *g.neighbors(v)}), drift, diff)
            assert np.array_equal(full.m[v], local.m[v])
            assert np.array_equal(full.quadratic_variation[v], local.quadratic_variation[v])


def time_major(hist):
    """A copy of a (V, R, m, d) history stored (m, V, R, d), viewed in the same index order."""
    return np.ascontiguousarray(hist.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)


def test_runavg_sum_does_not_depend_on_the_history_layout():
    # windows of 8 points and more, where numpy's pairwise sum of a
    # contiguous time axis would differ from an in-order sum
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 1.0, 33)
    for d in (1, 2):
        hist = rng.standard_normal((5, 40, times.size, d))
        assert not np.shares_memory(hist, time_major(hist)) and np.array_equal(hist, time_major(hist))
        for text in ("runavg(x, t)", "runavg(x, 0.3)"):
            spec = parse_drift(text)
            for rows in (None, np.array([3, 1])):
                own = hist[:, :, -1, :] if rows is None else hist[rows, :, -1, :]
                got = [
                    evaluate_vectorized(spec, EvalContext(times[-1], own, times=times, own_hist=h, rows=rows), d)
                    for h in (hist, time_major(hist))
                ]
                assert got[0].tobytes() == got[1].tobytes(), (d, text, rows)


def test_every_ensemble_is_stored_time_major(tmp_path):
    g = grid_graph(3, 3)
    grid = np.linspace(0.0, 1.0, 5)
    drift = parse_drift("nbr_avg(y) - x")
    made = {
        "simulate": simulate(g, drift, UNIT, NormalInitial(0, 1), grid, 7, seed=2),
        "simulate_driftless": simulate_driftless(g, UNIT, NormalInitial(0, 1), grid, 7, seed=2),
        "simulate_truncated": simulate_truncated(z_line(), None, 4, drift, UNIT, PointMass(0.0), grid, 7, seed=2),
    }
    made["restrict"] = made["simulate"].restrict([(0, 0), (0, 1), (1, 1)])
    save_ensemble(tmp_path / "ens.bin", made["simulate"])
    made["load_ensemble"] = load_ensemble(tmp_path / "ens.bin")
    for name, ens in made.items():
        assert ens.values.transpose(2, 1, 0, 3).flags.c_contiguous, name
        assert ens.values.transpose(2, 1, 0, 3).flags.writeable, name


def test_history_weights_survive_save_load_and_restrict(tmp_path):
    g = grid_graph(3, 3)
    grid = np.linspace(0.0, 1.0, 33)
    drift = parse_drift("0.3*(nbr_avg(y) - runavg(x, t)) + 0.2*runavg(x, 0.3)")
    ref = simulate_driftless(g, UNIT, NormalInitial(0, 1), grid, 50, seed=12)
    ens = simulate(g, drift, UNIT, NormalInitial(0, 1), grid, 50, seed=12)
    w = girsanov_weights(ref, drift, UNIT)
    bound = entropy_bound_estimate(ens, drift, UNIT, g.vertices, 1.0)
    save_ensemble(tmp_path / "ref.bin", ref)
    save_ensemble(tmp_path / "ens.bin", ens)
    back = girsanov_weights(load_ensemble(tmp_path / "ref.bin"), drift, UNIT)
    assert w.weights.tobytes() == back.weights.tobytes()
    assert all(np.array_equal(w.m[v], back.m[v]) and np.array_equal(w.quadratic_variation[v], back.quadratic_variation[v]) for v in g.vertices)
    assert entropy_bound_estimate(load_ensemble(tmp_path / "ens.bin"), drift, UNIT, g.vertices, 1.0) == bound
    for v in g.vertices:
        ball = {v, *g.neighbors(v)}
        local = girsanov_weights(ref.restrict(ball), drift, UNIT)
        assert np.array_equal(w.m[v], local.m[v]) and np.array_equal(w.quadratic_variation[v], local.quadratic_variation[v])
        alone = entropy_bound_estimate(ens, drift, UNIT, [v], 1.0)
        assert entropy_bound_estimate(ens.restrict(ball), drift, UNIT, [v], 1.0) == alone


def test_truncation_covering_the_graph_reproduces_full_simulation():
    g = path_graph(9, root=5)
    grid = np.linspace(0, 1, 9)
    full = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), grid, 300, seed=17)
    trunc = simulate_truncated(g, 5, 8, P5_DRIFT, UNIT, PointMass(0.0), grid, 300, seed=17)
    assert trunc.measure == "P_n(8)"
    assert trunc.graph.vertices == full.graph.vertices
    assert trunc.graph.edge_set() == full.graph.edge_set()
    assert np.array_equal(trunc.values, full.values)


def test_truncated_measure_tag_and_shell():
    line = z_line()
    ens = simulate_truncated(line, None, 4, P5_DRIFT, UNIT, PointMass(0.0), [0.0, 0.5], 50, seed=1)
    assert ens.measure == "P_n(4)"
    assert set(ens.graph.vertices) == set(range(-4, 5))
    assert ens.graph.has_edge(-4, 3)  # shell completed to a clique


def test_truncation_convergence_zero_drift_indistinguishable():
    table = truncation_convergence(
        z_line(), None, UNIT, PointMass(0.0), [-1, 0, 1], 0.5, [4, 6], 3000, seed=8, steps=16
    )
    rows = list(table)
    assert [r.n for r in rows] == [4, 6]
    for row in rows:
        # common random numbers: window paths coincide bitwise without drift
        assert row.ks_max == 0.0
        assert row.energy_distance <= 1e-12
        assert row.replicas == row.points == 3000
    csv = table.to_csv()
    assert csv.splitlines()[0] == "n,energy_distance,ks_max,replicas,points"
    assert len(csv.splitlines()) == 3


def test_truncation_convergence_reports_the_energy_points_used():
    table = truncation_convergence(z_line(), None, UNIT, PointMass(0.0), [0], 0.25, [4, 5], 4500, seed=3, steps=2)
    assert [(r.replicas, r.points) for r in table] == [(4500, 4000), (4500, 4000)]
    assert [line.split(",")[-2:] for line in table.to_csv().splitlines()[1:]] == [["4500", "4000"]] * 2


@pytest.mark.parametrize(
    "a, b",
    [
        (np.array([0, 1, 1, 2, 2, 2, 3], float), np.array([1, 1, 2, 3, 3, 4], float)),  # tied integers
        (np.arange(10.0), np.arange(4.0)),  # one sample a prefix of the other
        (np.arange(4.0), np.arange(10.0)),
        (np.linspace(-1.0, 1.0, 7), np.linspace(-2.0, 0.5, 30)),  # unequal sizes
        (np.full(5, 3.0), np.full(8, 3.0)),  # identical values: zero gap
    ],
)
def test_ks_statistic_matches_scipy(a, b):
    from scipy.stats import ks_2samp

    want = ks_2samp(a, b, method="asymp").statistic
    assert repr(_ks_statistic(a, b)) == repr(float(want))


def test_ks_statistic_matches_scipy_on_random_samples():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(4)
    for _ in range(200):
        n, m = rng.integers(1, 60, size=2)
        a, b = rng.integers(-5, 6, size=n).astype(float), rng.normal(size=m).round(1)
        assert _ks_statistic(a, b) == ks_2samp(a, b, method="asymp").statistic


def test_truncation_convergence_window_validation():
    with pytest.raises(ValueError):
        truncation_convergence(z_line(), None, UNIT, PointMass(0.0), [5], 0.5, [4, 6], 100, seed=1)


def test_truncation_convergence_distance_decreases_with_level():
    table = truncation_convergence(
        z_line(), P5_DRIFT, UNIT, PointMass(0.0), [-1, 0, 1], 1.0, [4, 6, 8], 6000, seed=14, steps=32
    )
    rows = {r.n: r.energy_distance for r in table}
    assert rows[4] > rows[6] > rows[8]
    assert table.monotone_decreasing


def test_entropy_bound_zero_and_constant_drift():
    g = complete_graph(1)
    grid = np.linspace(0, 1, 17)
    ens = simulate(g, None, UNIT, PointMass(0.0), grid, 100, seed=4)
    assert entropy_bound_estimate(ens, None, UNIT, [1], 1.0) == 0.0
    ens = simulate(g, parse_drift("2"), UNIT, PointMass(0.0), grid, 100, seed=4)
    est = entropy_bound_estimate(ens, parse_drift("2"), UNIT, [1], 1.0)
    assert est == pytest.approx(0.5 * 4.0 * 1.0, rel=1e-12)


def test_entropy_bound_stability_under_replica_doubling():
    g = path_graph(5)
    grid = np.linspace(0, 1, 33)
    vals = []
    for n in (2000, 4000):
        ens = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), grid, n, seed=19)
        vals.append(entropy_bound_estimate(ens, P5_DRIFT, UNIT, [3], 1.0))
    assert vals[1] > 0
    assert abs(vals[0] - vals[1]) / vals[1] < 0.05


def test_entropy_bound_vertex_handling():
    g = path_graph(3)
    grid = [0.0, 0.5, 1.0]
    ens = simulate(g, P5_DRIFT, UNIT, PointMass(0.0), grid, 50, seed=2)
    with pytest.raises(ValueError):
        entropy_bound_estimate(ens, P5_DRIFT, UNIT, [9], 1.0)
    line = z_line()
    tens = simulate_truncated(line, None, 4, P5_DRIFT, UNIT, PointMass(0.0), grid, 50, seed=2)
    # vertices beyond the truncation are skipped, not an error
    a = entropy_bound_estimate(tens, P5_DRIFT, UNIT, [0, 99], 1.0)
    b = entropy_bound_estimate(tens, P5_DRIFT, UNIT, [0], 1.0)
    assert a == b
    with pytest.raises(ValueError):
        entropy_bound_estimate(ens, P5_DRIFT, UNIT, [1], 0.3)  # not a grid time


def test_save_load_round_trip(tmp_path):
    g = grid_graph(2, 2)
    diff = TanhDiagonalDiffusion([1.0], [0.3])
    ens = simulate(g, parse_drift("nbr_avg(y) - x"), diff, NormalInitial(0, 1), [0.0, 0.5, 1.0], 40, seed=23)
    p = tmp_path / "ens.bin"
    save_ensemble(p, ens)
    back = load_ensemble(p)
    assert np.array_equal(back.values, ens.values)
    np.testing.assert_array_equal(back.grid, ens.grid)
    assert back.labels == ens.labels  # tuple labels survive
    assert back.graph.edge_set() == ens.graph.edge_set()
    assert back.measure == ens.measure
    assert back.scheme == ens.scheme
    assert back.seed == ens.seed

    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not an ensemble")
    with pytest.raises(ValueError):
        load_ensemble(bad)


def numpy_labelled_path(n):
    labels = np.arange(1, n + 1)
    return Graph(labels, zip(labels[:-1], labels[1:]), root=labels[0])


def test_save_load_numpy_integer_labels(tmp_path):
    ens = simulate_driftless(numpy_labelled_path(3), UNIT, PointMass(0.0), [0.0, 0.5], 5, seed=4)
    p = tmp_path / "ens.bin"
    save_ensemble(p, ens)
    back = load_ensemble(p)
    assert back.graph == path_graph(3, root=1)
    assert all(type(v) is int for v in back.labels)
    assert np.array_equal(back.values, ens.values)


def test_noise_is_keyed_by_canonical_label():
    # np.int64(2) == 2, so the two graphs must see the same noise on each vertex
    grid = np.linspace(0.0, 1.0, 5)
    init = NormalInitial(0.0, 1.0)
    a = simulate(numpy_labelled_path(4), P5_DRIFT, UNIT, init, grid, 30, seed=8)
    b = simulate(path_graph(4, root=1), P5_DRIFT, UNIT, init, grid, 30, seed=8)
    assert np.array_equal(a.values, b.values)


def test_summary_csv_shape():
    g = path_graph(2)
    ens = simulate_driftless(g, UNIT, PointMass(1.5), [0.0, 1.0], 30, seed=3)
    lines = ensemble_summary_csv(ens).strip().splitlines()
    assert lines[0] == "vertex,time,component,mean,std"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[3]) == 1.5


def test_energy_distance_separates_and_vanishes():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1500, 2))
    y = rng.normal(size=(1500, 2))
    z = rng.normal(loc=1.0, size=(1500, 2))
    near = energy_distance(x, y)
    far = energy_distance(x, z)
    assert abs(near) < 0.02
    assert far > 0.2


def _energy_oracle(x, y):
    """The unblocked formula, from the full n x m cdist and the full pdist arrays."""
    from scipy.spatial.distance import cdist, pdist

    x, y = x[:_ENERGY_POINTS], y[:_ENERGY_POINTS]
    n, m = len(x), len(y)
    return 2 * cdist(x, y).mean() - 2 * pdist(x).sum() / (n * (n - 1)) - 2 * pdist(y).sum() / (m * (m - 1))


ENERGY_SIZES = (2, 255, 256, 257, 1500, 5000)  # around the 256-row block and past the 4000-point cut


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n, m", list(zip(ENERGY_SIZES, reversed(ENERGY_SIZES))) + [(257, 5000), (5000, 1500)])
def test_energy_distance_matches_unblocked_formula(n, m, p):
    rng = np.random.default_rng(n + 7 * m + p)
    x, y = rng.normal(size=(n, p)), rng.normal(loc=0.5, scale=1.5, size=(m, p))
    assert energy_distance(x, y) == pytest.approx(_energy_oracle(x, y), rel=1e-12)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", ENERGY_SIZES)
def test_energy_distance_of_a_sample_with_itself_matches_unblocked_formula(n, p):
    x = np.random.default_rng(n + p).normal(size=(n, p))
    got = energy_distance(x, x)
    assert got == pytest.approx(_energy_oracle(x, x), rel=1e-12)
    assert got < 0.0


def test_energy_distance_reads_a_1d_array_as_points_on_the_line():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=700), rng.normal(loc=0.3, size=300)
    assert energy_distance(a, b) == energy_distance(a[:, None], b[:, None])
    assert energy_distance(a, a) == energy_distance(a[:, None], a[:, None])


def test_energy_distance_memory_stays_in_row_blocks():
    import tracemalloc

    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(4000, 3)), rng.normal(size=(4000, 3))
    energy_distance(x[:3], y[:3])  # import scipy.spatial outside the trace
    tracemalloc.start()
    try:
        energy_distance(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full 4000 x 4000 cdist alone is 128 MB
    assert peak < 16 * 2**20


def test_ladder_rows_carry_the_paired_diagonal():
    # every level shares replica i's noise, so the cross mean keeps the paired (i, i) distances
    from scipy.spatial.distance import cdist, pdist

    R, levels, grid = 600, [4, 6], np.linspace(0.0, 1.0, 9)
    table = truncation_convergence(z_line(), P5_DRIFT, UNIT, PointMass(0.0), [-1, 0, 1], 1.0, levels, R, seed=5, steps=8)
    marg = {}
    for n in levels:
        ens = simulate_truncated(z_line(), None, n, P5_DRIFT, UNIT, PointMass(0.0), grid, R, 5)
        marg[n] = ens.values[:, [ens.graph.index(v) for v in (-1, 0, 1)], -1, :].reshape(R, -1)
    cur, ref = marg[4], marg[6]
    mean_x, mean_y = pdist(cur).mean(), pdist(ref).mean()
    # the reference row: -(2/n) times the mean pairwise distance
    assert table.rows[-1].energy_distance == pytest.approx(-2 / R * mean_y, rel=1e-12)
    d = cdist(cur, ref)
    paired = np.diag(d).mean()
    off_cross = (d.sum() - np.trace(d)) / (R * (R - 1))
    u_stat = 2 * off_cross - mean_x - mean_y
    assert table.rows[0].energy_distance == pytest.approx(u_stat - 2 / R * (off_cross - paired), rel=1e-9)


def _ladder_oracle(drift, mu0, window, t, ns, n_replicas, seed, steps, substeps=1):
    """The per-level ladder: one simulate_truncated per level, then the public distances per row."""
    ns = sorted(set(ns))
    grid = np.linspace(0.0, t, steps + 1)
    marginals = {}
    for n in ns:
        ens = simulate_truncated(z_line(), None, n, drift, UNIT, mu0, grid, n_replicas, seed, substeps)
        marginals[n] = ens.values[:, [ens.graph.index(v) for v in window], -1, :].reshape(n_replicas, -1)
    ref = marginals[ns[-1]]
    return [
        (n, energy_distance(marginals[n], ref), max(_ks_statistic(marginals[n][:, i], ref[:, i]) for i in range(ref.shape[1])))
        for n in ns
    ]


@pytest.mark.parametrize(
    "drift, mu0, levels, substeps, R",
    [
        (P5_DRIFT, PointMass(0.0), [4, 6, 8], 1, 700),
        (P5_DRIFT, NormalInitial(0, 1), [4, 6, 8], 1, 700),
        (parse_drift("nbr_sum(tanh(y)) - x + 0.5*runavg(x, 0.5)"), NormalInitial(0, 1), [4, 6, 8], 1, 700),
        (P5_DRIFT, NormalInitial(0, 1), [4, 6, 8], 2, 700),
        (P5_DRIFT, PointMass(0.0), [8, 4, 6, 4], 1, 700),
        (P5_DRIFT, NormalInitial(0, 1), [4, 5], 1, _ENERGY_POINTS + 100),  # past the energy points' cut
        (P5_DRIFT, NormalInitial(0, 1), [5], 1, 700),
    ],
)
def test_ladder_matches_the_per_level_loop_bit_for_bit(drift, mu0, levels, substeps, R):
    window = [-1, 0, 1]
    table = truncation_convergence(z_line(), drift, UNIT, mu0, window, 1.0, levels, R, seed=12, steps=6, substeps=substeps)
    got = [(r.n, r.energy_distance, r.ks_max) for r in table]
    assert got == _ladder_oracle(drift, mu0, window, 1.0, levels, R, 12, 6, substeps)


def test_ladder_draws_each_label_once(monkeypatch):
    import netdiff.engine as engine

    calls = []
    real = engine.noise_stream

    def counted(seed, step, vertex):
        calls.append(vertex)
        return real(seed, step, vertex)

    monkeypatch.setattr(engine, "noise_stream", counted)
    truncation_convergence(z_line(), P5_DRIFT, UNIT, PointMass(0.0), [-1, 0, 1], 1.0, [4, 6, 8], 50, seed=2, steps=4)
    assert sorted(calls) == list(range(-8, 9))  # the largest level's 17 labels, each once
    calls.clear()
    _ladder_oracle(P5_DRIFT, PointMass(0.0), [-1, 0, 1], 1.0, [4, 6, 8], 50, 2, 4)
    assert len(calls) == 9 + 13 + 17


def test_ladder_peak_stays_below_the_two_store_loop():
    import tracemalloc

    R, levels, window = 3000, [4, 6, 8], [-1, 0, 1]
    args = (P5_DRIFT, PointMass(0.0), window, 1.0, levels, R, 3, 16)
    energy_distance(np.zeros((3, 1)), np.ones((3, 1)))  # import scipy.spatial outside the trace
    peaks = []
    for ladder in (
        lambda: _ladder_oracle(*args),  # holds the previous level's paths while the next one runs
        lambda: truncation_convergence(z_line(), P5_DRIFT, UNIT, PointMass(0.0), window, 1.0, levels, R, seed=3, steps=16),
    ):
        tracemalloc.start()
        try:
            ladder()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the loop's peak holds the level-6 and level-8 stores; the ladder's the level-8 store and a 16-step tape of 13 labels
    assert peaks[1] < peaks[0]


def dcor_stat(a, b):
    def centered(m):
        return m - m.mean(0) - m.mean(1)[:, None] + m.mean()

    from scipy.spatial.distance import squareform, pdist

    da = centered(squareform(pdist(a)))
    db = centered(squareform(pdist(b)))
    return (da * db).mean()


def test_product_structure_under_reference_measure():
    g = path_graph(4)
    ens = simulate_driftless(g, UNIT, NormalInitial(0, 1), [0.0, 0.5, 1.0], 1200, seed=29)
    x = ens.at_time(1.0)[:, :2, 0]
    y = ens.at_time(1.0)[:, 2:, 0]
    obs = dcor_stat(x, y)
    rng = np.random.default_rng(1)
    null = []
    for _ in range(200):
        perm = rng.permutation(len(y))
        null.append(dcor_stat(x, y[perm]))
    # dependence statistic sits inside the permutation null
    assert obs < np.quantile(null, 0.99)
