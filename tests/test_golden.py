"""Golden digests of the numerical routes and of the JSON artifacts.

These pin results bit for bit, so a refactor or a speed-up of the engine,
of the exact route, of the discrete lab, of the level-n truncation, of the
drift language or of the config readers must reproduce them exactly;
changing one on purpose needs a digest bump stated in CHANGES.md.  Most
simulated drifts use only arithmetic, neighbour averages and running
averages.  The engine-kernel, config-read and drift-language pins also
evaluate tanh, sin and cos, through numpy's own loops, so those digests hold
for the numpy build they were made with.  The labels are plain ints and tuples of
ints.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
from test_coefficients import CATALOG, _random_ast

from netdiff.cli import main
from netdiff.coefficients import (
    ConstantDiffusion,
    DiffusionTable,
    DriftSpec,
    DriftTable,
    EvalContext,
    TanhDiagonalDiffusion,
    evaluate_vectorized,
    parse_drift,
    serialize,
    truncated_drift_family,
)
from netdiff.config import build_diffusion, build_initial
from netdiff.discrete import (
    FactorModel,
    check_mrf_bruteforce,
    conditional_specification,
    factor_model_to_json,
    factorize_positive_2mrf,
    joint_table,
    project_to_truncation,
    random_factor_model,
)
from netdiff.engine import (
    entropy_bound_estimate,
    girsanov_weights,
    save_ensemble,
    simulate,
    simulate_driftless,
    simulate_truncated,
)
from netdiff.gaussian import (
    GaussianSystem,
    build_linear_system,
    covariance_at,
    path_covariance,
    path_precision_blocks,
)
from netdiff.graphs import Graph, _graph_to_json, grid_graph, path_graph, regular_tree, z_line
from netdiff.independence import mrf_order_scan
from netdiff.initials import NormalInitial, PointMass

GRID = np.linspace(0.0, 1.0, 9)
DIFF = ConstantDiffusion([[0.7]])


def sha(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype=float), dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def test_simulate_digests():
    g = grid_graph(3, 3)
    got = {}
    for text in ("nbr_avg(y) - x", "nbr_avg(y) - runavg(x, 0.25)"):
        ens = simulate(g, parse_drift(text), DIFF, NormalInitial(0.0, 1.0), GRID, 40, seed=5)
        got[text] = sha(ens.values)
    assert got == {
        "nbr_avg(y) - x": "44f1f831fb4884aae999f47de00aac8495ff0627b0107f91b47a7f3421d51cd0",
        "nbr_avg(y) - runavg(x, 0.25)": "4771d00bb4a316233a709bd944f8f8dba5f06066ebeb3e604c60be1194ebae8a",
    }


def test_girsanov_weights_and_entropy_bound_digests():
    g = grid_graph(3, 3)
    drift = parse_drift("0.3*(nbr_avg(y) - runavg(x, 0.25))")
    ref = simulate_driftless(g, DIFF, PointMass(0.0), GRID, 60, seed=9)
    w = girsanov_weights(ref, drift, DIFF)
    assert sha(w.weights) == "b59a8a5da0c64c9ef4258c5555bad20ab581959d4004e803801b4f4362d2603b"
    ens = simulate(g, drift, DIFF, PointMass(0.0), GRID, 60, seed=9)
    bound = entropy_bound_estimate(ens, drift, DIFF, [(1, 1), (0, 1), (2, 2)], 0.75)
    assert repr(bound) == "np.float64(0.02847221154388121)"


def test_engine_kernel_digests():
    """The "runavg(x, t) - x" entry was re-pinned when ensembles moved to a
    time-major store: runavg now sums its window in time order, one slice at
    a time, so its summation order no longer depends on the memory layout.
    Its windows reach 9 points, where numpy's pairwise sum of a contiguous
    time axis had grouped the terms differently.  No other entry moved."""
    # degrees 2, 3 and 4 plus an isolated vertex, so every degree group,
    # and a group with no neighbours, reaches the stepper
    g4 = grid_graph(4, 4)
    g = Graph(list(g4.vertices) + [(9, 9)], g4.edges())
    mu = NormalInitial(0.0, 1.0)
    got = {}
    for text in (
        "nbr_avg(tanh(y)) - x",
        "nbr_sum(sin(y)) - lag(x, 0.2) + cos(t)*x",
        "clamp(-1, 1)(nbr_avg(y*y)) - runmax_norm(x)",
        "runavg(x, t) - x",
    ):
        got[text] = sha(simulate(g, parse_drift(text), DIFF, mu, GRID, 30, seed=6).values)
    matrix = ConstantDiffusion([[1, 0.3], [0, 0.8]])
    got["d2"] = sha(simulate(g, parse_drift("nbr_avg(y) - x - 0.1*runmax_norm(x)"), matrix, mu, GRID, 30, seed=6).values)
    drift = parse_drift("nbr_avg(tanh(y)) - x")
    got["tanh_diagonal"] = sha(simulate(g, drift, TanhDiagonalDiffusion([1.0], [0.4]), mu, GRID, 30, seed=6).values)
    got["substeps"] = sha(simulate(g, drift, DIFF, mu, GRID, 30, seed=6, substeps=3).values)
    table = DriftTable(parse_drift("nbr_avg(y) - x"), {
        (0, 0): parse_drift("0"),
        (1, 1): parse_drift("sin(t) - 2*x"),
        (3, 2): None,
        (9, 9): parse_drift("lag(x, 0.3) - x"),
    })
    diffs = DiffusionTable(DIFF, {(2, 2): ConstantDiffusion([[1.3]]), (3, 1): TanhDiagonalDiffusion([1.0], [0.5])})
    got["tables"] = sha(simulate(g, table, diffs, mu, GRID, 30, seed=6).values)
    w = girsanov_weights(simulate_driftless(g, diffs, PointMass(0.0), GRID, 30, seed=6), table, diffs)
    got["m"] = sha([w.m[v] for v in g.vertices])
    got["qv"] = sha([w.quadratic_variation[v] for v in g.vertices])
    ens = simulate(g, table, diffs, PointMass(0.0), GRID, 30, seed=6)
    # a repeated vertex counts twice; (0, 0) has no drift
    got["entropy"] = repr(entropy_bound_estimate(ens, table, diffs, [(1, 1), (0, 0), (2, 2), (1, 1), (3, 1)], 0.75))
    assert got == {
        "nbr_avg(tanh(y)) - x": "62d1879439964b276b619410d92118c66d7751f20076e9543114a6f05ea67409",
        "nbr_sum(sin(y)) - lag(x, 0.2) + cos(t)*x": "08d344cd073af20f0fa5829300626b201c66e490990d012557531c955aadb2c9",
        "clamp(-1, 1)(nbr_avg(y*y)) - runmax_norm(x)": "3ddf9286b2fe40c2281cf337fbdcd44a3d57e69d120397d0d04fca811377acba",
        "runavg(x, t) - x": "54219ca09d3e7df00296a5198786484616b675ded93a0daae3858429f7d4875a",
        "d2": "374c26a075355753b902787d653f8bd72fa9178c32a1e7d0c3e688b150f76a3e",
        "tanh_diagonal": "df8ecde9505a0b56f6e0922a13fa417984ed9d6c98ca1520f98fa37628ec241e",
        "substeps": "73371e0979de264ad0fc76c61ab72db18ff0f3446ea01ef6093f61cb69c6da64",
        "tables": "47583ebe149dc2090249af5f31724ea1bd623b105951f9e77093bbb05c130b04",
        "m": "4ac418d2a7c8032c38b64a87964370097873228d0f3e11059c778bc18cd3e63c",
        "qv": "dd836d3056d3cc8e80753bef10d2507b825bf16097da36d82053e8adf439569e",
        "entropy": "np.float64(0.7055953725165237)",
    }


def test_exact_route_digests():
    g = path_graph(6)
    stacked = path_covariance(build_linear_system(g, -2.0), np.linspace(0.0, 1.0, 5), "euler")
    blocks = path_precision_blocks(stacked)
    assert sha([b.relative for b in blocks]) == "9d17a09e95aa20545e59f30e4ba7e8362e8ce2cdc6af8a81e124a2fc3a2fabbb"
    reports = mrf_order_scan(g, stacked)
    assert sha([r.statistic for r in reports]) == "7a1dca2e558f2f9897b833b8030d4573dc5c87ca88a1f38ea4a6449ce48cca31"


def test_exact_route_matrix_digests():
    # both step laws on a symmetric and a non-symmetric drift, an uneven
    # grid and a random initial law
    sym = build_linear_system(grid_graph(2, 3), -4.5)
    L = np.diag([-2.0, -2.5, -3.0, -1.5]) + np.diag([0.8, 0.3, 0.6], 1) + np.diag([0.2, 0.5, 0.1], -1)
    nonsym = GaussianSystem(L, (0, 1, 2, 3))
    assert sym.is_symmetric and not nonsym.is_symmetric
    grid = np.linspace(0.0, 1.0, 5)
    uneven = [0.0, 0.1, 0.35, 0.5, 0.9]
    v0 = 0.5 * np.eye(6) + 0.1 * np.ones((6, 6))
    got = {
        "sym_euler": sha(path_covariance(sym, grid, "euler").matrix),
        "sym_exact": sha(path_covariance(sym, grid, "exact").matrix),
        "nonsym_exact": sha(path_covariance(nonsym, uneven, "exact").matrix),
        "euler_initial": sha(path_covariance(sym, uneven, "euler", initial_cov=v0).matrix),
        "cov_sym": sha(covariance_at(sym, 0.7).sigma),
        "cov_nonsym": sha(covariance_at(nonsym, 0.7).sigma),
    }
    assert got == {
        "sym_euler": "64024850fef261a24fad36a928e4bbd8ac79ad6c1757a218721d780ad19b57c0",
        "sym_exact": "5d45a02370a04c8921eeb124b1ab8f74510e9514ce04c2b30056e6c3d5fe3abd",
        "nonsym_exact": "126bd507c53000d93905dbf578357b014d91bb9a6cd51257f00d06664fa65134",
        "euler_initial": "3e7998cb4a3053e267fb91db4d45459f78e1456f8ef61450bdccb16246d02ad5",
        "cov_sym": "c194cc80cc20bdbaadd854bb9ed9f5b86ac8cc2348b36f970bb470ad1474c11a",
        "cov_nonsym": "2e94968340288816b65c53f9080b179587288bb973bb8ed641c4d18beb2ccd09",
    }


def test_config_read_digests():
    # every initial kind and diffusion form, read through the config builders
    g = path_graph(4)
    model = json.loads(factor_model_to_json(random_factor_model(g, 2, np.random.default_rng(1))))
    initials = {
        "point": {"kind": "point", "params": {"value": 0.5}},
        "normal": {"kind": "normal", "params": {"mean": 1.0, "std": 0.5}},
        "uniform": {"kind": "uniform", "params": {"lo": -1.0, "hi": 2.0}},
        "per_vertex": {"kind": "per_vertex", "params": {
            "default": {"kind": "normal", "params": {"std": 2.0}},
            "overrides": {
                "2": {"kind": "point", "params": {"value": 3.0}},
                "4": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
            },
        }},
        "factor_model": {"kind": "factor_model", "params": {"model": model, "state_values": [-1.0, 1.0]}},
    }
    laws = {name: build_initial({"initial": spec}, g) for name, spec in initials.items()}
    got = {name: sha(law.sample(50, g, 3)) for name, law in laws.items()}
    diffusions = {
        "value": {"kind": "constant", "params": {"value": 0.7}},
        "matrix": {"kind": "constant", "params": {"matrix": [[1.0, 0.3], [0.0, 0.8]]}},
        "tanh_diagonal": {"kind": "tanh_diagonal", "params": {"a": [1.0], "b": [0.4]}},
    }
    drift = parse_drift("nbr_avg(y) - x")
    for name, spec in diffusions.items():
        diff = build_diffusion({"diffusion": spec})
        got[name] = sha(simulate(g, drift, diff, laws["normal"], GRID, 20, seed=4).values)
    got["simulate_per_vertex"] = sha(simulate(g, drift, DIFF, laws["per_vertex"], GRID, 20, seed=4).values)
    assert set(laws["per_vertex"].overrides) == {2, 4}
    assert got == {
        "point": "6dcdc830018f292e29172bb9da571ef028d548e6874bc51ab402d3d6170c3902",
        "normal": "4adad93aa0caff656e9c5e2b8492e32a4eafafd95641f34ce02da275fedeee92",
        "uniform": "5c67083c08a32919bba07dde14d30de1109515f50b95bf6c3a491033cda2929a",
        "per_vertex": "1c78af1df373cc4e8cc74643bf8dc819011bda650af5c5253d929f4434feb2c7",
        "factor_model": "9185a3ee6cfe084dcc259ded8382b2ff078196220a1160806822dfba9d59c3d2",
        "value": "970808a7c1112e6b4a0f1f6d136ccac10f029a2dd1f71451b5a275cda7d8620c",
        "matrix": "a833e6472be16347b257aa43cc781536a09747bee8de318fd1d1d5ed87a43e20",
        "tanh_diagonal": "15415287031ba343517abcc7003b513b475c99b3f816ea276eece4739682a46e",
        "simulate_per_vertex": "1ccc106f43e2263f3770ed59b53d94747876f6c8c287f5f044065d4ffc795c07",
    }


def test_discrete_route_digests():
    g = grid_graph(2, 3)
    joint = joint_table(random_factor_model(g, 2, np.random.default_rng(0)))
    assert sha(joint.probs) == "72bd9378053fbcc2e5b1c307c0a81e7b509103e4503f1fb14e43f1d515643c53"
    back = factorize_positive_2mrf(joint, g)
    assert len(back.factors) == 29 and list(back.base) == list(g.vertices)
    factors = np.concatenate([t.ravel() for t in back.factors.values()])
    assert sha(factors) == "083ccc1053ffab69479aa254bfabab2c52f8610506bffc9fe71c7273be82bb5e"
    base = np.concatenate(list(back.base.values()))
    assert sha(base) == "83aea44c74698df8ee9eda098b713f509ba02245dc1ecdc44d7ca041bde510b7"
    violation = check_mrf_bruteforce(joint, g, 2).max_violation
    assert sha([violation]) == "00ece03d841d0cae9c98cb78e63c1ea05db9eb17869010ee76ab8b267aaf927d"


def test_discrete_lab_pins(tmp_path, capsys):
    # the worst sets of the exhaustive check, the conditional kernels, a
    # projected joint and the hc-lab report, byte for byte
    g = grid_graph(2, 3)
    model = random_factor_model(g, 2, np.random.default_rng(0))
    joint = joint_table(model)
    worst = [check_mrf_bruteforce(joint, g, order).worst for order in (1, 2)]
    assert [(w.a, w.boundary, w.config) for w in worst] == [
        (((0, 1), (1, 0)), ((0, 0), (0, 2), (1, 1)), (1, 1, 0)),
        (((0, 0),), ((0, 1), (0, 2), (1, 0), (1, 1)), (1, 0, 0, 1)),
    ]
    kernels = {a: sha(conditional_specification(model, a).table) for a in (((1, 1),), ((0, 1), (1, 1)))}
    assert kernels == {
        ((1, 1),): "bc170ecd94bd2a1ebaeb6935255054439c696580cb248de763e63809c9b577dc",
        ((0, 1), (1, 1)): "5216550186414a3b1844ce6a83ea9d9ec476b316405b7349a14156de74f39ca0",
    }
    proj = project_to_truncation(random_factor_model(path_graph(9, root=2), 3, np.random.default_rng(5)), 4)
    assert sha(joint_table(proj).probs) == "0aa5d00384ffb7875d6bea42c0810ba56628ff89cf6f3a205f440610abaa964c"
    spin = CHAIN.with_name("spin.json")
    got = _run_digests(tmp_path, ["hc-lab", "--config", str(spin)], ["hc_report.json"])
    capsys.readouterr()
    assert got == {"hc_report.json": "62a180a93c38fb21128fc158fc6a432285dd4b37383ae3e5f99c2f138d3ba08b"}


def _random_connected(n, rng):
    """A random tree plus 3 extra edges, the vertices renamed by a permutation."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for i in rng.choice(len(missing), size=3, replace=False):
        edges.add(missing[int(i)])
    labels = rng.permutation(n)
    return Graph(range(n), sorted((int(labels[u]), int(labels[v])) for u, v in edges))


def test_discrete_lab_pins_beyond_the_grid():
    # k=3 on six vertices listed out of label order, and k=2 on a random
    # connected graph of ten: the violation bits, the worst set (which
    # fixes the enumeration order of ties) and the 2-clique potentials
    six = Graph([5, 2, 0, 4, 1, 3], [(5, 2), (2, 0), (0, 4), (4, 1), (1, 3), (2, 1), (3, 5)])
    ten = _random_connected(10, np.random.default_rng(8))
    assert ten.edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 5), (2, 8), (4, 7), (5, 7), (6, 7), (6, 8), (8, 9)]
    cases = [
        (3, six, 21, [
            ("e7bd6cd0e35834fd200cd92cb3eca9d93de8ae1bb7f700bd5e8f938331f1c22c", ((2, 0), (5, 4, 1), (0, 1, 2))),
            ("60194e914a64aa2359bac2e33a91ba86f7d66dd4b08583f37b887dddf2babcc4", ((0,), (5, 2, 4, 1), (1, 1, 2, 2))),
        ], 29, "f7c1d9fea4d378236c477e11bdfb34a959c412b09bd2718161950846b951e04a",
            "744a15db5952556c0f86bc24c1e89d063e537516f8be0a9214bd2fc77270ea29"),
        (2, ten, 22, [
            ("905b0ee7988e562f3feb6068daa7f7542377879a5e6f7621bd38c59294b7d3fe", ((0, 1, 3, 4, 6, 8, 9), (2, 7), (0, 0))),
            ("1ef117218d5e60799145f646bb8383294b6eaa1f8e951b49ee4140f1b625a4b8", ((0, 3, 4, 5, 7), (1, 2, 6, 8), (1, 0, 1, 1))),
        ], 109, "ba37dfdee70bb1d01a389a2f795c085ccca41d9a685359f3a940ba517ee9264f",
            "4006c1d99ccdc96a0d49942b6a9de99504447dac37eb8e610e695b9a38eb96d3"),
    ]
    for k, g, seed, checks, n_factors, factors_sha, base_sha in cases:
        joint = joint_table(random_factor_model(g, k, np.random.default_rng(seed)))
        for order, (violation_sha, worst) in zip((1, 2), checks):
            chk = check_mrf_bruteforce(joint, g, order)
            assert sha([chk.max_violation]) == violation_sha
            assert (chk.worst.a, chk.worst.boundary, chk.worst.config) == worst
        back = factorize_positive_2mrf(joint, g)
        assert len(back.factors) == n_factors and list(back.base) == list(g.vertices)
        assert sha(np.concatenate([t.ravel() for t in back.factors.values()])) == factors_sha
        assert sha(np.concatenate(list(back.base.values()))) == base_sha


def test_truncation_route_digests():
    drift = parse_drift("nbr_avg(y) - x")
    ens = simulate_truncated(z_line(), None, 6, drift, DIFF, NormalInitial(0.0, 1.0), GRID, 30, seed=4)
    assert sha(ens.values) == "cf4b45dafa23156f085cdc49efadfd8897bebfb7a96707dff82f16b8021424b2"
    graph_doc = json.dumps(_graph_to_json(ens.graph), sort_keys=True).encode()
    assert hashlib.sha256(graph_doc).hexdigest() == "a5c2b706631152d7c31a6d72bcfcc52eeb1aba42202f5eac0d3005fd5582ad45"

    tree = regular_tree(3, 5).with_root(4)
    drift = DriftTable(drift, {1: parse_drift("-x")})
    family = truncated_drift_family(drift, tree, 4)
    entries = json.dumps([[v, family.for_vertex(v).text] for v in family.overrides]).encode()
    assert hashlib.sha256(entries).hexdigest() == "297da4cde981297ec948261b78bb0cede613db0b43b2bd5a8e9749525180bd1e"

    g = path_graph(13, root=7)
    proj = project_to_truncation(random_factor_model(g, 2, np.random.default_rng(3)), 4)
    assert list(proj.factors)[-1] == (3, 4, 10, 11) and proj.graph.vertices == tuple(range(3, 12))
    factors = np.concatenate([t.ravel() for t in proj.factors.values()])
    assert sha(factors) == "506bf41191af09b0a13db84d25628adac56fac2561b5556c6b8f356d312ac60a"


def test_artifact_json_bytes(tmp_path, capsys):
    g = grid_graph(2, 2, root=(0, 0))
    ens = simulate(g, None, DIFF, PointMass(0.0), [0.0, 0.5], 2, seed=1)
    save_ensemble(tmp_path / "paths.bin", ens)
    blob = (tmp_path / "paths.bin").read_bytes()
    (hlen,) = np.frombuffer(blob[5:9], dtype="<u4")
    assert blob[9:9 + int(hlen)].decode() == (
        '{"grid": [0.0, 0.5], "vertices": [[0, 0], [0, 1], [1, 0], [1, 1]], '
        '"edges": [[[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [1, 1]], [[1, 0], [1, 1]]], '
        '"root": [0, 0], "seed": 1, "scheme": {"kind": "euler_maruyama", "substeps": 1}, '
        '"measure": "P", "shape": [2, 4, 2, 1]}'
    )

    model = FactorModel(g, 2, {((0, 0), (0, 1)): [[2.0, 1.0], [1.0, 2.0]]}, {(1, 1): [1.0, 3.0]})
    assert factor_model_to_json(model) == (
        '{"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]], '
        '"edges": [[[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [1, 1]], [[1, 0], [1, 1]]], '
        '"root": [0, 0], "k": 2, '
        '"factors": {"(0, 0)|(0, 1)": {"clique": [[0, 0], [0, 1]], "table": [2.0, 1.0, 1.0, 2.0]}}, '
        '"base": {"(1, 1)": {"vertex": [1, 1], "weights": [1.0, 3.0]}}}'
    )

    cfg = {
        "graph": {"kind": "grid", "rows": 2, "cols": 3},
        "drift": {"default": "0"},
        "diffusion": {"kind": "constant", "params": {"value": 1.0}},
        "initial": {"kind": "point", "params": {"value": 0.0}},
        "grid": {"t_max": 1.0, "steps": 4},
        "seed": 1,
        "options": {"graph": {"set": [[0, 1]]}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["graph", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    (run_dir,) = (tmp_path / "out").iterdir()
    report = (run_dir / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == "13c2695d8d30592aecc7abad900cb46cd8feeb120e3444848616c103222f6f91"


CHAIN = Path(__file__).resolve().parents[1] / "demos" / "configs" / "chain.json"


def test_chain_demo_exact_artifact_digests(tmp_path, capsys):
    # the exact route end to end: every artifact of `gaussian` and exact `ci-scan` on chain.json
    got = {}
    for command in ("gaussian", "ci-scan"):
        assert main([command, "--config", str(CHAIN), "--out", str(tmp_path)]) == 0
        (run_dir,) = tmp_path.glob(f"{command}-*")
        for path in sorted(run_dir.iterdir()):
            if path.name != "run.log":
                got[f"{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == {
        "gaussian/ci_edges.json": "21aec5371d3577111df1f0693e7bef0fd6a23ce2e363256051b0b14e7fd107b5",
        "gaussian/conditional_1.csv": "749d40705a3fd1a675e486c33c6128754e0b4c3da1146e7d69551f693fd81874",
        "gaussian/conditional_2.csv": "0b199b1e2c04ab702d4b883fef448c75eb7ec68a4876c568479653e85fb933b7",
        "gaussian/covariance.csv": "eece45608731780cf5580d00c049980e12bcc4a7491eef16fb8b7240e3ac5fec",
        "gaussian/manifest.json": "e716fecb6c7b0012c67b20040ef8fcf97a64a70b153e723cde11d516cb16209d",
        "gaussian/precision.csv": "7e92935db5ad17ec3247be58644dae8727fad88506c58417fcc411e6eb556157",
        "ci-scan/manifest.json": "7dbed1b5c843a063c61e8a3fdcac5f1f3e7e07c78967c34f0b3157d2e50e31b9",
        "ci-scan/reports.json": "f36a8b2fd7963fd9698ec178e34c5aa9adc06b45d4d2ebd6c12fb8ef6d64c4b4",
        "ci-scan/summary.csv": "ec141cacdbcbe58a20debb3cb4c0dd3e2227e267c1ce02a232ced86a12454b88",
        "ci-scan/verdicts.json": "b1e0cad459bbc5f8b17e8e40e173e0cdb07d414aca86de60ee516f95de6a0460",
    }


def _run_digests(tmp_path, argv, names):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


def test_ensemble_ci_scan_artifact_digests(tmp_path, capsys):
    # the Fisher-z thresholds and p-values of every test, through the normal tails
    cfg = {
        "graph": {"kind": "path", "n": 5},
        "drift": {"default": "nbr_sum(y) - 2*x"},
        "diffusion": {"kind": "constant", "params": {"value": 1.0}},
        "initial": {"kind": "point", "params": {"value": 0.0}},
        "grid": {"t_max": 1.0, "steps": 8},
        "replicas": 3000,
        "seed": 11,
        "options": {"ci-scan": {"mode": "ensemble", "orders": [1, 2]}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    got = _run_digests(tmp_path / "out", ["ci-scan", "--config", str(path)], ["reports.json", "verdicts.json"])
    capsys.readouterr()
    assert got == {
        "reports.json": "04e7af498ee75d05b97c79eae8cc6e394aa856bdeb5829d3ba8e7d679fb4797b",
        "verdicts.json": "cd2a98964544986280c0e73a3e6137dc399e6ceec2616a1a6a070164ba4bf468",
    }


def test_approx_artifact_digests(tmp_path, capsys):
    # energy distances and KS statistics of the truncation ladder on zline.json
    zline = CHAIN.with_name("zline.json")
    argv = ["approx", "--config", str(zline), "--replicas", "200"]
    got = _run_digests(tmp_path, argv, ["trend.json", "truncation.csv"])
    capsys.readouterr()
    assert got == {
        "trend.json": "6c38126fb6018c31595a517f8df5395583cf25a538cb5f2616a8b50e8f81bf3a",
        "truncation.csv": "3a8a50167b9e6d00201700b4b052484a8831d814b501e84e4ee0240d8182c8f0",
    }


def _node_kinds(node):
    yield type(node).__name__
    for f in dataclasses.fields(node):
        child = getattr(node, f.name)
        if dataclasses.is_dataclass(child):
            yield from _node_kinds(child)


def test_drift_language_digests():
    rng = np.random.default_rng(2024)
    asts = [parse_drift(src).ast for src in CATALOG]
    asts += [_random_ast(rng, int(rng.integers(1, 5)), False, True) for _ in range(200)]
    assert {k for ast in asts for k in _node_kinds(ast)} == {
        "Num", "OwnState", "NbrState", "TimeVar", "Component", "BinOp", "Neg",
        "Call1", "Clamp", "NbrAgg", "Lag", "RunAvg", "RunMaxNorm",
    }
    text = "\n".join(serialize(ast) for ast in asts).encode()
    assert hashlib.sha256(text).hexdigest() == "7fa5eaac357c96e86479c012174c29aa5391e81c8d02b0c70ea97c9cc9ae4023"

    state = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 9)
    hist = state.normal(size=(5, 9, 3))
    nbrs = [state.normal(size=(5, 3)) for _ in range(2)]
    values = []
    for ast in asts:
        ctx = EvalContext(0.8, hist[:, 6, :], nbrs=nbrs, times=times, own_hist=hist)
        values.append(evaluate_vectorized(DriftSpec(ast), ctx, 3))
    assert sha(values) == "741b088fb6c487a329898e9955be9170b04327a09efe6a6bdd3557b20212ff1f"
