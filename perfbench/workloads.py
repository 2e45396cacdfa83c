"""The four benchmark workloads.

Each workload turns a seed into inputs once (the set-up) and then hands out
batches of operations.  Every batch repeats the same fixed work, so batch
times from one run are comparable.  An operation is one user-level call: a
library function for ``mc_grid``, ``exact_scan`` and ``hc_lab``, one
``netdiff.cli.main`` command for ``cli_demos``.  Each carries a check of
its output; the runner times the call and runs the check outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import netdiff as nd

SEED_MOD = 2**63


class CheckError(Exception):
    """An operation's result is wrong.

    ``kind`` is "exit" for an unexpected CLI exit code and "output" for a
    wrong value or artifact.
    """

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def expect(ok, message, kind="output"):
    if not ok:
        raise CheckError(kind, message)


@dataclass
class Op:
    kind: str  # what is called, e.g. "simulate" or "cli:ci-scan"
    label: str  # which instance, for failure reports
    call: Callable[[], object]
    check: Callable[[object], dict | None]  # raises CheckError; may return counters


@dataclass
class Workload:
    batch: Callable[[int], list]
    notes: list = field(default_factory=list)  # lines the checks add for the report
    close: Callable[[], None] = lambda: None


# --------------------------------------------------------------- mc_grid

def mc_grid(seed, tiny):
    side, reps, steps, small_reps = (3, 60, 8, 10) if tiny else (10, 1000, 32, 20)
    g = nd.grid_graph(side, side)
    sub_labels = [(i, j) for i in range(min(3, side - 1)) for j in range(min(3, side - 1))]
    sub = g.subgraph(sub_labels)
    diff = nd.ConstantDiffusion(1.0)
    mu0 = nd.PointMass(0.0)
    grid = np.linspace(0.0, 1.0, steps + 1)
    drift = nd.parse_drift("nbr_avg(tanh(y)) - x")
    history = nd.parse_drift("nbr_avg(tanh(y)) - runavg(x, 0.25)")
    # At full strength on 100 vertices the weights degenerate (ESS ~1 of
    # 1000); at 0.3 (ESS ~50) the 4-standard-error check fails on about one
    # seed in five because the weight tail makes the standard error itself
    # unreliable.  At 0.15 the ESS is ~380 and the check is trustworthy.
    mild = nd.parse_drift("0.15*(nbr_avg(tanh(y)) - x)")
    s = seed % SEED_MOD
    notes = []

    def finite(ens):
        expect(np.all(np.isfinite(ens.values)), "non-finite path values")
        expect(ens.values.shape[0] in (reps, small_reps), f"unexpected shape {ens.values.shape}")

    def batch(b):
        bag = {}

        def keep(key, fn):
            def call():
                bag[key] = fn()
                return bag[key]
            return call

        def check_driftless(ens):
            finite(ens)
            alone = nd.simulate_driftless(sub, diff, mu0, grid, reps, s)
            expect(
                np.array_equal(ens.restrict(sub.vertices).values, alone.values),
                "driftless ensemble restricted to the 3x3 subgrid differs from the subgrid run",
            )

        def check_weights(w):
            x = w.weights
            expect(np.all(np.isfinite(x)), "non-finite weights")
            se = float(x.std(ddof=1) / np.sqrt(x.size))
            z = abs(float(x.mean()) - 1.0) / se
            ess = float(x.sum() ** 2 / (x * x).sum())
            if b == 0:
                notes.append(f"girsanov: mean {x.mean():.4f}, {z:.2f} standard errors from 1, ESS {ess:.1f} of {x.size}")
            expect(z <= 4.0, f"weights average {x.mean():.4f}, {z:.1f} standard errors from 1 (ESS {ess:.1f})")

        def check_entropy(val):
            expect(np.isfinite(val) and val > 0, f"entropy bound {val!r}")

        return [
            Op("simulate", "tanh drift", keep("p", lambda: nd.simulate(g, drift, diff, mu0, grid, reps, s)), finite),
            Op("simulate", "history drift", lambda: nd.simulate(g, history, diff, mu0, grid, reps, s), finite),
            Op("simulate_driftless", "reference", keep("q", lambda: nd.simulate_driftless(g, diff, mu0, grid, reps, s)), check_driftless),
            Op("girsanov_weights", "mild drift", lambda: nd.girsanov_weights(bag["q"], mild, diff), check_weights),
            Op("entropy_bound_estimate", "all vertices", lambda: nd.entropy_bound_estimate(bag["p"], drift, diff, g.vertices, 1.0), check_entropy),
            Op("simulate", f"tanh drift R={small_reps}", lambda: nd.simulate(g, drift, diff, mu0, grid, small_reps, s), finite),
        ]

    return Workload(batch, notes)


# ------------------------------------------------------------ exact_scan

def exact_scan(seed, tiny):
    # (graph, stored times m, diagonal shift); the shifts keep the linear
    # system and its Euler chain stable on every graph
    if tiny:
        specs = [("path5", nd.path_graph(5), 6, -2.5), ("grid3", nd.grid_graph(3, 3), 4, -4.5)]
    else:
        specs = [
            ("path10", nd.path_graph(10), 32, -2.5),
            ("grid6x6", nd.grid_graph(6, 6), 5, -4.5),
            ("grid5x5", nd.grid_graph(5, 5), 8, -4.5),
            ("cycle12", nd.cycle_graph(12), 16, -2.5),
        ]
    rng = np.random.default_rng(seed % SEED_MOD)
    cases = []
    for name, g, m, shift in specs:
        sys_ = nd.build_linear_system(g, shift + rng.uniform(-0.1, 0.1))
        grid = np.linspace(0.0, rng.uniform(0.9, 1.1), m + 1)
        cases.append((name, g, sys_, grid))

    def op(name, g, sys_, grid):
        def call():
            stacked = nd.path_covariance(sys_, grid, scheme="euler")
            return nd.mrf_order_scan(g, stacked), nd.path_precision_blocks(stacked)

        def check(result):
            reports, blocks = result
            summary = nd.order_summary(reports)
            expect(summary == {1: "fail", 2: "pass"}, f"{name}: order summary {summary}")
            worst = max(bl.relative for bl in blocks if nd.graph_distance(g, bl.u, bl.v) >= 3)
            expect(worst < 1e-8, f"{name}: precision block at distance >= 3 is {worst:.3g}")

        return Op("exact_route", name, call, check)

    return Workload(lambda b: [op(*c) for c in cases])


# ---------------------------------------------------------------- hc_lab

def _random_connected(n, shape_rng, labels):
    """Random tree plus n // 3 extra edges, on vertices 0..n-1 renamed by `labels`."""
    edges = {(int(shape_rng.integers(0, v)), v) for v in range(1, n)}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for i in shape_rng.choice(len(missing), size=min(n // 3, len(missing)), replace=False):
        edges.add(missing[int(i)])
    return nd.Graph(range(n), sorted((int(labels[u]), int(labels[v])) for u, v in edges))


def hc_lab(seed, tiny):
    plan = [(2, range(4, 6)), (3, range(4, 5))] if tiny else [(2, range(4, 11)), (3, range(4, 8))]
    models = 2 if tiny else 12
    # The shapes come from a fixed seed, because the cost depends on them
    # (factorize visits every clique of the square graph); the run's seed
    # renames the vertices and draws the factor models.
    shape_rng = np.random.default_rng(0)
    rng = np.random.default_rng(seed % SEED_MOD)
    cases = []
    for k, sizes in plan:
        for n in sizes:
            g = _random_connected(n, shape_rng, rng.permutation(n))
            probes = [(g.vertices[0],), g.edges()[0]]
            cases += [(k, g, probes, int(rng.integers(SEED_MOD))) for _ in range(models)]

    def op(k, g, probes, model_seed):
        def call():
            model = nd.random_factor_model(g, k, np.random.default_rng(model_seed))
            joint = nd.joint_table(model)
            violation = nd.check_mrf_bruteforce(joint, g, 2).max_violation
            rebuilt = nd.factorize_positive_2mrf(joint, g)
            roundtrip = nd.total_variation(joint, nd.joint_table(rebuilt))
            kernel = max(nd.conditional_specification(model, a).max_discrepancy for a in probes)
            return violation, roundtrip, kernel

        def check(result):
            for name, value in zip(("second-order violation", "round-trip TV", "kernel discrepancy"), result):
                expect(value <= 1e-10, f"k={k}, {len(g)} vertices: {name} {value:.3g}")

        return Op("factor_model", f"k={k} n={len(g)}", call, check)

    return Workload(lambda b: [op(*c) for c in cases])


# ------------------------------------------------------------- cli_demos

HERE = Path(__file__).resolve().parent

_FINITE = ("graph", "gaussian", "simulate", "girsanov-check", "ci-scan", "hc-lab")

# (config, command, raises --replicas): every command that applies to each demo config
CLI_PLAN = (
    [("chain", c, c in ("simulate", "girsanov-check")) for c in _FINITE + ("reproduce-paper",)]
    + [("spin", c, c in ("simulate", "girsanov-check")) for c in _FINITE]
    + [("zline", "graph", False), ("zline", "approx", True), ("chain_ensemble", "ci-scan", True)]
)


def _config_path(root, name):
    if name == "chain_ensemble":
        return HERE / "configs" / "chain_ensemble.json"
    return root / "demos" / "configs" / f"{name}.json"


def cli_demos(seed, tiny, scratch, root):
    from netdiff import cli

    replicas = 2500 if tiny else 10000
    configs = {name: _config_path(root, name) for name, _, _ in CLI_PLAN}
    expected = {
        name: json.loads(path.read_text()).get("options", {}).get("ci-scan", {}).get("expect")
        for name, path in configs.items()
    }
    out_root = scratch / "cli"

    def op(b, i, name, command, heavy):
        out = out_root / f"b{b}-{i}"
        argv = [command, "--config", str(configs[name]), "--out", str(out), "--seed", str((seed * 131 + i) % SEED_MOD)]
        if heavy:
            argv += ["--replicas", str(replicas)]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse rejects
                    return exc.code

        def check(code):
            try:
                expect(code == 0, f"exit {code}, expected 0", kind="exit")
                (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
                manifest = json.loads((run_dir / "manifest.json").read_text())
                written = 0
                for art in manifest["artifacts"]:
                    data = (run_dir / art["name"]).read_bytes()
                    expect(hashlib.sha256(data).hexdigest() == art["sha256"], f"sha256 mismatch on {art['name']}")
                    written += len(data)
                if command == "ci-scan" and expected[name]:
                    got = json.loads((run_dir / "verdicts.json").read_text())["orders"]
                    expect(got == expected[name], f"verdicts {got}, expected {expected[name]}")
                return {"cli.artifacts.bytes": written}
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(f"cli:{command}", f"{command} {configs[name].name}", call, check)

    return Workload(
        lambda b: [op(b, i, *entry) for i, entry in enumerate(CLI_PLAN)],
        close=lambda: shutil.rmtree(out_root, ignore_errors=True),
    )


def build(name, seed, tiny, scratch, root):
    """Inputs for workload `name`; `scratch` takes CLI output, `root` is the checkout."""
    if name == "cli_demos":
        return cli_demos(seed, tiny, scratch, root)
    return {"mc_grid": mc_grid, "exact_scan": exact_scan, "hc_lab": hc_lab}[name](seed, tiny)
