"""Command-line front end: configuration-driven experiments with reproducible artifacts.

Each command is a pure computation: it returns its verdict, its report lines
and its artifacts (file name -> text or bytes) and touches no file.  Only
when it returns (exit 0 or 1) does `main` write the run directory
``<out>/<command>-<hash>``, where the hash is taken over the effective
configuration, so identical inputs produce identical artifact bytes.  The
directory is staged in a temporary sibling and renamed into place, so a
rerun replaces it whole.  Its ``manifest.json`` lists exactly that run's
artifacts with their checksums; wall-clock timestamps live only in the
``run.log`` sidecar, which the manifest excludes and a rerun appends to.
A command that raises writes nothing.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration rejected
(a fault the config alone decides, including an input the library rejects
with ``ValueError``), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_diffusion,
    build_drift,
    build_graph,
    build_grid,
    build_initial,
    config_hash,
    load_config,
    resolve_vertices,
    validate_options,
)
from .engine import (
    SimulationError,
    _ensemble_bytes,
    _log_density,
    ensemble_summary_csv,
    girsanov_weights,
    simulate,
    simulate_driftless,
    truncation_convergence,
)
from .gaussian import (
    build_linear_system,
    conditional_covariance,
    covariance_at,
    linear_system,
    matrix_csv,
    path_covariance,
    path_precision_blocks,
    precision_at,
    precision_edges_json,
)
from .graphs import InfiniteGraph, augmented_truncation, boundary, boundary2, cliques, format_edge_list
from .graphs import _graph_to_json, _label_to_json
from .independence import mrf_order_scan, order_summary, reports_to_csv, reports_to_json

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_finite(g, command):
    if isinstance(g, InfiniteGraph):
        raise ConfigError(f"{command} needs a finite graph")
    return g


def _sorted_by_index(g, vertices):
    return tuple(sorted(vertices, key=g.index))


def _ensemble_inputs(cfg, g):
    """Drift, diffusion, initial law and replica count of a sampling command."""
    drift = build_drift(cfg, g)
    diff = build_diffusion(cfg)
    init = build_initial(cfg, g)
    replicas = cfg.get("replicas")
    if replicas is None:
        raise ConfigError("config has no replicas field")
    return drift, diff, init, replicas


def _linear_system(cfg, g):
    """The exact route's model: the config's drift and diffusion compiled to L and sigma^2."""
    return linear_system(g, build_drift(cfg, g), build_diffusion(cfg))


def cmd_graph(cfg, opts):
    g = build_graph(cfg)
    report = {}
    lines = []
    trunc_n = opts.get("truncation_n")
    if trunc_n is not None:
        if g.root is None:
            raise ConfigError("options.truncation_n needs a rooted graph")
        g_fin = augmented_truncation(g, trunc_n)
        report["truncation"] = {
            "n": trunc_n,
            "vertices": [_label_to_json(v) for v in g_fin.vertices],
            "edges": len(g_fin.edges()),
        }
        lines.append(f"truncation n={trunc_n}: {len(g_fin.vertices)} vertices, {len(g_fin.edges())} edges")
    if isinstance(g, InfiniteGraph):
        # an infinite graph is reported through its truncation
        if trunc_n is None:
            raise ConfigError("graph on an infinite graph needs options.truncation_n")
        g = g_fin

    a = resolve_vertices(g, opts.get("set", [g.vertices[0]]))
    b1 = _sorted_by_index(g, boundary(g, a))
    b2 = _sorted_by_index(g, boundary2(g, a))
    order = opts.get("cliques_order", 2)
    cls = cliques(g, order)
    report.update(
        {
            **_graph_to_json(g),
            "set": [_label_to_json(v) for v in a],
            "boundary": [_label_to_json(v) for v in b1],
            "boundary2": [_label_to_json(v) for v in b2],
            "cliques": {
                "order": order,
                "count": len(cls),
                "members": [[_label_to_json(v) for v in _sorted_by_index(g, c)] for c in cls]
                if len(cls) <= 512
                else None,
            },
        }
    )
    lines.insert(0, f"set {list(a)}: boundary {list(b1)}, boundary2 {list(b2)}")
    lines.append(f"cliques of order {order}: {len(cls)}")
    return True, lines, {"graph.txt": format_edge_list(g), "report.json": _json_text(report)}


def cmd_gaussian(cfg, opts):
    g = _require_finite(build_graph(cfg), "gaussian")
    sys_ = _linear_system(cfg, g)
    t = float(opts.get("t", 2.0))
    cov = covariance_at(sys_, t)
    prec = precision_at(sys_, t, tol=float(opts.get("precision_tol", 1e-6)))
    artifacts = {
        "covariance.csv": matrix_csv(cov.sigma, cov.labels),
        "precision.csv": matrix_csv(prec.q, prec.labels),
        "ci_edges.json": precision_edges_json(prec) + "\n",
    }
    lines = [
        f"linear system on {len(cov.labels)} vertices at t={t}, noise variance {sys_.noise:g}",
        f"covariance method: {cov.method}; precision edges: {len(prec.ci_edges)}",
    ]
    for i, spec in enumerate(opts.get("conditionals", []), start=1):
        target = resolve_vertices(g, spec["target"])
        given = resolve_vertices(g, spec["given"])
        cm = conditional_covariance(cov, target, given)
        name = f"conditional_{i}.csv"
        artifacts[name] = matrix_csv(cm, target)
        lines.append(f"{name}: cov of {list(target)} given {list(given)}")
    return True, lines, artifacts


def cmd_simulate(cfg, opts):
    g = _require_finite(build_graph(cfg), "simulate")
    drift, diff, init, replicas = _ensemble_inputs(cfg, g)
    ens = simulate(g, drift, diff, init, build_grid(cfg), replicas, cfg["seed"], substeps=opts.get("substeps", 1))
    artifacts = {"summary.csv": ensemble_summary_csv(ens)}
    if opts.get("save_paths", False):
        artifacts["paths.bin"] = _ensemble_bytes(ens)
    lines = [
        f"simulated {ens.n_replicas} replicas on {len(ens.labels)} vertices, "
        f"{len(ens.grid)} stored times, seed {cfg['seed']}"
    ]
    return True, lines, artifacts


def cmd_girsanov_check(cfg, opts):
    from scipy.special import expit
    g = _require_finite(build_graph(cfg), "girsanov-check")
    drift, diff, init, replicas = _ensemble_inputs(cfg, g)
    if replicas < 2:
        raise ConfigError("girsanov-check needs at least two replicas for a standard error")
    grid, seed = build_grid(cfg), cfg["seed"]
    w = girsanov_weights(simulate_driftless(g, diff, init, grid, replicas, seed), drift, diff)
    # the same seed pairs replica r of P with replica r of P_star (label-keyed noise)
    log_w = _log_density(simulate(g, drift, diff, init, grid, replicas, seed), drift, diff)[2]
    # heavy tails make the weights' own mean a poor test; Bennett's bridge
    # E_P*[w/(1+w)] = E_P[1/(1+w)] is tested on bounded, iid paired differences
    bridge = w.weights / (1.0 + w.weights) - expit(-log_w)
    mean, se = float(w.weights.mean()), float(w.weights.std(ddof=1) / np.sqrt(replicas))
    b_mean, b_se = float(bridge.mean()), float(bridge.std(ddof=1) / np.sqrt(replicas))
    # identical differences (e.g. zero drift) have no spread: exactly zero passes, anything else fails
    z = abs(b_mean) / b_se if b_se > 0 else (0.0 if b_mean == 0.0 else None)
    ok = z is not None and z <= 3.0
    u = w.weights / w.weights.max()
    report = {
        "t": w.t, "replicas": int(w.weights.size), "mean": mean, "stderr": se,
        "ess": float(u.sum() ** 2 / (u @ u)), "max_log_weight": float(np.log(w.weights.max())),
        "statistic": "bridge E_P*[w/(1+w)] - E_P[1/(1+w)]", "bridge_mean": b_mean, "bridge_stderr": b_se,
        "z": z, "pass": ok,
    }
    spread = "no spread" if z is None else f"{z:.2f} sigma"
    lines = [
        f"weight mean {mean:.6f} at t={w.t}, ESS {report['ess']:.1f} of {w.weights.size}",
        f"{report['statistic']} = {b_mean:.3g} ({spread}): {'PASS' if ok else 'FAIL'}",
    ]
    return ok, lines, {"weights.json": _json_text(report)}


def cmd_ci_scan(cfg, opts):
    g = _require_finite(build_graph(cfg), "ci-scan")
    grid = build_grid(cfg)
    mode = opts.get("mode", "exact")
    orders = tuple(opts.get("orders", [1, 2]))
    sets = opts.get("sets")
    if sets is not None:
        sets = [resolve_vertices(g, raw) for raw in sets]
    if mode == "exact":
        source = path_covariance(_linear_system(cfg, g), grid, scheme=opts.get("scheme", "euler"))
        reports = mrf_order_scan(g, source, orders=orders, sets=sets, tol=float(opts.get("tol", 1e-8)))
        trust = {"condition": source.condition}
    else:
        drift, diff, init, replicas = _ensemble_inputs(cfg, g)
        ens = simulate(g, drift, diff, init, grid, replicas, cfg["seed"])
        times, alpha = opts.get("feature_times"), float(opts.get("alpha", 0.01))
        reports = mrf_order_scan(g, ens, orders=orders, sets=sets, feature_grid=times, alpha=alpha)
        trust = {}
    # an order with no testable set holds vacuously
    found = order_summary(reports)
    summary = {k: found.get(k, "pass") for k in sorted(orders)}
    artifacts = {
        "reports.json": reports_to_json(reports) + "\n",
        "summary.csv": reports_to_csv(reports),
        "verdicts.json": _json_text({"orders": {str(k): v for k, v in summary.items()}, **trust}),
    }
    lines = [f"order {k}: {v} ({sum(1 for r in reports if r.order == k)} sets)" for k, v in summary.items()]
    expect = opts.get("expect")
    ok = True
    if expect:
        for key, want in expect.items():
            got = summary.get(int(key))
            if got != want:
                ok = False
                lines.append(f"order {key}: expected {want}, got {got}")
    return ok, lines, artifacts


def cmd_approx(cfg, opts):
    g = build_graph(cfg)
    if not isinstance(g, InfiniteGraph):
        raise ConfigError("approx needs the z_line graph")
    drift, diff, init, replicas = _ensemble_inputs(cfg, g)
    if drift.default is None:
        raise ConfigError("approx needs drift.default")
    window = sorted(opts["window"])
    levels = sorted(opts.get("levels", [4, 6, 8]))
    table = truncation_convergence(
        g,
        drift.default,
        diff,
        init,
        window,
        float(opts.get("t", 1.0)),
        levels,
        replicas,
        cfg["seed"],
        steps=opts.get("steps", 64),
        substeps=opts.get("substeps", 1),
    )
    rows = list(table)
    ok = rows[-1].energy_distance < rows[0].energy_distance
    trend = {
        "levels": [r.n for r in rows],
        "energy_distance": [r.energy_distance for r in rows],
        "ks_max": [r.ks_max for r in rows],
        "points": [r.points for r in rows],
        "decreasing_overall": bool(ok),
    }
    lines = [f"n={r.n}: energy distance {r.energy_distance:.6g}, ks {r.ks_max:.4f}" for r in rows]
    lines.append(f"trend n={rows[0].n} -> n={rows[-1].n}: {'PASS' if ok else 'FAIL'}")
    return bool(ok), lines, {"truncation.csv": table.to_csv(), "trend.json": _json_text(trend)}


def cmd_hc_lab(cfg, opts):
    from .discrete import (
        check_mrf_bruteforce,
        conditional_specification,
        factorize_positive_2mrf,
        joint_table,
        random_factor_model,
        total_variation,
    )

    g = _require_finite(build_graph(cfg), "hc-lab")
    k = opts.get("k", 2)
    n_models = opts.get("models", 20)
    rng = np.random.default_rng(cfg["seed"])
    probe_sets = [(g.vertices[0],)]
    if g.edges():
        probe_sets.append(g.edges()[0])
    max_violation = 0.0
    max_roundtrip = 0.0
    max_kernel = 0.0
    for _ in range(n_models):
        model = random_factor_model(g, k, rng)
        joint = joint_table(model)
        chk = check_mrf_bruteforce(joint, g, 2)
        max_violation = max(max_violation, chk.max_violation)
        rebuilt = factorize_positive_2mrf(joint, g)
        max_roundtrip = max(max_roundtrip, total_variation(joint, joint_table(rebuilt)))
        for a in probe_sets:
            kern = conditional_specification(model, a, joint)
            max_kernel = max(max_kernel, kern.max_discrepancy)
    ok = max_violation <= 1e-10 and max_roundtrip <= 1e-10 and max_kernel <= 1e-10
    report = {
        "models": n_models,
        "k": k,
        "max_mrf2_violation": max_violation,
        "max_factorization_roundtrip_tv": max_roundtrip,
        "max_kernel_discrepancy": max_kernel,
        "pass": bool(ok),
    }
    lines = [
        f"{n_models} random models with k={k} on {len(g.vertices)} vertices",
        f"max second-order violation {max_violation:.3e}",
        f"max factorization round-trip TV {max_roundtrip:.3e}",
        f"max conditional-kernel discrepancy {max_kernel:.3e}",
        f"{'PASS' if ok else 'FAIL'}",
    ]
    return bool(ok), lines, {"hc_report.json": _json_text(report)}


def _load_reference_table() -> dict:
    text = resources.files("netdiff").joinpath("data/reference_values.json").read_text("utf-8")
    return json.loads(text)


def _run_golden_checks() -> list[dict]:
    from .graphs import path_graph

    table = _load_reference_table()["checks"]
    g = path_graph(5)
    sys_std = build_linear_system(g, -2.0)
    sys_zero = build_linear_system(g, 0.0)
    cov2 = covariance_at(sys_std, 2.0)
    results = []

    def record(name, observed, limit, ok, comparison):
        spec = table[name]
        results.append(
            {
                "name": name,
                "kind": spec["kind"],
                "description": spec["description"],
                "observed": float(observed),
                "limit": float(limit),
                "comparison": comparison,
                "pass": bool(ok),
            }
        )

    spec = table["covariance_t2"]
    dev = float(np.abs(cov2.sigma - np.asarray(spec["matrix"])).max())
    record("covariance_t2", dev, spec["tolerance"], dev < spec["tolerance"], "max|diff| < tol")

    for name in ("conditional_13_given_2", "conditional_14_given_23"):
        spec = table[name]
        cm = conditional_covariance(cov2, tuple(spec["target"]), tuple(spec["given"]))
        dev = float(np.abs(cm - np.asarray(spec["matrix"])).max())
        record(name, dev, spec["tolerance"], dev < spec["tolerance"], "max|diff| < tol")

    spec = table["zero_diagonal_null_pairs"]
    worst = 0.0
    for t in spec["times"]:
        q = precision_at(sys_zero, float(t)).q
        for u, v in spec["pairs"]:
            worst = max(worst, abs(q[g.index(u), g.index(v)]))
    record("zero_diagonal_null_pairs", worst, spec["tolerance"], worst < spec["tolerance"], "max|entry| < tol")

    spec = table["zero_diagonal_dense_rest"]
    q = precision_at(sys_zero, float(spec["t"])).q
    null = {(1, 4), (4, 1), (2, 5), (5, 2)}
    dense = [
        abs(q[g.index(u), g.index(v)])
        for u in g.vertices
        for v in g.vertices
        if u != v and (u, v) not in null
    ]
    record("zero_diagonal_dense_rest", min(dense), spec["min_abs"], min(dense) > spec["min_abs"], "min|entry| > floor")

    spec = table["precision_limit"]
    target = -2.0 * sys_std.L
    dists = [float(np.abs(precision_at(sys_std, t).q - target).max()) for t in spec["times"]]
    ok = dists[-1] < spec["tolerance"] and all(a > b for a, b in zip(dists, dists[1:]))
    record("precision_limit", dists[-1], spec["tolerance"], ok, "max|diff| at final time < tol, decreasing")

    spec = table["path_second_order_blocks"]
    st = path_covariance(sys_std, np.linspace(0.0, spec["t"], spec["grid_points"]), scheme="euler")
    rel = {(b.u, b.v): b.relative for b in path_precision_blocks(st)}
    far = max(rel[tuple(p)] for p in spec["zero_pairs"])
    near = rel[tuple(spec["dense_pair"])]
    ok = far < spec["zero_tol"] and near > spec["min_rel"]
    record("path_second_order_blocks", far, spec["zero_tol"], ok, "distance>=3 blocks < tol and (1,3) block > floor")

    return results


def cmd_reproduce_paper(cfg, opts):
    results = _run_golden_checks()
    rows = ["name,kind,observed,limit,pass"]
    rows += [
        f"{r['name']},{r['kind']},{r['observed']:.6e},{r['limit']:.1e},{r['pass']}" for r in results
    ]
    lines = [
        f"{'PASS' if r['pass'] else 'FAIL'}  {r['name']:<28} observed {r['observed']:.3e} (limit {r['limit']:.1e})"
        for r in results
    ]
    ok = all(r["pass"] for r in results)
    lines.append(f"{sum(r['pass'] for r in results)}/{len(results)} golden checks passed")
    return ok, lines, {"reproduce.json": _json_text(results), "reproduce.csv": "\n".join(rows) + "\n"}


# name -> (function, help); config.OPTION_SCHEMAS holds each command's options under the same name
_COMMANDS = {
    "graph": (cmd_graph, "report boundaries, cliques and truncations of the configured graph"),
    "gaussian": (cmd_gaussian, "covariance, precision and conditional-covariance tables of the linear system"),
    "simulate": (cmd_simulate, "run the Euler-Maruyama ensemble and write summary statistics"),
    "girsanov-check": (cmd_girsanov_check, "test the driftless ensemble's reweighting factors against the configured law"),
    "ci-scan": (cmd_ci_scan, "conditional-independence scan over vertex sets and boundary orders"),
    "approx": (cmd_approx, "finite-truncation convergence table on the infinite line"),
    "hc-lab": (cmd_hc_lab, "factorization, Markov-property and kernel-locality battery on discrete models"),
    "reproduce-paper": (cmd_reproduce_paper, "re-derive the published golden values and print a pass/fail table"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdiff",
        description="Configuration-driven experiments on interacting diffusions over graphs.",
    )
    parser.add_argument("--version", action="version", version=f"netdiff {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="FILE", help="experiment configuration file (JSON)")
    common.add_argument("--out", default="runs", metavar="DIR", help="output directory root (default: runs)")
    common.add_argument("--seed", type=int, default=None, metavar="N", help="override the config seed")
    common.add_argument(
        "--replicas", type=int, default=None, metavar="N", help="override the config replica count"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text, description=text)
    return parser


def _write_run(run_dir: Path, command: str, digest: str, artifacts: dict, config_path: str) -> None:
    """Write exactly these artifacts, a manifest of their checksums in name
    order and the run.log, whose earlier lines a rerun keeps, all in a
    temporary sibling that then replaces `run_dir` by renames; a failed write
    leaves the previous directory or none."""
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{run_dir.name}-", dir=run_dir.parent) as scratch:
        stage = Path(scratch) / "run"
        stage.mkdir()
        listed = []
        for name in sorted(artifacts):
            data = artifacts[name]
            if isinstance(data, str):
                data = data.encode("utf-8")
            (stage / name).write_bytes(data)
            listed.append({"name": name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})
        manifest = {"command": command, "config_hash": digest, "artifacts": listed}
        (stage / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
        if (run_dir / "run.log").exists():
            shutil.copyfile(run_dir / "run.log", stage / "run.log")
        stamp = datetime.now(timezone.utc).isoformat()
        with open(stage / "run.log", "a", encoding="utf-8") as fh:
            fh.write(f"{stamp} netdiff {command} --config {config_path}\n")
        if run_dir.exists():
            run_dir.rename(Path(scratch) / "replaced")
        stage.rename(run_dir)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed out of range")
            cfg["seed"] = args.seed
        if args.replicas is not None:
            if args.replicas < 1:
                raise ConfigError("--replicas must be positive")
            cfg["replicas"] = args.replicas
        opts = validate_options(command, cfg)
        digest = config_hash(cfg, command)
        ok, lines, artifacts = _COMMANDS[command][0](cfg, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it must be caught first
    except (SimulationError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # the library rejecting an input, and every input comes from the config
        print(f"config error: {command}: {exc}", file=sys.stderr)
        return 2
    run_dir = Path(args.out) / f"{command}-{digest[:12]}"
    _write_run(run_dir, command, digest, artifacts, args.config)
    for line in lines:
        print(line)
    print(f"artifacts: {run_dir}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
