"""End-to-end tests of the command-line front end."""

import argparse
import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import stats

import netdiff.cli
from netdiff.cli import build_parser, cmd_girsanov_check, main
from netdiff.coefficients import parse_drift
from netdiff.config import (
    COMMANDS,
    CONFIG_SCHEMA,
    ConfigError,
    build_diffusion,
    build_drift,
    build_graph,
    build_grid,
    build_initial,
    validate_config,
)
from netdiff.engine import load_ensemble, save_ensemble, simulate
from netdiff.graphs import path_graph, z_line

BASE = {
    "graph": {"kind": "path", "n": 5},
    "drift": {"default": "nbr_sum(y) - 2*x"},
    "diffusion": {"kind": "constant", "params": {"value": 1.0}},
    "initial": {"kind": "point", "params": {"value": 0.0}},
    "grid": {"t_max": 2.0, "steps": 16},
    "replicas": 2000,
    "seed": 42,
}

REFERENCE_SIGMA = np.array(
    [
        [0.3611, 0.2388, 0.1435, 0.0767, 0.0324],
        [0.2388, 0.5046, 0.3156, 0.1759, 0.0767],
        [0.1435, 0.3156, 0.5370, 0.3156, 0.1435],
        [0.0767, 0.1759, 0.3156, 0.5046, 0.2388],
        [0.0324, 0.0767, 0.1435, 0.2388, 0.3611],
    ]
)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config_path, out_dir, *flags, capsys=None):
    code = main([command, "--config", config_path, "--out", str(out_dir), *flags])
    text = capsys.readouterr().out if capsys is not None else ""
    return code, text


def only_run_dir(out_dir, command):
    dirs = [p for p in out_dir.iterdir() if p.name.startswith(command + "-")]
    assert len(dirs) == 1
    return dirs[0]


def read_matrix_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return labels, data


def test_help_enumerates_commands_and_flags(capsys):
    parser = build_parser()
    text = parser.format_help()
    for name in COMMANDS:
        assert name in text
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub_actions) == 1
    subs = sub_actions[0].choices
    assert set(subs) == set(COMMANDS)
    for name, sub in subs.items():
        flags = set()
        for action in sub._actions:
            assert action.help, f"undocumented flag {action.option_strings} of {name}"
            flags.update(action.option_strings)
        assert {"--config", "--out", "--seed", "--replicas"} <= flags


def test_version_via_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "netdiff.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "netdiff" in proc.stdout


def _loaded_modules(code, cwd):
    """The names in sys.modules after running ``code`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_scipy_or_jsonschema(tmp_path):
    loaded = _loaded_modules("import netdiff, netdiff.cli", tmp_path)
    assert "netdiff.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("scipy", "jsonschema")}


def test_ensemble_ci_scan_loads_no_scipy_stats(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["options"] = {"ci-scan": {"mode": "ensemble", "orders": [1], "feature_times": [1.0, 2.0]}}
    path = write_config(tmp_path, cfg)
    code = f"from netdiff.cli import main\nassert main(['ci-scan', '--config', {path!r}, '--out', 'runs']) == 0"
    loaded = _loaded_modules(code, tmp_path)
    assert "scipy.special" in loaded and "jsonschema" in loaded
    assert "scipy.stats" not in loaded


def test_graph_command_reports_second_boundary(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["options"] = {"graph": {"set": [1]}}
    code, text = run("graph", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    report = json.loads((only_run_dir(tmp_path / "out", "graph") / "report.json").read_text())
    assert report["boundary"] == [2]
    assert report["boundary2"] == [2, 3]
    assert "boundary2 [2, 3]" in text


def test_gaussian_csv_matches_reference(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["options"] = {
        "gaussian": {
            "t": 2.0,
            "conditionals": [
                {"target": [1, 3], "given": [2]},
                {"target": [1, 4], "given": [2, 3]},
            ],
        }
    }
    code, _ = run("gaussian", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "gaussian")
    labels, sigma = read_matrix_csv(rd / "covariance.csv")
    assert labels == ["1", "2", "3", "4", "5"]
    assert np.abs(sigma - REFERENCE_SIGMA).max() < 1e-4
    _, cond1 = read_matrix_csv(rd / "conditional_1.csv")
    assert np.abs(cond1 - [[0.2481, -0.0058], [-0.0058, 0.3397]]).max() < 1e-4
    _, cond2 = read_matrix_csv(rd / "conditional_2.csv")
    assert np.abs(cond2 - [[0.2480, -0.0030], [-0.0030, 0.3189]]).max() < 1e-4
    edges = json.loads((rd / "ci_edges.json").read_text())
    assert len(edges) == 10


def test_simulate_artifacts_deterministic(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["replicas"] = 500
    path = write_config(tmp_path, cfg)
    code, _ = run("simulate", path, tmp_path / "a", capsys=capsys)
    assert code == 0
    code, _ = run("simulate", path, tmp_path / "b", capsys=capsys)
    assert code == 0
    da = only_run_dir(tmp_path / "a", "simulate")
    db = only_run_dir(tmp_path / "b", "simulate")
    assert da.name == db.name
    assert (da / "summary.csv").read_bytes() == (db / "summary.csv").read_bytes()
    manifest = json.loads((da / "manifest.json").read_text())
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["summary.csv"]
    assert "run.log" not in names
    assert manifest["config_hash"].startswith(da.name.split("-", 1)[1])


def test_manifest_lists_only_this_runs_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert run("graph", path, tmp_path / "out", capsys=capsys)[0] == 0
    rd = only_run_dir(tmp_path / "out", "graph")
    (rd / "notes.txt").write_text("kept by hand\n")
    assert run("graph", path, tmp_path / "out", capsys=capsys)[0] == 0
    manifest = json.loads((rd / "manifest.json").read_text())
    assert [a["name"] for a in manifest["artifacts"]] == ["graph.txt", "report.json"]


def test_run_directory_is_replaced_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    write_bytes = Path.write_bytes

    def fail_after_first_artifact(self, data):
        if self.name == "report.json":  # graph.txt is written first
            raise OSError("disk full")
        return write_bytes(self, data)

    def failing_run():
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_bytes", fail_after_first_artifact)
            with pytest.raises(OSError, match="disk full"):
                run("graph", path, out)

    failing_run()
    assert list(out.iterdir()) == []
    assert run("graph", path, out, capsys=capsys)[0] == 0
    rd = only_run_dir(out, "graph")
    before = {p.name: p.read_bytes() for p in rd.iterdir()}
    failing_run()
    assert list(out.iterdir()) == [rd]
    assert {p.name: p.read_bytes() for p in rd.iterdir()} == before
    # a rerun replaces the directory and appends to its run.log
    (rd / "notes.txt").write_text("left by hand\n")
    assert run("graph", path, out, capsys=capsys)[0] == 0
    assert list(out.iterdir()) == [rd]
    assert sorted(p.name for p in rd.iterdir()) == ["graph.txt", "manifest.json", "report.json", "run.log"]
    log = (rd / "run.log").read_text().splitlines()
    assert len(log) == 2 and log[0] == before["run.log"].decode().strip()


def test_simulate_save_paths(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["replicas"] = 20
    cfg["options"] = {"simulate": {"save_paths": True}}
    code, _ = run("simulate", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "simulate")
    manifest = json.loads((rd / "manifest.json").read_text())
    assert [a["name"] for a in manifest["artifacts"]] == ["paths.bin", "summary.csv"]
    blob = (rd / "paths.bin").read_bytes()
    assert manifest["artifacts"][0]["sha256"] == hashlib.sha256(blob).hexdigest()
    g = build_graph(cfg)
    ens = simulate(g, build_drift(cfg, g), build_diffusion(cfg), build_initial(cfg, g), build_grid(cfg), 20, 42)
    save_ensemble(tmp_path / "direct.bin", ens)
    assert blob == (tmp_path / "direct.bin").read_bytes()
    back = load_ensemble(rd / "paths.bin")
    np.testing.assert_array_equal(back.values, ens.values)
    assert back.labels == ens.labels and back.seed == 42


def test_seed_and_replica_overrides(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["grid"] = {"t_max": 1.0, "steps": 8}
    cfg["replicas"] = 800
    path = write_config(tmp_path, cfg)
    code, _ = run("girsanov-check", path, tmp_path / "out", "--seed", "7", "--replicas", "1200", capsys=capsys)
    assert code in (0, 1)
    rd = only_run_dir(tmp_path / "out", "girsanov-check")
    weights = json.loads((rd / "weights.json").read_text())
    assert weights["replicas"] == 1200
    # a different seed lands in a different content-addressed directory
    code, _ = run("girsanov-check", path, tmp_path / "out", "--seed", "8", "--replicas", "1200", capsys=capsys)
    assert code in (0, 1)
    dirs = [p for p in (tmp_path / "out").iterdir() if p.name.startswith("girsanov-check-")]
    assert len(dirs) == 2


def test_girsanov_check_passes(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 3}
    cfg["drift"] = {"default": "1 - x"}
    cfg["grid"] = {"t_max": 1.0, "steps": 16}
    cfg["replicas"] = 4000
    code, text = run("girsanov-check", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    assert "PASS" in text
    weights = json.loads(
        (only_run_dir(tmp_path / "out", "girsanov-check") / "weights.json").read_text()
    )
    assert weights["pass"] is True
    assert abs(weights["mean"] - 1.0) <= 3 * weights["stderr"]


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_girsanov_check_zero_drift_demo(tmp_path, capsys):
    # drift 0: every weight is exactly 1 and the standard error is 0
    spin = Path(__file__).resolve().parents[1] / "demos" / "configs" / "spin.json"
    code, text = run("girsanov-check", str(spin), tmp_path / "out", "--replicas", "200", capsys=capsys)
    assert code == 0
    assert "PASS" in text
    weights = strict_json((only_run_dir(tmp_path / "out", "girsanov-check") / "weights.json").read_text())
    assert weights["mean"] == 1.0 and weights["stderr"] == 0.0
    assert weights["z"] == 0.0 and weights["pass"] is True
    # one replica has no standard error at all
    code, _ = run("girsanov-check", str(spin), tmp_path / "one", "--replicas", "1", capsys=capsys)
    assert code == 2


CHAIN = Path(__file__).resolve().parents[1] / "demos" / "configs" / "chain.json"


def test_girsanov_check_passes_on_heavy_tailed_weights(tmp_path, capsys):
    # at this seed the raw weights have an ESS near 70 of 10 000 and a mean
    # 7.75 standard errors below 1, though they are correct; the bounded
    # bridge identity is what decides
    code, text = run(
        "girsanov-check", str(CHAIN), tmp_path / "out", "--seed", "527", "--replicas", "10000", capsys=capsys
    )
    assert code == 0
    assert "PASS" in text
    weights = strict_json((only_run_dir(tmp_path / "out", "girsanov-check") / "weights.json").read_text())
    assert weights["pass"] is True and weights["z"] <= 3.0
    assert abs(weights["mean"] - 1.0) > 3 * weights["stderr"]
    assert 1.0 <= weights["ess"] < 100.0
    assert weights["max_log_weight"] > 0.0
    assert weights["statistic"].startswith("bridge")


def test_girsanov_check_calibration():
    # correct weights: the 3-sigma bridge test rejects at rate 2*sf(3) = 0.0027
    cfg = json.loads(CHAIN.read_text())
    runs = 100
    rejected = 0
    for seed in range(runs):
        ok, _, _ = cmd_girsanov_check({**cfg, "seed": seed, "replicas": 400}, {})
        rejected += not ok
    assert rejected <= stats.binom.ppf(0.999, runs, 2 * stats.norm.sf(3.0))


def test_girsanov_check_rejects_weights_of_a_wrong_drift(tmp_path, capsys, monkeypatch):
    # the weights use the configured -1.8*x while the law P is simulated with -2*x
    real = netdiff.cli.simulate
    law = parse_drift("nbr_sum(y) - 2*x")
    monkeypatch.setattr(netdiff.cli, "simulate", lambda g, drift, *rest: real(g, law, *rest))
    cfg = json.loads(CHAIN.read_text())
    cfg["drift"] = {"default": "nbr_sum(y) - 1.8*x"}
    code, text = run("girsanov-check", write_config(tmp_path, cfg), tmp_path / "out", "--replicas", "10000", capsys=capsys)
    assert code == 1
    assert "FAIL" in text
    weights = strict_json((only_run_dir(tmp_path / "out", "girsanov-check") / "weights.json").read_text())
    assert weights["pass"] is False and weights["z"] > 3.0


def test_ci_scan_expectations(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["options"] = {"ci-scan": {"expect": {"1": "fail", "2": "pass"}}}
    code, _ = run("ci-scan", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "ci-scan")
    verdicts = json.loads((rd / "verdicts.json").read_text())
    assert verdicts["orders"] == {"1": "fail", "2": "pass"}
    reports = json.loads((rd / "reports.json").read_text())
    assert all(r["mode"] == "exact_gaussian" for r in reports)

    cfg["options"] = {"ci-scan": {"expect": {"1": "pass"}}}
    code, _ = run("ci-scan", write_config(tmp_path, cfg, "c2.json"), tmp_path / "out2", capsys=capsys)
    assert code == 1


def test_ci_scan_reports_an_order_with_no_testable_set_as_vacuous(tmp_path, capsys):
    # on a path of 3 every vertex lies within distance 2 of every other, so order 2 has no set to test
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 3}
    cfg["options"] = {"ci-scan": {"expect": {"1": "fail", "2": "pass"}}}
    code, text = run("ci-scan", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    assert "order 2: pass (0 sets)" in text
    verdicts = json.loads((only_run_dir(tmp_path / "out", "ci-scan") / "verdicts.json").read_text())
    assert verdicts["orders"] == {"1": "fail", "2": "pass"}


def test_ci_scan_has_no_substeps_option(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["grid"] = {"t_max": 1.0, "steps": 2}
    cfg["replicas"] = 500
    cfg["options"] = {"ci-scan": {"mode": "ensemble", "substeps": 2}}
    assert main(["ci-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "options/ci-scan" in err and "substeps" in err


def test_ci_scan_rejects_a_repeated_order(tmp_path, capsys):
    chain = Path(__file__).resolve().parents[1] / "demos" / "configs" / "chain.json"
    cfg = json.loads(chain.read_text())
    cfg["options"]["ci-scan"]["orders"] = [1, 1, 2]
    assert main(["ci-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "options/ci-scan/orders" in err and "non-unique" in err
    assert not (tmp_path / "out").exists()


def test_inconclusive_ensemble_reports_are_strict_json(tmp_path, capsys):
    # from a point mass the features at t = 0 are constant, so every test is
    # inconclusive and has no statistic
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 4}
    cfg["grid"] = {"t_max": 1.0, "steps": 8}
    cfg["replicas"] = 500
    cfg["options"] = {"ci-scan": {"mode": "ensemble", "feature_times": [0.0, 1.0]}}
    code, _ = run("ci-scan", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    reports = strict_json((only_run_dir(tmp_path / "out", "ci-scan") / "reports.json").read_text())
    assert reports and all(r["verdict"] == "inconclusive" for r in reports)
    assert all(r["statistic"] is None for r in reports)


def test_ci_scan_reports_condition_of_the_stacked_covariance(tmp_path, capsys):
    chain = Path(__file__).resolve().parents[1] / "demos" / "configs" / "chain.json"
    code, _ = run("ci-scan", str(chain), tmp_path / "out", capsys=capsys)
    assert code == 0
    verdicts = strict_json((only_run_dir(tmp_path / "out", "ci-scan") / "verdicts.json").read_text())
    assert set(verdicts) == {"orders", "condition"}
    assert np.isfinite(verdicts["condition"]) and verdicts["condition"] >= 1.0


def test_approx_on_the_line(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "z_line"},
        "drift": {"default": "nbr_sum(y) - 2*x"},
        "diffusion": {"kind": "constant", "params": {"value": 1.0}},
        "initial": {"kind": "point", "params": {"value": 0.0}},
        "replicas": 1500,
        "seed": 9,
        "options": {"approx": {"window": [-1, 0, 1], "levels": [4, 6, 8], "t": 1.0, "steps": 32}},
    }
    code, text = run("approx", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    assert "trend n=4 -> n=8: PASS" in text
    rd = only_run_dir(tmp_path / "out", "approx")
    lines = (rd / "truncation.csv").read_text().strip().split("\n")
    assert lines[0] == "n,energy_distance,ks_max,replicas,points"
    assert len(lines) == 4
    trend = json.loads((rd / "trend.json").read_text())
    assert trend["levels"] == [4, 6, 8]
    assert trend["points"] == [1500, 1500, 1500]
    assert trend["ks_max"][0] >= trend["ks_max"][-1]


def test_approx_rejects_initial_overrides(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "z_line"},
        "drift": {"default": "-x"},
        "diffusion": {"kind": "constant", "params": {"value": 1.0}},
        "initial": {
            "kind": "per_vertex",
            "params": {
                "default": {"kind": "point", "params": {"value": 0.0}},
                "overrides": {"0": {"kind": "point", "params": {"value": 5.0}}},
            },
        },
        "replicas": 20,
        "seed": 1,
        "options": {"approx": {"window": [0], "levels": [4, 6], "steps": 4}},
    }
    assert main(["approx", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "initial section: initial overrides need a finite graph" in capsys.readouterr().err


def test_hc_lab_battery(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 4}
    cfg["options"] = {"hc-lab": {"models": 3}}
    code, _ = run("hc-lab", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    report = json.loads((only_run_dir(tmp_path / "out", "hc-lab") / "hc_report.json").read_text())
    assert report["pass"] is True
    assert report["max_mrf2_violation"] <= 1e-10


def test_hc_lab_rejects_a_state_space_over_the_table_cap(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 21}
    cfg["options"] = {"hc-lab": {"k": 2, "models": 1}}
    code, _ = run("hc-lab", write_config(tmp_path, cfg), tmp_path / "out")
    assert code == 2
    assert "exceeds the exact-computation cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reproduce_paper_all_green(tmp_path, capsys):
    cfg = {"seed": 0}
    code, text = run("reproduce-paper", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    assert text.count("PASS") >= 7
    assert "FAIL" not in text
    rd = only_run_dir(tmp_path / "out", "reproduce-paper")
    results = json.loads((rd / "reproduce.json").read_text())
    assert len(results) == 7
    assert all(r["pass"] for r in results)
    assert {r["kind"] for r in results} == {"reference", "derived"}


def test_exit_code_2_on_config_trouble(tmp_path, capsys):
    out = tmp_path / "out"
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1, "bogus": 2}')
    assert main(["graph", "--config", str(bad), "--out", str(out)]) == 2
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert main(["graph", "--config", str(missing), "--out", str(out)]) == 2
    capsys.readouterr()

    nogrid = copy.deepcopy(BASE)
    del nogrid["grid"]
    assert main(["simulate", "--config", write_config(tmp_path, nogrid, "a.json"), "--out", str(out)]) == 2
    capsys.readouterr()

    badset = copy.deepcopy(BASE)
    badset["options"] = {"graph": {"set": [99]}}
    assert main(["graph", "--config", write_config(tmp_path, badset, "b.json"), "--out", str(out)]) == 2
    capsys.readouterr()


def test_config_schema_passes_its_meta_schema():
    # validate_config builds its validator once and does not re-check the schema
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize(
    "cfg",
    [{"seed": 1, "bogus": 2}, {"seed": -1}, {**BASE, "grid": {"t_max": 1.0}}, {**BASE, "options": {"graph": {"set": 3}}}],
)
def test_config_errors_read_as_jsonschema_validate_reports_them(cfg):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value).endswith(want.value.message)


def test_bad_grid_is_a_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["grid"] = {"times": [0.1, 0.5, 1.0]}
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "grid section: grid must start at 0" in capsys.readouterr().err


def test_overflowing_drift_constant_is_a_config_error(tmp_path, capsys):
    for text in ("1e400*x", "sin(1e308*10)*x"):
        cfg = copy.deepcopy(BASE)
        cfg["drift"] = {"default": text}
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        assert "drift section: " in capsys.readouterr().err


def test_exit_code_3_on_explosion(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "path", "n": 2},
        "drift": {"default": "x * x"},
        "diffusion": {"kind": "constant", "params": {"value": 1.0}},
        "initial": {"kind": "point", "params": {"value": 10.0}},
        "grid": {"t_max": 12.0, "steps": 12},
        "replicas": 10,
        "seed": 1,
    }
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize(
    "command, section, spec",
    [
        ("simulate", "drift", {"default": "runavg(x, 0.5) - x"}),
        ("simulate", "initial", {"kind": "point", "params": {"value": [1.0, 2.0]}}),
        ("gaussian", "options", {"gaussian": {"conditionals": [{"target": [1, 2], "given": [2]}]}}),
    ],
    ids=["history-drift-substeps", "point-dimension", "overlapping-conditional"],
)
def test_config_faults_found_by_the_library_exit_2_and_write_nothing(tmp_path, capsys, command, section, spec):
    cfg = copy.deepcopy(BASE)
    cfg["replicas"] = 10
    cfg["options"] = {"simulate": {"substeps": 2}}
    cfg[section] = spec
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {command}: ")
    assert not out.exists()


def test_drift_overrides_reach_the_engine(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "edges", "edges": [["a", "b"]]},
        "drift": {"default": "0", "overrides": {"a": "1"}},
        "diffusion": {"kind": "constant", "params": {"value": 0.001}},
        "initial": {"kind": "point", "params": {"value": 0.0}},
        "grid": {"t_max": 1.0, "steps": 8},
        "replicas": 200,
        "seed": 5,
    }
    code, _ = run("simulate", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "simulate")
    with open(rd / "summary.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh)]
    final = {row["vertex"]: float(row["mean"]) for row in rows if float(row["time"]) == 1.0}
    assert final["a"] == pytest.approx(1.0, abs=0.01)
    assert final["b"] == pytest.approx(0.0, abs=0.01)


def test_graph_file_source(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    gfile.write_text("root 1\n1 2\n2 3\n")
    cfg = {
        "graph": {"kind": "file", "path": str(gfile)},
        "seed": 3,
        "options": {"graph": {"set": ["1"], "truncation_n": 4}},
    }
    code, _ = run("graph", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    report = json.loads((only_run_dir(tmp_path / "out", "graph") / "report.json").read_text())
    assert report["boundary"] == ["2"]
    assert report["boundary2"] == ["2", "3"]


def test_zline_graph_report_needs_truncation(tmp_path, capsys):
    cfg = {"graph": {"kind": "z_line"}, "seed": 0}
    path = write_config(tmp_path, cfg)
    code = main(["graph", "--config", path, "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 2
    cfg["options"] = {"graph": {"set": [0], "truncation_n": 4}}
    code, _ = run("graph", write_config(tmp_path, cfg, "t.json"), tmp_path / "out2", capsys=capsys)
    assert code == 0
    report = json.loads((only_run_dir(tmp_path / "out2", "graph") / "report.json").read_text())
    assert len(report["truncation"]["vertices"]) == 9


def test_factor_model_initial_through_config(tmp_path, capsys):
    model = {
        "vertices": [1, 2, 3],
        "edges": [[1, 2], [2, 3]],
        "root": None,
        "k": 2,
        "factors": {
            "1|2": {"clique": [1, 2], "table": [2.0, 1.0, 1.0, 2.0]},
            "2|3": {"clique": [2, 3], "table": [2.0, 1.0, 1.0, 2.0]},
        },
        "base": {},
    }
    cfg = {
        "graph": {"kind": "path", "n": 3},
        "drift": {"default": "0"},
        "diffusion": {"kind": "constant", "params": {"value": 0.5}},
        "initial": {
            "kind": "factor_model",
            "params": {"model": model, "state_values": [-1.0, 1.0]},
        },
        "grid": {"t_max": 0.5, "steps": 4},
        "replicas": 400,
        "seed": 11,
    }
    code, _ = run("simulate", write_config(tmp_path, cfg), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "simulate")
    with open(rd / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    start = [float(r["std"]) for r in rows if float(r["time"]) == 0.0]
    assert all(s > 0.5 for s in start)


def test_nested_initial_overrides_resolve_their_vertices():
    inner = {
        "kind": "per_vertex",
        "params": {
            "default": {"kind": "point", "params": {"value": -1.0}},
            "overrides": {"2": {"kind": "point", "params": {"value": 5.0}}},
        },
    }
    g = path_graph(3)
    law = build_initial({"initial": {"kind": "per_vertex", "params": {"default": inner}}}, g)
    assert law.sample(4, g, 0)[:, :, 0].tolist() == [[-1.0, 5.0, -1.0]] * 4

    outer = {"kind": "per_vertex", "params": {"overrides": {"1": inner}}}
    with pytest.raises(ConfigError, match="initial overrides need a finite graph"):
        build_initial({"initial": {"kind": "per_vertex", "params": {"default": outer}}}, z_line())


@pytest.mark.parametrize(
    "spec, root",
    [
        ({"kind": "path", "n": 5, "root": "3"}, 3),
        ({"kind": "cycle", "n": 5, "root": "3"}, 3),
        ({"kind": "grid", "rows": 2, "cols": 2, "root": "(1, 0)"}, (1, 0)),
        ({"kind": "tree", "branching": 2, "depth": 2, "root": "3"}, 3),
        ({"kind": "edges", "edges": [[1, 2], [2, 3], [3, 4]], "root": "3"}, 3),
    ],
)
def test_root_text_names_a_vertex_of_every_graph_kind(spec, root):
    assert build_graph({"graph": spec}).root == root
    spec["root"] = 7
    with pytest.raises(ConfigError, match="graph section: vertex 7 does not name a graph vertex"):
        build_graph({"graph": spec})


_POINT = {"kind": "point", "params": {"value": 0.0}}


@pytest.mark.parametrize(
    "section, spec, key",
    [
        ("diffusion", {"kind": "constant", "params": {"valeu": 2.0}}, "valeu"),
        ("diffusion", {"kind": "tanh_diagonal", "params": {"a": [1.0], "b": [0.5], "c": 1}}, "c"),
        ("initial", {"kind": "point", "params": {"val": 1.0}}, "val"),
        ("initial", {"kind": "normal", "params": {"mean": 0.0, "sd": 1.0}}, "sd"),
        ("initial", {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0, "extra": 2}}, "extra"),
        ("initial", {"kind": "factor_model", "params": {"model": {}, "states": [0, 1]}}, "states"),
        ("initial", {"kind": "per_vertex", "params": {"default": _POINT, "override": {}}}, "override"),
        (
            "initial",
            {"kind": "per_vertex", "params": {"default": {"kind": "point", "params": {"valeu": 1.0}}}},
            "valeu",
        ),
        (
            "initial",
            {"kind": "per_vertex", "params": {"overrides": {"2": {"kind": "normal", "params": {"std": 1.0, "x": 0}}}}},
            "x",
        ),
    ],
)
def test_unknown_params_keys_are_config_errors(tmp_path, capsys, section, spec, key):
    cfg = copy.deepcopy(BASE)
    cfg[section] = spec
    cfg["replicas"] = 10
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{section} section: " in err and repr(key) in err


@pytest.mark.parametrize(
    "replicas, grid, times",
    [(200, {"t_max": 1.0, "steps": 8}, [0.0, 1.0]), (500, {"t_max": 1.0, "steps": 4}, [0.3])],
)
def test_ensemble_ci_scan_config_faults_exit_2(tmp_path, capsys, replicas, grid, times):
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 4}
    cfg["grid"] = grid
    cfg["replicas"] = replicas
    cfg["options"] = {"ci-scan": {"mode": "ensemble", "feature_times": times}}
    assert main(["ci-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: ci-scan: " in capsys.readouterr().err


SPIN = Path(__file__).resolve().parents[1] / "demos" / "configs" / "spin.json"


def test_exact_route_reads_the_configured_model(tmp_path, capsys):
    # spin.json: drift 0 and sigma 0.5, so X(2) has covariance 0.25 * 2 * I;
    # its factor-model initial law is left out of the exact route
    code, _ = run("gaussian", str(SPIN), tmp_path / "out", capsys=capsys)
    assert code == 0
    rd = only_run_dir(tmp_path / "out", "gaussian")
    _, sigma = read_matrix_csv(rd / "covariance.csv")
    np.testing.assert_allclose(sigma, 0.5 * np.eye(3), rtol=0, atol=1e-15)
    assert json.loads((rd / "ci_edges.json").read_text()) == []
    code, _ = run("ci-scan", str(SPIN), tmp_path / "out", capsys=capsys)
    assert code == 0
    verdicts = json.loads((only_run_dir(tmp_path / "out", "ci-scan") / "verdicts.json").read_text())
    assert verdicts["orders"] == {"1": "pass", "2": "pass"}  # order 2 vacuous: no set on a path of 3 has one


@pytest.mark.parametrize("command", ["gaussian", "ci-scan"])
@pytest.mark.parametrize(
    "section, spec, words",
    [
        ("drift", {"default": "tanh(x)"}, "vertex 1 is not affine in x and y: tanh(x)"),
        ("drift", {"default": "x*x"}, "vertex 1 is not affine in x and y: x * x"),
        ("drift", {"default": "nbr_sum(y) - 2*x", "overrides": {"3": "t*x"}}, "vertex 3 is not affine in x and y: t * x"),
        ("drift", {"default": "runavg(x, 0.5) - x"}, "vertex 1 is not affine in x and y: runavg(x, 0.5) - x"),
        ("drift", {"default": "x[0]"}, "vertex 1 is not affine in x and y: x[0]"),
        ("drift", None, "no drift section"),
        ("diffusion", {"kind": "tanh_diagonal", "params": {"a": [1.0], "b": [0.5]}}, "constant 1x1 diffusion"),
        ("diffusion", {"kind": "constant", "params": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}, "constant 1x1 diffusion"),
        ("diffusion", None, "no diffusion section"),
        ("options", {"gaussian": {"variant": "standard"}}, "options/gaussian"),
        ("options", {"ci-scan": {"variant": "zero_diagonal"}}, "options/ci-scan"),
    ],
    ids=["tanh", "product", "time", "history", "component", "no-drift", "tanh-diagonal", "matrix", "no-diffusion",
         "gaussian-variant", "ci-scan-variant"],
)
def test_exact_route_rejects_what_it_cannot_compile(tmp_path, capsys, command, section, spec, words):
    cfg = copy.deepcopy(BASE)
    if spec is None:
        del cfg[section]
    else:
        cfg[section] = spec
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and words in err


def test_constant_diffusion_takes_value_or_matrix_not_both(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["diffusion"] = {"kind": "constant", "params": {"value": 5.0, "matrix": [[1.0]]}}
    cfg["replicas"] = 10
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "diffusion section: " in err and "'value'" in err and "'matrix'" in err


@pytest.mark.parametrize(
    "spec, words",
    [
        ({"kind": "constant", "params": {"value": 1e400}}, "entries must be finite"),
        ({"kind": "tanh_diagonal", "params": {"a": [1e400], "b": [0.0]}}, "a and b must be finite"),
        ({"kind": "constant", "params": {"value": 1e-200}}, "finite (σ σᵀ)⁻¹"),
    ],
    ids=["constant", "tanh_diagonal", "tiny_constant"],
)
def test_infinite_diffusion_is_a_config_error(tmp_path, capsys, spec, words):
    # an infinite constant used to reach the engine and end in a numerical failure (exit 3);
    # a tiny one, whose (σ σᵀ)⁻¹ overflows, ran with only a warning
    cfg = copy.deepcopy(BASE)
    cfg["diffusion"] = spec
    cfg["replicas"] = 10
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "diffusion section: " in err and words in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gaussian", "ci-scan", "girsanov-check"])
def test_tiny_constant_diffusion_is_a_config_error(tmp_path, capsys, command):
    # girsanov-check used to exit 3 on the overflowed (σ σᵀ)⁻¹, the others 2 with a message from the Gaussian route
    cfg = copy.deepcopy(BASE)
    cfg["diffusion"] = {"kind": "constant", "params": {"value": 1e-200}}
    cfg["replicas"] = 10
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "diffusion section: diffusion matrix must be invertible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "graph", "ci-scan", "hc-lab", "girsanov-check", "gaussian"])
def test_empty_graph_is_a_config_error(tmp_path, capsys, command):
    # a graph without vertices used to end in an IndexError, or a numpy reduction message
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "edges", "edges": []}
    cfg["replicas"] = 10
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "graph section: the graph has no vertices" in capsys.readouterr().err
    assert not out.exists()


def test_per_vertex_initial_must_cover_every_vertex(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["graph"] = {"kind": "path", "n": 3}
    cfg["initial"] = {"kind": "per_vertex", "params": {"overrides": {"1": _POINT}}}
    cfg["replicas"] = 10
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "initial section: no initial law for vertex 2" in capsys.readouterr().err
    # a nested law covers only what its parent hands it: the override's vertex, or the rest for a default
    g = path_graph(3)
    inner = {"kind": "per_vertex", "params": {"overrides": {"2": _POINT}}}
    law = build_initial({"initial": {"kind": "per_vertex", "params": {"default": _POINT, "overrides": {"2": inner}}}}, g)
    assert law.sample(2, g, 0).shape == (2, 3, 1)
    with pytest.raises(ConfigError, match="no initial law for vertex 1"):
        build_initial({"initial": {"kind": "per_vertex", "params": {"default": inner}}}, g)
    # on the infinite line the vertex set is known only per truncation level
    open_default = {"kind": "per_vertex", "params": {"default": {"kind": "per_vertex", "params": {}}}}
    build_initial({"initial": open_default}, z_line())
