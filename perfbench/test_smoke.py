"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the one operation that fails at this commit: spin.json's zero drift gives
# identical weights, zero standard error, z = inf and exit 1
KNOWN_DEFECT = "failed op cli:girsanov-check [girsanov-check spin.json]"


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    *report, last = out.stdout.strip().splitlines()
    res = json.loads(last)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert res["correct"] is True and res["attempted"] >= 1

    failed = [line for line in report if line.startswith("failed op")]
    if workload == "cli_demos":
        per_batch = int(re.search(r"batches of (\d+) ops", report[0]).group(1))
        assert len(failed) == 1 and failed[0].startswith(KNOWN_DEFECT)
        assert res["failed"] * per_batch == res["attempted"]  # exactly that op, in every batch
    else:
        assert res["failed"] == 0 and not failed
    if not trace:
        assert res["metrics"]["ok_share"]["value"] == 1 - res["failed"] / res["attempted"]
        assert any(line.startswith("op latency (median of") for line in report)
    else:
        assert any(line.startswith("absent boundaries:") for line in report)
        assert any(line.startswith("uncovered ") for line in report)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run("mc_grid", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and out.stdout == ""


def test_missing_boundary_is_flagged_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import netdiff
    import spans

    gone = spans.Boundary("engine.gone", "engine", "no_such_function", ("engine",))
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (gone,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        netdiff.simulate(netdiff.path_graph(3), netdiff.parse_drift("-x"), netdiff.ConstantDiffusion(1.0),
                         netdiff.PointMass(0.0), [0.0, 0.5, 1.0], 4, 1)
    finally:
        tracer.uninstall()
    assert tracer.flagged("absent") == ["engine.no_such_function"]
    layers = tracer.layer_metrics([0])
    assert layers["engine.noise.streams"] == 6 and layers["engine.simulate.s"] > 0
