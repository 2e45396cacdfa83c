"""netdiff benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 20 --trace 0

The script imports netdiff from the ``src`` directory of the checkout it
sits in.  The workload repeats its fixed batch of operations while another
batch fits in ``--seconds``.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced batches and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: with two, exact_scan spread
# +-12% run to run against +-3% with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
HARD_STOP_S = 140  # no batch starts later, so a run ends well inside three minutes
TAIL_BEYOND = 10  # a tail percentile is reported only with this many samples beyond it


class HostSpeed:
    """Times a fixed reference computation every so often during a run.

    The shared host this benchmark was built on changes speed by up to 60 %
    within minutes, for every kind of work (a pure-Python loop and a LAPACK
    loop slowed alike, with CPU time tracking wall time).  Each measured
    time is therefore converted to seconds of a host on which the reference
    takes NOMINAL_S, using the reference samples taken just before and just
    after it.  The raw seconds are printed in the report.
    """

    NOMINAL_S = 0.002
    EVERY_S = 0.1
    NEAR = 3  # samples on each side of a measurement

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.standard_normal((120, 120))
        self._vector = rng.standard_normal(20000)
        self.samples = []  # (end time, duration), in time order
        self.sample()  # the first call pays one-off library set-up
        self.samples.clear()

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(15000):  # interpreter work
            acc += i * i
        self._np.linalg.inv(self._matrix)  # LAPACK
        self._np.tanh(self._vector).sum()  # vector math
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            self.sample()

    def reference_seconds(self, seconds, at) -> float:
        """Convert `seconds`, measured up to time `at`, to the nominal host."""
        i = bisect.bisect_left(self.samples, at, key=lambda s: s[0])
        sides = (self.samples[max(0, i - self.NEAR):i], self.samples[i:i + self.NEAR])
        local = statistics.mean(statistics.median(d for _, d in side) for side in sides if side)
        return seconds * self.NOMINAL_S / local


@dataclass
class OpRecord:
    op_id: int
    kind: str
    label: str
    latency: float
    end: float  # perf_counter at the op's end
    error: tuple | None  # (kind, message): kind is "raised", "exit" or "output"


@dataclass
class Batch:
    traced: bool
    records: list
    cpu_s: float


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one netdiff benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build_workload(args, scratch):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.build(args.workload, args.seed, args.tiny, scratch, ROOT)


def measure_setup(args, speed) -> list:
    """(seconds, end time) from process start until inputs are ready, in fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(HostSpeed.NEAR):
            speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe did not exit") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append((t1 - t0, t1))
    for _ in range(HostSpeed.NEAR):
        speed.sample()
    return times


def run_batch(ops, tracer, first_id, speed):
    from spans import OP_SPAN
    from workloads import CheckError

    records = []
    cpu0 = time.process_time()
    for n, op in enumerate(ops):
        op_id = first_id + n
        if tracer:
            tracer.op = op_id
            span = tracer.begin(OP_SPAN)
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = ("raised", f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
            tracer.op = -1  # the check's own calls are not part of the op
        if error is None:
            try:
                counters = op.check(result) or {}
            except CheckError as exc:
                error = (exc.kind, str(exc))
            except Exception as exc:
                error = ("output", f"check raised {type(exc).__name__}: {exc}")
            else:
                for name, value in counters.items():
                    if tracer:
                        tracer.count(name, value, op_id)
        result = None
        records.append(OpRecord(op_id, op.kind, op.label, latency, t0 + latency, error))
        speed.maybe_sample()
    return Batch(tracer is not None, records, time.process_time() - cpu0)


def run_batches(work, seconds, tracer, speed):
    """Repeat the batch while another one fits in the time left (at least two).

    With a tracer, every other batch is traced.
    """
    batches = []
    longest = 0.0
    start = time.perf_counter()
    speed.sample()
    while True:
        traced = tracer is not None and len(batches) % 2 == 1
        ops = work.batch(len(batches))
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            batches.append(run_batch(ops, tracer if traced else None, len(batches) * len(ops), speed))
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (len(batches) >= 2 and elapsed + longest > seconds):
            for _ in range(HostSpeed.NEAR):
                speed.sample()
            return batches


def op_medians(batches, seconds=lambda r: r.latency) -> list:
    """Each operation's median time over the batches, in batch order."""
    return [statistics.median(seconds(b.records[i]) for b in batches) for i in range(len(batches[0].records))]


def tail_line(batches, seconds) -> str:
    latencies = op_medians(batches, seconds)
    n = len(latencies)
    line = f"op latency (median of {len(batches)} repeats, scaled) over {n} ops: p50 {statistics.median(latencies):.6f} s"
    if n >= 2 * TAIL_BEYOND:
        pct = math.floor(100 * (n - TAIL_BEYOND) / n)
        value = sorted(latencies)[n - TAIL_BEYOND - 1]
        line += f"; p{pct} {value:.6f} s ({TAIL_BEYOND} ops beyond it)"
    return line


def end_to_end(batches, setup, seconds, attempted, failed) -> dict:
    """`seconds(record)` turns an op record into the time to report."""
    per_op = op_medians([b for b in batches if not b.traced], seconds)
    return {
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }


def per_layer(batches, tracer, seconds) -> tuple:
    from spans import CLI_COMMANDS

    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    rows = []
    for b in traced:
        m = tracer.layer_metrics([r.op_id for r in b.records])
        for cmd in CLI_COMMANDS:
            m[f"cli.command.{cmd}.s"] = sum(r.latency for r in b.records if r.kind == f"cli:{cmd}")
        m["proc.cpu_s"] = b.cpu_s
        rows.append(m)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    # converted like wall_s, so that a change of host speed between the batches cancels
    out["trace.overhead_s"] = sum(op_medians(traced, seconds)) - sum(op_medians(plain, seconds))
    lines = []
    by_kind = {}
    for b in traced:
        for op_id, wall, uncovered in tracer.op_rows([r.op_id for r in b.records]):
            by_kind.setdefault(next(r.kind for r in b.records if r.op_id == op_id), []).append((wall, uncovered))
    for kind, vals in by_kind.items():
        wall = sum(v[0] for v in vals)
        unc = sum(v[1] for v in vals)
        lines.append(f"uncovered {kind}: {len(vals)} ops, {wall:.4f} s, {unc:.4f} s outside layer spans ({100 * unc / wall:.1f}%)")
    return out, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "netdiff" / "__init__.py").is_file() or not (ROOT / "demos" / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no netdiff sources (src/netdiff, demos/configs)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_out" / f"run-{os.getpid()}"

    if args.setup_probe:
        build_workload(args, scratch)
        print("ready", flush=True)
        return 0

    speed = HostSpeed()
    setup_times = [] if args.trace else measure_setup(args, speed)
    work = build_workload(args, scratch)
    import environment
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    try:
        batches = run_batches(work, args.seconds, tracer, speed)
    finally:
        work.close()
        shutil.rmtree(scratch, ignore_errors=True)

    records = [r for b in batches for r in b.records]
    attempted = len(records)
    failures = [r for r in records if r.error]
    correct = not any(r.error[0] == "output" for r in failures)

    print(f"workload {args.workload}, seed {args.seed}: {len(batches)} batches of {len(batches[0].records)} ops, "
          f"{attempted} ops, {len(failures)} failed")
    print("env " + json.dumps(environment.describe(ROOT), sort_keys=True))
    for note in work.notes:
        print(note)
    for (kind, label, error), n in Counter((r.kind, r.label, r.error) for r in failures).items():
        print(f"failed op {kind} [{label}] x{n} ({error[0]}): {error[1]}")
    ref = sorted(d for _, d in speed.samples)
    print(f"host speed: reference computation {ref[0] * 1e3:.3f} / {statistics.median(ref) * 1e3:.3f} / "
          f"{ref[-1] * 1e3:.3f} ms (min / median / max of {len(ref)}); times are converted to a "
          f"{HostSpeed.NOMINAL_S * 1e3:g} ms reference")
    scaled = lambda r: speed.reference_seconds(r.latency, r.end)  # noqa: E731
    print(tail_line([b for b in batches if not b.traced], scaled))

    if args.trace:
        values, lines = per_layer(batches, tracer, scaled)
        wanted = spec["per_layer"]
        for line in lines:
            print(line)
        for state in ("absent", "unbound"):
            names = tracer.flagged(state)
            print(f"{state} boundaries: " + (", ".join(names) if names else "none"))
        for w, n in tracer.warnings.most_common(20):
            print(f"trace warning x{n}: {w}")
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "metrics": values,
                                  "ops": [r.__dict__ for r in records]})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        raw = end_to_end(batches, [t for t, _ in setup_times], lambda r: r.latency, attempted, len(failures))
        print(f"setup probes: {', '.join(f'{t:.4f}' for t, _ in setup_times)} s raw")
        print("raw " + ", ".join(f"{k} {raw[k]:.6f} s" for k in ("wall_s", "op_p50_s", "setup_s")))
        setup = [speed.reference_seconds(t, end) for t, end in setup_times]
        values = end_to_end(batches, setup, scaled, attempted, len(failures))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
