"""Tour of the command line.

Runs every subcommand against the shipped example configs, writing run
directories into a temporary folder.  Each run is content addressed: the
directory name ends with a hash of the effective config, and a manifest
records every artifact with its checksum.  Exits 1 if any command exits
non-zero.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
TOUR = [
    ("graph", "chain.json"),
    ("gaussian", "chain.json"),
    ("simulate", "chain.json"),
    ("girsanov-check", "chain.json"),
    ("ci-scan", "chain.json"),
    ("approx", "zline.json"),
    ("hc-lab", "spin.json"),
    ("reproduce-paper", "chain.json"),
]

failed = []
with tempfile.TemporaryDirectory() as out:
    for command, config in TOUR:
        print(f"$ netdiff {command} --config demos/configs/{config}")
        proc = subprocess.run(
            [sys.executable, "-m", "netdiff.cli", command,
             "--config", str(HERE / "configs" / config), "--out", out],
            capture_output=True, text=True,
        )
        for line in (proc.stdout or proc.stderr).splitlines():
            print(f"    {line}")
        print(f"    exit code {proc.returncode}")
        print()
        if proc.returncode != 0:
            failed.append(command)

    run_dirs = sorted(p.name for p in pathlib.Path(out).iterdir())
    print("run directories:")
    for name in run_dirs:
        print(f"  {name}")
    manifest = json.loads((pathlib.Path(out) / run_dirs[0] / "manifest.json").read_text())
    print()
    print(f"manifest of {run_dirs[0]}:")
    print(json.dumps(manifest, indent=2))

if failed:
    sys.exit(f"commands that exited non-zero: {', '.join(failed)}")
