"""The traced benchmark smoke: every workload, one short traced pass.

perfbench/run.py exits 1 when an outcome drifts from its pinned verdict
(a MISMATCH line) or when a layer a workload must exercise counted
nothing in the traced pass (a ZERO LAYER line), which is what a traced
function that was renamed or bypassed looks like.  The run takes a few
seconds on a 2-core host.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_on_every_workload_exits_zero():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    flagged = [
        line for line in done.stdout.splitlines() if line.startswith(("ZERO LAYER", "MISMATCH"))
    ]
    assert not flagged, flagged
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
