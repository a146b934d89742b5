"""The perf ledger's two scale workloads, at smoke size, end correct.

``ledger/workloads.py`` owns the only copy of the scale scripts and of
their output checks: ``scale_lifecycle`` (bootstrap, allocation storm,
partition, heal) fails an operation unless the detect window issued no
unbounded BFS and no full relabel, the labels equal ``components()``,
and one network id with unique addresses survives the heal;
``engine_churn`` fails one unless every kill/revive round leaves the
graph where it was, on the delta-relabel path.  A violated fact flips
``correct``, and an agent left unconfigured (a storm entrant, say) or
an undelivered unicast lowers ``completed_fraction`` — so this test
only has to run ``BENCHMARK.json``'s command and read the verdict.
The full ledger suite is ``ledger/tests`` (outside tier-1).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", ["scale_lifecycle", "engine_churn"])
def test_smoke_pass_ends_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"),
         "--workload", workload, "--smoke", "--seed", "11",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0 < result["attempted"], result
    assert result["metrics"]["completed_fraction"]["value"] == 1.0
