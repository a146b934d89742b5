"""The perf ledger's four workloads, at smoke size, end correct.

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

``join_mobile`` and ``join_static_lossy`` are the figure suite's
regime (paper-scale joins, moving or with 5 % loss), where the graph
or the retry paths change under every role query: a change that is
exact on a settled network can still break here, and tier-1 should be
the first to see it.  Their verdict is ``correct`` with no failed
operation; loss and churn leave the protocol's expected unconfigured
tail, so ``completed_fraction`` is not held to 1.0.
The full ledger suite is ``ledger/tests`` (outside tier-1).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


#: The workloads whose every operation must complete.
ALL_COMPLETE = ("scale_lifecycle", "engine_churn")


@pytest.mark.parametrize("workload", ALL_COMPLETE + (
    "join_mobile", "join_static_lossy"))
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
    if workload in ALL_COMPLETE:
        assert result["metrics"]["completed_fraction"]["value"] == 1.0
