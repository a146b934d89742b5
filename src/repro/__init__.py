"""repro — Quorum-based IP address autoconfiguration in MANETs.

A complete, from-scratch reproduction of Xu & Wu, "Quorum Based IP
Address Autoconfiguration in Mobile Ad Hoc Networks" (ICDCS 2007):
the quorum-voting protocol with partial replication, the three stateful
baselines it is evaluated against, the discrete-event MANET substrate
they all run on, and a harness regenerating every table and figure of
the paper's evaluation.

Quickstart::

    from repro import Scenario, run_scenario

    result = run_scenario(Scenario.paper_default(num_nodes=100, seed=1))
    print(result.avg_config_latency_hops(), result.uniqueness_ok())

Packages:

* :mod:`repro.sim` — discrete-event simulation kernel;
* :mod:`repro.geometry`, :mod:`repro.mobility` — area & movement models;
* :mod:`repro.net` — wireless multi-hop substrate with hop accounting;
* :mod:`repro.addrspace` — range sets, pools, timestamped ledgers;
* :mod:`repro.quorum` — the quorum rule, vote collection, replicas;
* :mod:`repro.cluster` — clustering roles and QDSets;
* :mod:`repro.core` — the paper's protocol;
* :mod:`repro.baselines` — MANETconf, Buddy, C-tree, stateless DAD;
* :mod:`repro.experiments` — scenarios, runner, per-figure experiments.
"""

from repro.core import ProtocolConfig, QuorumProtocolAgent
from repro.experiments import (
    RunResult,
    Scenario,
    ScenarioRunner,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "ProtocolConfig",
    "QuorumProtocolAgent",
    "Scenario",
    "ScenarioRunner",
    "RunResult",
    "run_scenario",
    "__version__",
]
