"""Fig. 13 — percentage of IP state information lost under simultaneous
abrupt departures (ours vs the C-tree scheme [3]).

Paper's claim: "replication enables the network to preserve up to 99 %
of IP state information of cluster heads when the abrupt leave
percentage is less than 30 %", while [3]'s single C-root makes it lose
far more.
"""

import statistics

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig13_information_loss(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig13_information_loss(
        abrupt_ratios=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
        num_nodes=100, seeds=(1, 2, 3),
        executor=sweep_executor))
    ratios = result["x"]
    quorum = result["series"]["quorum"]
    ctree = result["series"]["ctree"]
    # Paper: >= 99 % preserved when the abrupt ratio is below 30 %.
    for ratio, loss in zip(ratios, quorum):
        if ratio < 0.3:
            assert loss <= 5.0, f"quorum lost {loss}% at ratio {ratio}"
    # The quorum protocol preserves clearly more than [3] overall.
    assert statistics.mean(quorum) < statistics.mean(ctree)
