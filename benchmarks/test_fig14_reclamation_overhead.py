"""Fig. 14 — address reclamation message overhead vs network size
(ours vs the C-tree scheme [3]).

Paper's shape: the two schemes land in the same cost regime at small
and mid sizes (crossings near nn = 80 and 170), with ours cheaper for
large networks because the ADDR_REC broadcast is scoped while [3]'s
C-root collection floods the whole network and is answered by every
node.
"""

import statistics

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig14_reclamation_overhead(benchmark, sweep_executor):
    result = run_figure(
        benchmark, lambda: figures.fig14_reclamation_overhead(
            sizes=(50, 80, 120, 170, 200), seeds=(1, 2),
            executor=sweep_executor))
    quorum = result["series"]["quorum"]
    ctree = result["series"]["ctree"]
    # Both reclamation mechanisms actually fire.
    assert max(quorum) > 0 and max(ctree) > 0
    # Same cost regime: neither dominates by an order of magnitude on
    # average across the sweep.
    q_mean, c_mean = statistics.mean(quorum), statistics.mean(ctree)
    assert q_mean < 10 * c_mean and c_mean < 10 * q_mean
