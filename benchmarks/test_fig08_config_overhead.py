"""Fig. 8 — configuration message overhead vs network size
(quorum vs the Mohsin-Prakash buddy scheme [2]).

Paper's claim: "Our protocol requires less message overhead for node
configuration ... as the network size increases since we do not require
periodical synchronization of global IP allocation tables."
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig08_config_overhead(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig08_config_overhead(
        sizes=(50, 100, 150, 200), seeds=(1,),
        executor=sweep_executor))
    quorum = result["series"]["quorum"]
    buddy = result["series"]["buddy"]
    for q, b in zip(quorum, buddy):
        assert q < b
    # Buddy's periodic sync makes its overhead grow steeply with size.
    assert buddy[-1] > 3 * buddy[0]
    # The gap widens with network size.
    assert buddy[-1] / max(quorum[-1], 1e-9) > buddy[0] / max(quorum[0], 1e-9)
