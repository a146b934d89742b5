"""Fig. 9 — node departure message overhead vs network size
(quorum vs the Mohsin-Prakash buddy scheme [2]).

Paper's claim: ours needs less overhead per departure as the network
grows, again because [2] keeps synchronizing global allocation tables.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig09_departure_overhead(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig09_departure_overhead(
        sizes=(50, 100, 150, 200), seeds=(1,),
        executor=sweep_executor))
    quorum = result["series"]["quorum"]
    buddy = result["series"]["buddy"]
    for q, b in zip(quorum, buddy):
        assert q < b
    assert buddy[-1] > buddy[0]  # grows with network size
