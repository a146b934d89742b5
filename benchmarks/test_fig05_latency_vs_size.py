"""Fig. 5 — configuration latency vs network size (quorum vs MANETconf).

Paper's claim: "The configuration latency is reduced by half by
deploying our protocol."  Checked shape: ours below MANETconf at every
size, with the gap widening as the network grows.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig05_latency_vs_size(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig05_latency_vs_size(
        sizes=(50, 100, 150, 200), seeds=(1, 2),
        executor=sweep_executor))
    quorum = result["series"]["quorum"]
    manetconf = result["series"]["manetconf"]
    for q, mc in zip(quorum, manetconf):
        assert q < mc, "quorum must configure faster than MANETconf"
    # The gap widens with network size (flooding scales with the net).
    assert (manetconf[-1] - quorum[-1]) > (manetconf[0] - quorum[0])
    # Ours stays near the paper's < 10 hop regime.
    assert quorum[-1] < 12
