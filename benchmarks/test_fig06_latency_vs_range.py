"""Fig. 6 — configuration latency vs transmission range.

Paper's claim: ours stays below 10 hops across ranges while MANETconf
stays above 15.  On this substrate the separation holds from tr = 150 m
up (at tr = 100 m a 100-node uniform network is barely connected and
both protocols operate on fragments; see EXPERIMENTS.md).
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig06_latency_vs_range(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig06_latency_vs_range(
        ranges=(100.0, 150.0, 200.0, 250.0), num_nodes=100, seeds=(1, 2),
        executor=sweep_executor))
    quorum = result["series"]["quorum"]
    manetconf = result["series"]["manetconf"]
    ranges = result["x"]
    for tr, q, mc in zip(ranges, quorum, manetconf):
        if tr >= 150.0:
            assert q < mc, f"quorum slower than MANETconf at tr={tr}"
    assert max(quorum) < 12
