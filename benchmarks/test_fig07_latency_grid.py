"""Fig. 7 — quorum configuration latency over the tr x nn grid.

The paper reports the protocol's latency for combinations of
transmission range and network size; the headline property is that the
latency stays bounded (sub-10-hop regime) across the whole grid rather
than growing with the network the way flooding protocols do.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig07_latency_grid(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig07_latency_grid(
        ranges=(100.0, 150.0, 200.0, 250.0),
        sizes=(50, 100, 150, 200), seeds=(1,),
        executor=sweep_executor))
    for label, values in result["series"].items():
        assert all(v > 0 for v in values), label
        assert max(values) < 14, f"{label} exceeded the bounded regime"
