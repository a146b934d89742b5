"""Fig. 11 — movement (location update) overhead vs node speed at
nn = 150.

Paper's claim: "higher node mobility incurs higher message overhead"
because the location update is committed whenever a node moves out of
three hops from its configurer or administrator.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig11_movement_vs_speed(benchmark, sweep_executor):
    result = run_figure(benchmark, lambda: figures.fig11_movement_vs_speed(
        speeds=(5.0, 10.0, 20.0, 30.0, 40.0), num_nodes=150, seeds=(1,),
        executor=sweep_executor))
    periodic = result["series"]["quorum/periodic"]
    # Monotone-ish growth with speed: the fastest sweep clearly exceeds
    # the slowest, and the trend is upward overall.
    assert periodic[-1] > periodic[0]
    assert periodic[-1] == max(periodic) or periodic[-2] >= periodic[0]
    # The upon-leave alternative sends no location updates at all.
    assert all(v == 0 for v in result["series"]["quorum/upon-leave"])
