"""Fig. 10 — maintenance overhead for node movement and departure
(ours with periodic location update, ours with upon-leave update, and
the C-tree scheme [3]) at 20 m/s.

Paper's shape: the upon-leave alternative "greatly reduces message
overhead" relative to periodic updating, landing in the same regime as
[3]'s report-based maintenance; the periodic variant pays for precise
location knowledge.
"""

from repro.experiments import figures

from benchmarks.conftest import run_figure


def test_fig10_maintenance_overhead(benchmark, sweep_executor):
    result = run_figure(
        benchmark, lambda: figures.fig10_maintenance_overhead(
            sizes=(50, 100, 150, 200), seeds=(1,),
            executor=sweep_executor))
    import statistics
    periodic = result["series"]["quorum/periodic"]
    upon_leave = result["series"]["quorum/upon-leave"]
    ctree = result["series"]["ctree"]
    # Across the sweep, dropping periodic location updates saves
    # clearly (pointwise comparisons are noisy: upon-leave departures
    # broadcast to adjacent heads, and head adjacency is dense on this
    # substrate — see EXPERIMENTS.md).
    assert statistics.mean(upon_leave) < statistics.mean(periodic)
    # The upon-leave variant lands within a small factor of [3].
    assert statistics.mean(upon_leave) <= 5 * max(statistics.mean(ctree), 1.0)
