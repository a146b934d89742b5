"""The per-figure experiments run and have the paper's shapes (tiny
parameterizations; the benchmarks run the full ranges)."""

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.sweep import SweepExecutor
from repro.faults import FaultSpec


def series_of(result):
    return result["series"]


class RecordingExecutor(SweepExecutor):
    """Serial executor that keeps the spec list of every ``run`` call."""

    def __init__(self):
        super().__init__(workers=1)
        self.calls = []

    def run(self, specs):
        self.calls.append(list(specs))
        return super().run(specs)


TINY = dict(sizes=(10, 12), seeds=(1, 2))
# figure -> (tiny kwargs, unique specs: |curves| x |x| x |seeds| cells
# minus those that hash to one run)
ONE_SWEEP = {
    figures.fig05_latency_vs_size: (TINY, 2 * 2 * 2),
    figures.fig06_latency_vs_range: (
        dict(ranges=(150.0, 250.0), num_nodes=10, seeds=(1, 2)), 2 * 2 * 2),
    figures.fig07_latency_grid: (
        dict(ranges=(150.0, 250.0), **TINY), 2 * 2 * 2),
    figures.fig08_config_overhead: (TINY, 2 * 2 * 2),
    figures.fig09_departure_overhead: (TINY, 2 * 2 * 2),
    figures.fig10_maintenance_overhead: (TINY, 3 * 2 * 2),
    figures.fig11_movement_vs_speed: (
        dict(speeds=(5.0, 40.0), num_nodes=10, seeds=(1, 2)), 2 * 2 * 2),
    # The constant C-tree curve is drawn, not run.
    figures.fig12_ip_space_extension: (
        dict(ranges=(150.0, 250.0), **TINY), 2 * 2 * 2),
    figures.fig13_information_loss: (
        dict(abrupt_ratios=(0.1, 0.5), num_nodes=10, seeds=(1, 2)),
        2 * 2 * 2),
    figures.fig14_reclamation_overhead: (TINY, 2 * 2 * 2),
    # 5 curves x 2 x 2 = 20 cells; the three quorum curves read one run
    # per (loss, seed).
    figures.robustness_vs_loss: (
        dict(loss_rates=(0.0, 0.1), num_nodes=10, seeds=(1, 2)), 3 * 2 * 2),
}


@pytest.mark.parametrize("figure", ONE_SWEEP, ids=lambda f: f.__name__[:5])
def test_every_figure_is_one_flat_sweep(figure):
    kwargs, unique = ONE_SWEEP[figure]
    executor = RecordingExecutor()
    result = figure(executor=executor, **kwargs)
    (specs,) = executor.calls  # exactly one run() per figure
    assert len(specs) == len({spec.key() for spec in specs}) == unique
    for label, values in result["series"].items():
        assert len(values) == len(result["series_std"][label]) \
            == len(result["x"])


def _specs(figure, **kwargs):
    executor = RecordingExecutor()
    figure(executor=executor, **kwargs)
    (specs,) = executor.calls
    return specs


def _keys(specs):
    return [spec.key() for spec in specs]


def test_defaults_fill_only_what_the_figure_left_unset():
    loss = FaultSpec(loss_rate=0.1)
    plain = _specs(figures.fig05_latency_vs_size, **TINY)
    lossy = _specs(figures.fig05_latency_vs_size, **TINY,
                   defaults={"faults": loss})
    assert all(spec.scenario.faults is None for spec in plain)
    assert all(spec.scenario.faults == loss for spec in lossy)
    # robustness_vs_loss attaches its own FaultSpec: --faults yields.
    kwargs = dict(loss_rates=(0.0, 0.1), num_nodes=10, seeds=(1,))
    assert _keys(_specs(figures.robustness_vs_loss, **kwargs)) == _keys(
        _specs(figures.robustness_vs_loss, **kwargs,
               defaults={"faults": loss}))


def test_trace_and_metrics_defaults_key_like_the_scenario_fields():
    plain = _specs(figures.fig05_latency_vs_size, **TINY)
    for fields in ({"trace": True},
                   {"metrics": True},
                   {"metrics": True, "metrics_period": 0.5}):
        filled = _specs(figures.fig05_latency_vs_size, **TINY,
                        defaults=fields)
        direct = [dataclasses.replace(
            spec, scenario=dataclasses.replace(spec.scenario, **fields))
            for spec in plain]
        assert _keys(filled) == _keys(direct) != _keys(plain)


def test_fig04_layout_takes_faults_as_a_default():
    layout = figures.fig04_layout(num_nodes=20, seed=1)
    assert figures.fig04_layout(num_nodes=20, seed=1, defaults={}) == layout
    cut = figures.fig04_layout(
        num_nodes=20, seed=1,
        defaults={"faults": FaultSpec(loss_rate=0.9)})
    assert cut["configured"] < layout["configured"]


def test_fig04_layout_structure():
    layout = figures.fig04_layout(num_nodes=30, seed=1)
    assert layout["area"] == (1000.0, 1000.0)
    assert layout["head_count"] >= 1
    roles = {n["role"] for n in layout["nodes"]}
    assert "head" in roles
    for node in layout["nodes"]:
        assert 0 <= node["x"] <= 1000 and 0 <= node["y"] <= 1000


def test_fig05_quorum_beats_manetconf():
    result = figures.fig05_latency_vs_size(sizes=(40, 80), seeds=(1,))
    s = series_of(result)
    assert s["quorum"][-1] < s["manetconf"][-1]


def test_fig06_runs_both_protocols():
    result = figures.fig06_latency_vs_range(
        ranges=(150.0, 250.0), num_nodes=40, seeds=(1,))
    s = series_of(result)
    assert len(s["quorum"]) == 2 and len(s["manetconf"]) == 2
    assert all(v > 0 for v in s["quorum"])


def test_fig07_grid_shape():
    result = figures.fig07_latency_grid(
        ranges=(150.0, 200.0), sizes=(30, 60), seeds=(1,))
    assert set(result["series"]) == {"tr=150", "tr=200"}
    assert all(len(v) == 2 for v in result["series"].values())


def test_fig08_quorum_cheaper_than_buddy():
    result = figures.fig08_config_overhead(sizes=(40, 80), seeds=(1,))
    s = series_of(result)
    for q, b in zip(s["quorum"], s["buddy"]):
        assert q < b
    # Buddy's periodic sync grows with network size.
    assert s["buddy"][1] > s["buddy"][0]


def test_fig09_quorum_cheaper_departures():
    result = figures.fig09_departure_overhead(sizes=(40, 80), seeds=(1,))
    s = series_of(result)
    assert s["quorum"][-1] < s["buddy"][-1]


def test_fig10_upon_leave_cheaper_than_periodic():
    result = figures.fig10_maintenance_overhead(sizes=(40,), seeds=(1,))
    s = series_of(result)
    assert s["quorum/upon-leave"][0] < s["quorum/periodic"][0]


def test_fig11_movement_grows_with_speed():
    result = figures.fig11_movement_vs_speed(
        speeds=(5.0, 40.0), num_nodes=60, seeds=(1,))
    s = series_of(result)
    assert s["quorum/periodic"][1] > s["quorum/periodic"][0]
    assert all(v == 0 for v in s["quorum/upon-leave"])


def test_fig12_extension_above_one_and_ctree_flat():
    result = figures.fig12_ip_space_extension(
        ranges=(150.0, 250.0), sizes=(60,), seeds=(1,))
    s = series_of(result)
    assert all(v == 1.0 for v in s["ctree (no replication)"])
    assert all(v > 1.0 for v in s["quorum nn=60"])


def test_fig13_quorum_preserves_most_state():
    result = figures.fig13_information_loss(
        abrupt_ratios=(0.1,), num_nodes=100, seeds=(1,))
    s = series_of(result)
    # Paper: >= 99 % preserved below a 30 % abrupt ratio (small-sample
    # tolerance here; the benchmark sweeps the full range).
    assert s["quorum"][0] <= 10.0


def test_fig14_produces_positive_costs():
    result = figures.fig14_reclamation_overhead(sizes=(60,), seeds=(1,))
    s = series_of(result)
    assert s["quorum"][0] >= 0
    assert s["ctree"][0] >= 0


def test_table1_message_exchange_matches_paper():
    outcome = figures.table1_message_exchange()
    assert outcome["observed"] == outcome["expected"]
    assert outcome["roles"].count("head") >= 3
