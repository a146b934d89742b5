"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "low", priority=5)
    sim.schedule(1.0, fired.append, "high", priority=-5)
    sim.run()
    assert fired == ["high", "low"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.pending_events == 0


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_max_events_bounds_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_peek_skips_cancelled_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(handle)
    assert sim.peek() == 2.0


def test_peek_empty_queue_returns_none():
    assert Simulator().peek() is None


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_fires_the_next_live_event_only():
    sim = Simulator()
    fired = []
    dropped = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "b")
    sim.cancel(dropped)
    assert sim.step() is True
    assert fired == ["a"] and sim.now == 2.0 and sim.pending_events == 1


def test_run_returns_event_count():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 5


def test_pending_events_tracks_queue():
    sim = Simulator()
    assert sim.pending_events == 0
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(h1)
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_deterministic_interleaving_across_runs():
    def run_once():
        sim = Simulator(seed=7)
        order = []
        rng = sim.streams.get("jitter")
        for i in range(20):
            sim.schedule(rng.random(), order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()


def test_reentrant_run_raises():
    sim = Simulator()

    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, inner)
    sim.run()


def test_cancel_after_fire_leaves_the_pending_count_alone():
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    # A fired event is no longer pending, so cancelling it late is a
    # no-op (it used to drive pending_events to 0, then -1).
    assert not fired.pending
    sim.cancel(fired)
    sim.cancel(fired)
    assert sim.pending_events == 1
    assert sim.run() == 1
    assert sim.pending_events == 0
