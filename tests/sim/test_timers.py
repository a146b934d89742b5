"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer


def test_timer_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.5)
    sim.run()
    assert fired == [2.5]


def test_timer_passes_args():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append)
    timer.start(1.0, "payload")
    sim.run()
    assert fired == ["payload"]


def test_timer_stop_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(True))
    timer.start(1.0)
    timer.stop()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_restart_pushes_back_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run(until=0.5)
    timer.restart(1.0)
    sim.run()
    assert fired == [1.5]


def test_timer_double_start_raises():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    with pytest.raises(RuntimeError):
        timer.start(1.0)


def test_timer_rearmed_inside_callback():
    sim = Simulator()
    fired = []

    def on_fire():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer = Timer(sim, on_fire)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_armed_and_deadline():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    assert not timer.armed
    assert timer.deadline is None
    timer.start(3.0)
    assert timer.armed
    assert timer.deadline == 3.0


def test_periodic_timer_fires_repeatedly():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now))
    timer.start()
    sim.run(until=7.0)
    assert fired == [2.0, 4.0, 6.0]


def test_periodic_timer_first_delay():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now))
    timer.start(first_delay=0.5)
    sim.run(until=5.0)
    assert fired == [0.5, 2.5, 4.5]


def test_periodic_timer_stop():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
    timer.start()
    sim.run(until=2.5)
    timer.stop()
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]
    assert not timer.running


def test_periodic_timer_stop_inside_callback():
    sim = Simulator()
    fired = []

    def on_tick():
        fired.append(sim.now)
        if len(fired) == 2:
            timer.stop()

    timer = PeriodicTimer(sim, 1.0, on_tick)
    timer.start()
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]


def test_periodic_timer_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        PeriodicTimer(Simulator(), 0.0, lambda: None)


def test_periodic_timer_start_is_idempotent():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
    timer.start()
    timer.start()
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]


def test_periodic_timer_stopping_itself_keeps_pending_events_exact():
    sim = Simulator()
    timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
    timer.start()
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    # The timer's entry already fired when its callback stops it; the
    # stop must not be counted as a second removal.
    assert not timer.running
    assert sim.pending_events == 1
    assert sim.heap_size == 1


def test_periodic_timers_due_at_one_instant_share_a_heap_entry():
    sim = Simulator()
    fired = []
    timers = [PeriodicTimer(sim, 1.0, lambda i=i: fired.append((sim.now, i)))
              for i in range(5)]
    for timer in timers:
        timer.start(first_delay=0.5)
    loner = PeriodicTimer(sim, 1.0, lambda: fired.append((sim.now, "loner")))
    loner.start(first_delay=0.75)
    assert sim.pending_events == 2
    # run() counts heap entries: two rounds of the cohort, one of the loner.
    assert sim.run(until=1.6) == 3
    assert fired == ([(0.5, i) for i in range(5)] + [(0.75, "loner")]
                     + [(1.5, i) for i in range(5)])
    # The last member to leave takes the cohort's entry with it.
    for timer in timers[:-1]:
        timer.stop()
    assert sim.pending_events == 2
    timers[-1].stop()
    assert sim.pending_events == 1
    assert sim.peek() == 1.75
    assert not sim.cohorts.keys() - {1.75}


def test_periodic_timer_restarted_inside_its_callback_runs_once_per_period():
    sim = Simulator()
    fired = []

    def on_tick():
        fired.append(sim.now)
        if len(fired) == 1:
            timer.stop()
            timer.start(first_delay=0.25)

    timer = PeriodicTimer(sim, 1.0, on_tick)
    timer.start()
    sim.run(until=3.5)
    assert fired == [1.0, 1.25, 2.25, 3.25]
