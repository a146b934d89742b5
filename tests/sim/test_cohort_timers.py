"""Cohort timers fire what one-heap-entry-per-timer timers would.

``PeriodicTimer`` shares a heap entry between timers due at the same
instant.  :class:`ReferenceTimer` below is the mechanism it replaced —
one heap entry per timer per period — kept here as the oracle: a seeded
mix of coinciding and distinct phases, with timers stopping, starting
and restarting themselves and each other from inside callbacks and from
plain events, and with plain events landing on the very instants the
timers share, must produce the same (time, owner) callback sequence
under both.
"""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class ReferenceTimer:
    """A periodic timer with its own heap entry for every firing."""

    def __init__(self, sim, interval, callback):
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event = None

    @property
    def running(self):
        return self._event is not None

    def start(self, first_delay=None):
        if self._event is None:
            delay = self.interval if first_delay is None else first_delay
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self):
        event = self._event
        self._callback()
        if self._event is event:  # neither stopped nor restarted inside
            self._event = self._sim.schedule(self.interval, self._fire)


INTERVALS = (0.25, 0.5, 1.0, 1.5)
PHASES = (0.0, 0.125, 0.25, 0.5, 0.75)
TIMERS = 40


def drive(timer_cls, seed):
    """Run the scripted mix; returns (callback log, entries fired, now)."""
    sim = Simulator()
    rng = random.Random(seed)
    log = []
    timers = []

    def plain(tag):
        log.append((sim.now, "plain", tag))

    def act(actor):
        """One seeded action on a random victim (possibly the actor)."""
        victim = timers[rng.randrange(TIMERS)]
        roll = rng.random()
        if roll < 0.25:
            return
        if roll < 0.40:
            # A plain event a grid step ahead: called from a timer's
            # callback it lands exactly on a later cohort's instant,
            # between the arming of that cohort's members.
            sim.schedule(rng.choice(PHASES + INTERVALS), plain, len(log))
        elif roll < 0.60:
            victim.stop()
        elif roll < 0.80:
            victim.start(first_delay=rng.choice(PHASES))
        else:
            victim.stop()
            victim.start(first_delay=rng.choice(PHASES))

    def make(index):
        def callback():
            log.append((sim.now, index, timers[index].running))
            act(index)
        return timer_cls(sim, rng.choice(INTERVALS), callback)

    timers.extend(make(index) for index in range(TIMERS))
    for timer in timers:
        timer.start(first_delay=rng.choice(PHASES))
    # Plain events, off the timers' grid, that meddle from outside.
    for k in range(60):
        sim.schedule(0.1 + 0.37 * k, act, None)
    fired = sim.run(until=25.0)
    return log, fired, sim.now


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cohorts_match_one_entry_per_timer(seed):
    cohort_log, cohort_fired, cohort_now = drive(PeriodicTimer, seed)
    reference_log, reference_fired, reference_now = drive(ReferenceTimer, seed)
    assert len(reference_log) > 1000
    assert sum(1 for entry in reference_log if entry[1] == "plain") > 100
    assert cohort_log == reference_log
    assert cohort_now == reference_now
    # Same callbacks from fewer heap entries: phases coincide by design.
    assert cohort_fired < 0.75 * reference_fired


def test_mixed_intervals_at_one_instant_fire_in_arming_order():
    """A cohort is keyed on the fire time alone, so timers of different
    periods that meet at an instant keep the order they were armed in."""
    for timer_cls in (PeriodicTimer, ReferenceTimer):
        sim = Simulator()
        log = []
        slow = timer_cls(sim, 1.0, lambda: log.append("slow"))
        fast = timer_cls(sim, 0.5, lambda: log.append("fast"))
        last = timer_cls(sim, 1.0, lambda: log.append("last"))
        for timer in (slow, fast, last):
            timer.start(first_delay=1.0)
        sim.run(until=2.0)
        # t=1.0 in arming order; t=1.5 fast alone; at t=2.0 fast re-armed
        # (at 1.5) after slow and last did (at 1.0).
        assert log == ["slow", "fast", "last", "fast", "slow", "last", "fast"]
