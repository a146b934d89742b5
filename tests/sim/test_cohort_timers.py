"""Cohort timers fire what one-heap-entry-per-timer timers would.

``PeriodicTimer`` shares a heap entry between timers due at the same
instant.  :class:`ReferenceTimer` below is the mechanism it replaced —
one heap entry per timer per period — kept here as the oracle: a seeded
mix of coinciding and distinct phases, with timers stopping, starting
and restarting themselves and each other from inside callbacks and from
plain events, and with plain events landing on the very instants the
timers share, must produce the same (time, owner) callback sequence
under both.  Timers also park, and the simulator's park gate opens and
closes at seeded instants; the reference calls a parked timer, which
returns at once while the gate reads True.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import PeriodicTimer

from tests.helpers import passes_over


class ReferenceTimer:
    """A periodic timer with its own heap entry for every firing."""

    def __init__(self, sim, interval, callback):
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event = None
        self._parked = False
        self.skips = 0

    @property
    def running(self):
        return self._event is not None

    @property
    def next_at(self):
        return self._event.time if self._event is not None else None

    def park(self):
        self._parked = True

    def unpark(self):
        self._parked = False

    def start(self, first_delay=None):
        if self._event is None:
            self._parked = False
            delay = self.interval if first_delay is None else first_delay
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self):
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self):
        event = self._event
        self._call()
        if self._event is event:  # neither stopped nor restarted inside
            self._event = self._sim.schedule(self.interval, self._fire)

    def _call(self):
        """The callback, unless parked while the gate reads True: then
        return at once."""
        if self._parked:
            if self._sim.park_gate():
                self.skips += 1
                return
            self._parked = False
        self._callback()


def next_at(timer):
    """When ``timer`` fires next (``None`` if stopped)."""
    if isinstance(timer, ReferenceTimer):
        return timer.next_at
    return timer._cohort.time if timer.running else None


INTERVALS = (0.25, 0.5, 1.0, 1.5)
PHASES = (0.0, 0.125, 0.25, 0.5, 0.75)
TIMERS = 40


def drive(timer_cls, seed, hook=None):
    """Run the scripted mix; returns (callback log, entries fired, now,
    every timer's next fire time, parked timers passed over)."""
    sim = Simulator()
    if hook is not None:
        sim.set_profile_hook(hook)
    rng = random.Random(seed)
    log = []
    timers = []
    flips = [0]
    sim.park_gate = lambda: flips[0] % 3 == 0

    def plain(tag):
        log.append((sim.now, "plain", tag))

    def act(actor):
        """One seeded action on a random victim (possibly the actor)."""
        victim = timers[rng.randrange(TIMERS)]
        roll = rng.random()
        park = rng.random()
        if park < 0.1:
            flips[0] += 1
        elif park < 0.2:
            victim.park()
        elif park < 0.25:
            victim.unpark()
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
            if rng.random() < 0.5:
                # Found nothing to do: skip until woken or the gate
                # closes.
                timers[index].park()
        return timer_cls(sim, rng.choice(INTERVALS), callback)

    def flip():
        flips[0] += 1

    timers.extend(make(index) for index in range(TIMERS))
    for timer in timers:
        timer.start(first_delay=rng.choice(PHASES))
    # Plain events, off the timers' grid, that meddle from outside, and
    # gate flips, some on the grid.
    for k in range(60):
        sim.schedule(0.1 + 0.37 * k, act, None)
        sim.schedule(rng.choice((0.5, 0.3)) * k, flip)
    fired = sim.run(until=25.0)
    passed = (sum(timer.skips for timer in timers)
              if timer_cls is ReferenceTimer else sim.parked_rearms)
    return log, fired, sim.now, [next_at(timer) for timer in timers], passed


def calling_hook(calls):
    """A profile hook that counts what it fires."""
    def hook(callback, args):
        calls.append(callback)
        callback(*args)
    return hook


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cohorts_match_one_entry_per_timer(seed):
    (reference_log, reference_fired, reference_now, reference_next,
     reference_passed) = drive(ReferenceTimer, seed)
    assert len(reference_log) > 1000
    assert sum(1 for entry in reference_log if entry[1] == "plain") > 100
    assert reference_passed > 100
    for hooked in (False, True):
        calls = []
        log, fired, now, next_fires, passed = drive(
            PeriodicTimer, seed, calling_hook(calls) if hooked else None)
        assert log == reference_log
        assert now == reference_now
        assert next_fires == reference_next
        assert passed == reference_passed
        # Same callbacks from fewer heap entries: phases coincide by
        # design.
        assert fired < 0.75 * reference_fired
        if hooked:
            # The hook fires every heap entry and every member called,
            # and no parked one.
            members = sum(1 for entry in log if entry[1] != "plain")
            assert len(calls) == fired + members


def gated(sim, state):
    """Install a park gate that reads ``state[0]``; returns the list
    of instants it was read at."""
    reads = []

    def gate():
        reads.append(sim.now)
        return state[0]

    sim.park_gate = gate
    return reads


def test_a_called_member_makes_later_parked_members_read_again():
    sim = Simulator()
    log, state = [], [True]
    reads = gated(sim, state)

    def close():
        log.append("close")
        state[0] = False

    a, c, d = (PeriodicTimer(sim, 1.0, lambda tag=tag: log.append(tag))
               for tag in "acd")
    timers = [a, PeriodicTimer(sim, 1.0, close), c, d]
    for timer in timers:
        timer.start()
    for timer in (a, c, d):
        timer.park()
    sim.run(until=1.0)
    # a passes on the first read; close runs; c reads again, finds the
    # gate closed and is called, unparked; so d reads again too.
    assert log == ["close", "c", "d"]
    assert reads == [1.0, 1.0, 1.0]
    assert sim.parked_rearms == 1
    # Parked members with nothing called between them: one read.
    state[0] = True
    for timer in timers:
        timer.park()
    reads.clear()
    sim.run(until=2.0)
    assert log == ["close", "c", "d"]
    assert reads == [2.0]
    assert sim.parked_rearms == 5


def test_a_closed_gate_calls_only_the_member_whose_turn_it_is():
    """The member called on a closed gate may open it (a refresh does,
    at the instant it falls on): the members after it pass again."""
    sim = Simulator()
    log, state = [], [False]
    reads = gated(sim, state)

    def refresh():
        log.append("refresh")
        state[0] = True
        timers[0].park()

    timers = [PeriodicTimer(sim, 1.0, refresh),
              *(PeriodicTimer(sim, 1.0, lambda: log.append("late"))
                for _ in range(3))]
    for timer in timers:
        timer.start()
        timer.park()
    sim.run(until=1.0)
    assert log == ["refresh"] and reads == [1.0, 1.0]
    assert sim.parked_rearms == 3
    assert all(timer._parked for timer in timers)


def test_a_gate_that_wakes_the_member_whose_turn_it_is_calls_it():
    sim = Simulator()
    log = []
    timers = [PeriodicTimer(sim, 1.0, lambda tag=tag: log.append(tag))
              for tag in "ab"]

    def gate():
        timers[0].unpark()      # a patch that finds a's input moved
        return True

    sim.park_gate = gate
    for timer in timers:
        timer.start()
        timer.park()
    sim.run(until=1.0)
    assert log == ["a"] and sim.parked_rearms == 1
    assert not timers[0]._parked and timers[1]._parked


def test_start_ends_the_park():
    sim = Simulator()
    called = []
    timer = PeriodicTimer(sim, 1.0, lambda: called.append(sim.now))
    timer.start()
    timer.park()
    assert passes_over(timer)
    sim.run(until=2.5)
    assert called == [] and sim.parked_rearms == 2
    # Arming it while it runs keeps the park; stopping it and arming
    # it again does not: the first fire calls.
    timer.start()
    assert passes_over(timer)
    timer.stop()
    timer.start()
    assert not passes_over(timer)
    sim.run(until=3.5)
    assert called == [3.5] and sim.parked_rearms == 2
    # unpark() ends it too.
    timer.park()
    timer.unpark()
    sim.run(until=4.5)
    assert called == [3.5, 4.5] and sim.parked_rearms == 2


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


def test_a_lone_parked_member_keeps_its_cohort():
    sim = Simulator()
    log = []
    loner = PeriodicTimer(sim, 1.0, lambda: log.append("loner"))
    loner.start()
    loner.park()
    cohort = loner._cohort
    assert sim.run(until=2.0) == 2
    # Passed over twice, re-armed in the cohort it fired from, which
    # is back on the heap under the seq a new cohort would have taken.
    assert log == [] and sim.parked_rearms == 2
    assert loner._cohort is cohort and cohort.time == 3.0
    assert sim.cohorts == {3.0: cohort}
    assert sim._heap == [(3.0, 0, sim._seq - 1, cohort)]
    # A cohort open at its next instant is joined, as a new entry would
    # have been: it fires at 4.0 after the member that opened it.
    other = PeriodicTimer(sim, 2.0, lambda: log.append("other"))
    other.start(first_delay=2.0)
    sim.run(until=3.0)
    assert loner._cohort is other._cohort is not cohort
    loner.unpark()
    sim.run(until=4.0)
    assert log == ["other", "loner"]
    # Stopping it takes the entry off the heap, as for any cohort.
    other.stop()
    loner.park()
    sim.run(until=5.0)
    kept = loner._cohort
    loner.stop()
    assert not kept.pending and sim.pending_events == 0
    assert sim.run(until=9.0) == 0


def test_a_negative_first_delay_raises():
    """A cohort is queued without ``schedule_at``, but the past stays
    closed to it: the clock never runs backwards."""
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    timer = PeriodicTimer(sim, 1.0, lambda: None)
    with pytest.raises(SimulationError):
        timer.start(first_delay=-0.5)
    assert not timer.running and sim.cohorts == {}
    assert sim.pending_events == 0
