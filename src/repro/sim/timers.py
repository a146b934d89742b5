"""One-shot and periodic timers built on the event heap.

The protocol layer uses these for the paper's named timers: the
retransmission timer ``T_e``/``Max_r`` of network initialization, the
quorum-adjustment timer ``T_d``, the existence-probe timer ``T_r``,
periodic HELLO beaconing, and the periodic synchronization of the Buddy
baseline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Timer:
    """A restartable one-shot timer.

    ``start`` arms the timer; ``restart`` cancels and re-arms it (the
    common "push back the deadline" pattern); ``stop`` disarms it.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    @property
    def deadline(self) -> Optional[float]:
        return self._handle.time if self.armed else None

    def start(self, delay: float, *args: Any) -> None:
        if self.armed:
            raise RuntimeError("timer already armed; use restart()")
        self._handle = self._sim.schedule(delay, self._fire, *args)

    def restart(self, delay: float, *args: Any) -> None:
        self.stop()
        self.start(delay, *args)

    def stop(self) -> None:
        if self._handle is not None:
            self._sim.cancel(self._handle)
        self._handle = None

    def _fire(self, *args: Any) -> None:
        self._handle = None
        self._callback(*args)


class _Cohort:
    """Periodic timers due at one exact instant, behind one heap entry.

    ``members`` is an insertion-ordered set (arming order).  The cohort
    is *open*, listed in ``sim.cohorts`` for later timers to join,
    until it fires, empties, or any other event is scheduled for its
    instant; timers armed after that start a new cohort, so the firing
    order is exactly that of one heap entry per timer."""

    __slots__ = ("members", "event")

    def __init__(self, sim: Simulator, time: float) -> None:
        self.members: Dict["PeriodicTimer", None] = {}
        self.event = sim.schedule_at(time, self._fire, sim)
        sim.cohorts[time] = self

    def close(self, sim: Simulator) -> None:
        if sim.cohorts.get(self.event.time) is self:
            del sim.cohorts[self.event.time]

    def _fire(self, sim: Simulator) -> None:
        self.close(sim)
        hook = sim._profile_hook
        for timer in list(self.members):
            # An earlier member of this round may have stopped (or
            # restarted, into another cohort) a later one.
            if timer._cohort is self:
                if hook is None:
                    timer._fire()
                else:
                    hook(timer._fire, ())


class PeriodicTimer:
    """A timer that re-arms itself every ``interval`` seconds.

    The first firing happens after ``first_delay`` (defaults to the
    interval); protocols stagger ``first_delay`` per node to avoid
    lock-step beaconing artifacts.  Timers due at the same (float-equal)
    instant share one heap entry, a cohort: its members run in arming
    order and each re-arms at ``now + interval``.  A timer alone at its
    instant is a cohort of one.  docs/ARCHITECTURE.md states the
    resulting event order.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._cohort: Optional[_Cohort] = None

    @property
    def running(self) -> bool:
        return self._cohort is not None

    def start(self, first_delay: Optional[float] = None) -> None:
        if self._cohort is None:
            delay = self.interval if first_delay is None else first_delay
            self._arm(self._sim.now + delay)

    def stop(self) -> None:
        cohort, self._cohort = self._cohort, None
        if cohort is not None:
            del cohort.members[self]
            if not cohort.members:  # no-ops if the cohort is firing
                self._sim.cancel(cohort.event)
                cohort.close(self._sim)

    def _arm(self, time: float) -> None:
        cohort = self._sim.cohorts.get(time) or _Cohort(self._sim, time)
        cohort.members[self] = None
        self._cohort = cohort

    def _fire(self) -> None:
        cohort = self._cohort
        self._callback()
        # Re-arm unless the callback stopped or restarted this timer.
        if self._cohort is cohort:
            self._arm(self._sim.now + self.interval)
