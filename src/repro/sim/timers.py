"""One-shot and periodic timers built on the event heap.

The protocol layer uses these for the paper's named timers: every
wait for a reply (the retransmission timer ``T_e``/``Max_r`` of
network initialization, the quorum-adjustment timer ``T_d``, the
existence-probe timer ``T_r``, ...) is a one-shot entry of an agent's
record, :meth:`repro.net.agent.Agent._await`, and the periodic checks
are armed through :meth:`repro.net.agent.Agent._every`.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterator, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Timer:
    """A restartable one-shot timer.

    ``start`` arms the timer; ``restart`` cancels and re-arms it (the
    common "push back the deadline" pattern); ``stop`` cancels it.
    """

    __slots__ = ("_sim", "_callback", "_handle")

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


class _Cohort(Event):
    """Periodic timers due at one exact instant, behind one heap entry:
    the cohort itself, an :class:`~repro.sim.events.Event` that calls
    its own :meth:`_fire`.

    ``members`` is an insertion-ordered set (arming order).  The cohort
    is *open*, listed in ``sim.cohorts`` for later timers to join,
    until it fires, empties, or any other event is scheduled for its
    instant; timers armed after that start a new cohort, so the firing
    order is exactly that of one heap entry per timer.  A lone member
    passed over while parked takes the fired cohort along to its next
    instant, when no cohort is open there (:meth:`_rearm`)."""

    __slots__ = ("members",)

    def __init__(self, sim: Simulator, time: float) -> None:
        # Event's fields, set here: a cohort is made per fired round.
        self.time = time
        self.callback = self._fire
        self.args = (sim,)
        self.pending = True
        self.members: Dict["PeriodicTimer", None] = {}
        sim._enqueue(self)
        sim.cohorts[time] = self

    def close(self, sim: Simulator) -> None:
        if sim.cohorts.get(self.time) is self:
            del sim.cohorts[self.time]

    def _rearm(self, sim: Simulator, time: float) -> None:
        """Queue this fired cohort again, open at ``time``, with a fresh
        ``seq``: the entry a new cohort would have been."""
        self.time = time
        self.pending = True
        sim._enqueue(self)
        sim.cohorts[time] = self

    def _fire(self, sim: Simulator) -> None:
        self.close(sim)
        hook = sim._profile_hook
        members = iter(list(self.members))
        for timer in members:
            # An earlier member of this round may have stopped (or
            # restarted, into another cohort) a later one.
            if timer._cohort is self:
                if timer._parked:
                    called = self._pass_parked(sim, timer, members)
                    if called is None:
                        break
                    timer = called
                if hook is None:
                    timer._fire()
                else:
                    hook(timer._fire, ())
        # Unless a lone parked member took the cohort along, every
        # member has re-armed elsewhere or stopped.  The cohort refers
        # to itself (its callback), so only the cycle collector frees
        # it: let the members go now, not at its next pass.
        if not self.pending:
            self.members.clear()

    def _pass_parked(self, sim: Simulator, first: "PeriodicTimer",
                     members: Iterator["PeriodicTimer"]
                     ) -> Optional["PeriodicTimer"]:
        """Re-arm ``first`` and the members after it in place of their
        calls while each is parked and the simulator's park gate
        (:attr:`~repro.sim.engine.Simulator.park_gate`) reads True;
        return the first member this round must call (unparked, if the
        gate read False or woke it), or ``None`` when none is left.
        Nothing runs between two passed members, so the gate is read
        once, and the cohort a re-arm joins stays open for the next
        member due at the same instant.  A member alone in this cohort
        keeps it when no cohort is open at its next instant."""
        now = sim.now
        cohorts = sim.cohorts
        current = sim.park_gate()
        passed = 0
        called: Optional[PeriodicTimer] = None
        for timer in chain((first,), members):
            if timer._cohort is not self:
                continue
            # The gate may also have woken this very member.
            if not (current and timer._parked):
                timer._parked = False
                called = timer
                break
            time = now + timer.interval
            if len(self.members) == 1 and time not in cohorts:
                self._rearm(sim, time)
            else:
                timer._arm(time)
            passed += 1
        sim._parked_rearms += passed
        return called


class PeriodicTimer:
    """A timer that re-arms itself every ``interval`` seconds.

    The first firing happens after ``first_delay`` (defaults to the
    interval); protocols stagger ``first_delay`` per node to avoid
    lock-step beaconing artifacts.  Timers due at the same (float-equal)
    instant share one heap entry, a cohort: its members run in arming
    order and each re-arms at ``now + interval``.  A timer alone at its
    instant is a cohort of one.  docs/ARCHITECTURE.md states the
    resulting event order.

    A callback that found nothing to do may :meth:`park` its timer:
    while it is parked and the simulator's park gate reads True, the
    timer keeps its place and instants but its callback is not called.
    Whoever changes what the callback read ends the park with
    :meth:`unpark`, and so does :meth:`start`; a gate that reads False
    ends the park of the timer whose turn it is.  The gate may itself
    unpark timers (one read serves a whole run of parked members), the
    timer whose turn it is included.
    """

    __slots__ = ("_sim", "interval", "_callback", "_cohort", "_parked")

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
        self._parked = False

    @property
    def running(self) -> bool:
        return self._cohort is not None

    def park(self) -> None:
        self._parked = True

    def unpark(self) -> None:
        self._parked = False

    def start(self, first_delay: Optional[float] = None) -> None:
        if self._cohort is None:
            self._parked = False
            delay = self.interval if first_delay is None else first_delay
            self._arm(self._sim.now + delay)

    def stop(self) -> None:
        cohort, self._cohort = self._cohort, None
        if cohort is not None:
            del cohort.members[self]
            if not cohort.members:  # no-ops if the cohort is firing
                self._sim.cancel(cohort)
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
