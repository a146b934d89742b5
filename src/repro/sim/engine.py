"""The discrete-event simulation engine.

:class:`Simulator` owns the event heap and the simulation clock.  All
other subsystems (radio transport, protocol timers, mobility sampling,
scenario drivers) schedule work through it.  The engine is deliberately
minimal: time only advances by popping events, and two events scheduled
for the same instant fire in the order they were scheduled (FIFO within a
priority class), which keeps runs reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: master seed for the simulator's named random streams.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(2.0, fired.append, "b")
        >>> _ = sim.schedule(1.0, fired.append, "a")
        >>> sim.run()
        2
        >>> fired
        ['a', 'b']
    """

    #: Lazy-cancel compaction threshold: once more than half the heap is
    #: cancelled tombstones (and the heap is big enough to matter), the
    #: dead entries are filtered out and the heap rebuilt in one pass.
    COMPACT_MIN_SIZE = 64

    #: Hard cap on tombstones regardless of the live count.  The
    #: fractional rule alone lets a huge heap carry an equally huge
    #: tombstone shadow (at n=10k a protocol tick can keep ~hundreds of
    #: thousands of live timers, licensing the same again in dead
    #: entries); past this many tombstones the heap compacts even
    #: though they are still a minority.
    COMPACT_MAX_TOMBSTONES = 32768

    #: Amortization floor: after a compaction, at least this many
    #: schedule operations must happen before the thresholds may
    #: trigger another one.  Each compaction is O(heap), so without a
    #: spacing rule a pathological cancel pattern hovering right at a
    #: threshold pays the rebuild over and over; with it, the rebuilds
    #: are amortized O(1) per schedule.  Tombstone *memory* stays
    #: bounded: a cancel needs a prior schedule, so the interval admits
    #: at most this many extra tombstones past the thresholds.
    COMPACT_MIN_INTERVAL = 4096

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._running: bool = False
        self._pending: int = 0
        self._compactions: int = 0
        # Schedule-op count at the last compaction; primed so the first
        # compaction is never delayed by the amortization interval.
        self._last_compact_seq: int = -self.COMPACT_MIN_INTERVAL
        self._profile_hook: Optional[
            Callable[[Callable[..., Any], Tuple[Any, ...]], None]] = None
        #: Fire time -> the cohort of periodic timers still open for
        #: joining at that instant (see :mod:`repro.sim.timers`).
        self.cohorts: Dict[float, Any] = {}
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    # Clock and queue inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._pending

    @property
    def heap_size(self) -> int:
        """Physical heap length, live events plus cancelled tombstones."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted so far."""
        return self._compactions

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and not heap[0][3].pending:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        # Close the cohort open at this instant, if any: periodic timers
        # armed from now on fire after this event, as their own heap
        # entries would have.
        self.cohorts.pop(time, None)
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired/was cancelled)."""
        if event.pending:
            event.pending = False
            self._pending -= 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Drop cancelled tombstones once they dominate the heap.

        Cancellation is lazy (events are only marked), so protocols that
        restart timers constantly — every HELLO round, every quorum
        probe — would otherwise grow the heap far beyond the live event
        count.  Rebuilding is O(live); entries are totally ordered by
        (time, priority, seq), so the rebuilt heap is deterministic and
        pending/peek/step semantics are unchanged.
        """
        heap = self._heap
        if len(heap) < self.COMPACT_MIN_SIZE:
            return
        if self._seq - self._last_compact_seq < self.COMPACT_MIN_INTERVAL:
            return  # amortization: a compaction ran too recently
        tombstones = len(heap) - self._pending
        if (tombstones <= len(heap) // 2
                and tombstones <= self.COMPACT_MAX_TOMBSTONES):
            return
        self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled tombstones, immediately.

        Normally compaction is automatic (see :meth:`_maybe_compact`);
        the public entry point exists for long-running drivers that want
        to reclaim memory at a known-quiet instant (e.g. between scale
        bench rounds) rather than whenever the threshold happens to
        trip.  Semantics are unaffected: entries are totally ordered by
        (time, priority, seq), so the rebuilt heap is deterministic.
        """
        heap = self._heap
        if len(heap) == self._pending:
            return
        live = [entry for entry in heap if entry[3].pending]
        heapq.heapify(live)
        self._heap = live
        self._compactions += 1
        self._last_compact_seq = self._seq

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def set_profile_hook(
        self,
        hook: Optional[Callable[[Callable[..., Any], Tuple[Any, ...]], None]],
    ) -> None:
        """Install a profiling hook that fires events on the engine's
        behalf.

        With a hook set, :meth:`step` calls ``hook(callback, args)``
        instead of ``callback(*args)``; the hook must invoke the
        callback exactly once.  Calls nest: a cohort of periodic timers
        fires each member through the hook from inside the call for its
        own heap entry.  Event selection, ordering and the clock are
        untouched, so a profiled run is bit-identical to an unprofiled
        one.  The engine itself never reads the wall clock (that would
        break determinism linting); timing belongs to the hook
        (:class:`repro.obs.profile.SubsystemProfiler`).  ``None``
        removes the hook.
        """
        self._profile_hook = hook

    def step(self) -> bool:
        """Fire the next live event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _priority, _seq, event = heapq.heappop(heap)
            if event.pending:
                event.pending = False  # fired: a late cancel() is a no-op
                self._pending -= 1
                self._now = time
                if self._profile_hook is None:
                    event.callback(*event.args)
                else:
                    self._profile_hook(event.callback, event.args)
                return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of heap entries fired (periodic timers due at
        one instant share an entry).  When ``until`` is given the clock
        is advanced to exactly ``until`` even if the queue drained
        earlier, so periodic observers see a consistent end time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while max_events is None or fired < max_events:
                next_time = self.peek()
                if next_time is None or (until is not None and next_time > until):
                    break
                self.step()
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return fired
