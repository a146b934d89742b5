"""A stopwatch that rescales host time to a fixed reference speed.

The sandbox this ledger is sized on slows down and speeds up by tens of
per cent, on scales from a second to minutes (a fixed 6 s pure-Python
loop measured 5.3-9.2 s over five minutes; see README "Host noise").
Raw elapsed time of a 20 s run spreads wider than any bound a
regression gate could use, and repeating or taking medians does not
help because the slow part of the drift outlasts a run.

The drift is multiplicative, so it cancels against a fixed slice of
interpreter work timed *while the measured code runs*: an interval
timer interrupts the main thread every ``INTERVAL_S`` and its handler
times one :func:`reference_slice`.  A step's time is its elapsed time
minus the slices it hosted, multiplied by ``REFERENCE_S`` over the
mean duration of those slices.  On a host where a slice takes exactly
``REFERENCE_S`` the result is plain elapsed seconds.  The handler
touches no simulator state, so the program's outputs are unaffected.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds between reference slices (about 10 % of the host's time).
INTERVAL_S = 0.040

#: Iterations of the reference loop per slice.
SLICE_ITERS = 16_000

#: Seconds one slice takes at the reference speed (the median on the
#: 2-core sizing box, CPython 3.11).  Only a scale: it turns the ratio
#: back into seconds.
REFERENCE_S = 0.0040

#: A step that hosted fewer slices than this borrows the most recent
#: ones instead (they are at most a few intervals old).
MIN_SLICES = 4


class WallGuardExceeded(RuntimeError):
    """The run outlived its wall guard (raised from the timer handler)."""


def reference_slice(iters: int = SLICE_ITERS) -> int:
    """Interpreter work shaped like the simulator's: integer
    arithmetic, dict read-modify-writes, list stores."""
    table: Dict[int, int] = {}
    ring = [0] * 256
    x = 12345
    for i in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + 1
        ring[i & 255] = x
    return len(table) + ring[0]


class Step:
    """One calibrated step: named segments timed back to back."""

    __slots__ = ("name", "segments", "scale")

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``(segment name, elapsed seconds net of slices, result)``.
        self.segments: List[Tuple[str, float, object]] = []
        #: Reference seconds per host second while the step ran.
        self.scale = 1.0

    @property
    def raw_s(self) -> float:
        return sum(raw for _name, raw, _out in self.segments)

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.scale

    def segment_s(self, name: str) -> float:
        """Calibrated seconds of the named segment(s)."""
        return self.scale * sum(
            raw for seg, raw, _out in self.segments if seg == name)


class Stopwatch:
    """Times steps while an interval timer co-samples host speed.

    ``guard_s`` bounds the stopwatch's whole life: once exceeded, the
    next timer tick raises :class:`WallGuardExceeded` inside whatever
    the main thread is running, which is how a melted-down workload is
    stopped.  ``on_slice`` is told every slice's duration (the tracer
    uses it to keep slices out of span self times).
    """

    def __init__(self, guard_s: Optional[float] = None) -> None:
        self.slices: List[float] = []
        self.slice_total = 0.0
        self.on_slice: Optional[Callable[[float], None]] = None
        self._busy = False
        self._deadline = (
            None if guard_s is None else time.perf_counter() + guard_s)
        self._previous_handler: object = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Stopwatch":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, _signum: int, _frame: object) -> None:
        if self._busy:
            return  # a stalled host delivered two ticks back to back
        self._busy = True
        try:
            start = time.perf_counter()
            reference_slice()
            elapsed = time.perf_counter() - start
            self.slices.append(elapsed)
            self.slice_total += elapsed
            if self.on_slice is not None:
                self.on_slice(elapsed)
        finally:
            self._busy = False
        if self._deadline is not None and start > self._deadline:
            self._deadline = None
            raise WallGuardExceeded("wall guard exceeded")

    # ------------------------------------------------------------------
    def scale_since(self, first_slice: int) -> float:
        """Reference seconds per host second over the slices taken
        since index ``first_slice`` (or the latest few if too few)."""
        recent = self.slices[first_slice:]
        if len(recent) < MIN_SLICES:
            recent = self.slices[-MIN_SLICES:]
        if not recent:
            return 1.0
        return REFERENCE_S / (sum(recent) / len(recent))

    def run(self, name: str,
            segments: Sequence[Tuple[str, Callable[[], object]]]) -> Step:
        step = Step(name)
        first_slice = len(self.slices)
        for seg_name, fn in segments:
            hosted = self.slice_total
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
            step.segments.append(
                (seg_name, elapsed - (self.slice_total - hosted), out))
        step.scale = self.scale_since(first_slice)
        return step
