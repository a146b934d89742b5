"""Event objects used by the simulation engine.

The heap holds ``(time, priority, seq, event)`` tuples, so ordering is
decided by C-level tuple comparison and never reaches the
:class:`Event` itself.  The sequence number is a monotonically
increasing tie-breaker assigned by the simulator, which makes event
ordering — and therefore entire simulation runs — fully deterministic
for a fixed seed.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback, and the caller's handle on it.

    Attributes:
        time: absolute simulation time at which the event fires.
        callback: callable invoked as ``callback(*args)``.
        pending: True from scheduling until the event fires or is
            cancelled (:meth:`Simulator.cancel
            <repro.sim.engine.Simulator.cancel>`); an event that is no
            longer pending stays in the heap as a tombstone and is
            skipped when popped.
    """

    __slots__ = ("time", "callback", "args", "pending")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.pending = True
