"""Generator-based cooperative processes (SimPy-style).

A process is a Python generator that yields :class:`Timeout` or
:class:`Waiter` objects.  Scenario drivers use processes for sequential
scripts ("arrive, wait, move, depart") where callback chaining would
obscure the control flow; the protocol agents themselves are
callback/timer driven.

Example:
    >>> from repro.sim import Simulator, Timeout
    >>> sim = Simulator()
    >>> log = []
    >>> def script():
    ...     log.append(("start", sim.now))
    ...     yield Timeout(5.0)
    ...     log.append(("done", sim.now))
    >>> _ = Process(sim, script())
    >>> sim.run()
    2
    >>> log
    [('start', 0.0), ('done', 5.0)]
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.sim.engine import Simulator


class Timeout:
    """Yield from a process to sleep ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay


class Waiter:
    """A one-shot condition a process can yield on.

    Some other piece of code calls :meth:`trigger` (optionally with a
    value); the waiting process resumes with that value as the result of
    its ``yield``.
    """

    def __init__(self) -> None:
        self.triggered = False
        self.value: Any = None
        self._waiting: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        waiting, self._waiting = self._waiting, []
        for process in waiting:
            process._resume(value)

    def _subscribe(self, process: "Process") -> None:
        if self.triggered:
            process._schedule_resume(self.value)
        else:
            self._waiting.append(process)


class Process:
    """Drives a generator coroutine against the simulator clock.

    The generator may yield:
      * :class:`Timeout` — resume after a delay;
      * :class:`Waiter` — resume when triggered, receiving its value.

    Starting is asynchronous: the first step runs at the current time via
    a zero-delay event, so constructing a process inside another event
    handler is safe.
    """

    def __init__(self, sim: Simulator, generator: Generator[Any, Any, Any]) -> None:
        self._sim = sim
        self._generator = generator
        self.alive = True
        self.result: Any = None
        self.finished = Waiter()
        sim.schedule(0.0, self._resume, None)

    def _schedule_resume(self, value: Any) -> None:
        self._sim.schedule(0.0, self._resume, value)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.result = getattr(stop, "value", None)
            self.finished.trigger(self.result)
            return
        if isinstance(yielded, Timeout):
            self._sim.schedule(yielded.delay, self._resume, None)
        elif isinstance(yielded, Waiter):
            yielded._subscribe(self)
        else:
            raise TypeError(f"process yielded unsupported object: {yielded!r}")

    def interrupt(self) -> None:
        """Kill the process; it never resumes and ``finished`` triggers."""
        if self.alive:
            self.alive = False
            self._generator.close()
            self.finished.trigger(None)


def run_process(sim: Simulator, generator: Generator[Any, Any, Any],
                until: Optional[float] = None) -> Any:
    """Convenience: wrap ``generator`` in a process, run, return its result."""
    process = Process(sim, generator)
    sim.run(until=until)
    return process.result
