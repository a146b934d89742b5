"""Lightweight performance instrumentation.

One :class:`PerfRecorder` per simulation run collects two kinds of
observability data:

* **Monotonic counters** — deterministic tallies of algorithmic work
  (graph rebuilds, BFS calls, BFS nodes expanded, cache hits, sends per
  scope).  Counters depend only on the simulated event sequence, never
  on wall clock, so they are bit-identical across reruns, machines and
  worker counts — which is what lets them ride on
  :class:`~repro.experiments.metrics.RunResult` without breaking the
  sweep executor's byte-identity guarantees, and lets CI track them as
  machine-independent regression metrics.

* **Nestable wall-clock timers** — accumulated ``perf_counter`` spans
  per name.  Timers may nest (``topology.rebuild`` inside
  ``transport.send``); re-entering a name that is already running on
  the stack does not double-count its time.  Timings are *never*
  serialized into run results: wall clock varies per machine, and the
  determinism tests compare result payloads byte for byte.  The perf
  ledger is the consumer (``ledger/workloads.py`` reads
  :meth:`PerfRecorder.timings_snapshot`; docs/BENCHMARKS.md).

Instrumented subsystems accept a recorder (topology, transport take a
``perf=`` argument; :class:`~repro.net.context.NetworkContext` wires one
shared recorder per run, exposed as ``ctx.perf``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["Counters", "PerfRecorder", "TimerStat"]


class Counters:
    """A named, monotonically increasing counter set.

    The same shape as :class:`repro.net.stats.MessageStats` but without
    the hop/message pairing — for subsystems that just need tallies
    with a stable reporting snapshot (the sweep executor counts
    scheduled / executed / cached / failed runs through one of these).
    Lives here, below the network substrate, because the recorder and
    the fault layer both count through it.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` (default 1) to counter ``name``; return it."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self._counts[name] += amount
        return self._counts[name]

    def get(self, name: str) -> int:
        # Plain lookup, not defaultdict access: reading a counter must
        # not materialize a zero entry in the reporting snapshot.
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """``{name: count}`` for every counter ever touched."""
        return dict(self._counts)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={v}" for k, v in sorted(self._counts.items()) if v)
        return f"Counters({parts})"


class TimerStat:
    """Accumulated wall-clock total and call count for one timer name."""

    __slots__ = ("calls", "total_s", "_depth", "_started")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self._depth = 0      # re-entrancy guard: only the outermost
        self._started = 0.0  # frame of a name accumulates time

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_s": self.total_s}


class _Timer(TimerStat):
    """One name's stat as its own reusable ``with`` block.

    All state a span needs lives in the depth count, none in the
    object handed to ``with``, so the recorder keeps one per name and
    re-entering it while it runs is the ordinary nested case.  (A
    ``contextlib`` generator per use did the same bookkeeping at twice
    the cost, around every search, rebuild and send.)
    """

    __slots__ = ("_name", "_stack", "_clock")

    def __init__(self, name: str, stack: List[str],
                 clock: Callable[[], float]) -> None:
        super().__init__()
        self._name = name
        self._stack = stack
        self._clock = clock

    def __enter__(self) -> None:
        self.calls += 1
        self._depth += 1
        if self._depth == 1:
            self._started = self._clock()
        self._stack.append(self._name)

    def __exit__(self, *_exc: object) -> None:
        self._stack.pop()
        self._depth -= 1
        if self._depth == 0:
            self.total_s += self._clock() - self._started


class PerfRecorder:
    """Counters plus nestable timers for one simulation run.

    Args:
        clock: monotonic time source (injectable for tests); defaults
            to :func:`time.perf_counter`.

    Example:
        >>> perf = PerfRecorder()
        >>> with perf.timer("topology.rebuild"):
        ...     perf.incr("graph_rebuilds")
        1
        >>> perf.counters.get("graph_rebuilds")
        1
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.counters = Counters()
        self._clock = clock
        self._timers: Dict[str, _Timer] = {}
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    # Counters (deterministic)
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name``; returns the new value."""
        return self.counters.incr(name, amount)

    def get(self, name: str) -> int:
        return self.counters.get(name)

    def counters_snapshot(self) -> Dict[str, int]:
        """Sorted ``{name: count}`` of every counter ever touched."""
        return dict(sorted(self.counters.snapshot().items()))

    # ------------------------------------------------------------------
    # Timers (wall clock, ledger-only)
    # ------------------------------------------------------------------
    def timer(self, name: str) -> _Timer:
        """Time a block under ``name``; nest freely, re-entrancy-safe."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = _Timer(
                name, self._stack, self._clock)
        return timer

    def active_timers(self) -> Tuple[str, ...]:
        """Names currently on the timer stack, outermost first."""
        return tuple(self._stack)

    def timings_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Sorted ``{name: {"calls": n, "total_s": s}}``."""
        return {name: stat.as_dict()
                for name, stat in sorted(self._timers.items())}

    def __repr__(self) -> str:
        return (f"PerfRecorder(counters={self.counters!r}, "
                f"timers={sorted(self._timers)})")
