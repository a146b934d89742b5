"""Subsystem attribution profiler (wall clock + memory by package).

The deterministic perf counters (:mod:`repro.perf`) say how much
algorithmic work happened; this module says *where the time and memory
went*.  :class:`SubsystemProfiler` attributes cost along two axes:

* **Per-event package attribution.**  Installed on a
  :class:`~repro.sim.engine.Simulator` (:meth:`install`), the profiler
  becomes the engine's profile hook: it invokes every fired event
  callback itself, timing it and charging the call's self time to the
  subsystem that owns the callback (``repro.net``, ``repro.core``,
  ``repro.sim``, ``repro.quorum``, ...).  Timer-wrapped callbacks are
  unwrapped (:func:`package_of` looks through ``Timer``/
  ``PeriodicTimer`` ``_fire`` and ``functools.partial``) so a HELLO
  beacon is charged to ``repro.net``, not to the timer plumbing.
  Periodic timers that share a heap entry still arrive one callback
  at a time, nested inside the ``repro.sim`` call for the entry.

* **Nestable phase accounting.**  :meth:`phase` brackets a named
  stretch of driver code (``bootstrap``, ``settle``, ``storm``) and
  records calls, total and self wall clock, plus the per-package event
  deltas that occurred inside — the settle-phase breakdown is what
  names the steady-state cost floor in ``BENCH_scale.json``.

* **Memory attribution.**  :meth:`start_memory` /
  :meth:`memory_by_package` use :mod:`tracemalloc` to group live
  allocations by the ``repro`` sub-package that made them.

Everything here is wall-clock and machine-dependent by design, which is
why it lives outside the determinism boundary: profiler output is never
part of a cache key, a result hash, or a regression gate — the scale
gate (:func:`repro.perf.scale.check_scale_regression`) iterates named
sections and ignores the ``attribution`` block entirely.  The lint
suite sanctions the wall-clock reads in this one observability module
(see ``_WALLCLOCK_ALLOWED`` in :mod:`repro.lint.rules`).
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SubsystemProfiler", "package_of"]

#: Attribution bucket for callbacks that resolve to no ``repro`` module
#: (lambdas defined in tests, builtins, C-level callables).
OTHER = "other"

#: Attribution granularity: the first two dotted components of the
#: owning module ("repro.net.hello" -> "repro.net").
_PACKAGE_DEPTH = 2

#: Unwrap depth bound for wrapped callbacks (partial-of-timer-of-...).
_MAX_UNWRAP = 8


#: Code object -> package, for callables that are not wrappers.  A
#: function's module is fixed where it is defined, so an entry holds
#: for every closure and bound method made from that code; keying on
#: the code object (not the callable) keeps instances out of the
#: table, which stops growing once every def site has fired.
_PACKAGE_BY_CODE: Dict[Any, str] = {}


def package_of(callback: Callable[..., Any]) -> str:
    """The subsystem ("repro.net", "repro.core", ...) owning a callback.

    Bound methods are charged to the class's module; timer ``_fire``
    trampolines (:class:`~repro.sim.timers.Timer` /
    :class:`~repro.sim.timers.PeriodicTimer`) and
    :class:`functools.partial` wrappers are looked through so the cost
    lands on the protocol code the timer serves, not on the plumbing.
    A cohort of periodic timers hands the hook one ``_fire`` per
    member, so a shared heap entry is still charged callback by
    callback; the cohort's own trampoline is ``repro.sim`` plumbing.
    Answers are memoised per underlying function, so a plain callback
    costs one table probe and a wrapped one a single unwrapping step.
    """
    target: Any = callback
    for _ in range(_MAX_UNWRAP):
        code = getattr(getattr(target, "__func__", target), "__code__", None)
        package = _PACKAGE_BY_CODE.get(code)
        if package is not None:
            return package
        if isinstance(target, functools.partial):
            target = target.func
            continue
        owner = getattr(target, "__self__", None)
        inner = (getattr(owner, "_callback", None)
                 if getattr(target, "__name__", "") == "_fire" else None)
        if inner is None:
            break
        target = inner
    else:
        code = None  # unwrap bound hit: never memoise under a wrapper
    module: Optional[str] = getattr(target, "__module__", None)
    if not module:
        owner = getattr(target, "__self__", None)
        if owner is not None:
            module = getattr(type(owner), "__module__", None)
    package = (".".join(module.split(".")[:_PACKAGE_DEPTH])
               if module else OTHER)
    if code is not None:
        _PACKAGE_BY_CODE[code] = package
    return package


def _package_of_path(filename: str) -> str:
    """Map a traceback filename to its ``repro`` sub-package bucket."""
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return OTHER
    rest = normalized[index + len(marker):].split("/")
    if len(rest) > 1:
        return "repro." + rest[0]
    return "repro"


class _PhaseFrame:
    """One live ``phase()`` activation on the nesting stack."""

    __slots__ = ("name", "start", "child_s", "package_wall", "package_events")

    def __init__(self, name: str, start: float,
                 package_wall: Dict[str, float],
                 package_events: Dict[str, int]) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.package_wall = package_wall
        self.package_events = package_events


class SubsystemProfiler:
    """Attributes wall clock and memory to ``repro`` subsystems.

    Example::

        profiler = SubsystemProfiler().install(sim)
        with profiler.phase("settle"):
            sim.run(until=30.0)
        report = profiler.report()
        # report["phases"]["settle"]["packages"]["repro.net"]["wall_s"]

    The profiler is a passive observer of *cost*, never of behavior:
    the engine fires exactly the same events in the same order whether
    or not a hook is installed, so profiled runs produce bit-identical
    protocol results — only slower.
    """

    def __init__(self) -> None:
        # Per-package event attribution (run-wide).
        self._package_wall: Dict[str, float] = {}
        self._package_events: Dict[str, int] = {}
        # Wall clock of the hook calls nested in the one now running.
        self._child_s = 0.0
        # Per-phase accounting, insertion-ordered (phase sequence).
        self._phases: Dict[str, Dict[str, Any]] = {}
        self._stack: List[_PhaseFrame] = []
        self._sim: Optional[Any] = None
        self._owns_tracemalloc = False

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def install(self, sim: Any) -> "SubsystemProfiler":
        """Become ``sim``'s profile hook (see ``Simulator.set_profile_hook``)."""
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        sim.set_profile_hook(self._invoke)
        self._sim = sim
        return self

    def uninstall(self) -> None:
        """Detach from the simulator (idempotent)."""
        if self._sim is not None:
            self._sim.set_profile_hook(None)
            self._sim = None

    def _invoke(self, callback: Callable[..., Any],
                args: Tuple[Any, ...]) -> None:
        """Fire one callback on the engine's behalf, charging its
        package with the call's self time: a cohort round is one call
        (``repro.sim``) that fires its members through nested ones."""
        outer_child_s, self._child_s = self._child_s, 0.0
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter() - start
            package = package_of(callback)
            self._package_wall[package] = (
                self._package_wall.get(package, 0.0)
                + elapsed - self._child_s)
            self._package_events[package] = \
                self._package_events.get(package, 0) + 1
            self._child_s = outer_child_s + elapsed

    # ------------------------------------------------------------------
    # Phase accounting
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Bracket a named driver phase (nestable).

        ``total_s`` accumulates the full bracket; ``self_s`` excludes
        time spent in nested phases.  The per-package deltas cover
        every event fired inside the bracket, nested phases included.
        """
        frame = _PhaseFrame(name, time.perf_counter(),
                            dict(self._package_wall),
                            dict(self._package_events))
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame.start
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += elapsed
            record = self._phases.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "packages": {}})
            record["calls"] += 1
            record["total_s"] += elapsed
            record["self_s"] += elapsed - frame.child_s
            packages: Dict[str, Dict[str, Any]] = record["packages"]
            for package in sorted(self._package_wall):
                wall_delta = (self._package_wall[package]
                              - frame.package_wall.get(package, 0.0))
                event_delta = (self._package_events[package]
                               - frame.package_events.get(package, 0))
                if not event_delta:
                    continue
                entry = packages.setdefault(
                    package, {"events": 0, "wall_s": 0.0})
                entry["events"] += event_delta
                entry["wall_s"] += wall_delta

    # ------------------------------------------------------------------
    # Memory attribution
    # ------------------------------------------------------------------
    def start_memory(self) -> None:
        """Begin tracing allocations (no-op if tracemalloc is active)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def stop_memory(self) -> None:
        """Stop tracing, if :meth:`start_memory` started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    def memory_by_package(self) -> Dict[str, int]:
        """Live traced bytes per ``repro`` sub-package (name-sorted).

        Covers allocations made since tracing began that are still
        reachable at snapshot time — started just before a steady-state
        window, it isolates the per-subsystem resident growth of that
        window.  Empty when tracing is off.
        """
        if not tracemalloc.is_tracing():
            return {}
        snapshot = tracemalloc.take_snapshot()
        totals: Dict[str, int] = {}
        for stat in snapshot.statistics("filename"):
            package = _package_of_path(stat.traceback[0].filename)
            totals[package] = totals.get(package, 0) + stat.size
        return dict(sorted(totals.items()))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def packages(self) -> Dict[str, Dict[str, Any]]:
        """Run-wide per-package event attribution (name-sorted)."""
        return {
            package: {"events": self._package_events[package],
                      "wall_s": self._package_wall[package]}
            for package in sorted(self._package_events)
        }

    def report(self) -> Dict[str, Any]:
        """The JSON-safe attribution payload.

        ``phases`` keeps phase-sequence order; package maps are
        name-sorted.  Wall-clock and byte values vary per machine —
        the payload is informational and must never enter a cache key
        or a regression gate.
        """
        return {
            "packages": self.packages(),
            "phases": {
                name: {
                    "calls": record["calls"],
                    "total_s": record["total_s"],
                    "self_s": record["self_s"],
                    "packages": {
                        package: dict(entry)
                        for package, entry in sorted(
                            record["packages"].items())
                    },
                }
                for name, record in self._phases.items()
            },
        }
