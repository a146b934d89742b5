"""Subsystem attribution profiler (wall clock by package).

The deterministic perf counters (:mod:`repro.perf`) say how much
algorithmic work happened; this module says *where the time went*.
Installed on a :class:`~repro.sim.engine.Simulator`
(:meth:`SubsystemProfiler.install`), the profiler becomes the engine's
profile hook: it invokes every fired event callback itself, timing it
and charging the call's self time to the subsystem that owns the
callback (``repro.net``, ``repro.core``, ``repro.sim``,
``repro.quorum``, ...).  Timer-wrapped callbacks are unwrapped
(:func:`package_of` looks through ``Timer``/``PeriodicTimer``
``_fire`` and ``functools.partial``) so a HELLO beacon is charged to
``repro.net``, not to the timer plumbing.  Periodic timers that share
a heap entry still arrive one callback at a time, nested inside the
``repro.sim`` call for the entry.

Per-phase and per-layer attribution of a whole workload is the perf
ledger's job (``ledger/trace.py`` keys its spans with
:func:`package_of`; ``obs.profiler_overhead_ratio`` there is this
hook's price tag), and per-run memory is its ``peak_rss_mb``.

Everything here is wall-clock and machine-dependent by design, which is
why it lives outside the determinism boundary: profiler output is never
part of a cache key, a result hash, or a regression gate.  The lint
suite sanctions the wall-clock reads in this one observability module
(see ``_WALLCLOCK_ALLOWED`` in :mod:`repro.lint.rules`).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional, Tuple

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


class SubsystemProfiler:
    """Attributes event wall clock to ``repro`` subsystems.

    Example::

        profiler = SubsystemProfiler().install(sim)
        sim.run(until=30.0)
        profiler.uninstall()
        # profiler.packages()["repro.net"]["wall_s"]

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
        self._sim: Optional[Any] = None

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
    # Reporting
    # ------------------------------------------------------------------
    def packages(self) -> Dict[str, Dict[str, Any]]:
        """Run-wide per-package event attribution (name-sorted)."""
        return {
            package: {"events": self._package_events[package],
                      "wall_s": self._package_wall[package]}
            for package in sorted(self._package_events)
        }
