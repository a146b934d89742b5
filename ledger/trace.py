"""External tracer: spans around the program's public entry points.

This ledger may not edit the program, so every layer is measured from
outside.  :class:`Tracer` replaces, at run time and never on disk, the
public methods listed in :data:`SHIMS` with timing shims, and becomes
the engine's profile hook so that every fired event is one span keyed
by the package that owns its callback.  A span is ``(id, layer, name,
start, end, parent, trace)``; the spans of one fired event or one
driver call share a trace id.  A layer's *self time* is its spans'
duration minus the part their child spans cover, so the self times
under a root span add up to that span exactly.

Spans are kept in memory.  Self times and call counts are accumulated
for every span; the raw records are kept for the first
:data:`SPAN_CAP` only (a join pass opens several million), and written
out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers, named after the program's modules.  ``driver`` holds the
#: self time of the ledger's own root spans: driver code plus program
#: code reached without passing a shim (constructors, ``Node.kill``).
LAYERS = (
    "sim", "net.topology", "net.transport", "net.context", "core",
    "quorum", "addrspace", "faults", "experiments", "obs", "driver",
)

#: Raw span records kept per run.
SPAN_CAP = 50_000

#: Package of a fired event's callback -> layer.  ``repro.net`` event
#: callbacks are transport deliveries (the handler they invoke opens
#: its own ``core`` span through the ``on_message`` shim).  A callback
#: outside the program is the driver's no-op in ``engine_churn``: what
#: its span times is timer and heap plumbing, so it counts as ``sim``.
EVENT_LAYER = {
    "repro.sim": "sim",
    "repro.net": "net.transport",
    "repro.core": "core",
    "repro.quorum": "quorum",
    "repro.addrspace": "addrspace",
    "repro.faults": "faults",
    "repro.experiments": "experiments",
    "repro.obs": "obs",
}

#: ``(module, class, methods, layer)``: the public entry points shimmed.
#: Hot trivial accessors (``Topology.get``, ``NetworkContext.agent_of``)
#: are left alone: a shim would cost more than the call, and their time
#: stays in the caller's self time.
SHIMS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Simulator",
     ("run", "schedule_at", "cancel", "compact"), "sim"),
    ("repro.sim.timers", "Timer", ("start", "stop"), "sim"),
    ("repro.sim.timers", "PeriodicTimer", ("start", "stop"), "sim"),
    ("repro.net.topology", "Topology",
     ("add_node", "add_nodes", "remove_node", "invalidate",
      "invalidate_nodes", "neighbors", "within_hops", "reachable", "hops",
      "warm_bfs", "eccentricity_from", "components", "same_partition",
      "component_id", "same_component", "component_size",
      "component_members", "component_count", "edge_count"),
     "net.topology"),
    ("repro.net.transport", "Transport", ("send",), "net.transport"),
    ("repro.net.hello", "HelloService",
     ("heads_within", "nearest_head"), "net.context"),
    ("repro.net.context", "NetworkContext",
     ("is_head", "is_configured", "component_heads",
      "component_head_networks", "component_networks"), "net.context"),
    ("repro.core.protocol", "QuorumProtocolAgent",
     ("on_enter", "on_message", "depart_gracefully", "vanish"), "core"),
    ("repro.quorum.voting", "VoteCollector",
     ("__init__", "add_vote", "decide"), "quorum"),
    ("repro.quorum.replica", "ReplicaStore",
     ("install", "drop", "find_covering"), "quorum"),
    ("repro.addrspace.pool", "AddressPool",
     ("allocate", "allocate_many", "release"), "addrspace"),
    ("repro.faults.model", "FaultModel",
     ("link_blocked", "unicast_loss_hop", "drops_delivery",
      "delivery_delay"), "faults"),
    # ``_collect`` is private, but the issue asks for its share by name.
    ("repro.experiments.runner", "ScenarioRunner",
     ("run", "_collect"), "experiments"),
)

#: What some shimmed calls' return values add to :attr:`Tracer.tallies`.
_RESULT_TALLIES: Dict[Tuple[str, str], Tuple[str, Callable[[Any], int]]] = {
    ("AddressPool", "allocate"):
        ("addrspace.allocations", lambda out: out is not None),
    ("AddressPool", "allocate_many"): ("addrspace.allocations", len),
    ("AddressPool", "release"): ("addrspace.releases", bool),
    ("VoteCollector", "decide"):
        ("quorum.decided", lambda out: out is not None),
}

# Slots of the tracer's mutable state list (a list indexes faster than
# attributes do, and the shims run millions of times).
_CHILD, _CUR, _NEXT, _TRACE, _SELF, _CALLS = range(6)

_MISSING = object()


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.names: List[str] = []     # "layer:Class.method" per name index
        self.spans: List[Tuple[int, int, int, float, float, int, int]] = []
        #: Durations of top-level ``core`` work: event spans whose
        #: callback lives in ``repro.core`` and ``on_message`` spans.
        self.core_durations = array("d")
        #: Counts derived from shimmed calls' return values.
        self.tallies: Dict[str, int] = {}
        self._buckets: Dict[str, Tuple[List[float], List[int]]] = {}
        self._state: List[Any] = [0.0, -1, 0, -1, None, None]
        self._name_ids: Dict[str, int] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._package_of: Callable[[Any], str] = lambda callback: ""
        self._event_names: Dict[str, int] = {}
        self.bucket("run")

    # ------------------------------------------------------------------
    # Buckets: self time and calls accumulate per (bucket, span name)
    # ------------------------------------------------------------------
    def bucket(self, name: str) -> None:
        """Accumulate from now on under ``name`` (one per measured step)."""
        entry = self._buckets.get(name)
        if entry is None:
            entry = self._buckets[name] = (
                [0.0] * len(self.names), [0] * len(self.names))
        self._state[_SELF], self._state[_CALLS] = entry

    def _name_index(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        index = self._name_ids.get(key)
        if index is None:
            index = self._name_ids[key] = len(self.names)
            self.names.append(key)
            for selfs, calls in self._buckets.values():
                selfs.append(0.0)
                calls.append(0)
        return index

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def _shim(self, fn: Callable[..., Any], layer: str, name: str,
              on_result: Optional[Callable[[Any], None]] = None,
              durations: Optional[array] = None) -> Callable[..., Any]:
        st = self._state
        spans = self.spans
        li = self.layer_index[layer]
        ni = self._name_index(layer, name)
        now = time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            saved_child = st[_CHILD]
            parent = st[_CUR]
            saved_trace = st[_TRACE]
            sid = st[_NEXT]
            st[_NEXT] = sid + 1
            st[_CUR] = sid
            if parent < 0:
                st[_TRACE] = sid    # a driver call starts its own trace
            st[_CHILD] = 0.0
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                elapsed = end - start
                st[_SELF][ni] += elapsed - st[_CHILD]
                st[_CALLS][ni] += 1
                st[_CHILD] = saved_child + elapsed
                st[_CUR] = parent
                if sid < SPAN_CAP:
                    spans.append(
                        (sid, li, ni, start, end, parent, st[_TRACE]))
                st[_TRACE] = saved_trace
                if durations is not None:
                    durations.append(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return shim

    def _tally(self, key: str,
               amount: Callable[[Any], int]) -> Callable[[Any], None]:
        tallies = self.tallies
        tallies.setdefault(key, 0)

        def on_result(result: Any) -> None:
            tallies[key] += amount(result)

        return on_result

    def install(self) -> "Tracer":
        """Swap every entry of :data:`SHIMS` for its timing shim."""
        from repro.obs.profile import package_of

        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._package_of = package_of
        self._event_names = {
            layer: self._name_index(layer, "event") for layer in LAYERS}
        for module_name, cls_name, methods, layer in SHIMS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in methods:
                original = getattr(cls, attr, None)
                if original is None:
                    continue
                tally = _RESULT_TALLIES.get((cls_name, attr))
                shim = self._shim(
                    original, layer, f"{cls_name}.{attr}",
                    self._tally(*tally) if tally else None,
                    self.core_durations if attr == "on_message" else None)
                if (cls_name, attr) == ("Simulator", "run"):
                    shim = self._hooked_run(shim)
                # A method inherited from a mixin is shadowed on the
                # class itself, and un-shadowed again on uninstall.
                self._restore.append(
                    (cls, attr, cls.__dict__.get(attr, _MISSING)))
                setattr(cls, attr, shim)
        return self

    def _hooked_run(self, run: Callable[..., int]) -> Callable[..., int]:
        """``Simulator.run`` with this tracer as the profile hook for
        the duration of the call (contexts are built inside
        ``ScenarioRunner.run``, out of the driver's reach)."""
        fire = self._fire

        def hooked(sim: Any, *args: Any, **kwargs: Any) -> int:
            sim.set_profile_hook(fire)
            try:
                return run(sim, *args, **kwargs)
            finally:
                sim.set_profile_hook(None)

        return hooked

    def uninstall(self) -> None:
        """Put every original back."""
        for cls, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._restore.clear()

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    # ------------------------------------------------------------------
    # Profile hook: one span, and one trace, per fired event
    # ------------------------------------------------------------------
    def _fire(self, callback: Callable[..., Any],
              args: Tuple[Any, ...]) -> None:
        layer = EVENT_LAYER.get(self._package_of(callback), "sim")
        st = self._state
        ni = self._event_names[layer]
        saved_child = st[_CHILD]
        parent = st[_CUR]
        saved_trace = st[_TRACE]
        sid = st[_NEXT]
        st[_NEXT] = sid + 1
        st[_CUR] = sid
        st[_TRACE] = sid
        st[_CHILD] = 0.0
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            st[_SELF][ni] += elapsed - st[_CHILD]
            st[_CALLS][ni] += 1
            st[_CHILD] = saved_child + elapsed
            st[_CUR] = parent
            if sid < SPAN_CAP:
                self.spans.append((sid, self.layer_index[layer], ni,
                                   start, end, parent, sid))
            st[_TRACE] = saved_trace
            if layer == "core":
                self.core_durations.append(elapsed)

    # ------------------------------------------------------------------
    # Driver-side spans and the stopwatch's slices
    # ------------------------------------------------------------------
    def root(self, fn: Callable[[], Any], name: str) -> Callable[[], Any]:
        """``fn`` wrapped in a ``driver`` root span."""
        return self._shim(fn, "driver", name)

    def exclude(self, elapsed: float) -> None:
        """Keep ``elapsed`` seconds spent outside the program (one
        stopwatch slice) out of the open span's self time."""
        self._state[_CHILD] += elapsed

    # ------------------------------------------------------------------
    # Reading the results
    # ------------------------------------------------------------------
    @property
    def spans_opened(self) -> int:
        return int(self._state[_NEXT])

    def totals(self) -> Dict[str, Dict[str, Tuple[float, int]]]:
        """``{bucket: {span name: (self seconds, calls)}}``, called
        names only."""
        return {
            bucket: {name: (selfs[i], calls[i])
                     for i, name in enumerate(self.names) if calls[i]}
            for bucket, (selfs, calls) in self._buckets.items()}

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write aggregates and the kept raw spans as one JSON file."""
        payload = dict(header)
        payload.update({
            "buckets": {
                bucket: {name: {"self_s": self_s, "calls": calls}
                         for name, (self_s, calls) in names.items()}
                for bucket, names in self.totals().items()},
            "tallies": self.tallies,
            "spans_opened": self.spans_opened,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "layer", "name", "start", "end",
                            "parent", "trace"],
            "layer_names": list(LAYERS),
            "span_names": self.names,
            "spans": self.spans,
        })
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink)
            sink.write("\n")


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[int, float]:
    """Self time per span id from raw records (``dump``'s ``spans``).

    A child whose record fell past :data:`SPAN_CAP` is simply not
    subtracted, so the self times of a trace sum to at most its root.
    """
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        parent = span[5]
        if parent in own:
            own[parent] -= span[4] - span[3]
    return own
