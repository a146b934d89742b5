"""The machine-readable conformance spec of the cross-module rules.

This module is pure data: the declarative statement of what the
implementation is *allowed* to do, checked by the rules
(:mod:`tests.lint.rules`).

The protocol's **input table** — for each message and each other input
of the agent, what its closure may send, what the message's sender
awaits and which spans the input ends — is *not* here: it is ``TABLE``
in :mod:`repro.core.messages`, the one table dispatch, the docs and the
``state-machine`` rule all derive from.  The rule reads its rows from
that module's parsed source (:data:`MESSAGES_MODULE`,
:data:`MESSAGES_TABLE`); the rules import nothing from the program.

Three families of facts live here:

* **Observability** (:data:`EVENT_EMITTERS`) — which module may
  construct each of the 18 typed obs events.

* **Awaited replies** (:data:`UNAWAITED_SENDS`) — the sends of an
  awaited request that arm nothing, each with its reason.

* **Determinism** (:data:`STREAM_OWNERS`, :data:`GENERATOR_FLOWS`,
  :data:`CACHE_KEY_SINKS`) plus the :data:`LAYERS` DAG.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Module anchors used by the rules to resolve references.
MESSAGES_MODULE = "repro.core.messages"
#: The input table in that module: a dict literal whose keys are
#: message constants or method names and whose values are ``Row(...)``s.
MESSAGES_TABLE = "TABLE"
EVENTS_MODULE = "repro.obs.events"
COUNTERS_MODULE = "repro.perf.counters"
RNG_MODULE = "repro.sim.rng"

#: ``self.<helper>(dst, m.TYPE, ...)`` calls that perform a send; the
#: second argument is the message type.  ``Message(mtype=...)``
#: constructions (broadcast floods) are detected structurally.
SEND_HELPERS: FrozenSet[str] = frozenset({"_send", "_send_with_retry"})

#: Packages whose agents' inputs the state-machine rule governs.
STATE_MACHINE_PACKAGES: FrozenSet[str] = frozenset(
    {"repro.core", "repro.quorum"})

#: ``(method, message)``: a request with an ``awaited`` kind that this
#: method sends without arming it, because the sender keeps no state
#: the reply would settle.
UNAWAITED_SENDS: Dict[Tuple[str, str], str] = {
    ("_relay_or_nack", "COM_REQ"):
        "a dry head relays the request; the requester's retry closes it",
    ("_return_resources_for_rejoin", "RETURN_ADDR"):
        "a rejoining node returns its address and leaves either way",
}


def _fs(*names: str) -> FrozenSet[str]:
    return frozenset(names)


# ---------------------------------------------------------------------------
# Observability: who may construct each of the 18 typed obs events.
# repro.obs.events itself (``from_record`` deserialization) is implicitly
# exempt — the rule skips the defining module.
# ---------------------------------------------------------------------------
EVENT_EMITTERS: Dict[str, FrozenSet[str]] = {
    "MessageSend": _fs("repro.net.transport"),
    "AttemptStarted": _fs("repro.core.protocol"),
    "ConfigRequested": _fs("repro.core.protocol"),
    "VoteStarted": _fs("repro.core.protocol"),
    "VoteReceived": _fs("repro.core.protocol"),
    "VoteDecided": _fs("repro.core.protocol"),
    "VoteTimeout": _fs("repro.core.protocol"),
    "WriteBack": _fs("repro.core.protocol"),
    "ConfigCommitted": _fs("repro.core.protocol"),
    "ConfigAborted": _fs("repro.core.protocol"),
    "ConfigCompleted": _fs("repro.core.protocol"),
    "ConfigTimeout": _fs("repro.core.protocol"),
    "RoleAssigned": _fs("repro.core.protocol"),
    "AddressBorrowed": _fs("repro.core.protocol"),
    "HeadHandoff": _fs("repro.core.departure"),
    "QDSetChanged": _fs("repro.core.adjustment"),
    "ReclamationEvent": _fs("repro.core.reclamation"),
    "PartitionEvent": _fs("repro.core.partition"),
}

# ---------------------------------------------------------------------------
# Determinism: named RNG stream ownership and legal generator flows.
# ---------------------------------------------------------------------------

#: Stream-name prefix -> the package that owns (creates and consumes)
#: streams under that prefix.  Longest prefix wins.
STREAM_OWNERS: Dict[str, str] = {
    "faults.": "repro.faults",
    "dad-": "repro.baselines",
    "scenario": "repro.experiments",
    "placement": "repro.experiments",
    "mobility-": "repro.experiments",
}

#: (consumer package, owner package) pairs allowed to pull another
#: subsystem's named streams directly.  Empty by design: share the
#: *seed*, fork a child stream at the boundary instead.
STREAM_SHARING: FrozenSet[Tuple[str, str]] = frozenset()

#: (source package, destination package) pairs where passing a live
#: generator object across the boundary is part of the architecture:
#: the scenario layer drives mobility models with per-node streams.
GENERATOR_FLOWS: FrozenSet[Tuple[str, str]] = frozenset({
    ("repro.experiments", "repro.mobility"),
})

#: Call targets a generator must never reach: cache keys and canonical
#: serializations must be functions of seeds, not of generator state.
CACHE_KEY_SINKS: FrozenSet[str] = frozenset({
    "hashlib.sha256", "hashlib.sha1", "hashlib.md5", "hashlib.blake2b",
    "json.dumps",
})


# ---------------------------------------------------------------------------
# Layering: the enforced dependency DAG.  A module may import modules in
# its own layer or below, never above.  Longest matching prefix wins.
# ---------------------------------------------------------------------------
LAYERS: Dict[str, int] = {
    # 0 — foundation: pure data structures, clocks, no repro deps
    "repro.geometry": 0,
    "repro.sim": 0,
    "repro.addrspace": 0,
    "repro.cluster": 0,
    # 1 — instruments: mobility models, perf recorder + counter registry
    "repro.mobility": 1,
    "repro.perf": 1,
    # 2 — substrate: network, faults, observability
    "repro.net": 2,
    "repro.obs": 2,
    "repro.faults": 2,
    # 3 — protocol: the paper's state machines
    "repro.core": 3,
    "repro.quorum": 3,
    # 4 — harness: experiments, baselines, CLIs, perf workloads
    "repro.experiments": 4,
    "repro.baselines": 4,
    "repro.cli": 4,
    "repro": 4,
}

LAYER_NAMES: Dict[int, str] = {
    0: "foundation",
    1: "instrument",
    2: "substrate",
    3: "protocol",
    4: "harness",
}
