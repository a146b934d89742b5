"""The machine-readable conformance spec of the cross-module rules.

This module is pure data: the declarative statement of what the
implementation is *allowed* to do, checked by the rules
(:mod:`tests.lint.rules`).

The protocol's **state machine** — for each message, the types its
handler may emit — is *not* here: it is ``TABLE`` in
:mod:`repro.core.messages`, the one table dispatch, the docs and the
``state-machine`` rule all derive from.  The rule reads its rows from
that module's parsed source (:data:`MESSAGES_MODULE`,
:data:`MESSAGES_TABLE`); the rules import nothing from the program.

Two families of facts live here:

* **Observability** (:data:`EVENT_EMITTERS`, :data:`TERMINAL_PATHS`) —
  which module may construct each of the 18 typed obs events, and
  which *terminal* events each protocol terminal path must emit.

* **Determinism** (:data:`STREAM_OWNERS`, :data:`GENERATOR_FLOWS`,
  :data:`CACHE_KEY_SINKS`) plus the :data:`LAYERS` DAG.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Module anchors used by the rules to resolve references.
MESSAGES_MODULE = "repro.core.messages"
#: The transition table in that module: a dict literal whose keys are
#: message constants and whose values are tuples of them.
MESSAGES_TABLE = "TABLE"
EVENTS_MODULE = "repro.obs.events"
COUNTERS_MODULE = "repro.perf.counters"
RNG_MODULE = "repro.sim.rng"

#: ``self.<helper>(dst, m.TYPE, ...)`` calls that perform a send; the
#: second argument is the message type.  ``Message(mtype=...)``
#: constructions (broadcast floods) are detected structurally.
SEND_HELPERS: FrozenSet[str] = frozenset({"_send", "_send_with_retry"})

#: Packages whose ``_handle_*`` methods the state-machine rule governs.
STATE_MACHINE_PACKAGES: FrozenSet[str] = frozenset(
    {"repro.core", "repro.quorum"})


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

#: The set of event classes that end an allocation span, in the events
#: module: ``TERMINAL_ETYPES = frozenset({X.etype, ...})``, each element
#: naming class ``X``.  The obs-coverage rule reads it from that module's
#: parsed source, as the state-machine rule reads :data:`MESSAGES_TABLE`.
TERMINAL_SET = "TERMINAL_ETYPES"

#: For each terminal code path, the terminal events its closure must
#: emit — exactly these, no more, no fewer.  Closures legitimately
#: reach more than one terminal when a path has a failure fallback
#: (commit aborts when the owner is unreachable; a vote timeout aborts
#: the attempt it times out).
TERMINAL_PATHS: Dict[str, FrozenSet[str]] = {
    "repro.core.protocol.QuorumProtocolAgent._commit":
        _fs("ConfigCommitted", "ConfigAborted"),
    "repro.core.protocol.QuorumProtocolAgent._abort_attempt":
        _fs("ConfigAborted"),
    "repro.core.protocol.QuorumProtocolAgent._on_retry_timeout":
        _fs("ConfigTimeout", "ConfigCompleted"),
    "repro.core.protocol.QuorumProtocolAgent._on_vote_timeout":
        _fs("VoteTimeout", "ConfigAborted"),
    "repro.core.protocol.QuorumProtocolAgent._handle_com_cfg":
        _fs("ConfigCompleted"),
    "repro.core.protocol.QuorumProtocolAgent._handle_ch_cfg":
        _fs("ConfigCompleted"),
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
