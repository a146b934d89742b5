"""Message vocabulary and input table of the quorum-based protocol.

Names are taken from the paper's Sections IV-V and Table 1.  Each
constant is a message type string carried in
:class:`repro.net.message.Message.mtype`.

:data:`TABLE` is the protocol's one input table: a received message
type or, keyed by its method name, another way into the agent (the
surface the runner drives, a poll, an awaited reply's expiry), and its
:class:`Row`.  At run time only the keys are read: :data:`ALL_TYPES` is
the message rows, and ``QuorumProtocolAgent`` cannot be created unless
its ``_handle_*`` methods and those rows match one-to-one (see
:class:`repro.net.agent.Agent`).  The ``state-machine`` lint rule reads
every row from this module's parsed source, so keep each a ``Row(...)``
of keywords over this module's constants and :mod:`repro.obs.events`
classes; the block in docs/PROTOCOL.md is :func:`render_table` printed.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.obs import events as ev

# --- Network initialization (Section IV-B) ---------------------------------
INIT_REQ = "INIT_REQ"            # first-node broadcast looking for any network
INIT_DEFER = "INIT_DEFER"        # earlier-entered unconfigured node: back off

# --- Common-node configuration (Fig. 2) ------------------------------------
COM_REQ = "COM_REQ"              # requestor -> allocator: want one address
COM_CFG = "COM_CFG"              # allocator -> requestor: here is your address
COM_ACK = "COM_ACK"              # requestor -> allocator: configured
COM_NACK = "COM_NACK"            # allocator -> requestor: cannot configure
COM_DECLINE = "COM_DECLINE"      # requestor -> allocator: already configured

# --- Cluster-head configuration (Table 1 / Fig. 3) -------------------------
CH_REQ = "CH_REQ"                # requestor -> nearest head: want a block
CH_PRP = "CH_PRP"                # allocator -> requestor: proposed block
CH_CNF = "CH_CNF"                # requestor -> allocator: accept proposal
CH_CFG = "CH_CFG"                # allocator -> requestor: block granted
CH_ACK = "CH_ACK"                # requestor -> allocator: head configured
CH_NACK = "CH_NACK"              # allocator -> requestor: cannot grant
CH_DECLINE = "CH_DECLINE"        # requestor -> allocator: already configured

# --- Quorum voting (Sections II-C, IV-B) ------------------------------------
QUORUM_CLT = "QUORUM_CLT"        # allocator -> QDSet: vote on address/block
QUORUM_CFM = "QUORUM_CFM"        # QDSet member -> allocator: vote
QUORUM_UPD = "QUORUM_UPD"        # allocator -> QDSet: commit the update

# --- Replica distribution / QDSet maintenance -------------------------------
REPLICA_DIST = "REPLICA_DIST"    # new head -> QDSet: install my replica
REPLICA_ACK = "REPLICA_ACK"      # member -> new head: here is mine in return

# --- Location update and departure (Section IV-C) ---------------------------
UPDATE_LOC = "UPDATE_LOC"        # common node -> nearest head: (configurer, IP)
RETURN_ADDR = "RETURN_ADDR"      # departing node -> nearest head
RETURN_ACK = "RETURN_ACK"        # head -> departing node: safe to leave
RETURN_FWD = "RETURN_FWD"        # head -> allocator/QDSet member: routed return
CH_RETURN = "CH_RETURN"          # departing head -> configurer/S: my IP block
CH_RETURN_ACK = "CH_RETURN_ACK"  # receiver -> departing head
RESIGN = "RESIGN"                # departing head -> QDSet: remove me
ALLOC_CHANGE = "ALLOC_CHANGE"    # new owner -> configured nodes: allocator moved

# --- Address reclamation (Section IV-D) -------------------------------------
ADDR_REC = "ADDR_REC"            # detector: scoped broadcast naming dead head
REC_REP = "REC_REP"              # surviving member -> closest head: I exist
REC_FWD = "REC_FWD"              # head -> replica holder: forwarded REC_REP
REC_HOLDER = "REC_HOLDER"        # replica holder -> initiator: I hold a copy
REC_DELEGATE = "REC_DELEGATE"    # initiator -> lowest-id holder: you absorb
REC_AUDIT = "REC_AUDIT"          # dry allocator: who holds my addresses?
REC_CLAIMED = "REC_CLAIMED"      # holder -> auditing allocator: I hold X
REC_SYNC = "REC_SYNC"            # absorber -> holders: send your replica
REC_SYNC_ACK = "REC_SYNC_ACK"    # holder -> absorber: replica snapshot

# --- Quorum adjustment (Section V-B) ----------------------------------------
REP_REQ = "REP_REQ"              # head -> suspected member: are you alive?
REP_ACK = "REP_ACK"              # member -> head: alive

# --- Partition and merge (Section V-C) --------------------------------------
MERGE_JOIN = "MERGE_JOIN"        # node from larger-ID network rejoining


class Row(NamedTuple):
    """One input: the message types its closure may send; for a request
    whose sender keeps state until the reply comes, the kind of awaited
    reply that sender arms (``Agent._await``); and the terminal obs
    events (``TERMINAL_ETYPES``) the closure emits."""

    sends: Tuple[str, ...] = ()
    awaited: Optional[str] = None
    ends: Tuple[type, ...] = ()


TABLE: Dict[str, Row] = {
    # --- bootstrap / first node ------------------------------------------
    INIT_REQ: Row(sends=(INIT_DEFER,), awaited="retry"),    # T_e, Max_r
    INIT_DEFER: Row(),
    # --- the paper's allocation transaction ------------------------------
    # A COM_REQ may be relayed to a better-stocked allocator (COM_REQ),
    # answered with a vote round (QUORUM_CLT) or refused (COM_NACK); the
    # commit path it reaches emits QUORUM_UPD + COM_CFG/CH_CFG, and the
    # head's housekeeping on commit can fan out REPLICA_DIST, MERGE_JOIN
    # (merge grace) and REC_AUDIT (self-audit) floods.
    COM_REQ: Row(sends=(COM_REQ, COM_NACK, COM_CFG, CH_CFG, CH_NACK,
                        QUORUM_CLT, QUORUM_UPD, REPLICA_DIST,
                        MERGE_JOIN, REC_AUDIT),
                 awaited="retry",
                 ends=(ev.ConfigCommitted, ev.ConfigAborted)),
    QUORUM_CLT: Row(sends=(QUORUM_CFM, MERGE_JOIN), awaited="vote"),
    QUORUM_CFM: Row(sends=(QUORUM_CLT, QUORUM_UPD, COM_CFG, COM_NACK,
                           CH_CFG, CH_NACK, REPLICA_DIST),
                    ends=(ev.ConfigCommitted, ev.ConfigAborted)),
    QUORUM_UPD: Row(),
    # A lost grant is rolled back.
    COM_CFG: Row(sends=(COM_ACK, COM_DECLINE), awaited="grant",
                 ends=(ev.ConfigCompleted,)),
    COM_ACK: Row(),
    COM_DECLINE: Row(sends=(QUORUM_UPD, REPLICA_DIST)),
    COM_NACK: Row(),
    # --- cluster-head election (CH_*) ------------------------------------
    CH_REQ: Row(sends=(CH_PRP, CH_NACK, COM_NACK), awaited="retry",
                ends=(ev.ConfigAborted,)),
    # The proposer awaits the CH_CNF, then the votes.
    CH_PRP: Row(sends=(CH_CNF, CH_DECLINE), awaited="vote"),
    CH_CNF: Row(sends=(CH_CFG, CH_NACK, COM_CFG, COM_NACK,
                       QUORUM_CLT, QUORUM_UPD, REPLICA_DIST),
                ends=(ev.ConfigCommitted, ev.ConfigAborted)),
    CH_CFG: Row(sends=(CH_ACK, CH_DECLINE, REPLICA_DIST), awaited="grant",
                ends=(ev.ConfigCompleted,)),
    CH_ACK: Row(),
    CH_DECLINE: Row(sends=(QUORUM_UPD, REPLICA_DIST)),
    CH_NACK: Row(),
    # --- graceful departure / address return -----------------------------
    RETURN_ADDR: Row(sends=(RETURN_ACK, RETURN_FWD, QUORUM_UPD),
                     awaited="leave"),
    RETURN_ACK: Row(),
    RETURN_FWD: Row(sends=(QUORUM_UPD,)),
    CH_RETURN: Row(sends=(CH_RETURN_ACK, ALLOC_CHANGE, REPLICA_DIST),
                   awaited="handoff"),
    # The hand-off's sender resigns once the space is known to be safe.
    CH_RETURN_ACK: Row(sends=(RESIGN,)),
    RESIGN: Row(),
    ALLOC_CHANGE: Row(),
    # --- reclamation of departed addresses (REC_*) ------------------------
    ADDR_REC: Row(sends=(REC_REP, REC_HOLDER), awaited="reclaim"),
    REC_REP: Row(sends=(REC_FWD,)),
    REC_HOLDER: Row(),
    REC_FWD: Row(),
    REC_DELEGATE: Row(sends=(REC_DELEGATE, REC_SYNC)),
    REC_SYNC: Row(sends=(REC_SYNC_ACK,), awaited="reclaim"),
    REC_SYNC_ACK: Row(),
    REC_AUDIT: Row(sends=(REC_CLAIMED,), awaited="self_audit"),
    REC_CLAIMED: Row(),
    # --- quorum-set replica maintenance ----------------------------------
    REPLICA_DIST: Row(sends=(REPLICA_ACK, MERGE_JOIN)),
    REPLICA_ACK: Row(),
    REP_REQ: Row(sends=(REP_ACK,), awaited="tr"),
    REP_ACK: Row(),
    # --- partition merge / location --------------------------------------
    # A rejoining head closes its open proposals (no NACK is sent, but
    # the abort path can) and hands its space over; it resigns on the
    # CH_RETURN_ACK.
    MERGE_JOIN: Row(sends=(MERGE_JOIN, CH_RETURN, RETURN_ADDR, CH_NACK,
                           COM_NACK),
                    ends=(ev.ConfigAborted,)),
    UPDATE_LOC: Row(),
    # --- the agent's other inputs, keyed by method name ------------------
    # The surface the runner drives, and the attempt loop it starts.
    "on_enter": Row(sends=(INIT_REQ, COM_REQ, CH_REQ),
                    ends=(ev.ConfigCompleted,)),
    "_begin_attempt": Row(sends=(INIT_REQ, COM_REQ, CH_REQ),
                          ends=(ev.ConfigCompleted,)),
    # A message from another partition starts the merge (Section V-C).
    "on_message": Row(sends=(MERGE_JOIN, CH_RETURN, RETURN_ADDR, CH_NACK,
                             COM_NACK),
                      ends=(ev.ConfigAborted,)),
    "depart_gracefully": Row(sends=(RETURN_ADDR, CH_RETURN, CH_NACK,
                                    COM_NACK),
                             ends=(ev.ConfigAborted,)),
    "initiate_reclamation": Row(sends=(ADDR_REC,)),
    # The three polls.
    "_merge_scan": Row(sends=(MERGE_JOIN, CH_RETURN, RETURN_ADDR, CH_NACK,
                              COM_NACK),
                       ends=(ev.ConfigAborted,)),
    "_audit": Row(sends=(MERGE_JOIN, REPLICA_DIST)),
    "_check_location": Row(sends=(UPDATE_LOC,)),
    # Expiries of awaited replies: the one place a lost reply is handled.
    "_on_retry_timeout": Row(sends=(INIT_REQ, COM_REQ, CH_REQ),
                             ends=(ev.ConfigTimeout, ev.ConfigCompleted)),
    "_on_vote_timeout": Row(sends=(COM_NACK, CH_NACK),
                            ends=(ev.VoteTimeout, ev.ConfigAborted)),
    "_grant_cleanup": Row(sends=(QUORUM_UPD, REPLICA_DIST)),
    "_on_handoff_timeout": Row(sends=(CH_RETURN,)),
    "_conclude_self_audit": Row(sends=(QUORUM_UPD,)),
    "_conclude_reclamation": Row(sends=(REC_DELEGATE, REC_SYNC)),
    "_absorb_dead_head": Row(sends=(REPLICA_DIST,)),
    "_on_td_expire": Row(sends=(REP_REQ,)),
    "_on_tr_expire": Row(sends=(ADDR_REC,)),
}

#: The message rows: a method name is lower case, a message type is not.
ALL_TYPES = tuple(key for key in TABLE if key.isupper())


def render_table() -> str:
    """The markdown rows docs/PROTOCOL.md carries between its
    ``state-machine-table`` markers (``tests/lint/test_spec_drift.py``
    compares the two): one per row of :data:`TABLE`."""
    lines = ["| input | may send (transitive closure) | sender awaits "
             "| ends |", "|---|---|---|---|"]
    for key, row in TABLE.items():
        cells = [sorted(row.sends), [row.awaited] if row.awaited else [],
                 sorted(event.__name__ for event in row.ends)]
        lines.append(f"| `{key}` | " + " | ".join(
            ", ".join(f"`{name}`" for name in cell) or "—"
            for cell in cells) + " |")
    return "\n".join(lines)
