"""Message vocabulary and transition table of the quorum-based protocol.

Names are taken from the paper's Sections IV-V and Table 1.  Each
constant is a message type string carried in
:class:`repro.net.message.Message.mtype`.

:data:`TABLE` is the protocol's one transition table: per received
message type, the types its handler may send (transitively, through
every helper its closure reaches).  Everything else derives from it:
:data:`ALL_TYPES`; agent dispatch (``QuorumProtocolAgent`` cannot be
created unless its ``_handle_*`` methods and the rows match one-to-one,
see :class:`repro.net.agent.Agent`); the ``state-machine``
lint rule, which reads the rows from this module's parsed source, so
keep them plain tuples of this module's constants; and the block in
docs/PROTOCOL.md, which is :func:`render_table` printed.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

TABLE: Dict[str, Tuple[str, ...]] = {
    # --- bootstrap / first node ------------------------------------------
    INIT_REQ: (INIT_DEFER,),
    INIT_DEFER: (),
    # --- the paper's allocation transaction ------------------------------
    # A COM_REQ may be relayed to a better-stocked allocator (COM_REQ),
    # answered with a vote round (QUORUM_CLT) or refused (COM_NACK); the
    # commit path it reaches emits QUORUM_UPD + COM_CFG/CH_CFG, and the
    # head's housekeeping on commit can fan out REPLICA_DIST, MERGE_JOIN
    # (merge grace) and REC_AUDIT (self-audit) floods.
    COM_REQ: (COM_REQ, COM_NACK, COM_CFG, CH_CFG, CH_NACK,
              QUORUM_CLT, QUORUM_UPD, REPLICA_DIST,
              MERGE_JOIN, REC_AUDIT),
    QUORUM_CLT: (QUORUM_CFM, MERGE_JOIN),
    QUORUM_CFM: (QUORUM_CLT, QUORUM_UPD, COM_CFG, COM_NACK,
                 CH_CFG, CH_NACK, REPLICA_DIST),
    QUORUM_UPD: (),
    COM_CFG: (COM_ACK, COM_DECLINE),
    COM_ACK: (),
    COM_DECLINE: (QUORUM_UPD, REPLICA_DIST),
    COM_NACK: (),
    # --- cluster-head election (CH_*) ------------------------------------
    CH_REQ: (CH_PRP, CH_NACK, COM_NACK),
    CH_PRP: (CH_CNF, CH_DECLINE),
    CH_CNF: (CH_CFG, CH_NACK, COM_CFG, COM_NACK,
             QUORUM_CLT, QUORUM_UPD, REPLICA_DIST),
    CH_CFG: (CH_ACK, CH_DECLINE, REPLICA_DIST),
    CH_ACK: (),
    CH_DECLINE: (QUORUM_UPD, REPLICA_DIST),
    CH_NACK: (),
    # --- graceful departure / address return -----------------------------
    RETURN_ADDR: (RETURN_ACK, RETURN_FWD, QUORUM_UPD),
    RETURN_ACK: (),
    RETURN_FWD: (QUORUM_UPD,),
    CH_RETURN: (CH_RETURN_ACK, ALLOC_CHANGE, REPLICA_DIST),
    CH_RETURN_ACK: (),
    RESIGN: (),
    ALLOC_CHANGE: (),
    # --- reclamation of departed addresses (REC_*) ------------------------
    ADDR_REC: (REC_REP, REC_HOLDER),
    REC_REP: (REC_FWD,),
    REC_HOLDER: (),
    REC_FWD: (),
    REC_DELEGATE: (REC_DELEGATE, REC_SYNC),
    REC_SYNC: (REC_SYNC_ACK,),
    REC_SYNC_ACK: (),
    REC_AUDIT: (REC_CLAIMED,),
    REC_CLAIMED: (),
    # --- quorum-set replica maintenance ----------------------------------
    REPLICA_DIST: (REPLICA_ACK, MERGE_JOIN),
    REPLICA_ACK: (),
    REP_REQ: (REP_ACK,),
    REP_ACK: (),
    # --- partition merge / location --------------------------------------
    MERGE_JOIN: (MERGE_JOIN, RESIGN, CH_RETURN, RETURN_ADDR),
    UPDATE_LOC: (),
}

ALL_TYPES = tuple(TABLE)


def render_table() -> str:
    """The markdown rows docs/PROTOCOL.md carries between its
    ``state-machine-table`` markers (``tests/lint/test_spec_drift.py``
    compares the two)."""
    lines = ["| received message | handler may send (transitive closure) |",
             "|---|---|"]
    for mtype, may_send in TABLE.items():
        cell = ", ".join(f"`{name}`" for name in sorted(may_send)) or "—"
        lines.append(f"| `{mtype}` | {cell} |")
    return "\n".join(lines)
