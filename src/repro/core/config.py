"""Protocol parameters.

Names follow the paper where it names them: ``T_e`` and ``Max_r`` for
network initialization (Section IV-B), ``T_d`` and ``T_r`` for quorum
adjustment (Section V-B).  The rest are simulation/engineering knobs the
paper leaves implicit.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class ProtocolConfig:
    """Tunables of the quorum-based protocol.

    Attributes:
        address_space_bits: the network's address space is
            ``2**address_space_bits`` addresses; the first cluster head
            obtains all of it.
        te: first-node retry period ``T_e`` (seconds).
        max_r: first-node rebroadcast limit ``Max_r``.
        td: quorum-adjustment timer ``T_d`` — how long a QDSet member may
            stay unresponsive before being excluded from the quorum set.
        tr: existence-probe timer ``T_r`` — how long to wait for a
            REP_ACK before initiating address reclamation for the member.
        config_timeout: per-attempt timeout for a configuration exchange
            before the requester retries.
        location_update_mode: ``"periodic"`` (UPDATE_LOC whenever more
            than three hops from configurer/administrator) or
            ``"upon_leave"`` (only a RETURN_ADDR broadcast at departure)
            — the two variants contrasted in Fig. 10.
        audit_interval: how often a cluster head audits QDSet liveness
            (hello-derived; the audit itself sends no messages).
        use_linear_voting: enable dynamic linear voting (Section II-D).
        borrowing_enabled: enable address borrowing from QuorumSpace
            (Section V-A).
        adjustment_enabled: enable quorum adjustment (Section V-B).
        balance_allocators: pick the in-range allocator with the largest
            available IP block instead of the nearest (the "alternative
            to enable even distribution", Section IV-B).
        reclamation_window: how long the reclaimer collects REC_REP
            before absorbing unclaimed addresses.
        merge_check_interval: how often configured nodes scan hellos for
            foreign network IDs (partition/merge detection).
        merge_detection_enabled: run the periodic merge scan.  Always
            safe to leave on; experiments that cannot partition disable
            it to avoid paying the scan's bookkeeping cost.
    """

    address_space_bits: int = 10
    te: float = 1.0
    max_r: int = 3
    td: float = 4.0
    tr: float = 3.0
    config_timeout: float = 2.0
    location_update_mode: str = "periodic"
    audit_interval: float = 2.0
    use_linear_voting: bool = True
    borrowing_enabled: bool = True
    adjustment_enabled: bool = True
    balance_allocators: bool = False
    reclamation_window: float = 5.0
    merge_check_interval: float = 2.0
    merge_detection_enabled: bool = True

    def __post_init__(self) -> None:
        if self.address_space_bits < 1 or self.address_space_bits > 24:
            raise ValueError("address_space_bits must be in [1, 24]")
        if self.location_update_mode not in ("periodic", "upon_leave"):
            raise ValueError(
                "location_update_mode must be 'periodic' or 'upon_leave'"
            )
        if self.max_r < 1:
            raise ValueError("max_r must be at least 1")

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits
