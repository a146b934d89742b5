"""Baseline autoconfiguration protocols from the paper's evaluation.

* :class:`~repro.baselines.manetconf.ManetconfAgent` — MANETconf [1]
  (Nesargi & Prakash, INFOCOM 2002): full replication, every
  configuration floods the whole network and requires universal assent.
* :class:`~repro.baselines.buddy.BuddyAgent` — the proactive disjoint
  block scheme [2] (Mohsin & Prakash, MILCOM 2002): buddy splitting with
  one-hop configuration, plus periodic global synchronization of the IP
  allocation table.
* :class:`~repro.baselines.ctree.CTreeAgent` — the distributed scheme
  [3] (Sheu, Tu & Chan, ICPADS 2005): only coordinators hold pools and
  report periodically to the C-root, which drives reclamation.
* :class:`~repro.baselines.dad.DadAgent` — stateless query-based DAD
  (Perkins et al., Section III), included for the protocol survey.

Each derives from :class:`repro.net.agent.Agent`, as
:class:`~repro.core.protocol.QuorumProtocolAgent` does, and defines
only its protocol: the base owns registration, the metric fields,
sending, dispatch and teardown.
"""

from repro.baselines.buddy import BuddyAgent, BuddyConfig
from repro.baselines.ctree import CTreeAgent, CTreeConfig
from repro.baselines.dad import DadAgent, DadConfig
from repro.baselines.manetconf import ManetconfAgent, ManetconfConfig

__all__ = [
    "ManetconfAgent", "ManetconfConfig",
    "BuddyAgent", "BuddyConfig",
    "CTreeAgent", "CTreeConfig",
    "DadAgent", "DadConfig",
]
