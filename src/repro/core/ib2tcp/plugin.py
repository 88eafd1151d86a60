"""The IB2TCP plugin (paper §6.4): checkpoint over InfiniBand, restart over
Ethernet/TCP.

Loaded next to the InfiniBand plugin (``InfinibandPlugin(fallback=
Ib2TcpPlugin())``).  While the job runs over InfiniBand it only adds the
in-memory copy overhead the paper measures (Table 8, DMTCP/IB2TCP/IB row).
When a restart lands on a node with no HCA, IB2TCP is the verbs
*provider*: it hands the InfiniBand plugin a verbs library whose one
device is the node's software HCA on the Ethernet NIC, as soft-RoCE
(``rdma_rxe``) does for libibverbs.  The InfiniBand plugin then restarts
onto that device the ordinary way — recreate, publish the real ids,
replay — and a later checkpoint, or a restart back onto InfiniBand, is
the ordinary path too.  The debug cluster may run a different Linux
kernel: nothing here cares.
"""

from __future__ import annotations

from typing import List

from ...dmtcp.plugin import Plugin
from ...hardware.node import ProcessHost
from ...ibverbs import VerbsLib, ibv_device

__all__ = ["Ib2TcpPlugin"]


class _SoftRoceVerbs(VerbsLib):
    """libibverbs with the software provider: the node's soft HCA is the
    one device listed."""

    def get_device_list(self) -> List[ibv_device]:
        hca = self.proc.node.soft_hca
        return [ibv_device(name=f"{hca.vendor}_0", vendor=hca.vendor,
                           guid=hca.guid, hw=hca)]


class Ib2TcpPlugin(Plugin):
    """Verbs over TCP for post-restart execution on Ethernet."""

    name = "ib2tcp"

    def verbs_lib(self, proc: ProcessHost,
                  tcp_per_byte: float) -> VerbsLib:
        """The verbs library ``proc`` restarts onto; its soft HCA charges
        ``tcp_per_byte`` on every byte it frames."""
        proc.node.soft_hca.tcp_per_byte = tcp_per_byte
        return _SoftRoceVerbs(proc)
