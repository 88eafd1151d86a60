"""Host Channel Adapter hardware model.

The HCA is deliberately dumb: it owns the id allocators (queue-pair numbers,
memory keys) whose values *change across restart* — the root problem the
paper's plugin solves — and it moves packets between the fabric and whatever
transport engine (the verbs driver layer) registered for each destination
queue-pair number.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

import numpy as np

from ..sim import Environment
from .network import Network, NetworkPort

__all__ = ["HCA", "HCAError", "SoftHca"]

#: logical bytes of TCP/IP framing a soft HCA adds to every frame
TCP_FRAME_BYTES = 96.0


class HCAError(RuntimeError):
    """Invalid hardware operation (bad lid, detached port, ...)."""


class HCA:
    """One adapter board: a fabric port plus id allocators.

    ``vendor`` matters for the paper's §4 limitation: a checkpoint image
    contains the vendor's user-space driver, so restart requires the same
    vendor on the new node (until the "future work" stub-driver exists).
    """

    def __init__(self, env: Environment, name: str, vendor: str,
                 rng: np.random.Generator):
        self.env = env
        self.name = name
        self.vendor = vendor  # "mlx4" (Mellanox) or "qib" (Intel/QLogic)
        self.guid = int(rng.integers(1, 2**63))
        self._rng = rng
        # qp_nums start from a random per-boot base: two boots of the same
        # job get different numbers, as on real hardware
        self._next_qpn = int(rng.integers(0x100, 0x10000))
        self._next_key = int(rng.integers(0x1000, 2**28))
        self.lid: Optional[int] = None
        self.port: Optional[NetworkPort] = None
        self._qp_rx: Dict[int, Callable[[Any], None]] = {}
        self.packets_rx = 0
        self.failed = False

    # -- subnet-manager attachment -------------------------------------------

    def attach(self, fabric: Network, lid: int) -> None:
        if self.port is not None:
            raise HCAError(f"{self.name}: already attached")
        self.lid = lid
        self.port = fabric.attach(lid, self._rx)

    def detach(self) -> None:
        if self.port is not None:
            self.port.detach()
            self.port = None
            self.lid = None

    def fail(self) -> None:
        """Adapter failure (firmware wedge / cable pull): the port drops off
        the fabric and every subsequent send is silently black-holed — the
        local process observes only missing completions, exactly how a real
        wedged HCA presents, so surviving threads hang rather than crash
        until the job-level failure detector tears the run down."""
        self.failed = True
        self.detach()

    # -- id allocation (the values that change on restart) --------------------

    def alloc_qpn(self) -> int:
        qpn = self._next_qpn
        self._next_qpn += int(self._rng.integers(1, 8))
        return qpn

    def alloc_key(self) -> int:
        """Allocate an lkey/rkey (unique only per protection domain in real
        InfiniBand; we allocate from one counter but the plugin must not
        rely on global uniqueness — see §3.2.2 tests)."""
        key = self._next_key
        self._next_key += int(self._rng.integers(1, 16))
        return key

    # -- packet I/O ------------------------------------------------------------

    def register_qp(self, qpn: int, rx: Callable[[Any], None]) -> None:
        if qpn in self._qp_rx:
            raise HCAError(f"{self.name}: qpn {qpn} already registered")
        self._qp_rx[qpn] = rx

    def unregister_qp(self, qpn: int) -> None:
        self._qp_rx.pop(qpn, None)

    def hw_send(self, dst_lid: int, packet: dict,
                size: float) -> Generator:
        """Process generator: serialize ``size`` logical bytes onto the wire."""
        if self.failed:
            # a wedged adapter accepts the doorbell and never completes
            yield self.env.timeout(0.0)
            return
        if self.port is None:
            raise HCAError(f"{self.name}: not attached to a fabric")
        yield from self.port.send(dst_lid, packet, size)

    def _rx(self, packet: dict) -> None:
        self.packets_rx += 1
        handler = self._qp_rx.get(packet.get("dst_qpn"))
        if handler is None:
            # Reliable-connection packets for a dead QP are dropped by the
            # hardware (the peer's retry/timeout machinery notices, which we
            # model as the plugin's re-post on restart).
            return
        handler(packet)


class SoftHca(HCA):
    """A software HCA on a node's Ethernet NIC (what soft-RoCE,
    ``rdma_rxe``, gives libibverbs): the IB2TCP provider's one device.

    Queue pairs on it run through the ordinary verbs transport engines;
    only the wire differs.  Every frame first pays ``tcp_per_byte`` per
    byte — the in-memory copy and kernel TCP the paper blames for
    Table 8's ~0.1 Gbit/s — which the provider sets from its job's cost
    model, then crosses the Ethernet segment with its TCP/IP framing."""

    def __init__(self, env: Environment, name: str,
                 rng: np.random.Generator):
        super().__init__(env, name, vendor="rxe", rng=rng)
        self.tcp_per_byte = 0.0

    def hw_send(self, dst_lid: int, packet: dict,
                size: float) -> Generator:
        yield self.env.timeout(size * self.tcp_per_byte)
        if self.port is None:
            return  # the segment went down during the copy: frame lost
        yield from super().hw_send(dst_lid, packet, size + TCP_FRAME_BYTES)
