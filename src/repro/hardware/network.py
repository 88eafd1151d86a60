"""Shared switched-network model used by both the InfiniBand fabric and the
Ethernet segment.

Endpoints attach with an id (a LID for InfiniBand, a hostname for Ethernet)
and a receive handler.  A transfer serializes on the sender's NIC for
``size / bandwidth`` seconds, then arrives ``latency`` seconds later.
Message *payloads* are real Python objects carrying real bytes; the ``size``
argument is the logical wire size used for timing (scaled experiments
declare paper-magnitude sizes while moving small real buffers).

Teardown drops every in-flight packet — this is precisely the condition
that makes the paper's Principle 6 (ignore in-flight messages; re-post on
restart) necessary and sufficient.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Hashable, Optional

from ..sim import Environment, Resource

__all__ = ["Network", "NetworkPort", "NetworkError"]


class NetworkError(RuntimeError):
    """Unknown endpoint or use of a torn-down network."""


class _Arrival:
    """The latency-timeout callback for one in-flight payload.

    A slotted callable instead of a per-message closure: a 2048-rank
    pingpong sweep schedules ~150k deliveries, and the closure's cell +
    function objects were measurable in the event loop.  Semantics are
    byte-for-byte those of the old inline ``arrive`` closure."""

    __slots__ = ("network", "epoch", "dst_id", "payload")

    def __init__(self, network: "Network", epoch: int, dst_id: Hashable,
                 payload: Any):
        self.network = network
        self.epoch = epoch
        self.dst_id = dst_id
        self.payload = payload

    def __call__(self, _evt) -> None:
        net = self.network
        if net.epoch != self.epoch or net.torn_down:
            net.dropped_in_flight += 1
            return
        port = net._ports.get(self.dst_id)
        if port is None or not port.attached \
                or self.dst_id in net._partitioned:
            net.dropped_in_flight += 1  # silently dropped by the switch
            return
        port.handler(self.payload)


class NetworkPort:
    """One endpoint's attachment (a NIC / HCA port)."""

    def __init__(self, network: "Network", endpoint_id: Hashable,
                 handler: Callable[[Any], None]):
        self.network = network
        self.endpoint_id = endpoint_id
        self.handler = handler
        self._tx = Resource(network.env, capacity=1)
        self.attached = True

    def send(self, dst_id: Hashable, payload: Any,
             size: float) -> Generator:
        """Process generator: completes once the last byte is on the wire.

        Delivery to the destination handler happens ``latency`` later and is
        *not* awaited by the sender (that is what acknowledgements are for).
        """
        net = self.network
        if not self.attached or net.torn_down:
            raise NetworkError(f"{net.name}: send on detached port")
        epoch = net.epoch
        yield self._tx.request()
        try:
            yield net.env.timeout(size / net.bandwidth)
        finally:
            self._tx.release()
        net._deliver_later(epoch, dst_id, payload)

    def detach(self) -> None:
        self.attached = False
        self.network._ports.pop(self.endpoint_id, None)


class Network:
    """A full-bisection switch: per-port serialization + uniform latency."""

    def __init__(self, env: Environment, name: str, latency: float,
                 bandwidth: float, per_message_overhead: float = 0.0):
        self.env = env
        self.name = name
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.per_message_overhead = float(per_message_overhead)
        self._ports: Dict[Hashable, NetworkPort] = {}
        self.epoch = 0
        self.torn_down = False
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.dropped_in_flight = 0
        # fault injection state
        self._base_latency = self.latency
        self._base_bandwidth = self.bandwidth
        self.degraded = False
        self._partitioned: set = set()  # endpoint ids cut off the switch

    def attach(self, endpoint_id: Hashable,
               handler: Callable[[Any], None]) -> NetworkPort:
        if endpoint_id in self._ports:
            raise NetworkError(
                f"{self.name}: endpoint {endpoint_id!r} already attached")
        port = NetworkPort(self, endpoint_id, handler)
        self._ports[endpoint_id] = port
        return port

    def port(self, endpoint_id: Hashable) -> NetworkPort:
        try:
            return self._ports[endpoint_id]
        except KeyError:
            raise NetworkError(
                f"{self.name}: unknown endpoint {endpoint_id!r}") from None

    def _deliver_later(self, epoch: int, dst_id: Hashable,
                       payload: Any) -> None:
        self.messages_sent += 1
        evt = self.env.timeout(self.latency + self.per_message_overhead)
        evt.callbacks.append(_Arrival(self, epoch, dst_id, payload))

    def transfer_time(self, size: float) -> float:
        """Unloaded one-way time for a ``size``-byte message."""
        return self.latency + self.per_message_overhead + size / self.bandwidth

    # -- fault injection ------------------------------------------------------

    def degrade(self, bandwidth_factor: float = 1.0,
                latency_factor: float = 1.0) -> None:
        """Link degradation (flapping optics, congested uplink): scale
        bandwidth down by ``bandwidth_factor`` (< 1) and latency up by
        ``latency_factor`` (> 1) until :meth:`heal`.  Transfers already
        serializing keep their old timing — only new sends see the change,
        as with a real renegotiated link rate."""
        self.degraded = True
        self.bandwidth = self._base_bandwidth * bandwidth_factor
        self.latency = self._base_latency * latency_factor

    def partition(self, endpoint_ids) -> None:
        """Cut the listed endpoints off the switch: traffic to them is
        silently dropped (they can still transmit).  Under a reliable
        transport with no retransmit timer this wedges the job — which is
        why the injector classifies partitions as fatal."""
        self._partitioned.update(endpoint_ids)

    def heal(self) -> None:
        """Undo :meth:`degrade` and :meth:`partition`."""
        self.degraded = False
        self.bandwidth = self._base_bandwidth
        self.latency = self._base_latency
        self._partitioned.clear()

    def teardown(self) -> None:
        """Drop all in-flight packets and invalidate the wire (power fail /
        cluster decommission).  Attached ports become unusable."""
        self.epoch += 1
        self.torn_down = True
        for port in list(self._ports.values()):
            port.attached = False
        self._ports.clear()
