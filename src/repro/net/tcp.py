"""A message-framed TCP model over the Ethernet network.

Reliable, connection-oriented, in-order delivery with TCP-ish costs (the
Ethernet :class:`~repro.hardware.network.Network` charges per-message kernel
overhead plus serialization at GigE bandwidth).  Used by the DMTCP
coordinator channel and MPI's out-of-band wire-up — the "out-of-band
mechanism" of paper §3.2.1.  The IB2TCP plugin's post-restart data path
does not come through here: its soft HCA
(:class:`~repro.hardware.hca.SoftHca`) frames verbs traffic onto the same
Ethernet segment itself.

Framing is message-oriented (one ``send`` is one ``recv``), which is how
every user in this codebase layers on TCP anyway.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional

from ..hardware.network import Network, NetworkError
from ..hardware.node import Node
from ..sim import Environment, Store

__all__ = ["TcpStack", "Listener", "Connection", "TcpError"]

CONTROL_BYTES = 128.0  # logical size of SYN / control frames


class TcpError(RuntimeError):
    pass


class Connection:
    """One side of an established connection."""

    _ids = itertools.count(1)

    def __init__(self, stack: "TcpStack", peer_host: str, local_cid: int,
                 remote_cid: Optional[int] = None):
        self.stack = stack
        self.env = stack.env
        self.peer_host = peer_host
        self.local_cid = local_cid
        self.remote_cid = remote_cid
        self.rx: Store = Store(stack.env)
        self.closed = False

    def send(self, payload: Any, size: float = CONTROL_BYTES) -> Generator:
        """Process generator: completes when the frame is on the wire."""
        if self.closed:
            raise TcpError("send on closed connection")
        if self.remote_cid is None:
            raise TcpError("connection not yet established")
        frame = {"kind": "data", "cid": self.remote_cid, "payload": payload}
        yield from self.stack._tx(self.peer_host, frame, size)

    def recv(self):
        """Event yielding the next frame's payload."""
        return self.rx.get()

    def close(self) -> None:
        self.closed = True
        self.stack._conns.pop(self.local_cid, None)


class Listener:
    """A listening socket: accept() yields established Connections."""

    def __init__(self, stack: "TcpStack", port: int):
        self.stack = stack
        self.port = port
        self.backlog: Store = Store(stack.env)

    def accept(self):
        """Event yielding the next established Connection."""
        return self.backlog.get()

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class TcpStack:
    """The kernel TCP stack of one node (one per node, created on demand)."""

    def __init__(self, node: Node):
        if getattr(node, "ethernet", None) is None:
            raise TcpError(f"{node.name}: node has no Ethernet segment")
        self.env: Environment = node.env
        self.network: Network = node.ethernet
        self.hostname = node.name
        self._listeners: Dict[int, Listener] = {}
        self._conns: Dict[int, Connection] = {}
        self._seen_syns: Dict[tuple, int] = {}  # (host, cid) -> local cid
        self._port = self.network.attach(self.hostname, self._rx)

    @classmethod
    def of(cls, node: Node) -> "TcpStack":
        stack = getattr(node, "_tcp_stack", None)
        if stack is None or stack.network.torn_down:
            stack = cls(node)
            node._tcp_stack = stack
        return stack

    # -- API --------------------------------------------------------------------

    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise TcpError(f"{self.hostname}: port {port} already bound")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, host: str, port: int, syn_interval: float = 20e-3,
                max_retries: int = 400) -> Generator:
        """Process generator: SYN / SYN-ACK handshake; returns Connection.

        SYNs are retransmitted (as real TCP does) so connecting to a peer
        whose listener is not bound *yet* — the usual startup race in a
        parallel launch — blocks briefly instead of hanging."""
        conn = Connection(self, host, local_cid=next(Connection._ids))
        self._conns[conn.local_cid] = conn
        syn = {"kind": "syn", "port": port, "from_host": self.hostname,
               "from_cid": conn.local_cid}
        reply_evt = conn.rx.get()
        for _ in range(max_retries):
            yield from self._tx(host, syn, CONTROL_BYTES)
            yield self.env.any_of(
                [reply_evt, self.env.timeout(syn_interval)])
            if reply_evt.triggered:
                break
        if not reply_evt.triggered:
            raise TcpError(f"connection to {host}:{port} timed out")
        reply = reply_evt.value
        if reply.get("kind") != "synack":
            raise TcpError(f"connection to {host}:{port} refused")
        conn.remote_cid = reply["cid"]
        return conn

    def close(self) -> None:
        """The node powered off: forget every socket (each points back
        at this stack).  A new stack is built if the node comes back."""
        self._listeners.clear()
        self._conns.clear()
        self._seen_syns.clear()

    # -- internals ------------------------------------------------------------------

    def _tx(self, host: str, frame: dict, size: float) -> Generator:
        yield from self._port.send(host, frame, size)

    def _rx(self, frame: dict) -> None:
        kind = frame["kind"]
        if kind == "syn":
            listener = self._listeners.get(frame["port"])
            if listener is None:
                return  # no listener yet: the connector's SYN retry covers
            key = (frame["from_host"], frame["from_cid"])
            local_cid = self._seen_syns.get(key)
            if local_cid is None:  # not a retransmitted duplicate
                conn = Connection(self, frame["from_host"],
                                  local_cid=next(Connection._ids),
                                  remote_cid=frame["from_cid"])
                self._conns[conn.local_cid] = conn
                self._seen_syns[key] = conn.local_cid
                listener.backlog.put(conn)
                local_cid = conn.local_cid

            def synack(local_cid=local_cid):
                try:
                    yield from self._tx(
                        frame["from_host"],
                        {"kind": "data", "cid": frame["from_cid"],
                         "payload": {"kind": "synack", "cid": local_cid}},
                        CONTROL_BYTES)
                except NetworkError:
                    return  # segment died under us; peer's SYN retry covers

            self.env.process(synack(), name="tcp.synack")
        elif kind == "data":
            conn = self._conns.get(frame["cid"])
            if conn is not None and not conn.closed:
                conn.rx.put(frame["payload"])
