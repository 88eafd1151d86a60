"""librdmacm-style connection manager (paper §2.1).

OFED's optional RDMA-CM library wraps the fiddly parts of bringing up a
reliable connection: resolving the peer, creating the QP, exchanging the
(lid, qp_num) bootstrap ids over its own out-of-band channel, and driving
the INIT→RTR→RTS ladder on both sides.  As the paper notes, it only
affects set-up and tear-down — everything it creates goes through the
ordinary verbs entry points, so a DMTCP plugin interposing on the verbs
library checkpoints rdmacm-established connections with no special help
(tested in ``tests/test_rdmacm.py``).

API shape (generator methods; ``yield from`` them inside sim processes)::

    cm = RdmaCm(ctx)                    # ctx: the AppContext
    # server
    listen_id = cm.create_id(); cm.bind_addr(listen_id, port); cm.listen(listen_id)
    conn_id = yield from cm.get_request(listen_id)
    cm.create_qp(conn_id, pd, init_attr)
    yield from cm.accept(conn_id)
    # client
    cm_id = cm.create_id()
    yield from cm.resolve_addr(cm_id, host, port)
    cm.create_qp(cm_id, pd, init_attr)
    yield from cm.connect(cm_id, private_data=b"hello")
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from ..net.tcp import TcpStack
from .connect import qp_to_init, qp_to_rtr, qp_to_rts
from .structs import ibv_qp_init_attr

__all__ = ["RdmaCm", "CmId", "RdmaCmError"]

RDMA_CM_PORT_BASE = 28000


class RdmaCmError(RuntimeError):
    pass


class CmId:
    """rdma_cm_id: one endpoint of a (pending or established) connection."""

    _counter = itertools.count(1)

    def __init__(self, cm: "RdmaCm"):
        self.cm = cm
        self.id = next(CmId._counter)
        self.qp = None
        self.port: Optional[int] = None
        self.listener = None
        self.remote: Optional[dict] = None       # peer's (lid, qpn)
        self.private_data: bytes = b""            # peer's connect payload
        self._conn = None                          # OOB TCP connection
        self.established = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CmId #{self.id} established={self.established}>"


class RdmaCm:
    """The connection manager for one process."""

    def __init__(self, appctx):
        self.ctx = appctx

    @property
    def ibv(self):
        return self.ctx.ibv

    # -- id management ------------------------------------------------------------

    def create_id(self) -> CmId:
        return CmId(self)

    def create_qp(self, cm_id: CmId, pd, init_attr: ibv_qp_init_attr) -> None:
        """rdma_create_qp: the QP is made through the ordinary verbs entry
        point (so a checkpoint plugin sees and virtualizes it)."""
        if cm_id.qp is not None:
            raise RdmaCmError("cm_id already has a QP")
        cm_id.qp = self.ibv.create_qp(pd, init_attr)
        # rdma_create_qp leaves the QP in INIT (receives may be pre-posted
        # before accept/connect, as usual rdmacm applications do)
        qp_to_init(self.ibv, cm_id.qp)

    # -- passive (server) side ----------------------------------------------------

    def bind_addr(self, cm_id: CmId, port: int) -> None:
        cm_id.port = RDMA_CM_PORT_BASE + port

    def listen(self, cm_id: CmId, backlog: int = 16) -> None:
        if cm_id.port is None:
            raise RdmaCmError("bind_addr first")
        stack = TcpStack.of(self.ctx.proc.node)
        cm_id.listener = stack.listen(cm_id.port)

    def get_request(self, listen_id: CmId) -> Generator:
        """Wait for a CONNECT_REQUEST; returns a fresh CmId carrying the
        initiator's ids and private data."""
        conn = yield listen_id.listener.accept()
        request = yield conn.recv()
        conn_id = self.create_id()
        conn_id.remote = {"lid": request["lid"], "qpn": request["qpn"]}
        conn_id.private_data = request.get("private_data", b"")
        conn_id._conn = conn
        return conn_id

    def accept(self, conn_id: CmId,
               private_data: bytes = b"") -> Generator:
        """rdma_accept: ladder our QP against the initiator's ids, then
        send the ESTABLISHED reply carrying ours."""
        if conn_id.qp is None:
            raise RdmaCmError("create_qp before accept")
        my_lid = self._my_lid(conn_id.qp)
        qp_to_rtr(self.ibv, conn_id.qp, dest_qp_num=conn_id.remote["qpn"],
                  dlid=conn_id.remote["lid"])
        qp_to_rts(self.ibv, conn_id.qp)
        yield from conn_id._conn.send({"lid": my_lid,
                                       "qpn": conn_id.qp.qp_num,
                                       "private_data": private_data})
        conn_id.established = True

    # -- active (client) side ----------------------------------------------------------

    def resolve_addr(self, cm_id: CmId, host: str,
                     port: int) -> Generator:
        """rdma_resolve_addr + rdma_resolve_route, collapsed: open the
        out-of-band channel to the peer's CM service."""
        stack = TcpStack.of(self.ctx.proc.node)
        cm_id._conn = yield from stack.connect(host,
                                               RDMA_CM_PORT_BASE + port)

    def connect(self, cm_id: CmId,
                private_data: bytes = b"") -> Generator:
        """rdma_connect: send our ids (+ private data), wait for the
        ESTABLISHED reply, ladder the QP."""
        if cm_id.qp is None:
            raise RdmaCmError("create_qp before connect")
        if cm_id._conn is None:
            raise RdmaCmError("resolve_addr before connect")
        my_lid = self._my_lid(cm_id.qp)
        yield from cm_id._conn.send({"lid": my_lid,
                                     "qpn": cm_id.qp.qp_num,
                                     "private_data": private_data})
        reply = yield cm_id._conn.recv()
        cm_id.remote = {"lid": reply["lid"], "qpn": reply["qpn"]}
        cm_id.private_data = reply.get("private_data", b"")
        qp_to_rtr(self.ibv, cm_id.qp, dest_qp_num=cm_id.remote["qpn"],
                  dlid=cm_id.remote["lid"])
        qp_to_rts(self.ibv, cm_id.qp)
        cm_id.established = True

    # -- teardown ------------------------------------------------------------------------

    def disconnect(self, cm_id: CmId) -> None:
        if cm_id.qp is not None:
            self.ibv.destroy_qp(cm_id.qp)
            cm_id.qp = None
        if cm_id._conn is not None:
            cm_id._conn.close()
        cm_id.established = False

    # -- helpers ----------------------------------------------------------------------------

    def _my_lid(self, qp) -> int:
        return self.ibv.query_port(qp.context).lid
