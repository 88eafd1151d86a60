"""The IB2TCP plugin (paper §6.4): checkpoint over InfiniBand, restart over
Ethernet/TCP.

Loaded next to the InfiniBand plugin (``InfinibandPlugin(fallback=
Ib2TcpPlugin())``).  While the job runs over InfiniBand it only adds the
in-memory copy overhead the paper measures (Table 8, DMTCP/IB2TCP/IB row).
When a restart lands on a node with no HCA, the InfiniBand plugin delegates:
IB2TCP re-plumbs every virtual queue pair onto a TCP connection and emulates
the verbs data path — send/recv, RDMA read/write, immediate data — against
the same virtual structs the application has been holding all along.  The
debug cluster may run a different Linux kernel: nothing here cares.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Deque, Dict, Generator, Optional, Sequence, Tuple

from ...dmtcp.plugin import Plugin
from ...ibverbs.enums import SendFlags, WcOpcode, WcStatus, WrOpcode
from ...ibverbs.structs import VerbsError, ibv_recv_wr, ibv_send_wr, ibv_wc
from ...net.tcp import TcpStack
from ..ib_plugin.shadow import VirtualCq, VirtualQp, VirtualSrq

__all__ = ["Ib2TcpPlugin", "Ib2TcpError"]

IB2TCP_BASE_PORT = 19000
_FRAME_OVERHEAD = 96.0


class Ib2TcpError(RuntimeError):
    pass


class Ib2TcpPlugin(Plugin):
    """Verbs-over-TCP emulation for post-restart execution on Ethernet."""

    name = "ib2tcp"

    def __init__(self):
        super().__init__()
        self.ib = None                  # adopting InfinibandPlugin
        self.active = False
        self.listener = None
        self.port: Optional[int] = None
        self._conn_by_vqp: Dict[int, Any] = {}       # vqpn -> Connection
        self._conn_ready: Dict[int, Any] = {}        # vqpn -> sim Event
        self._txq_by_vqp: Dict[int, Any] = {}        # vqpn -> Store
        # vqpn -> the QP's own receive queue; id(vsrq) -> an SRQ's
        self._recvq: Dict[int, _RecvQueue] = defaultdict(_RecvQueue)
        self._srq_recvq: Dict[int, _RecvQueue] = defaultdict(_RecvQueue)
        self._pending_acks: Dict[int, Tuple] = {}        # msn -> info
        self._msn = 0
        self.stats = {"frames_tx": 0, "frames_rx": 0, "bytes_tx": 0.0}

    # -- adoption (called by InfinibandPlugin at restart-on-Ethernet) -----------

    def adopt(self, ib_plugin) -> None:
        self.ib = ib_plugin
        self.appctx = ib_plugin.appctx
        self.active = True
        proc = self.appctx.proc
        stack = TcpStack.of(proc.node)
        self.port = IB2TCP_BASE_PORT + (proc.pid % 20000)
        self.listener = stack.listen(self.port)
        proc.spawn_thread(self._accept_loop(), name=f"{self.name}.accept")

    def close(self) -> None:
        """Drop the adopting plugin (which holds us as its fallback)."""
        self.ib = None

    # -- name service ------------------------------------------------------------

    def ns_publish(self) -> Dict[str, Any]:
        entries: Dict[str, Any] = {}
        host = self.appctx.proc.node.name
        for vqp in self.ib.qps:
            vlid = vqp.vpd.vcontext.vlid
            entries[f"ep:{vlid}/{vqp.qp_num}"] = {
                "host": host, "port": self.port}
        return entries

    def ns_receive(self, db: Dict[str, Any]) -> None:
        self.db = db

    def remap_evidence(self) -> Dict[str, bool]:
        """The adopted InfiniBand plugin's re-virtualization evidence,
        plus whether every connected queue pair was re-plumbed onto a TCP
        endpoint (the §6.4 claim: same virtual ids, new transport)."""
        evidence = self.ib.remap_evidence() if self.ib is not None else {
            "qps_remapped": False, "mrs_remapped": False,
            "lids_remapped": False}
        connected = [vqp for vqp in (self.ib.qps if self.ib else ())
                     if vqp.remote_vqpn is not None]
        evidence["qps_replumbed"] = self.active and bool(connected) and all(
            vqp.qp_num in self._txq_by_vqp for vqp in connected)
        return evidence

    # -- restart replay ---------------------------------------------------------------

    def restart_replay(self) -> None:
        """Connect queue pairs over TCP and re-post the logged WQEs."""
        proc = self.appctx.proc
        for vqp in self.ib.qps:
            if vqp.remote_vqpn is None:
                continue
            self._txq_by_vqp[vqp.qp_num] = _Queue(self.appctx.env)
            self._conn_ready[vqp.qp_num] = self.appctx.env.event()
            local = (vqp.vpd.vcontext.vlid, vqp.qp_num)
            remote = (vqp.remote_vlid, vqp.remote_vqpn)
            if local < remote:
                proc.spawn_thread(self._connector(vqp),
                                  name=f"{self.name}.connect.{vqp.qp_num}")
            proc.spawn_thread(self._tx_loop(vqp),
                              name=f"{self.name}.tx.{vqp.qp_num}")
        # Principle 3/6 replay, now onto TCP: the logged receive values are
        # posted as they are (nothing translates them on this path)
        for vsrq in self.ib.srqs:
            self.post_srq_recv(vsrq, list(vsrq.recv_log))
        for vqp in self.ib.qps:
            if vqp.recv_log:
                self.post_recv(vqp, list(vqp.recv_log))
        for vqp in self.ib.qps:
            for entry in vqp.send_log:
                self.post_send(vqp, entry.wr.copy())

    def drain_round(self) -> int:
        # further checkpoints on the Ethernet cluster are out of scope for
        # the paper's IB2TCP evaluation; the network is TCP-quiesced anyway
        return 0

    # -- connection management -------------------------------------------------------

    def _connector(self, vqp: VirtualQp) -> Generator:
        ep = self.db.get(f"ep:{vqp.remote_vlid}/{vqp.remote_vqpn}")
        if ep is None:
            raise Ib2TcpError(
                f"no IB2TCP endpoint published for virtual qp "
                f"{vqp.remote_vlid}/{vqp.remote_vqpn}")
        stack = TcpStack.of(self.appctx.proc.node)
        conn = yield from stack.connect(ep["host"], ep["port"])
        yield from conn.send({"kind": "hello",
                              "to_vqpn": vqp.remote_vqpn,
                              "from": (vqp.vpd.vcontext.vlid, vqp.qp_num)})
        self._bind_conn(vqp.qp_num, conn)

    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self.listener.accept()
            hello = yield conn.recv()
            assert hello["kind"] == "hello", hello
            self._bind_conn(hello["to_vqpn"], conn)

    def _bind_conn(self, vqpn: int, conn) -> None:
        self._conn_by_vqp[vqpn] = conn
        ready = self._conn_ready.get(vqpn)
        if ready is not None and not ready.triggered:
            ready.succeed()
        self.appctx.proc.spawn_thread(self._rx_loop(vqpn, conn),
                                      name=f"{self.name}.rx.{vqpn}")

    # -- data path: posting --------------------------------------------------------------

    def post_send(self, vqp: VirtualQp, wr: ibv_send_wr) -> None:
        logical = sum(s.length * self._scale(s.addr, s.length)
                      for s in wr.sg_list)
        self._msn += 1
        msn = self._msn
        signaled = vqp.sq_sig_all or bool(wr.send_flags & SendFlags.SIGNALED)
        suppress = wr.opcode is WrOpcode.RDMA_WRITE_WITH_IMM
        payload = b"".join(self.appctx.memory.read(s.addr, s.length)
                           for s in wr.sg_list)
        if wr.opcode in (WrOpcode.SEND, WrOpcode.SEND_WITH_IMM):
            frame = {"kind": "send", "to_vqpn": vqp.remote_vqpn, "msn": msn,
                     "payload": payload, "logical": logical,
                     "imm": wr.imm_data
                     if wr.opcode is WrOpcode.SEND_WITH_IMM else None}
            opcode = WcOpcode.SEND
        elif wr.opcode in (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM):
            frame = {"kind": "rdma_write", "to_vqpn": vqp.remote_vqpn,
                     "msn": msn, "payload": payload, "logical": logical,
                     "vrkey": wr.rkey, "remote_addr": wr.remote_addr,
                     "imm": wr.imm_data
                     if wr.opcode is WrOpcode.RDMA_WRITE_WITH_IMM else None}
            opcode = WcOpcode.RDMA_WRITE
        elif wr.opcode is WrOpcode.RDMA_READ:
            frame = {"kind": "rdma_read_req", "to_vqpn": vqp.remote_vqpn,
                     "msn": msn, "vrkey": wr.rkey,
                     "remote_addr": wr.remote_addr,
                     "length": sum(s.length for s in wr.sg_list),
                     "logical": _FRAME_OVERHEAD}
            opcode = WcOpcode.RDMA_READ
        else:
            raise Ib2TcpError(f"unsupported opcode {wr.opcode}")
        self._pending_acks[msn] = (vqp, wr, signaled and not suppress, opcode)
        self._txq_by_vqp[vqp.qp_num].put(frame)

    def post_recv(self, vqp: VirtualQp,
                  chain: Sequence[ibv_recv_wr]) -> None:
        if vqp.vsrq is not None:   # as the driver answers
            raise VerbsError("QP uses an SRQ; use post_srq_recv", bad_wr=0)
        self._post(self._recv_queue(vqp), chain)

    def post_srq_recv(self, vsrq: VirtualSrq,
                      chain: Sequence[ibv_recv_wr]) -> None:
        self._post(self._srq_recvq[id(vsrq)], chain)

    def _post(self, queue: "_RecvQueue",
              chain: Sequence[ibv_recv_wr]) -> None:
        """Queue ``chain``, then hand the sends that arrived before any
        WQE was posted, oldest first, to the WQEs now waiting."""
        wqes, parked = queue.wqes, queue.parked
        wqes.extend(chain)
        while parked and wqes:
            vqp, frame = parked.popleft()
            self._deliver_send(vqp, wqes.popleft(), frame)

    def _recv_queue(self, vqp: VirtualQp) -> "_RecvQueue":
        """The receive queue a message arriving on ``vqp`` consumes: its
        SRQ's, shared by every QP attached to it, or its own."""
        if vqp.vsrq is not None:
            return self._srq_recvq[id(vqp.vsrq)]
        return self._recvq[vqp.qp_num]

    # -- data path: transmit / receive loops -------------------------------------------------

    def _tx_loop(self, vqp: VirtualQp) -> Generator:
        env = self.appctx.env
        costs = self.ib.costs
        yield self._conn_ready[vqp.qp_num]
        conn = self._conn_by_vqp[vqp.qp_num]
        queue = self._txq_by_vqp[vqp.qp_num]
        while True:
            frame = yield queue.get()
            logical = frame.get("logical", _FRAME_OVERHEAD)
            # the in-memory copy + kernel TCP inefficiency the paper blames
            # for the ~0.1 Gbit/s Ethernet rate (Table 8)
            yield env.timeout(logical * costs.ib2tcp_tcp_per_byte)
            yield from conn.send(frame, size=logical + _FRAME_OVERHEAD)
            self.stats["frames_tx"] += 1
            self.stats["bytes_tx"] += logical

    def _rx_loop(self, vqpn: int, conn) -> Generator:
        while True:
            frame = yield conn.recv()
            self.stats["frames_rx"] += 1
            self._handle_frame(vqpn, frame)

    # -- frame handling --------------------------------------------------------------------------

    def _vqp(self, vqpn: int) -> VirtualQp:
        return self.ib.vqp_by_vqpn[vqpn]

    def _scale(self, addr: int, length: int) -> float:
        region = self.appctx.memory.region_at(addr, length)
        return region.repr_scale

    def _handle_frame(self, vqpn: int, frame: dict) -> None:
        kind = frame["kind"]
        vqp = self._vqp(vqpn)
        if kind == "send":
            queue = self._recv_queue(vqp)
            if queue.wqes:
                self._deliver_send(vqp, queue.wqes.popleft(), frame)
            else:   # delivered by the next post to this queue
                queue.parked.append((vqp, frame))
        elif kind == "rdma_write":
            self._apply_rdma_write(vqp, frame)
        elif kind == "rdma_read_req":
            data = self.appctx.memory.read(frame["remote_addr"],
                                           frame["length"])
            logical = frame["length"] * self._scale(frame["remote_addr"],
                                                    frame["length"])
            self._txq_by_vqp[vqpn].put(
                {"kind": "rdma_read_resp", "msn": frame["msn"],
                 "payload": data, "logical": logical})
        elif kind == "rdma_read_resp":
            entry = self._pending_acks.pop(frame["msn"], None)
            if entry is None:
                return
            pvqp, wr, signaled, opcode = entry
            offset = 0
            for sge in wr.sg_list:
                chunk = frame["payload"][offset: offset + sge.length]
                self.appctx.memory.write(sge.addr, chunk)
                offset += len(chunk)
            if signaled:
                self._push_wc(pvqp.vsend_cq, ibv_wc(
                    wr_id=wr.wr_id, status=WcStatus.SUCCESS, opcode=opcode,
                    byte_len=int(frame["logical"]), qp_num=pvqp.qp_num))
        elif kind == "ack":
            entry = self._pending_acks.pop(frame["msn"], None)
            if entry is None:
                return
            pvqp, wr, signaled, opcode = entry
            if signaled:
                self._push_wc(pvqp.vsend_cq, ibv_wc(
                    wr_id=wr.wr_id, status=WcStatus.SUCCESS, opcode=opcode,
                    byte_len=int(frame.get("byte_len", 0)),
                    qp_num=pvqp.qp_num))

    def _deliver_send(self, vqp: VirtualQp, wqe: ibv_recv_wr,
                      frame: dict) -> None:
        offset = 0
        for sge in wqe.sg_list:
            chunk = frame["payload"][offset: offset + sge.length]
            self.appctx.memory.write(sge.addr, chunk)
            offset += len(chunk)
        self._push_wc(vqp.vrecv_cq, ibv_wc(
            wr_id=wqe.wr_id, status=WcStatus.SUCCESS, opcode=WcOpcode.RECV,
            byte_len=int(frame["logical"]), imm_data=frame.get("imm"),
            qp_num=vqp.qp_num, src_qp=vqp.remote_vqpn or 0))
        self._ack(vqp, frame)

    def _apply_rdma_write(self, vqp: VirtualQp, frame: dict) -> None:
        # validate the virtual rkey against our own registered regions
        vmr = next((m for m in self.ib.mrs if m.rkey == frame["vrkey"]), None)
        if vmr is None or not (vmr.addr <= frame["remote_addr"] and
                               frame["remote_addr"] + len(frame["payload"])
                               <= vmr.addr + vmr.length):
            return  # drop (a NAK path is not needed for the evaluation)
        self.appctx.memory.write(frame["remote_addr"], frame["payload"])
        if frame.get("imm") is not None:
            wqes = self._recv_queue(vqp).wqes
            if wqes:
                wqe = wqes.popleft()
                self._push_wc(vqp.vrecv_cq, ibv_wc(
                    wr_id=wqe.wr_id, status=WcStatus.SUCCESS,
                    opcode=WcOpcode.RECV_RDMA_WITH_IMM,
                    byte_len=int(frame["logical"]),
                    imm_data=frame["imm"], qp_num=vqp.qp_num))
        self._ack(vqp, frame)

    def _ack(self, vqp: VirtualQp, frame: dict) -> None:
        self._txq_by_vqp[vqp.qp_num].put(
            {"kind": "ack", "msn": frame["msn"],
             "byte_len": frame.get("logical", 0.0),
             "logical": _FRAME_OVERHEAD})

    def _push_wc(self, vcq: VirtualCq, wc: ibv_wc) -> None:
        vcq.private_queue.append(wc)
        if vcq.pending_notify is not None \
                and not vcq.pending_notify.triggered:
            evt, vcq.pending_notify = vcq.pending_notify, None
            evt.succeed()


class _RecvQueue:
    """Posted receive WQEs, and the sends that arrived while none was
    posted (with the QP each arrived on), both oldest first."""

    __slots__ = ("wqes", "parked")

    def __init__(self):
        self.wqes: Deque[ibv_recv_wr] = deque()
        self.parked: Deque[Tuple[VirtualQp, dict]] = deque()


class _Queue:
    """Tiny Store wrapper so tx loops survive before connections exist."""

    def __init__(self, env):
        from ...sim import Store

        self._store = Store(env)

    def put(self, item) -> None:
        self._store.put(item)

    def get(self):
        return self._store.get()
