"""The driver/hardware side of the verbs model.

``DriverSession`` stands for the kernel driver plus the device-dependent
user-space driver loaded into one process.  ``QpHardware`` is the reliable-
connection engine: it gathers data from registered memory (DMA), moves it
across the fabric, places it at the receiver, and generates the work
completions whose timing semantics the paper's drain protocol depends on:

* a *receive* completion is generated when the data lands in the receive
  buffer;
* the *send* completion is generated only when the acknowledgement returns —
  so the two sides complete at slightly different times (the skew the
  plugin's settle-loop drain must absorb, paper §4);
* a message whose data is still in flight generates *no* completion on
  either side (Principle 6).

Per the paper's §4 observation, RDMA writes with immediate data (and inline
RDMA) post a completion only on the receiving node.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Deque, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from ..hardware.hca import HCA
from ..hardware.node import ProcessHost
from ..memory import AddressSpace, MemoryError_
from ..sim import Environment, Store
from .enums import (
    AccessFlags,
    QpState,
    QpType,
    SendFlags,
    WcOpcode,
    WcStatus,
    WrOpcode,
)
from .structs import (
    StaleResourceError,
    VerbsError,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
    ibv_wc,
)

__all__ = ["DriverSession", "QpHardware", "CqHardware", "SrqHardware",
           "ACK_BYTES", "RNR_TIMER_S"]

ACK_BYTES = 64.0        # logical wire size of an ACK / NAK / read request
_F_SIGNALED = SendFlags.SIGNALED._value_  # raw bit: skip IntFlag.__and__
RNR_TIMER_S = 0.12e-3   # receiver-not-ready retry timer


class CqHardware:
    """Hardware completion queue: a bounded FIFO of work completions."""

    def __init__(self, env: Environment, cqe: int):
        self.env = env
        self.cqe = cqe
        self.entries: Deque[ibv_wc] = deque()
        self._notify_armed = False
        self._waiters: List = []
        self.total_pushed = 0

    def push(self, wc: ibv_wc) -> None:
        if len(self.entries) >= self.cqe:
            raise VerbsError("completion queue overflow")
        self.entries.append(wc)
        self.total_pushed += 1
        if self._notify_armed:
            self._notify_armed = False
            waiters, self._waiters = self._waiters, []
            for evt in waiters:
                if not evt.triggered:
                    evt.succeed()

    def poll(self, num_entries: int) -> List[ibv_wc]:
        out: List[ibv_wc] = []
        while self.entries and len(out) < num_entries:
            out.append(self.entries.popleft())
        return out

    def req_notify(self):
        """Arm the completion channel; returns an event that fires on the
        next push (ibv_req_notify_cq + ibv_get_cq_event)."""
        self._notify_armed = True
        evt = self.env.event()
        if self.entries:  # completions already waiting
            self._notify_armed = False
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt


class SrqHardware:
    """Shared receive queue hardware."""

    def __init__(self, max_wr: int):
        self.max_wr = max_wr
        self.wqes: Deque[ibv_recv_wr] = deque()

    def post(self, chain: Sequence[ibv_recv_wr]) -> None:
        """Queue ``chain`` in order; the first WR that finds the queue full
        is refused (``bad_wr``) and the ones before it stay queued."""
        wqes = self.wqes
        for i, wr in enumerate(chain):
            if len(wqes) >= self.max_wr:
                raise VerbsError("SRQ full", bad_wr=i)
            wqes.append(wr)

    def take(self) -> Optional[ibv_recv_wr]:
        return self.wqes.popleft() if self.wqes else None


class DriverSession:
    """One process's binding to one HCA (kernel + user-space driver state).

    Dies with the process; every real struct minted by this session carries
    a blob referencing it, and using such a struct after the session closed
    raises :class:`StaleResourceError` (why Principle 1 exists).
    """

    _counter = 0

    def __init__(self, proc: ProcessHost, hca: HCA):
        DriverSession._counter += 1
        self.id = DriverSession._counter
        self.proc = proc
        self.env = proc.env
        self.hca = hca
        self.memory: AddressSpace = proc.memory
        self.live = True
        self.mrs_by_lkey: Dict[int, Any] = {}   # lkey -> ibv_mr
        self.mrs_by_rkey: Dict[int, Any] = {}   # rkey -> ibv_mr
        self.qps: Dict[int, QpHardware] = {}    # real qpn -> hardware qp
        self.cqs: List[CqHardware] = []
        proc.at_kill(self.close)

    def close(self) -> None:
        if not self.live:
            return
        self.live = False
        for qp in list(self.qps.values()):
            qp.destroy()
        self.qps.clear()
        # nothing completes on a dead process's queues: drop the armed
        # notifications (their callbacks reach back into the process)
        for cq in self.cqs:
            cq._waiters.clear()
        self.cqs.clear()
        # pinned pages are released when a process dies
        for mr in self.mrs_by_lkey.values():
            try:
                self.memory.unpin(mr.addr, mr.length)
            except MemoryError_:
                pass
        self.mrs_by_lkey.clear()
        self.mrs_by_rkey.clear()

    def check_live(self) -> None:
        if not self.live:
            raise StaleResourceError(
                "driver session is dead (stale struct from a previous boot?)")

    # -- DMA ------------------------------------------------------------------

    def _mr_for_lkey(self, sge: ibv_sge):
        mr = self.mrs_by_lkey.get(sge.lkey)
        if mr is None:
            raise VerbsError(f"invalid lkey {sge.lkey:#x}")
        if not (mr.addr <= sge.addr and
                sge.addr + sge.length <= mr.addr + mr.length):
            raise VerbsError("sge outside memory region (LOC_PROT_ERR)")
        return mr

    def dma_gather(self, sg_list: List[ibv_sge]) -> Tuple[bytes, float]:
        """Read the scatter/gather list; returns (real bytes, logical len)."""
        chunks: List[bytes] = []
        logical = 0.0
        for sge in sg_list:
            self._mr_for_lkey(sge)
            chunks.append(self.memory.read(sge.addr, sge.length))
            region = self.memory.region_at(sge.addr, sge.length)
            logical += sge.length * region.repr_scale
        return b"".join(chunks), logical

    def dma_scatter(self, sg_list: List[ibv_sge], data: bytes) -> int:
        """Write ``data`` across the scatter list; returns bytes placed."""
        capacity = sum(s.length for s in sg_list)
        if len(data) > capacity:
            raise VerbsError("message longer than receive buffer (LOC_LEN)")
        offset = 0
        for sge in sg_list:
            if offset >= len(data):
                break
            self._mr_for_lkey(sge)
            chunk = data[offset: offset + sge.length]
            self.memory.write(sge.addr, chunk)
            offset += len(chunk)
        return offset

    def rdma_access(self, rkey: int, addr: int, length: int,
                    write: bool) -> Any:
        """Validate a remote access; returns the MR or raises."""
        mr = self.mrs_by_rkey.get(rkey)
        if mr is None:
            raise VerbsError(f"invalid rkey {rkey:#x} (REM_ACCESS_ERR)")
        needed = AccessFlags.REMOTE_WRITE if write else AccessFlags.REMOTE_READ
        if not (mr.access & needed):
            raise VerbsError("access flags forbid remote op (REM_ACCESS_ERR)")
        if not (mr.addr <= addr and addr + length <= mr.addr + mr.length):
            raise VerbsError("remote access outside region (REM_ACCESS_ERR)")
        return mr


class QpHardware:
    """Reliable-connection queue pair engine.

    One in-flight message at a time per QP (ack-clocked), which preserves
    RC's per-QP ordering; the ack round-trip is what separates receive-side
    and send-side completion times.
    """

    def __init__(self, session: DriverSession, qpn: int, qp_struct,
                 qp_type: QpType):
        self.session = session
        self.env = session.env
        self.qpn = qpn
        self.qp_struct = qp_struct    # real ibv_qp (for state/sq_sig_all)
        self.qp_type = qp_type
        self.send_queue: Store = Store(session.env)
        # a QP attached to an SRQ takes its receive WQEs from there
        self.recv_queue: Optional[Deque[ibv_recv_wr]] = (
            deque() if qp_struct.srq is None else None)
        self.dest: Optional[Tuple[int, int]] = None  # (dlid, dqpn)
        self.attrs: Dict[str, Any] = {}
        self._msn = 0
        self._engine = None
        self._ack_events: Dict[int, Any] = {}       # msn -> sim Event
        self._read_resp: Dict[int, Any] = {}        # msn -> sim Event
        self.destroyed = False
        session.hca.register_qp(qpn, self.on_packet)
        session.qps[qpn] = self

    # -- control --------------------------------------------------------------

    def set_dest(self, dlid: int, dqpn: int) -> None:
        self.dest = (dlid, dqpn)

    def start_engine(self) -> None:
        if self._engine is None:
            self._engine = self.env.process(
                self._send_engine(), name=f"qp{self.qpn}.engine")

    def destroy(self) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        self.qp_struct = None  # the struct's _hw points back here
        self.session.hca.unregister_qp(self.qpn)
        self.session.qps.pop(self.qpn, None)
        if self._engine is not None and self._engine.is_alive:
            self._engine.kill()
        # flush: posted-but-unprocessed WQEs complete with WR_FLUSH_ERR if
        # the QP was moved to ERR (modelled by the verbs layer); destroy
        # simply discards.

    # -- posting ---------------------------------------------------------------

    def post_send(self, wr: ibv_send_wr) -> None:
        if self.qp_struct.state not in (QpState.RTS,):
            raise VerbsError(
                f"post_send on QP in state {self.qp_struct.state.name}")
        self.start_engine()
        self.send_queue.put(wr)

    def post_recv(self, chain: Sequence[ibv_recv_wr]) -> None:
        if self.qp_struct.state in (QpState.RESET, QpState.ERR):
            raise VerbsError(
                f"post_recv on QP in state {self.qp_struct.state.name}",
                bad_wr=0)
        self.recv_queue.extend(chain)

    # -- send engine -------------------------------------------------------------

    def _send_engine(self) -> Generator:
        while True:
            wr: ibv_send_wr = yield self.send_queue.get()
            if self.qp_struct.state is not QpState.RTS:
                self._complete_send(wr, WcStatus.WR_FLUSH_ERR)
                continue
            try:
                yield from self._process_wr(wr)
            except VerbsError:
                self._complete_send(wr, WcStatus.LOC_PROT_ERR)
                self.qp_struct.state = QpState.ERR

    def _process_wr(self, wr: ibv_send_wr) -> Generator:
        session, hca = self.session, self.session.hca
        dlid, dqpn = self.dest
        self._msn += 1
        msn = self._msn

        if wr._inline_data is not None:
            payload, logical = wr._inline_data, float(len(wr._inline_data))
        else:
            payload, logical = session.dma_gather(wr.sg_list)

        if wr.opcode in (WrOpcode.SEND, WrOpcode.SEND_WITH_IMM):
            pkt = {"type": "send", "dst_qpn": dqpn, "src_qpn": self.qpn,
                   "src_lid": hca.lid, "msn": msn, "payload": payload,
                   "logical_len": logical,
                   "imm": wr.imm_data if wr.opcode is WrOpcode.SEND_WITH_IMM
                          else None}
            yield from self._send_acked(dlid, pkt, logical, wr, msn,
                                        WcOpcode.SEND)
        elif wr.opcode in (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM):
            with_imm = wr.opcode is WrOpcode.RDMA_WRITE_WITH_IMM
            pkt = {"type": "rdma_write", "dst_qpn": dqpn, "src_qpn": self.qpn,
                   "src_lid": hca.lid, "msn": msn, "payload": payload,
                   "logical_len": logical, "remote_addr": wr.remote_addr,
                   "rkey": wr.rkey,
                   "imm": wr.imm_data if with_imm else None}
            # §4: with immediate data (or inline), the completion is posted
            # only on the receiving node — the sender sees nothing.
            suppress = with_imm or wr._inline_data is not None
            yield from self._send_acked(dlid, pkt, logical, wr, msn,
                                        WcOpcode.RDMA_WRITE,
                                        suppress_completion=suppress)
        elif wr.opcode is WrOpcode.RDMA_READ:
            length = sum(s.length for s in wr.sg_list)
            pkt = {"type": "rdma_read_req", "dst_qpn": dqpn,
                   "src_qpn": self.qpn, "src_lid": hca.lid, "msn": msn,
                   "remote_addr": wr.remote_addr, "rkey": wr.rkey,
                   "length": length}
            resp_evt = self.env.event()
            self._read_resp[msn] = resp_evt
            yield from hca.hw_send(dlid, pkt, ACK_BYTES)
            resp = yield resp_evt
            if resp["status"] is not WcStatus.SUCCESS:
                self._complete_send(wr, resp["status"])
                self.qp_struct.state = QpState.ERR
                return
            placed = session.dma_scatter(wr.sg_list, resp["payload"])
            self._complete_send(wr, WcStatus.SUCCESS, WcOpcode.RDMA_READ,
                                byte_len=int(resp["logical_len"]))
        else:  # pragma: no cover - defensive
            raise VerbsError(f"unsupported opcode {wr.opcode}")

    def _send_acked(self, dlid: int, pkt: dict, logical: float,
                    wr: ibv_send_wr, msn: int, wc_opcode: WcOpcode,
                    suppress_completion: bool = False) -> Generator:
        """Transmit and wait for the ACK/NAK, honouring RNR retries."""
        hca = self.session.hca
        retries = self.attrs.get("rnr_retry", 7)
        infinite = retries == 7
        while True:
            ack_evt = self.env.event()
            self._ack_events[msn] = ack_evt
            yield from hca.hw_send(dlid, pkt, logical + ACK_BYTES)
            ack = yield ack_evt
            kind = ack["kind"]
            if kind == "ack":
                if not suppress_completion:
                    self._complete_send(wr, WcStatus.SUCCESS, wc_opcode,
                                        byte_len=int(logical))
                return
            if kind == "rnr":
                if not infinite and retries <= 0:
                    self._complete_send(wr, WcStatus.RNR_RETRY_EXC_ERR)
                    self.qp_struct.state = QpState.ERR
                    return
                retries -= 1
                yield self.env.timeout(RNR_TIMER_S)
                continue
            # remote access / protection NAK
            self._complete_send(wr, ack["status"])
            self.qp_struct.state = QpState.ERR
            return

    def _complete_send(self, wr: ibv_send_wr, status: WcStatus,
                       opcode: WcOpcode = WcOpcode.SEND,
                       byte_len: int = 0) -> None:
        signaled = (self.qp_struct.sq_sig_all
                    or bool(wr.send_flags._value_ & _F_SIGNALED))
        if status is WcStatus.SUCCESS and not signaled:
            return
        wc = ibv_wc(wr_id=wr.wr_id, status=status, opcode=opcode,
                    byte_len=byte_len, qp_num=self.qpn)
        self.qp_struct.send_cq._hw.push(wc)

    # -- receive path (runs in callback context; spawns helpers for replies) --

    def on_packet(self, pkt: dict) -> None:
        kind = pkt["type"]
        if kind == "ack":
            evt = self._ack_events.pop(pkt["msn"], None)
            if evt is not None and not evt.triggered:
                evt.succeed({"kind": "ack"})
        elif kind == "rnr":
            evt = self._ack_events.pop(pkt["msn"], None)
            if evt is not None and not evt.triggered:
                evt.succeed({"kind": "rnr"})
        elif kind == "nak":
            evt = self._ack_events.pop(pkt["msn"], None)
            if evt is not None and not evt.triggered:
                evt.succeed({"kind": "nak", "status": pkt["status"]})
        elif kind == "send":
            self._rx_send(pkt)
        elif kind == "rdma_write":
            self._rx_rdma_write(pkt)
        elif kind == "rdma_read_req":
            self._rx_rdma_read_req(pkt)
        elif kind == "rdma_read_resp":
            evt = self._read_resp.pop(pkt["msn"], None)
            if evt is not None and not evt.triggered:
                evt.succeed(pkt)

    def _reply(self, dst_lid: int, pkt: dict, size: float = ACK_BYTES) -> None:
        hca = self.session.hca

        def responder():
            yield from hca.hw_send(dst_lid, pkt, size)

        self.env.process(responder(), name=f"qp{self.qpn}.reply")

    def _take_recv_wqe(self) -> Optional[ibv_recv_wr]:
        queue = self.recv_queue
        if queue is None:
            return self.qp_struct.srq._hw.take()
        return queue.popleft() if queue else None

    def _rx_send(self, pkt: dict) -> None:
        wqe = self._take_recv_wqe()
        if wqe is None:
            # receiver not ready: it is an application error to send before
            # a receive buffer is posted (§2.1.1 step 9) — hardware answers
            # with an RNR NAK and the sender retries
            self._reply(pkt["src_lid"], {"type": "rnr", "msn": pkt["msn"],
                                         "dst_qpn": pkt["src_qpn"]})
            return
        try:
            self.session.dma_scatter(wqe.sg_list, pkt["payload"])
        except VerbsError:
            self._push_recv_wc(wqe, pkt, WcStatus.LOC_LEN_ERR)
            self._reply(pkt["src_lid"],
                        {"type": "nak", "msn": pkt["msn"],
                         "dst_qpn": pkt["src_qpn"],
                         "status": WcStatus.LOC_LEN_ERR})
            return
        self._push_recv_wc(wqe, pkt, WcStatus.SUCCESS)
        self._reply(pkt["src_lid"], {"type": "ack", "msn": pkt["msn"],
                                     "dst_qpn": pkt["src_qpn"]})

    def _push_recv_wc(self, wqe: ibv_recv_wr, pkt: dict,
                      status: WcStatus,
                      opcode: WcOpcode = WcOpcode.RECV) -> None:
        wc = ibv_wc(wr_id=wqe.wr_id, status=status, opcode=opcode,
                    byte_len=int(pkt.get("logical_len", 0)),
                    imm_data=pkt.get("imm"), qp_num=self.qpn,
                    src_qp=pkt.get("src_qpn", 0))
        self.qp_struct.recv_cq._hw.push(wc)

    def _rx_rdma_write(self, pkt: dict) -> None:
        try:
            self.session.rdma_access(pkt["rkey"], pkt["remote_addr"],
                                     len(pkt["payload"]), write=True)
            self.session.memory.write(pkt["remote_addr"], pkt["payload"])
        except (VerbsError, MemoryError_):
            self._reply(pkt["src_lid"],
                        {"type": "nak", "msn": pkt["msn"],
                         "dst_qpn": pkt["src_qpn"],
                         "status": WcStatus.REM_ACCESS_ERR})
            return
        if pkt.get("imm") is not None:
            wqe = self._take_recv_wqe()
            if wqe is None:
                self._reply(pkt["src_lid"],
                            {"type": "rnr", "msn": pkt["msn"],
                             "dst_qpn": pkt["src_qpn"]})
                return
            self._push_recv_wc(wqe, pkt, WcStatus.SUCCESS,
                               WcOpcode.RECV_RDMA_WITH_IMM)
        self._reply(pkt["src_lid"], {"type": "ack", "msn": pkt["msn"],
                                     "dst_qpn": pkt["src_qpn"]})

    def _rx_rdma_read_req(self, pkt: dict) -> None:
        try:
            self.session.rdma_access(pkt["rkey"], pkt["remote_addr"],
                                     pkt["length"], write=False)
            data = self.session.memory.read(pkt["remote_addr"],
                                            pkt["length"])
            region = self.session.memory.region_at(pkt["remote_addr"],
                                                   pkt["length"])
            logical = pkt["length"] * region.repr_scale
            resp = {"type": "rdma_read_resp", "msn": pkt["msn"],
                    "dst_qpn": pkt["src_qpn"], "payload": data,
                    "logical_len": logical, "status": WcStatus.SUCCESS}
            self._reply(pkt["src_lid"], resp, size=logical + ACK_BYTES)
        except (VerbsError, MemoryError_):
            self._reply(pkt["src_lid"],
                        {"type": "rdma_read_resp", "msn": pkt["msn"],
                         "dst_qpn": pkt["src_qpn"], "payload": b"",
                         "logical_len": 0.0,
                         "status": WcStatus.REM_ACCESS_ERR})
