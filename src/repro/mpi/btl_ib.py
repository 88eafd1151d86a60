"""The InfiniBand byte-transfer layer of the mini-MPI.

Protocol (mirrors Open MPI's openib BTL at the fidelity the paper needs):

* per-peer RC queue pairs, created lazily; connection wire-up exchanges
  (lid, qp_num) over an out-of-band TCP channel carrying the *virtual* ids
  the verbs library handed us — exactly the §3.2.1 bootstrapping path;
* one completion queue and one shared receive queue per rank; control
  messages (envelopes, CTS, FIN) land in pre-posted SRQ slots;
* small payloads travel inline in the envelope (eager); large payloads use
  rendezvous — envelope → CTS (exposing the receiver's rkey) → RDMA write
  straight between application buffers → FIN.  Open MPI's default RDMA
  path is what the paper checkpoints, so the plugin's rkey virtualization
  is on the hot path here.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..dmtcp.process import AppContext
from ..ibverbs.connect import qp_to_init, qp_to_rtr, qp_to_rts
from ..ibverbs.enums import AccessFlags, WcOpcode, WrOpcode
from ..ibverbs.structs import (
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from ..memory import Region
from ..net.tcp import TcpStack

__all__ = ["IbBtl", "EAGER_LIMIT", "CTRL_SLOT"]

EAGER_LIMIT = 12 * 1024      # classic openib BTL eager ceiling (the
                             # Communicator uses its inline threshold)
CTRL_SLOT = 512              # bytes per pre-posted control slot
_N_CTRL_SLOTS = 256
_FULL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
         | AccessFlags.REMOTE_READ)
BTL_PORT_BASE = 25000


class IbBtl:
    """One rank's IB endpoint."""

    def __init__(self, ctx: AppContext, rank: int, size: int):
        self.ctx = ctx
        self.rank = rank
        self.size = size
        self.on_control: Optional[Callable[[int, dict], None]] = None
        ibv = ctx.ibv
        self.ibctx = ibv.open_device(ibv.get_device_list()[0])
        self.pd = ibv.alloc_pd(self.ibctx)
        self.cq = ibv.create_cq(self.ibctx, cqe=65536)
        self.srq = ibv.create_srq(self.pd, max_wr=_N_CTRL_SLOTS + 16)
        self.lid = ibv.query_port(self.ibctx).lid
        # control slots: one region, N slots, pre-posted to the SRQ
        # (ensure: a chaos restart restores these regions before the BTL
        # is rebuilt from scratch, so adopt rather than remap)
        self.ctrl = ctx.memory.ensure(f"{ctx.name}.mpi.ctrl",
                                      CTRL_SLOT * _N_CTRL_SLOTS)
        self.ctrl_mr = ibv.reg_mr(self.pd, self.ctrl.addr,
                                  self.ctrl.size, _FULL)
        self._ctrl_wrs = self._make_ctrl_wrs()
        ibv.post_srq_recv(self.srq, self._ctrl_wrs)
        # send staging ring for control messages
        self.stage = ctx.memory.ensure(f"{ctx.name}.mpi.stage",
                                       CTRL_SLOT * 64)
        self.stage_mr = ibv.reg_mr(self.pd, self.stage.addr,
                                   self.stage.size, _FULL)
        self._stage_next = 0
        self._qps: Dict[int, Any] = {}           # peer rank -> virtual qp
        self._ready: Dict[int, Any] = {}         # peer rank -> ready event
        self._qp_rank: Dict[int, int] = {}       # virtual qpn -> peer rank
        self._mr_cache: Dict[int, Any] = {}      # region addr -> virtual mr
        self._pending_sends: Dict[int, Any] = {} # wr_id -> completion event
        self._wr_ids = itertools.count(1)
        self._progress = None
        self._stopped = False
        # out-of-band connection service (the §3.2.1 side channel)
        self.oob_port = BTL_PORT_BASE + rank
        self._oob_listener = None
        self.peer_dir: Dict[int, str] = {}       # rank -> hostname

    # -- wire-up ---------------------------------------------------------------

    def start(self, peer_dir: Dict[int, str]) -> None:
        """Begin accepting lazy-connect requests and progressing."""
        self.peer_dir = peer_dir
        stack = TcpStack.of(self.ctx.proc.node)
        self._oob_listener = stack.listen(self.oob_port)
        self._oob_thread = self.ctx.proc.spawn_thread(
            self._oob_accept_loop(), name=f"{self.ctx.name}.btl.oob")
        self._progress = self.ctx.proc.spawn_thread(
            self._progress_loop(), name=f"{self.ctx.name}.btl.progress")
        self.ctx.on_restart.append(self._after_restart)

    def _after_restart(self, appctx) -> None:
        """Re-create the OOB listener on the restart cluster's network
        (listening TCP sockets are handled by DMTCP's socket plugin in real
        life — prior work; here the runtime rebuilds them).  Existing QP
        connections keep working through the plugin's virtualization; the
        stale hostname directory is refreshed from the restart
        name-service exchange."""
        prefix = appctx.name.rsplit(".r", 1)[0]
        db = getattr(appctx, "restart_db", {})
        for rank in range(self.size):
            host = db.get(f"__host:{prefix}.r{rank}")
            if host is not None:
                self.peer_dir[rank] = host
        if self._oob_thread is not None and self._oob_thread.is_alive:
            self._oob_thread.kill()
        stack = TcpStack.of(appctx.proc.node)
        self._oob_listener = stack.listen(self.oob_port)
        self._oob_thread = appctx.proc.spawn_thread(
            self._oob_accept_loop(), name=f"{appctx.name}.btl.oob")

    def _make_qp(self):
        ibv = self.ctx.ibv
        return ibv.create_qp(self.pd, ibv_qp_init_attr(
            send_cq=self.cq, recv_cq=self.cq, srq=self.srq,
            max_send_wr=4096))

    def _oob_accept_loop(self) -> Generator:
        while True:
            conn = yield self._oob_listener.accept()
            req = yield conn.recv()
            # passive side of a lazy connect
            qp = self._make_qp()
            ibv = self.ctx.ibv
            qp_to_init(ibv, qp)
            qp_to_rtr(ibv, qp, dest_qp_num=req["qpn"], dlid=req["lid"])
            qp_to_rts(ibv, qp)
            self._qp_rank[qp.qp_num] = req["rank"]
            # if both sides connected simultaneously, keep the first QP we
            # got for sending (either pair works; the SRQ receives from any)
            if req["rank"] not in self._qps:
                self._qps[req["rank"]] = qp
                ready = self._ready.setdefault(req["rank"],
                                               self.ctx.env.event())
                if not ready.triggered:
                    ready.succeed()
            yield from conn.send({"qpn": qp.qp_num, "lid": self.lid})

    def connect(self, peer: int) -> Generator:
        """Ensure a ready QP to ``peer`` (waits if a connect is running)."""
        ready = self._ready.get(peer)
        if ready is not None:
            if not ready.triggered:
                yield ready
            return self._qps[peer]
        ready = self.ctx.env.event()
        self._ready[peer] = ready
        ibv = self.ctx.ibv
        qp = self._make_qp()
        self._qp_rank[qp.qp_num] = peer
        stack = TcpStack.of(self.ctx.proc.node)
        conn = yield from stack.connect(self.peer_dir[peer],
                                        BTL_PORT_BASE + peer)
        yield from conn.send({"rank": self.rank, "qpn": qp.qp_num,
                              "lid": self.lid})
        reply = yield conn.recv()
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, dest_qp_num=reply["qpn"], dlid=reply["lid"])
        qp_to_rts(ibv, qp)
        conn.close()
        if peer not in self._qps:
            self._qps[peer] = qp
        if not ready.triggered:
            ready.succeed()
        return self._qps[peer]

    # -- CRS support: full network teardown / rebuild ---------------------------------
    #
    # Open MPI's BLCR-based checkpoint-restart service cannot checkpoint
    # live InfiniBand state, so it closes the openib BTL (destroying QPs,
    # deregistering every pinned region) before calling BLCR, and rebuilds
    # it afterwards — the paper's "tear down the network" baseline.

    def crs_teardown(self) -> None:
        ibv = self.ctx.ibv
        for qp in self._qps.values():
            ibv.destroy_qp(qp)
        self._qps.clear()
        self._ready.clear()
        for mr in self._mr_cache.values():
            ibv.dereg_mr(mr)
        self._mr_cache.clear()
        ibv.dereg_mr(self.ctrl_mr)
        ibv.dereg_mr(self.stage_mr)
        ibv.destroy_srq(self.srq)
        ibv.destroy_cq(self.cq)

    def crs_rebuild(self) -> None:
        """Re-create CQ/SRQ/registrations; QPs reconnect lazily on demand."""
        ibv = self.ctx.ibv
        self.cq = ibv.create_cq(self.ibctx, cqe=65536)
        self.srq = ibv.create_srq(self.pd, max_wr=_N_CTRL_SLOTS + 16)
        self.ctrl_mr = ibv.reg_mr(self.pd, self.ctrl.addr, self.ctrl.size,
                                  _FULL)
        self.stage_mr = ibv.reg_mr(self.pd, self.stage.addr,
                                   self.stage.size, _FULL)
        self._ctrl_wrs = self._make_ctrl_wrs()  # new lkey after re-reg
        ibv.post_srq_recv(self.srq, self._ctrl_wrs)

    def kick_progress(self) -> None:
        """Spurious-wake the progress loop (its old CQ-notify event died
        with the torn-down completion queue)."""
        if self._progress is not None and self._progress.is_alive:
            target = self._progress._target
            if target is not None and not target.triggered:
                target.succeed()

    def pending_traffic(self) -> int:
        """Outstanding local sends (the CRS quiesce waits for zero)."""
        return len(self._pending_sends)

    # -- memory registration cache --------------------------------------------------

    def mr_for(self, region: Region):
        mr = self._mr_cache.get(region.addr)
        if mr is None:
            mr = self.ctx.ibv.reg_mr(self.pd, region.addr, region.size,
                                     _FULL)
            self._mr_cache[region.addr] = mr
        return mr

    # -- control-message send ------------------------------------------------------------

    def send_control(self, peer: int, msg: dict,
                     signaled: bool = False) -> Generator:
        """Pickle ``msg`` into a staging slot and post a SEND."""
        qp = yield from self.connect(peer)
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        if len(data) > CTRL_SLOT:
            raise ValueError(f"control message too large ({len(data)}B)")
        slot = self._stage_next % 64
        self._stage_next += 1
        addr = self.stage.addr + slot * CTRL_SLOT
        self.ctx.memory.write(addr, data)
        wr_id = next(self._wr_ids)
        self.ctx.ibv.post_send(qp, ibv_send_wr(
            wr_id=wr_id, sg_list=(ibv_sge(addr, len(data),
                                          self.stage_mr.lkey),),
            opcode=WrOpcode.SEND))
        evt = self.ctx.env.event()
        self._pending_sends[wr_id] = evt
        yield evt  # completion = slot reusable

    # -- rendezvous data transfer ----------------------------------------------------------

    def rdma_put(self, peer: int, region: Region, offset: int,
                 nbytes: int, rts_id: int, raddr: int,
                 rkey: int) -> Generator:
        """RDMA-write ``nbytes`` of ``region`` into the peer's exposed
        buffer, then send the FIN control message."""
        qp = yield from self.connect(peer)  # may re-establish after a CRS
        mr = self.mr_for(region)
        wr_id = next(self._wr_ids)
        self.ctx.ibv.post_send(qp, ibv_send_wr(
            wr_id=wr_id,
            sg_list=(ibv_sge(region.addr + offset, nbytes, mr.lkey),),
            opcode=WrOpcode.RDMA_WRITE, remote_addr=raddr, rkey=rkey))
        evt = self.ctx.env.event()
        self._pending_sends[wr_id] = evt
        yield evt
        yield from self.send_control(peer, {"kind": "fin", "rts": rts_id})

    # -- progress engine ---------------------------------------------------------------------

    def _make_ctrl_wrs(self) -> Tuple[ibv_recv_wr, ...]:
        """Per-slot receive WRs, pre-posted as one chain and re-posted one
        at a time on slot re-arm.  A receive WR is an immutable value, so
        the plugin's log and the driver's queue hold these very objects:
        one value per slot, however often it is posted.  Rebuilt whenever
        ``ctrl_mr`` is re-registered (CRS teardown/rebuild), since the
        lkey changes."""
        return tuple(ibv_recv_wr(slot, (
                         ibv_sge(self.ctrl.addr + slot * CTRL_SLOT,
                                 CTRL_SLOT, self.ctrl_mr.lkey),))
                     for slot in range(_N_CTRL_SLOTS))

    def _post_ctrl_slot(self, slot: int) -> None:
        self.ctx.ibv.post_srq_recv(self.srq, self._ctrl_wrs[slot])

    def stop(self) -> None:
        self._stopped = True

    def _progress_loop(self) -> Generator:
        ibv = self.ctx.ibv
        while not self._stopped:
            wcs = ibv.poll_cq(self.cq, 32)
            if not wcs:
                notify = ibv.req_notify_cq(self.cq)
                yield ibv.get_cq_event(notify)
                yield self.ctx.compute(seconds=0.0)  # pay wrapper overhead
                continue
            for wc in wcs:
                self._handle_wc(wc)

    def _handle_wc(self, wc) -> None:
        if wc.opcode is WcOpcode.RECV:
            slot = wc.wr_id
            raw = self.ctx.memory.read(self.ctrl.addr + slot * CTRL_SLOT,
                                       CTRL_SLOT)
            msg = pickle.loads(raw)
            self._post_ctrl_slot(slot)  # re-arm the slot
            peer = self._qp_rank.get(wc.qp_num)
            if self.on_control is not None:
                self.on_control(peer, msg)
        elif wc.opcode in (WcOpcode.SEND, WcOpcode.RDMA_WRITE,
                           WcOpcode.RDMA_READ):
            evt = self._pending_sends.pop(wc.wr_id, None)
            if evt is not None and not evt.triggered:
                evt.succeed(wc)
