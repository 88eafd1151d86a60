"""GASNet-like core over the ibv conduit (paper §6.3's substrate).

Berkeley UPC compiles to GASNet; on InfiniBand clusters GASNet's ibv
conduit talks to libibverbs directly — *not* through MPI — which is why
the paper's UPC result demonstrates generality.  This core provides the
pieces UPC needs: a pinned shared segment per thread, one-sided ``put``
/``get`` mapped to RDMA write/read against published segment rkeys, and
active-message shorts for barriers — all wired up over an out-of-band TCP
exchange at startup (full mesh, as the ibv conduit does at gasnet_init).
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Callable, Dict, Generator, Optional

from ..dmtcp.process import AppContext
from ..ibverbs.connect import qp_to_init, qp_to_rtr, qp_to_rts
from ..ibverbs.enums import AccessFlags, WcOpcode, WrOpcode
from ..ibverbs.structs import (
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from ..net.tcp import TcpStack

__all__ = ["GasnetCore", "GASNET_PORT"]

GASNET_PORT = 27000
_AM_SLOT = 256
_N_AM_SLOTS = 128
_FULL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
         | AccessFlags.REMOTE_READ)


class GasnetCore:
    """One UPC thread's network endpoint."""

    def __init__(self, ctx: AppContext, mythread: int, threads: int,
                 segment_bytes: int, segment_scale: float = 1.0):
        self.ctx = ctx
        self.mythread = mythread
        self.threads = threads
        self.am_handler: Optional[Callable[[int, dict], None]] = None
        ibv = ctx.ibv
        self.ibctx = ibv.open_device(ibv.get_device_list()[0])
        self.pd = ibv.alloc_pd(self.ibctx)
        self.cq = ibv.create_cq(self.ibctx, cqe=16384)
        self.srq = ibv.create_srq(self.pd, max_wr=_N_AM_SLOTS + 8)
        self.lid = ibv.query_port(self.ibctx).lid
        # the pinned shared segment (UPC's share of the global address space)
        self.segment = ctx.memory.mmap(f"{ctx.name}.upc.segment",
                                       segment_bytes,
                                       repr_scale=segment_scale)
        self.seg_mr = ibv.reg_mr(self.pd, self.segment.addr, segment_bytes,
                                 _FULL)
        # AM slots + staging
        self.am = ctx.memory.mmap(f"{ctx.name}.upc.am",
                                  _AM_SLOT * _N_AM_SLOTS)
        self.am_mr = ibv.reg_mr(self.pd, self.am.addr, self.am.size, _FULL)
        for slot in range(_N_AM_SLOTS):
            self._post_am_slot(slot)
        self.stage = ctx.memory.mmap(f"{ctx.name}.upc.stage", _AM_SLOT * 32)
        self.stage_mr = ibv.reg_mr(self.pd, self.stage.addr,
                                   self.stage.size, _FULL)
        self._stage_next = 0
        self._qps: Dict[int, Any] = {}
        self._qp_thread: Dict[int, int] = {}
        self.peer_segments: Dict[int, dict] = {}   # thread -> {addr, rkey}
        self._pending: Dict[int, Any] = {}
        self._wr_ids = itertools.count(1)
        self._progress = None

    # -- full-mesh wire-up (gasnet_init) --------------------------------------------

    def attach(self, thread0_host: str) -> Generator:
        """Exchange (lid, qpns, segment) via thread 0 and connect the mesh."""
        ibv = self.ctx.ibv
        my_qpns = {}
        for peer in range(self.threads):
            if peer == self.mythread:
                continue
            qp = ibv.create_qp(self.pd, ibv_qp_init_attr(
                send_cq=self.cq, recv_cq=self.cq, srq=self.srq,
                max_send_wr=4096))
            self._qps[peer] = qp
            self._qp_thread[qp.qp_num] = peer
            my_qpns[peer] = qp.qp_num
        my_info = {"thread": self.mythread,
                   "host": self.ctx.proc.node.name, "lid": self.lid,
                   "qpns": my_qpns, "seg_addr": self.segment.addr,
                   "seg_rkey": self.seg_mr.rkey}
        stack = TcpStack.of(self.ctx.proc.node)
        if self.mythread == 0:
            listener = stack.listen(GASNET_PORT)
            table = {0: my_info}
            conns = []
            for _ in range(self.threads - 1):
                conn = yield listener.accept()
                info = yield conn.recv()
                table[info["thread"]] = info
                conns.append(conn)
            for conn in conns:
                yield from conn.send(table,
                                     size=256.0 * len(table))
            listener.close()
        else:
            conn = yield from stack.connect(thread0_host, GASNET_PORT)
            yield from conn.send(my_info)
            table = yield conn.recv()
            conn.close()
        for peer, info in table.items():
            if peer == self.mythread:
                continue
            self.peer_segments[peer] = {"addr": info["seg_addr"],
                                        "rkey": info["seg_rkey"]}
            qp = self._qps[peer]
            qp_to_init(ibv, qp)
            qp_to_rtr(ibv, qp, dest_qp_num=info["qpns"][self.mythread],
                      dlid=info["lid"])
            qp_to_rts(ibv, qp)
        self._progress = self.ctx.proc.spawn_thread(
            self._progress_loop(), name=f"{self.ctx.name}.gasnet.progress")

    # -- one-sided memory operations --------------------------------------------------

    def put(self, thread: int, seg_offset: int, local_addr: int,
            nbytes: int) -> Generator:
        """RDMA-write local memory into the peer's shared segment."""
        seg = self.peer_segments[thread]
        qp = self._qps[thread]
        wr_id = next(self._wr_ids)
        self.ctx.ibv.post_send(qp, ibv_send_wr(
            wr_id=wr_id,
            sg_list=(ibv_sge(local_addr, nbytes, self.seg_mr.lkey),),
            opcode=WrOpcode.RDMA_WRITE,
            remote_addr=seg["addr"] + seg_offset, rkey=seg["rkey"]))
        evt = self.ctx.env.event()
        self._pending[wr_id] = evt
        yield evt

    def get(self, thread: int, seg_offset: int, local_addr: int,
            nbytes: int) -> Generator:
        """RDMA-read from the peer's shared segment into local memory."""
        seg = self.peer_segments[thread]
        qp = self._qps[thread]
        wr_id = next(self._wr_ids)
        self.ctx.ibv.post_send(qp, ibv_send_wr(
            wr_id=wr_id,
            sg_list=(ibv_sge(local_addr, nbytes, self.seg_mr.lkey),),
            opcode=WrOpcode.RDMA_READ,
            remote_addr=seg["addr"] + seg_offset, rkey=seg["rkey"]))
        evt = self.ctx.env.event()
        self._pending[wr_id] = evt
        yield evt

    # -- active messages -----------------------------------------------------------------

    def am_send(self, thread: int, msg: dict) -> Generator:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        if len(data) > _AM_SLOT:
            raise ValueError("AM payload too large")
        slot = self._stage_next % 32
        self._stage_next += 1
        addr = self.stage.addr + slot * _AM_SLOT
        self.ctx.memory.write(addr, data)
        wr_id = next(self._wr_ids)
        self.ctx.ibv.post_send(self._qps[thread], ibv_send_wr(
            wr_id=wr_id,
            sg_list=(ibv_sge(addr, len(data), self.stage_mr.lkey),),
            opcode=WrOpcode.SEND))
        evt = self.ctx.env.event()
        self._pending[wr_id] = evt
        yield evt

    # -- progress ------------------------------------------------------------------------------

    def _post_am_slot(self, slot: int) -> None:
        self.ctx.ibv.post_srq_recv(self.srq, ibv_recv_wr(
            wr_id=slot, sg_list=(ibv_sge(self.am.addr + slot * _AM_SLOT,
                                         _AM_SLOT, self.am_mr.lkey),)))

    def _progress_loop(self) -> Generator:
        ibv = self.ctx.ibv
        while True:
            wcs = ibv.poll_cq(self.cq, 32)
            if not wcs:
                notify = ibv.req_notify_cq(self.cq)
                yield ibv.get_cq_event(notify)
                yield self.ctx.compute(seconds=0.0)
                continue
            for wc in wcs:
                if wc.opcode is WcOpcode.RECV:
                    slot = wc.wr_id
                    raw = self.ctx.memory.read(
                        self.am.addr + slot * _AM_SLOT, _AM_SLOT)
                    msg = pickle.loads(raw)
                    self._post_am_slot(slot)
                    src = self._qp_thread.get(wc.qp_num)
                    if self.am_handler is not None:
                        self.am_handler(src, msg)
                else:
                    evt = self._pending.pop(wc.wr_id, None)
                    if evt is not None and not evt.triggered:
                        evt.succeed(wc)
