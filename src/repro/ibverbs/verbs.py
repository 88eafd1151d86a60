"""The verbs library API surface (libibverbs).

One :class:`VerbsLib` instance is the library as loaded into one process.
Functions that OFED implements as inlines (``post_send``, ``post_recv``,
``post_srq_recv``, ``poll_cq``, ``req_notify_cq``) dispatch through the
``ops`` function-pointer table of whatever context the passed struct refers
to — the property the paper's Principle 2 exploits: a plugin interposes by
replacing those pointers, never the inline bodies.

Every driver-level entry validates the hidden ``_driver_blob``; structs
minted by a dead driver session (i.e. before a restart) raise
:class:`StaleResourceError`.
"""

from __future__ import annotations

import itertools
from typing import List

from ..hardware.node import ProcessHost
from .enums import (
    AccessFlags,
    QpAttrMask,
    QpState,
    QpType,
    SendFlags,
    qp_transition_legal,
)
from .structs import (
    RecvWrs,
    StaleResourceError,
    VerbsError,
    ibv_context,
    ibv_context_ops,
    ibv_cq,
    ibv_device,
    ibv_mr,
    ibv_pd,
    ibv_port_attr,
    ibv_qp,
    ibv_qp_attr,
    ibv_qp_init_attr,
    ibv_send_wr,
    ibv_srq,
    ibv_wc,
    recv_chain,
)
from .transport import CqHardware, DriverSession, QpHardware, SrqHardware

__all__ = ["VerbsLib"]

_pd_handles = itertools.count(0x10)

# raw mask bits: IntFlag ``&`` builds a new flag instance per use, which
# is measurable at O(ranks) QPs x 8 mask tests — compare plain ints instead
_M_STATE = QpAttrMask.STATE._value_
_M_AV = QpAttrMask.AV._value_
_M_DEST_QPN = QpAttrMask.DEST_QPN._value_
_M_RNR_RETRY = QpAttrMask.RNR_RETRY._value_
_M_RETRY_CNT = QpAttrMask.RETRY_CNT._value_
_M_TIMEOUT = QpAttrMask.TIMEOUT._value_
_M_MIN_RNR_TIMER = QpAttrMask.MIN_RNR_TIMER._value_
_F_INLINE = SendFlags.INLINE._value_


class _Blob:
    """Hidden device-dependent driver state carried by real structs."""

    __slots__ = ("session", "kind")

    def __init__(self, session: DriverSession, kind: str):
        self.session = session
        self.kind = kind


class VerbsLib:
    """libibverbs as loaded into one simulated process."""

    def __init__(self, proc: ProcessHost):
        self.proc = proc
        self.env = proc.env
        self.sessions: List[DriverSession] = []

    # -- device management ---------------------------------------------------

    def get_device_list(self) -> List[ibv_device]:
        hca = self.proc.node.hca
        if hca is None:
            return []
        return [ibv_device(name=f"{hca.vendor}_0", vendor=hca.vendor,
                           guid=hca.guid, hw=hca)]

    def open_device(self, device: ibv_device) -> ibv_context:
        if device.hw is None or device.hw.port is None:
            raise VerbsError(f"device {device.name} not present/attached")
        session = DriverSession(self.proc, device.hw)
        self.sessions.append(session)
        ops = ibv_context_ops(
            post_send=self._drv_post_send,
            post_recv=self._drv_post_recv,
            post_srq_recv=self._drv_post_srq_recv,
            poll_cq=self._drv_poll_cq,
            req_notify_cq=self._drv_req_notify_cq,
        )
        return ibv_context(device=device, ops=ops,
                           _driver_blob=_Blob(session, "context"))

    def close_device(self, ctx: ibv_context) -> None:
        session = self._session(ctx)
        session.close()

    def query_port(self, ctx: ibv_context, port_num: int = 1) -> ibv_port_attr:
        session = self._session(ctx)
        return ibv_port_attr(lid=session.hca.lid)

    # -- protection domains ----------------------------------------------------

    def alloc_pd(self, ctx: ibv_context) -> ibv_pd:
        session = self._session(ctx)
        return ibv_pd(context=ctx, handle=next(_pd_handles),
                      _driver_blob=_Blob(session, "pd"))

    def dealloc_pd(self, pd: ibv_pd) -> None:
        self._session(pd)

    # -- memory regions -----------------------------------------------------------

    def reg_mr(self, pd: ibv_pd, addr: int, length: int,
               access: AccessFlags = AccessFlags.LOCAL_WRITE) -> ibv_mr:
        session = self._session(pd)
        session.memory.pin(addr, length)  # raises on unmapped range
        lkey = session.hca.alloc_key()
        rkey = session.hca.alloc_key()
        mr = ibv_mr(context=pd.context, pd=pd, addr=addr, length=length,
                    lkey=lkey, rkey=rkey, access=access,
                    _driver_blob=_Blob(session, "mr"))
        session.mrs_by_lkey[lkey] = mr
        session.mrs_by_rkey[rkey] = mr
        return mr

    def dereg_mr(self, mr: ibv_mr) -> None:
        session = self._session(mr)
        session.memory.unpin(mr.addr, mr.length)
        session.mrs_by_lkey.pop(mr.lkey, None)
        session.mrs_by_rkey.pop(mr.rkey, None)

    # -- completion queues -----------------------------------------------------------

    def create_cq(self, ctx: ibv_context, cqe: int = 4096) -> ibv_cq:
        session = self._session(ctx)
        hw = CqHardware(self.env, cqe)
        session.cqs.append(hw)
        return ibv_cq(context=ctx, cqe=cqe,
                      _driver_blob=_Blob(session, "cq"), _hw=hw)

    def destroy_cq(self, cq: ibv_cq) -> None:
        self._session(cq).cqs.remove(cq._hw)
        cq._hw = None

    def poll_cq(self, cq: ibv_cq, num_entries: int) -> List[ibv_wc]:
        """Inline function: dispatches through the ops table."""
        return cq.context.ops.poll_cq(cq, num_entries)

    def req_notify_cq(self, cq: ibv_cq, solicited_only: bool = False):
        return cq.context.ops.req_notify_cq(cq, solicited_only)

    def get_cq_event(self, notify_event):
        """Blocking wait on a req_notify_cq event (yield the result)."""
        return notify_event

    # -- shared receive queues ----------------------------------------------------

    def create_srq(self, pd: ibv_pd, max_wr: int = 4096) -> ibv_srq:
        session = self._session(pd)
        return ibv_srq(context=pd.context, pd=pd, max_wr=max_wr,
                       _driver_blob=_Blob(session, "srq"),
                       _hw=SrqHardware(max_wr))

    def modify_srq(self, srq: ibv_srq, limit: int) -> None:
        self._session(srq)
        if limit > srq.max_wr:
            # ibv_modify_srq answers EINVAL: the limit event would never
            # fire on a queue that cannot hold that many WQEs
            raise VerbsError(
                f"srq_limit {limit} exceeds the SRQ's max_wr {srq.max_wr}")
        srq.limit = limit

    def destroy_srq(self, srq: ibv_srq) -> None:
        self._session(srq)
        srq._hw = None

    def post_srq_recv(self, srq: ibv_srq, wrs: RecvWrs) -> None:
        return srq.context.ops.post_srq_recv(srq, wrs)

    # -- queue pairs -------------------------------------------------------------

    def create_qp(self, pd: ibv_pd, init_attr: ibv_qp_init_attr) -> ibv_qp:
        session = self._session(pd)
        if init_attr.send_cq is None or init_attr.recv_cq is None:
            raise VerbsError("create_qp requires send_cq and recv_cq")
        qpn = session.hca.alloc_qpn()
        qp = ibv_qp(context=pd.context, pd=pd, qp_num=qpn,
                    qp_type=init_attr.qp_type, state=QpState.RESET,
                    send_cq=init_attr.send_cq, recv_cq=init_attr.recv_cq,
                    srq=init_attr.srq, sq_sig_all=init_attr.sq_sig_all,
                    cap_max_send_wr=init_attr.max_send_wr,
                    cap_max_recv_wr=init_attr.max_recv_wr,
                    cap_max_inline_data=init_attr.max_inline_data,
                    _driver_blob=_Blob(session, "qp"))
        qp._hw = QpHardware(session, qpn, qp, init_attr.qp_type)
        return qp

    def modify_qp(self, qp: ibv_qp, attr: ibv_qp_attr,
                  mask: QpAttrMask) -> None:
        session = self._session(qp)
        hw: QpHardware = qp._hw
        m = mask._value_
        if m & _M_STATE:
            new = attr.qp_state
            # the one transition table (enums.LEGAL_QP_TRANSITIONS); the
            # plugin's restart replay goes through this same check
            if not qp_transition_legal(qp.state, new):
                raise VerbsError(
                    f"illegal QP transition {qp.state.name} -> {new.name}")
            if new is QpState.RTR and qp.qp_type is QpType.RC:
                if not (m & _M_DEST_QPN and m & _M_AV):
                    raise VerbsError(
                        "INIT->RTR requires DEST_QPN and AV (dlid)")
            qp.state = new
        if m & _M_DEST_QPN or m & _M_AV:
            dlid = attr.dlid if m & _M_AV else (
                hw.dest[0] if hw.dest else 0)
            dqpn = attr.dest_qp_num if m & _M_DEST_QPN else (
                hw.dest[1] if hw.dest else 0)
            hw.set_dest(dlid, dqpn)
        if m & _M_RNR_RETRY:
            hw.attrs["rnr_retry"] = attr.rnr_retry
        if m & _M_RETRY_CNT:
            hw.attrs["retry_cnt"] = attr.retry_cnt
        if m & _M_TIMEOUT:
            hw.attrs["timeout"] = attr.timeout
        if m & _M_MIN_RNR_TIMER:
            hw.attrs["min_rnr_timer"] = attr.min_rnr_timer
        if qp.state is QpState.RTS:
            hw.start_engine()

    def destroy_qp(self, qp: ibv_qp) -> None:
        self._session(qp)
        if qp._hw is not None:
            qp._hw.destroy()
            qp._hw = None
        qp.state = QpState.RESET

    def post_send(self, qp: ibv_qp, wr: ibv_send_wr) -> None:
        """Inline function: dispatches through the ops table."""
        return qp.context.ops.post_send(qp, wr)

    def post_recv(self, qp: ibv_qp, wrs: RecvWrs) -> None:
        return qp.context.ops.post_recv(qp, wrs)

    # -- driver-level implementations (installed in ops tables) -----------------

    def _drv_post_send(self, qp: ibv_qp, wr: ibv_send_wr) -> None:
        session = self._session(qp)
        wr = wr.copy()
        if wr.send_flags._value_ & _F_INLINE:
            total = sum(s.length for s in wr.sg_list)
            if total > qp.cap_max_inline_data:
                raise VerbsError("inline data exceeds max_inline_data")
            # inline data is copied out of user buffers at post time, and
            # no lkey validation happens (real inline sends need no MR)
            chunks = [session.memory.read(s.addr, s.length)
                      for s in wr.sg_list]
            wr._inline_data = b"".join(chunks)
        qp._hw.post_send(wr)

    # A receive post takes one WR or a chain of them and queues the values
    # it is handed, without a copy (a receive WR is immutable).  A refused
    # WR raises with ``bad_wr`` at its index; the WRs before it are queued.

    def _drv_post_recv(self, qp: ibv_qp, wrs: RecvWrs) -> None:
        self._session(qp)
        if qp.srq is not None:
            raise VerbsError("QP uses an SRQ; use post_srq_recv", bad_wr=0)
        qp._hw.post_recv(recv_chain(wrs))

    def _drv_post_srq_recv(self, srq: ibv_srq, wrs: RecvWrs) -> None:
        self._session(srq)
        srq._hw.post(recv_chain(wrs))

    def _drv_poll_cq(self, cq: ibv_cq, num_entries: int) -> List[ibv_wc]:
        self._session(cq)
        return cq._hw.poll(num_entries)

    def _drv_req_notify_cq(self, cq: ibv_cq, solicited_only: bool = False):
        self._session(cq)
        return cq._hw.req_notify()

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _session(struct) -> DriverSession:
        blob = struct._driver_blob
        if blob is None:
            raise StaleResourceError(
                f"{type(struct).__name__} has no driver state (shadow "
                "struct passed to the real library?)")
        session = blob.session
        if not session.live:
            session.check_live()  # raises the canonical stale error
        return session
