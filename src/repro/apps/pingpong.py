"""A communication-intensive ibverbs ping-pong, after the OFED perftest
example the paper uses for the IB2TCP evaluation (§6.4.1).

Two ranks exchange fixed-size messages for a configured number of
iterations.  Wire-up follows the canonical recipe: each side creates
context → PD → MR → CQ → QP, then the (lid, qp_num, rkey, addr) tuple is
exchanged over an out-of-band TCP connection on port 18515 — the paper's
§3.2.1 out-of-band mechanism, which under DMTCP carries *virtual* ids.

The app is checkpoint-agnostic: it calls whatever ``ctx.ibv`` resolves to
(the real library natively, the plugin's wrappers under dmtcp_launch).
"""

from __future__ import annotations

from typing import Generator

from ..dmtcp.process import AppContext
from ..ibverbs.connect import qp_to_init, qp_to_rtr, qp_to_rts
from ..ibverbs.enums import AccessFlags, WrOpcode
from ..ibverbs.structs import ibv_qp_init_attr, ibv_recv_wr, ibv_send_wr, ibv_sge
from ..net.tcp import TcpStack

__all__ = ["pingpong_app", "PP_PORT"]

PP_PORT = 18515
_FULL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
         | AccessFlags.REMOTE_READ)


class CqWaiter:
    """Blocking-completion helper (ibv_req_notify_cq + ibv_get_cq_event)
    that buffers out-of-order completions."""

    def __init__(self, ctx: AppContext, ibv, cq):
        self.ctx = ctx
        self.ibv = ibv
        self.cq = cq
        self.pending = []

    def wait(self, recv: bool) -> Generator:
        """Next completion of the requested kind (recv vs send side)."""
        while True:
            for i, wc in enumerate(self.pending):
                if wc.opcode.name.startswith("RECV") == recv:
                    return self.pending.pop(i)
            wcs = self.ibv.poll_cq(self.cq, 16)
            if wcs:
                self.pending.extend(wcs)
                continue
            notify = self.ibv.req_notify_cq(self.cq)
            yield self.ibv.get_cq_event(notify)
            # pay any interposition overhead accrued by the wrappers
            yield self.ctx.compute(seconds=0.0)


def pingpong_app(ctx: AppContext, peer_host: str, is_server: bool,
                 iters: int = 1000, msg_bytes: int = 4096,
                 use_rdma: bool = False,
                 payload_check: bool = True) -> Generator:
    """One rank of the ping-pong; returns a results dict."""
    ibv = ctx.ibv
    dev = ibv.get_device_list()[0]
    ibctx = ibv.open_device(dev)
    pd = ibv.alloc_pd(ibctx)
    cq = ibv.create_cq(ibctx, cqe=4096)
    lid = ibv.query_port(ibctx).lid
    qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))

    RX_DEPTH = 4  # pre-posted receive window, like perftest's rx_depth
    buf = ctx.memory.mmap(f"{ctx.name}.ppbuf",
                          (1 + RX_DEPTH) * msg_bytes)
    mr = ibv.reg_mr(pd, buf.addr, (1 + RX_DEPTH) * msg_bytes, _FULL)
    send_view = buf.view().subview(slice(0, msg_bytes))
    # one buffer per receive slot so a pipelined next message cannot
    # overwrite data the application is still reading; the slots are
    # read-only here (the HCA's DMA writes them through memory.write,
    # which range-touches the region itself)
    recv_views = [buf.view()[(1 + d) * msg_bytes:
                             (2 + d) * msg_bytes]
                  for d in range(RX_DEPTH)]
    recv_addr = buf.addr + msg_bytes

    # out-of-band exchange (TCP): lid, qp_num, rkey, remote buffer address
    stack = TcpStack.of(ctx.proc.node)
    my_info = {"lid": lid, "qpn": qp.qp_num, "rkey": mr.rkey,
               "addr": recv_addr}
    if is_server:
        listener = stack.listen(PP_PORT)
        conn = yield listener.accept()
        peer = yield conn.recv()
        yield from conn.send(my_info)
    else:
        conn = yield from stack.connect(peer_host, PP_PORT)
        yield from conn.send(my_info)
        peer = yield conn.recv()

    qp_to_init(ibv, qp)
    qp_to_rtr(ibv, qp, dest_qp_num=peer["qpn"], dlid=peer["lid"])
    qp_to_rts(ibv, qp)

    sge_send = (ibv_sge(buf.addr, msg_bytes, mr.lkey),)
    waiter = CqWaiter(ctx, ibv, cq)
    t0 = ctx.env.now
    errors = 0
    error_iters = []
    marks = []
    mark_every = max(1, iters // 64)

    def post_rx(i: int) -> None:
        slot = i % RX_DEPTH
        sge = (ibv_sge(recv_addr + slot * msg_bytes, msg_bytes, mr.lkey),)
        ibv.post_recv(qp, ibv_recv_wr(
            wr_id=i, sg_list=() if use_rdma else sge))

    for d in range(RX_DEPTH):
        post_rx(d)

    for i in range(iters):
        fill = (i + (0 if is_server else 1)) % 251
        send_view[:] = fill
        if i + RX_DEPTH < iters:
            post_rx(i + RX_DEPTH)  # keep the window full
        if use_rdma:
            # RDMA-write with immediate: data lands in the peer's buffer,
            # the immediate consumes a pre-posted recv WQE
            wr = ibv_send_wr(wr_id=2 * i + 1, sg_list=sge_send,
                             opcode=WrOpcode.RDMA_WRITE_WITH_IMM,
                             remote_addr=peer["addr"], rkey=peer["rkey"],
                             imm_data=i)
        else:
            wr = ibv_send_wr(wr_id=2 * i + 1, sg_list=sge_send,
                             opcode=WrOpcode.SEND)
        if is_server:
            # server: receive first, then echo
            rwc = yield from waiter.wait(recv=True)
            ibv.post_send(qp, wr)
            if not use_rdma:  # §4: no sender-side completion with imm
                yield from waiter.wait(recv=False)
        else:
            ibv.post_send(qp, wr)
            if not use_rdma:
                yield from waiter.wait(recv=False)
            rwc = yield from waiter.wait(recv=True)
        if payload_check and not use_rdma:
            got = recv_views[rwc.wr_id % RX_DEPTH]
            expect = (i + (1 if is_server else 0)) % 251
            if not (got == expect).all():
                errors += 1
                if len(error_iters) < 8:
                    error_iters.append((i, int(got[0]), expect))
        yield ctx.compute(seconds=0.0)  # pay wrapper overhead each iter
        if i % mark_every == 0:
            marks.append((i, ctx.env.now))

    elapsed = ctx.env.now - t0
    total_bytes = 2.0 * iters * msg_bytes
    return {"rank": "server" if is_server else "client",
            "iters": iters, "elapsed": elapsed, "errors": errors,
            "total_bytes": total_bytes, "marks": marks,
            "error_iters": error_iters,
            "gbit_per_s": total_bytes * 8 / max(elapsed, 1e-12) / 1e9}
