"""Error-path and edge-case coverage for the verbs layer."""

import pytest

from repro.hardware import BUFFALO_CCR, Cluster
from repro.ibverbs import (
    AccessFlags,
    QpState,
    SendFlags,
    VerbsError,
    WcStatus,
    WrOpcode,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.ibverbs.connect import connect_pair
from repro.sim import Environment


def _connected(ib_pair):
    a, b = ib_pair.a, ib_pair.b
    qa, qb = a.make_qp(), b.make_qp()
    connect_pair(a.lib, qa, a.lid, b.lib, qb, b.lid)
    return qa, qb


def _drain(env, lib, cq, want):
    def poller():
        got = []
        while len(got) < want:
            got.extend(lib.poll_cq(cq, 8))
            yield env.timeout(1e-6)
        return got

    return env.run(until=env.process(poller()))


def test_sge_outside_mr_fails_locally(ib_pair):
    """An sge beyond its memory region is a local protection error."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected(ib_pair)
    buf, mr = a.reg(64, "small")
    a.lib.post_send(qa, ibv_send_wr(
        1, [ibv_sge(buf.addr, 128, mr.lkey)],  # length > region
        opcode=WrOpcode.SEND))
    got = _drain(env, a.lib, a.cq, 1)
    assert got[0].status is WcStatus.LOC_PROT_ERR
    assert qa.state is QpState.ERR


def test_bad_lkey_fails(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected(ib_pair)
    buf, mr = a.reg(64, "buf")
    a.lib.post_send(qa, ibv_send_wr(
        1, [ibv_sge(buf.addr, 8, 0xdead)], opcode=WrOpcode.SEND))
    got = _drain(env, a.lib, a.cq, 1)
    assert got[0].status is WcStatus.LOC_PROT_ERR


def test_rdma_read_without_remote_read_permission(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected(ib_pair)
    lbuf, lmr = a.reg(64, "l")
    # remote region registered WITHOUT remote-read access
    region = b.proc.memory.mmap("locked", 64)
    rmr = b.lib.reg_mr(b.pd, region.addr, 64, AccessFlags.LOCAL_WRITE)
    a.lib.post_send(qa, ibv_send_wr(
        1, [ibv_sge(lbuf.addr, 16, lmr.lkey)], opcode=WrOpcode.RDMA_READ,
        remote_addr=region.addr, rkey=rmr.rkey))
    got = _drain(env, a.lib, a.cq, 1)
    assert got[0].status is WcStatus.REM_ACCESS_ERR


def test_inline_exceeding_cap_rejected(ib_pair):
    a = ib_pair.a
    qa, qb = _connected(ib_pair)
    buf, mr = a.reg(4096, "big")
    with pytest.raises(VerbsError, match="inline"):
        a.lib.post_send(qa, ibv_send_wr(
            1, [ibv_sge(buf.addr, 1024, mr.lkey)], opcode=WrOpcode.SEND,
            send_flags=SendFlags.SIGNALED | SendFlags.INLINE))


def test_scatter_gather_multiple_elements(ib_pair):
    """A send WQE gathers from several sges; the recv scatters across
    several sges."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected(ib_pair)
    sbuf, smr = a.reg(64, "s")
    rbuf, rmr = b.reg(64, "r")
    sbuf.write(0, b"AAAA")
    sbuf.write(32, b"BBBB")
    b.lib.post_recv(qb, ibv_recv_wr(1, [
        ibv_sge(rbuf.addr, 4, rmr.lkey),
        ibv_sge(rbuf.addr + 16, 4, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [
        ibv_sge(sbuf.addr, 4, smr.lkey),
        ibv_sge(sbuf.addr + 32, 4, smr.lkey)], opcode=WrOpcode.SEND))
    got = _drain(env, b.lib, b.cq, 1)
    assert got[0].status is WcStatus.SUCCESS
    assert bytes(rbuf.buffer[0:4]) == b"AAAA"
    assert bytes(rbuf.buffer[16:20]) == b"BBBB"


def test_srq_full_rejected(ib_pair):
    b = ib_pair.b
    srq = b.lib.create_srq(b.pd, max_wr=2)
    rbuf, rmr = b.reg(64, "r")
    for i in range(2):
        b.lib.post_srq_recv(srq, ibv_recv_wr(i, [
            ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    with pytest.raises(VerbsError, match="SRQ full"):
        b.lib.post_srq_recv(srq, ibv_recv_wr(9, [
            ibv_sge(rbuf.addr, 8, rmr.lkey)]))


def test_post_recv_on_srq_qp_rejected(ib_pair):
    b = ib_pair.b
    srq = b.lib.create_srq(b.pd)
    qp = b.make_qp(srq=srq)
    from repro.ibverbs.connect import qp_to_init
    qp_to_init(b.lib, qp)
    rbuf, rmr = b.reg(64, "r")
    with pytest.raises(VerbsError, match="SRQ"):
        b.lib.post_recv(qp, ibv_recv_wr(1, [
            ibv_sge(rbuf.addr, 8, rmr.lkey)]))


def test_rnr_retry_exhaustion_errors_out(ib_pair):
    """With a finite rnr_retry count and no receive ever posted, the send
    completes with RNR_RETRY_EXC_ERR and the QP enters ERR."""
    from repro.ibverbs import QpAttrMask, ibv_qp_attr
    from repro.ibverbs.connect import qp_to_init, qp_to_rtr

    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = a.make_qp(), b.make_qp()
    qp_to_init(a.lib, qa)
    qp_to_init(b.lib, qb)
    qp_to_rtr(a.lib, qa, qb.qp_num, b.lid)
    qp_to_rtr(b.lib, qb, qa.qp_num, a.lid)
    # RTS with a finite rnr_retry (not the infinite 7)
    for lib, qp in ((a.lib, qa), (b.lib, qb)):
        attr = ibv_qp_attr(qp_state=QpState.RTS, sq_psn=0, timeout=14,
                           retry_cnt=7, rnr_retry=2)
        lib.modify_qp(qp, attr, QpAttrMask.STATE | QpAttrMask.SQ_PSN
                      | QpAttrMask.TIMEOUT | QpAttrMask.RETRY_CNT
                      | QpAttrMask.RNR_RETRY)
    sbuf, smr = a.reg(64, "s")
    a.lib.post_send(qa, ibv_send_wr(1, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND))
    got = _drain(env, a.lib, a.cq, 1)
    assert got[0].status is WcStatus.RNR_RETRY_EXC_ERR
    assert qa.state is QpState.ERR


def test_dealloc_and_destroy_paths(ib_pair):
    a = ib_pair.a
    srq = a.lib.create_srq(a.pd)
    cq2 = a.lib.create_cq(a.ctx, cqe=16)
    qp = a.make_qp()
    a.lib.destroy_qp(qp)
    assert qp.state is QpState.RESET
    a.lib.destroy_srq(srq)
    a.lib.destroy_cq(cq2)
    pd2 = a.lib.alloc_pd(a.ctx)
    a.lib.dealloc_pd(pd2)
