"""Tests for the RC transport engine: data movement, completions, RDMA,
RNR retry, ordering, and in-flight-drop semantics."""

import numpy as np
import pytest

from repro.ibverbs import (
    QpState,
    SendFlags,
    VerbsError,
    WcOpcode,
    WcStatus,
    WrOpcode,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.ibverbs.connect import connect_pair


def _drain(lib, cq, want, env, deadline=5.0):
    """Poll helper: returns `want` completions or raises after deadline."""
    got = []
    start = env.now

    def poller():
        while len(got) < want:
            got.extend(lib.poll_cq(cq, 16))
            if env.now - start > deadline:
                raise TimeoutError(f"only {len(got)}/{want} completions")
            yield env.timeout(1e-6)
        return got

    return poller


def _connected_pair(ib_pair, **kw):
    a, b = ib_pair.a, ib_pair.b
    qa, qb = a.make_qp(**kw), b.make_qp(**kw)
    connect_pair(a.lib, qa, a.lid, b.lib, qb, b.lid)
    return qa, qb


def test_send_recv_moves_bytes(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(64, "sbuf")
    rbuf, rmr = b.reg(64, "rbuf")
    sbuf.write(0, b"hello")

    b.lib.post_recv(qb, ibv_recv_wr(wr_id=7, sg_list=[
        ibv_sge(rbuf.addr, 64, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(wr_id=3, sg_list=[
        ibv_sge(sbuf.addr, 5, smr.lkey)], opcode=WrOpcode.SEND))

    recv = env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert bytes(rbuf.buffer[:5]) == b"hello"
    assert recv[0].wr_id == 7 and recv[0].opcode is WcOpcode.RECV
    assert recv[0].status is WcStatus.SUCCESS
    assert recv[0].byte_len == 5
    assert recv[0].src_qp == qa.qp_num
    assert send[0].wr_id == 3 and send[0].opcode is WcOpcode.SEND


def test_send_with_imm_carries_imm(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "sbuf")
    rbuf, rmr = b.reg(8, "rbuf")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND_WITH_IMM,
                                    imm_data=0xCAFE))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    assert recv[0].imm_data == 0xCAFE


def test_multiple_messages_arrive_in_order(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(256, "sbuf")
    rbuf, rmr = b.reg(256, "rbuf")
    for i in range(8):
        b.lib.post_recv(qb, ibv_recv_wr(100 + i, [
            ibv_sge(rbuf.addr + 16 * i, 16, rmr.lkey)]))
    for i in range(8):
        sbuf.write(16 * i, bytes([i + 1]))
        a.lib.post_send(qa, ibv_send_wr(i, [
            ibv_sge(sbuf.addr + 16 * i, 16, smr.lkey)],
            opcode=WrOpcode.SEND))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 8, env)()))
    assert [wc.wr_id for wc in recv] == [100 + i for i in range(8)]
    assert [rbuf.buffer[16 * i] for i in range(8)] == list(range(1, 9))


def test_unsignaled_send_no_completion(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "sbuf")
    rbuf, rmr = b.reg(8, "rbuf")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND,
                                    send_flags=SendFlags.NONE))
    env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    env.run(until=env.timeout(0.01))
    assert a.lib.poll_cq(a.cq, 16) == []


def test_sq_sig_all_forces_completions(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair, sq_sig_all=True)
    sbuf, smr = a.reg(8, "s"); rbuf, rmr = b.reg(8, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND,
                                    send_flags=SendFlags.NONE))
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert send[0].opcode is WcOpcode.SEND


def test_rdma_write_places_data_no_recv_wqe(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(32, "s")
    rbuf, rmr = b.reg(32, "r")
    sbuf.write(0, b"RDMA")
    a.lib.post_send(qa, ibv_send_wr(
        9, [ibv_sge(sbuf.addr, 4, smr.lkey)], opcode=WrOpcode.RDMA_WRITE,
        remote_addr=rbuf.addr + 8, rkey=rmr.rkey))
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert send[0].opcode is WcOpcode.RDMA_WRITE
    assert bytes(rbuf.buffer[8:12]) == b"RDMA"
    assert b.lib.poll_cq(b.cq, 16) == []  # no receiver-side completion


def test_rdma_write_with_imm_completes_only_on_receiver(ib_pair):
    """Paper §4: with the immediate-data flag, a completion is posted only
    on the receiving node."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(16, "s")
    rbuf, rmr = b.reg(16, "r")
    b.lib.post_recv(qb, ibv_recv_wr(5, []))  # imm consumes a recv WQE
    a.lib.post_send(qa, ibv_send_wr(
        6, [ibv_sge(sbuf.addr, 16, smr.lkey)],
        opcode=WrOpcode.RDMA_WRITE_WITH_IMM,
        remote_addr=rbuf.addr, rkey=rmr.rkey, imm_data=42))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    assert recv[0].opcode is WcOpcode.RECV_RDMA_WITH_IMM
    assert recv[0].imm_data == 42
    env.run(until=env.timeout(0.01))
    assert a.lib.poll_cq(a.cq, 16) == []  # sender sees nothing


def test_rdma_read_fetches_remote(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    lbuf, lmr = a.reg(32, "l")
    rbuf, rmr = b.reg(32, "r")
    rbuf.write(0, b"remote")
    a.lib.post_send(qa, ibv_send_wr(
        11, [ibv_sge(lbuf.addr, 6, lmr.lkey)], opcode=WrOpcode.RDMA_READ,
        remote_addr=rbuf.addr, rkey=rmr.rkey))
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert send[0].opcode is WcOpcode.RDMA_READ
    assert bytes(lbuf.buffer[:6]) == b"remote"


def test_rdma_bad_rkey_completes_with_error(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(16, "s")
    rbuf, rmr = b.reg(16, "r")
    a.lib.post_send(qa, ibv_send_wr(
        13, [ibv_sge(sbuf.addr, 16, smr.lkey)], opcode=WrOpcode.RDMA_WRITE,
        remote_addr=rbuf.addr, rkey=0xBAD))
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert send[0].status is WcStatus.REM_ACCESS_ERR
    assert qa.state is QpState.ERR


def test_rnr_retry_until_recv_posted(ib_pair):
    """Sender retries on receiver-not-ready; completes once a buffer shows."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "s")
    rbuf, rmr = b.reg(8, "r")
    a.lib.post_send(qa, ibv_send_wr(1, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND))

    def late_post():
        yield env.timeout(1e-3)  # several RNR timer periods
        b.lib.post_recv(qb, ibv_recv_wr(2, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))

    env.process(late_post())
    send = env.run(until=env.process(_drain(a.lib, a.cq, 1, env)()))
    assert send[0].status is WcStatus.SUCCESS


def test_inline_send_copies_at_post_time(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "s")
    rbuf, rmr = b.reg(8, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    sbuf.write(0, b"old")
    a.lib.post_send(qa, ibv_send_wr(
        2, [ibv_sge(sbuf.addr, 3, smr.lkey)], opcode=WrOpcode.SEND,
        send_flags=SendFlags.SIGNALED | SendFlags.INLINE))
    sbuf.write(0, b"new")  # reuse buffer immediately: legal for INLINE
    env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    assert bytes(rbuf.buffer[:3]) == b"old"


def test_recv_buffer_too_small_errors(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(64, "s")
    rbuf, rmr = b.reg(64, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 4, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 32, smr.lkey)],
                                    opcode=WrOpcode.SEND))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    assert recv[0].status is WcStatus.LOC_LEN_ERR


def test_completion_timing_skew_recv_before_send(ib_pair):
    """The receive completion lands one ack-latency before the sender's —
    the skew the paper's settle-loop drain (§4) must absorb."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "s")
    rbuf, rmr = b.reg(8, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND))
    times = {}

    def watch(name, lib, cq):
        while name not in times:
            if lib.poll_cq(cq, 1):
                times[name] = env.now
            else:
                yield env.timeout(1e-8)

    env.process(watch("recv", b.lib, b.cq))
    env.process(watch("send", a.lib, a.cq))
    env.run(until=env.timeout(0.01))
    assert times["recv"] < times["send"]


def test_teardown_drops_in_flight_no_completions(ib_pair):
    """Principle 6 precondition: a message in flight at teardown produces
    no completion on either side."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "s")
    rbuf, rmr = b.reg(8, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                    opcode=WrOpcode.SEND))
    # let the packet reach the wire (serialization ~22ns), then kill the
    # fabric while it is still in flight (latency ~1.8us)
    env.run(until=env.timeout(1e-7))
    ib_pair.cluster.fabric.teardown()
    env.run(until=env.timeout(0.01))
    assert a.cq._hw.total_pushed == 0
    assert b.cq._hw.total_pushed == 0
    assert ib_pair.cluster.fabric.dropped_in_flight >= 1


def test_srq_shared_between_qps(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    srq = b.lib.create_srq(b.pd, max_wr=16)
    qa1, qb1 = a.make_qp(), b.make_qp(srq=srq)
    qa2, qb2 = a.make_qp(), b.make_qp(srq=srq)
    connect_pair(a.lib, qa1, a.lid, b.lib, qb1, b.lid)
    connect_pair(a.lib, qa2, a.lid, b.lib, qb2, b.lid)
    sbuf, smr = a.reg(64, "s")
    rbuf, rmr = b.reg(64, "r")
    for i in range(2):
        b.lib.post_srq_recv(srq, ibv_recv_wr(50 + i, [
            ibv_sge(rbuf.addr + 16 * i, 16, rmr.lkey)]))
    a.lib.post_send(qa1, ibv_send_wr(1, [ibv_sge(sbuf.addr, 4, smr.lkey)],
                                     opcode=WrOpcode.SEND))
    a.lib.post_send(qa2, ibv_send_wr(2, [ibv_sge(sbuf.addr, 4, smr.lkey)],
                                     opcode=WrOpcode.SEND))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 2, env)()))
    assert {wc.qp_num for wc in recv} == {qb1.qp_num, qb2.qp_num}


def test_scaled_region_logical_wire_size(ib_pair):
    """A region with repr_scale=1000 charges 1000x the wire time but moves
    the real (small) bytes."""
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(1000, "s", scale=1000.0)   # stands for 1 MB
    rbuf, rmr = b.reg(1000, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 1000, rmr.lkey)]))
    t0 = env.now
    a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 1000, smr.lkey)],
                                    opcode=WrOpcode.SEND))
    recv = env.run(until=env.process(_drain(b.lib, b.cq, 1, env)()))
    elapsed = env.now - t0
    bw = ib_pair.cluster.spec.ib_bandwidth
    assert recv[0].byte_len == 1_000_000
    assert elapsed > 1_000_000 / bw  # wire time dominated by logical size


def test_blocking_cq_notify(ib_pair):
    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = _connected_pair(ib_pair)
    sbuf, smr = a.reg(8, "s")
    rbuf, rmr = b.reg(8, "r")
    b.lib.post_recv(qb, ibv_recv_wr(1, [ibv_sge(rbuf.addr, 8, rmr.lkey)]))

    def receiver():
        notify = b.lib.req_notify_cq(b.cq)
        yield b.lib.get_cq_event(notify)
        return b.lib.poll_cq(b.cq, 16)

    def sender():
        yield env.timeout(1e-3)
        a.lib.post_send(qa, ibv_send_wr(2, [ibv_sge(sbuf.addr, 8, smr.lkey)],
                                        opcode=WrOpcode.SEND))

    env.process(sender())
    wcs = env.run(until=env.process(receiver()))
    assert len(wcs) == 1 and wcs[0].wr_id == 1
