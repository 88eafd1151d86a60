"""Tests for the verbs API surface: devices, PDs, MRs, CQs, QP state machine."""

import pytest

from repro.hardware import BUFFALO_CCR, Cluster, ETHERNET_DEBUG_CLUSTER
from repro.ibverbs import (
    AccessFlags,
    QpAttrMask,
    QpState,
    StaleResourceError,
    VerbsError,
    VerbsLib,
    ibv_qp_attr,
    ibv_qp_init_attr,
)
from repro.ibverbs.connect import connect_pair, qp_to_init, qp_to_rtr, qp_to_rts
from repro.sim import Environment

from conftest import make_endpoint


def test_device_list_and_open(ib_pair):
    devs = ib_pair.a.lib.get_device_list()
    assert len(devs) == 1
    assert devs[0].vendor == "mlx4"
    assert ib_pair.a.lid != ib_pair.b.lid


def test_no_device_on_ethernet_cluster():
    env = Environment()
    cluster = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=1)
    lib = VerbsLib(cluster.nodes[0].fork("p"))
    assert lib.get_device_list() == []


def test_reg_mr_pins_memory(ib_pair):
    a = ib_pair.a
    region, mr = a.reg(4096, "buf")
    assert region.pinned
    assert mr.lkey != mr.rkey
    a.lib.dereg_mr(mr)
    assert not region.pinned


def test_reg_mr_unmapped_range_rejected(ib_pair):
    a = ib_pair.a
    with pytest.raises(Exception):
        a.lib.reg_mr(a.pd, 0xdead0000, 64)


def test_qp_created_in_reset(ib_pair):
    qp = ib_pair.a.make_qp()
    assert qp.state is QpState.RESET
    assert qp.qp_num > 0


def test_qp_numbers_unique_per_hca(ib_pair):
    qps = [ib_pair.a.make_qp() for _ in range(10)]
    nums = [qp.qp_num for qp in qps]
    assert len(set(nums)) == 10


def test_qp_state_ladder(ib_pair):
    a, b = ib_pair.a, ib_pair.b
    qp = a.make_qp()
    qp_to_init(a.lib, qp)
    assert qp.state is QpState.INIT
    qp_to_rtr(a.lib, qp, dest_qp_num=1234, dlid=b.lid)
    assert qp.state is QpState.RTR
    qp_to_rts(a.lib, qp)
    assert qp.state is QpState.RTS


def test_illegal_transition_rejected(ib_pair):
    a = ib_pair.a
    qp = a.make_qp()
    with pytest.raises(VerbsError, match="illegal"):
        a.lib.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTS),
                        QpAttrMask.STATE)


def test_rtr_requires_dest_and_av(ib_pair):
    a = ib_pair.a
    qp = a.make_qp()
    qp_to_init(a.lib, qp)
    with pytest.raises(VerbsError, match="DEST_QPN"):
        a.lib.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTR),
                        QpAttrMask.STATE)


def test_any_state_to_err_and_back_through_reset(ib_pair):
    a = ib_pair.a
    qp = a.make_qp()
    a.lib.modify_qp(qp, ibv_qp_attr(qp_state=QpState.ERR), QpAttrMask.STATE)
    assert qp.state is QpState.ERR
    a.lib.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RESET), QpAttrMask.STATE)
    assert qp.state is QpState.RESET


def test_post_send_before_rts_rejected(ib_pair):
    from repro.ibverbs import ibv_send_wr, ibv_sge, WrOpcode

    a = ib_pair.a
    region, mr = a.reg(64, "buf")
    qp = a.make_qp()
    wr = ibv_send_wr(wr_id=1, sg_list=[ibv_sge(region.addr, 8, mr.lkey)],
                     opcode=WrOpcode.SEND)
    with pytest.raises(VerbsError, match="post_send"):
        a.lib.post_send(qp, wr)


def test_create_qp_requires_cqs(ib_pair):
    a = ib_pair.a
    with pytest.raises(VerbsError):
        a.lib.create_qp(a.pd, ibv_qp_init_attr())


def test_stale_struct_after_process_death():
    """Principle 1's motivation: structs from a dead driver session fail."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1)
    proc = cluster.nodes[0].fork("victim")
    ep = make_endpoint(proc)
    qp = ep.make_qp()
    proc.kill()  # driver session dies with the process
    with pytest.raises(StaleResourceError):
        ep.lib.alloc_pd(ep.ctx)
    with pytest.raises(StaleResourceError):
        qp_to_init(ep.lib, qp)


def test_shadow_struct_without_blob_rejected(ib_pair):
    """A struct whose hidden fields are absent (a naive shadow copy) is
    rejected by the driver — exactly why the plugin must swap in the real
    struct before calling down."""
    import dataclasses

    a = ib_pair.a
    shadow_pd = dataclasses.replace(a.pd, _driver_blob=None)
    with pytest.raises(StaleResourceError, match="shadow"):
        a.lib.reg_mr(shadow_pd, 0, 8)


def test_query_port_returns_subnet_lid(ib_pair):
    attr = ib_pair.a.lib.query_port(ib_pair.a.ctx)
    assert attr.lid == ib_pair.a.proc.node.hca.lid


def test_srq_create_and_limit(ib_pair):
    a = ib_pair.a
    srq = a.lib.create_srq(a.pd, max_wr=8)
    a.lib.modify_srq(srq, limit=4)
    assert srq.limit == 4
    with pytest.raises(VerbsError, match="exceeds the SRQ's max_wr"):
        a.lib.modify_srq(srq, limit=9)  # ibv_modify_srq: EINVAL
    assert srq.limit == 4


def test_connect_pair_reaches_rts(ib_pair):
    a, b = ib_pair.a, ib_pair.b
    qa, qb = a.make_qp(), b.make_qp()
    connect_pair(a.lib, qa, a.lid, b.lib, qb, b.lid)
    assert qa.state is QpState.RTS and qb.state is QpState.RTS
    assert qa._hw.dest == (b.lid, qb.qp_num)
    assert qb._hw.dest == (a.lid, qa.qp_num)
