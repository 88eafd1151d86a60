"""Tests for the librdmacm-style connection manager — including the
paper's §2.1 claim that rdmacm-established connections checkpoint with no
special handling (only set-up/tear-down goes through it)."""

import pytest

from repro.core import InfinibandPlugin
from repro.dmtcp import AppSpec, dmtcp_launch, dmtcp_restart, native_launch
from repro.hardware import BUFFALO_CCR, Cluster
from repro.ibverbs import (
    AccessFlags,
    RdmaCm,
    RdmaCmError,
    WrOpcode,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.sim import Environment

FULL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
        | AccessFlags.REMOTE_READ)


def _endpoint(ctx):
    ibv = ctx.ibv
    ibctx = ibv.open_device(ibv.get_device_list()[0])
    pd = ibv.alloc_pd(ibctx)
    cq = ibv.create_cq(ibctx)
    return ibv, ibctx, pd, cq


def _server_app(state, port=5, echo=True):
    def app(ctx):
        ibv, ibctx, pd, cq = _endpoint(ctx)
        cm = RdmaCm(ctx)
        listen_id = cm.create_id()
        cm.bind_addr(listen_id, port)
        cm.listen(listen_id)
        conn_id = yield from cm.get_request(listen_id)
        state["server_private"] = conn_id.private_data
        cm.create_qp(conn_id, pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        buf = ctx.memory.mmap(f"{ctx.name}.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        ibv.post_recv(conn_id.qp, ibv_recv_wr(1, [
            ibv_sge(buf.addr, 64, mr.lkey)]))
        yield from cm.accept(conn_id, private_data=b"welcome")
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-5)
        return bytes(buf.buffer[:5])

    return app


def _client_app(state, server_host, port=5):
    def app(ctx):
        ibv, ibctx, pd, cq = _endpoint(ctx)
        cm = RdmaCm(ctx)
        cm_id = cm.create_id()
        yield from cm.resolve_addr(cm_id, server_host, port)
        cm.create_qp(cm_id, pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        yield from cm.connect(cm_id, private_data=b"hi-there")
        state["client_private"] = cm_id.private_data
        buf = ctx.memory.mmap(f"{ctx.name}.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        buf.write(0, b"MAGIC")
        while not state.get("go", True):
            yield ctx.sleep(1e-4)
        ibv.post_send(cm_id.qp, ibv_send_wr(2, [
            ibv_sge(buf.addr, 5, mr.lkey)], opcode=WrOpcode.SEND))
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-5)
        return "sent"

    return app


def test_rdmacm_connect_accept_and_data():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="cm")
    state = {}
    specs = [AppSpec(0, "srv", _server_app(state)),
             AppSpec(1, "cli", _client_app(state, cluster.nodes[0].name))]
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    assert results[0] == b"MAGIC"
    assert state["server_private"] == b"hi-there"
    assert state["client_private"] == b"welcome"


def test_rdmacm_connection_survives_checkpoint_restart():
    """§2.1: rdmacm affects only set-up/tear-down, so the plugin needs no
    special support — the connection it built restarts like any other."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="cm-ck")
    state = {"go": False}
    specs = [AppSpec(0, "srv", _server_app(state)),
             AppSpec(1, "cli", _client_app(state, cluster.nodes[0].name))]
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.05)  # connection established, send held back
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="cm-ck2")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        state["go"] = True
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    assert results[0] == b"MAGIC"  # data flowed over the restarted QP


def test_rdmacm_misuse_errors():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="cm-err")

    def app(ctx):
        cm = RdmaCm(ctx)
        cm_id = cm.create_id()
        with pytest.raises(RdmaCmError, match="bind_addr"):
            cm.listen(cm_id)
        with pytest.raises(RdmaCmError, match="create_qp"):
            yield from cm.connect(cm_id)
        ibv, ibctx, pd, cq = _endpoint(ctx)
        cm.create_qp(cm_id, pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        with pytest.raises(RdmaCmError, match="resolve_addr"):
            yield from cm.connect(cm_id)
        with pytest.raises(RdmaCmError, match="already"):
            cm.create_qp(cm_id, pd, ibv_qp_init_attr(send_cq=cq,
                                                     recv_cq=cq))
        return True

    session = native_launch(cluster, [AppSpec(0, "p", app)])
    assert env.run(until=env.process(session.wait())) == [True]


def test_rdmacm_disconnect_destroys_qp():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="cm-dc")
    state = {}

    def server(ctx):
        result = yield from _server_app(state)(ctx)
        return result

    def client(ctx):
        ibv, ibctx, pd, cq = _endpoint(ctx)
        cm = RdmaCm(ctx)
        cm_id = cm.create_id()
        yield from cm.resolve_addr(cm_id, cluster.nodes[0].name, 5)
        cm.create_qp(cm_id, pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        yield from cm.connect(cm_id)
        buf = ctx.memory.mmap(f"{ctx.name}.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        buf.write(0, b"MAGIC")
        ibv.post_send(cm_id.qp, ibv_send_wr(2, [
            ibv_sge(buf.addr, 5, mr.lkey)], opcode=WrOpcode.SEND))
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-5)
        cm.disconnect(cm_id)
        return cm_id.qp is None and not cm_id.established

    specs = [AppSpec(0, "srv", server), AppSpec(1, "cli", client)]
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    assert results == [b"MAGIC", True]
