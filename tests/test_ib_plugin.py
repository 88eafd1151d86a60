"""Integration tests for the InfiniBand plugin: virtualization, drain and
refill, checkpoint-resume and checkpoint-restart of live verbs traffic,
id re-mapping across clusters, and the paper's §4/§7 limitation modes."""

import numpy as np
import pytest

from repro.apps.pingpong import pingpong_app
from repro.core.ib_plugin import (
    HeterogeneousDriverError,
    InfinibandPlugin,
    UnsupportedQpTypeError,
    VirtualCq,
    VirtualMr,
    VirtualQp,
)
from repro.dmtcp import AppSpec, dmtcp_launch, dmtcp_restart
from repro.hardware import BUFFALO_CCR, Cluster, HardwareSpec
from repro.ibverbs import (
    AccessFlags,
    QpType,
    WrOpcode,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.ibverbs.connect import qp_to_init, qp_to_rtr, qp_to_rts
from repro.sim import Environment

FULL = (AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
        | AccessFlags.REMOTE_READ)


def _pp_specs(cluster, iters=60, msg_bytes=2048, use_rdma=False):
    server = cluster.nodes[0].name
    return [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, peer_host=None, is_server=True,
                                         iters=iters, msg_bytes=msg_bytes,
                                         use_rdma=use_rdma)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, peer_host=server,
                                         is_server=False, iters=iters,
                                         msg_bytes=msg_bytes,
                                         use_rdma=use_rdma)),
    ]


def _launch_pp(env, cluster, plugins=True, **kw):
    factory = (lambda: [InfinibandPlugin()]) if plugins else (lambda: [])
    return env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, **kw), plugin_factory=factory)))


# -- virtualization basics ------------------------------------------------------


def test_app_sees_only_virtual_structs():
    """Principle 1: the application never receives a real struct."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="virt")
    observed = {}

    def app(ctx):
        ibv = ctx.ibv
        dev = ibv.get_device_list()[0]
        ibctx = ibv.open_device(dev)
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("b", 4096)
        mr = ibv.reg_mr(pd, buf.addr, 4096, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        observed.update(mr=mr, qp=qp, cq=cq)
        yield ctx.compute(seconds=0.01)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        yield from session.wait()

    env.run(until=env.process(scenario()))
    assert isinstance(observed["mr"], VirtualMr)
    assert isinstance(observed["qp"], VirtualQp)
    assert isinstance(observed["cq"], VirtualCq)
    # virtual ids equal real ids before the first restart (§3.2)
    assert observed["qp"].qp_num == observed["qp"].real.qp_num
    assert observed["mr"].rkey == observed["mr"].real.rkey


def test_ops_table_interposition():
    """Principle 2: the context's ops pointers are the plugin's, and the
    originals are saved."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="ops")
    seen = {}

    def app(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        seen["vops"] = ibctx.ops.post_send
        seen["real_ops"] = ibctx.real_ops.post_send
        yield ctx.compute(seconds=0.01)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        yield from session.wait()

    env.run(until=env.process(scenario()))
    assert seen["vops"].__qualname__.startswith("WrappedVerbs")
    assert seen["real_ops"].__qualname__.startswith("VerbsLib")


def test_pingpong_native_equals_wrapped_results():
    """The wrapped library is a behavioural drop-in: payloads intact."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="pp-basic")
    session = _launch_pp(env, cluster, iters=40)
    results = env.run(until=env.process(session.wait()))
    assert all(r["errors"] == 0 for r in results)


# -- checkpoint-resume -----------------------------------------------------------


def test_checkpoint_resume_mid_pingpong():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="pp-resume")
    session = _launch_pp(env, cluster, iters=300)

    def scenario():
        yield env.timeout(0.002)  # mid-stream
        ckpt = yield from session.checkpoint(intent="resume")
        results = yield from session.wait()
        return ckpt, results

    ckpt, results = env.run(until=env.process(scenario()))
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 300 for r in results)


def test_drain_captures_completions_to_private_queue():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="pp-drain")
    plugins = []

    def factory():
        p = InfinibandPlugin()
        plugins.append(p)
        return [p]

    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=500), plugin_factory=factory)))

    def scenario():
        yield env.timeout(0.002)
        yield from session.checkpoint(intent="resume")
        results = yield from session.wait()
        return results

    results = env.run(until=env.process(scenario()))
    assert all(r["errors"] == 0 for r in results)
    # at least one side usually has a drained completion in flight; the
    # counters must at minimum be consistent
    drained = sum(p.stats["drained_completions"] for p in plugins)
    assert drained >= 0
    calls = sum(p.stats["wrapper_calls"] for p in plugins)
    assert calls > 500


# -- checkpoint-restart -------------------------------------------------------------


def _restart_scenario(env, cluster, session, new_cluster_name,
                      spec=BUFFALO_CCR, ckpt_at=0.002, n_nodes=2,
                      node_map=None):
    def scenario():
        yield env.timeout(ckpt_at)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, spec, n_nodes=n_nodes,
                           name=new_cluster_name)
        session2 = yield from dmtcp_restart(cluster2, ckpt,
                                            node_map=node_map)
        results = yield from session2.wait()
        return ckpt, cluster2, session2, results

    return env.run(until=env.process(scenario()))


def test_checkpoint_restart_new_cluster_pingpong_completes():
    """The headline result: live verbs traffic survives restart on a new
    cluster where every real id changed."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="pp-prod")
    session = _launch_pp(env, cluster, iters=250)
    ckpt, cluster2, session2, results = _restart_scenario(
        env, cluster, session, "pp-spare")
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 250 for r in results)


def test_restart_remaps_every_real_id():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="idmap-prod")
    plugins = []

    def factory():
        p = InfinibandPlugin()
        plugins.append(p)
        return [p]

    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=200), plugin_factory=factory)))
    _restart_scenario(env, cluster, session, "idmap-spare")
    for plugin in plugins:
        for vqp in plugin.qps:
            # the virtual number the app cached never changed, the real did
            assert vqp.qp_num != vqp.real.qp_num or plugin.qps == []
        for vmr in plugin.mrs:
            assert vmr.rkey != vmr.real.rkey
        for vctx in plugin.contexts:
            assert vctx.vlid != vctx.real_lid  # new cluster, new lids
        assert plugin.stats["replayed_modifies"] >= 3  # INIT/RTR/RTS ladder


def test_restart_on_rdma_mode_pingpong():
    """RDMA-write-with-immediate traffic (the Open MPI default path)
    survives restart; rkey translation goes through (pd, vrkey)."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="rdma-prod")
    session = _launch_pp(env, cluster, iters=150, use_rdma=True)
    ckpt, cluster2, session2, results = _restart_scenario(
        env, cluster, session, "rdma-spare", ckpt_at=0.004)
    assert all(r["iters"] == 150 for r in results)


def test_principle6_inflight_send_reposted_on_restart():
    """A send posted with no matching receive yet (RNR-retrying, so no
    completion anywhere) is re-posted from the log at restart and the data
    is re-sent from restored memory."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="p6-prod")
    state = {}

    def sender(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("s.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["sender"] = {"lid": ibv.query_port(ibctx).lid,
                           "qpn": qp.qp_num}
        while "receiver" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, state["receiver"]["qpn"],
                  state["receiver"]["lid"])
        qp_to_rts(ibv, qp)
        buf.view()[:8] = np.frombuffer(b"PRECKPT!", dtype=np.uint8)
        ibv.post_send(qp, ibv_send_wr(1, [ibv_sge(buf.addr, 8, mr.lkey)],
                                      opcode=WrOpcode.SEND))
        state["sent"] = True
        # wait for the send completion (it can only succeed after the
        # receiver finally posts a buffer — post-restart)
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-4)
        return "sender-done"

    def receiver(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("r.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["receiver"] = {"lid": ibv.query_port(ibctx).lid,
                             "qpn": qp.qp_num}
        while "sender" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, state["sender"]["qpn"], state["sender"]["lid"])
        qp_to_rts(ibv, qp)
        # deliberately DO NOT post a receive before the checkpoint: the
        # message stays "in flight" (RNR-retrying), completing nowhere
        while not state.get("resume_now"):
            yield ctx.sleep(1e-4)
        ibv.post_recv(qp, ibv_recv_wr(9, [ibv_sge(buf.addr, 64, mr.lkey)]))
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-4)
        return bytes(buf.buffer[:8])

    def scenario():
        session = yield from dmtcp_launch(
            cluster,
            [AppSpec(0, "snd", sender), AppSpec(1, "rcv", receiver)],
            plugin_factory=lambda: [InfinibandPlugin()])
        while not state.get("sent"):
            yield env.timeout(1e-4)
        yield env.timeout(2e-3)  # let RNR retries churn
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="p6-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        state["resume_now"] = True
        results = yield from session2.wait()
        return results

    results = env.run(until=env.process(scenario()))
    assert results[0] == "sender-done"
    assert results[1] == b"PRECKPT!"


def test_restart_resends_from_restored_memory():
    """Principle 6's memory argument: the re-sent payload is read from the
    *restored* buffer — post-checkpoint scribbling must not leak through,
    and the plugin's counters must show a genuine re-post."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="mem-prod")
    state = {}
    plugin_holder = []

    def factory():
        p = InfinibandPlugin()
        plugin_holder.append(p)
        return [p]

    def sender(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("s.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["sender"] = {"lid": ibv.query_port(ibctx).lid,
                           "qpn": qp.qp_num}
        while "receiver" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, state["receiver"]["qpn"],
                  state["receiver"]["lid"])
        qp_to_rts(ibv, qp)
        buf.view()[:8] = np.frombuffer(b"GOODDATA", dtype=np.uint8)
        state["send_buf"] = buf
        ibv.post_send(qp, ibv_send_wr(1, [ibv_sge(buf.addr, 8, mr.lkey)],
                                      opcode=WrOpcode.SEND))
        state["sent"] = True
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-4)
        return "sender-done"

    def receiver(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("r.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["receiver"] = {"lid": ibv.query_port(ibctx).lid,
                             "qpn": qp.qp_num}
        while "sender" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, state["sender"]["qpn"], state["sender"]["lid"])
        qp_to_rts(ibv, qp)
        while not state.get("resume_now"):
            yield ctx.sleep(1e-4)
        ibv.post_recv(qp, ibv_recv_wr(9, [ibv_sge(buf.addr, 64, mr.lkey)]))
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-4)
        return bytes(buf.buffer[:8])

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "snd", sender), AppSpec(1, "rcv", receiver)],
            plugin_factory=factory)
        while not state.get("sent"):
            yield env.timeout(1e-4)
        yield env.timeout(2e-3)
        ckpt = yield from session.checkpoint(intent="restart")
        # post-checkpoint scribble: restore must roll this back before the
        # log replay re-reads the buffer
        state["send_buf"].view()[:8] = \
            np.frombuffer(b"BAD!BAD!", dtype=np.uint8)
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="mem-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        state["resume_now"] = True
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    assert results[0] == "sender-done"
    assert results[1] == b"GOODDATA"
    assert sum(p.stats["reposted_sends"] for p in plugin_holder) >= 1


# -- limitation modes (§4 / §7) ------------------------------------------------------


def test_heterogeneous_restart_rejected_and_reload_path():
    qlogic = HardwareSpec(name="qlogic", cores_per_node=1,
                          gflops_per_core=1.5, hca_vendor="qib",
                          has_lustre=False)
    for allow, should_raise in ((False, True), (True, False)):
        env = Environment()
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name=f"het{allow}")
        session = env.run(until=env.process(dmtcp_launch(
            cluster, _pp_specs(cluster, iters=200),
            plugin_factory=lambda: [InfinibandPlugin(
                allow_driver_reload=allow)])))

        def scenario():
            yield env.timeout(0.002)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            cluster2 = Cluster(env, qlogic, n_nodes=2, name=f"qla{allow}")
            session2 = yield from dmtcp_restart(cluster2, ckpt)
            return (yield from session2.wait())

        if should_raise:
            with pytest.raises(HeterogeneousDriverError):
                env.run(until=env.process(scenario()))
        else:
            results = env.run(until=env.process(scenario()))
            assert all(r["errors"] == 0 for r in results)


def test_ud_qp_checkpoint_rejected():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="ud")

    def app(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq,
                                           qp_type=QpType.UD))
        yield ctx.sleep(10.0)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        yield env.timeout(0.5)
        yield from session.checkpoint(intent="resume")

    with pytest.raises(UnsupportedQpTypeError):
        env.run(until=env.process(scenario()))


def test_rkey_resolution_via_pd_tuple_unit():
    """§3.2.2: identical vrkeys from different remote nodes resolve through
    the remote pd, never globally."""
    plugin = InfinibandPlugin()
    plugin.restarted = True
    plugin.db = {
        "qp:10/100": {"pd": "nodeA/0", "qpn": 777},
        "qp:20/100": {"pd": "nodeB/0", "qpn": 888},  # same vqpn, other lid!
        "mr:nodeA/0:5000": 6001,
        "mr:nodeB/0:5000": 6002,  # same vrkey under a different pd
    }
    vqp_to_a = VirtualQp(real=None, vpd=None, qp_num=1, qp_type=QpType.RC,
                         vsend_cq=None, vrecv_cq=None, vsrq=None,
                         sq_sig_all=False, remote_vqpn=100, remote_vlid=10)
    vqp_to_b = VirtualQp(real=None, vpd=None, qp_num=2, qp_type=QpType.RC,
                         vsend_cq=None, vrecv_cq=None, vsrq=None,
                         sq_sig_all=False, remote_vqpn=100, remote_vlid=20)
    assert plugin.translate_rkey(vqp_to_a, 5000) == 6001
    assert plugin.translate_rkey(vqp_to_b, 5000) == 6002


def test_translate_rkey_identity_before_restart():
    plugin = InfinibandPlugin()
    vqp = VirtualQp(real=None, vpd=None, qp_num=1, qp_type=QpType.RC,
                    vsend_cq=None, vrecv_cq=None, vsrq=None,
                    sq_sig_all=False)
    assert plugin.translate_rkey(vqp, 4242) == 4242


def test_src_qp_survives_two_hcas_reusing_one_real_qpn():
    """Real qp numbers are unique per HCA only.  When both restart nodes
    hand out the same real number, each side must still see its own
    peer's *virtual* number in ``wc.src_qp`` — a job-wide table keyed by
    bare real qpn cannot tell the two apart."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="alias-prod")
    state = {}

    def peer(me, other):
        def app(ctx):
            ibv = ctx.ibv
            ibctx = ibv.open_device(ibv.get_device_list()[0])
            pd = ibv.alloc_pd(ibctx)
            cq = ibv.create_cq(ibctx)
            buf = ctx.memory.mmap(f"{me}.buf", 64)
            mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
            qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
            state[me] = {"lid": ibv.query_port(ibctx).lid, "qpn": qp.qp_num}
            while other not in state:
                yield ctx.sleep(1e-5)
            qp_to_init(ibv, qp)
            qp_to_rtr(ibv, qp, state[other]["qpn"], state[other]["lid"])
            qp_to_rts(ibv, qp)
            ibv.post_recv(qp, ibv_recv_wr(
                7, [ibv_sge(buf.addr + 32, 32, mr.lkey)]))
            state[me]["ready"] = True
            while not state.get("restarted"):
                yield ctx.sleep(1e-4)
            ibv.post_send(qp, ibv_send_wr(
                1, [ibv_sge(buf.addr, 8, mr.lkey)], opcode=WrOpcode.SEND))
            src = None
            while src is None:
                for wc in ibv.poll_cq(cq, 4):
                    if wc.wr_id == 7:
                        src = wc.src_qp
                yield ctx.sleep(1e-4)
            return src
        return app

    def scenario():
        session = yield from dmtcp_launch(
            cluster,
            [AppSpec(0, "a", peer("a", "b")), AppSpec(1, "b", peer("b", "a"))],
            plugin_factory=lambda: [InfinibandPlugin()])
        while not all(state.get(k, {}).get("ready") for k in "ab"):
            yield env.timeout(1e-4)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="alias-spare")
        for node in cluster2.nodes:
            node.hca._next_qpn = 0x4242     # force the collision
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        reals = {vqp.real.qp_num for proc in session2.procs
                 for vqp in proc.plugins[0].qps}
        state["restarted"] = True
        return reals, (yield from session2.wait())

    reals, results = env.run(until=env.process(scenario()))
    assert reals == {0x4242}
    assert state["a"]["qpn"] != state["b"]["qpn"]
    assert results == [state["b"]["qpn"], state["a"]["qpn"]]


# -- restart under injected failure (the chaos path) -------------------------------
# The graceful _restart_scenario above tears the old cluster down politely;
# these variants crash a node out from under the frozen job first — the
# fault-injection subsystem's precondition for every recovery.

from repro.faults import FailureEvent, FixedSchedule, Injector  # noqa: E402


def _crash_then_restart(env, cluster, ckpt, spare_name, crash_node=1,
                        n_nodes=2):
    """Crash ``crash_node`` via the injector, tear down the rest, restart
    the CheckpointSet on a spare cluster; returns (record, session2)."""
    def flow():
        injector = Injector(env, FixedSchedule([
            FailureEvent(t=env.now + 1e-6, kind="node-crash",
                         node_index=crash_node)]))
        injector.set_target(cluster)
        record = yield injector.arm()
        cluster.teardown()
        spare = Cluster(env, BUFFALO_CCR, n_nodes=n_nodes, name=spare_name)
        session2 = yield from dmtcp_restart(spare, ckpt)
        return record, session2

    return flow()


def test_injected_crash_restart_pingpong_completes():
    """A node crash (not a graceful teardown) between freeze and restart:
    the frozen continuations survive the crash because the freeze detached
    them, and the job completes on the spare cluster with every payload."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="crash-prod")
    plugins = []

    def factory():
        p = InfinibandPlugin()
        plugins.append(p)
        return [p]

    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=250), plugin_factory=factory)))

    def scenario():
        yield env.timeout(0.002)
        ckpt = yield from session.checkpoint(intent="restart")
        record, session2 = yield from _crash_then_restart(
            env, cluster, ckpt, "crash-spare")
        results = yield from session2.wait()
        return record, results

    record, results = env.run(until=env.process(scenario()))
    assert record.kind == "node-crash" and record.fatal and record.applied
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 250 for r in results)
    # the restart replayed the QP state ladder against fresh real ids
    for plugin in plugins:
        assert plugin.stats["replayed_modifies"] >= 3
        for vqp in plugin.qps:
            assert vqp.qp_num != vqp.real.qp_num
        for vmr in plugin.mrs:
            assert vmr.rkey != vmr.real.rkey
        for vctx in plugin.contexts:
            assert vctx.vlid != vctx.real_lid


def test_injected_crash_private_cq_refill_first():
    """Principle 5 under failure: a completion that landed in the real CQ
    before the freeze is drained into the private queue; after the crash
    and restart the app's first poll is served from that private queue —
    the fresh real CQ on the spare cluster never saw the message."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="refill-prod")
    state = {}
    plugins = []

    def factory():
        p = InfinibandPlugin()
        plugins.append(p)
        return [p]

    def sender(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("s.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["sender"] = {"lid": ibv.query_port(ibctx).lid,
                           "qpn": qp.qp_num}
        while "receiver" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        qp_to_rtr(ibv, qp, state["receiver"]["qpn"],
                  state["receiver"]["lid"])
        qp_to_rts(ibv, qp)
        while not state.get("recv_ready"):
            yield ctx.sleep(1e-5)
        buf.view()[:8] = np.frombuffer(b"DRAINED!", dtype=np.uint8)
        ibv.post_send(qp, ibv_send_wr(1, [ibv_sge(buf.addr, 8, mr.lkey)],
                                      opcode=WrOpcode.SEND))
        # poll the send completion NOW, pre-freeze, so the send log is
        # clear and nothing gets re-posted at restart
        while not ibv.poll_cq(cq, 1):
            yield ctx.sleep(1e-4)
        state["sent_and_completed"] = True
        while not state.get("resume_now"):
            yield ctx.sleep(1e-4)
        return "sender-done"

    def receiver(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        buf = ctx.memory.mmap("r.buf", 64)
        mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        state["receiver"] = {"lid": ibv.query_port(ibctx).lid,
                             "qpn": qp.qp_num}
        while "sender" not in state:
            yield ctx.sleep(1e-5)
        qp_to_init(ibv, qp)
        # post the receive BEFORE the send happens: the transfer completes
        # into the real CQ pre-freeze, but we deliberately do not poll it
        ibv.post_recv(qp, ibv_recv_wr(9, [ibv_sge(buf.addr, 64, mr.lkey)]))
        qp_to_rtr(ibv, qp, state["sender"]["qpn"], state["sender"]["lid"])
        qp_to_rts(ibv, qp)
        state["recv_ready"] = True
        while not state.get("resume_now"):
            yield ctx.sleep(1e-4)
        wcs = ibv.poll_cq(cq, 16)  # first poll after restart
        state["first_poll"] = wcs
        return bytes(buf.buffer[:8])

    def scenario():
        session = yield from dmtcp_launch(
            cluster,
            [AppSpec(0, "snd", sender), AppSpec(1, "rcv", receiver)],
            plugin_factory=factory)
        while not state.get("sent_and_completed"):
            yield env.timeout(1e-4)
        yield env.timeout(1e-3)
        ckpt = yield from session.checkpoint(intent="restart")
        record, session2 = yield from _crash_then_restart(
            env, cluster, ckpt, "refill-spare", crash_node=0)
        state["resume_now"] = True
        results = yield from session2.wait()
        return results

    results = env.run(until=env.process(scenario()))
    assert results[1] == b"DRAINED!"
    # the completion was drained at freeze and served private-queue-first:
    # nothing was re-posted, so only the refill could have delivered it
    assert sum(p.stats["drained_completions"] for p in plugins) >= 1
    assert sum(p.stats["reposted_sends"] for p in plugins) == 0
    assert [wc.wr_id for wc in state["first_poll"]] == [9]


def test_resource_churn_across_three_restarts():
    """Two ranks build a PD, MR, CQ, SRQ and QP, exchange a message, and
    keep the set across a checkpoint-restart; after the restart they
    exchange again through the re-created set and destroy it, then build
    the next one — three restarts in all.  Destroyed resources must
    leave the plugin's registries and translation tables (so restart
    never re-creates them), the destroy wrappers must work on
    re-created real resources, and every payload must arrive intact."""
    env = Environment()
    plugins = []
    state = {}
    restarts = 3

    def factory():
        plugin = InfinibandPlugin()
        plugins.append(plugin)
        return [plugin]

    def wait_for(ctx, key):
        while key not in state:
            yield ctx.sleep(1e-5)

    def app(rank):
        peer = 1 - rank

        def run(ctx):
            ibv = ctx.ibv
            ibctx = ibv.open_device(ibv.get_device_list()[0])
            buf = ctx.memory.mmap(f"churn{rank}.buf", 64)
            errors = 0
            for epoch in range(restarts + 1):
                pd = ibv.alloc_pd(ibctx)
                mr = ibv.reg_mr(pd, buf.addr, 64, FULL)
                cq = ibv.create_cq(ibctx)
                srq = ibv.create_srq(pd, max_wr=8)
                qp = ibv.create_qp(pd, ibv_qp_init_attr(
                    send_cq=cq, recv_cq=cq, srq=srq))
                state[("ids", epoch, rank)] = (ibv.query_port(ibctx).lid,
                                               qp.qp_num)
                yield from wait_for(ctx, ("ids", epoch, peer))
                lid, qpn = state[("ids", epoch, peer)]
                qp_to_init(ibv, qp)
                qp_to_rtr(ibv, qp, qpn, lid)
                qp_to_rts(ibv, qp)
                phases = ("pre", "post") if epoch < restarts else ("pre",)
                for phase in phases:
                    if phase == "post":
                        state[("parked", epoch, rank)] = True
                        yield from wait_for(ctx, ("resumed", epoch))
                    ibv.post_srq_recv(srq, ibv_recv_wr(
                        2, [ibv_sge(buf.addr + 32, 32, mr.lkey)]))
                    state[("posted", epoch, phase, rank)] = True
                    yield from wait_for(ctx, ("posted", epoch, phase, peer))
                    ctx.memory.write(buf.addr,
                                     f"{phase}{epoch}r{rank}".encode())
                    ibv.post_send(qp, ibv_send_wr(
                        1, [ibv_sge(buf.addr, 8, mr.lkey)],
                        opcode=WrOpcode.SEND))
                    done = set()
                    while done != {1, 2}:
                        done.update(wc.wr_id for wc in ibv.poll_cq(cq, 4))
                        yield ctx.sleep(1e-5)
                    want = f"{phase}{epoch}r{peer}".encode()
                    errors += bytes(buf.buffer[32:32 + len(want)]) != want
                ibv.destroy_qp(qp)
                ibv.destroy_srq(srq)
                ibv.destroy_cq(cq)
                ibv.dereg_mr(mr)
                ibv.dealloc_pd(pd)
            ibv.close_device(ibctx)
            return errors

        return run

    def scenario():
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="churn-0")
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "churn0", app(0)),
                      AppSpec(1, "churn1", app(1))],
            plugin_factory=factory)
        for epoch in range(restarts):
            while not (state.get(("parked", epoch, 0))
                       and state.get(("parked", epoch, 1))):
                yield env.timeout(1e-4)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            cluster = Cluster(env, BUFFALO_CCR, n_nodes=2,
                              name=f"churn-{epoch + 1}")
            session = yield from dmtcp_restart(cluster, ckpt)
            state[("resumed", epoch)] = True
        results = yield from session.wait()
        return results

    results = env.run(until=env.process(scenario()))
    assert results == [0, 0]
    assert len(plugins) == 2
    for plugin in plugins:
        assert plugin.appctx.restarts == restarts
        assert not (plugin.contexts or plugin.pds or plugin.mrs
                    or plugin.cqs or plugin.srqs or plugin.qps)
        assert not (plugin.vqp_by_vqpn or plugin.vqp_by_real_qpn
                    or plugin.vmr_by_vlkey)


# -- one value per posted receive -----------------------------------------------

def test_one_value_per_posted_receive_at_mpi_scale():
    """The host-memory gate on receive bookkeeping: after a 16-rank MPI
    LU launch under the plugin each of a rank's 256 control slots is one
    live ``ibv_recv_wr``, shared by the BTL, the plugin's log and the
    driver's SRQ; after a restart moves every lkey, at most two (the
    virtual one and the driver's translated one).  QPs attached to an SRQ
    hold no receive deque and unbounded stores no putter deque."""
    import gc

    from repro.apps.nas import lu_app
    from repro.core.ib_plugin import shadow
    from repro.hardware import MGHPCC
    from repro.mpi import make_mpi_specs
    from repro.mpi.btl_ib import _N_CTRL_SLOTS
    from repro.sim import Store

    def live(cls):
        gc.collect()
        return [o for o in gc.get_objects() if type(o) is cls]

    ranks = 16
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="one-value")
    specs = make_mpi_specs(cluster, ranks, lambda ctx, comm: lu_app(
        ctx, comm, klass="A", iters_sim=2), ppn=4)
    before = len(live(ibv_recv_wr))
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))
    env.run(until=env.now + 0.002)
    assert len(live(ibv_recv_wr)) - before == _N_CTRL_SLOTS * ranks
    assert not hasattr(shadow, "RecvLogEntry")
    qps = [vqp for proc in session.procs for vqp in proc.plugins[0].qps]
    assert qps and all(vqp.vsrq is not None for vqp in qps)
    assert all(vqp.real._hw.recv_queue is None for vqp in qps)
    assert not [s for s in live(Store)
                if s.capacity == float("inf") and s._putters is not None]

    ckpt = env.run(until=env.process(session.checkpoint(intent="restart")))
    cluster.teardown()
    cluster2 = Cluster(env, MGHPCC, n_nodes=4, name="one-value-2")
    session2 = env.run(until=env.process(dmtcp_restart(cluster2, ckpt)))
    env.run(until=env.now + 0.002)
    assert len(live(ibv_recv_wr)) - before <= 2 * _N_CTRL_SLOTS * ranks
    results = env.run(until=env.process(session2.wait()))
    assert len({r.checksum for r in results}) == 1
