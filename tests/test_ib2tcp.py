"""Tests for the IB2TCP plugin: checkpoint on InfiniBand, restart on an
Ethernet-only debug cluster with a different kernel (paper §6.4)."""

import functools

import pytest

from repro.apps.nas import lu_app
from repro.apps.pingpong import CqWaiter, pingpong_app
from repro.core import Ib2TcpPlugin, InfinibandPlugin
from repro.core.ib_plugin import NoInfinibandError
from repro.dmtcp import AppSpec, dmtcp_launch, dmtcp_restart
from repro.hardware import (
    BUFFALO_CCR,
    Cluster,
    DEV_CLUSTER,
    ETHERNET_DEBUG_CLUSTER,
)
from repro.hardware.hca import SoftHca
from repro.ibverbs import (
    AccessFlags,
    QpHardware,
    VerbsLib,
    WrOpcode,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.ibverbs.connect import qp_to_init, qp_to_rtr, qp_to_rts
from repro.mpi import make_mpi_specs
from repro.net.tcp import TcpStack
from repro.sim import Environment

_SRQ_PORT = 18600


def _pp_specs(cluster, iters=60, msg_bytes=2048, use_rdma=False):
    server = cluster.nodes[0].name
    return [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, None, True, iters=iters,
                                         msg_bytes=msg_bytes,
                                         use_rdma=use_rdma)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, server, False, iters=iters,
                                         msg_bytes=msg_bytes,
                                         use_rdma=use_rdma)),
    ]


def _with_ib2tcp():
    return [InfinibandPlugin(fallback=Ib2TcpPlugin())]


def _migrate(env, cluster, session, debug_nodes=2, node_map=None):
    def scenario():
        yield env.timeout(0.002)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=debug_nodes,
                        name="debug-cluster")
        session2 = yield from dmtcp_restart(debug, ckpt, node_map=node_map)
        results = yield from session2.wait()
        return debug, results

    return env.run(until=env.process(scenario()))


def test_restart_on_ethernet_without_ib2tcp_fails():
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=200),
        plugin_factory=lambda: [InfinibandPlugin()])))
    with pytest.raises(NoInfinibandError):
        _migrate(env, cluster, session)


def test_ib_to_ethernet_migration_pingpong():
    """The §6.4 headline: checkpoint over IB, restart over TCP — the
    application's virtual verbs resources keep working."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=120),
        plugin_factory=_with_ib2tcp)))
    debug, results = _migrate(env, cluster, session)
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 120 for r in results)


def test_kernel_version_differs_across_migration():
    """DMTCP's advantage over BLCR: the debug cluster runs another kernel."""
    assert DEV_CLUSTER.kernel_version != ETHERNET_DEBUG_CLUSTER.kernel_version
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=60),
        plugin_factory=_with_ib2tcp)))
    debug, results = _migrate(env, cluster, session)
    assert all(r["errors"] == 0 for r in results)


def test_migration_rdma_mode():
    """RDMA writes with immediate data work over the TCP emulation."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod-rdma")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=80, use_rdma=True),
        plugin_factory=_with_ib2tcp)))
    debug, results = _migrate(env, cluster, session)
    assert all(r["iters"] == 80 for r in results)


def _lu_checksum(plugin_factory, restart_onto=None, then=None):
    """A 2-rank MPI LU on the IB cluster; with ``restart_onto``, frozen
    at t=0.01 s and restarted on that Ethernet-only spec.  With ``then``,
    an ``(onto, offset)`` pair, the restarted job checkpoints again
    ``offset`` seconds later: it resumes when ``onto`` is None, else it
    restarts once more on a fresh cluster of spec ``onto``."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod-lu")
    specs = make_mpi_specs(cluster, 2, lambda ctx, comm: lu_app(
        ctx, comm, klass="A", iters_sim=8))

    def scenario():
        session = yield from dmtcp_launch(cluster, specs,
                                          plugin_factory=plugin_factory)
        if restart_onto is not None:
            yield env.timeout(0.01)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            debug = Cluster(env, restart_onto, n_nodes=2, name="debug-lu")
            session = yield from dmtcp_restart(debug, ckpt)
            if then is not None:
                onto, offset = then
                yield env.timeout(offset)
                if onto is None:
                    yield from session.checkpoint(intent="resume")
                else:
                    ckpt = yield from session.checkpoint(intent="restart")
                    debug.teardown()
                    third = Cluster(env, onto, n_nodes=2, name="third-lu")
                    session = yield from dmtcp_restart(third, ckpt)
        results = yield from session.wait()
        return results[0].checksum

    return env.run(until=env.process(scenario()))


@functools.lru_cache(maxsize=None)
def _ib_reference():
    """The uninterrupted InfiniBand run's checksum."""
    return _lu_checksum(lambda: [InfinibandPlugin()])


def test_ib2tcp_restart_carries_srq_and_rdma_write(monkeypatch):
    """Principle 6 over TCP: MPI LU posts its receives to an SRQ and
    moves halos by RDMA write; checkpointed on InfiniBand and restarted
    on Ethernet, both run on the IB2TCP provider's soft HCA and the job
    ends with the uninterrupted IB run's checksum."""
    reference = _ib_reference()
    calls = {"srq_posts": 0, "rdma_writes": 0}

    def on_soft_hca(holder):   # a driver blob or a QP engine
        return isinstance(holder.session.hca, SoftHca)

    def post_srq_recv(self, srq, wrs, _orig=VerbsLib._drv_post_srq_recv):
        calls["srq_posts"] += on_soft_hca(srq._driver_blob)
        return _orig(self, srq, wrs)

    def rx_rdma_write(self, pkt, _orig=QpHardware._rx_rdma_write):
        calls["rdma_writes"] += on_soft_hca(self)
        return _orig(self, pkt)

    monkeypatch.setattr(VerbsLib, "_drv_post_srq_recv", post_srq_recv)
    monkeypatch.setattr(QpHardware, "_rx_rdma_write", rx_rdma_write)
    assert _lu_checksum(_with_ib2tcp, ETHERNET_DEBUG_CLUSTER) == reference
    assert calls["srq_posts"] > 0 and calls["rdma_writes"] > 0


@pytest.mark.parametrize("offset", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("onto", [None, ETHERNET_DEBUG_CLUSTER, DEV_CLUSTER],
                         ids=["resume", "restart-ethernet",
                              "restart-infiniband"])
def test_ib2tcp_job_checkpoints_again(onto, offset):
    """A job restarted over TCP is checkpointed again: it resumes, moves
    to a second Ethernet cluster, or comes back to InfiniBand — each at
    any instant of its TCP run — and ends with the uninterrupted IB
    run's checksum.  The provider's engines belong to the soft HCA, not
    to the application, so the second checkpoint drains and replays
    queue pairs on TCP exactly as on InfiniBand."""
    assert _lu_checksum(_with_ib2tcp, ETHERNET_DEBUG_CLUSTER,
                        then=(onto, offset)) == _ib_reference()


def test_restart_on_single_ethernet_node():
    """§6.4.2 also restarts the whole computation on a single node."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod-1n")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=60),
        plugin_factory=_with_ib2tcp)))
    debug, results = _migrate(env, cluster, session, debug_nodes=1,
                              node_map={0: 0, 1: 0})
    assert all(r["errors"] == 0 for r in results)
    assert len(debug.nodes[0].processes) >= 2


def test_ethernet_execution_much_slower_than_ib():
    """Table 8's shape: the same workload runs far slower post-migration
    (steady-state per-iteration rate, excluding the freeze/restart)."""
    from repro.apps.nas.common import post_restart_rate

    iters = 3000

    def run_ib():
        env = Environment()
        cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="ib-base")
        session = env.run(until=env.process(dmtcp_launch(
            cluster, _pp_specs(cluster, iters=iters),
            plugin_factory=lambda: [InfinibandPlugin()])))
        results = env.run(until=env.process(session.wait()))
        return max(r["elapsed"] / r["iters"] for r in results)

    def run_migrated():
        env = Environment()
        cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="ib-mig")
        session = env.run(until=env.process(dmtcp_launch(
            cluster, _pp_specs(cluster, iters=iters),
            plugin_factory=_with_ib2tcp)))

        def scenario():
            yield env.timeout(0.01)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                            name="debug-rate")
            t_restarted = env.now
            session2 = yield from dmtcp_restart(debug, ckpt)
            results = yield from session2.wait()
            return results, t_restarted

        results, t_restarted = env.run(until=env.process(scenario()))
        return max(post_restart_rate(r["marks"], t_restarted)
                   for r in results)

    per_iter_ib = run_ib()
    per_iter_eth = run_migrated()
    assert per_iter_eth > 10 * per_iter_ib  # paper sees ~47x on ping-pong


def test_ib2tcp_copy_overhead_charged_pre_restart():
    """DMTCP/IB2TCP/IB (no migration) is slower than DMTCP/IB (Table 8).

    Clocks and call counts are pinned to the last bit, with and without
    the fallback loaded: the post wrappers charge inline, and whatever
    they add to ``overhead_debt`` (a float sum: wrapper cost first, then
    the IB2TCP copy) must stay exactly what the seed charged."""
    iters = 150

    def run(factory):
        env = Environment()
        cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="ovh")
        session = env.run(until=env.process(dmtcp_launch(
            cluster, _pp_specs(cluster, iters=iters),
            plugin_factory=factory)))
        results = env.run(until=env.process(session.wait()))
        calls = sum(p.plugins[0].stats["wrapper_calls"]
                    for p in session.procs)
        return max(r["elapsed"] for r in results), env.now, calls

    t_plain, now_plain, calls_plain = run(lambda: [InfinibandPlugin()])
    t_ib2tcp, now_ib2tcp, calls_ib2tcp = run(_with_ib2tcp)
    assert t_ib2tcp > t_plain
    assert (t_plain, now_plain) == (0.0013027099999728398,
                                    0.746404972807056)
    assert (t_ib2tcp, now_ib2tcp) == (0.0016065019999789154,
                                      0.746708764807062)
    assert calls_plain == calls_ib2tcp == 1523


def _srq_pair_app(ctx, peer_host, is_receiver):
    """A 2-process verbs job over one SRQ of a single WQE.  The sender
    waits out the restart, then posts two SENDs back to back; the
    receiver re-arms its one slot only some time after the first message
    landed, so the second arrives while the SRQ is empty."""
    ibv = ctx.ibv
    ibctx = ibv.open_device(ibv.get_device_list()[0])
    pd = ibv.alloc_pd(ibctx)
    cq = ibv.create_cq(ibctx, cqe=16)
    srq = ibv.create_srq(pd, max_wr=1) if is_receiver else None
    qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq,
                                            srq=srq))
    buf = ctx.memory.mmap(f"{ctx.name}.srqbuf", 128)
    mr = ibv.reg_mr(pd, buf.addr, 128, AccessFlags.LOCAL_WRITE)
    stack = TcpStack.of(ctx.proc.node)
    mine = {"lid": ibv.query_port(ibctx).lid, "qpn": qp.qp_num}
    if is_receiver:
        conn = yield stack.listen(_SRQ_PORT).accept()
        peer = yield conn.recv()
        yield from conn.send(mine)
    else:
        conn = yield from stack.connect(peer_host, _SRQ_PORT)
        yield from conn.send(mine)
        peer = yield conn.recv()
    qp_to_init(ibv, qp)
    qp_to_rtr(ibv, qp, dest_qp_num=peer["qpn"], dlid=peer["lid"])
    qp_to_rts(ibv, qp)
    slot = lambda i: ibv_recv_wr(i, (ibv_sge(buf.addr + 64 * i, 64,
                                             mr.lkey),))
    waiter = CqWaiter(ctx, ibv, cq)
    if is_receiver:
        ibv.post_srq_recv(srq, slot(0))
        first = yield from waiter.wait(recv=True)
        yield ctx.sleep(0.5)
        ibv.post_srq_recv(srq, slot(1))
        second = yield from waiter.wait(recv=True)
        return [ctx.memory.read(buf.addr + 64 * wc.wr_id, 5)
                for wc in (first, second)]
    yield ctx.sleep(1.0)            # the checkpoint lands in here
    for i, payload in enumerate((b"first", b"again")):
        ctx.memory.write(buf.addr + 64 * i, payload)
        ibv.post_send(qp, ibv_send_wr(i, (ibv_sge(buf.addr + 64 * i, 5,
                                                  mr.lkey),),
                                      opcode=WrOpcode.SEND))
    for _ in range(2):
        yield from waiter.wait(recv=False)
    return []


def test_ib2tcp_srq_post_delivers_a_send_that_found_the_srq_empty():
    """A send that reaches an SRQ with no WQE is RNR-NAKed and retried,
    as on any RC queue pair; once the next post to that SRQ lands, the
    retry delivers it, or its receiver waits forever."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="prod-srq")
    receiver = cluster.nodes[0].name
    specs = [AppSpec(0, "srq-rx", lambda ctx: _srq_pair_app(
                 ctx, None, True)),
             AppSpec(1, "srq-tx", lambda ctx: _srq_pair_app(
                 ctx, receiver, False))]
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=_with_ib2tcp)))
    done = {}

    def scenario():
        yield env.timeout(0.01)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                        name="debug-srq")
        session2 = yield from dmtcp_restart(debug, ckpt)
        done["results"] = yield from session2.wait()

    env.process(scenario())
    env.run(until=60.0)
    assert done.get("results") == [[b"first", b"again"], []]


@pytest.mark.parametrize("teardown_at", [None, 0.5e-3])
def test_soft_hca_copies_then_frames_each_send(teardown_at):
    """A soft HCA pays ``tcp_per_byte`` on every byte, then puts the frame
    on the Ethernet segment with 96 bytes of TCP/IP framing.  A segment
    that goes down during the copy loses the frame, as it loses every
    frame in flight: nothing raises."""
    env = Environment()
    cluster = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                      name="soft-hca")
    src, dst = (node.soft_hca for node in cluster.nodes)
    src.tcp_per_byte = 1e-6
    arrivals = []
    dst.register_qp(7, lambda pkt: arrivals.append(env.now))
    env.process(src.hw_send(dst.lid, {"dst_qpn": 7}, 1000.0))
    if teardown_at is not None:
        env.run(until=teardown_at)
        cluster.teardown()
    env.run()
    spec = ETHERNET_DEBUG_CLUSTER
    expected = [1000 * 1e-6 + 1096 / spec.eth_bandwidth
                + spec.eth_latency + spec.eth_msg_overhead]
    assert arrivals == ([] if teardown_at else pytest.approx(expected))


#: Table 9's simulated cells, exact: environment -> LU.A.2 runtime (s).
#: The simulator is deterministic, so any drift is a behaviour change
#: that must re-pin these in the same change.
TABLE9 = {
    "IB (w/o DMTCP)": 27.22018789326847,
    "DMTCP/IB (w/o IB2TCP)": 27.99585112200686,
    "DMTCP/IB2TCP/IB": 27.99732307071001,
    "DMTCP/IB2TCP/Ethernet (2 nodes)": 43.9816451617485,
    "DMTCP/IB2TCP/Ethernet (1 node)": 61.314961161748286,
}


def test_table9_cells_are_pinned():
    from repro.experiments import table9

    table = table9.run()
    assert {row[0]: row[1] for row in table.rows} == TABLE9
