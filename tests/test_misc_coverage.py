"""Additional coverage: virtual-lid stability, MPI wildcards, UPC segment
limits, verbs error paths, checkpoint-set staging."""

import numpy as np
import pytest

from repro.core.ib_plugin import InfinibandPlugin
from repro.dmtcp import AppSpec, FileSink, dmtcp_launch, dmtcp_restart
from repro.hardware import BUFFALO_CCR, Cluster
from repro.ibverbs import QpState, VerbsError, ibv_qp_attr, QpAttrMask
from repro.mpi import ANY_SOURCE, make_mpi_specs
from repro.dmtcp import native_launch
from repro.sim import Environment
from repro.upc import make_upc_specs


def test_virtual_lid_stable_across_restart():
    """query_port returns the same (virtual) lid before and after a
    restart onto a cluster whose real lids differ (§3.2)."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="lid-prod")
    seen = {}

    def app(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        seen["before"] = ibv.query_port(ibctx).lid
        while "go" not in seen:
            yield ctx.sleep(1e-3)
        seen["after"] = ibv.query_port(ibctx).lid
        seen["real"] = ibctx.real_lid

    session = env.run(until=env.process(dmtcp_launch(
        cluster, [AppSpec(0, "p", app)],
        plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.05)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=1, name="lid-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        seen["go"] = True
        yield from session2.wait()

    env.run(until=env.process(scenario()))
    assert seen["before"] == seen["after"]      # app never sees a change
    assert seen["real"] != seen["before"]       # but the real lid moved


def test_mpi_any_source_recv():
    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.b", 64)
        if comm.rank == 0:
            got = []
            for _ in range(2):
                yield from comm.Recv(region, 0, 64, source=ANY_SOURCE,
                                     tag=9)
                got.append(int(region.view()[0]))
            return sorted(got)
        region.view()[:] = comm.rank * 10
        yield ctx.sleep(0.001 * comm.rank)
        yield from comm.Send(region, 0, 64, dest=0, tag=9)
        return None

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=3, name="anysrc")
    specs = make_mpi_specs(cluster, 3, app, ppn=1)
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    assert results[0] == [10, 20]


def test_upc_segment_exhaustion():
    def app(ctx, upc):
        with pytest.raises(MemoryError):
            upc.all_alloc(nblocks=upc.THREADS * 1000, block_bytes=1 << 20)
        yield from upc.barrier()
        return True

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="seg")
    specs = make_upc_specs(cluster, 2, app, segment_bytes=1 << 16, ppn=1)
    session = native_launch(cluster, specs)
    assert env.run(until=env.process(session.wait())) == [True, True]


def test_qp_to_err_flushes_posted_sends(ib_pair):
    """WQEs queued behind an ERR transition complete with WR_FLUSH_ERR."""
    from repro.ibverbs import ibv_send_wr, ibv_sge, WrOpcode, WcStatus
    from repro.ibverbs.connect import connect_pair

    env = ib_pair.env
    a, b = ib_pair.a, ib_pair.b
    qa, qb = a.make_qp(), b.make_qp()
    connect_pair(a.lib, qa, a.lid, b.lib, qb, b.lid)
    buf, mr = a.reg(64, "buf")
    # two sends; flip the QP to ERR while they sit in the send queue
    for i in range(2):
        a.lib.post_send(qa, ibv_send_wr(
            i, [ibv_sge(buf.addr, 8, mr.lkey)], opcode=WrOpcode.SEND))
    a.lib.modify_qp(qa, ibv_qp_attr(qp_state=QpState.ERR), QpAttrMask.STATE)

    def poller():
        got = []
        while len(got) < 1:
            got.extend(a.lib.poll_cq(a.cq, 8))
            yield env.timeout(1e-5)
        return got

    got = env.run(until=env.process(poller()))
    assert any(wc.status is WcStatus.WR_FLUSH_ERR for wc in got)


def test_file_sink_stage_from_copies_real_bytes():
    from repro.dmtcp import CheckpointImage, FileSink

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="stage-src")

    def app(ctx):
        ctx.memory.mmap(f"{ctx.name}.data", 128).view()[:] = 5
        yield ctx.compute(seconds=10.0)

    session = env.run(until=env.process(dmtcp_launch(
        cluster, [AppSpec(0, "p0", app), AppSpec(1, "p1", app)])))

    def scenario():
        yield env.timeout(1.0)
        return (yield from session.checkpoint(intent="restart"))

    ckpt = env.run(until=env.process(scenario()))
    target = Cluster(env, BUFFALO_CCR, n_nodes=2, name="stage-dst")
    FileSink(target, "local").stage_from(ckpt)
    for i, record in enumerate(ckpt.records):
        data = target.nodes[i].local_disk.fs.load(record.path)
        image = CheckpointImage.from_bytes(data)
        names = [r["name"] for r in image.memory_snapshot["regions"]]
        assert any(".data" in n for n in names)


def test_dmtcp_restart_node_map_remaps_placement():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="map-src")

    def app(ctx):
        ctx.memory.mmap(f"{ctx.name}.d", 64)
        yield ctx.compute(seconds=5.0)
        return ctx.proc.node.name

    session = env.run(until=env.process(dmtcp_launch(
        cluster, [AppSpec(0, "a", app), AppSpec(1, "b", app)],
        sink=FileSink(cluster, ckpt_dir="/ckpts"))))
    seen = {}

    def scenario():
        yield env.timeout(1.0)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        target = Cluster(env, BUFFALO_CCR, n_nodes=2, name="map-dst")
        session2 = yield from dmtcp_restart(target, ckpt,
                                            node_map={0: 1, 1: 0})
        # the restarted processes know where they now live and where the
        # launcher was told to write: the next set restarts unstaged
        yield env.timeout(1.0)
        ckpt2 = yield from session2.checkpoint(intent="restart")
        seen["records"] = {r.name: (r.node_index, r.path)
                           for r in ckpt2.records}
        session3 = yield from dmtcp_restart(target, ckpt2,
                                            stage_images=False,
                                            coord_node_index=1)
        return (yield from session3.wait())

    results = env.run(until=env.process(scenario()))
    assert results[0].endswith("n001")  # swapped placement
    assert results[1].endswith("n000")
    assert seen["records"] == {"a": (1, "/ckpts/ckpt_a.dmtcp"),
                               "b": (0, "/ckpts/ckpt_b.dmtcp")}
