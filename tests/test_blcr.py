"""Tests for the BLCR baseline and the Open MPI checkpoint-restart service."""

import numpy as np
import pytest

from repro.blcr import (
    BlcrCheckpointer,
    BlcrError,
    BlcrKernelMismatchError,
    OmpiCrsSession,
    ompi_crs_launch,
)
from repro.dmtcp import CheckpointImage
from repro.hardware import BUFFALO_CCR, Cluster, ETHERNET_DEBUG_CLUSTER, HardwareSpec
from repro.mpi import make_mpi_specs
from repro.sim import Environment


def test_blcr_single_node_roundtrip():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="blcr")
    node = cluster.nodes[0]
    host = node.fork("app")
    region = host.memory.mmap("data", 1024)
    region.view()[:] = 7
    blcr = BlcrCheckpointer(node)

    def scenario():
        image = yield from blcr.checkpoint(host, "/tmp/app.ckpt")
        region.view()[:] = 0
        blcr.restart(node, image, host)
        return (region.view() == 7).all()

    assert env.run(until=env.process(scenario()))


def test_blcr_refuses_pinned_memory():
    """BLCR cannot checkpoint DMA-registered pages — the reason the CRS
    must tear the network down first."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="blcr-pin")
    host = cluster.nodes[0].fork("app")
    region = host.memory.mmap("pinned", 256)
    host.memory.pin(region.addr, 256)
    blcr = BlcrCheckpointer(cluster.nodes[0])

    def scenario():
        yield from blcr.checkpoint(host, "/tmp/x.ckpt")

    with pytest.raises(BlcrError, match="pinned"):
        env.run(until=env.process(scenario()))


def test_blcr_restart_requires_same_kernel():
    env = Environment()
    prod = Cluster(env, BUFFALO_CCR, n_nodes=1, name="prod")
    debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=1, name="debug")
    host = prod.nodes[0].fork("app")
    host.memory.mmap("d", 64)
    blcr = BlcrCheckpointer(prod.nodes[0])

    def scenario():
        image = yield from blcr.checkpoint(host, "/tmp/a.ckpt")
        return image

    image = env.run(until=env.process(scenario()))
    host2 = debug.nodes[0].fork("app2")
    with pytest.raises(BlcrKernelMismatchError):
        blcr.restart(debug.nodes[0], image, host2)
    # same kernel works
    host3 = prod.nodes[0].fork("app3")
    blcr.restart(prod.nodes[0], image, host3)
    assert host3.memory.region("d").size == 64


def _iterative_mpi_app(iters=10, quantum=0.05):
    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.data", 512)
        acc = region.view(dtype=np.float64)
        for it in range(iters):
            value = yield from comm.allreduce_obj(1.0, lambda a, b: a + b)
            acc[0] += value
            yield ctx.compute(seconds=quantum)
        return float(acc[0])

    return app


def test_ompi_crs_checkpoint_continue():
    """The four-step CRS checkpoint: quiesce, teardown, BLCR, FileM copy,
    rebuild — and the job still finishes correctly."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=4, name="crs")
    specs = make_mpi_specs(cluster, 4, _iterative_mpi_app())
    crs = ompi_crs_launch(cluster, specs)

    def scenario():
        yield env.timeout(3.0)  # mid-computation
        stats = yield from crs.checkpoint()
        results = yield from crs.wait()
        return stats, results

    stats, results = env.run(until=env.process(scenario()))
    assert results == [40.0] * 4
    assert len(stats.images) == 4
    assert all(img.checkpointer == "blcr" for img in stats.images)
    assert stats.total_logical_bytes == sum(
        img.logical_size for img in stats.images) > 0
    assert stats.filem_seconds > 0  # the serialized central copy happened
    # images really landed on the central node
    central = cluster.nodes[0].local_disk.fs
    assert len(central.listdir("/tmp/central/")) == 4


def test_crs_checkpoint_slower_than_dmtcp_for_many_procs():
    """Table 6's shape: the FileM central copy makes BLCR checkpoints grow
    with process count while DMTCP's stay node-local."""
    from repro.core import InfinibandPlugin
    from repro.dmtcp import dmtcp_launch

    def run_crs(nprocs):
        env = Environment()
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=nprocs, name="c")
        # make images meaty so the copy shows up
        def app(ctx, comm):
            region = ctx.memory.mmap(f"{ctx.name}.big", 4096,
                                     repr_scale=2.0e4)  # ~80MB logical
            for it in range(8):
                yield from comm.allreduce_obj(1.0, lambda a, b: a + b)
                yield ctx.compute(seconds=0.5)
            return True

        specs = make_mpi_specs(cluster, nprocs, app)
        crs = ompi_crs_launch(cluster, specs)

        def scenario():
            yield env.timeout(2.5)
            stats = yield from crs.checkpoint()
            yield from crs.wait()
            return stats.wall_seconds

        return env.run(until=env.process(scenario()))

    t8, t16 = run_crs(8), run_crs(16)
    assert t16 > t8  # grows with N (the central-copy serialization)


def test_crs_runtime_overhead_exists():
    def run(launcher):
        env = Environment()
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="ovh")
        specs = make_mpi_specs(cluster, 2, _iterative_mpi_app())
        session = launcher(cluster, specs)
        results = env.run(until=env.process(session.wait()))
        return env.now

    from repro.dmtcp import native_launch

    t_native = run(lambda c, s: native_launch(c, s))
    t_crs = run(ompi_crs_launch)
    assert t_crs > t_native
    assert t_crs < t_native + 5.0  # modest overhead
