"""Tests for the mini-MPI: point-to-point, collectives, both BTLs, and
checkpoint-restart of MPI jobs under the InfiniBand plugin."""

import numpy as np
import pytest

from repro.core import InfinibandPlugin
from repro.dmtcp import dmtcp_launch, dmtcp_restart, native_launch
from repro.hardware import BUFFALO_CCR, Cluster, ETHERNET_DEBUG_CLUSTER
from repro.memory import CHUNK_BYTES
from repro.mpi import make_mpi_specs
from repro.sim import Environment


def _run_native(app, nprocs=4, n_nodes=4, spec=BUFFALO_CCR, transport="ib",
                ppn=None):
    env = Environment()
    cluster = Cluster(env, spec, n_nodes=n_nodes, name="mpi-test")
    specs = make_mpi_specs(cluster, nprocs, app, transport=transport,
                           ppn=ppn)
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    return env, results


# -- point-to-point -----------------------------------------------------------------


def ring_app(ctx, comm):
    """Pass a buffer around the ring, adding rank at each hop (sizing
    the ring with the mpi4py spellings)."""
    n = comm.Get_size()
    region = ctx.memory.mmap(f"{ctx.name}.ring", 8 * 16)
    data = region.view(dtype=np.float64)
    if comm.rank == 0:
        data[0] = 100.0
        yield from comm.Send(region, 0, 8, dest=1, tag=5)
        yield from comm.Recv(region, 0, 8, source=n - 1, tag=5)
    else:
        yield from comm.Recv(region, 0, 8, source=comm.Get_rank() - 1,
                             tag=5)
        data[0] += comm.rank
        yield from comm.Send(region, 0, 8, dest=(comm.rank + 1) % n, tag=5)
    return float(data[0])


def test_ring_buffer_pass():
    env, results = _run_native(ring_app, nprocs=4)
    # rank 0 receives 100 + 1 + 2 + 3
    assert results[0] == 106.0


def test_ring_on_tcp_btl():
    env, results = _run_native(ring_app, nprocs=4,
                               spec=ETHERNET_DEBUG_CLUSTER, transport="tcp")
    assert results[0] == 106.0


def obj_pingpong(ctx, comm):
    if comm.rank == 0:
        yield from comm.send_obj({"x": 7}, dest=1, tag=3)
        reply = yield from comm.recv_obj(source=1, tag=4)
        return reply
    msg = yield from comm.recv_obj(source=0, tag=3)
    yield from comm.send_obj(msg["x"] * 2, dest=0, tag=4)
    return None


def test_obj_messages():
    env, results = _run_native(obj_pingpong, nprocs=2, n_nodes=2)
    assert results[0] == 14


@pytest.mark.parametrize("transport", ["ib", "tcp"])
def test_large_buffer_rendezvous(transport):
    def app(ctx, comm):
        nbytes = 256 * 1024  # well above the eager limit
        region = ctx.memory.mmap(f"{ctx.name}.big", nbytes)
        arr = region.view(dtype=np.float64)
        if comm.rank == 0:
            arr[:] = np.arange(len(arr))
            yield from comm.Send(region, 0, nbytes, dest=1)
            return True
        yield from comm.Recv(region, 0, nbytes, source=0)
        return bool((arr == np.arange(len(arr))).all())

    spec = ETHERNET_DEBUG_CLUSTER if transport == "tcp" else BUFFALO_CCR
    env, results = _run_native(app, nprocs=2, n_nodes=2, spec=spec,
                               transport=transport)
    assert results == [True, True]


def test_unexpected_message_before_recv_posted():
    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.b", 64)
        if comm.rank == 0:
            region.view()[:] = 9
            yield from comm.Send(region, 0, 64, dest=1, tag=1)
            return True
        yield ctx.sleep(0.01)  # let the envelope arrive unexpected
        yield from comm.Recv(region, 0, 64, source=0, tag=1)
        return bool((region.view() == 9).all())

    env, results = _run_native(app, nprocs=2, n_nodes=2)
    assert results == [True, True]


def test_tag_matching_out_of_order():
    def app(ctx, comm):
        a = ctx.memory.mmap(f"{ctx.name}.a", 16)
        b = ctx.memory.mmap(f"{ctx.name}.b", 16)
        if comm.rank == 0:
            a.view()[:] = 1
            b.view()[:] = 2
            # nonblocking: blocking rendezvous sends in reverse matching
            # order would deadlock (as in real MPI)
            ra = comm.isend(a, 0, 16, dest=1, tag=10)
            rb = comm.isend(b, 0, 16, dest=1, tag=20)
            yield ra
            yield rb
            return (1, 2)
        # receive in reverse tag order
        yield from comm.Recv(b, 0, 16, source=0, tag=20)
        yield from comm.Recv(a, 0, 16, source=0, tag=10)
        return (int(a.view()[0]), int(b.view()[0]))

    env, results = _run_native(app, nprocs=2, n_nodes=2)
    assert results[1] == (1, 2)


def test_finished_helper_threads_do_not_pile_up():
    """Every isend runs on a helper thread; finished ones leave the
    process's thread list, so a rank posting many sends keeps it
    bounded instead of one entry per message."""
    n_msgs = 400

    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.m", 4096)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield comm.isend(region, 0, 4096, dest=1, tag=i)
            return len(ctx.proc.threads)
        for i in range(n_msgs):
            yield from comm.Recv(region, 0, 4096, source=0, tag=i)
        return len(ctx.proc.threads)

    env, results = _run_native(app, nprocs=2, n_nodes=2)
    assert max(results) < 150


def test_message_truncation_rejected():
    from repro.mpi import MpiError

    def app(ctx, comm):
        big = ctx.memory.mmap(f"{ctx.name}.big", 128)
        small = ctx.memory.mmap(f"{ctx.name}.small", 16)
        if comm.rank == 0:
            yield from comm.Send(big, 0, 128, dest=1, tag=1)
        else:
            yield from comm.Recv(small, 0, 16, source=0, tag=1)
        return True

    with pytest.raises(MpiError, match="truncation"):
        _run_native(app, nprocs=2, n_nodes=2)


# -- collectives -----------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
def test_barrier_synchronizes(nprocs):
    times = {}

    def app(ctx, comm):
        yield ctx.sleep(0.01 * (comm.rank + 1))  # skewed arrivals
        yield from comm.barrier()
        times[comm.rank] = ctx.env.now
        return True

    _run_native(app, nprocs=nprocs, n_nodes=nprocs)
    assert max(times.values()) - min(times.values()) < 0.005
    assert min(times.values()) >= 0.01 * nprocs


@pytest.mark.parametrize("nprocs,root", [(4, 0), (4, 2), (6, 1), (8, 5)])
def test_bcast_obj(nprocs, root):
    def app(ctx, comm):
        obj = {"v": 42} if comm.rank == root else None
        got = yield from comm.bcast_obj(obj, root=root)
        return got["v"]

    env, results = _run_native(app, nprocs=nprocs, n_nodes=min(nprocs, 4),
                               ppn=-(-nprocs // min(nprocs, 4)))
    assert results == [42] * nprocs


@pytest.mark.parametrize("nprocs", [2, 4, 5, 8])
def test_allreduce_sum(nprocs):
    def app(ctx, comm):
        value = yield from comm.allreduce_obj(float(comm.rank + 1),
                                              lambda a, b: a + b)
        return value

    env, results = _run_native(app, nprocs=nprocs, n_nodes=min(nprocs, 4),
                               ppn=-(-nprocs // min(nprocs, 4)))
    expected = nprocs * (nprocs + 1) / 2
    assert results == [expected] * nprocs


def test_reduce_obj_max_at_root():
    def app(ctx, comm):
        value = yield from comm.reduce_obj(float(comm.rank), max, root=0)
        return value

    env, results = _run_native(app, nprocs=4)
    assert results[0] == 3.0
    assert results[1:] == [None, None, None]


def test_gather_obj():
    def app(ctx, comm):
        out = yield from comm.gather_obj(comm.rank * 10, root=0)
        return out

    env, results = _run_native(app, nprocs=4)
    assert results[0] == [0, 10, 20, 30]


@pytest.mark.parametrize("nprocs", [2, 4])
def test_alltoall_buffers(nprocs):
    block = 64

    def app(ctx, comm):
        n = comm.size
        send = ctx.memory.mmap(f"{ctx.name}.send", block * n)
        recv = ctx.memory.mmap(f"{ctx.name}.recv", block * n)
        sview = send.view()
        for i in range(n):
            sview[i * block:(i + 1) * block] = comm.rank * 16 + i
        yield from comm.alltoall_buffers(send, recv, block)
        rview = recv.view()
        ok = all((rview[i * block:(i + 1) * block] == i * 16 + comm.rank).all()
                 for i in range(n))
        return bool(ok)

    env, results = _run_native(app, nprocs=nprocs, n_nodes=min(nprocs, 4))
    assert all(results)


def test_alltoall_local_block_is_stamped():
    """The rank's own block is a local copy, not a message: it must still
    stamp the recv chunks it wrote, and leave the send stamps alone."""
    block = CHUNK_BYTES

    def app(ctx, comm):
        send = ctx.memory.mmap(f"{ctx.name}.send", block,
                               data=bytes([7]) * block)
        recv = ctx.memory.mmap(f"{ctx.name}.recv", 2 * block)
        sgens, rgens = send.chunk_gens.copy(), recv.chunk_gens.copy()
        yield from comm.alltoall_buffers(send, recv, block)
        return (np.flatnonzero(recv.chunk_gens != rgens).tolist(),
                bool(np.array_equal(send.chunk_gens, sgens)),
                bytes(recv.buffer[:block]) == bytes([7]) * block)

    env, results = _run_native(app, nprocs=1, n_nodes=1)
    assert results == [([0], True, True)]


def test_sendrecv_halo():
    def app(ctx, comm):
        n = comm.size
        region = ctx.memory.mmap(f"{ctx.name}.h", 32)
        v = region.view(dtype=np.float64)
        v[0] = comm.rank
        right, left = (comm.rank + 1) % n, (comm.rank - 1) % n
        yield from comm.sendrecv(region, 0, 8, right,
                                 region, 8, 8, left, tag=2)
        return float(v[1])

    env, results = _run_native(app, nprocs=4)
    assert results == [3.0, 0.0, 1.0, 2.0]


# -- MPI under DMTCP ---------------------------------------------------------------------


def test_mpi_checkpoint_restart_under_plugin():
    """An MPI ring job survives checkpoint + restart on a new cluster."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=4, name="mpi-prod")

    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.state", 64)
        acc = region.view(dtype=np.float64)
        for it in range(12):
            value = yield from comm.allreduce_obj(
                float(comm.rank + it), lambda a, b: a + b)
            acc[0] += value
            yield ctx.compute(seconds=0.02)
        return float(acc[0])

    specs = make_mpi_specs(cluster, 4, app)
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.15)  # a few iterations in
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=4, name="mpi-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    # sum over 12 iterations of sum_r (r + it) = 6 + 4*it
    expected = float(sum(6 + 4 * it for it in range(12)))
    assert results == [expected] * 4


def test_mpi_checkpoint_resume_under_plugin():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="mpi-res")

    def app(ctx, comm):
        total = 0.0
        for it in range(10):
            total = yield from comm.allreduce_obj(1.0, lambda a, b: a + b)
            yield ctx.compute(seconds=0.02)
        return total

    specs = make_mpi_specs(cluster, 2, app)
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.1)
        yield from session.checkpoint(intent="resume")
        return (yield from session.wait())

    assert env.run(until=env.process(scenario())) == [2.0, 2.0]


def test_eager_path_small_messages():
    """Small sends ride inline in the envelope (Open MPI's eager protocol)
    and complete locally with buffered semantics."""

    def app(ctx, comm):
        region = ctx.memory.mmap(f"{ctx.name}.e", 64)
        if comm.rank == 0:
            region.view()[:16] = 42
            req = comm.isend(region, 0, 16, dest=1, tag=7)
            yield req  # completes without waiting for the receiver
            region.view()[:16] = 0  # reuse: buffered semantics
            yield ctx.sleep(0.01)
            return True
        yield ctx.sleep(0.005)  # receiver late: message sits unexpected
        yield from comm.Recv(region, 0, 16, source=0, tag=7)
        return bool((region.view()[:16] == 42).all())

    env, results = _run_native(app, nprocs=2, n_nodes=2)
    assert results == [True, True]


def test_eager_and_rendezvous_ordering_same_tag():
    """An eager message followed by a rendezvous one on the same (src,
    tag) matches posted receives in order."""

    def app(ctx, comm):
        small = ctx.memory.mmap(f"{ctx.name}.s", 64)
        big = ctx.memory.mmap(f"{ctx.name}.b", 4096)
        if comm.rank == 0:
            small.view()[:8] = 1
            big.view()[:] = 2
            r1 = comm.isend(small, 0, 8, dest=1, tag=3)      # eager
            r2 = comm.isend(big, 0, 4096, dest=1, tag=3)     # rendezvous
            yield r1
            yield r2
            return True
        yield from comm.Recv(small, 0, 8, source=0, tag=3)
        yield from comm.Recv(big, 0, 4096, source=0, tag=3)
        return bool((small.view()[:8] == 1).all()
                    and (big.view() == 2).all())

    env, results = _run_native(app, nprocs=2, n_nodes=2)
    assert results == [True, True]
