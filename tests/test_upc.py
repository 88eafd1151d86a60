"""Tests for the UPC/GASNet runtime, including checkpoint-restart of a
native (non-MPI) UPC job — the paper's §6.3 generality claim."""

import numpy as np
import pytest

from repro.analysis.chunksan import sanitized
from repro.apps.nas.upc_ft import upc_ft_app
from repro.core import InfinibandPlugin
from repro.dmtcp import RunConfig, dmtcp_launch, dmtcp_restart, native_launch
from repro.hardware import BUFFALO_CCR, Cluster
from repro.memory import CHUNK_BYTES
from repro.upc import make_upc_specs
from repro.sim import Environment


def _run_native(app, threads=4, n_nodes=4, **kw):
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=n_nodes, name="upc-test")
    specs = make_upc_specs(cluster, threads, app, **kw)
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    return env, results


def test_barrier_and_ids():
    seen = {}

    def app(ctx, upc):
        seen[upc.MYTHREAD] = upc.THREADS
        yield from upc.barrier()
        return upc.MYTHREAD

    env, results = _run_native(app, threads=4)
    assert results == [0, 1, 2, 3]
    assert seen == {i: 4 for i in range(4)}


def test_memput_memget_roundtrip():
    def app(ctx, upc):
        seg = upc.core.segment
        view = seg.view(dtype=np.float64)
        n = 16
        if upc.MYTHREAD == 0:
            view[:n] = np.arange(n) + 1.0
            # put my first 128 bytes into thread 1's segment at offset 512
            yield from upc.memput(1, 512, 0, 8 * n)
        yield from upc.barrier()
        if upc.MYTHREAD == 1:
            got = np.frombuffer(seg.buffer, dtype=np.float64, count=n,
                                offset=512)
            return got.sum()
        return None

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert results[1] == sum(range(1, 17))


def test_memget_one_sided():
    def app(ctx, upc):
        seg = upc.core.segment
        view = seg.view(dtype=np.float64)
        if upc.MYTHREAD == 1:
            view[:8] = 7.0
        yield from upc.barrier()
        if upc.MYTHREAD == 0:
            # fetch thread 1's data without thread 1 doing anything
            yield from upc.memget(1, 0, 1024, 64)
            got = np.frombuffer(seg.buffer, dtype=np.float64, count=8,
                                offset=1024)
            return float(got.sum())
        yield ctx.sleep(0.001)  # thread 1 is passive
        return None

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert results[0] == 56.0


def test_shared_array_affinity_and_access():
    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=8, block_bytes=64)
        # fill my blocks
        for b in range(8):
            if arr.owner(b) == upc.MYTHREAD:
                arr.local_view(b)[:] = float(b)
        yield from upc.barrier()
        # fetch every block one-sided and sum first elements
        scratch = upc.scratch(64)
        total = 0.0
        for b in range(8):
            yield from arr.get(b, scratch)
            got = np.frombuffer(upc.core.segment.buffer, dtype=np.float64,
                                count=8, offset=scratch)
            total += got[0]
        return total

    env, results = _run_native(app, threads=4)
    assert results == [28.0] * 4  # 0+1+...+7


def _chunks(offset, length):
    return set(range(offset // CHUNK_BYTES,
                     (offset + length - 1) // CHUNK_BYTES + 1))


def test_local_get_put_stamp_exactly_the_block_moved():
    """A same-thread get/put is a copy inside MYTHREAD's segment: it
    stamps the destination span's chunks and nothing else."""
    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=4, block_bytes=CHUNK_BYTES)
        mine = [b for b in range(4) if arr.owner(b) == upc.MYTHREAD]
        arr.local_view(mine[0])[:] = 1.0 + upc.MYTHREAD
        scratch = upc.scratch(CHUNK_BYTES)
        seg = upc.core.segment
        moved = []
        for op, block, dst in ((arr.get, mine[0], scratch),
                               (arr.put, mine[1], arr.local_offset(mine[1]))):
            gens = seg.chunk_gens.copy()
            yield from op(block, scratch)
            moved.append((set(np.flatnonzero(seg.chunk_gens != gens)
                              .tolist()), _chunks(dst, CHUNK_BYTES)))
        copied = np.frombuffer(seg.buffer, dtype=np.float64,
                               count=CHUNK_BYTES // 8,
                               offset=arr.local_offset(mine[1]))
        yield from upc.barrier()
        return moved, bool((copied == 1.0 + upc.MYTHREAD).all())

    env, results = _run_native(app, threads=2, n_nodes=2)
    for moved, copied in results:
        assert copied
        for got, want in moved:
            assert got == want


def test_shared_array_remote_affinity_guard():
    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=4, block_bytes=64)
        yield from upc.barrier()
        if upc.MYTHREAD == 0:
            with pytest.raises(ValueError):
                arr.local_view(1)  # affinity thread 1
        return True

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert all(results)


def test_upc_checkpoint_restart_under_plugin():
    """A native UPC computation (RDMA gets, no MPI anywhere) survives
    checkpoint-restart onto a new cluster."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=4, name="upc-prod")

    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=upc.THREADS, block_bytes=256)
        mine = arr.local_view(upc.MYTHREAD)
        scratch = upc.scratch(256)
        total = 0.0
        for it in range(10):
            mine[:] = upc.MYTHREAD * 100.0 + it
            yield from upc.barrier()
            for b in range(upc.THREADS):
                yield from arr.get(b, scratch)
                got = np.frombuffer(upc.core.segment.buffer,
                                    dtype=np.float64, count=32,
                                    offset=scratch)
                total += float(got[0])
            yield from upc.barrier()
            yield ctx.compute(seconds=0.02)
        return total

    specs = make_upc_specs(cluster, 4, app)
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.12)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=4, name="upc-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    expected = float(sum(sum(t * 100.0 + it for t in range(4))
                         for it in range(10)))
    assert results == [expected] * 4


#: Table 7's simulated cells, exact: threads -> (native, w/DMTCP,
#: ckpt(s), restart(s)).  The simulator is deterministic, so any drift is
#: a behaviour change that must re-pin these in the same change.
TABLE7 = {
    4: (120.5912681267795, 121.70229783287921, 32.54306652106594,
        3.368636026648346),
    8: (60.299574664605174, 61.675309698922625, 22.12809558439563,
        2.8692581813187275),
    16: (30.15660360428002, 31.934852050414722, 16.920641091439602,
         2.6218974211539177),
}


def test_table7_cells_are_pinned():
    from repro.experiments import table7

    table = table7.run()
    assert {row[0]: tuple(row[1:5]) for row in table.rows} == TABLE7


def test_upc_ft_incremental_capture_proves_segment_by_stamps():
    """UPC FT under incremental capture and ChunkSan.  The shared segment
    is written only through TrackedViews and one-sided ops that stamp
    what they move, so a second resume capture proves most of it clean
    from chunk stamps alone, ChunkSan judges it like any other region, and
    a restart from a third capture ends with the native checksum."""
    threads = 4
    _env, native = _run_native(upc_ft_app, threads=threads)
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=threads, name="upc-incr")
    specs = make_upc_specs(cluster, threads, upc_ft_app)
    with sanitized() as san:
        judged = set()
        check_region = san.check_region

        def judging(proc_name, region, context="capture"):
            chunks = check_region(proc_name, region, context)
            if chunks:
                judged.add(region.name)
            return chunks

        san.check_region = judging
        session = env.run(until=env.process(dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [InfinibandPlugin()],
            config=RunConfig(incremental=True))))

        def scenario():
            # FT's loop runs from ~1 s to ~25 s: all three land inside it
            sets = []
            for at, intent in ((4.0, "resume"), (11.0, "resume"),
                               (17.0, "restart")):
                yield env.timeout(at - env.now)
                sets.append((yield from session.checkpoint(intent=intent)))
            ckpt = sets.pop()
            cluster.teardown()
            cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=threads,
                               name="upc-incr-spare")
            session2 = yield from dmtcp_restart(cluster2, ckpt)
            return sets, (yield from session2.wait())

        sets, results = env.run(until=env.process(scenario()))
    assert results[0].checksum == native[0].checksum
    first, second = ({r.name: r.image for r in s.records} for s in sets)
    for name, image in second.items():
        stats = image.capture_stats
        assert stats["mode"] == "incremental"
        assert not [key for key in stats if "hashed" in key]
        assert stats["chunks_clean"] > 0
        assert stats["chunks_dirty"] < stats["chunks_total"]
        seg = f"{name}.upc.segment"
        assert seg in judged
        # the segment itself: dirty at exactly the chunks whose stamps
        # moved since the first capture, a strict subset of the segment
        gens = [np.frombuffer(images[name].region_meta[seg]["chunk_gens"],
                              dtype=np.int64) for images in (first, second)]
        moved = int(np.count_nonzero(gens[0] != gens[1]))
        assert 0 < moved < len(gens[0])
