"""Chunk-granularity dirty tracking (DESIGN.md §13).

The load-bearing properties: the per-chunk generation bitmap is always a
*superset* of the chunks whose bytes actually changed (so reusing clean
chunks can never lose a write), every incremental capture restores
bit-identically however writes land, clean chunks carry their known
store digests forward (reused by identity, never re-hashed), and the
multi-chunk store refs reassemble regions bit-identically while deduping
at chunk — not region — granularity.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmtcp import RunConfig
from repro.dmtcp.image import CheckpointImage
from repro.faults.harness import run_chaos_nas
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.hardware import Cluster, MGHPCC
from repro.memory import CHUNK_BYTES, AddressSpace, TrackedView
from repro.obs import check_trace_invariants
from repro.sim import Environment
from repro.store import CheckpointStore

N_CHUNKS = 4
REGION_BYTES = N_CHUNKS * CHUNK_BYTES


def _capture(memory, prev=None, name="p0"):
    return CheckpointImage.capture(name, 1, "3.10.0", "mlx4", memory,
                                   gzip=True, prev=prev)


def _restored(image):
    memory = AddressSpace("check")
    image.restore_memory(memory)
    return {r.name: bytes(r.buffer) for r in memory}


def _region(seed=0, name="r", mem=None):
    rng = np.random.default_rng(seed)
    memory = mem if mem is not None else AddressSpace("m")
    data = rng.integers(0, 256, REGION_BYTES, dtype=np.uint8).tobytes()
    return memory, memory.mmap(name, REGION_BYTES, data=data)


# -- the chunk bitmap itself ---------------------------------------------------

def test_touch_marks_only_spanned_chunks():
    mem, region = _region()
    before = region.chunk_gens.copy()
    region.touch(CHUNK_BYTES + 7, 10)     # interior of chunk 1 only
    moved = region.chunk_gens != before
    assert list(moved) == [False, True, False, False]
    region.touch(2 * CHUNK_BYTES - 1, 2)  # straddles chunks 1 and 2
    moved = region.chunk_gens != before
    assert list(moved) == [False, True, True, False]


def test_address_space_write_range_touches():
    mem, region = _region()
    before = region.chunk_gens.copy()
    mem.write(region.addr + 3 * CHUNK_BYTES, b"\x01\x02")
    moved = region.chunk_gens != before
    assert list(moved) == [False, False, False, True]


def test_tracked_view_write_marks_chunks_and_reads_are_readonly():
    mem, region = _region()
    view = region.view(dtype=np.uint8)
    assert isinstance(view, TrackedView)
    before = region.chunk_gens.copy()
    view[CHUNK_BYTES: CHUNK_BYTES + 8] = 1
    moved = region.chunk_gens != before
    assert list(moved) == [False, True, False, False]
    assert ((view != 1) == ~(view == 1)).all()
    # reads hand out non-writable arrays: mutating one must fail loudly
    got = view[0:16]
    with pytest.raises((ValueError, AttributeError)):
        np.asarray(got)[0] = 9


_INPLACE_OPS = ("iadd", "isub", "imul", "itruediv", "ifloordiv", "imod",
                "ipow", "imatmul", "ilshift", "irshift", "iand", "ior",
                "ixor")


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("operand", ["scalar", "ndarray"])
@pytest.mark.parametrize("op", _INPLACE_OPS)
def test_tracked_view_inplace_operator_writes_through_or_raises(
        op, operand, dtype):
    """Every in-place operator on a TrackedView either writes through —
    the bytes move, exactly the written chunks are stamped, and the name
    still holds the view — or NumPy refuses it (TypeError for the dtype,
    ValueError for a shape matmul cannot take).  None may fall back to a
    binary operator that rebinds the name to a detached copy and leaves
    the region's bytes and stamps as they were."""
    mem = AddressSpace("m")
    region = mem.mmap("r", 8 * CHUNK_BYTES)
    # 64 x 64 eight-byte cells: rows 16..31 are exactly chunks 2 and 3
    grid = region.view(dtype=dtype, shape=(64, 64))
    grid[:] = 5
    view = grid.subview(slice(16, 32))
    shape = (64, 64) if op == "imatmul" else (16, 64)
    other = 3 if operand == "scalar" else np.full(shape, 3, dtype=dtype)
    before, gens = bytes(region.buffer), region.chunk_gens.copy()
    try:
        result = getattr(operator, op)(view, other)
    except (TypeError, ValueError):
        assert bytes(region.buffer) == before
        return
    assert result is view
    assert bytes(region.buffer) != before
    moved = region.chunk_gens != gens
    assert list(moved) == [i in (2, 3) for i in range(8)]


# -- incremental capture at chunk granularity ---------------------------------

def test_incremental_capture_counts_dirty_chunks_and_skips_hashing():
    mem, region = _region()
    base = _capture(mem)
    view = region.view(dtype=np.uint8)
    view[2 * CHUNK_BYTES: 2 * CHUNK_BYTES + 5] = 7
    incr = _capture(mem, prev=base)
    stats = incr.capture_stats
    assert stats["chunks_total"] == N_CHUNKS
    assert stats["chunks_dirty"] == 1
    assert stats["chunks_clean"] == N_CHUNKS - 1
    # the clean chunks were proven so by generation stamps, not bytes
    assert stats["chunks_clean"] == N_CHUNKS - 1
    assert _restored(incr) == {r.name: bytes(r.buffer) for r in mem}
    # delta accounting shrinks with the dirty fraction, not region count
    assert 0.0 < incr.delta_logical_bytes \
        < 0.5 * base.raw_logical_bytes * base.compression_ratio


def test_carried_chunk_hashes_have_holes_only_at_dirty_chunks():
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="holes")
    store = CheckpointStore(cluster)
    mem, region = _region()
    base = _capture(mem)
    env.run(until=env.process(store.put_image(
        rank=0, node_index=0, epoch=1, image=base)))
    filled = base.region_meta["r"]["chunk_hashes"]
    assert filled is not None and all(h is not None for h in filled)
    mem.write(region.addr + CHUNK_BYTES, b"\xAA")
    incr = _capture(mem, prev=base)
    carried = incr.region_meta["r"]["chunk_hashes"]
    assert carried[1] is None                      # the dirty hole
    for i in (0, 2, 3):
        assert carried[i] is filled[i]             # reused, not rehashed


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, REGION_BYTES - 1),    # write offset
              st.integers(1, 3 * CHUNK_BYTES),     # write length
              st.integers(0, 255)),                # fill byte
    max_size=6))
def test_chunk_bitmap_is_superset_of_content_diff(writes):
    mem, region = _region(seed=11)
    base = _capture(mem)
    prev_bytes = bytes(region.buffer)
    for off, length, fill in writes:
        length = min(length, REGION_BYTES - off)
        mem.write(region.addr + off, bytes([fill]) * length)
    incr = _capture(mem, prev=base)
    # every chunk whose bytes changed is marked dirty by the bitmap
    content = np.array([region.buffer[lo: lo + CHUNK_BYTES]
                        != prev_bytes[lo: lo + CHUNK_BYTES]
                        for lo in range(0, REGION_BYTES, CHUNK_BYTES)])
    gens = np.frombuffer(base.region_meta["r"]["chunk_gens"],
                         dtype=np.int64) != region.chunk_gens
    assert not (content & ~gens).any()
    # and the chain still restores bit-identically
    assert _restored(incr) == {r.name: bytes(r.buffer) for r in mem}
    stats = incr.capture_stats
    assert 0 <= stats["chunks_dirty"] <= stats["chunks_total"]
    assert stats["chunks_clean"] + stats["chunks_dirty"] \
        <= stats["chunks_total"]


# -- the store at chunk granularity -------------------------------------------

def test_multichunk_region_roundtrip_and_chunk_dedup():
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="multichunk")
    store = CheckpointStore(cluster)
    mem, region = _region(seed=3)

    def run(gen):
        return env.run(until=env.process(gen))

    base = _capture(mem)
    first = run(store.put_image(rank=0, node_index=0, epoch=1, image=base))
    assert first.chunks_new == N_CHUNKS
    refs = store.manifest("p0", 1).chunks
    assert [ref.offset for ref in refs] == \
        [i * CHUNK_BYTES for i in range(N_CHUNKS)]
    # dirty exactly one chunk: the next put dedups the other three
    mem.write(region.addr + 2 * CHUNK_BYTES + 9, b"\x01\x02\x03")
    incr = _capture(mem, prev=base)
    second = run(store.put_image(rank=0, node_index=0, epoch=2,
                                 image=incr))
    assert second.chunks_new == 1
    assert second.chunks_deduped == N_CHUNKS - 1
    fetched = run(store.fetch_image("p0", 2))
    assert _restored(fetched) == {r.name: bytes(r.buffer) for r in mem}


def test_incremental_store_chaos_checksum_parity():
    kw = dict(app="lu", klass="A", nprocs=2, iters_sim=6, seed=2014,
              ckpt_interval=0.5)
    plain = run_chaos_nas(schedule=FixedSchedule([]), **kw)
    crash = FixedSchedule([FailureEvent(t=1.0, kind="node-crash",
                                        node_index=1)])
    chaos = run_chaos_nas(schedule=crash, config=RunConfig(
        incremental=True, sink_factory=CheckpointStore), **kw)
    assert chaos.checksum == plain.checksum
    assert any(r.kind == "node-crash" and r.applied
               for r in chaos.failures)


# -- the chunk-balance trace invariant ----------------------------------------

def test_chunk_balance_invariant_flags_overdirty_capture():
    bad = [dict(kind="ckpt.capture", ev="E", proc="p0", t=0.1,
                chunks=4, chunks_dirty=5)]
    violations = check_trace_invariants(bad)
    assert len(violations) == 1 and "chunk-balance" in violations[0]
    good = [dict(kind="ckpt.capture", ev="E", proc="p0", t=0.1,
                 chunks=4, chunks_dirty=2)]
    assert check_trace_invariants(good) == []
