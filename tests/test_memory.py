"""Unit and property tests for the address-space memory model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import CHUNK_BYTES, PAGE_SIZE, AddressSpace, MemoryError_


def test_mmap_and_rw():
    mem = AddressSpace("p0")
    r = mem.mmap("heap", 1024)
    mem.write(r.addr + 10, b"hello")
    assert mem.read(r.addr + 10, 5) == b"hello"
    assert mem.read(r.addr, 1) == b"\x00"


def test_mmap_initial_data():
    mem = AddressSpace()
    r = mem.mmap("d", 16, data=b"abc")
    assert mem.read(r.addr, 4) == b"abc\x00"


def test_mmap_rejects_bad_sizes_and_dup_names():
    mem = AddressSpace()
    with pytest.raises(MemoryError_):
        mem.mmap("x", 0)
    mem.mmap("x", 8)
    with pytest.raises(MemoryError_):
        mem.mmap("x", 8)


def test_regions_page_aligned_and_disjoint():
    mem = AddressSpace()
    a = mem.mmap("a", 100)
    b = mem.mmap("b", PAGE_SIZE * 3 + 1)
    assert a.addr % PAGE_SIZE == 0 and b.addr % PAGE_SIZE == 0
    assert b.addr >= a.addr + a.size


def test_out_of_bounds_access_is_segfault():
    mem = AddressSpace()
    r = mem.mmap("a", 64)
    with pytest.raises(MemoryError_, match="segfault"):
        mem.read(r.addr + 60, 8)
    with pytest.raises(MemoryError_, match="segfault"):
        mem.read(r.addr - 1, 1)


def test_cross_region_access_rejected():
    mem = AddressSpace()
    a = mem.mmap("a", PAGE_SIZE)
    mem.mmap("b", PAGE_SIZE)
    # guard page makes a.end..b.addr unmapped
    with pytest.raises(MemoryError_):
        mem.read(a.addr + PAGE_SIZE - 4, 16)


def test_ndarray_view_is_writable_and_shared():
    mem = AddressSpace()
    r = mem.mmap("arr", 8 * 10)
    view = r.view(dtype=np.float64)
    view[:] = np.arange(10.0)
    assert np.frombuffer(mem.read(r.addr, 80), dtype=np.float64)[3] == 3.0


def test_pin_unpin_and_unmap_pinned():
    mem = AddressSpace()
    r = mem.mmap("buf", 128)
    mem.pin(r.addr, 64)
    assert r.pinned
    with pytest.raises(MemoryError_):
        mem.munmap(r)
    mem.unpin(r.addr, 64)
    assert not r.pinned
    mem.munmap(r)
    with pytest.raises(MemoryError_):
        mem.region("buf")


def test_unpin_unpinned_rejected():
    mem = AddressSpace()
    r = mem.mmap("buf", 128)
    with pytest.raises(MemoryError_):
        mem.unpin(r.addr, 8)


def test_snapshot_restore_roundtrip_in_place():
    mem = AddressSpace()
    r = mem.mmap("data", 64)
    view = r.view()
    view[:] = 7
    snap = mem.snapshot()
    view[:] = 9  # post-checkpoint mutation
    extra = mem.mmap("late", 32)  # region mapped after snapshot
    mem.pin(r.addr, 8)
    mem.restore(snap)
    # bytes rolled back, view still live, late mapping gone, pins cleared
    assert (view == 7).all()
    assert len(mem) == 1
    assert not r.pinned
    with pytest.raises(MemoryError_):
        mem.region_at(extra.addr)


def test_restore_into_fresh_address_space():
    mem = AddressSpace("orig")
    r = mem.mmap("data", 16, repr_scale=4.0, tag="heap")
    r.view()[:] = 5
    snap = mem.snapshot()

    fresh = AddressSpace("restarted")
    fresh.restore(snap)
    r2 = fresh.region("data")
    assert r2.addr == r.addr and r2.size == 16
    assert r2.repr_scale == 4.0 and r2.tag == "heap"
    assert (r2.view() == 5).all()


def test_restore_size_conflict_rejected():
    mem = AddressSpace()
    mem.mmap("data", 16)
    snap = mem.snapshot()
    snap["regions"][0]["size"] = 32
    with pytest.raises(MemoryError_):
        mem.restore(snap)


def test_logical_size_accounting():
    mem = AddressSpace()
    mem.mmap("a", 1000, repr_scale=256.0)
    mem.mmap("b", 24)
    assert mem.total_bytes == 1024
    assert mem.logical_bytes == 1000 * 256.0 + 24


def test_generation_tracks_mutations():
    mem = AddressSpace()
    r = mem.mmap("d", 64)
    g0 = r.generation
    mem.write(r.addr, b"x")
    assert r.generation == g0 + 1
    r.touch()
    assert r.generation == g0 + 2
    mem.read(r.addr, 8)  # reads don't bump
    assert r.generation == g0 + 2


def test_chunk_hashes_cached_until_touch():
    mem = AddressSpace()
    r = mem.mmap("d", 2 * CHUNK_BYTES, data=b"a" * (2 * CHUNK_BYTES))
    h0 = r.chunk_hashes()
    assert len(h0) == 2
    assert r.chunk_hashes() == h0
    assert all(a is b for a, b in zip(r.chunk_hashes(), h0))  # cached
    mem.write(r.addr, b"b")
    h1 = r.chunk_hashes()
    assert h1[0] != h0[0]
    assert h1[1] is h0[1]


def test_chunk_hashes_rehash_only_the_view_written_chunk():
    """A TrackedView write stamps only the chunk it lands in, so the
    cached digests are recomputed for that chunk alone, without any
    explicit touch()."""
    mem = AddressSpace()
    r = mem.mmap("d", 3 * CHUNK_BYTES)
    view = r.view(dtype=np.float64)
    h0 = r.chunk_hashes()
    view[CHUNK_BYTES // 8] = 42.0  # first element of chunk 1
    h1 = r.chunk_hashes()
    assert h1[1] != h0[1]
    assert h1[0] is h0[0] and h1[2] is h0[2]


def test_restore_bumps_generation():
    mem = AddressSpace()
    r = mem.mmap("d", 16, data=b"x" * 16)
    snap = mem.snapshot()
    g0 = r.generation
    mem.restore(snap)
    assert r.generation > g0


def test_region_at_bisect_edges():
    """The bisect index must agree with the old linear scan at every
    boundary: region starts, last bytes, guard pages, unmapped holes."""
    mem = AddressSpace()
    regions = [mem.mmap(f"r{i}", 100 + i * PAGE_SIZE) for i in range(5)]
    for r in regions:
        assert mem.region_at(r.addr) is r
        assert mem.region_at(r.end - 1) is r
        assert mem.region_at(r.addr, r.size) is r
        with pytest.raises(MemoryError_):
            mem.region_at(r.end)  # guard page
        with pytest.raises(MemoryError_):
            mem.region_at(r.addr, r.size + 1)  # straddles the end
    with pytest.raises(MemoryError_):
        mem.region_at(regions[0].addr - 1)  # below the base


def test_region_at_after_munmap():
    mem = AddressSpace()
    a = mem.mmap("a", 64)
    b = mem.mmap("b", 64)
    c = mem.mmap("c", 64)
    mem.munmap(b)
    assert mem.region_at(a.addr) is a
    assert mem.region_at(c.addr) is c
    with pytest.raises(MemoryError_):
        mem.region_at(b.addr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=256), min_size=1, max_size=8))
def test_snapshot_restore_bitexact_property(blobs):
    """restore(snapshot()) is byte-identical for arbitrary contents."""
    mem = AddressSpace()
    regions = []
    for i, blob in enumerate(blobs):
        regions.append(mem.mmap(f"r{i}", len(blob), data=blob))
    snap = mem.snapshot()
    for r in regions:  # scribble over everything
        r.buffer[:] = bytes(len(r.buffer))
    mem.restore(snap)
    for r, blob in zip(regions, blobs):
        assert bytes(r.buffer) == blob


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4096), st.integers(0, 4095), st.binary(min_size=1, max_size=64))
def test_rw_roundtrip_property(size, offset, data):
    mem = AddressSpace()
    r = mem.mmap("r", size)
    if offset + len(data) <= size:
        mem.write(r.addr + offset, data)
        assert mem.read(r.addr + offset, len(data)) == data
    else:
        with pytest.raises(MemoryError_):
            mem.write(r.addr + offset, data)
