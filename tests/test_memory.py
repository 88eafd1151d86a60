"""Unit and property tests for the address-space memory model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (CHUNK_BYTES, PAGE_SIZE, ZERO_PIECE, AddressSpace,
                          MemoryError_, Region)


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


def test_snapshot_cuts_pieces_at_chunk_bytes():
    mem = AddressSpace()
    r = mem.mmap("odd", 2 * CHUNK_BYTES + 5)
    r.write(0, bytes(range(256)) * (r.size // 256) + b"\x01" * (r.size % 256))
    pieces = mem.snapshot()["regions"][0]["data"]
    assert isinstance(pieces, tuple)
    assert [len(p) for p in pieces] == [CHUNK_BYTES, CHUNK_BYTES, 5]
    assert b"".join(pieces) == bytes(r.buffer)
    assert r.pieces() == pieces and r.pieces()[0] is not pieces[0]
    assert Region("empty", 0, 0, bytearray()).pieces() == ()


def test_restore_writes_pieces_and_accepts_only_pieces():
    mem = AddressSpace()
    r = mem.mmap("data", CHUNK_BYTES + 3, data=b"\x07" * (CHUNK_BYTES + 3))
    snap = mem.snapshot()
    r.write(CHUNK_BYTES, b"\x09")
    mem.restore(snap)
    assert bytes(r.buffer) == b"\x07" * (CHUNK_BYTES + 3)
    whole = b"".join(snap["regions"][0]["data"])
    for bad in (whole, [whole], (whole[:-1],), (whole, b"\x00")):
        snap["regions"][0]["data"] = bad
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
        r.write(0, bytes(r.size))
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


# -- the stamp discipline is a property of the type ---------------------------


class _RevertedLuKernel:
    """The idiom a writable ``region.buffer`` once allowed: a raw float
    view stored on the kernel object and written in the sweep."""

    def setup(self, region):
        self.u = np.frombuffer(region.buffer, dtype="f8")

    def sweep(self):
        self.u[1:-1] += 0.25 * self.u[2:]


def _lu_idiom(region):
    kernel = _RevertedLuKernel()
    kernel.setup(region)
    kernel.sweep()


def _frombuffer_write(region):
    np.frombuffer(region.buffer, dtype=np.uint8)[0] = 1


def _setflags_writable(region):
    np.frombuffer(region.buffer, dtype=np.uint8).setflags(write=True)


def _slice_write(region):
    region.buffer[0:4] = b"ZZZZ"


def _memoryview_write(region):
    memoryview(region.buffer)[5] = 7


@pytest.mark.parametrize("write,error", [
    (_slice_write, TypeError),
    (_memoryview_write, TypeError),
    (_frombuffer_write, ValueError),
    (_setflags_writable, ValueError),
    (_lu_idiom, ValueError),
], ids=lambda v: getattr(v, "__name__", "").lstrip("_"))
def test_buffer_refuses_every_raw_write_form(write, error):
    """No write reaches a region's bytes behind its chunk stamps: each raw
    form raises, and the bytes and stamps are left as they were."""
    r = AddressSpace().mmap("r", 2 * CHUNK_BYTES, data=b"\x01" * 64)
    before, gens = bytes(r.buffer), r.chunk_gens.copy()
    with pytest.raises(error):
        write(r)
    assert bytes(r.buffer) == before
    assert np.array_equal(r.chunk_gens, gens)


def _straddling_write(r):
    r.write(CHUNK_BYTES - 2, b"wxyz")
    return {0, 1}


def _straddling_copy(r):
    r.copy_within(0, 2 * CHUNK_BYTES - 3, 6)
    return {1, 2}


def _zero_length_write(r):
    r.write(CHUNK_BYTES, b"")
    return set()


@pytest.mark.parametrize("write", [
    _straddling_write, _straddling_copy, _zero_length_write,
], ids=lambda f: f.__name__.lstrip("_"))
def test_region_writers_stamp_exactly_the_span_written(write):
    r = AddressSpace().mmap("r", 4 * CHUNK_BYTES)
    gens = r.chunk_gens.copy()
    stamped = write(r)
    moved = set(np.flatnonzero(r.chunk_gens != gens).tolist())
    assert moved == stamped


@pytest.mark.parametrize("src,dst,n", [
    (0, 3, 10), (3, 0, 10), (CHUNK_BYTES - 5, CHUNK_BYTES - 2, 9),
])
def test_overlapping_copy_within_matches_bytes_slicing(src, dst, n):
    data = bytes(i % 251 for i in range(2 * CHUNK_BYTES))
    r = AddressSpace().mmap("r", len(data), data=data)
    r.copy_within(src, dst, n)
    assert bytes(r.buffer) == data[:dst] + data[src:src + n] + data[dst + n:]


def test_region_writers_never_grow_a_region():
    """A span past the end (or before the start) is a segfault, not a
    silent resize of the backing bytes."""
    r = AddressSpace("p").mmap("a", 8192)
    for bad in (lambda: r.write(8190, b"wxyz"),
                lambda: r.write(-1, b"w"),
                lambda: r.copy_within(8190, 0, 4),
                lambda: r.copy_within(0, 8190, 4)):
        with pytest.raises(MemoryError_):
            bad()
    assert len(r.buffer) == r.size == 8192
    assert bytes(r.buffer) == bytes(8192)
    assert not r.chunk_gens.any()


def test_buffer_is_a_live_view_of_every_writer():
    """``region.buffer`` is read-only but not a copy: a view taken once
    sees what each writer puts in afterwards."""
    mem = AddressSpace("p")
    r = mem.mmap("r", 64)
    v = r.buffer
    assert v.readonly
    r.write(0, b"ab")
    r.copy_within(0, 2, 2)
    mem.write(r.addr + 4, b"cd")
    r.view()[6] = ord("e")
    assert bytes(v[:7]) == b"ababcde"


def test_restore_lands_under_views_taken_before_it():
    """Restore copies into the existing bytes, so a read-only buffer and
    a TrackedView taken before the snapshot both see the restored
    content — and the view still stamps its writes afterwards."""
    mem = AddressSpace("p")
    r = mem.mmap("r", 2 * CHUNK_BYTES, data=b"\x05" * 16)
    ro, tv = r.buffer, r.view()
    snap = mem.snapshot()
    r.write(0, bytes(16))
    mem.restore(snap)
    assert bytes(ro[:16]) == b"\x05" * 16
    assert (tv[:16] == 5).all()
    gens = r.chunk_gens.copy()
    tv[CHUNK_BYTES] = 9
    assert ro[CHUNK_BYTES] == 9
    assert np.flatnonzero(r.chunk_gens != gens).tolist() == [1]


# -- untouched memory: the zero-chunk contract -----------------------------------


def test_never_written_chunks_come_back_as_the_zero_piece_unread():
    """In a zero-born region the stamp, not the bytes, answers for a full
    chunk nobody wrote: it is the one ZERO_PIECE object, and it is not
    read — a byte poked in behind the stamps stays unseen (catching such
    a poke is ChunkSan's job)."""
    mem = AddressSpace()
    r = mem.mmap("ring", 4 * CHUNK_BYTES)
    assert r.zero_born
    r.write(CHUNK_BYTES, b"\x01")
    r._buf[2 * CHUNK_BYTES] = 0xFF
    pieces = r.pieces()
    assert [p is ZERO_PIECE for p in pieces] == [True, False, True, True]
    assert pieces[1] == b"\x01" + bytes(CHUNK_BYTES - 1)


@pytest.mark.parametrize("size,data,write,read", [
    # a chunk written with zeros carries a stamp: read, then shared
    (3 * CHUNK_BYTES, None, 0, [0]),
    # a data-initialised region is read whole, even where data= ran out
    (3 * CHUNK_BYTES, bytes(CHUNK_BYTES) + b"\x03" * CHUNK_BYTES, None,
     [0, 1, 2]),
    # a partial last chunk is always read
    (2 * CHUNK_BYTES + 5, None, None, [2]),
], ids=["written-zeros", "data-initialised", "partial-last-chunk"])
def test_stamped_data_and_partial_chunks_are_read(size, data, write, read):
    mem = AddressSpace()
    r = mem.mmap("r", size, data=data)
    assert r.zero_born == (data is None)
    if write is not None:
        r.write(write * CHUNK_BYTES, bytes(CHUNK_BYTES))
    snap = mem.snapshot()
    pieces = snap["regions"][0]["data"]
    # every all-zero full chunk is the shared object, read or trusted
    assert [p is ZERO_PIECE for p in pieces] \
        == [p == bytes(CHUNK_BYTES) for p in pieces]
    fresh = AddressSpace("restarted")
    fresh.restore(snap)
    assert bytes(fresh.region("r").buffer) == bytes(r.buffer)
    # read, not trusted: a byte moved behind the stamps shows up
    for i in read:
        r._buf[i * CHUNK_BYTES] = 0xEE
    assert [i for i, p in enumerate(r.pieces()) if p[:1] == b"\xee"] \
        == read


@pytest.mark.parametrize("into", ["fresh", "existing"])
def test_restore_of_zero_nonzero_and_rezeroed_chunks_is_bit_identical(into):
    """Restore skips only a zero piece bound for a never-written chunk;
    every other chunk — stamped since the snapshot, non-zero in it,
    zeroed after a write, the partial tail — lands byte for byte."""
    mem = AddressSpace()
    r = mem.mmap("r", 5 * CHUNK_BYTES + 9)
    r.write(CHUNK_BYTES, b"\x04" * CHUNK_BYTES)     # non-zero
    r.write(2 * CHUNK_BYTES, b"\x06" * 100)
    r.write(2 * CHUNK_BYTES, bytes(100))            # written, then zeroed
    r.write(5 * CHUNK_BYTES, b"\x08")               # partial tail
    want = bytes(r.buffer)
    snap = mem.snapshot()
    assert [p is ZERO_PIECE for p in snap["regions"][0]["data"]] \
        == [True, False, True, True, True, False]
    if into == "fresh":
        target = AddressSpace("restarted")
    else:
        target = mem
        r.write(0, b"\x09" * CHUNK_BYTES)           # zero in the snapshot
        r.write(CHUNK_BYTES + 7, b"\x09")
        r.write(5 * CHUNK_BYTES + 3, b"\x09")
    target.restore(snap)
    restored = target.region("r")
    assert bytes(restored.buffer) == want
    assert restored.chunk_gens.all()                # the closing touch()
