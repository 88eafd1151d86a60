"""The incremental checkpoint pipeline (DESIGN.md §8) and the
wr_id-indexed WQE log.

The load-bearing property: however writes, TrackedView mutations, and
checkpoints interleave, an incremental capture chain restores bit-
identically to a full capture of the same memory — including across the
fault harness's injected-crash restart path.
"""

import zlib
from collections import deque
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ib_plugin import WqeLogError
from repro.analysis.chunksan import sanitized
from repro.core.ib_plugin.shadow import WqeLog
from repro.dmtcp import RunConfig
from repro.dmtcp import image as image_mod
from repro.dmtcp.image import CAPTURE_CHUNK_BYTES, CheckpointImage
from repro.faults.harness import run_chaos_nas
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.memory import CHUNK_BYTES, ZERO_PIECE, AddressSpace, Region
from repro.store import store as store_mod
from repro.store.chunks import digest_bytes


def _capture(memory, prev=None, gzip=True):
    return CheckpointImage.capture("p0", 1, "3.10.0", "mlx4", memory,
                                   gzip=gzip, prev=prev)


def _restored(image):
    memory = AddressSpace("check")
    image.restore_memory(memory)
    return {r.name: bytes(r.buffer) for r in memory}


# -- incremental capture unit behavior ---------------------------------------

def test_clean_region_shares_bytes_and_ratio():
    mem = AddressSpace()
    mem.mmap("a", 4096, data=b"a" * 4096)
    b = mem.mmap("b", 4096, data=b"b" * 4096)
    base = _capture(mem)
    mem.write(b.addr, b"B")
    incr = _capture(mem, prev=base)
    stats = incr.capture_stats
    assert stats["mode"] == "incremental"
    assert stats["regions_clean_gen"] == 1 and stats["regions_dirty"] == 1
    by_name = {r["name"]: r for r in incr.memory_snapshot["regions"]}
    prev_by_name = {r["name"]: r for r in base.memory_snapshot["regions"]}
    # the clean region's pieces are the prev image's tuple — no copy
    assert by_name["a"]["data"] is prev_by_name["a"]["data"]
    assert by_name["b"]["data"] is not prev_by_name["b"]["data"]
    assert incr.region_meta["a"]["ratio"] == base.region_meta["a"]["ratio"]


@settings(max_examples=12, deadline=None)
@given(size=st.one_of(st.just(0), st.integers(1, 3 * CHUNK_BYTES),
                      st.integers(CAPTURE_CHUNK_BYTES,
                                  CAPTURE_CHUNK_BYTES + 2 * CHUNK_BYTES)),
       seed=st.integers(0, 2 ** 16))
@example(size=0, seed=0)
@example(size=CHUNK_BYTES + 1, seed=1)
@example(size=CAPTURE_CHUNK_BYTES + CHUNK_BYTES + 7, seed=2)
def test_window_ratios_over_pieces_equal_ratios_over_joined_bytes(size,
                                                                  seed):
    """The capture measures a region's ratio over
    :data:`CAPTURE_CHUNK_BYTES` windows joined from its pieces: the same
    compressed lengths as windows cut from the region's bytes, at any
    size (empty, not a whole number of chunks, over one window)."""
    data = np.random.default_rng(seed).integers(
        0, 16, size, dtype=np.uint8).tobytes()
    pieces = Region("r", 0, size, bytearray(data)).pieces()
    assert b"".join(pieces) == data
    over_pieces = image_mod._measure_zlens(image_mod._windows(pieces))
    over_bytes = [len(zlib.compress(data[off:off + CAPTURE_CHUNK_BYTES], 1))
                  for off in range(0, size, CAPTURE_CHUNK_BYTES)]
    assert over_pieces == over_bytes
    if size:
        mem = AddressSpace()
        mem.mmap("r", size, data=data)
        assert _capture(mem).region_meta["r"]["ratio"] \
            == sum(over_bytes) / size


def test_held_view_region_proven_clean_by_stamps():
    """A region whose only writer is a long-lived TrackedView is proven
    clean by its generation while the view is idle, and dirty at exactly
    the chunk the view wrote — no byte is compared either way."""
    mem = AddressSpace()
    r = mem.mmap("a", 2 * CHUNK_BYTES)
    view = r.view(dtype=np.float64)
    view[:] = 3.0
    base = _capture(mem)
    incr = _capture(mem, prev=base)    # untouched, but view is live
    assert incr.capture_stats["regions_clean_gen"] == 1
    assert incr.capture_stats["regions_dirty"] == 0
    view[len(view) - 1] = 4.0          # the last cell: chunk 1 only
    dirty = _capture(mem, prev=incr)
    assert dirty.capture_stats["regions_dirty"] == 1
    assert dirty.capture_stats["chunks_dirty"] == 1
    assert dirty.capture_stats["chunks_clean"] == 1
    assert _restored(dirty)["a"] == bytes(r.buffer)


def test_full_capture_unchanged_without_prev():
    mem = AddressSpace()
    mem.mmap("a", 1024, data=b"q" * 1024)
    image = _capture(mem)
    assert image.capture_stats["mode"] == "full"
    assert image.delta_logical_bytes == pytest.approx(
        image.raw_logical_bytes * image.compression_ratio)


def test_scaled_and_nas_data_regions_skip_compression():
    mem = AddressSpace()
    mem.mmap("scaled", 1024, repr_scale=64.0)
    mem.mmap("field", 1024, tag="nas-data")
    mem.mmap("plain", 1024)
    image = _capture(mem)
    assert image.capture_stats["compress_skipped"] == 2
    assert image.region_meta["scaled"]["ratio"] == 0.99
    assert image.region_meta["field"]["ratio"] == 0.99
    # the plain region's ratio was actually measured
    assert image.region_meta["plain"]["ratio"] != 0.99


def test_gzip_off_forces_unit_ratio_even_on_reuse():
    mem = AddressSpace()
    mem.mmap("a", 1024, data=b"z" * 1024)
    base = _capture(mem, gzip=True)
    raw = _capture(mem, prev=base, gzip=False)
    assert raw.compression_ratio == 1.0


# -- the pool decision: platform width × batch size ---------------------------

def _full_then_incremental():
    """Full capture of a fresh 1.5 MiB six-region memory, a tracked
    write into five of the regions, then a ``prev=`` capture: (blobs,
    ratios, image ratios, deltas) of the pair."""
    rng = np.random.default_rng(7)
    mem = AddressSpace()
    regions = []
    for i in range(6):
        data = rng.integers(0, 64, 256 * 1024, dtype=np.uint8).tobytes()
        regions.append(mem.mmap(f"r{i}", len(data), data=data))
    full = _capture(mem)
    for region in regions[:5]:
        mem.write(region.addr + 3 * CHUNK_BYTES, b"dirty" * 100)
    incr = _capture(mem, prev=full)
    images = (full, incr)
    return ([im.to_bytes() for im in images],
            [{name: m["ratio"] for name, m in im.region_meta.items()}
             for im in images],
            [im.compression_ratio for im in images],
            [im.delta_logical_bytes for im in images])


def test_pooled_capture_is_bit_identical_to_serial(monkeypatch):
    pooled_batches = []
    real_pool = image_mod._pool

    class RecordingPool:
        """Hands the real pool each batch, keeping what it maps."""

        def map(self, fn, items):
            items = list(items)
            pooled_batches.append(items)
            return real_pool().map(fn, items)

    monkeypatch.setattr(image_mod, "_pool", RecordingPool)
    for with_chunksan in (False, True):
        outcomes = {}
        for width in (1, 2):
            monkeypatch.setattr(image_mod, "_WIDTH", width)
            pooled_batches.clear()
            with sanitized() if with_chunksan else nullcontext():
                outcomes[width] = _full_then_incremental()
            # width 2 pooled both captures' batches; width 1 none
            assert len(pooled_batches) == (2 if width > 1 else 0)
            # a worker only ever sees immutable bytes: never a Region or
            # a view that could reach its bytes or stamps
            assert all(type(item) is bytes
                       for batch in pooled_batches for item in batch)
        assert outcomes[1] == outcomes[2]


def test_batches_the_pool_cannot_help_never_build_an_executor(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("capture built an executor")

    monkeypatch.setattr(image_mod, "_executor", None)
    monkeypatch.setattr(image_mod, "ThreadPoolExecutor", no_executor)
    sub_floor = [bytes([i]) * (64 * 1024) for i in range(3)]
    single = [b"s" * (2 * CAPTURE_CHUNK_BYTES)]
    big = [bytes([i]) * CAPTURE_CHUNK_BYTES for i in range(4)]
    for width in (1, 2, 4):
        monkeypatch.setattr(image_mod, "_WIDTH", width)
        # a big multi-chunk batch stays serial only on one CPU
        batches = [sub_floor, single] + ([big] if width == 1 else [])
        for batch in batches:
            assert image_mod._measure_zlens(batch) \
                == [image_mod._zlen(c) for c in batch]
        # and through capture(): three 64 KiB regions are one such batch
        mem = AddressSpace()
        for i, chunk in enumerate(sub_floor):
            mem.mmap(f"r{i}", len(chunk), data=chunk)
        assert _capture(mem).capture_stats["regions_dirty"] == 3


@pytest.mark.parametrize("size", [3 * CHUNK_BYTES, 3 * CHUNK_BYTES + 5])
def test_never_written_chunks_through_an_incremental_chain(size):
    """Chunks a zero-born region never wrote are the shared ZERO_PIECE in
    a full capture and in every incremental one after it; a chunk zeroed
    again after a write is read and shared too, and every image — also
    through its pickled blob — restores the region's bytes exactly."""
    mem = AddressSpace()
    r = mem.mmap("ring", size)
    base = _capture(mem)
    assert all(p is ZERO_PIECE
               for p in base.memory_snapshot["regions"][0]["data"][:3])
    r.write(CHUNK_BYTES, b"\x07" * 10)
    incr = _capture(mem, prev=base)
    assert incr.capture_stats["chunks_dirty"] == 1
    assert _restored(incr) == _restored(_capture(mem)) \
        == {"ring": bytes(r.buffer)}
    r.write(CHUNK_BYTES, bytes(10))
    again = _capture(mem, prev=incr)
    assert again.memory_snapshot["regions"][0]["data"][1] is ZERO_PIECE
    blob = CheckpointImage.from_bytes(again.to_bytes())
    assert _restored(again) == _restored(blob) == {"ring": bytes(size)}


def test_zero_pieces_carry_the_precomputed_digest():
    """The store never hashes ZERO_PIECE: its digest is precomputed, and
    it is the digest of a chunk of zeros."""
    assert store_mod._ZERO_DIGEST == digest_bytes(bytes(CHUNK_BYTES))
    mem = AddressSpace()
    r = mem.mmap("r", 3 * CHUNK_BYTES)
    r.write(CHUNK_BYTES, b"x")
    pairs = store_mod.CheckpointStore.chunk_pairs(_capture(mem))
    assert [ref.digest for ref, _ in pairs] \
        == [digest_bytes(piece) for piece in r.pieces()]
    assert [piece is ZERO_PIECE for _, piece in pairs] == [True, False, True]


# -- the bit-identity property ------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3),
                  st.integers(0, 255), st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("view"), st.integers(0, 3),
                  st.integers(0, 255)),
        st.tuples(st.just("ckpt"))),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_incremental_chain_restores_bit_identically(ops):
    """Arbitrary interleavings of tracked writes, TrackedView mutations,
    and incremental checkpoints: every image in the chain restores exactly
    what a full capture would."""
    mem = AddressSpace()
    regions = [mem.mmap(f"r{i}", 256) for i in range(4)]
    prev = None
    for op in ops:
        if op[0] == "write":
            _, i, off, data = op
            r = regions[i]
            off = off % (r.size - len(data)) if len(data) < r.size else 0
            mem.write(r.addr + off, data[: r.size - off])
        elif op[0] == "view":
            _, i, value = op
            regions[i].view()[value % 256] = value % 256
        else:
            incr = _capture(mem, prev=prev)
            full = _capture(mem)
            assert _restored(incr) == _restored(full)
            assert incr.compression_ratio == pytest.approx(
                full.compression_ratio, abs=1e-12)
            prev = incr
    final_incr = _capture(mem, prev=prev)
    assert _restored(final_incr) == _restored(_capture(mem))


# -- the ratio memo: warm capture == cold capture -------------------------------

def _cold_twin(mem):
    """A fresh AddressSpace holding the same bytes under the same
    dirty-tracking stamps (so a ``prev=`` capture draws the same
    clean/dirty line) — and nothing memoised."""
    cold = AddressSpace(mem.name)
    for region in mem:
        twin = cold.mmap(region.name, region.size, data=bytes(region.buffer))
        assert twin.addr == region.addr
        twin.generation = region.generation
        twin.chunk_gens[:] = region.chunk_gens
    return cold


def _assert_warm_equals_cold(mem, prev, gzip):
    cold_mem = _cold_twin(mem)
    warm = _capture(mem, prev=prev, gzip=gzip)
    cold = _capture(cold_mem, prev=prev, gzip=gzip)
    assert cold.capture_stats["compress_reused"] == 0
    assert {n: m["ratio"] for n, m in warm.region_meta.items()} \
        == {n: m["ratio"] for n, m in cold.region_meta.items()}
    assert warm.compression_ratio == cold.compression_ratio
    assert warm.delta_logical_bytes == cold.delta_logical_bytes
    assert _restored(warm) == _restored(cold) \
        == {r.name: bytes(r.buffer) for r in mem}
    return warm


_MEMO_SIZES = (3 * CHUNK_BYTES + 100, 256, 2 * CHUNK_BYTES)

_memo_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 2),
                  st.integers(0, 1 << 14),
                  st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("view"), st.integers(0, 2),
                  st.integers(0, 255), st.integers(1, 32)),
        st.tuples(st.just("touch"), st.integers(0, 2)),
        st.tuples(st.just("held"), st.integers(0, 2), st.integers(0, 255)),
        st.tuples(st.just("restore"), st.integers(0, 7)),
        st.tuples(st.just("ckpt"), st.booleans(), st.booleans())),
    min_size=1, max_size=24)


@settings(max_examples=100, deadline=None)
@given(_memo_ops)
@example([("held", 0, 5), ("ckpt", False, True), ("held", 0, 200),
          ("ckpt", False, True)])
@example([("write", 2, 9, b"x" * 64), ("ckpt", True, False),
          ("ckpt", False, True), ("restore", 0), ("ckpt", False, True)])
def test_warm_capture_equals_cold_capture(ops):
    """However tracked writes, TrackedView writes (fresh or held across
    captures), bare touches, in-place restores and captures — full or
    incremental, gzip on or off — interleave on one
    AddressSpace, every capture reports exactly what a capture of fresh
    regions holding the same bytes reports: the generation-keyed ratio
    memo never answers with anything a re-measurement would not."""
    rng = np.random.default_rng(5)
    mem = AddressSpace("p0")
    regions = [mem.mmap(f"r{i}", size, data=rng.integers(
        0, 64, size, dtype=np.uint8).tobytes())
        for i, size in enumerate(_MEMO_SIZES)]
    held = {}
    images = [_assert_warm_equals_cold(mem, None, True)]
    for op in ops:
        r = regions[op[1]] if op[0] not in ("restore", "ckpt") else None
        if op[0] == "write":
            data = op[3]
            mem.write(r.addr + op[2] % (r.size - len(data)), data)
        elif op[0] == "view":
            lo = op[2] % (r.size - op[3])
            r.view()[lo: lo + op[3]] = op[2]
        elif op[0] == "touch":
            r.touch()
        elif op[0] == "held":
            # the view outlives this op: later "held"s on the region
            # write through the same TrackedView
            if r.name not in held:
                held[r.name] = r.view()
            lo = op[2] % (r.size - 64)      # a run long enough to move
            held[r.name][lo: lo + 64] = op[2]       # the compressed size
        elif op[0] == "restore":
            mem.restore(images[op[1] % len(images)].memory_snapshot)
        else:
            prev = images[-1] if op[1] else None
            images.append(_assert_warm_equals_cold(mem, prev, op[2]))
    _assert_warm_equals_cold(mem, None, True)


def _counting_zlen(monkeypatch):
    from repro.dmtcp import image as image_mod
    calls = []
    real = image_mod._zlen
    monkeypatch.setattr(image_mod, "_zlen",
                        lambda chunk: calls.append(len(chunk)) or real(chunk))
    return calls


def test_warm_full_recapture_compresses_only_what_moved(monkeypatch,
                                                        chunksan_oracle):
    calls = _counting_zlen(monkeypatch)
    # the ChunkSan oracle measures every memo-answered ratio again
    audits = 0 if chunksan_oracle is None else 1
    mem = AddressSpace("p0")
    regions = [mem.mmap(f"r{i}", 8192, data=bytes([i]) * 8192)
               for i in range(4)]
    first = _capture(mem)
    assert len(calls) == 4 and first.capture_stats["compress_reused"] == 0
    mem.write(regions[2].addr + 5000, b"moved")
    again = _assert_warm_equals_cold(mem, None, True)     # +4 cold
    assert len(calls) == 4 + 1 + 3 * audits + 4
    assert again.capture_stats["compress_reused"] == 3
    # gzip off measures and memoises nothing; back on, all four answer
    assert _capture(mem, gzip=False).capture_stats["compress_reused"] == 0
    assert _capture(mem).capture_stats["compress_reused"] == 4
    assert len(calls) == 9 + 7 * audits


def test_restore_in_place_then_full_capture_remeasures(monkeypatch):
    calls = _counting_zlen(monkeypatch)
    mem = AddressSpace("p0")
    mem.mmap("a", 8192, data=b"a" * 8192)
    old = _capture(mem)
    mem.write(mem.region("a").addr, bytes(range(256)) * 8)
    _capture(mem)
    mem.restore(old.memory_snapshot)        # same object, other bytes
    after = _capture(mem)
    assert len(calls) == 3 and after.capture_stats["compress_reused"] == 0
    assert after.region_meta["a"]["ratio"] == old.region_meta["a"]["ratio"]


def test_held_view_write_invalidates_the_ratio_memo(monkeypatch):
    calls = _counting_zlen(monkeypatch)
    mem = AddressSpace("p0")
    arr = mem.mmap("a", 8192).view()
    zeros = _capture(mem)
    arr[:] = np.arange(8192) % 251          # stamps the region
    noisy = _capture(mem)
    assert len(calls) == 2
    assert zeros.capture_stats["compress_reused"] \
        == noisy.capture_stats["compress_reused"] == 0
    assert noisy.region_meta["a"]["ratio"] > zeros.region_meta["a"]["ratio"]
    assert mem.region("a").gzip_ratio == noisy.region_meta["a"]["ratio"]


def test_incremental_survives_injected_crash_restart():
    """PR 1's crash-recovery path with incremental checkpointing on: the
    post-restart checksum matches a failure-free run bit for bit, and the
    post-crash incremental chain keeps working."""
    reference = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=60,
                              seed=77, ckpt_interval=1e9,
                              schedule=FixedSchedule([]))
    chaos = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=60,
                          seed=77, ckpt_interval=2.0,
                          schedule=FixedSchedule([
                              FailureEvent(t=6.0, kind="node-crash",
                                           node_index=1)]),
                          backoff_base=0.25,
                          config=RunConfig(incremental=True))
    assert chaos.checksum == reference.checksum
    assert chaos.recovery.n_restarts == 1
    assert chaos.recovery.n_checkpoints >= 2  # chain spans the crash


def test_incremental_chaos_matches_full_chaos_fingerprint_checksum():
    """Same seed, same failures: incremental mode changes checkpoint cost,
    never data."""
    kw = dict(app="lu", klass="A", nprocs=4, iters_sim=20, seed=4242,
              mtbf_node=10.0, ckpt_interval=1.0, backoff_base=0.2,
              backoff_max=2.0, max_attempts=50)
    full = run_chaos_nas(**kw)
    incr = run_chaos_nas(**kw, config=RunConfig(incremental=True))
    assert incr.checksum == full.checksum


# -- WqeLog -------------------------------------------------------------------

def _entry(wr_id, assume=False):
    """An entry as a log holds one: it has a ``wr_id`` itself (a receive
    value) and, like a send record, a ``wr`` carrying the same id."""
    return SimpleNamespace(wr_id=wr_id, wr=SimpleNamespace(wr_id=wr_id),
                           assume_complete_on_drain=assume)


def test_wqelog_preserves_post_order():
    log = WqeLog()
    for wr_id in (5, 3, 5, 9):
        log.append(_entry(wr_id))
    assert [e.wr.wr_id for e in log] == [5, 3, 5, 9]
    assert len(log) == 4 and bool(log)


def test_wqelog_complete_recv_removes_oldest_duplicate():
    log = WqeLog()
    a, b, c = _entry(7), _entry(8), _entry(7)
    for e in (a, b, c):
        log.append(e)
    assert log.complete_recv(7)
    assert list(log) == [b, c]
    with pytest.raises(WqeLogError, match="orphan"):
        log.complete_recv(99)          # unknown wr_id: orphan completion
    assert list(log) == [b, c]


def test_wqelog_complete_send_upto_prefix_semantics():
    """A signaled completion retires every earlier (unsignaled) WQE too."""
    log = WqeLog()
    entries = [_entry(i) for i in (1, 2, 3, 4)]
    for e in entries:
        log.append(e)
    assert log.complete_send_upto(3)
    assert list(log) == [entries[3]]
    with pytest.raises(WqeLogError, match="orphan"):
        log.complete_send_upto(3)          # already retired
    assert list(log) == [entries[3]]


def test_wqelog_retain_filters_in_order():
    log = WqeLog()
    keep = _entry(1)
    log.append(_entry(2, assume=True))
    log.append(keep)
    log.append(_entry(3, assume=True))
    log.retain(lambda e: not e.assume_complete_on_drain)
    assert list(log) == [keep]


def _assert_index_shape(log):
    """Each entry is keyed by its bare wr_id or by ``(wr_id, n)``; a bare
    key is the oldest outstanding WQE of its id, and a wr_id's tuple
    keys are exactly its FIFO of duplicates, oldest first, which exists
    only while it is non-empty."""
    want = {}
    for key, e in log._entries.items():
        want.setdefault(e.wr.wr_id, []).append(key)
    assert set(log._dups) == {
        wr_id for wr_id, keys in want.items()
        if any(type(k) is tuple for k in keys)}
    for wr_id, keys in want.items():
        dups = [k for k in keys if type(k) is tuple]
        bare = [k for k in keys if type(k) is not tuple]
        assert bare in ([], [wr_id]) and type(wr_id) is int
        assert keys == bare + dups          # a bare key is the oldest
        assert all(len(k) == 2 and k[0] == wr_id and type(k[1]) is int
                   for k in dups)
        if dups:
            got = log._dups[wr_id]
            assert type(got) is deque and list(got) == dups


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("post"), st.integers(0, 3)),
    st.tuples(st.just("post"), st.integers(0, 3)),
    st.tuples(st.just("recv"), st.integers(0, 3)),
    st.tuples(st.just("send_upto"), st.integers(0, 3)),
    st.tuples(st.just("retain"), st.integers(0, 3))),
    max_size=60))
def test_wqelog_matches_linear_scan_reference(ops):
    """The indexed log agrees with the seed's linear-scan semantics for
    arbitrary post/complete/retain interleavings; posts outnumber each
    kind of completion and draw from four wr_ids, so ids repeat while
    outstanding and the index crosses bare -> FIFO -> bare, with orphan
    completions arriving in every state."""
    log, ref = WqeLog(), []
    for kind, wr_id in ops:
        if kind == "post":
            e = _entry(wr_id)
            log.append(e)
            ref.append(e)
        elif kind == "retain":
            log.retain(lambda e: e.wr.wr_id != wr_id)
            ref = [e for e in ref if e.wr.wr_id != wr_id]
        elif kind == "recv":
            known = any(e.wr.wr_id == wr_id for e in ref)
            if known:
                log.complete_recv(wr_id)
            else:
                with pytest.raises(WqeLogError):
                    log.complete_recv(wr_id)
            for i, e in enumerate(ref):
                if e.wr.wr_id == wr_id:
                    del ref[i]
                    break
        else:
            known = any(e.wr.wr_id == wr_id for e in ref)
            if known:
                log.complete_send_upto(wr_id)
            else:
                with pytest.raises(WqeLogError):
                    log.complete_send_upto(wr_id)
            for i, e in enumerate(ref):
                if e.wr.wr_id == wr_id:
                    del ref[: i + 1]
                    break
        assert list(log) == ref
        _assert_index_shape(log)


def test_wqelog_index_crosses_int_deque_int_with_orphans_at_each_state():
    """wr_id 7 goes absent -> bare key -> bare key plus a FIFO of
    duplicates -> FIFO only -> absent -> bare key; at every state a
    completion for a wr_id that is *not* outstanding is an orphan and
    leaves log and index untouched.  wr_id 0 rides along so a falsy
    bare key is under test."""
    log = WqeLog()

    def orphans():
        before = list(log)
        for complete in (log.complete_recv, log.complete_send_upto):
            with pytest.raises(WqeLogError, match="orphan"):
                complete(99)
        assert list(log) == before
        _assert_index_shape(log)

    orphans()                                   # absent
    zero, a, b, c, d = (_entry(0), _entry(7), _entry(7), _entry(7),
                        _entry(7))
    log.append(zero)
    log.append(a)
    assert list(log._entries) == [0, 7] and not log._dups
    orphans()                                   # bare
    log.append(b)
    log.append(c)
    assert type(log._dups[7]) is deque and len(log._dups[7]) == 2
    orphans()                                   # bare + FIFO of 2
    log.retain(lambda e: e is not b)            # drop from the middle
    assert list(log) == [zero, a, c] and len(log._dups[7]) == 1
    orphans()                                   # bare + FIFO of 1
    assert log.complete_recv(7)                 # oldest first: the bare one
    assert list(log) == [zero, c] and 7 not in log._entries
    orphans()                                   # FIFO only
    log.append(d)                               # behind c: not bare
    assert list(log) == [zero, c, d] and 7 not in log._entries
    assert len(log._dups[7]) == 2
    orphans()
    assert log.complete_send_upto(7)            # retires wr_id 0 on the way
    assert list(log) == [d]
    orphans()
    assert log.complete_recv(7)
    assert not log and not log._dups
    orphans()                                   # absent again
    log.append(a)
    assert list(log._entries) == [7] and not log._dups
    orphans()                                   # bare again
    assert log.complete_send_upto(7)
    assert not log and not log._dups
    for complete in (log.complete_recv, log.complete_send_upto):
        with pytest.raises(WqeLogError, match="orphan"):
            complete(7)                         # retired is an orphan too
        with pytest.raises(WqeLogError, match="orphan"):
            complete(0)

