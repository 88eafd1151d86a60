"""ChunkSan, the runtime shadow oracle: accepts every stamp bitmap a
disciplined (TrackedView / touch-covered) write sequence produces,
catches a seeded stale stamp with the chunk index and last-touch
backtrace, charges zero simulated time, and rides the chaos harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hooks
from repro.analysis.chunksan import ChunkSan, ChunkSanError, sanitized
from repro.dmtcp import RunConfig
from repro.dmtcp.image import CheckpointImage
from repro.memory import CHUNK_BYTES, AddressSpace
from repro.obs import traced

SIZE = 4 * CHUNK_BYTES + 100


def _capture(mem, prev=None):
    return CheckpointImage.capture("p0", 1, "3.8.13", None, mem,
                                   gzip=False, prev=prev)


# -- the hypothesis property: disciplined writes always accepted ---------------


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, SIZE - 2),        # offset
              st.integers(1, 2 * CHUNK_BYTES),  # length
              st.integers(0, 255),              # value
              st.booleans()),                   # capture after this write?
    max_size=10))
def test_chunksan_accepts_all_tracked_write_sequences(writes):
    """Any stamp bitmap produced by random TrackedView writes (plus
    interleaved captures) satisfies the stamps ⊇ content-diff oracle."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized() as san:
        prev = _capture(mem)
        view = region.view()
        for off, length, value, ckpt in writes:
            end = min(SIZE, off + length)
            view[off:end] = value
            if ckpt:
                prev = _capture(mem, prev=prev)
        _capture(mem, prev=prev)
        assert san.stale_caught == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, SIZE - 65),
                          st.integers(1, 64)), max_size=8))
def test_chunksan_accepts_touch_covered_buffer_writes(writes):
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized() as san:
        prev = _capture(mem)
        for off, length in writes:
            region._buf[off:off + length] = bytes([7]) * length
            region.touch(off, length)
            prev = _capture(mem, prev=prev)
        assert san.stale_caught == 0


# -- the seeded negative: a deliberately skipped touch() ----------------------


def test_chunksan_catches_seeded_stale_stamp():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized() as san:
        prev = _capture(mem)
        # the bug under test: bytes move in chunk 2, stamps do not
        lo = 2 * CHUNK_BYTES + 17
        region._buf[lo:lo + 4] = b"XXXX"
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
        assert "chunk 2" in str(exc.value)
        assert "p0/data" in str(exc.value)
        assert san.stale_caught == 1


def test_chunksan_error_carries_last_touch_backtrace():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized():
        prev = _capture(mem)
        view = region.view()
        view[0:10] = 9                   # the touch ChunkSan remembers
        prev = _capture(mem, prev=prev)
        region._buf[0:4] = b"ZZZZ"       # ...then an untracked write
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
    message = str(exc.value)
    assert "chunk 0" in message
    assert "test_chunksan.py" in message     # the view[0:10] frame


def test_untouched_chunk_reports_no_backtrace_available():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized():
        prev = _capture(mem)
        region._buf[0:4] = b"QQQQ"
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
    assert "never touch()ed" in str(exc.value)


@pytest.mark.parametrize("data,caught", [(None, True), (bytes(SIZE), False)],
                         ids=["zero-born", "data-initialised"])
def test_untracked_write_before_the_first_capture(data, caught):
    """A zero-born region is judged from its mapping: capture trusts an
    unstamped chunk to hold zeros without reading it, so bytes written
    there behind the stamps fail the very first capture.  A
    data-initialised region is read whole, so nothing is trusted yet."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE, data=data)
    region.write(0, b"ok")
    region._buf[3 * CHUNK_BYTES + 1] = 1
    with sanitized() as san:
        if caught:
            with pytest.raises(ChunkSanError,
                               match="never-written chunk: p0/data chunk 3"):
                _capture(mem)
        else:
            _capture(mem)
        assert san.stale_caught == int(caught)


# -- no exemptions; re-seeding ------------------------------------------------


def test_no_region_is_exempt():
    """Every region is judged: a raw writable view that outlives a
    capture is no escape hatch, so bytes it moves without a touch fail
    the next capture."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    arr = np.frombuffer(region._buf, dtype=np.uint8)
    with sanitized() as san:
        prev = _capture(mem)
        arr[0:100] = 42
        with pytest.raises(ChunkSanError, match="chunk 0"):
            _capture(mem, prev=prev)
        assert san.regions_checked == 1


def test_remapped_region_reseeds_instead_of_judging():
    """A region replaced wholesale between captures (restart path) must
    not be judged against the old object's stamps."""
    mem = AddressSpace("p0")
    mem.mmap("data", SIZE)
    with sanitized() as san:
        _capture(mem)
        mem.munmap(mem.region("data"))
        mem.mmap("data", SIZE)           # same name, fresh object
        _capture(mem)
        assert san.stale_caught == 0


def test_restore_path_is_chunksan_clean():
    """AddressSpace.restore touches what it rewrites, so a checkpoint /
    mutate / restore / capture cycle satisfies the oracle."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with sanitized() as san:
        img = _capture(mem)
        view = region.view()
        view[10:20] = 5
        img2 = _capture(mem, prev=img)
        img.restore_memory(mem)
        _capture(mem, prev=img2)
        assert san.stale_caught == 0


@pytest.mark.no_chunksan
def test_reused_gzip_ratio_is_remeasured_and_a_mismatch_raises(monkeypatch):
    """Under the oracle the generation-keyed ratio memo is audited like
    the stamps: every ratio a capture reuses is measured again anyway,
    and one that no longer matches its bytes fails the capture.  (Opted
    out of the fixture's oracle: the first half counts zlib calls with
    no oracle installed at all.)"""
    from test_ckpt_incremental import _counting_zlen
    calls = _counting_zlen(monkeypatch)

    def capture(mem):
        return CheckpointImage.capture("p0", 1, "3.8.13", None, mem)

    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE, data=bytes(range(256)) * (SIZE // 256))
    cold = capture(mem)
    assert capture(mem).capture_stats["compress_reused"] == 1
    assert len(calls) == 1                  # no oracle: the memo answers
    with sanitized() as san:
        warm = capture(mem)
        assert len(calls) == 2              # oracle: measured again
        assert warm.capture_stats["compress_reused"] == 1
        assert warm.region_meta == cold.region_meta
        region.gzip_ratio = 0.5             # a memo its bytes never earned
        with pytest.raises(ChunkSanError, match="stale gzip ratio") as exc:
            capture(mem)
        assert "p0/data" in str(exc.value) and san.stale_caught == 1


# -- the observer slot --------------------------------------------------------


def test_sanitized_restores_the_slot_and_touch():
    from repro.memory.address_space import Region

    # whatever was in the slot before (the fixture's oracle under
    # REPRO_CHUNKSAN=1, else nothing) is what leaving must restore; the
    # tracer slot beside it is untouched
    outer = hooks.chunksan
    outer_tracer = hooks.tracer
    orig_touch = Region.touch
    with sanitized() as san:
        assert isinstance(san, ChunkSan)
        assert hooks.chunksan is san
        assert hooks.tracer is outer_tracer
        assert Region.touch is not orig_touch
        with traced() as tracer:
            assert hooks.tracer is tracer and hooks.chunksan is san
        assert hooks.tracer is outer_tracer
    assert hooks.chunksan is outer
    assert Region.touch is orig_touch
    with pytest.raises(TypeError, match="no observer slot"):
        with hooks.observing(monitor=object()):
            pass


@pytest.mark.chunksan
def test_marker_knob_installs_the_oracle():
    """The conftest fixture: a chunksan-marked test runs with the
    oracle in the observer slot."""
    assert hooks.chunksan is not None


# -- end to end: chaos harness, zero sim time ---------------------------------


def test_chaos_run_under_chunksan_is_timing_invariant():
    """An LU chaos run under ChunkSan completes with an identical
    fingerprint (checksum, completion time, failure record) to the
    unsanitized run — the oracle charges zero simulated time — and the
    oracle records the audit volume."""
    from repro.faults.harness import run_chaos_nas

    base = run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                         ckpt_interval=0.5,
                         config=RunConfig(incremental=True))
    with sanitized() as oracle:
        san = run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                            ckpt_interval=0.5,
                            config=RunConfig(incremental=True))
    assert san.fingerprint() == base.fingerprint()
    assert oracle.summary()["checks"] > 0
    assert oracle.summary()["stale_caught"] == 0


def test_chunksan_emits_audit_records_to_the_tracer():
    from repro.faults.harness import run_chaos_nas

    with traced() as tracer, sanitized() as san:
        run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                      ckpt_interval=0.5,
                      config=RunConfig(incremental=True))
    checks = [e for e in tracer.events
              if e["kind"] == "chunksan.check"]
    assert checks and all(e["stale"] == 0 for e in checks)
    assert sum(1 for e in checks) == san.summary()["checks"]

    from repro.obs import decompose, render
    decomp = decompose(tracer.events)
    assert decomp["chunksan"]["checks"] == san.summary()["checks"]
    assert "chunksan" in render(decomp)
