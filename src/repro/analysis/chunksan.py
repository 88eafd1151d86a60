"""ChunkSan: the runtime shadow oracle for chunk-stamp dirty tracking.

The ``Region`` type keeps writers outside ``memory/`` honest:
``region.buffer`` is read-only, and ``Region.write`` / ``copy_within`` /
``TrackedView`` stamp what they write.  ChunkSan audits the writers that
remain — those inside ``memory/``, and anything writing a region's
private bytes directly — catching a ``touch()`` whose span arithmetic is
wrong by one chunk or a new write path that pokes bytes behind the
stamps' back.  The oracle is the obvious one, made cheap enough to run
under every chaos sweep:

* a **shadow table** keyed by ``(proc name, region name)`` holds, per
  region, the per-chunk generation stamps and an *independent* per-chunk
  blake2b-16 digest of the bytes as last observed (independent = hashed
  here from the raw buffer: nothing in the checked modules hashes
  memory to decide what is dirty, they trust the stamps this sanitizer
  exists to audit);
* at every :meth:`CheckpointImage.capture` and every migration pre-copy
  round, each region's current bytes are re-hashed and compared: a chunk
  whose **digest moved while its generation stamp did not** is a stale
  stamp — the next incremental capture would skip bytes that changed —
  and raises :class:`ChunkSanError` naming the process, region, chunk
  index, and the last ``touch()`` backtrace recorded for that chunk;
* a **zero-born** region (mapped without initial data) is judged at
  first sight too: its mapping was an observation of zeros at stamp 0,
  so a chunk whose stamp is still 0 must hash as zeros — capture hands
  such a chunk out as the shared zero piece without reading it.

Every region is judged.  ChunkSan charges **zero simulated time** — it
runs in the capture call, which is instantaneous in sim time by
construction — and is strictly opt-in: :func:`sanitized` enters it in
the observer slot :mod:`repro.hooks` like the lifecycle tracer (pytest
fixture knob ``REPRO_CHUNKSAN=1`` / ``@pytest.mark.chunksan``, or
``fault_sweep --chunksan``), with no import from the checked modules
back into ``repro.analysis``.
"""

from __future__ import annotations

import hashlib
import traceback
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import hooks
from ..memory import CHUNK_BYTES

__all__ = ["ChunkSan", "ChunkSanError", "sanitized"]

#: frames kept per recorded touch() call site
_BACKTRACE_LIMIT = 8


class ChunkSanError(AssertionError):
    """A chunk's bytes changed but its generation stamp did not."""


def _chunk_digests(buffer, n_chunks: int) -> List[bytes]:
    """Independent blake2b-16 per-chunk digests straight off the raw
    buffer, the content truth the stamps are audited against."""
    view = memoryview(buffer)
    out = []
    for i in range(n_chunks):
        lo = i * CHUNK_BYTES
        out.append(hashlib.blake2b(view[lo: lo + CHUNK_BYTES],
                                   digest_size=16).digest())
    return out


class ChunkSan:
    """Shadow full-hash oracle proving stamps ⊇ true content diff."""

    def __init__(self) -> None:
        #: (proc name, region name) → observation
        self._shadow: Dict[Tuple[str, str], dict] = {}
        #: id(region) → chunk index → formatted last-touch backtrace
        self._touches: Dict[int, Dict[int, str]] = {}
        self.checks = 0             # capture/migration-round checkpoints
        self.regions_checked = 0
        self.chunks_checked = 0
        self.stale_caught = 0

    # -- touch recording (wired by sanitized) --------------------------------

    def record_touch(self, region, offset: int = 0,
                     length: Optional[int] = None) -> None:
        """Remember where each chunk was last stamped, for the error
        message.  Called by :func:`sanitized`'s ``Region.touch`` wrapper
        *before* the real touch runs."""
        n = region.n_chunks
        if length is None:
            lo, hi = 0, n
        elif length > 0:
            lo = max(0, offset) // CHUNK_BYTES
            hi = min(n, -(-(offset + length) // CHUNK_BYTES))
        else:
            return
        stack = traceback.extract_stack(limit=_BACKTRACE_LIMIT + 2)[:-2]
        where = "".join(traceback.format_list(stack)) or "  <no frames>\n"
        per_region = self._touches.setdefault(id(region), {})
        for i in range(lo, hi):
            per_region[i] = where

    def _last_touch(self, region, chunk: int) -> str:
        where = self._touches.get(id(region), {}).get(chunk)
        if where is None:
            return "  <chunk never touch()ed while sanitized>\n"
        return where

    # -- the oracle ----------------------------------------------------------

    def check_region(self, proc_name: str, region,
                     context: str = "capture") -> int:
        """Compare ``region`` against its shadow observation; returns the
        number of chunks judged.  Raises :class:`ChunkSanError` on the
        first stale stamp; always re-observes."""
        key = (proc_name, region.name)
        n = region.n_chunks
        digests = _chunk_digests(region.buffer, n)
        gens = np.array(region.chunk_gens, copy=True)
        prev = self._shadow.get(key)
        # a weak token, not ``id(region)``: a remapped region may reuse
        # the unmapped one's id while its stamps restart at 0
        self._shadow[key] = {"token": weakref.ref(region),
                             "size": region.size,
                             "gens": gens, "digests": digests}
        if prev is None or prev["token"]() is not region \
                or prev["size"] != region.size:
            # first sight, a remapping, or a resize: nothing to diff yet,
            # but a zero-born region's unstamped chunks must be zeros
            if region.zero_born:
                self._check_never_written(proc_name, region, digests, gens)
            return 0
        self.regions_checked += 1
        self.chunks_checked += n
        prev_gens = prev["gens"]
        prev_digests = prev["digests"]
        m = min(n, len(prev_digests))
        for i in range(m):
            if digests[i] != prev_digests[i] and gens[i] == prev_gens[i]:
                self.stale_caught += 1
                raise ChunkSanError(
                    f"stale chunk stamp: {proc_name}/{region.name} chunk "
                    f"{i} (bytes [{i * CHUNK_BYTES}, "
                    f"{min(region.size, (i + 1) * CHUNK_BYTES)})) changed "
                    f"content but its generation stamp stayed at "
                    f"{int(gens[i])} since the last {context} check — an "
                    "incremental capture would skip these bytes. Last "
                    f"touch() covering this chunk:\n"
                    f"{self._last_touch(region, i)}")
        return n

    def _check_never_written(self, proc_name: str, region, digests,
                             gens: np.ndarray) -> None:
        zeros = _chunk_digests(bytes(region.size), region.n_chunks)
        for i in np.flatnonzero(gens == 0).tolist():
            if digests[i] != zeros[i]:
                self.stale_caught += 1
                raise ChunkSanError(
                    f"never-written chunk: {proc_name}/{region.name} chunk "
                    f"{i} holds non-zero bytes but its generation stamp is "
                    "still 0 since the zero-filled mapping — capture would "
                    "save it as zeros without reading it, and no touch() "
                    "ever covered it")

    def check_capture(self, proc_name: str, memory,
                      context: str = "capture", t_sim: float = 0.0) -> None:
        """Audit every region of ``memory``; called at capture entry and
        at each migration pre-copy round.  Zero simulated time."""
        self.checks += 1
        regions = 0
        chunks = 0
        for region in memory:
            regions += 1
            chunks += self.check_region(proc_name, region, context)
        tracer = hooks.tracer
        if tracer is not None:
            # note: no "chunks"+"chunks_dirty" pair — that attribute
            # combination is claimed by the chunk-balance trace invariant
            tracer.emit("chunksan.check", proc_name, t_sim,
                        context=context, regions=regions,
                        chunks_checked=chunks, stale=self.stale_caught)

    def check_ratio(self, proc_name: str, region, reused: float,
                    measured: float) -> None:
        """A capture answered ``region``'s gzip ratio from the
        generation-keyed memo (:attr:`Region.gzip_ratio`) and, because
        this oracle is installed, measured it again anyway: the two must
        be the same number."""
        if reused != measured:
            self.stale_caught += 1
            raise ChunkSanError(
                f"stale gzip ratio: {proc_name}/{region.name} reused "
                f"{reused!r} at generation {region.generation} but its "
                f"bytes now measure {measured!r} — they changed without "
                "a touch()")

    def summary(self) -> dict:
        return {"checks": self.checks,
                "regions_checked": self.regions_checked,
                "chunks_checked": self.chunks_checked,
                "stale_caught": self.stale_caught}


@contextmanager
def sanitized():
    """``with sanitized() as san:`` — run the body under a fresh
    ChunkSan in the observer slot, with ``Region.touch`` interposed to
    record last-touch backtraces for its error messages."""
    from ..memory.address_space import Region

    san = ChunkSan()
    orig_touch = Region.touch

    def _touch(self, offset: int = 0, length: Optional[int] = None):
        san.record_touch(self, offset, length)
        return orig_touch(self, offset, length)

    Region.touch = _touch
    try:
        with hooks.observing(chunksan=san):
            yield san
    finally:
        Region.touch = orig_touch
