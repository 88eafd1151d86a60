"""Checkpoint image format.

An image holds a real serialization of the process's user-space memory
(optionally zlib-"gzip"-compressed, DMTCP's default), plus process metadata
— including the kernel version and the vendor of the embedded user-space
InfiniBand driver, which drive the paper's §4 restart-compatibility
limitations.

In memory a region's bytes are a tuple of ``bytes`` pieces, one per
:data:`~repro.memory.CHUNK_BYTES` slice (:meth:`~repro.memory.Region.
pieces`; the last may be short, an empty region has none).  That is the
store's chunk too, so a store put lands each new piece object as is and
swaps a deduplicated one for the object already on the tier, and a
fetched image holds the tier's objects: image, tiers and fetched image
share one object per distinct chunk content (DESIGN.md §15).

Logical (paper-testbed-equivalent) sizes are tracked alongside the real
bytes so scaled-down workloads report paper-magnitude checkpoint sizes and
times; the compression ratio applied to the logical size is the ratio
actually measured on the real bytes.

Incremental capture (DESIGN.md §8/§13): :meth:`CheckpointImage.capture`
takes an optional ``prev`` image.  A region whose generation is
unchanged since ``prev`` is *clean*: its pieces and measured
compression ratio are reused verbatim, skipping the zlib pass and, when
``prev`` still holds its bytes, the copy too (a file-mode ``prev`` keeps
only its layout, so the live region's bytes are copied).  Dirtiness
below region level is tracked at the store's
:data:`~repro.memory.CHUNK_BYTES` granularity: a touched region's per-chunk
generation stamps, compared with the ones ``prev`` recorded, yield a chunk
dirty mask, and only the dirty chunks count toward the incremental
write-back delta (:func:`~repro.memory.dirty_chunk_bytes`, the count live
pre-copy migration asks too) — clean chunks also keep their known store
digests so a later store put never re-hashes them.  No byte of a region
is hashed or compared to prove it clean.  Dirty regions are cut into
fresh pieces from live memory (no piece of a dirty region is reused, so
nothing beyond the stamps is trusted) and their ratios measured over
:data:`CAPTURE_CHUNK_BYTES` windows, each the join of its pieces
(:func:`_measure_zlens` decides whether a thread pool pays for the batch
in hand) — unless the region still carries the ratio an earlier capture
measured on these very bytes (:attr:`~repro.memory.Region.gzip_ratio`,
keyed by generation), which any capture, full or incremental, reuses
instead.  Whatever the mode, the resulting ``memory_snapshot`` restores
bit-identically to a full capture of the same memory.
"""

from __future__ import annotations

import os
import pickle
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import hooks
from ..memory import CHUNK_BYTES, AddressSpace, dirty_chunk_bytes

__all__ = ["CheckpointImage", "ImageError", "CAPTURE_CHUNK_BYTES"]


class ImageError(RuntimeError):
    pass


#: chunk granularity of the capture pipeline's compression measurement
CAPTURE_CHUNK_BYTES = 1 << 20
#: region pieces (:data:`~repro.memory.CHUNK_BYTES` each) per measurement
#: window
_WINDOW_PIECES = CAPTURE_CHUNK_BYTES // CHUNK_BYTES


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not every platform has affinity masks
        return os.cpu_count() or 1


#: compression threads this process may usefully run, read once at import
#: (tests monkeypatch it; nothing else sets it)
_WIDTH = min(4, _usable_cpus())

_executor: Optional[ThreadPoolExecutor] = None


def _pool() -> ThreadPoolExecutor:
    global _executor
    if _executor is None:
        _executor = ThreadPoolExecutor(max_workers=_WIDTH,
                                       thread_name_prefix="ckpt-gz")
    return _executor


def _zlen(chunk: bytes) -> int:
    return len(zlib.compress(chunk, 1))


def _windows(pieces) -> list:
    """A region's pieces joined into its :data:`CAPTURE_CHUNK_BYTES`
    measurement windows (the last may be short)."""
    return [b"".join(pieces[i:i + _WINDOW_PIECES])
            for i in range(0, len(pieces), _WINDOW_PIECES)]


def _measure_zlens(chunks):
    """Per-chunk compressed lengths, identical whichever way they are
    computed.

    Fans out over one shared thread pool (zlib releases the GIL) only when
    that can pay: the host grants more than one CPU, there is more than
    one chunk to overlap, and the batch holds at least
    :data:`CAPTURE_CHUNK_BYTES` — below that, dispatch costs more than the
    few small compressions it would overlap.
    """
    if _WIDTH > 1 and len(chunks) > 1 \
            and sum(map(len, chunks)) >= CAPTURE_CHUNK_BYTES:
        return list(_pool().map(_zlen, chunks))
    return [_zlen(c) for c in chunks]


@dataclass
class CheckpointImage:
    """One process's checkpoint image."""

    proc_name: str
    pid: int
    kernel_version: str
    hca_vendor: Optional[str]      # vendor of the embedded user-space driver
    memory_snapshot: dict
    gzip: bool
    checkpointer: str = "dmtcp"    # or "blcr"
    raw_logical_bytes: float = 0.0
    compression_ratio: float = 1.0
    header_bytes: float = 0.0
    #: per-region capture bookkeeping, keyed by region name:
    #: {"generation", "ratio", "chunk_gens", "chunk_hashes"} —
    #: what the *next* incremental capture needs to prove a region (or
    #: individual chunks of it) clean and reuse its ratio.  ``chunk_gens``
    #: is the per-chunk generation array as raw int64 bytes;
    #: ``chunk_hashes`` is a per-chunk blake2b-16 digest list (``None``
    #: holes for chunks nobody has hashed yet — the store fills them in
    #: at put time) or ``None`` when no digests are known
    region_meta: Dict[str, dict] = field(default_factory=dict)
    #: logical bytes an incremental write-back must actually push (dirty
    #: regions only, post-compression); equals the full compressed size
    #: when captured without a ``prev``
    delta_logical_bytes: float = 0.0
    #: how this capture went: region/byte counts per clean/dirty class
    #: (not meaningful after from_bytes round-trips of old images)
    capture_stats: dict = field(default_factory=dict)

    @classmethod
    def capture(cls, proc_name: str, pid: int, kernel_version: str,
                hca_vendor: Optional[str], memory: AddressSpace,
                gzip: bool = True, checkpointer: str = "dmtcp",
                header_bytes: float = 0.0,
                prev: Optional["CheckpointImage"] = None,
                t_sim: float = 0.0) -> "CheckpointImage":
        """Capture ``memory``, incrementally against ``prev`` if given.

        ``t_sim`` comes from the caller (``DmtcpProcess`` passes
        ``env.now``) and stamps the records of the tracer in the
        observer slot (:mod:`repro.hooks`): this module never reads a
        clock — the tracer stamps wall time itself, and capture advances
        no simulated time.
        """
        tracer = hooks.tracer
        san = hooks.chunksan
        if san is not None:
            # audit the stamps *before* this capture trusts them for the
            # clean-proof hierarchy below; charges zero simulated time
            san.check_capture(proc_name, memory, context="capture",
                              t_sim=t_sim)

        prev_snap: Dict[str, dict] = {}
        prev_meta: Dict[str, dict] = {}
        if prev is not None:
            prev_snap = {r["name"]: r
                         for r in prev.memory_snapshot["regions"]}
            prev_meta = prev.region_meta

        # regions_clean_hash: no capture proves a region clean by hashing
        # any more; kept at 0 because benchmark readers still read the key
        stats = {"mode": "incremental" if prev is not None else "full",
                 "regions_total": 0,
                 "regions_clean_gen": 0, "regions_clean_hash": 0,
                 "regions_dirty": 0,
                 "compress_skipped": 0, "compress_reused": 0,
                 "chunks_total": 0,
                 "chunks_clean": 0, "chunks_dirty": 0}
        snap_regions = []
        meta: Dict[str, dict] = {}
        weighted = 0.0
        total_logical = 0.0
        delta_logical = 0.0
        rows = []           # (logical, meta_entry, clean, dirty_frac)
        measure_jobs = []   # (meta_entry, data, region, reused ratio)

        for region in memory:
            stats["regions_total"] += 1
            logical = region.size * region.repr_scale
            total_logical += logical
            n_chunks = region.n_chunks
            stats["chunks_total"] += n_chunks
            pm = prev_meta.get(region.name)
            ps = prev_snap.get(region.name)
            clean = False
            chunk_hashes = None
            dirty_mask: Optional[np.ndarray] = None
            ref_gens: Optional[np.ndarray] = None
            ndirty = 0
            reused: Optional[float] = None
            if pm is not None and ps is not None \
                    and ps["addr"] == region.addr \
                    and ps["size"] == region.size:
                if region.generation == pm["generation"]:
                    # every mutation bumped the generation, so equality
                    # proves the bytes unchanged
                    clean = True
                else:
                    # chunk-granularity proof: only chunks whose
                    # generation stamp moved since ``prev`` can hold
                    # changed bytes — nothing is hashed or compared
                    ref_gens = np.frombuffer(pm["chunk_gens"],
                                             dtype=np.int64)
                    dirty_mask = ref_gens != region.chunk_gens
                    if not dirty_mask.any():
                        clean = True
                        dirty_mask = None
            if clean:
                stats["regions_clean_gen"] += 1
                chunk_hashes = pm.get("chunk_hashes")
                # pieces are immutable: share ``prev``'s tuple — unless
                # ``prev`` kept only its layout (its blob holds the
                # bytes), in which case the live region still holds
                # exactly these bytes
                data = ps["data"]
                if data is None:
                    data = region.pieces()
                ratio = pm["ratio"]
                stats["chunks_clean"] += n_chunks
                dirty_frac = 0.0
            else:
                data = region.pieces()
                stats["regions_dirty"] += 1
                if dirty_mask is None:
                    dirty_mask = np.ones(n_chunks, dtype=bool)
                ndirty = int(np.count_nonzero(dirty_mask))
                stats["chunks_dirty"] += ndirty
                stats["chunks_clean"] += n_chunks - ndirty
                dirty_frac = dirty_chunk_bytes(
                    region.size, region.chunk_gens, ref_gens) / region.size \
                    if region.size else 1.0
                pm_hashes = pm.get("chunk_hashes") if pm else None
                if pm_hashes is not None and len(pm_hashes) == n_chunks:
                    # clean chunks keep their known digests; dirty ones
                    # get ``None`` holes for the store to fill at put time
                    chunk_hashes = [None if dirty_mask[i] else pm_hashes[i]
                                    for i in range(n_chunks)]
                if not gzip:
                    ratio = 1.0
                elif region.repr_scale > 1.0 or region.tag == "nas-data":
                    # part of the scaling substitution (DESIGN.md §2): a
                    # small sample cannot carry full-size field statistics;
                    # real numerical data compresses ~1% (paper Table 5),
                    # so the measured ratio would be clamped here anyway —
                    # skip the zlib pass entirely
                    ratio = 0.99
                    stats["compress_skipped"] += 1
                else:
                    # what an earlier capture (any mode, any ``prev``)
                    # measured on these very bytes; ``None`` = measured
                    # below
                    ratio = reused = region.gzip_ratio
                    if reused is not None:
                        stats["compress_reused"] += 1

            if tracer is not None:
                how = "gen" if clean else "dirty"
                extra = {} if prev is None else {
                    "chunks": n_chunks,
                    "chunks_dirty": 0 if clean else ndirty}
                tracer.emit("capture.region", proc_name, t_sim,
                            name=region.name, clean=clean, how=how,
                            bytes=region.size, **extra)
            entry = {"generation": region.generation, "ratio": ratio,
                     "chunk_gens": region.chunk_gens.tobytes(),
                     "chunk_hashes": chunk_hashes}
            meta[region.name] = entry
            rows.append((logical, entry, clean, dirty_frac))
            snap_regions.append({
                "name": region.name, "addr": region.addr,
                "size": region.size, "repr_scale": region.repr_scale,
                "tag": region.tag, "data": data,
            })
            if ratio is None or (reused is not None and san is not None):
                # ChunkSan re-measures what the memo answered
                measure_jobs.append((entry, data, region, reused))

        # -- chunked ratio measurement ---------------------------------------
        n_reused = stats["compress_reused"]
        if measure_jobs or n_reused:
            # ``reused`` only when the memo answered for some region, so
            # traces of captures it never serves keep their schema
            compress_span = None if tracer is None else tracer.begin(
                "capture.compress", proc_name, t_sim,
                regions=len(measure_jobs),
                **({"reused": n_reused} if n_reused else {}))
            chunks = [(j, window)
                      for j, job in enumerate(measure_jobs)
                      for window in _windows(job[1])]
            zlens = _measure_zlens([c for _j, c in chunks])
            compressed = [0] * len(measure_jobs)
            for (j, _c), zl in zip(chunks, zlens):
                compressed[j] += zl
            for (entry, _data, region, reused), zbytes in zip(measure_jobs,
                                                              compressed):
                ratio = zbytes / max(1, region.size)
                if reused is not None:
                    san.check_ratio(proc_name, region, reused, ratio)
                entry["ratio"] = region.gzip_ratio = ratio
            if tracer is not None:
                # sim duration is 0 (capture is instantaneous in sim
                # time); the span's wall stamps bracket the real zlib cost
                tracer.end(compress_span, t_sim, chunks=len(chunks))

        # -- weighting: each region's effective ratio by its logical bytes;
        #    the dirty *chunk* subset is what a delta write-back must push
        for logical, entry, clean, dirty_frac in rows:
            effective = min(1.0, entry["ratio"]) if gzip else 1.0
            weighted += effective * logical
            if not clean:
                delta_logical += effective * logical * dirty_frac

        ratio = weighted / total_logical if total_logical else 1.0
        if not gzip:
            ratio = 1.0

        snap = {"name": memory.name, "next_addr": memory.next_addr,
                "regions": snap_regions}
        return cls(proc_name=proc_name, pid=pid,
                   kernel_version=kernel_version, hca_vendor=hca_vendor,
                   memory_snapshot=snap, gzip=gzip, checkpointer=checkpointer,
                   raw_logical_bytes=memory.logical_bytes,
                   compression_ratio=ratio, header_bytes=header_bytes,
                   region_meta=meta, delta_logical_bytes=delta_logical,
                   capture_stats=stats)

    # -- size/time accounting ---------------------------------------------------

    @property
    def logical_size(self) -> float:
        """Bytes this image stands for on disk (paper-testbed scale)."""
        return self.raw_logical_bytes * self.compression_ratio \
            + self.header_bytes

    @property
    def delta_logical_size(self) -> float:
        """Bytes an incremental write-back must push (paper-testbed
        scale): the dirty regions' compressed logical bytes + header."""
        return self.delta_logical_bytes + self.header_bytes

    # -- real byte serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = pickle.dumps(
            {
                "proc_name": self.proc_name,
                "pid": self.pid,
                "kernel_version": self.kernel_version,
                "hca_vendor": self.hca_vendor,
                "memory_snapshot": self.memory_snapshot,
                "gzip": self.gzip,
                "checkpointer": self.checkpointer,
                "raw_logical_bytes": self.raw_logical_bytes,
                "compression_ratio": self.compression_ratio,
                "header_bytes": self.header_bytes,
                "region_meta": self.region_meta,
                "delta_logical_bytes": self.delta_logical_bytes,
                "capture_stats": self.capture_stats,
            },
            protocol=pickle.HIGHEST_PROTOCOL)
        if self.gzip:
            return b"DMTCPGZ1" + zlib.compress(payload, 1)
        return b"DMTCPRW1" + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CheckpointImage":
        magic, payload = blob[:8], blob[8:]
        if magic not in (b"DMTCPGZ1", b"DMTCPRW1"):
            raise ImageError("not a checkpoint image (bad magic)")
        try:
            if magic == b"DMTCPGZ1":
                payload = zlib.decompress(payload)
            return cls(**pickle.loads(payload))
        except Exception as exc:
            # zlib.error, UnpicklingError, EOFError, or whatever a
            # damaged pickle stream happens to raise
            raise ImageError(f"truncated or corrupt checkpoint image "
                             f"payload: {exc!r}") from exc

    def drop_bytes(self) -> None:
        """Let go of every region's bytes, keeping the metadata and the
        region layout (name, address, size) — all a later incremental
        capture or a size report reads.  For an image whose bytes live on
        elsewhere, e.g. in the blob :meth:`to_bytes` made of it."""
        for region in self.memory_snapshot["regions"]:
            region["data"] = None

    def restore_memory(self, memory: AddressSpace) -> None:
        memory.restore(self.memory_snapshot)
