"""The checkpoint store: content-addressed chunks across three tiers.

:class:`CheckpointStore` sits between the per-process checkpoint pipeline
(:mod:`repro.dmtcp`) and the raw devices (:mod:`repro.hardware.storage`):

* **put** — ``put_image`` lands one process's :class:`~repro.dmtcp.image.
  CheckpointImage` on the node-local tier as content-addressed chunks (one
  per piece of each memory region's data, keyed by the capture's
  per-chunk blake2b fingerprints) plus a :class:`~.manifest.Manifest`.  A
  chunk whose digest is already on the tier — same bytes from a previous
  epoch, or from another rank on the node — costs a manifest reference
  instead of a write, so an unchanged chunk is never rewritten or even
  re-hashed (the capture carries clean chunks' digests forward).
  One object per chunk: a new chunk's file *is* the image's piece, and a
  deduplicated piece is swapped for the object already on the tier
  (:meth:`CheckpointStore.land_chunk`), so the image and every tier
  share one ``bytes`` object per distinct chunk content.
* **replicate** — the coordinator calls ``schedule_replication`` as each
  checkpoint epoch completes; an async sim process then copies missing
  chunks and manifests to the partner-node and Lustre tiers while the
  application runs on (the multi-level landing FTI popularized).
* **fetch** — ``fetch_image`` reassembles a bit-identical image for
  restart, resolving every chunk from the cheapest *live* tier; the
  image's pieces are the tier's objects, never joined.  Each read is
  digest-verified; a corrupt copy is skipped, served from the next
  replica, and healed in place.
* **GC** — manifests are refcounted per tier filesystem; retiring an
  epoch under the retention policy deletes only chunks no surviving
  manifest references.  An owner that keeps its own books on top (the
  multi-tenant service) passes ``on_retire``, called once per retired
  manifest.

The store never uses OS threads — replication runs as simulation
processes — and, like the rest of the instrumented stack, emits to the
tracer in the observer slot :mod:`repro.hooks` (``store.put`` /
``store.replicate`` / ``store.fetch`` spans, ``store.corrupt`` /
``store.heal`` / ``store.gc`` points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from .. import hooks
from ..dmtcp.image import CheckpointImage
from ..dmtcp.sink import PutResult
from ..hardware.cluster import Cluster
from ..hardware.storage import Disk, FileSystem, StorageError
from ..memory import CHUNK_BYTES, ZERO_PIECE
from .chunks import digest_bytes
from .manifest import ChunkRef, Manifest, RegionRow, chunk_path, \
    copy_header, region_rows
from .tiers import LocalTier, LustreTier, PartnerTier

__all__ = ["CheckpointStore", "PutResult", "StoreConfig", "StoreError"]

#: every all-zero chunk of a capture is the one ZERO_PIECE: its digest is
#: known before any put
_ZERO_DIGEST = digest_bytes(ZERO_PIECE)


class StoreError(RuntimeError):
    """No live replica could serve a chunk (or an unknown checkpoint)."""


@dataclass(frozen=True)
class StoreConfig:
    """Retention policy."""

    #: checkpoint epochs kept per process (≥1; the latest always survives)
    retention: int = 2


class CheckpointStore:
    """One job's multi-tier checkpoint store (see module docstring)."""

    #: a checkpoint sink (DESIGN.md §15) that lands content-addressed chunks
    chunked = True

    def __init__(self, cluster: Cluster, config: StoreConfig = StoreConfig(),
                 name: str = "store",
                 on_retire: Optional[Callable[[Manifest], None]] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self.name = name
        #: called with each manifest GC or ``delete_procs`` retires, after
        #: its chunks' refcounts dropped
        self.on_retire = on_retire
        self.local = LocalTier(cluster)
        self.partner: Optional[PartnerTier] = \
            PartnerTier(cluster) if len(cluster.nodes) > 1 else None
        self.lustre: Optional[LustreTier] = \
            LustreTier(cluster) if cluster.lustre_fs is not None else None
        #: manifests by process name → absolute epoch
        self._manifests: Dict[str, Dict[int, Manifest]] = {}
        #: tier filesystems a (proc, epoch) manifest landed on
        self._sites: Dict[Tuple[str, int], Set[str]] = {}
        #: per-filesystem chunk refcounts (digest → referencing manifests)
        self._refs: Dict[str, Dict[bytes, int]] = {}
        self._fs_by_name: Dict[str, FileSystem] = {}
        #: epochs whose replication has been scheduled (idempotency)
        self._replicated: Set[int] = set()
        self._live_flows: List = []
        #: staged restarts resume the previous job's epoch numbering:
        #: a fresh coordinator counts from 1 again, so put/replication
        #: epochs are offset past everything ingested by ``stage_from``
        self._epoch_offset = 0
        self.stats = {
            "puts": 0, "chunks_new": 0, "chunks_deduped": 0,
            "bytes_written": 0.0, "replicated_chunks": 0,
            "replicate_skipped": 0, "fetches": 0,
            "hits_local": 0, "hits_partner": 0, "hits_lustre": 0,
            "corrupt_detected": 0, "healed": 0,
            "gc_manifests": 0, "gc_chunks": 0,
        }

    # -- bookkeeping ---------------------------------------------------------

    def _partner_index(self, node_index: int) -> int:
        if self.partner is None:
            return node_index % len(self.cluster.nodes)
        return self.partner.placement(node_index)

    def _register(self, fs: FileSystem, manifest: Manifest) -> None:
        """Record that ``manifest`` (and its chunks' references) landed on
        tier filesystem ``fs``."""
        key = (manifest.proc_name, manifest.epoch)
        self._fs_by_name[fs.name] = fs
        sites = self._sites.setdefault(key, set())
        if fs.name in sites:
            return
        sites.add(fs.name)
        refs = self._refs.setdefault(fs.name, {})
        for digest in manifest.digests():
            refs[digest] = refs.get(digest, 0) + 1
        self._manifests.setdefault(manifest.proc_name, {})[manifest.epoch] \
            = manifest

    def _retire(self, proc_name: str, epoch: int) -> int:
        """Drop one manifest everywhere it landed; deletes chunks whose
        refcount hits zero.  Returns the number of chunk files deleted."""
        manifest = self._manifests.get(proc_name, {}).pop(epoch, None)
        if manifest is None:
            return 0
        deleted = 0
        for fs_name in sorted(self._sites.pop((proc_name, epoch), set())):
            fs = self._fs_by_name[fs_name]
            refs = self._refs.get(fs_name, {})
            for digest in manifest.digests():
                count = refs.get(digest, 0) - 1
                if count <= 0:
                    refs.pop(digest, None)
                    path = chunk_path(digest)
                    if fs.exists(path):
                        fs.delete(path)
                        deleted += 1
                else:
                    refs[digest] = count
            if fs.exists(manifest.path):
                fs.delete(manifest.path)
        if self.on_retire is not None:
            self.on_retire(manifest)
        return deleted

    def holds(self, digest: bytes) -> bool:
        """True while some registered manifest, on any tier, still
        references ``digest``."""
        return any(digest in refs for refs in self._refs.values())

    def delete_procs(self, match: Callable[[str], bool]) -> Tuple[int, int]:
        """Retire every checkpoint of the processes whose name ``match``
        accepts.  Chunks other manifests still reference survive.
        Returns (manifests retired, chunk files deleted)."""
        retired = deleted = 0
        for proc in sorted(p for p in self._manifests if match(p)):
            for epoch in sorted(self._manifests[proc]):
                deleted += self._retire(proc, epoch)
                retired += 1
        return retired, deleted

    def latest_epoch(self, proc_name: str) -> int:
        by_epoch = self._manifests.get(proc_name)
        if not by_epoch:
            raise StoreError(f"{self.name}: no checkpoints for "
                             f"{proc_name!r}")
        return max(by_epoch)

    def manifest(self, proc_name: str, epoch: int) -> Manifest:
        try:
            return self._manifests[proc_name][epoch]
        except KeyError:
            raise StoreError(f"{self.name}: no manifest for "
                             f"{proc_name!r} epoch {epoch}") from None

    # -- put ------------------------------------------------------------------

    @staticmethod
    def chunk_pairs(image: CheckpointImage) -> List[Tuple[ChunkRef, bytes]]:
        """One (chunk reference, piece) pair per piece of every image
        region, reusing the capture's per-chunk fingerprints when it
        recorded them.

        Chunks the capture proved clean arrive with their digests already
        known (carried forward from the previous epoch), so only dirty
        chunks are hashed here; any digests computed for the holes are
        written back into ``image.region_meta`` so the *next* incremental
        capture hands a complete digest list straight back.
        """
        pairs = []
        for region in image.memory_snapshot["regions"]:
            name, addr = region["name"], region["addr"]
            scale, tag, pieces = \
                region["repr_scale"], region["tag"], region["data"]
            meta = image.region_meta.get(name, {})
            generation, ratio = meta.get("generation", 0), meta.get("ratio")
            hashes = meta.get("chunk_hashes")
            if not (isinstance(hashes, list) and len(hashes) == len(pieces)):
                hashes = [None] * len(pieces)
            for i, piece in enumerate(pieces):
                lo = i * CHUNK_BYTES
                if hashes[i] is None:
                    hashes[i] = _ZERO_DIGEST if piece is ZERO_PIECE \
                        else digest_bytes(piece)
                pairs.append((ChunkRef(
                    name, hashes[i], addr + lo, len(piece),
                    scale, tag, generation, ratio, lo), piece))
            if meta:
                meta["chunk_hashes"] = hashes
        return pairs

    @staticmethod
    def _land_or_dedup(fs: FileSystem, path: str,
                       piece: bytes) -> Optional[bytes]:
        """The one rule every put and staging path lands a piece by.
        ``None`` when ``path`` is not on ``fs``: the caller writes
        ``piece`` itself, so the file is the image's object.  Otherwise
        the piece the image keeps: the tier's own object, so image and
        tier share one — unless the tier's copy has rotted, which the
        image must not take on (the next fetch detects and heals it)."""
        if not fs.exists(path):
            return None
        held = fs.load(path)
        return held if held == piece else piece

    @staticmethod
    def _adopt(image: CheckpointImage, kept: List[bytes]) -> None:
        """Point ``image`` at ``kept``, the pieces a put landed or
        deduplicated against (in :meth:`chunk_pairs` order).  A region's
        tuple is rebuilt only when some piece's identity changed, so a
        clean region keeps sharing its tuple with the capture's
        ``prev``."""
        at = 0
        for region in image.memory_snapshot["regions"]:
            pieces = region["data"]
            new = tuple(kept[at: at + len(pieces)])
            at += len(pieces)
            if any(a is not b for a, b in zip(pieces, new)):
                region["data"] = new

    def _manifest_for(self, image: CheckpointImage, rank: int,
                      node_index: int, epoch: int,
                      refs: List[ChunkRef]) -> Manifest:
        # the manifest keeps its own copy of the mutable bookkeeping:
        # whoever later edits the image's (a restart reseeding
        # generations) must not rewrite what is stored
        header = {
            "proc_name": image.proc_name, "pid": image.pid,
            "kernel_version": image.kernel_version,
            "hca_vendor": image.hca_vendor, "gzip": image.gzip,
            "checkpointer": image.checkpointer,
            "raw_logical_bytes": image.raw_logical_bytes,
            "compression_ratio": image.compression_ratio,
            "header_bytes": image.header_bytes,
            "region_meta": image.region_meta,
            "delta_logical_bytes": image.delta_logical_bytes,
            "capture_stats": image.capture_stats,
        }
        return Manifest(
            proc_name=image.proc_name, rank=rank, epoch=epoch,
            node_index=node_index % len(self.cluster.nodes),
            partner_index=self._partner_index(node_index),
            rows=region_rows(refs),
            header=copy_header(header),
            memory_name=image.memory_snapshot["name"],
            next_addr=image.memory_snapshot["next_addr"])

    def land_chunk(self, disk: Disk, ref: ChunkRef, piece: bytes,
                   result: PutResult, stall: float = 1.0) -> Generator:
        """Process generator: write one chunk to ``disk``, or dedup it
        against the copy already there, counted on ``result``.  Returns
        the piece the image keeps."""
        path = chunk_path(ref.digest)
        held = self._land_or_dedup(disk.fs, path, piece)
        if held is not None:
            result.chunks_deduped += 1
            return held
        logical = ref.logical_bytes * stall
        yield from disk.write(path, piece, logical_size=logical)
        result.chunks_new += 1
        result.bytes_written += logical
        result.bytes_real += float(ref.size)
        return piece

    def commit(self, disk: Disk, rank: int, node_index: int, epoch: int,
               image: CheckpointImage,
               pairs: List[Tuple[ChunkRef, bytes]], kept: List[bytes],
               result: PutResult) -> Generator:
        """Process generator: point ``image`` at ``kept`` (the pieces
        :meth:`land_chunk` returned, in ``pairs`` order), write its
        manifest to ``disk`` and register it.  Returns the manifest."""
        self._adopt(image, kept)
        manifest = self._manifest_for(image, rank, node_index, epoch,
                                      [ref for ref, _piece in pairs])
        yield from disk.write(manifest.path, manifest.blob,
                              logical_size=image.header_bytes)
        result.bytes_written += image.header_bytes
        result.manifest_path = manifest.path
        self._register(disk.fs, manifest)
        return manifest

    def put_image(self, rank: int, node_index: int, epoch: int,
                  image: CheckpointImage,
                  stall: float = 1.0) -> Generator:
        """Process generator: land ``image`` on ``node_index``'s local
        tier.  ``stall`` is the caller's gzip pipeline stall factor — new
        chunks stream through the same compressor the monolithic write
        did, so their charged bytes stall identically.  Returns a
        :class:`PutResult`.
        """
        epoch = epoch + self._epoch_offset
        tracer = hooks.tracer
        disk = self.local.replica_disk(node_index)
        result = PutResult(epoch=epoch, manifest_path="")
        span = None if tracer is None else tracer.begin(
            "store.put", image.proc_name, self.env.now, epoch=epoch,
            node=node_index, regions=len(image.memory_snapshot["regions"]))
        pairs = self.chunk_pairs(image)
        kept = []
        for ref, piece in pairs:
            kept.append((yield from self.land_chunk(
                disk, ref, piece, result, stall)))
        yield from self.commit(disk, rank, node_index, epoch, image, pairs,
                               kept, result)
        self.stats["puts"] += 1
        self.stats["chunks_new"] += result.chunks_new
        self.stats["chunks_deduped"] += result.chunks_deduped
        self.stats["bytes_written"] += result.bytes_written
        if tracer is not None:
            tracer.metrics.counter("store.chunks_new").inc(
                result.chunks_new)
            tracer.metrics.counter("store.chunks_deduped").inc(
                result.chunks_deduped)
            tracer.end(span, self.env.now, chunks_new=result.chunks_new,
                       chunks_deduped=result.chunks_deduped,
                       bytes_written=result.bytes_written)
        return result

    # -- replication -----------------------------------------------------------

    def claim_epoch(self, epoch: int) -> List[Manifest]:
        """Mark absolute ``epoch`` as scheduled for replication.  Returns
        its manifests, ordered by process name, on the first claim, and
        ``[]`` on every later one."""
        if epoch in self._replicated:
            return []
        self._replicated.add(epoch)
        return [by_epoch[epoch]
                for _name, by_epoch in sorted(self._manifests.items())
                if epoch in by_epoch]

    def schedule_replication(self, epoch: int) -> None:
        """Kick off async replication of every manifest at ``epoch`` (the
        coordinator calls this as each checkpoint epoch completes).
        Idempotent per epoch; the copies run as a background sim process
        while the application resumes."""
        epoch = epoch + self._epoch_offset
        manifests = self.claim_epoch(epoch)
        if not manifests:
            return
        flow = self.env.process(self.replicate(epoch, manifests),
                                name=f"{self.name}.replicate.e{epoch}")
        self._live_flows.append(flow)

    def _replication_targets(self, manifest: Manifest):
        targets = []
        if self.partner is not None \
                and not self.partner.degenerate(manifest.node_index):
            targets.append(self.partner)
        if self.lustre is not None:
            targets.append(self.lustre)
        return targets

    def replicate(self, epoch: int, manifests: List[Manifest]) -> Generator:
        """Process generator: copy ``manifests``' missing chunks and the
        manifests themselves to the partner and Lustre tiers, then run
        retention GC."""
        tracer = hooks.tracer
        span = None if tracer is None else tracer.begin(
            "store.replicate", self.name, self.env.now, epoch=epoch,
            manifests=len(manifests))
        copied = skipped = 0
        for manifest in manifests:
            src_index = manifest.node_index
            src_disk = self.local.replica_disk(src_index)
            src_fs = src_disk.fs
            # paths once per manifest, not once per target tier; a
            # chunk's ref only once it is copied
            row_paths = [(row, [chunk_path(d) for d in row.digests])
                         for row in manifest.rows]
            for tier in self._replication_targets(manifest):
                if not tier.alive(src_index):
                    skipped += manifest.n_chunks
                    continue
                dst_fs = tier.replica_fs(src_index)
                dst_disk = tier.replica_disk(src_index, via_index=src_index)
                for row, paths in row_paths:
                    for i, path in enumerate(paths):
                        if dst_fs.exists(path):
                            continue  # cross-rank / cross-epoch dedup
                        data = None
                        if self.local.alive(src_index) \
                                and src_fs.exists(path):
                            try:
                                data = yield from src_disk.read(path)
                            except StorageError:
                                data = None  # GC raced the read
                        if data is None or not tier.alive(src_index):
                            skipped += 1
                            continue
                        try:
                            yield from dst_disk.write(
                                path, data,
                                logical_size=row.ref(i).logical_bytes)
                        except StorageError:
                            skipped += 1  # replica tier out of quota
                            continue
                        copied += 1
                if dst_fs.exists(manifest.path):
                    self._register(dst_fs, manifest)
                    continue
                try:
                    yield from dst_disk.write(
                        manifest.path, manifest.blob,
                        logical_size=float(
                            manifest.header.get("header_bytes", 0.0)))
                except StorageError:
                    skipped += 1
                    continue
                self._register(dst_fs, manifest)
        self.stats["replicated_chunks"] += copied
        self.stats["replicate_skipped"] += skipped
        gc_manifests, gc_chunks = self.collect_garbage()
        if tracer is not None:
            tracer.end(span, self.env.now, copied=copied, skipped=skipped,
                       gc_manifests=gc_manifests, gc_chunks=gc_chunks)

    def drain_replication(self) -> Generator:
        """Process generator: wait for every in-flight replication flow."""
        flows = [f for f in self._live_flows if f.is_alive]
        self._live_flows = []
        if flows:
            yield self.env.all_of(flows)

    def stop(self) -> None:
        """Kill in-flight replication (the job died under the store)."""
        for flow in self._live_flows:
            if flow.is_alive:
                flow.kill()
        self._live_flows.clear()

    # -- fetch -----------------------------------------------------------------

    def _fetch_order(self, manifest: Manifest, via_index: int):
        """(tier kind, fs, disk, alive) candidates, cheapest-first, for a
        restart running on ``via_index``.  Placement is fixed per image,
        so a whole-image fetch resolves it once; ``alive`` is a callable
        because liveness is not — a failure landing between two chunks
        must still redirect the next one."""
        nodes = self.cluster.nodes
        home = nodes[self.local.placement(manifest.node_index)]
        order = [("local", home.local_disk.fs, home.local_disk,
                  lambda: not home.failed)]
        if self.partner is not None:
            buddy = nodes[manifest.partner_index % len(nodes)]
            if buddy is not home:
                order.append(("partner", buddy.local_disk.fs,
                              buddy.local_disk, lambda: not buddy.failed))
        lustre = self.lustre
        if lustre is not None:
            via = nodes[via_index % len(nodes)]
            order.append(("lustre", lustre.replica_fs(via_index),
                          lustre.replica_disk(manifest.node_index,
                                              via_index=via_index),
                          lambda: not via.failed
                          and lustre.alive(via_index)))
        return order

    def _no_replica(self, manifest: Manifest, ref: ChunkRef) -> StoreError:
        return StoreError(
            f"{self.name}: no live replica of chunk "
            f"{ref.digest.hex()} ({manifest.proc_name}/{ref.region_name}, "
            f"epoch {manifest.epoch})")

    def fetch_chunk(self, manifest: Manifest, ref: ChunkRef,
                    via_node_index: int = 0) -> Generator:
        """Process generator: resolve *one* chunk from the cheapest live
        tier, charging the read to that tier's disk.  Digest-verified:
        a corrupt copy is skipped, served from the next replica, and
        healed in place.  Returns ``(data, tier_kind)``; raises
        :class:`StoreError` when no live tier holds a valid copy.  This is the unit of work the restart
        fetch and the post-copy pager/prefetcher share."""
        return (yield from self._fetch_one(
            self._fetch_order(manifest, via_node_index), manifest, ref))

    def _fetch_one(self, order, manifest: Manifest,
                   ref: ChunkRef) -> Generator:
        """:meth:`fetch_chunk`'s body, over an already-built ``order``."""
        tracer = hooks.tracer
        proc_name = manifest.proc_name
        epoch = manifest.epoch
        path = chunk_path(ref.digest)
        corrupt_sites = []
        for kind, fs, disk, alive in order:
            if not alive() or not fs.exists(path):
                continue
            blob = yield from disk.read(path)
            if digest_bytes(blob) != ref.digest:
                # silent corruption caught by the content address
                self.stats["corrupt_detected"] += 1
                corrupt_sites.append(fs)
                if tracer is not None:
                    tracer.emit("store.corrupt", proc_name,
                                self.env.now, tier=kind,
                                region=ref.region_name, epoch=epoch)
                continue
            for site in corrupt_sites:
                # heal: overwrite the rotten copy with the verified bytes
                site.store(path, blob, ref.logical_bytes)
                self.stats["healed"] += 1
                if tracer is not None:
                    tracer.emit("store.heal", proc_name, self.env.now,
                                fs=site.name, region=ref.region_name,
                                epoch=epoch)
            self.stats[f"hits_{kind}"] += 1
            if tracer is not None:
                tracer.metrics.counter(f"store.fetch.{kind}").inc()
            return blob, kind
        raise self._no_replica(manifest, ref)

    @staticmethod
    def _region(row: RegionRow, pieces: List[bytes]) -> dict:
        """The region snapshot dict of ``row`` holding ``pieces`` (the
        tier's own objects, in offset order)."""
        return {"name": row.region_name, "addr": row.addr,
                "size": row.size, "repr_scale": row.repr_scale,
                "tag": row.tag, "data": tuple(pieces)}

    def fetch_image(self, proc_name: str, epoch: Optional[int] = None,
                    via_node_index: int = 0) -> Generator:
        """Process generator: reassemble a bit-identical
        :class:`CheckpointImage`, resolving each chunk as
        :meth:`fetch_chunk` does (cheapest live tier, digest-verified,
        heal-on-corrupt) over one tier order built for the whole image.
        Raises :class:`StoreError` when no live tier holds a valid copy
        of some chunk."""
        if epoch is None:
            epoch = self.latest_epoch(proc_name)
        manifest = self.manifest(proc_name, epoch)
        tracer = hooks.tracer
        hits = {"local": 0, "partner": 0, "lustre": 0}
        span = None if tracer is None else tracer.begin(
            "store.fetch", proc_name, self.env.now, epoch=epoch,
            via=via_node_index, chunks=manifest.n_chunks)
        order = self._fetch_order(manifest, via_node_index)
        regions = []
        for row in manifest.rows:
            pieces = []
            for ref in row.refs():
                data, kind = yield from self._fetch_one(order, manifest, ref)
                hits[kind] += 1
                pieces.append(data)
            regions.append(self._region(row, pieces))
        self.stats["fetches"] += 1
        if tracer is not None:
            tracer.end(span, self.env.now, hits_local=hits["local"],
                       hits_partner=hits["partner"],
                       hits_lustre=hits["lustre"])
        snap = {"name": manifest.memory_name,
                "next_addr": manifest.next_addr, "regions": regions}
        return CheckpointImage(memory_snapshot=snap,
                               **manifest.image_header())

    def materialize_image(self, proc_name: str,
                          epoch: Optional[int] = None,
                          via_node_index: int = 0) -> CheckpointImage:
        """Zero-time analogue of :meth:`fetch_image` for the post-copy
        split: the restarted process needs every region's *bytes* up
        front (so checksums stay bit-identical), while the *time* of
        each read is charged lazily when the pager services the first
        touch (:meth:`fetch_chunk`).  Digest-verified like any fetch;
        raises :class:`StoreError` when no live tier holds a valid copy
        of some chunk."""
        if epoch is None:
            epoch = self.latest_epoch(proc_name)
        manifest = self.manifest(proc_name, epoch)
        order = self._fetch_order(manifest, via_node_index)
        regions = []
        for row in manifest.rows:
            pieces = []
            for ref in row.refs():
                path = chunk_path(ref.digest)
                for _kind, fs, _disk, alive in order:
                    if not alive() or not fs.exists(path):
                        continue
                    blob = fs.load(path)
                    if digest_bytes(blob) == ref.digest:
                        pieces.append(blob)
                        break
                else:
                    raise self._no_replica(manifest, ref)
            regions.append(self._region(row, pieces))
        snap = {"name": manifest.memory_name,
                "next_addr": manifest.next_addr, "regions": regions}
        return CheckpointImage(memory_snapshot=snap,
                               **manifest.image_header())

    # -- GC --------------------------------------------------------------------

    def collect_garbage(self) -> Tuple[int, int]:
        """Retire epochs beyond the retention window (newest ``config.
        retention`` per process; the latest always survives).  Returns
        (manifests retired, chunk files deleted)."""
        retired = deleted = 0
        keep = max(1, self.config.retention)
        for proc_name in sorted(self._manifests):
            epochs = sorted(self._manifests[proc_name])
            for epoch in epochs[:-keep]:
                deleted += self._retire(proc_name, epoch)
                retired += 1
        self.stats["gc_manifests"] += retired
        self.stats["gc_chunks"] += deleted
        if retired and hooks.tracer is not None:
            hooks.tracer.emit("store.gc", self.name, self.env.now,
                              manifests=retired, chunks=deleted)
        return retired, deleted

    # -- staging (offline, like FileSink.stage_from) ---------------------------

    def ingest_record(self, record, node_map: Optional[Dict[int, int]]
                      = None, tiers: Optional[Tuple[str, ...]] = None
                      ) -> Manifest:
        """Offline scp analogue: place one checkpoint record's chunks and
        manifest on every tier of this store's cluster (no sim time; the
        §6.4 staging step is not part of any measured interval).
        ``tiers`` restricts placement to a subset of ``("local",
        "partner", "lustre")`` — e.g. lustre-only staging for post-copy
        restarts that should fault everything across the shared tier."""
        image = record.image_with_bytes()
        epoch = (getattr(record, "epoch", 0) or 1)
        dst_index = (node_map or {}).get(
            record.node_index, record.node_index % len(self.cluster.nodes))
        pairs = self.chunk_pairs(image)
        manifest = self._manifest_for(image, record.rank, dst_index, epoch,
                                      [ref for ref, _piece in pairs])
        wanted = tiers if tiers is not None \
            else ("local", "partner", "lustre")
        tier_fss = []
        if "local" in wanted:
            tier_fss.append(self.local.replica_fs(dst_index))
        if "partner" in wanted and self.partner is not None \
                and not self.partner.degenerate(dst_index):
            tier_fss.append(self.partner.replica_fs(dst_index))
        if "lustre" in wanted and self.lustre is not None:
            tier_fss.append(self.lustre.replica_fs(dst_index))
        paths = [chunk_path(ref.digest) for ref, _piece in pairs]
        kept = [piece for _ref, piece in pairs]
        for fs in tier_fss:
            # what one tier holds (or was just given) is what the next
            # tier gets: one object on every tier
            for i, ((ref, _piece), path) in enumerate(zip(pairs, paths)):
                held = self._land_or_dedup(fs, path, kept[i])
                if held is None:
                    fs.store(path, kept[i], ref.logical_bytes)
                else:
                    kept[i] = held
            fs.store(manifest.path, manifest.blob, image.header_bytes)
            self._register(fs, manifest)
        self._adopt(image, kept)
        self._replicated.add(epoch)
        self._epoch_offset = max(self._epoch_offset, epoch)
        return manifest

    def stage_from(self, ckpt_set, node_map: Optional[Dict[int, int]]
                   = None, tiers: Optional[Tuple[str, ...]] = None) -> None:
        """Stage a whole :class:`~repro.dmtcp.launcher.CheckpointSet` onto
        this store's cluster, fully replicated (or onto the ``tiers``
        subset).  Future put/replication epochs resume past the staged
        numbering."""
        for record in ckpt_set.records:
            self.ingest_record(record, node_map, tiers=tiers)
