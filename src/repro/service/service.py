"""The multi-tenant checkpoint service: a shared, long-lived store.

:class:`CheckpointService` holds one :class:`~repro.store.CheckpointStore`
(``service.store``) and puts a policy layer in front of it, so many
concurrent jobs checkpoint into one store (the proxy-based DMTCP
follow-on's service boundary).  It reaches the store only through its
public methods; what it adds is its own:

* **one content-addressed namespace** — every tenant's chunks land in
  the same digest-keyed space on the service cluster's tiers, so two
  jobs checkpointing the same dataset store its chunks once.  Puts go
  through a :class:`~.index.ShardedChunkIndex`: per-shard locks let
  unrelated puts proceed in parallel while same-digest races serialize
  and dedup.
* **admission first** — every put clears the
  :class:`~.admission.AdmissionController` (tenant quota + global
  in-flight backpressure) *before* any byte is written; a quota
  rejection is soft (``PutResult.rejected``) so the checkpoint protocol
  never wedges.
* **tenant-safe GC** — the store's per-filesystem refcounts already
  make chunk deletion safe across manifests; the service layers tenant
  ownership on top (the store's ``on_retire`` callback) so retiring a
  manifest credits the right tenant's quota, and a chunk shared by two
  tenants survives either one's retention GC or full job deletion.
* **fair-share replication** — per-tenant replication queues drained
  round-robin in bounded batches, so one chatty tenant cannot starve
  the others' partner/Lustre copies.

Jobs talk to the service through a :class:`TenantStoreClient`, a
checkpoint sink (DESIGN.md §15) for ``dmtcp_launch`` / ``dmtcp_restart``
/ ``RecoveryManager``.  Each client owns a private epoch base so
many coordinators (each counting epochs from 1) never collide in the
shared namespace; record epochs are absolute and pass through fetches
unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Tuple

from .. import hooks
from ..hardware.cluster import Cluster
from ..hardware.storage import QuotaExceededError
from ..store.manifest import Manifest
from ..store.store import CheckpointStore, PutResult, StoreConfig
from .admission import AdmissionController, AdmissionRejected
from .index import ShardedChunkIndex

__all__ = ["CheckpointService", "TenantStoreClient"]

#: spacing between per-client epoch bases: each launch's coordinator
#: counts 1, 2, 3… privately, so bases this far apart never collide
EPOCH_BASE_STEP = 1_000_000
#: manifests one fair-share replication batch copies before the drainer
#: moves on to the next tenant
REPL_BATCH_MANIFESTS = 8


class CheckpointService:
    """A shared store serving many tenants (see module docstring)."""

    def __init__(self, cluster: Cluster, config: StoreConfig = StoreConfig(),
                 name: str = "service",
                 n_shards: int = 16,
                 quotas: Optional[Dict[str, Optional[float]]] = None,
                 max_inflight_bytes: Optional[float] = None):
        self.env = cluster.env
        self.name = name
        self.store = CheckpointStore(cluster, config, name,
                                     on_retire=self._on_retire)
        self.index = ShardedChunkIndex(cluster.env, n_shards)
        self.admission = AdmissionController(
            cluster.env, quotas=quotas,
            max_inflight_bytes=max_inflight_bytes)
        #: manifest ownership: (proc, epoch) → (tenant, referenced bytes)
        self._owners: Dict[Tuple[str, int], Tuple[str, float]] = {}
        #: per-tenant replication queues, drained round-robin
        self._pending_repl: Dict[str, Deque[Tuple[int, List[Manifest]]]] = {}
        self._repl_drainer = None
        self._next_base = 0
        #: sim-seconds each successful put took (p50/p99 latency source)
        self.put_latencies: List[float] = []
        self.stats = {
            "puts": 0, "puts_rejected": 0, "chunks_new": 0,
            "chunks_deduped": 0, "bytes_written": 0.0,
            #: what a dedup-free store would have written for the same
            #: admitted traffic (the dedup-ratio denominator)
            "bytes_naive": 0.0,
        }

    # -- clients --------------------------------------------------------------

    def client(self, tenant: str, job: str) -> "TenantStoreClient":
        """A fresh store facade for one (tenant, job) launch generation.
        Each call allocates a new epoch base, so a restarted job's
        coordinator (counting from 1 again) lands on fresh epochs."""
        self._next_base += EPOCH_BASE_STEP
        return TenantStoreClient(self, tenant, job, self._next_base)

    # -- put ------------------------------------------------------------------

    def put_for(self, tenant: str, job: str, rank: int, node_index: int,
                epoch: int, image, stall: float = 1.0) -> Generator:
        """Process generator: the multi-tenant ``put_image``.  ``epoch``
        arrives already absolute (client base applied).  Admission runs
        before any write; chunk writes serialize per index shard."""
        tracer = hooks.tracer
        store = self.store
        disk = store.local.replica_disk(node_index)
        pairs = store.chunk_pairs(image)
        referenced = sum(ref.logical_bytes for ref, _p in pairs) * stall \
            + image.header_bytes
        result = PutResult(epoch=epoch, manifest_path="")
        try:
            yield from self.admission.admit(
                tenant, referenced, proc=image.proc_name, job=job)
        except AdmissionRejected:
            self.stats["puts_rejected"] += 1
            result.rejected = True
            return result
        self.stats["bytes_naive"] += referenced
        span = None if tracer is None else tracer.begin(
            "service.put", image.proc_name, self.env.now, tenant=tenant,
            job=job, epoch=epoch, node=node_index, bytes=referenced)
        t0 = self.env.now
        stored = False
        try:
            kept = [piece for _ref, piece in pairs]
            by_shard: Dict[int, list] = {}
            for i, (ref, _piece) in enumerate(pairs):
                by_shard.setdefault(
                    self.index.shard_of(ref.digest), []).append((i, ref))
            for shard_id in sorted(by_shard):
                # one shard at a time, never nested: no lock-order cycles
                yield from self.index.acquire(shard_id)
                try:
                    for i, ref in by_shard[shard_id]:
                        landed = result.chunks_new
                        kept[i] = yield from store.land_chunk(
                            disk, ref, kept[i], result, stall)
                        if result.chunks_new > landed:
                            self.index.note_new(shard_id, ref.digest,
                                                ref.logical_bytes * stall)
                        else:
                            # previous epoch, another rank, or another
                            # *job* already landed these bytes
                            self.index.note_dedup(shard_id)
                finally:
                    self.index.release(shard_id)
            manifest = yield from store.commit(
                disk, rank, node_index, epoch, image, pairs, kept, result)
            self._owners[(manifest.proc_name, epoch)] = (tenant, referenced)
            stored = True
        except QuotaExceededError as exc:
            # tier saturation below the tenant quota: tag and surface
            raise exc.with_tenant(tenant)
        finally:
            self.admission.release(referenced)
            if stored:
                self.admission.on_stored(tenant, referenced)
                self.put_latencies.append(self.env.now - t0)
            else:
                self.admission.on_failed(tenant, referenced, job=job)
            self.stats["puts"] += 1
            self.stats["chunks_new"] += result.chunks_new
            self.stats["chunks_deduped"] += result.chunks_deduped
            self.stats["bytes_written"] += result.bytes_written
            if tracer is not None:
                tracer.end(span, self.env.now, tenant=tenant,
                           chunks_new=result.chunks_new,
                           chunks_deduped=result.chunks_deduped,
                           bytes_written=result.bytes_written,
                           stored=stored)
        return result

    # -- fair-share replication ------------------------------------------------

    def schedule_replication_for(self, tenant: str, epoch: int) -> None:
        """Queue ``epoch``'s manifests on ``tenant``'s replication lane
        (idempotent per epoch, like the store's scheduler) and make sure
        the round-robin drainer is running."""
        manifests = self.store.claim_epoch(epoch)
        if not manifests:
            return
        self._pending_repl.setdefault(tenant, deque()).append(
            (epoch, manifests))
        self._kick_replicator()

    def _kick_replicator(self) -> None:
        if self._repl_drainer is None or not self._repl_drainer.is_alive:
            self._repl_drainer = self.env.process(
                self._drain_pending(), name=f"{self.name}.replicate")

    @staticmethod
    def _take_batch(queue: Deque[Tuple[int, List[Manifest]]]
                    ) -> Tuple[int, List[Manifest]]:
        batch: List[Manifest] = []
        epoch0 = queue[0][0]
        while queue and len(batch) < REPL_BATCH_MANIFESTS:
            epoch, manifests = queue[0]
            room = REPL_BATCH_MANIFESTS - len(batch)
            batch.extend(manifests[:room])
            if room >= len(manifests):
                queue.popleft()
            else:
                queue[0] = (epoch, manifests[room:])
        return epoch0, batch

    def _drain_pending(self) -> Generator:
        tracer = hooks.tracer
        while True:
            tenants = [t for t in sorted(self._pending_repl)
                       if self._pending_repl[t]]
            if not tenants:
                break
            for tenant in tenants:
                queue = self._pending_repl.get(tenant)
                if not queue:
                    continue
                epoch0, batch = self._take_batch(queue)
                if tracer is not None:
                    tracer.emit("service.replicate.batch", tenant,
                                self.env.now, tenant=tenant,
                                manifests=len(batch))
                yield from self.store.replicate(epoch0, batch)
        for tenant in [t for t in self._pending_repl
                       if not self._pending_repl[t]]:
            del self._pending_repl[tenant]

    # -- GC with tenant credit -------------------------------------------------

    def _on_retire(self, manifest: Manifest) -> None:
        """The store retired ``manifest``: credit its owner's quota and
        drop index entries for chunks no manifest references any more."""
        owner = self._owners.pop((manifest.proc_name, manifest.epoch), None)
        if owner is not None:
            self.admission.reclaim(owner[0], owner[1])
        for digest in set(manifest.digests()):
            if not self.store.holds(digest):
                self.index.discard(digest)

    def delete_job(self, job: str) -> Tuple[int, int]:
        """Drop every checkpoint of ``job``'s processes (the tenant tore
        the job down).  Chunks another tenant's manifests still reference
        survive — refcounts, not ownership, decide deletion."""
        # proc names are "<job>.r<rank>": exact-prefix match only, so
        # "jobA" never takes down "jobAB"
        retired, deleted = self.store.delete_procs(
            lambda proc: proc == job or proc.startswith(job + "."))
        if retired and hooks.tracer is not None:
            hooks.tracer.emit("service.delete", job, self.env.now,
                              job=job, manifests=retired, chunks=deleted)
        return retired, deleted

    # -- staging ---------------------------------------------------------------

    def ingest_for(self, tenant: str, record, node_map=None,
                   tiers=None) -> Manifest:
        manifest = self.store.ingest_record(record, node_map, tiers)
        key = (manifest.proc_name, manifest.epoch)
        if key not in self._owners:
            referenced = manifest.logical_bytes \
                + float(manifest.header.get("header_bytes", 0.0))
            self._owners[key] = (tenant, referenced)
            # staged bytes hold quota but bypass the admission ledger
            # (offline staging is not put traffic)
            self.admission.tenant(tenant).used_bytes += referenced
        for ref in manifest.chunks:
            if ref.digest not in self.index:
                self.index.note_new(self.index.shard_of(ref.digest),
                                    ref.digest, ref.logical_bytes)
        return manifest

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> Generator:
        """Process generator: wait out the replication backlog (all
        tenants' queues plus any in-flight batch)."""
        while True:
            if self._repl_drainer is None or not self._repl_drainer.is_alive:
                if not any(self._pending_repl.values()):
                    break
                self._kick_replicator()
            yield self.env.all_of([self._repl_drainer])

    def shutdown(self) -> Generator:
        """Process generator: drain replication, then publish the final
        per-tenant conservation ledger (``service.account`` events)."""
        yield from self.drain()
        ledger = self.admission.account()
        if hooks.tracer is not None:
            hooks.tracer.emit("service.stats", self.name, self.env.now,
                              **{k: v for k, v in self.summary().items()
                                 if not isinstance(v, dict)})
        return ledger

    def put_latency_quantiles(self) -> Dict[str, float]:
        lats = sorted(self.put_latencies)
        if not lats:
            return {"p50": 0.0, "p99": 0.0, "mean": 0.0, "count": 0}
        def q(p: float) -> float:
            return lats[min(len(lats) - 1, int(p * (len(lats) - 1) + 0.5))]
        return {"p50": q(0.50), "p99": q(0.99),
                "mean": sum(lats) / len(lats), "count": len(lats)}

    def dedup_ratio(self) -> float:
        """Physical bytes written / what a dedup-free store would have
        written for the same admitted traffic (lower is better)."""
        naive = self.stats["bytes_naive"]
        return self.stats["bytes_written"] / naive if naive > 0 else 1.0

    def summary(self) -> Dict[str, object]:
        store_stats = self.store.stats
        return {
            "puts": self.stats["puts"],
            "puts_rejected": self.stats["puts_rejected"],
            "chunks_new": self.stats["chunks_new"],
            "chunks_deduped": self.stats["chunks_deduped"],
            "bytes_written": self.stats["bytes_written"],
            "bytes_naive": self.stats["bytes_naive"],
            "dedup_ratio": self.dedup_ratio(),
            "replicated_chunks": store_stats["replicated_chunks"],
            "gc_manifests": store_stats["gc_manifests"],
            "gc_chunks": store_stats["gc_chunks"],
            "inflight_bytes": self.admission.inflight_bytes,
            "index": self.index.summary(),
            "put_latency": self.put_latency_quantiles(),
        }


class TenantStoreClient:
    """One (tenant, job) generation's view of the service — the
    checkpoint sink handed to ``dmtcp_launch(sink=...)`` /
    ``dmtcp_restart(sink=...)``.

    Translates the coordinator's private epochs (1, 2, 3…) into the
    shared namespace by adding this client's base on the put/replicate
    path; fetch epochs are already absolute (``CheckpointRecord.epoch``)
    and pass through unchanged — the same convention the per-run store
    uses for the epochs it resumes past after staging.
    """

    chunked = True

    def __init__(self, service: CheckpointService, tenant: str, job: str,
                 epoch_base: int):
        self.service = service
        self.tenant = tenant
        self.job = job
        self.epoch_base = int(epoch_base)

    # the checkpoint-sink surface ----------------------------------------------

    def put_image(self, rank: int, node_index: int, epoch: int,
                  image, stall: float = 1.0) -> Generator:
        return self.service.put_for(
            self.tenant, self.job, rank, node_index,
            self.epoch_base + epoch, image, stall=stall)

    def schedule_replication(self, epoch: int) -> None:
        self.service.schedule_replication_for(
            self.tenant, self.epoch_base + epoch)

    def fetch_image(self, proc_name: str, epoch: Optional[int] = None,
                    via_node_index: int = 0) -> Generator:
        return self.service.store.fetch_image(
            proc_name, epoch=epoch, via_node_index=via_node_index)

    def stage_from(self, ckpt_set, node_map=None, tiers=None) -> None:
        for record in ckpt_set.records:
            self.service.ingest_for(self.tenant, record, node_map,
                                    tiers=tiers)

    def stop(self) -> None:
        """Deliberate no-op: the per-run store kills replication because
        its flows target a dead cluster, but the *service* cluster
        outlives any one job — other tenants' copies must keep flowing."""
