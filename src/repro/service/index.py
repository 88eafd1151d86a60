"""Sharded content-addressed chunk index for the checkpoint service.

The per-run :class:`~repro.store.CheckpointStore` resolves "is this
chunk already stored?" with a single ``fs.exists`` — fine for one job,
but a shared service takes concurrent puts from hundreds of jobs, and a
single global critical section around the exists/write pair would
serialize the whole fleet.  :class:`ShardedChunkIndex` partitions the
digest space into ``n_shards`` shards, each with its own simulated lock
(:class:`~repro.sim.Resource`) and counters.  Two puts whose chunks hash
into different shards proceed fully in parallel; two puts racing on the
*same* digest serialize on one shard and the loser sees the winner's
chunk already present (a dedup hit instead of a double write).

Shards are picked from the first 8 bytes of the blake2b digest, so the
map is uniform, stateless, and identical across runs — determinism
comes for free from the content addresses themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from ..sim import Environment, Resource

__all__ = ["ShardedChunkIndex", "ShardStats"]


@dataclass
class ShardStats:
    """Per-shard load counters (the shard-balance evidence)."""

    chunks: int = 0           # distinct digests currently indexed
    bytes_logical: float = 0.0
    new: int = 0              # chunk writes this shard admitted
    dedup_hits: int = 0       # puts resolved without a write
    acquisitions: int = 0     # lock acquisitions
    wait_seconds: float = 0.0  # sim seconds puts spent queued on the lock


class _Shard:
    __slots__ = ("lock", "stats", "digests")

    def __init__(self, env: Environment):
        self.lock = Resource(env, capacity=1)
        self.stats = ShardStats()
        #: indexed digest → the logical bytes ``note_new`` counted for it
        self.digests: Dict[bytes, float] = {}


class ShardedChunkIndex:
    """Digest → shard map with per-shard locks and occupancy stats."""

    def __init__(self, env: Environment, n_shards: int = 16):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.env = env
        self.n_shards = int(n_shards)
        self._shards = [_Shard(env) for _ in range(self.n_shards)]

    def shard_of(self, digest: bytes) -> int:
        return int.from_bytes(digest[:8], "big") % self.n_shards

    def acquire(self, shard_id: int) -> Generator:
        """Process generator: take ``shard_id``'s lock (FIFO), counting
        queueing time against the shard.

        Kill-safe: the service outlives any one job, so a put killed
        while queued here (node failure, preemption teardown) must not
        leak its claim — on ``GeneratorExit`` a granted slot is released
        and a still-queued request is cancelled (``release`` skips
        triggered waiters)."""
        shard = self._shards[shard_id]
        t0 = self.env.now
        req = shard.lock.request()
        if not req.triggered:
            try:
                yield req
            except GeneratorExit:
                if req.triggered:
                    shard.lock.release()
                else:
                    req.succeed()  # cancel our queued claim
                raise
        shard.stats.acquisitions += 1
        shard.stats.wait_seconds += self.env.now - t0

    def release(self, shard_id: int) -> None:
        self._shards[shard_id].lock.release()

    def note_new(self, shard_id: int, digest: bytes,
                 logical_bytes: float) -> None:
        shard = self._shards[shard_id]
        if digest not in shard.digests:
            shard.digests[digest] = logical_bytes
            shard.stats.chunks += 1
            shard.stats.bytes_logical += logical_bytes
        shard.stats.new += 1

    def note_dedup(self, shard_id: int) -> None:
        self._shards[shard_id].stats.dedup_hits += 1

    def discard(self, digest: bytes) -> None:
        """GC deleted the last replica of ``digest``: give back the
        chunk and the logical bytes it was indexed with."""
        shard = self._shards[self.shard_of(digest)]
        logical_bytes = shard.digests.pop(digest, None)
        if logical_bytes is not None:
            shard.stats.chunks -= 1
            shard.stats.bytes_logical -= logical_bytes

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._shards[self.shard_of(digest)].digests

    def summary(self) -> Dict[str, float]:
        """Aggregate + balance picture for reports and benchmarks."""
        counts = [s.stats.chunks for s in self._shards]
        total = sum(counts)
        mean = total / self.n_shards if self.n_shards else 0.0
        return {
            "shards": self.n_shards,
            "chunks": total,
            "new": sum(s.stats.new for s in self._shards),
            "dedup_hits": sum(s.stats.dedup_hits for s in self._shards),
            "bytes_logical": sum(s.stats.bytes_logical
                                 for s in self._shards),
            "max_shard_chunks": max(counts) if counts else 0,
            "mean_shard_chunks": mean,
            "lock_wait_seconds": sum(s.stats.wait_seconds
                                     for s in self._shards),
        }
