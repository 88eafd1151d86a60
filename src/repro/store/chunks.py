"""The content-addressed chunk pool.

A :class:`ChunkStore` is a thin digest-keyed namespace over one tier's
:class:`~repro.hardware.storage.FileSystem`: chunk bytes live at
``/store/chunks/<digest-hex>``, so two ranks (or two checkpoint epochs)
whose regions hold identical bytes share one file.  Chunk digests reuse
the incremental pipeline's per-chunk fingerprint — ``blake2b`` with a
16-byte digest over one :data:`~repro.memory.CHUNK_BYTES` slice, the
same function :meth:`repro.memory.address_space.Region.chunk_hashes`
computes — so a chunk the capture already proved clean addresses its
chunk file without rehashing.

The ChunkStore itself is *offline* bookkeeping (existence checks,
verification, staging); timed reads and writes go through the owning
tier's :class:`~repro.hardware.storage.Disk` so head contention and
bandwidth are charged where the bytes physically move.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from ..hardware.storage import FileSystem
from .manifest import CHUNK_PREFIX, chunk_path

__all__ = ["ChunkStore", "digest_bytes"]

_DIGEST_SIZE = 16  # matches Region.chunk_hashes()


def digest_bytes(data: bytes) -> bytes:
    """The chunk key: blake2b-16 of the raw bytes (same fingerprint the
    incremental capture records in ``region_meta``)."""
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


class ChunkStore:
    """Digest-keyed chunk namespace over one filesystem."""

    def __init__(self, fs: FileSystem):
        self.fs = fs

    def has(self, digest: bytes) -> bool:
        return self.fs.exists(chunk_path(digest))

    def put(self, digest: bytes, data: bytes, logical_size: float) -> bool:
        """Store a chunk offline (staging / healing — no sim time).
        Returns False when the digest was already present (dedup hit)."""
        path = chunk_path(digest)
        if self.fs.exists(path):
            return False
        self.fs.store(path, data, logical_size)
        return True

    def get(self, digest: bytes) -> bytes:
        return self.fs.load(chunk_path(digest))

    def delete(self, digest: bytes) -> None:
        path = chunk_path(digest)
        if self.fs.exists(path):
            self.fs.delete(path)

    def verify(self, digest: bytes) -> bool:
        """True when the stored bytes still hash to their key (corruption
        check; missing chunks verify False)."""
        path = chunk_path(digest)
        if not self.fs.exists(path):
            return False
        return digest_bytes(self.fs.load(path)) == digest

    def digests(self) -> List[bytes]:
        """Every chunk digest present on this filesystem."""
        return [bytes.fromhex(p[len(CHUNK_PREFIX):])
                for p in self.fs.listdir(CHUNK_PREFIX)]

    def chunk_count(self) -> int:
        return len(self.fs.listdir(CHUNK_PREFIX))
