"""The chunk key.

A chunk's key is ``blake2b`` with a 16-byte digest over one
:data:`~repro.memory.CHUNK_BYTES` slice, and its bytes live at
``/store/chunks/<digest-hex>`` (:func:`~.manifest.chunk_path`) on every
tier that holds it, so two ranks (or two checkpoint epochs) whose
regions hold identical bytes share one file.  Incremental capture
carries the keys of chunks its stamps proved clean forward in
``region_meta``, so such a chunk addresses its chunk file without
rehashing.
"""

from __future__ import annotations

import hashlib

__all__ = ["digest_bytes"]

_DIGEST_SIZE = 16


def digest_bytes(data: bytes) -> bytes:
    """The chunk key: blake2b-16 of the raw bytes (what incremental
    capture carries forward in ``region_meta["chunk_hashes"]``)."""
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()

