"""Content-addressed, multi-tier checkpoint storage (DESIGN.md §11).

Chunks keyed by the capture pipeline's blake2b region fingerprints, with
cross-rank and cross-generation dedup; per-rank epoch manifests with
refcounted GC; local / partner-node / Lustre tiers filled by async
replication and drained cheapest-live-tier-first at restart, with
digest verification and replica healing on corruption.
"""

from .chunks import digest_bytes
from .manifest import ChunkRef, Manifest, ManifestError, RegionRow, \
    chunk_path, manifest_path
from .store import CheckpointStore, PutResult, StoreConfig, StoreError
from .tiers import LocalTier, LustreTier, PartnerTier

__all__ = [
    "CheckpointStore",
    "ChunkRef",
    "LocalTier",
    "LustreTier",
    "Manifest",
    "ManifestError",
    "PartnerTier",
    "PutResult",
    "RegionRow",
    "StoreConfig",
    "StoreError",
    "chunk_path",
    "digest_bytes",
    "manifest_path",
]
