"""Checkpoint manifests: the per-rank, per-epoch chunk lists.

A :class:`Manifest` is the store's unit of coordination: one per process
per checkpoint epoch, recording every memory region as one
:class:`RegionRow` — the region's layout and capture bookkeeping (what
the incremental pipeline needs back at restart) plus its chunks'
content addresses in offset order, one per
:data:`~repro.memory.CHUNK_BYTES` slice — and the image-level header
fields of :class:`~repro.dmtcp.image.CheckpointImage`.  Chunks carry the
bytes; manifests carry everything needed to reassemble a bit-identical
image from them — so a manifest plus a resolvable chunk set on *any*
live tier is a complete checkpoint.  A :class:`ChunkRef`, the unit a
put lands and a fetch resolves, is built from a row when a pass needs
one and never stored: a retained manifest costs one row per region, not
an object per chunk.

Manifests are small (a few hundred bytes per region) and are replicated
to every tier alongside the chunks they reference; their serialized form
is what :class:`~.store.CheckpointStore` garbage-collects by refcount.
A manifest is rendered once (:attr:`Manifest.blob`) and every tier
stores that same object.  Its header is its own: :func:`copy_header`
gives it a copy of the image's mutable bookkeeping, less the per-chunk
digest lists its rows already hold, and every image rebuilt from it gets
another (:meth:`Manifest.image_header`), so no reader of an image can
rewrite a stored manifest.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, \
    Tuple

from ..memory import CHUNK_BYTES

__all__ = ["ChunkRef", "Manifest", "ManifestError", "RegionRow",
           "chunk_path", "manifest_path"]

_MAGIC = b"STOREMF2"

#: flat namespace shared by every tier filesystem: one content-addressed
#: chunk pool per device, so local-tier data and partner-tier replicas
#: landing on the same physical disk dedup against each other too
CHUNK_PREFIX = "/store/chunks/"
MANIFEST_PREFIX = "/store/manifests/"


class ManifestError(RuntimeError):
    """Malformed manifest blob (bad magic / truncated payload)."""


def chunk_path(digest: bytes) -> str:
    return f"{CHUNK_PREFIX}{digest.hex()}"


def manifest_path(proc_name: str, epoch: int) -> str:
    return f"{MANIFEST_PREFIX}{proc_name}/{epoch:08d}"


def copy_header(header: Dict) -> Dict:
    """``header`` with its mutable parts copied: each ``region_meta``
    entry, less its ``chunk_hashes`` (a manifest's rows hold the
    digests), and ``capture_stats``.  The immutable values (numbers,
    strings, ``chunk_gens`` bytes) stay shared."""
    out = dict(header)
    out["region_meta"] = {
        name: {key: value for key, value in entry.items()
               if key != "chunk_hashes"}
        for name, entry in header.get("region_meta", {}).items()}
    out["capture_stats"] = dict(header.get("capture_stats", {}))
    return out


class ChunkRef(NamedTuple):
    """One region chunk's reference into the pool.

    A region spanning more than :data:`~repro.memory.CHUNK_BYTES` emits
    one ref per piece of its image data; ``offset`` is the piece's byte
    offset within the region.  The value a put lands and a fetch or the
    post-copy pager resolves: built per pass (:meth:`RegionRow.refs`),
    never kept by a manifest.
    """

    region_name: str
    digest: bytes            # blake2b-16 of the raw chunk bytes
    addr: int
    size: int                # raw bytes the chunk holds
    repr_scale: float
    tag: str
    generation: int          # region generation at capture (incremental seed)
    ratio: Optional[float]   # measured compression ratio (None = unmeasured)
    offset: int              # byte offset of this chunk within its region

    @property
    def logical_bytes(self) -> float:
        """Paper-testbed bytes a write/read of this chunk is charged for
        (compressed: the writer pipes chunks through gzip)."""
        effective = min(1.0, self.ratio) if self.ratio is not None else 1.0
        return self.size * self.repr_scale * effective


class RegionRow(NamedTuple):
    """One region of a manifest: what every chunk of it shares, plus the
    chunks' digests in offset order.  Chunk *i* covers ``[i·CHUNK_BYTES,
    min(size, (i+1)·CHUNK_BYTES))`` of the region."""

    region_name: str
    addr: int
    size: int                # raw bytes of the whole region
    repr_scale: float
    tag: str
    generation: int
    ratio: Optional[float]
    digests: Tuple[bytes, ...]

    def refs(self) -> Iterator[ChunkRef]:
        """This region's chunk refs, in offset order, built now (the
        fetch path's loop: one unpack, not one :meth:`ref` per chunk)."""
        name, addr, size, scale, tag, generation, ratio, digests = self
        last = len(digests) - 1
        for i, digest in enumerate(digests):
            lo = i * CHUNK_BYTES
            yield ChunkRef(name, digest, addr + lo,
                           CHUNK_BYTES if i < last else size - lo,
                           scale, tag, generation, ratio, lo)

    def ref(self, i: int) -> ChunkRef:
        """Chunk ``i``'s ref alone, built now."""
        lo = i * CHUNK_BYTES
        return ChunkRef(self.region_name, self.digests[i], self.addr + lo,
                        min(CHUNK_BYTES, self.size - lo), self.repr_scale,
                        self.tag, self.generation, self.ratio, lo)


def region_rows(refs: Iterable[ChunkRef]) -> List[RegionRow]:
    """One row per region of ``refs``, which arrive as a put builds them:
    a region's refs together, in offset order."""
    rows = []
    for name, run in groupby(refs, key=attrgetter("region_name")):
        run = list(run)
        first, last = run[0], run[-1]
        rows.append(RegionRow(
            name, first.addr, last.offset + last.size, first.repr_scale,
            first.tag, first.generation, first.ratio,
            tuple([ref.digest for ref in run])))
    return rows


@dataclass
class Manifest:
    """One process's checkpoint epoch as region rows + image header."""

    proc_name: str
    rank: int
    epoch: int
    node_index: int          # node the checkpoint was taken on (local tier)
    partner_index: int       # node holding the partner replica
    rows: List[RegionRow]
    #: image-level fields needed to rebuild the CheckpointImage verbatim
    header: Dict = field(default_factory=dict)
    #: address-space bookkeeping (memory name + next_addr)
    memory_name: str = ""
    next_addr: int = 0

    @property
    def path(self) -> str:
        return manifest_path(self.proc_name, self.epoch)

    @property
    def n_chunks(self) -> int:
        return sum(len(row.digests) for row in self.rows)

    @property
    def chunks(self) -> List[ChunkRef]:
        """Every chunk's ref, in manifest order, built on each call."""
        return [ref for row in self.rows for ref in row.refs()]

    @property
    def logical_bytes(self) -> float:
        # summed chunk by chunk, in manifest order: the same float the
        # per-chunk charges add up to
        return sum(ref.logical_bytes for ref in self.chunks)

    def digests(self) -> List[bytes]:
        return [digest for row in self.rows for digest in row.digests]

    def image_header(self) -> Dict:
        """A copy of the header for an image rebuilt from this manifest,
        each region's ``chunk_hashes`` list rebuilt from its row."""
        header = copy_header(self.header)
        meta = header["region_meta"]
        for row in self.rows:
            entry = meta.get(row.region_name)
            if entry is not None:
                entry["chunk_hashes"] = list(row.digests)
        return header

    @cached_property
    def blob(self) -> bytes:
        """:meth:`to_bytes`, rendered once: every tier this manifest
        lands on stores this one object (the header never changes after
        the put that built it)."""
        return self.to_bytes()

    def to_bytes(self) -> bytes:
        payload = pickle.dumps(
            {
                "proc_name": self.proc_name,
                "rank": self.rank,
                "epoch": self.epoch,
                "node_index": self.node_index,
                "partner_index": self.partner_index,
                "rows": [tuple(row) for row in self.rows],
                "header": self.header,
                "memory_name": self.memory_name,
                "next_addr": self.next_addr,
            },
            protocol=pickle.HIGHEST_PROTOCOL)
        return _MAGIC + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Manifest":
        if blob[:8] != _MAGIC:
            raise ManifestError("not a store manifest (bad magic)")
        try:
            fields_ = pickle.loads(blob[8:])
            # a row without all eight fields (digests included) is corrupt
            rows = [RegionRow(*row) for row in fields_.pop("rows")]
        except Exception as exc:
            raise ManifestError(f"truncated or corrupt manifest payload: "
                                f"{exc}") from exc
        return cls(rows=rows, **fields_)
