"""Explicit user-space memory model.

DMTCP's job is to copy and restore all of user-space memory.  Real processes
get this from the kernel's mmap table; our simulated processes keep their
data in an :class:`AddressSpace` — a table of named, virtually-addressed
regions backed by real ``bytearray`` storage.  NumPy views over a region are
writable and stay valid across a checkpoint/restore cycle because restore
copies bytes *into the existing backing buffers* (the analogue of DMTCP
restoring memory at the original virtual addresses).

Scaled experiments: a region may declare ``repr_scale`` — "this region stands
for ``repr_scale`` times its actual byte length on the paper's testbed".
Actual data movement and checksums use the real bytes; time/size accounting
in the benchmark harness uses the logical (scaled) size.

Dirty tracking (incremental checkpoints, DESIGN.md §8/§13): every region
carries a monotonically increasing ``generation`` plus a per-chunk
generation array at :data:`CHUNK_BYTES` granularity (the store's chunk
size).  All mutation avenues must bump them — :meth:`AddressSpace.write`
and :meth:`AddressSpace.restore` do so for the byte ranges they touch, and
code that slices ``region.buffer`` directly calls :meth:`Region.touch`
(whole-region without arguments, or with an ``(offset, length)`` span).
:meth:`Region.view` is the only way to a writable NumPy view: a
:class:`TrackedView` behaves like an ndarray but routes every write
through ``touch`` with the write's byte span, so hot mutation loops dirty
only the chunks they wrote.  What is expensive to derive from a region's
bytes is memoised against the stamps under one trust rule, valid until
the next ``touch``: its per-chunk digests (:meth:`Region.chunk_hashes`,
keyed per chunk) and its measured gzip ratio (:attr:`Region.gzip_ratio`,
keyed by the region generation).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    _byte_bounds = np.byte_bounds

__all__ = ["AddressSpace", "Region", "TrackedView", "MemoryError_",
           "PAGE_SIZE", "CHUNK_BYTES"]

PAGE_SIZE = 4096
#: dirty-tracking and store-chunk granularity (one simulated page): the
#: per-region chunk bitmap, the capture's clean-chunk reuse, and the
#: content-addressed store all slice regions at this size
CHUNK_BYTES = PAGE_SIZE
_BASE_ADDR = 0x1000_0000


class MemoryError_(RuntimeError):
    """Simulated segfault / mapping error (named to avoid shadowing the
    builtin ``MemoryError``)."""


@dataclass
class Region:
    """One contiguous mapping."""

    name: str
    addr: int
    size: int
    buffer: bytearray
    repr_scale: float = 1.0
    pin_count: int = 0
    tag: str = ""  # e.g. "heap", "stack", "driver-data"
    #: bumped on every tracked mutation; an incremental checkpoint may skip
    #: a region whose generation it has already captured
    generation: int = 0
    _ratio_gen: int = field(default=-1, repr=False, compare=False)
    _ratio: Optional[float] = field(default=None, repr=False, compare=False)
    _chunk_gens: Optional[np.ndarray] = field(default=None, repr=False,
                                              compare=False)
    _chunk_hashes: Optional[list] = field(default=None, repr=False,
                                          compare=False)
    _chunk_hash_gens: Optional[np.ndarray] = field(default=None, repr=False,
                                                   compare=False)

    @property
    def end(self) -> int:
        return self.addr + self.size

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def logical_size(self) -> float:
        """Size this region stands for on the paper's testbed (bytes)."""
        return self.size * self.repr_scale

    @property
    def n_chunks(self) -> int:
        return -(-self.size // CHUNK_BYTES)

    @property
    def chunk_gens(self) -> np.ndarray:
        """Per-chunk generation stamps (lazily allocated): chunk ``i`` was
        last mutated at region generation ``chunk_gens[i]``."""
        if self._chunk_gens is None or len(self._chunk_gens) != self.n_chunks:
            self._chunk_gens = np.zeros(self.n_chunks, dtype=np.int64)
        return self._chunk_gens

    def touch(self, offset: int = 0, length: Optional[int] = None) -> None:
        """Record a mutation (any code writing ``buffer`` directly must
        call this — or the next incremental checkpoint may skip it).

        Without arguments the whole region is marked dirty (the safe,
        conservative call); with ``(offset, length)`` only the chunks
        overlapping that byte span are, which is what lets chunk-level
        incremental capture skip the rest of the region.
        """
        self.generation += 1
        gens = self.chunk_gens
        if length is None:
            gens[:] = self.generation
        elif length > 0:
            lo = max(0, offset) // CHUNK_BYTES
            hi = min(self.n_chunks, -(-(offset + length) // CHUNK_BYTES))
            gens[lo:hi] = self.generation

    def view(self, dtype="uint8", shape=None) -> "TrackedView":
        """A write-interposed view: ndarray semantics, but every write is
        routed through :meth:`touch` with the written byte span, so the
        region stays precisely tracked."""
        arr = np.frombuffer(self.buffer, dtype=dtype)
        if shape is not None:
            arr = arr.reshape(shape)
        return TrackedView(self, arr)

    def chunk_hashes(self) -> List[bytes]:
        """Per-chunk blake2b-16 digests of the current bytes.

        Cached per chunk: a chunk is only re-hashed when its generation
        stamp moved since the digest was computed.
        """
        n = self.n_chunks
        gens = self.chunk_gens
        if self._chunk_hashes is None or len(self._chunk_hashes) != n:
            self._chunk_hashes = [None] * n
            self._chunk_hash_gens = np.full(n, -1, dtype=np.int64)
        hashes = self._chunk_hashes
        hash_gens = self._chunk_hash_gens
        # vectorized staleness test: one array compare replaces the
        # per-chunk Python loop.  Fresh digests have stamp -1, never a
        # valid generation, so "stamp != gen" covers both "never hashed"
        # and "mutated since hashed".  All-clean (the common
        # incremental-capture case) returns without touching a chunk.
        stale_mask = hash_gens != gens
        if not stale_mask.any():
            return list(hashes)
        stale = np.nonzero(stale_mask)[0].tolist()
        buf = memoryview(self.buffer)
        blake2b = hashlib.blake2b
        for i in stale:
            lo = i * CHUNK_BYTES
            hashes[i] = blake2b(
                buf[lo: lo + CHUNK_BYTES], digest_size=16).digest()
            hash_gens[i] = gens[i]
        return list(hashes)

    @property
    def gzip_ratio(self) -> Optional[float]:
        """The gzip ratio a capture last measured on the current bytes,
        or ``None`` when there is none to trust: keyed by
        :attr:`generation`, so stale after any :meth:`touch`.  Assigning
        records a fresh measurement."""
        if self._ratio_gen != self.generation:
            return None
        return self._ratio

    @gzip_ratio.setter
    def gzip_ratio(self, ratio: float) -> None:
        self._ratio, self._ratio_gen = ratio, self.generation

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end


class TrackedView:
    """An ndarray facade over a :class:`Region` that keeps dirty tracking
    precise: reads hand out read-only views, writes go through
    ``__setitem__``/in-place operators which mark the written byte span
    via :meth:`Region.touch` before mutating the buffer.

    The logical contract with capture: every buffer byte a TrackedView
    can change is covered by a ``touch`` of (at least) the chunks it
    lands in — so an unchanged per-chunk generation proves unchanged
    bytes.  Writes through keys numpy resolves to copies (fancy/boolean
    indexing) conservatively mark the whole view's span.  An in-place
    operator either writes through or raises: none falls back to a
    rebinding binary operator.
    """

    __slots__ = ("_region", "_arr", "_base")

    def __init__(self, region: Region, arr: np.ndarray):
        self._region = region
        self._arr = arr
        self._base = _byte_bounds(
            np.frombuffer(region.buffer, dtype=np.uint8))[0]

    # -- span marking -------------------------------------------------------

    def _mark_span(self, sub: np.ndarray) -> None:
        lo, hi = _byte_bounds(sub)
        self._region.touch(lo - self._base, hi - lo)

    def _mark(self, key) -> None:
        arr = self._arr
        if isinstance(key, (int, np.integer)):
            k = int(key)
            if k < 0:
                k += arr.shape[0]
            sub = arr[k: k + 1]
        else:
            try:
                sub = arr[key]
            except Exception:
                sub = arr
            if not (isinstance(sub, np.ndarray) and sub.size
                    and np.may_share_memory(sub, arr)):
                # scalar element, or a key numpy resolves to a copy
                # (fancy/boolean index): fall back to the whole span
                sub = arr
        self._mark_span(sub)

    # -- reads --------------------------------------------------------------

    def _ro(self) -> np.ndarray:
        arr = self._arr.view()
        arr.setflags(write=False)
        return arr

    def __getitem__(self, key):
        sub = self._arr[key]
        if isinstance(sub, np.ndarray):
            sub = sub.view()
            sub.setflags(write=False)
        return sub

    def __array__(self, dtype=None, copy=None):
        arr = self._ro()
        if dtype is not None and arr.dtype != np.dtype(dtype):
            arr = arr.astype(dtype)
        elif copy:
            arr = arr.copy()
        return arr

    def __len__(self) -> int:
        return len(self._arr)

    def __abs__(self) -> np.ndarray:
        return abs(self._ro())

    def __eq__(self, other):
        return self._ro() == other

    def __ne__(self, other):
        return self._ro() != other

    __hash__ = None

    def __add__(self, other):
        return self._ro() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._ro() - other

    def __rsub__(self, other):
        return other - self._ro()

    def __mul__(self, other):
        return self._ro() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._ro() / other

    def __rtruediv__(self, other):
        return other / self._ro()

    def __mod__(self, other):
        return self._ro() % other

    def __getattr__(self, name):
        # reductions/introspection (sum, min, shape, dtype, nbytes, ...)
        # resolve against a read-only view so they can't sidestep marking
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._ro(), name)

    # -- writes -------------------------------------------------------------

    def __setitem__(self, key, value) -> None:
        self._mark(key)
        if isinstance(value, TrackedView):
            value = value._ro()
        self._arr[key] = value

    def _inplace(self, op, other) -> "TrackedView":
        self._mark_span(self._arr)
        if isinstance(other, TrackedView):
            other = other._ro()
        op(other)
        return self

    def __iadd__(self, other):
        return self._inplace(self._arr.__iadd__, other)

    def __isub__(self, other):
        return self._inplace(self._arr.__isub__, other)

    def __imul__(self, other):
        return self._inplace(self._arr.__imul__, other)

    def __itruediv__(self, other):
        return self._inplace(self._arr.__itruediv__, other)

    # the whole in-place family, not just the arithmetic four: for a
    # missing one Python falls back to a NumPy operand's reflected
    # operator, which returns a detached copy and rebinds the name
    def __imod__(self, other):
        return self._inplace(self._arr.__imod__, other)

    def __ifloordiv__(self, other):
        return self._inplace(self._arr.__ifloordiv__, other)

    def __ipow__(self, other):
        return self._inplace(self._arr.__ipow__, other)

    def __imatmul__(self, other):
        return self._inplace(self._arr.__imatmul__, other)

    def __ilshift__(self, other):
        return self._inplace(self._arr.__ilshift__, other)

    def __irshift__(self, other):
        return self._inplace(self._arr.__irshift__, other)

    def __iand__(self, other):
        return self._inplace(self._arr.__iand__, other)

    def __ior__(self, other):
        return self._inplace(self._arr.__ior__, other)

    def __ixor__(self, other):
        return self._inplace(self._arr.__ixor__, other)

    # -- derived tracked views ----------------------------------------------

    def reshape(self, *shape) -> "TrackedView":
        return TrackedView(self._region, self._arr.reshape(*shape))

    def subview(self, key) -> "TrackedView":
        """A TrackedView over a sub-slice (stays write-interposed, unlike
        ``__getitem__`` which returns read-only data)."""
        sub = self._arr[key]
        if not (isinstance(sub, np.ndarray)
                and np.may_share_memory(sub, self._arr)):
            raise ValueError(
                "subview requires a key that resolves to a view")
        return TrackedView(self._region, sub)


class AddressSpace:
    """The mmap table of one simulated process."""

    def __init__(self, name: str = "proc"):
        self.name = name
        self._regions: Dict[int, Region] = {}
        self._next_addr = _BASE_ADDR
        self._by_name: Dict[str, Region] = {}
        # address-sorted index for O(log n) region_at (read/write/pin all
        # route through it); _starts[i] is _ordered[i].addr
        self._starts: List[int] = []
        self._ordered: List[Region] = []

    # -- mapping ------------------------------------------------------------

    def _index_add(self, region: Region) -> None:
        i = bisect_right(self._starts, region.addr)
        self._starts.insert(i, region.addr)
        self._ordered.insert(i, region)

    def _index_remove(self, region: Region) -> None:
        i = bisect_right(self._starts, region.addr) - 1
        if 0 <= i < len(self._ordered) and self._ordered[i] is region:
            del self._starts[i]
            del self._ordered[i]

    def mmap(self, name: str, size: int, repr_scale: float = 1.0,
             tag: str = "", data: Optional[bytes] = None) -> Region:
        """Map a new zero-filled (or ``data``-initialised) region."""
        if size <= 0:
            raise MemoryError_(f"mmap size must be positive, got {size}")
        if name in self._by_name:
            raise MemoryError_(f"region name {name!r} already mapped")
        pages = -(-size // PAGE_SIZE)
        addr = self._next_addr
        self._next_addr += pages * PAGE_SIZE + PAGE_SIZE  # guard page
        buf = bytearray(size)
        if data is not None:
            if len(data) > size:
                raise MemoryError_("initial data larger than region")
            buf[: len(data)] = data
        region = Region(name=name, addr=addr, size=size, buffer=buf,
                        repr_scale=repr_scale, tag=tag)
        self._regions[addr] = region
        self._by_name[name] = region
        self._index_add(region)
        return region

    def ensure(self, name: str, size: int, repr_scale: float = 1.0,
               tag: str = "") -> Region:
        """Map ``name`` if absent, else adopt the existing mapping.

        Restart-aware allocation: code that runs both at first launch and
        again after a checkpoint image was restored into this address space
        (which re-creates the original regions) uses this instead of
        :meth:`mmap` so the second run adopts the restored region — and its
        restored bytes — rather than segfaulting on a duplicate mapping.
        The size must match the restored region's exactly.
        """
        region = self._by_name.get(name)
        if region is None:
            return self.mmap(name, size, repr_scale=repr_scale, tag=tag)
        if region.size != size:
            raise MemoryError_(
                f"ensure({name!r}): existing region is {region.size} bytes, "
                f"requested {size}")
        region.repr_scale = repr_scale
        return region

    def munmap(self, region: Region) -> None:
        if region.pinned:
            raise MemoryError_(f"cannot unmap pinned region {region.name!r}")
        if self._regions.pop(region.addr, None) is None:
            raise MemoryError_(f"region {region.name!r} not mapped")
        del self._by_name[region.name]
        self._index_remove(region)

    def region_at(self, addr: int, length: int = 1) -> Region:
        """The region containing [addr, addr+length), else simulated SEGV.

        Bisect over the sorted start addresses: the only candidate is the
        rightmost region starting at or below ``addr`` (mappings never
        overlap); an access straddling its end — or landing in a guard
        page — segfaults exactly as the old linear scan did.
        """
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            region = self._ordered[i]
            if region.contains(addr, length):
                return region
        raise MemoryError_(
            f"segfault: [{addr:#x}, {addr + length:#x}) not mapped in "
            f"{self.name}")

    def region(self, name: str) -> Region:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"no region named {name!r}") from None

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

    # -- pinning (memory registration support) -------------------------------

    def pin(self, addr: int, length: int) -> Region:
        region = self.region_at(addr, length)
        region.pin_count += 1
        return region

    def unpin(self, addr: int, length: int) -> None:
        region = self.region_at(addr, length)
        if region.pin_count <= 0:
            raise MemoryError_(f"unpin of unpinned region {region.name!r}")
        region.pin_count -= 1

    # -- raw access (used by the simulated HCA's DMA engine) ----------------

    def read(self, addr: int, length: int) -> bytes:
        region = self.region_at(addr, length)
        off = addr - region.addr
        return bytes(region.buffer[off: off + length])

    def write(self, addr: int, data: bytes) -> None:
        region = self.region_at(addr, len(data))
        off = addr - region.addr
        region.buffer[off: off + len(data)] = data
        region.touch(off, len(data))

    # -- accounting ----------------------------------------------------------

    @property
    def next_addr(self) -> int:
        """The next free mapping address (recorded in snapshots)."""
        return self._next_addr

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self._regions.values())

    @property
    def logical_bytes(self) -> float:
        return sum(r.logical_size for r in self._regions.values())

    # -- snapshot / restore (what a checkpoint image stores) -----------------

    @staticmethod
    def snapshot_region(region: Region) -> dict:
        """Deep copy of one region's mapping entry and contents."""
        return {
            "name": region.name,
            "addr": region.addr,
            "size": region.size,
            "repr_scale": region.repr_scale,
            "tag": region.tag,
            "data": bytes(region.buffer),
        }

    def snapshot(self) -> dict:
        """A deep copy of the full mapping table and contents."""
        return {
            "name": self.name,
            "next_addr": self._next_addr,
            "regions": [self.snapshot_region(r)
                        for r in self._regions.values()],
        }

    def restore(self, snap: dict) -> None:
        """Restore contents *in place*.

        Regions present in the snapshot are re-created at their original
        addresses if missing, and their bytes overwritten in the existing
        backing buffers if present — so live NumPy views (the analogue of
        pointers held on thread stacks) keep working.  Regions mapped after
        the snapshot was taken are unmapped.  Pin counts reset to zero: a
        freshly restarted process has no pinned memory (§4 of the paper).
        """
        snap_addrs = {r["addr"] for r in snap["regions"]}
        for region in [r for r in self._regions.values()
                       if r.addr not in snap_addrs]:
            region.pin_count = 0
            self.munmap(region)
        for rsnap in snap["regions"]:
            existing = self._regions.get(rsnap["addr"])
            if existing is None:
                existing = Region(
                    name=rsnap["name"], addr=rsnap["addr"],
                    size=rsnap["size"], buffer=bytearray(rsnap["size"]),
                    repr_scale=rsnap["repr_scale"], tag=rsnap["tag"])
                self._regions[existing.addr] = existing
                self._by_name[existing.name] = existing
                self._index_add(existing)
            if existing.size != rsnap["size"]:
                raise MemoryError_(
                    f"region {existing.name!r} size changed since snapshot")
            existing.buffer[:] = rsnap["data"]
            existing.pin_count = 0
            existing.touch()
        self._next_addr = max(self._next_addr, snap["next_addr"])
