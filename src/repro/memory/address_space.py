"""Explicit user-space memory model.

DMTCP's job is to copy and restore all of user-space memory.  Real processes
get this from the kernel's mmap table; our simulated processes keep their
data in an :class:`AddressSpace` — a table of named, virtually-addressed
regions, each backed by its own private anonymous ``mmap``.  As on a real
OS, such a mapping is zero-fill-on-demand: a page the application never
writes never becomes resident.  Views over a region stay valid across a
checkpoint/restore cycle because restore copies bytes *into the existing
backing buffers* (the analogue of DMTCP restoring memory at the original
virtual addresses).

Scaled experiments: a region may declare ``repr_scale`` — "this region stands
for ``repr_scale`` times its actual byte length on the paper's testbed".
Actual data movement and checksums use the real bytes; time/size accounting
in the benchmark harness uses the logical (scaled) size.

Dirty tracking (incremental checkpoints, DESIGN.md §8/§13): every region
carries a monotonically increasing ``generation`` plus a per-chunk
generation array at :data:`CHUNK_BYTES` granularity (the store's chunk
size).  The type keeps them honest: a region's bytes are private
(``Region._buf``), :attr:`Region.buffer` is a read-only ``memoryview``,
and the only writers are :meth:`Region.write`, :meth:`Region.copy_within`,
a :class:`TrackedView` from :meth:`Region.view` (which routes every write
through ``touch`` with the write's byte span, so hot mutation loops dirty
only the chunks they wrote), and :meth:`AddressSpace.write` /
:meth:`AddressSpace.restore` — each stamps exactly what it wrote.  A
write through ``region.buffer``, or through a NumPy array made from it,
raises.  What is expensive to derive from a region's bytes is memoised
against the stamps under one trust rule, valid until the next ``touch``:
its measured gzip ratio (:attr:`Region.gzip_ratio`, keyed by the region
generation).  Whoever asks "which bytes changed since then?" —
incremental capture and live pre-copy alike — compares stamp vectors
through :func:`dirty_chunk_bytes`; nothing hashes memory to find out.

Untouched memory costs nothing (DESIGN.md §15): a region mapped without
``data=`` is *zero-born*, and in a zero-born region a full chunk whose
stamp is still 0 was never written, so it holds zeros.  Capture hands
such a chunk out as the one shared :data:`ZERO_PIECE` without reading
it, and restore does not write zeros into it — the same stamps, under
the same ChunkSan audit, that incremental capture already trusts.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = ["AddressSpace", "Region", "TrackedView", "MemoryError_",
           "PAGE_SIZE", "CHUNK_BYTES", "ZERO_PIECE", "dirty_chunk_bytes"]

PAGE_SIZE = 4096
#: dirty-tracking and store-chunk granularity (one simulated page): the
#: per-region chunk bitmap, the capture's clean-chunk reuse, and the
#: content-addressed store all slice regions at this size
CHUNK_BYTES = PAGE_SIZE
#: every all-zero full chunk a capture takes is this one object, shared
#: by images, store tiers and pickled blobs, and never hashed
ZERO_PIECE = bytes(CHUNK_BYTES)
_BASE_ADDR = 0x1000_0000


def _anonymous(size: int) -> mmap.mmap:
    """Fresh zero-fill-on-demand backing: private, so reading a page it
    has never written maps the kernel's zero page instead of a new one."""
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


def dirty_chunk_bytes(size: int, gens: np.ndarray,
                      ref: Optional[np.ndarray]) -> int:
    """Bytes of a ``size``-byte region held by the chunks whose stamp in
    ``gens`` differs from the reference vector ``ref`` (the last chunk
    may be short).  A missing reference, or one of another length,
    means the whole region."""
    if ref is None or len(ref) != len(gens):
        return size
    moved = gens != ref
    nbytes = int(np.count_nonzero(moved)) * CHUNK_BYTES
    if nbytes and moved[-1]:
        nbytes -= len(gens) * CHUNK_BYTES - size
    return nbytes


class MemoryError_(RuntimeError):
    """Simulated segfault / mapping error (named to avoid shadowing the
    builtin ``MemoryError``)."""


@dataclass
class Region:
    """One contiguous mapping."""

    name: str
    addr: int
    size: int
    _buf: mmap.mmap
    repr_scale: float = 1.0
    pin_count: int = 0
    tag: str = ""  # e.g. "heap", "stack", "driver-data"
    #: bumped on every tracked mutation; an incremental checkpoint may skip
    #: a region whose generation it has already captured
    generation: int = 0
    #: mapped without initial data: a full chunk whose stamp is still 0
    #: has never been written and holds zeros
    zero_born: bool = False
    _ratio_gen: int = field(default=-1, repr=False, compare=False)
    _ratio: Optional[float] = field(default=None, repr=False, compare=False)
    _chunk_gens: Optional[np.ndarray] = field(default=None, repr=False,
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

    @property
    def buffer(self) -> memoryview:
        """The region's bytes, read-only: writing through it (or through
        a NumPy array made from it) raises."""
        return memoryview(self._buf).toreadonly()

    def _never_written(self) -> List[bool]:
        """Per chunk: is it a full chunk of a zero-born region that no
        writer has stamped (so it holds zeros nobody needs to read)?"""
        if not self.zero_born:
            return [False] * self.n_chunks
        never = (self.chunk_gens == 0).tolist()
        if self.size % CHUNK_BYTES:
            never[-1] = False       # a partial tail is always read
        return never

    def pieces(self) -> tuple:
        """A copy of the region's bytes as one ``bytes`` piece per
        :data:`CHUNK_BYTES` slice (the last may be short; an empty
        region has none): the form a checkpoint image and the store's
        chunk files both hold, so one object can serve both.  Every
        all-zero full chunk is :data:`ZERO_PIECE`, and a never-written
        one is not even read."""
        view = memoryview(self._buf)
        out = []
        for off, never in zip(range(0, self.size, CHUNK_BYTES),
                              self._never_written()):
            piece = ZERO_PIECE if never \
                else bytes(view[off: off + CHUNK_BYTES])
            out.append(ZERO_PIECE if piece == ZERO_PIECE else piece)
        return tuple(out)

    def _check_span(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryError_(
                f"segfault: [{offset}, {offset + length}) outside region "
                f"{self.name!r} of {self.size} bytes")

    def write(self, offset: int, data) -> None:
        """Copy ``data`` in at ``offset`` and stamp the span written."""
        length = memoryview(data).nbytes
        self._check_span(offset, length)
        self._buf[offset: offset + length] = data
        self.touch(offset, length)

    def copy_within(self, src: int, dst: int, length: int) -> None:
        """Copy ``length`` bytes from ``src`` to ``dst`` (the spans may
        overlap) and stamp the destination span."""
        self._check_span(src, length)
        self._check_span(dst, length)
        self._buf[dst: dst + length] = self._buf[src: src + length]
        self.touch(dst, length)

    def touch(self, offset: int = 0, length: Optional[int] = None) -> None:
        """Record a mutation: every writer of ``_buf`` calls this, or the
        next incremental checkpoint may skip the bytes it wrote.

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
        arr = np.frombuffer(self._buf, dtype=dtype)
        if shape is not None:
            arr = arr.reshape(shape)
        return TrackedView(self, arr)

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


def _byte_bounds(a: np.ndarray) -> tuple:
    """``(lowest byte address, one past the highest)`` of ``a``: numpy's
    ``byte_bounds``, read through ``a.ctypes.data``.  ``byte_bounds``
    goes through ``__array_interface__``, whose first few thousand calls
    leave ~0.9 MiB allocated for the rest of the process (tracemalloc,
    numpy 2.4)."""
    lo = a.ctypes.data
    if a.flags.c_contiguous:
        return lo, lo + a.nbytes
    hi = lo
    for n, stride in zip(a.shape, a.strides):
        if stride < 0:
            lo += (n - 1) * stride
        else:
            hi += (n - 1) * stride
    return lo, hi + a.itemsize


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
        self._base = np.frombuffer(region._buf, dtype=np.uint8).ctypes.data

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
        if data is not None and len(data) > size:
            raise MemoryError_("initial data larger than region")
        buf = _anonymous(size)
        if data is not None:
            buf[: len(data)] = data
        region = Region(name=name, addr=addr, size=size, _buf=buf,
                        repr_scale=repr_scale, tag=tag,
                        zero_born=data is None)
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
        return bytes(region._buf[off: off + length])

    def write(self, addr: int, data: bytes) -> None:
        region = self.region_at(addr, len(data))
        off = addr - region.addr
        region._buf[off: off + len(data)] = data
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
        """Deep copy of one region's mapping entry and contents (the
        bytes as :meth:`Region.pieces`)."""
        return {
            "name": region.name,
            "addr": region.addr,
            "size": region.size,
            "repr_scale": region.repr_scale,
            "tag": region.tag,
            "data": region.pieces(),
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
        A region's ``data`` is its tuple of pieces (:meth:`Region.pieces`),
        written at consecutive offsets — except a zero piece bound for a
        chunk that was never written, which already holds it.
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
                    size=rsnap["size"], _buf=_anonymous(rsnap["size"]),
                    repr_scale=rsnap["repr_scale"], tag=rsnap["tag"],
                    zero_born=True)
                self._regions[existing.addr] = existing
                self._by_name[existing.name] = existing
                self._index_add(existing)
            if existing.size != rsnap["size"]:
                raise MemoryError_(
                    f"region {existing.name!r} size changed since snapshot")
            pieces = rsnap["data"]
            if not isinstance(pieces, tuple) \
                    or sum(map(len, pieces)) != existing.size:
                raise MemoryError_(
                    f"region {existing.name!r}: snapshot data is not a "
                    f"tuple of pieces covering {existing.size} bytes")
            never = existing._never_written()
            off = 0
            for piece in pieces:
                # a never-written chunk already holds the zeros
                if not (piece == ZERO_PIECE and off % CHUNK_BYTES == 0
                        and never[off // CHUNK_BYTES]):
                    existing._buf[off: off + len(piece)] = piece
                off += len(piece)
            existing.pin_count = 0
            existing.touch()
        self._next_addr = max(self._next_addr, snap["next_addr"])
