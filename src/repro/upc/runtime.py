"""A minimal UPC runtime on the GASNet core: THREADS/MYTHREAD, barriers,
block-cyclic shared arrays with one-sided access, and upc_memget/memput.

UPC programs here are SPMD generators taking (ctx, upc); the runtime builds
AppSpecs the same way the MPI runtime does, so UPC jobs run natively or
under dmtcp_launch + the InfiniBand plugin unchanged — the paper's §6.3
demonstration that the plugin is MPI-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from ..dmtcp.launcher import AppSpec
from ..dmtcp.process import AppContext
from ..hardware.cluster import Cluster
from ..memory import TrackedView
from .gasnet import GasnetCore

__all__ = ["Upc", "SharedArray", "make_upc_specs"]


class SharedArray:
    """A UPC shared array: ``nblocks`` blocks of ``block_bytes``, block *i*
    having affinity to thread ``i % THREADS``, stored in each thread's
    shared segment."""

    def __init__(self, upc: "Upc", seg_offset: int, nblocks: int,
                 block_bytes: int):
        self.upc = upc
        self.seg_offset = seg_offset
        self.nblocks = nblocks
        self.block_bytes = block_bytes

    def owner(self, block: int) -> int:
        return block % self.upc.THREADS

    def _local_index(self, block: int) -> int:
        return block // self.upc.THREADS

    def local_offset(self, block: int) -> int:
        """Offset of ``block`` within its owner's shared segment."""
        return self.seg_offset + self._local_index(block) * self.block_bytes

    def local_view(self, block: int, dtype="float64") -> TrackedView:
        """Write-tracked view of a block with affinity to MYTHREAD."""
        if self.owner(block) != self.upc.MYTHREAD:
            raise ValueError(f"block {block} has remote affinity")
        off = self.local_offset(block)
        item = np.dtype(dtype).itemsize
        return self.upc.core.segment.view(dtype).subview(
            slice(off // item, (off + self.block_bytes) // item))

    def get(self, block: int, scratch_offset: int) -> Generator:
        """One-sided fetch of ``block`` into MYTHREAD's segment scratch."""
        owner = self.owner(block)
        seg = self.upc.core.segment
        if owner == self.upc.MYTHREAD:
            src = self.local_offset(block)
            seg.copy_within(src, scratch_offset, self.block_bytes)
            return
        yield from self.upc.core.get(
            owner, self.local_offset(block),
            seg.addr + scratch_offset, self.block_bytes)

    def put(self, block: int, scratch_offset: int) -> Generator:
        """One-sided store of MYTHREAD's segment scratch into ``block``."""
        owner = self.owner(block)
        seg = self.upc.core.segment
        if owner == self.upc.MYTHREAD:
            dst = self.local_offset(block)
            seg.copy_within(scratch_offset, dst, self.block_bytes)
            return
        yield from self.upc.core.put(
            owner, self.local_offset(block),
            seg.addr + scratch_offset, self.block_bytes)


class Upc:
    """The per-thread UPC runtime object handed to UPC programs."""

    def __init__(self, ctx: AppContext, core: GasnetCore):
        self.ctx = ctx
        self.core = core
        self.MYTHREAD = core.mythread
        self.THREADS = core.threads
        self._alloc_offset = 0
        self._barrier_round = 0
        self._barrier_got: Dict[tuple, Any] = {}
        core.am_handler = self._on_am

    # -- allocation (collective; every thread computes the same layout) --------

    def all_alloc(self, nblocks: int, block_bytes: int) -> SharedArray:
        blocks_here = -(-nblocks // self.THREADS)
        arr = SharedArray(self, self._alloc_offset, nblocks, block_bytes)
        self._alloc_offset += blocks_here * block_bytes
        if self._alloc_offset > self.core.segment.size:
            raise MemoryError("UPC shared segment exhausted")
        return arr

    def scratch(self, nbytes: int) -> int:
        """Reserve scratch space at the top of the segment; returns offset."""
        off = self.core.segment.size - nbytes
        if off < self._alloc_offset:
            raise MemoryError("UPC shared segment exhausted (scratch)")
        return off

    # -- synchronization -----------------------------------------------------------

    def _on_am(self, src: int, msg: dict) -> None:
        if msg["kind"] == "barrier":
            key = (msg["round"], msg["k"])
            evt = self._barrier_got.get(key)
            if evt is None:
                self._barrier_got[key] = True  # arrived before the wait
            elif evt is not True and not evt.triggered:
                evt.succeed()

    def barrier(self) -> Generator:
        """Dissemination barrier over active messages."""
        self._barrier_round += 1
        rnd = self._barrier_round
        n, me = self.THREADS, self.MYTHREAD
        k = 1
        while k < n:
            dest = (me + k) % n
            yield from self.core.am_send(dest, {"kind": "barrier",
                                                "round": rnd, "k": k})
            key = (rnd, k)
            existing = self._barrier_got.get(key)
            if existing is not True:
                evt = self.ctx.env.event()
                self._barrier_got[key] = evt
                yield evt
            del self._barrier_got[key]
            k *= 2

    # -- raw one-sided ops ------------------------------------------------------------

    def memput(self, thread: int, seg_offset: int, local_offset: int,
               nbytes: int) -> Generator:
        seg = self.core.segment
        yield from self.core.put(thread, seg_offset,
                                 seg.addr + local_offset, nbytes)

    def memget(self, thread: int, seg_offset: int, local_offset: int,
               nbytes: int) -> Generator:
        seg = self.core.segment
        yield from self.core.get(thread, seg_offset,
                                 seg.addr + local_offset, nbytes)


def make_upc_specs(cluster: Cluster, threads: int,
                   app_fn: Callable[[AppContext, Upc], Generator],
                   segment_bytes: int = 1 << 20,
                   segment_scale: float = 1.0,
                   ppn: Optional[int] = None,
                   name_prefix: str = "upc") -> List[AppSpec]:
    """Build AppSpecs for a UPC job (one OS process per UPC thread)."""
    n_nodes = len(cluster.nodes)
    if ppn is None:
        ppn = max(1, -(-threads // n_nodes))
    thread0_host = cluster.nodes[0].name
    specs: List[AppSpec] = []
    for thread in range(threads):

        def factory(ctx: AppContext, thread=thread) -> Generator:
            core = GasnetCore(ctx, thread, threads, segment_bytes,
                              segment_scale)
            yield from core.attach(thread0_host)
            upc = Upc(ctx, core)
            yield from upc.barrier()
            result = yield from app_fn(ctx, upc)
            yield from upc.barrier()
            return result

        specs.append(AppSpec(node_index=thread // ppn,
                             name=f"{name_prefix}.t{thread}",
                             factory=factory, rank=thread))
    return specs
