"""Scaling scenarios for the simulator-speed benchmark (BENCH_sim).

Two deterministic workloads exercised at Table-1 rank counts
(128/512/1024/2048):

* ``pingpong`` — every even rank pairs with its odd neighbour
  (``rank ^ 1``) and they exchange rendezvous-sized messages over the
  full MPI/verbs stack, finishing with a tree allreduce so every rank
  agrees on one checksum.  This is pure fabric + event-core load: the
  per-rank work is constant, so wallclock growth beyond linear is event
  -kernel overhead.
* ``lu`` — the NAS LU proxy under DMTCP with one global checkpoint,
  which adds coordinator barriers, the drain protocol, and capture
  hashing to the mix.

Both report events processed (the kernel's ``env`` step counter),
wallclock, and events/sec.  The checksums are seed-stable: the scale
tests pin them against pre-optimization values.
"""

from __future__ import annotations

import time
from typing import Generator, Optional

import numpy as np

from ..hardware import MGHPCC
from ..dmtcp import native_launch
from ..scenario import Scenario

__all__ = ["mpi_pingpong_app", "run_pingpong", "run_lu", "RANK_LADDER"]

#: Table-1 rank counts the bench sweeps (--smoke keeps 512 only)
RANK_LADDER = (128, 512, 1024, 2048)

#: > Communicator.EAGER_INLINE_BYTES, so every exchange walks the full
#: rendezvous path (RTS -> CTS -> RDMA write -> FIN)
PP_MSG_BYTES = 2048


def mpi_pingpong_app(ctx, comm, iters: int = 6,
                     msg_bytes: int = PP_MSG_BYTES) -> Generator:
    """One rank of the N-rank paired ping-pong; returns a result dict.

    Rank ``2k`` pairs with ``2k+1``; an unpaired trailing rank idles
    through the loop and joins the final allreduce.
    """
    rank, n = comm.rank, comm.size
    peer: Optional[int] = rank ^ 1
    if peer >= n:
        peer = None
    buf = ctx.memory.mmap(f"{ctx.name}.mpp", 2 * msg_bytes)
    tx = buf.view().subview(slice(0, msg_bytes))
    # read-only window: the HCA's DMA lands bytes via memory.write, which
    # range-touches the region itself
    rx = buf.view()[msg_bytes:2 * msg_bytes]
    errors = 0
    for i in range(iters):
        tx[:] = (i * 31 + rank) % 251
        if peer is not None:
            yield from comm.sendrecv(buf, 0, msg_bytes, peer,
                                     buf, msg_bytes, msg_bytes, peer,
                                     tag=7)
            expect = (i * 31 + peer) % 251
            if int(rx[0]) != expect or int(rx[-1]) != expect:
                errors += 1
        yield ctx.compute(seconds=0.0)  # pay any wrapper overhead
    local = float(np.asarray(rx, dtype=np.float64).sum()) * (1.0 + rank)
    checksum = yield from comm.allreduce_obj(local, lambda a, b: a + b)
    return {"rank": rank, "checksum": checksum, "errors": errors,
            "sim_seconds": ctx.env.now}


def run_pingpong(nprocs: int, iters: int = 6,
                 msg_bytes: int = PP_MSG_BYTES, ppn: int = 16) -> dict:
    """Native N-rank paired pingpong; returns measurements + checksum."""
    scn = Scenario(MGHPCC, nprocs, f"simscale-pp-{nprocs}", ppn=ppn)
    cluster = scn.cluster(n_nodes=max(2, scn.n_nodes))
    specs = scn.mpi_specs(cluster, mpi_pingpong_app, iters=iters,
                          msg_bytes=msg_bytes)
    session = native_launch(cluster, specs)
    t0 = time.perf_counter()
    results = scn.run(session.wait())
    wall = time.perf_counter() - t0
    checksums = {r["checksum"] for r in results}
    assert len(checksums) == 1, "pingpong ranks disagree on checksum"
    assert sum(r["errors"] for r in results) == 0
    stats = scn.env.stats
    return {
        "scenario": "pingpong", "ranks": nprocs, "iters": iters,
        "events": stats.events, "wallclock": wall,
        "events_per_sec": stats.events / wall if wall > 0 else 0.0,
        "sim_seconds": scn.env.now, "checksum": checksums.pop(),
        "sim_stats": stats.snapshot(),
    }


def run_lu(nprocs: int, iters_sim: int = 2, klass: str = "A",
           ppn: int = 16, checkpoint_after: float = 0.1) -> dict:
    """LU under DMTCP with one global checkpoint at each rank count."""
    from ..apps.nas import lu_app
    from .runner import run_nas

    t0 = time.perf_counter()
    outcome = run_nas(lu_app, MGHPCC, nprocs, ppn=ppn, under="dmtcp",
                      app_kwargs={"klass": klass, "iters_sim": iters_sim},
                      checkpoint_after=checkpoint_after,
                      seed_name=f"simscale-lu-{nprocs}")
    wall = time.perf_counter() - t0
    assert outcome.ok
    # run_nas builds its own Environment and stashes the kernel's step
    # counters in extra["sim_stats"]
    stats = outcome.extra["sim_stats"]
    return {
        "scenario": "lu", "ranks": nprocs, "iters": iters_sim,
        "events": stats["events"], "wallclock": wall,
        "events_per_sec": stats["events"] / wall if wall > 0 else 0.0,
        "ckpt_seconds": outcome.ckpt_seconds,
        "checksum": outcome.checksum,
        "sim_stats": dict(stats),
    }
