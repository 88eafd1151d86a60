"""NAS Parallel Benchmarks 3.1 — class table and scaling helpers.

Each (benchmark, class) entry carries the *paper-testbed* quantities: total
floating-point work (calibrated against the native runtimes the paper
reports — see EXPERIMENTS.md), total resident memory, and the official
iteration counts.  Simulated runs execute a reduced number of genuinely
computing-and-communicating iterations (``iters_sim``) with the true
per-iteration work and message sizes, and report runtimes projected to the
full iteration count; memory regions are allocated small-and-scaled
(``repr_scale``) so checkpoint images have paper-magnitude logical sizes
while moving real bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["NasSpec", "NAS", "grid_2d", "alloc_scaled", "NasResult"]

#: fixed per-process resident overhead (runtime, libraries, buffers) —
#: reconciles Table 3's 355 MB/proc at 512 ranks with 117 MB at 2048
PROC_OVERHEAD_BYTES = 30e6


@dataclass(frozen=True)
class NasSpec:
    benchmark: str
    klass: str
    grid: Tuple[int, int, int]   # problem size (n1, n2, n3)
    iterations: int              # official iteration count
    flops_total: float           # calibrated total work (flops)
    memory_total: float          # total data bytes across all ranks
    iters_sim: int               # iterations actually simulated

    @property
    def points(self) -> int:
        n1, n2, n3 = self.grid
        return n1 * n2 * n3

    def flops_per_iter(self) -> float:
        return self.flops_total / self.iterations

    def memory_per_proc(self, nprocs: int) -> float:
        return self.memory_total / nprocs + PROC_OVERHEAD_BYTES

    def face_bytes(self, nprocs: int) -> float:
        """Logical halo-face size for a 2D pencil decomposition: a strip of
        5 components x 8 bytes along one local edge x full depth."""
        px, py = grid_2d(nprocs)
        n1, n2, n3 = self.grid
        return (n1 / px) * n3 * 5 * 8.0


def _lu(klass, n, iters, flops, mem, sim):
    return NasSpec("LU", klass, (n, n, n), iters, flops, mem, sim)


#: Calibrated against the paper's native runtimes (§6.1 MGHPCC at
#: ~1.4 GF/core effective; §6.2/6.3 Buffalo CCR at ~0.85 GF/core).
NAS = {
    ("LU", "A"): _lu("A", 64, 250, 6.5e10, 44e6, 8),
    ("LU", "B"): _lu("B", 102, 250, 2.6e11, 179e6, 8),
    ("LU", "C"): _lu("C", 162, 250, 1.55e12, 717e6, 8),
    ("LU", "D"): _lu("D", 408, 300, 2.55e13, 11.4e9, 8),
    ("LU", "E"): _lu("E", 1020, 300, 4.1e14, 179e9, 6),
    ("EP", "D"): NasSpec("EP", "D", (2 ** 12, 2 ** 12, 2 ** 12), 16,
                         5.9e12, 0.0, 8),   # EP memory is per-proc only
    ("BT", "C"): NasSpec("BT", "C", (162, 162, 162), 200, 1.68e12, 1.2e9, 6),
    ("SP", "C"): NasSpec("SP", "C", (162, 162, 162), 400, 1.75e12, 0.9e9, 6),
    ("FT", "B"): NasSpec("FT", "B", (512, 256, 256), 20, 4.1e11, 2.1e9, 4),
}


def grid_2d(nprocs: int) -> Tuple[int, int]:
    """Closest-to-square 2D factorization (NAS LU's pencil layout)."""
    px = int(math.sqrt(nprocs))
    while nprocs % px:
        px -= 1
    return px, nprocs // px


def alloc_scaled(ctx, name: str, logical_bytes: float,
                 real_cap: int = 65536):
    """Allocate a region of at most ``real_cap`` real bytes standing for
    ``logical_bytes`` on the paper's testbed.  Adopts an existing mapping
    of the same size, so a kernel re-run against a restored checkpoint
    image (chaos recovery) picks up its data instead of segfaulting."""
    real = int(min(max(4096, logical_bytes), real_cap))
    real = (real // 8) * 8
    scale = max(1.0, logical_bytes / real)
    return ctx.memory.ensure(name, real, repr_scale=scale, tag="nas-data")


@dataclass
class NasResult:
    """What a NAS kernel returns."""

    benchmark: str
    klass: str
    rank: int
    nprocs: int
    t_init: float        # job-relative time when the timed loop started
    loop_seconds: float  # simulated time of the iters_sim loop
    iters_sim: int
    iterations: int      # official count
    checksum: float
    #: optional (iteration, sim-time) stamps for rate analysis across a
    #: mid-run migration (Tables 8/9)
    marks: list = None

    def projected_runtime(self, t_start: float = 0.0) -> float:
        """Full-benchmark runtime: (init - job start) + loop scaled to the
        official iteration count (per-iteration fidelity is exact)."""
        return (self.t_init - t_start) + self.loop_seconds * (
            self.iterations / self.iters_sim)


def interconnect_profile(ctx) -> Tuple[float, float]:
    """(per-message latency, per-byte cost) of the interconnect this
    process is *currently* on — InfiniBand normally; verbs-over-TCP on
    GigE after an IB2TCP migration (kernel TCP + the plugin's in-memory
    copies), doubled for loopback when the whole job shares one node."""
    node = ctx.proc.node
    if node.hca is not None:
        return 3.2e-6, 1.0 / 3.2e9
    latency = 2.1e-4
    per_byte = 6.5e-8
    if len(node.processes) >= 2:  # multiple ranks: loopback
        latency += 2.0e-4
        per_byte *= 3.0
    return latency, per_byte


def post_restart_rate(marks, t_after: float):
    """Per-iteration seconds measured from the marks taken after
    ``t_after`` (used to project a migrated run's steady-state runtime)."""
    tail = [(i, t) for i, t in marks if t >= t_after]
    if len(tail) < 2:
        raise ValueError("not enough post-restart iterations to measure")
    (i0, t0), (i1, t1) = tail[0], tail[-1]
    return (t1 - t0) / (i1 - i0)
