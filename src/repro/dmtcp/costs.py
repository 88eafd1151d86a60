"""Calibrated cost model for the checkpoint-restart machinery.

Every constant here is a knob that the model reads; defaults are
calibrated against the paper's measurements (see EXPERIMENTS.md for the
mapping).  Benches ablate several of them.  Each image is one blocking
disk write, as in the paper's DMTCP, charged on its logical bytes (the
dirty delta when incremental, stalled by the gzip pipe).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Time costs of DMTCP interposition and checkpointing."""

    #: per intercepted verbs call (wrapper entry, id translation, logging)
    wrapper_call_overhead: float = 0.35e-6
    #: extra copy cost per logical byte moved through a wrapped post/poll
    #: (the "copying of buffers" §7 says could be tuned away)
    wrapper_byte_overhead: float = 5.0e-10
    #: multiplicative tax on compute while running under the tracer
    compute_tax: float = 0.001
    #: dmtcp_launch per-process warm-up (wrapper installation, coordinator
    #: handshake, /proc scan).  The paper derives startup overhead growing
    #: roughly as the cube root of the process count (Table 2); fitting
    #: their (64, 3.1s) and (2048, 12.9s) endpoints gives s = c * n**0.41.
    startup_base: float = 0.56
    startup_exponent: float = 0.41
    #: per-process dmtcp_restart constant: fork/exec of mtcp_restart,
    #: re-mapping memory, reopening fds (independent of image size)
    restart_base: float = 1.8
    #: settle delay between completion-queue drain rounds (§4: "waits for a
    #: fraction of a second, and then drains one more time")
    drain_settle: float = 0.5e-3
    #: fraction the dynamic-gzip pipe stalls the checkpoint write stream —
    #: gzip runs per process (one core each) so the stall does not depend
    #: on the shared disk's speed (Table 5: "less than 5%")
    gzip_stall: float = 0.042
    #: fixed per-image header/metadata bytes
    image_header_bytes: float = 64 * 1024
    #: IB2TCP: extra in-memory copy on every post while the plugin is
    #: loaded (the §6.4.1 "current implementation's use of an in-memory
    #: copy" — DMTCP/IB2TCP/IB row of Table 8)
    ib2tcp_copy_per_call: float = 0.9e-6
    ib2tcp_copy_per_byte: float = 1.1e-10
    #: IB2TCP after restart-on-Ethernet: effective per-byte cost of pushing
    #: verbs traffic through the kernel TCP stack with user-space copies
    #: (Table 8 measures ~0.1 Gbit/s against GigE's theoretical 1)
    ib2tcp_tcp_per_byte: float = 5.6e-8

    # -- Open MPI checkpoint-restart service + BLCR baseline (§6.2) ----------
    #: per-process launch cost of the CRCP coordination machinery
    crs_startup: float = 2.2
    #: compute tax of running under the CRS interposition
    crs_compute_tax: float = 0.0011
    #: FileM stage: copying local images to the central node (the phase
    #: that "serializes part of the parallel checkpoint", §6)
    ompi_filem_bw: float = 250e6
    ompi_filem_per_image: float = 0.08
    #: CRCP bookmark-exchange quiesce cost per process pair round
    crcp_quiesce_base: float = 0.3

    def startup_overhead(self, nprocs: int) -> float:
        """Per-process launch-time charge for an ``nprocs``-process job."""
        return self.startup_base * nprocs ** self.startup_exponent

    def wrapper_cost(self, logical_bytes: float = 0.0) -> float:
        return self.wrapper_call_overhead + \
            self.wrapper_byte_overhead * logical_bytes

    # -- incremental checkpoint pipeline (DESIGN.md §8) -----------------------

    def gzip_stall_factor(self) -> float:
        """Write-stream stall of the dynamic-gzip pipe: the one gzip core
        per process stalls the stream by ``gzip_stall``."""
        return 1.0 + self.gzip_stall


DEFAULT_COSTS = CostModel()
