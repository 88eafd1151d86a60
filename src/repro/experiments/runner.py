"""Shared machinery for the per-table experiment modules: launch a NAS
workload natively / under DMTCP / under the BLCR-based CRS, optionally
checkpoint (and restart), and collect the quantities the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from ..blcr import ompi_crs_launch
from ..core import Ib2TcpPlugin, InfinibandPlugin
from ..dmtcp import RunConfig, dmtcp_restart, native_launch
from ..hardware import Cluster, HardwareSpec
from ..mpi import make_mpi_specs
from ..scenario import Scenario
from ..upc import make_upc_specs

__all__ = ["Outcome", "run_nas", "run_upc_nas"]

MB = 1e6


@dataclass
class Outcome:
    """Everything a table row might need from one run."""

    runtime: float = 0.0            # projected full-benchmark runtime (s)
    checksum: float = 0.0
    ckpt_seconds: float = 0.0       # wall time of the global checkpoint
    ckpt_image_mb: float = 0.0      # logical image size per process (MB)
    restart_seconds: float = 0.0
    results: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return len({r.checksum for r in self.results}) <= 1


def _store_stats(sink, extra: Dict[str, Any], key: str) -> Generator:
    """Process generator: once a chunk store's replication drained, keep
    its counters as ``extra[key]`` (image files keep no counters)."""
    stats = getattr(sink, "stats", None)
    if stats is not None:
        yield from sink.drain_replication()
        extra[key] = dict(stats)


def run_nas(app: Callable, spec: HardwareSpec, nprocs: int,
            ppn: Optional[int] = None, under: str = "native",
            app_kwargs: Optional[dict] = None,
            checkpoint_after: Optional[float] = None,
            restart: bool = False, config: RunConfig = RunConfig(),
            ib2tcp: bool = False, transport: str = "ib",
            seed_name: str = "") -> Outcome:
    """Run one NAS/MPI configuration end to end; returns an Outcome.

    ``under``: "native" (no checkpointer), "dmtcp" (coordinator + IB
    plugin), or "blcr" (Open MPI CRS + BLCR baseline).
    ``checkpoint_after``: simulated seconds after the *loop start proxy*
    (launch + a margin) at which to take one checkpoint.
    ``restart``: checkpoint with intent=restart, tear the cluster down,
    restart on a fresh identical cluster, and keep timing there.
    ``config`` is the run's config; its ``sink_factory`` (dmtcp only)
    builds the checkpoint sink from each cluster: image files on local
    disk by default; pass ``lambda c: FileSink(c, "lustre")`` for
    Lustre, or :class:`~repro.store.CheckpointStore` for
    content-addressed chunks whose restart fetches digest-verified
    chunks from the cheapest live tier.  A store's counters land in
    ``outcome.extra["store"]`` (and ``["store_restart"]``).
    """
    scn = Scenario(spec, nprocs,
                   seed_name or f"{spec.name}-{nprocs}-{under}", ppn=ppn,
                   config=config)
    cluster = scn.cluster()
    specs = make_mpi_specs(cluster, nprocs,
                           partial(app, **(app_kwargs or {})), ppn=scn.ppn,
                           transport=transport)
    if under != "blcr":
        plugin_factory = ((lambda: [InfinibandPlugin(
            fallback=Ib2TcpPlugin())]) if ib2tcp else None)
        return _run(scn, cluster, specs, under, checkpoint_after, restart,
                    plugin_factory)
    outcome = Outcome()
    crs = ompi_crs_launch(cluster, specs, costs=config.costs)

    def blcr_scenario():
        if checkpoint_after is not None:
            yield scn.env.timeout(config.costs.crs_startup
                                  + checkpoint_after)
            stats = yield from crs.checkpoint()
            outcome.ckpt_seconds = stats.wall_seconds
            outcome.ckpt_image_mb = (stats.total_logical_bytes
                                     / len(specs) / MB)
            outcome.extra["filem_seconds"] = stats.filem_seconds
        return (yield from crs.wait())

    return _finish(scn, outcome, scn.run(blcr_scenario()))


def run_upc_nas(app: Callable, spec: HardwareSpec, threads: int,
                ppn: Optional[int] = None, under: str = "native",
                app_kwargs: Optional[dict] = None,
                checkpoint_after: Optional[float] = None,
                restart: bool = False,
                segment_bytes: int = 1 << 20,
                segment_logical: Optional[float] = None) -> Outcome:
    """UPC variant of :func:`run_nas` (native or under DMTCP).

    ``segment_logical``: bytes the per-thread UPC shared segment stands
    for (Berkeley UPC pre-allocates the whole shared heap, so checkpoint
    images are segment-sized)."""
    scn = Scenario(spec, threads, f"{spec.name}-upc{threads}-{under}",
                   ppn=ppn)
    cluster = scn.cluster()
    segment_scale = (max(1.0, segment_logical / segment_bytes)
                     if segment_logical else 1.0)
    specs = make_upc_specs(cluster, threads,
                           partial(app, **(app_kwargs or {})),
                           segment_bytes=segment_bytes,
                           segment_scale=segment_scale, ppn=scn.ppn)
    return _run(scn, cluster, specs, under, checkpoint_after, restart)


def _run(scn: Scenario, cluster: Cluster, specs, under: str,
         checkpoint_after: Optional[float], restart: bool,
         plugin_factory: Optional[Callable[[], list]] = None) -> Outcome:
    """The native / DMTCP body :func:`run_nas` and :func:`run_upc_nas`
    share: launch ``specs`` on ``cluster``, take the one checkpoint, and
    restart on a fresh cluster when ``restart`` asks for it."""
    env, config = scn.env, scn.config
    outcome = Outcome()
    if under == "native":
        return _finish(scn, outcome,
                       scn.run(native_launch(cluster, specs).wait()))
    if under != "dmtcp":
        raise ValueError(f"unknown under={under!r}")
    sink = config.sink_factory(cluster)
    session = env.run(until=env.process(scn.launch(
        cluster, specs, plugin_factory, sink=sink)))

    def dmtcp_scenario():
        if checkpoint_after is not None:
            margin = config.costs.startup_overhead(scn.nprocs) + 0.5
            yield env.timeout(margin + checkpoint_after)
            ckpt = yield from session.checkpoint(
                intent="restart" if restart else "resume")
            outcome.ckpt_seconds = ckpt.wall_seconds
            outcome.ckpt_image_mb = (ckpt.total_logical_bytes
                                     / len(ckpt.records) / MB)
            yield from _store_stats(sink, outcome.extra, "store")
            if restart:
                sink.stop()
                cluster.teardown()
                cluster2 = scn.cluster("restarted")
                sink2 = config.sink_factory(cluster2)
                t0 = env.now
                session2 = yield from dmtcp_restart(cluster2, ckpt,
                                                    sink=sink2)
                outcome.restart_seconds = env.now - t0
                yield from _store_stats(sink2, outcome.extra,
                                        "store_restart")
                return (yield from session2.wait())
        return (yield from session.wait())

    results = scn.run(dmtcp_scenario())
    sink.stop()
    return _finish(scn, outcome, results)


def _finish(scn: Scenario, outcome: Outcome, results) -> Outcome:
    outcome.results = results
    outcome.runtime = max(r.projected_runtime() for r in results)
    outcome.checksum = results[0].checksum
    # kernel counters for obs / BENCH_sim
    outcome.extra["sim_stats"] = scn.env.stats.snapshot()
    return outcome
