"""dmtcp_launch / dmtcp_restart analogues, plus a plugin-free native
launcher for baseline timing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..hardware.cluster import Cluster
from ..sim import Environment
from .coordinator import Coordinator
from .costs import CostModel, DEFAULT_COSTS
from .process import AppContext, CheckpointRecord, DmtcpProcess
from .sink import FileSink

__all__ = [
    "AppSpec",
    "CheckpointSet",
    "DmtcpSession",
    "JobTracker",
    "dmtcp_launch",
    "dmtcp_restart",
    "native_launch",
    "NativeSession",
]


@dataclass
class JobTracker:
    """Handles on a launch/restart in progress, for fault-time cleanup.

    ``dmtcp_launch``/``dmtcp_restart`` run per-process flows as
    environment-level processes; if the cluster dies mid-flow those
    processes would eventually fail (e.g. a SYN retry loop timing out into
    a torn-down network) with nobody observing.  A supervisor that passes a
    tracker can :meth:`kill_all` to reap them deterministically, and
    :meth:`close` the job's ranks once the job is over.
    """

    coordinator: Optional[Coordinator] = None
    procs: List = field(default_factory=list)
    #: the DMTCP processes the launch/restart has built so far
    ranks: List[DmtcpProcess] = field(default_factory=list)

    def kill_all(self) -> None:
        for proc in self.procs:
            if proc.is_alive:
                proc.kill()
        self.procs.clear()
        if self.coordinator is not None:
            self.coordinator.shutdown()

    def close(self) -> None:
        """The job is over: reap the flows and close every rank (see
        :meth:`DmtcpProcess.close`).  Not for a preemption or migration
        freeze, whose continuations a restart revives."""
        self.kill_all()
        for rank in self.ranks:
            rank.close()
        self.ranks.clear()


@dataclass
class AppSpec:
    """One process to launch: which node, its name/rank, and its code."""

    node_index: int
    name: str
    factory: Callable[[AppContext], Generator]
    rank: int = 0


@dataclass
class CheckpointSet:
    """A full distributed checkpoint: per-process records + wall time."""

    records: List[CheckpointRecord]
    wall_seconds: float
    stats: List[dict]

    @property
    def total_logical_bytes(self) -> float:
        return sum(r.image.logical_size for r in self.records)

    @property
    def regions_dirty(self) -> int:
        return sum(s.get("regions_dirty", 0) for s in self.stats)

    @property
    def regions_clean(self) -> int:
        return sum(s.get("regions_clean", 0) for s in self.stats)


class DmtcpSession:
    """A running dmtcp_launch'd job."""

    def __init__(self, env: Environment, cluster: Cluster,
                 coordinator: Coordinator, procs: List[DmtcpProcess],
                 costs: CostModel):
        self.env = env
        self.cluster = cluster
        self.coordinator = coordinator
        self.procs = procs
        self.costs = costs

    def wait(self) -> Generator:
        """Process generator: waits for every app to call exit()."""
        results = []
        for proc in self.procs:
            value = yield proc.appctx.done
            results.append(value)
        return results

    def start_interval_checkpointing(self, interval: float):
        """DMTCP's ``--interval``: checkpoint every ``interval`` simulated
        seconds until the job completes.  Returns the driver process (its
        value is the list of CheckpointSets taken)."""

        def driver():
            taken = []
            all_done = self.env.all_of([p.appctx.done for p in self.procs])
            while not all_done.triggered:
                timer = self.env.timeout(interval)
                yield self.env.any_of([timer, all_done])
                if all_done.triggered:
                    break
                taken.append((yield from self.checkpoint(intent="resume")))
            return taken

        return self.env.process(driver(), name="dmtcp.interval")

    def checkpoint(self, intent: str = "resume") -> Generator:
        """Process generator: take a global checkpoint.

        intent="resume"  — processes continue afterwards.
        intent="restart" — processes stay frozen; returns a CheckpointSet
        whose continuations dmtcp_restart can revive (tear the cluster down
        in between to model failure/migration).
        intent="migrate" — like "restart" but nothing is written: the
        images stay in memory for the migration manager's stop-and-copy.
        """
        t0 = self.env.now
        stats = yield from self.coordinator.checkpoint_all(intent)
        wall = self.env.now - t0
        # a structured storage failure (saturated tier) aborts the round:
        # every rank finished its barrier protocol (resumed under
        # intent="resume"), so re-raising here is safe and carries the
        # tier/tenant/byte detail to the supervising harness
        for proc in self.procs:
            if proc.ckpt_error is not None:
                raise proc.ckpt_error
        records = [p.last_record for p in self.procs]
        if intent in ("restart", "migrate"):
            for proc in self.procs:
                proc.detach_continuation()
        return CheckpointSet(records=records, wall_seconds=wall, stats=stats)


def dmtcp_launch(cluster: Cluster, specs: Sequence[AppSpec],
                 plugin_factory: Callable[[], list] = lambda: [],
                 costs: CostModel = DEFAULT_COSTS, gzip: bool = True,
                 coord_node_index: int = 0,
                 tracker: Optional[JobTracker] = None,
                 incremental: bool = False, sink=None) -> Generator:
    """Process generator: start a coordinator and all processes under it.

    Every process's library table is populated (ibverbs when the node has
    an HCA) and then handed to freshly constructed plugins to interpose on.
    Checkpoints land in ``sink`` (DESIGN.md §15; by default image files
    in ``/tmp`` on each node's local disk).
    """
    from ..ibverbs import VerbsLib  # local import to avoid cycles

    env = cluster.env
    if sink is None:
        sink = FileSink(cluster)
    coordinator = Coordinator(cluster.nodes[coord_node_index],
                              expected_clients=len(specs), sink=sink)
    if tracker is not None:
        tracker.coordinator = coordinator
    procs: List[DmtcpProcess] = []
    world = len(specs)
    launch_events = []
    for spec in specs:
        node = cluster.nodes[spec.node_index]
        host = node.fork(spec.name)
        host.libs["ibverbs"] = VerbsLib(host)
        plugins = plugin_factory()
        proc = DmtcpProcess(host, spec.name, spec.rank, world, plugins,
                            sink=sink, costs=costs, gzip=gzip,
                            node_index=spec.node_index,
                            incremental=incremental)
        procs.append(proc)
        if tracker is not None:
            tracker.ranks.append(proc)
        launch_events.append(env.process(
            proc.launch(coordinator.node.name, coordinator.port,
                        spec.factory),
            name=f"launch.{spec.name}"))
    if tracker is not None:
        tracker.procs.extend(launch_events)
    yield env.all_of(launch_events)
    return DmtcpSession(env, cluster, coordinator, procs, costs)


def dmtcp_restart(cluster: Cluster, ckpt_set: CheckpointSet,
                  costs: CostModel = DEFAULT_COSTS,
                  node_map: Optional[Dict[int, int]] = None,
                  coord_node_index: int = 0,
                  stage_images: bool = True,
                  tracker: Optional[JobTracker] = None,
                  incremental: bool = False,
                  sink=None, preloaded: bool = False) -> Generator:
    """Process generator: restart a CheckpointSet on ``cluster`` (the same
    one or a different one — different LIDs, different qp_nums, possibly a
    different kernel or no InfiniBand at all).

    ``stage_images`` first copies the images into ``sink`` on ``cluster``;
    each process then fetches its image from ``sink`` and checkpoints into
    it afterwards.  With no ``sink``, the restart reads and writes image
    files where the records were written.

    ``preloaded`` skips both staging and the image read: the records'
    in-memory images are restored directly.  That is the migration
    manager's restart — the bytes already crossed the wire during
    pre-copy/stop-and-copy, so charging a disk read would double-bill.
    """
    from ..ibverbs import VerbsLib

    env = cluster.env
    if sink is None:
        sink = FileSink.where_written(cluster, ckpt_set)
    if stage_images and not preloaded:
        sink.stage_from(ckpt_set, node_map)
    coordinator = Coordinator(cluster.nodes[coord_node_index],
                              expected_clients=len(ckpt_set.records),
                              sink=sink)
    if tracker is not None:
        tracker.coordinator = coordinator
    procs_by_name: Dict[str, DmtcpProcess] = {}
    flows = []
    for record in ckpt_set.records:
        dst_index = (node_map or {}).get(
            record.node_index, record.node_index % len(cluster.nodes))
        node = cluster.nodes[dst_index]
        host = node.fork(record.name)
        host.libs["ibverbs"] = VerbsLib(host)

        def flow(record=record, host=host, dst_index=dst_index):
            if preloaded:
                image = record.image_with_bytes()
            else:
                image = yield from sink.fetch_image(
                    record.name, epoch=record.epoch or None,
                    via_node_index=dst_index)
            proc = DmtcpProcess.restart(
                host, record, image, costs,
                coordinator.node.name, coordinator.port, dst_index,
                sink=sink, incremental=incremental)
            # memory is restored: the decoded image must not live on in
            # this frame for as long as the restarted rank runs
            del image
            procs_by_name[record.name] = proc
            if tracker is not None:
                tracker.ranks.append(proc)
            yield from proc.restart_flow(coordinator.node.name,
                                         coordinator.port)

        flows.append(env.process(flow(), name=f"restart.{record.name}"))
    if tracker is not None:
        tracker.procs.extend(flows)
    yield env.all_of(flows)
    procs = [procs_by_name[r.name] for r in ckpt_set.records]
    return DmtcpSession(env, cluster, coordinator, procs, costs)


@dataclass
class NativeSession:
    """A job launched without any checkpointer (baseline timing)."""

    env: Environment
    appctxs: List[AppContext]

    def wait(self) -> Generator:
        results = []
        for ctx in self.appctxs:
            value = yield ctx.done
            results.append(value)
        return results


def native_launch(cluster: Cluster, specs: Sequence[AppSpec]) -> NativeSession:
    """Launch processes natively: no coordinator, no wrappers, no taxes."""
    from ..ibverbs import VerbsLib

    appctxs = []
    for spec in specs:
        node = cluster.nodes[spec.node_index]
        host = node.fork(spec.name)
        host.libs["ibverbs"] = VerbsLib(host)
        ctx = AppContext(host, spec.name, spec.rank, len(specs))

        def main(ctx=ctx, factory=spec.factory):
            value = yield from factory(ctx)
            ctx.exit(value)

        host.spawn_thread(main(), name=f"{spec.name}.main")
        appctxs.append(ctx)
    return NativeSession(cluster.env, appctxs)
