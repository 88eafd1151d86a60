"""dmtcp_launch / dmtcp_restart analogues, plus a plugin-free native
launcher for baseline timing.

Launch and every restart build their job with one skeleton,
:func:`_build_job`; they differ only in the strategy that brings a rank
up (DESIGN.md §7, "One job skeleton")."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..hardware.cluster import Cluster
from ..sim import Environment
from .coordinator import Coordinator
from .config import RunConfig
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
    """A full distributed checkpoint: per-process records + wall time,
    and the launch config every restart of it runs under."""

    records: List[CheckpointRecord]
    wall_seconds: float
    config: RunConfig

    @property
    def total_logical_bytes(self) -> float:
        return sum(r.image.logical_size for r in self.records)


class DmtcpSession:
    """A running dmtcp_launch'd job, under its launch config."""

    def __init__(self, env: Environment, cluster: Cluster,
                 coordinator: Coordinator, procs: List[DmtcpProcess],
                 config: RunConfig):
        self.env = env
        self.cluster = cluster
        self.coordinator = coordinator
        self.procs = procs
        self.config = config

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
        yield from self.coordinator.checkpoint_all(intent)
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
        return CheckpointSet(records=records, wall_seconds=wall,
                             config=self.config)


def _build_job(cluster: Cluster, entries: Sequence, bring_up, label: str,
               *, sink, config: RunConfig,
               node_map: Optional[Dict[int, int]] = None,
               coord_node_index: int = 0,
               tracker: Optional[JobTracker] = None) -> Generator:
    """Process generator: the one job skeleton.  Each entry (an
    :class:`AppSpec` or a :class:`CheckpointRecord`) gets a host on node
    ``node_map.get(i, i % n)`` for its node index ``i``, and a flow that
    runs ``bring_up(entry, host, dst_index)`` — a generator returning the
    rank's :class:`DmtcpProcess` and its start protocol — then that
    protocol against the coordinator.  The first flow to raise kills the
    other live flows, then re-raises.  Returns the :class:`DmtcpSession`,
    in entry order."""
    from ..ibverbs import VerbsLib  # local import to avoid cycles

    env = cluster.env
    coordinator = Coordinator(cluster.nodes[coord_node_index],
                              expected_clients=len(entries), sink=sink)
    if tracker is not None:
        tracker.coordinator = coordinator
    procs: List[Optional[DmtcpProcess]] = [None] * len(entries)
    flows: List = []

    def flow(i, entry, host, dst_index):
        try:
            proc, start = yield from bring_up(entry, host, dst_index)
            procs[i] = proc
            if tracker is not None:
                tracker.ranks.append(proc)
            yield from start(coordinator.node.name, coordinator.port)
        except Exception:
            # all_of stops watching after its first failure: a second
            # failing rank would escape env.run
            for other in flows:
                if other is not flows[i] and other.is_alive:
                    other.kill()
            raise

    for i, entry in enumerate(entries):
        dst_index = (node_map or {}).get(
            entry.node_index, entry.node_index % len(cluster.nodes))
        host = cluster.nodes[dst_index].fork(entry.name)
        host.libs["ibverbs"] = VerbsLib(host)
        flows.append(env.process(flow(i, entry, host, dst_index),
                                 name=f"{label}.{entry.name}"))
    if tracker is not None:
        tracker.procs.extend(flows)
    yield env.all_of(flows)
    return DmtcpSession(env, cluster, coordinator, procs, config)


def _fresh(world: int, plugin_factory: Callable[[], list], *, sink,
           config: RunConfig):
    """The *fresh* strategy: a new process with new plugins that launches
    its spec's factory."""

    def bring_up(spec, host, dst_index):
        yield from ()  # a new process waits for nothing before its launch
        proc = DmtcpProcess(host, spec.name, spec.rank, world,
                            plugin_factory(), sink=sink, config=config,
                            node_index=dst_index)
        return proc, partial(proc.launch, app_factory=spec.factory)

    return bring_up


def _rerun(specs: Sequence[AppSpec], world: int, *, sink,
           plugin_factory: Callable[[], list], config: RunConfig,
           generation: int, load=None):
    """The *re-run* strategy, for a crashed job whose generators are gone:
    restore the image's memory, pay the mtcp_restart-equivalent bring-up,
    then launch the rank's factory fresh (it must speak the
    :mod:`repro.faults.progress` protocol).  ``load(record, dst_index)``
    is a generator returning the image with its bytes: by default the
    timed fetch from ``sink``."""
    fresh = _fresh(world, plugin_factory, sink=sink, config=config)
    spec_by_rank = {spec.rank: spec for spec in specs}

    def fetch(record, dst_index):
        return sink.fetch_image(record.name, epoch=record.epoch or None,
                                via_node_index=dst_index)

    load = load or fetch

    def bring_up(record, host, dst_index):
        image = yield from load(record, dst_index)
        image.restore_memory(host.memory)
        seed = record.reseed(image, host.memory) \
            if config.incremental else None
        # memory is restored: the decoded image must not live on in this
        # frame for as long as the restarted rank runs
        del image
        yield host.compute(seconds=config.costs.restart_base)
        proc, start = yield from fresh(spec_by_rank[record.rank], host,
                                       dst_index)
        proc.appctx.restarts = generation - 1
        if seed is not None:
            proc.last_record = seed
        return proc, start

    return bring_up


def dmtcp_launch(cluster: Cluster, specs: Sequence[AppSpec],
                 plugin_factory: Callable[[], list] = lambda: [],
                 config: RunConfig = RunConfig(),
                 coord_node_index: int = 0,
                 tracker: Optional[JobTracker] = None,
                 sink=None) -> Generator:
    """Process generator: start a coordinator and all processes under it.

    Every process's library table is populated (ibverbs when the node has
    an HCA) and then handed to freshly constructed plugins to interpose on.
    The job runs under ``config`` from here on, restarts included.
    Checkpoints land in ``sink`` (DESIGN.md §15; by default
    ``config.sink_factory(cluster)``: image files in ``/tmp`` on each
    node's local disk).
    """
    if sink is None:
        sink = config.sink_factory(cluster)
    fresh = _fresh(len(specs), plugin_factory, sink=sink, config=config)
    return (yield from _build_job(
        cluster, specs, fresh, "launch", sink=sink, config=config,
        coord_node_index=coord_node_index, tracker=tracker))


def dmtcp_restart(cluster: Cluster, ckpt_set: CheckpointSet,
                  node_map: Optional[Dict[int, int]] = None,
                  coord_node_index: int = 0,
                  stage_images: bool = True,
                  tracker: Optional[JobTracker] = None,
                  sink=None, preloaded: bool = False) -> Generator:
    """Process generator: restart a CheckpointSet on ``cluster`` (the same
    one or a different one — different LIDs, different qp_nums, possibly a
    different kernel or no InfiniBand at all), under the config the job
    was launched with (``ckpt_set.config``).

    ``stage_images`` first copies the images into ``sink`` on ``cluster``;
    each process then fetches its image from ``sink`` and checkpoints into
    it afterwards.  With no ``sink``, the restart reads and writes image
    files where the records were written.

    ``preloaded`` skips both staging and the image read: the records'
    in-memory images are restored directly.  That is the migration
    manager's restart — the bytes already crossed the wire during
    pre-copy/stop-and-copy, so charging a disk read would double-bill.
    """
    if sink is None:
        sink = FileSink.where_written(cluster, ckpt_set)
    if stage_images and not preloaded:
        sink.stage_from(ckpt_set, node_map)

    def revive(record, host, dst_index):
        # the *revive* strategy: the frozen continuation comes back and
        # runs the RESTART protocol
        if preloaded:
            image = record.image_with_bytes()
        else:
            image = yield from sink.fetch_image(
                record.name, epoch=record.epoch or None,
                via_node_index=dst_index)
        proc = DmtcpProcess.restart(host, record, image, dst_index,
                                    sink=sink, config=ckpt_set.config)
        return proc, proc.restart_flow

    return (yield from _build_job(
        cluster, ckpt_set.records, revive, "restart", sink=sink,
        config=ckpt_set.config, node_map=node_map,
        coord_node_index=coord_node_index, tracker=tracker))


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
