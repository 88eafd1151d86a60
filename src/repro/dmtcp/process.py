"""Per-process checkpoint machinery: the application context, the
checkpoint-manager thread, and the continuation hand-off used at restart.

The *continuation* (the live user-thread generators plus the plugin objects
and the address space) is the simulation's stand-in for what real DMTCP
captures as thread stacks + registers + heap: everything those generators
can observe is either restored memory or virtualized plugin state, so
resuming them against re-created real resources is exactly the paper's
transparency claim (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generator, List, Optional

from .. import hooks
from ..hardware.node import ProcessHost
from ..hardware.storage import QuotaExceededError
from ..memory import AddressSpace
from ..sim import Environment, Event, Process
from .coordinator import CoordinatorClient
from .config import RunConfig
from .events import DmtcpEvent
from .image import CheckpointImage
from .plugin import Plugin
from .sink import PutResult

__all__ = ["AppContext", "DmtcpProcess", "Continuation", "CheckpointRecord"]


class AppContext:
    """What the application code sees: its process, libraries, and clock.

    The ``proc`` binding is swapped at restart (new host, new pid) — but
    everything the app caches from here (virtual structs, memory regions)
    stays valid, which is the plugin's whole job.
    """

    def __init__(self, proc: ProcessHost, name: str, rank: int = 0,
                 world: int = 1):
        self.proc = proc
        self.name = name
        self.rank = rank
        self.world = world
        self.done: Event = proc.env.event()
        self.restarts = 0
        # callbacks run after a restart completes (before threads thaw);
        # runtimes use this to re-create OS resources DMTCP does not
        # virtualize here (e.g. listening TCP sockets — real DMTCP's
        # socket plugin, which is prior work and out of scope)
        self.on_restart: List[Callable[["AppContext"], None]] = []
        #: the MPI runtime's endpoint and communicator, set by the rank's
        #: main (the CRS baseline tears the BTL down through them)
        self.btl = None
        self.comm = None

    @property
    def env(self) -> Environment:
        return self.proc.env

    @property
    def memory(self) -> AddressSpace:
        return self.proc.memory

    @property
    def libs(self) -> Dict[str, Any]:
        return self.proc.libs

    @property
    def ibv(self):
        return self.proc.libs["ibverbs"]

    def compute(self, flops: float = 0.0, seconds: float = 0.0):
        return self.proc.compute(flops=flops, seconds=seconds)

    def sleep(self, seconds: float):
        return self.env.timeout(seconds)

    def exit(self, value: Any = None) -> None:
        if not self.done.triggered:
            self.done.succeed(value)

    def close(self) -> None:
        """The job is over: let go of the runtime hung on this context.
        The communicator, the BTL and the restart hooks all point back
        here, so keeping them would keep the whole rank alive."""
        if self.comm is not None:
            self.comm.close()
        self.btl = self.comm = None
        self.on_restart.clear()


@dataclass
class Continuation:
    """The unpicklable half of a checkpoint: live generators + plugins."""

    name: str
    rank: int
    appctx: AppContext
    user_threads: List[Process]
    plugins: List[Plugin]
    memory: AddressSpace


@dataclass
class CheckpointRecord:
    """Where one process's image landed, plus its continuation."""

    name: str
    rank: int
    node_index: int
    path: str
    disk_kind: str
    #: the captured image.  After a monolithic file write it keeps only
    #: its metadata and region layout — ``blob`` holds the bytes; store
    #: and migrate captures keep their region bytes here (the seed of an
    #: incremental chaos restart, only ever a capture's ``prev``, keeps
    #: neither).  Read the bytes through :meth:`image_with_bytes`
    image: CheckpointImage
    continuation: Continuation
    ckpt_seconds: float = 0.0
    #: absolute store epoch when the image landed in a chunk store
    #: (0 = a monolithic file write, or nothing landed)
    epoch: int = 0
    #: the serialised image exactly as the monolithic write put it on
    #: disk: the one copy of a file-mode checkpoint's bytes, which
    #: staging copies as is (``None`` when nothing was written as one
    #: file: store and migrate captures)
    blob: Optional[bytes] = None

    def image_with_bytes(self) -> CheckpointImage:
        """The image with its region bytes: ``image`` itself, or a fresh
        decode of ``blob`` when ``image`` kept only its layout.  The
        caller owns a decoded image; drop it once its bytes are used."""
        if self.blob is None:
            return self.image
        return CheckpointImage.from_bytes(self.blob)

    def reseed(self, image: CheckpointImage,
               memory: AddressSpace) -> "CheckpointRecord":
        """The seed of the incremental chain a restart from this record
        continues: ``image`` (this record's, just restored into
        ``memory``, which bumped every stamp) resynced to ``memory``'s
        stamps, so the next capture skips what the job leaves clean.
        Like a file-mode record it keeps only metadata and layout."""
        for region in memory:
            pm = image.region_meta.get(region.name)
            if pm is not None:
                pm["generation"] = region.generation
                pm["chunk_gens"] = region.chunk_gens.tobytes()
        image.drop_bytes()
        return replace(self, image=image)


def _app_main(appctx: AppContext, app_factory) -> Generator:
    """The main thread's body.  It holds the context, not the
    :class:`DmtcpProcess`: a restarted rank's main thread is this same
    generator, and must not keep the process object of the generation
    it was checkpointed in (or, through it, the torn-down host) alive."""
    value = yield from app_factory(appctx)
    appctx.exit(value)
    return value


class DmtcpProcess:
    """One application process running under dmtcp_launch."""

    def __init__(self, host: ProcessHost, name: str, rank: int, world: int,
                 plugins: List[Plugin], *, sink, config: RunConfig,
                 node_index: int = 0):
        self.host = host
        self.env = host.env
        self.name = name
        self.rank = rank
        self.world = world
        self.plugins = plugins
        #: the job's launch config (DESIGN.md §7, "One run config")
        self.config = config
        self.node_index = node_index
        #: the checkpoint sink every image lands in (DESIGN.md §15): image
        #: files, or content-addressed chunks whose async replication is
        #: the coordinator's job
        self.sink = sink
        self.appctx = AppContext(host, name, rank, world)
        self.user_threads: List[Process] = []
        self.client: Optional[CoordinatorClient] = None
        self.manager: Optional[Process] = None
        self.last_record: Optional[CheckpointRecord] = None
        #: structured storage failure of the most recent checkpoint round
        #: (e.g. QuotaExceededError from a saturated shared tier); the
        #: session re-raises it so supervisors see tier/tenant detail
        self.ckpt_error: Optional[BaseException] = None
        host.compute_tax = config.costs.compute_tax

    # -- launch ------------------------------------------------------------------

    def launch(self, coord_host: str, coord_port: int,
               app_factory: Callable[[AppContext], Generator]) -> Generator:
        """Process generator: connect to the coordinator, install plugins,
        start the app (run by dmtcp_launch)."""
        self.client = yield from CoordinatorClient.connect(
            self.host.node, coord_host, coord_port, self.name)
        # interposition warm-up: wrapper installation, /proc scan, handshake
        yield self.host.compute(
            seconds=self.config.costs.startup_overhead(self.world))
        for plugin in self.plugins:
            # bound once: a wrapped call reads the plugin's own costs
            plugin.costs = self.config.costs
            plugin.install(self.appctx)
            plugin.event(DmtcpEvent.INIT)
        main = self.host.spawn_thread(
            _app_main(self.appctx, app_factory), name=f"{self.name}.main")
        self.user_threads.append(main)
        self.manager = self.host.spawn_thread(
            self._manager(), name=f"{self.name}.ckptmgr")

    # -- checkpoint manager thread ---------------------------------------------------

    def _manager(self) -> Generator:
        while True:
            msg = yield self.client.recv()
            if msg["op"] == "checkpoint":
                yield from self._do_checkpoint(msg["intent"],
                                               msg.get("epoch", 0))
            else:  # pragma: no cover - protocol bug
                raise AssertionError(f"ckptmgr got {msg}")

    def _do_checkpoint(self, intent: str, epoch: int = 0) -> Generator:
        t0 = self.env.now
        self.ckpt_error = None
        tracer = hooks.tracer
        gen = self.appctx.restarts
        ckpt_span = quiesce_span = None
        if tracer is not None:
            ckpt_span = tracer.begin("ckpt", self.name, t0, epoch=epoch,
                                     intent=intent, gen=gen)
            quiesce_span = tracer.begin("ckpt.quiesce", self.name, t0,
                                        epoch=epoch, gen=gen)
        # 1. quiesce user threads — every live thread of the process except
        # the checkpoint manager itself (runtimes spawn helpers: progress
        # engines, rendezvous puts, accept loops)
        self.user_threads = [t for t in self.host.threads
                             if t is not self.manager and t.is_alive]
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.PRESUSPEND)
        for thread in self.user_threads:
            if thread.is_alive:
                thread.suspend()
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.SUSPEND)
        yield from self.client.barrier("suspended")
        drain_span = None
        if tracer is not None:
            tracer.end(quiesce_span, self.env.now)
            drain_span = tracer.begin("ckpt.drain", self.name,
                                      self.env.now, epoch=epoch, gen=gen)

        # 2. drain the completion queues until the whole job is quiet
        #    (§3 Principle 4 + §4 settle loop, made global via coordinator)
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.PRECHECKPOINT)
        while True:
            count = 0
            for plugin in self.plugins:
                count += plugin.drain_round()
            # the settle wait is pure simulated time (costs.drain_settle
            # through the sim clock): deterministic under test, traced as
            # its own span
            settle_span = None if tracer is None else tracer.begin(
                "drain.settle", self.name, self.env.now, epoch=epoch)
            yield self.env.timeout(self.config.costs.drain_settle)
            if tracer is not None:
                tracer.end(settle_span, self.env.now)
            for plugin in self.plugins:
                count += plugin.drain_round()
            done = yield from self.client.drain_status(count)
            if done:
                break
        if tracer is not None:
            # the coordinator declared every CQ of every process quiet:
            # the Principle-4 precondition for capture
            tracer.emit("drain.quiesce", self.name, self.env.now,
                        epoch=epoch, gen=gen,
                        cqs=sum(len(getattr(p, "cqs", ()))
                                for p in self.plugins))
            tracer.end(drain_span, self.env.now)

        # 3. write the image — the incremental pipeline
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.WRITE_CKPT)
        hca_vendor = None
        for plugin in self.plugins:
            hca_vendor = plugin.image_metadata().get("hca_vendor",
                                                     hca_vendor)
        config = self.config
        prev = self.last_record.image \
            if (config.incremental and self.last_record is not None) else None
        capture_span = None if tracer is None else tracer.begin(
            "ckpt.capture", self.name, self.env.now, epoch=epoch, gen=gen)
        image = CheckpointImage.capture(
            proc_name=self.name, pid=self.host.pid,
            kernel_version=self.host.node.kernel_version,
            hca_vendor=hca_vendor, memory=self.host.memory,
            gzip=config.gzip, header_bytes=config.costs.image_header_bytes,
            prev=prev, t_sim=self.env.now)
        if tracer is not None:
            cstats = image.capture_stats
            # chunk-level dirty accounting (metrics always; span attrs
            # only in incremental mode so full-mode golden traces keep
            # their schema)
            for key in ("chunks_clean", "chunks_dirty"):
                amount = cstats.get(key, 0)
                if amount:
                    tracer.metrics.counter("ckpt." + key).inc(amount)
            chunk_attrs = {} if prev is None else {
                "chunks": cstats.get("chunks_total", 0),
                "chunks_dirty": cstats.get("chunks_dirty", 0)}
            tracer.end(capture_span, self.env.now,
                       mode=cstats.get("mode", "full"),
                       regions_dirty=cstats.get("regions_dirty", 0),
                       regions_clean=cstats.get("regions_clean_gen", 0),
                       **chunk_attrs)
        stall = config.costs.gzip_stall_factor() if config.gzip else 1.0
        # a live migration's stop-and-copy capture writes nothing: the
        # image stays in memory and the migration manager ships the final
        # dirty delta over the wire itself
        put = PutResult(epoch=0, manifest_path="")
        chunks = {}
        if intent != "migrate":
            tag = {"store": True} if self.sink.chunked else {}
            write_span = None if tracer is None else tracer.begin(
                "ckpt.write", self.name, self.env.now, epoch=epoch,
                gen=gen, **tag)
            try:
                put = yield from self.sink.put_image(
                    rank=self.rank, node_index=self.node_index,
                    epoch=epoch, image=image, stall=stall)
            except QuotaExceededError as exc:
                # a full disk or saturated tier must not strand the gang:
                # remember the structured error, keep walking the barrier
                # protocol so peers finish their round, and let the
                # session raise it
                self.ckpt_error = exc
                if tracer is not None:
                    tracer.end(write_span, self.env.now, stall=stall,
                               **tag, error="quota")
            else:
                if self.sink.chunked:
                    chunks = {"chunks_new": put.chunks_new,
                              "chunks_deduped": put.chunks_deduped}
                if tracer is not None:
                    tracer.end(write_span, self.env.now, stall=stall,
                               logical=put.bytes_written, **tag, **chunks)
        yield from self.client.barrier("written")

        ckpt_seconds = self.env.now - t0
        if tracer is not None:
            tracer.end(ckpt_span, self.env.now,
                       ckpt_seconds=ckpt_seconds)
        if self.ckpt_error is None:
            self.last_record = CheckpointRecord(
                name=self.name, rank=self.rank,
                node_index=self.node_index, path=put.manifest_path,
                disk_kind=put.disk_kind, image=image,
                continuation=Continuation(
                    name=self.name, rank=self.rank, appctx=self.appctx,
                    user_threads=list(self.user_threads),
                    plugins=self.plugins,
                    memory=self.host.memory),
                ckpt_seconds=ckpt_seconds, epoch=put.epoch, blob=put.blob)
        cstats = image.capture_stats
        stats = {"name": self.name, "node": self.host.node.name,
                 "epoch": epoch,
                 "ckpt_seconds": ckpt_seconds,
                 "image_logical_bytes": image.logical_size,
                 "image_real_bytes": put.bytes_real,
                 "mode": cstats.get("mode", "full"),
                 "regions_dirty": cstats.get("regions_dirty", 0),
                 "regions_clean": cstats.get("regions_clean_gen", 0),
                 "delta_logical_bytes": image.delta_logical_size,
                 "chunks_total": cstats.get("chunks_total", 0),
                 "chunks_clean": cstats.get("chunks_clean", 0),
                 "chunks_dirty": cstats.get("chunks_dirty", 0)}
        if chunks:
            stats["store_chunks_new"] = put.chunks_new
            stats["store_chunks_deduped"] = put.chunks_deduped
            stats["store_bytes_written"] = put.bytes_written
        if self.ckpt_error is not None:
            stats["error"] = repr(self.ckpt_error)
        yield from self.client.ckpt_done(stats)

        # 4. resume, or stay frozen for the restart flow
        if intent == "resume":
            for plugin in self.plugins:
                plugin.event(DmtcpEvent.RESUME)
                plugin.event(DmtcpEvent.THREAD_RESUME)
            for thread in self.user_threads:
                if thread.is_alive:
                    thread.unsuspend()

    def close(self) -> None:
        """The job is over (finished, failed for good, or crashed with
        nothing to revive): close the plugins and the application context,
        so the rank is freed by reference counting alone.  A frozen
        continuation is closed only by the generation that ends the job."""
        for plugin in self.plugins:
            plugin.close()
        self.appctx.close()

    # -- restart ------------------------------------------------------------------

    def detach_continuation(self) -> Continuation:
        """Remove the user threads from the host so a cluster teardown
        kills everything *except* the frozen computation (whose state is,
        conceptually, in the image)."""
        cont = self.last_record.continuation
        for thread in cont.user_threads:
            if thread in self.host.threads:
                self.host.release_thread(thread)
        return cont

    @classmethod
    def restart(cls, host: ProcessHost, record: CheckpointRecord,
                image: CheckpointImage, node_index: int, *, sink,
                config: RunConfig) -> "DmtcpProcess":
        """Build the restarted process object on node ``node_index`` of
        the new cluster (dmtcp_restart runs :meth:`restart_flow` on it
        afterwards)."""
        cont = record.continuation
        proc = cls(host, name=cont.name, rank=cont.rank,
                   world=cont.appctx.world, plugins=cont.plugins,
                   sink=sink, config=config, node_index=node_index)
        # the restored process lives at the original virtual addresses:
        # adopt the old address space and overwrite it with image bytes
        image.restore_memory(cont.memory)
        host.memory = cont.memory
        proc.appctx = cont.appctx
        proc.appctx.proc = host
        proc.appctx.restarts += 1
        proc.user_threads = cont.user_threads
        proc.last_record = record.reseed(image, cont.memory) \
            if config.incremental else record
        return proc

    def restart_flow(self, coord_host: str, coord_port: int) -> Generator:
        """Process generator: the RESTART protocol (hooks + ns exchange)."""
        tracer = hooks.tracer
        restart_span = None if tracer is None else tracer.begin(
            "restart", self.name, self.env.now, gen=self.appctx.restarts)
        self.client = yield from CoordinatorClient.connect(
            self.host.node, coord_host, coord_port, self.name)
        # mtcp_restart process bring-up (constant, image-size-independent)
        yield self.host.compute(seconds=self.config.costs.restart_base)
        # phase 1: recreate local resources (new real ids)
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.RESTART)
        # publish new real ids, global barrier, fetch everyone's
        entries: Dict[str, Any] = {}
        for plugin in self.plugins:
            for key, value in plugin.ns_publish().items():
                entries[f"{plugin.name}:{key}"] = value
        # the process's new hostname, for runtimes whose out-of-band
        # directories went stale with the old cluster
        entries[f"__host:{self.name}"] = self.host.node.name
        yield from self.client.publish(entries)
        yield from self.client.barrier("restart-ns")
        # one read-only view, shared by every rank of the job
        db = yield from self.client.query_all("")
        self.appctx.restart_db = db
        for plugin in self.plugins:
            plugin.ns_receive(db.section(plugin.name))
        # phase 2: replay logs against the re-created resources
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.RESTART_REPLAY)
        yield from self.client.barrier("restart-done")
        for plugin in self.plugins:
            plugin.event(DmtcpEvent.THREAD_RESUME)
        for hook in self.appctx.on_restart:
            hook(self.appctx)
        # adopt and thaw the continuation's threads
        for thread in self.user_threads:
            if thread.is_alive:
                self.host.adopt_thread(thread)
                thread.unsuspend()
        self.manager = self.host.spawn_thread(
            self._manager(), name=f"{self.name}.ckptmgr")
        if tracer is not None:
            tracer.end(restart_span, self.env.now)
