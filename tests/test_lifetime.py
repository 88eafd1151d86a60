"""Object lifetime: a finished job is freed by reference counting alone.

``Environment.run`` widens the collector's young generation, so inside a
long run cyclic garbage is reclaimed rarely, if ever.  A job that ends
must therefore leave no reference cycle behind (DESIGN.md, "Object
lifetime").  Each case runs with the collector disabled, then collects
once under ``DEBUG_SAVEALL``: whatever lands in ``gc.garbage`` was
unreachable and kept only by a cycle.  None of it may be a job-owned
object.  On failure the message names the shortest residual cycle, edge
by edge, so a regression names the reference that closed it.

The last four cases hold checkpoint bytes to the same rule (DESIGN.md,
"Where a checkpoint's bytes live"): a file-mode record keeps only its
blob, and weak references prove every decoded image dead before its
rank's bring-up starts.
"""

import gc
import types
import weakref
from collections import Counter, deque
from contextlib import contextmanager

import pytest

from repro.apps.nas import lu_app
from repro.apps.pingpong import pingpong_app
from repro.core import Ib2TcpPlugin, InfinibandPlugin
from repro.core.ib_plugin.shadow import VirtualQp
from repro.core.ib_plugin.wrappers import WrappedVerbs
from repro.dmtcp import AppSpec, JobTracker, dmtcp_launch, dmtcp_restart
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.process import AppContext, DmtcpProcess
from repro.faults.injector import Injector
from repro.faults.recovery import RecoveryConfig, RecoveryManager
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.hardware import (BUFFALO_CCR, Cluster, DEV_CLUSTER,
                            ETHERNET_DEBUG_CLUSTER)
from repro.hardware.node import Node, ProcessHost
from repro.net.tcp import TcpStack
from repro.ibverbs.structs import ibv_recv_wr
from repro.memory import AddressSpace, Region
from repro.migrate import run_postcopy_lu
from repro.mpi import make_mpi_specs
from repro.mpi.api import Communicator
from repro.mpi.btl_ib import IbBtl
from repro.service import service_scenario
from repro.service.scheduler import pingpong_mpi_app
from repro.sim import Environment, RngFactory
from repro.store import CheckpointStore

JOB_OWNED = (ProcessHost, AppContext, DmtcpProcess, InfinibandPlugin,
             Ib2TcpPlugin, WrappedVerbs, IbBtl, Communicator, AddressSpace,
             Region, VirtualQp, ibv_recv_wr, Node, TcpStack, Cluster)


@contextmanager
def collector_off():
    """Reference counting only, from a clean slate."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage() -> list:
    """Every object that only a reference cycle keeps alive right now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)


def _edge(src, dst) -> str:
    """How ``src`` refers to ``dst``, as an attribute path fragment."""
    if isinstance(src, dict):
        for key, value in src.items():
            if value is dst:
                return f"[{key!r}]"
        return "{key}"
    if isinstance(src, (list, tuple, deque)):
        for i, value in enumerate(src):
            if value is dst:
                return f"[{i}]"
    if isinstance(src, types.MethodType):
        return ".__self__" if src.__self__ is dst else ".__func__"
    if isinstance(src, types.FunctionType):
        for name, cell in zip(src.__code__.co_freevars,
                              src.__closure__ or ()):
            if cell is dst:
                return f".<closure {name}>"
    if isinstance(src, types.CellType):
        return ".cell_contents"
    if getattr(src, "__dict__", None) is dst:
        return ".__dict__"
    for name, value in getattr(src, "__dict__", {}).items():
        if value is dst:
            return f".{name}"
    for cls in type(src).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if getattr(src, name, None) is dst:
                return f".{name}"
    return " ->"


def _shortest_cycle(start, ids):
    """Breadth-first from ``start`` through the garbage back to it."""
    parent = {id(start): None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in gc.get_referents(node):
            if nxt is start:
                path = [node]
                while parent[id(path[-1])] is not None:
                    path.append(parent[id(path[-1])])
                return path[::-1] + [start]
            if id(nxt) in ids and id(nxt) not in parent:
                parent[id(nxt)] = node
                queue.append(nxt)
    return None


def _render(path) -> str:
    out = type(path[0]).__name__
    for src, dst in zip(path, path[1:]):
        out += f"{_edge(src, dst)} -> {type(dst).__name__}"
    return out


def assert_no_job_garbage(garbage) -> None:
    leaked = [obj for obj in garbage if isinstance(obj, JOB_OWNED)]
    if not leaked:
        return
    counts = Counter(type(obj).__name__ for obj in leaked)
    ids = {id(obj) for obj in garbage}
    # one object of each leaked type, then anything else: a job object
    # is often only reachable from the cycle, not on it
    firsts = {type(obj): obj for obj in reversed(leaked)}
    cycles = (_shortest_cycle(obj, ids)
              for obj in list(firsts.values()) + garbage[:2000])
    best = min((c for c in cycles if c), key=len, default=None)
    pytest.fail(f"job-owned objects kept only by reference cycles: "
                f"{dict(counts)}\nshortest residual cycle: "
                f"{_render(best) if best else 'none found'}")


# -- the service: every finished (and every preempted) generation -------------

@pytest.mark.parametrize("quantum", [None, 0.2],
                         ids=["no-preemption", "preempted"])
def test_service_stream_frees_finished_jobs(quantum):
    with collector_off():
        run = service_scenario(seed=11, n_jobs=3, total_nodes=2,
                               quantum=quantum, mean_interarrival=0.3,
                               iters_sim=3)
        garbage = cyclic_garbage()    # while the returned run is alive
    if quantum is not None:
        assert any(o.n_preemptions for o in run["outcomes"]), \
            "scenario no longer exercises preemption"
    assert all(o.ok for o in run["outcomes"])
    assert_no_job_garbage(garbage)


# -- DMTCP: checkpoint, teardown, restart --------------------------------------

def test_restarted_job_frees_the_first_generation_and_then_itself():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="life-pp-prod")
    specs = make_mpi_specs(
        cluster, 2, lambda ctx, comm: pingpong_mpi_app(ctx, comm,
                                                       iters_sim=40))
    tracker = JobTracker()

    def frozen_and_revived():
        session = yield from dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])
        yield env.timeout(0.02)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        spare = Cluster(env, BUFFALO_CCR, n_nodes=2, name="life-pp-spare")
        session2 = yield from dmtcp_restart(spare, ckpt, tracker=tracker)
        return spare, session2

    with collector_off():
        # the first session is dropped; its ranks live on, revived
        spare, session2 = env.run(until=env.process(frozen_and_revived()))
        assert_no_job_garbage(cyclic_garbage())
        results = env.run(until=env.process(session2.wait()))
        # the job is over: close its ranks, power the spare off, let go
        tracker.close()
        spare.teardown()
        del spare, session2
        garbage = cyclic_garbage()
    assert [r.iterations for r in results] == [40, 40]
    assert_no_job_garbage(garbage)


def test_job_restarted_onto_ib2tcp_frees_itself():
    """Checkpoint over InfiniBand, restart over TCP (paper §6.4): once
    the job is closed and the debug cluster torn down, nothing of it is
    left to the cycle collector."""
    env = Environment()
    cluster = Cluster(env, DEV_CLUSTER, n_nodes=2, name="life-ib2tcp-prod")
    server = cluster.nodes[0].name
    specs = [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, None, True, iters=60)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, server, False, iters=60)),
    ]
    tracker = JobTracker()

    def migrated():
        session = yield from dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [
                InfinibandPlugin(fallback=Ib2TcpPlugin())])
        yield env.timeout(0.002)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                        name="life-ib2tcp-debug")
        session2 = yield from dmtcp_restart(debug, ckpt, tracker=tracker)
        return debug, (yield from session2.wait())

    with collector_off():
        debug, results = env.run(until=env.process(migrated()))
        tracker.close()
        debug.teardown()
        del debug
        garbage = cyclic_garbage()
    assert all(r["errors"] == 0 and r["iters"] == 60 for r in results)
    assert_no_job_garbage(garbage)


# -- the chaos supervisor: a crashed generation and the finished one -----------

def test_recovery_frees_every_crashed_generation_and_the_finished_job():
    env = Environment()
    rng = RngFactory(77)
    latest = {}

    def cluster_factory(tag):
        latest["cluster"] = Cluster(env, BUFFALO_CCR, n_nodes=2, rng=rng,
                                    name=f"life-chaos-{tag}")
        return latest["cluster"]

    def specs_for(cluster):
        return make_mpi_specs(cluster, 2, lambda ctx, comm: lu_app(
            ctx, comm, klass="A", iters_sim=20))

    # the first crash lands during bring-up (no plugin installed yet), the
    # second after a checkpoint
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=0.3, kind="node-crash", node_index=1),
        FailureEvent(t=6.0, kind="node-crash", node_index=1)]))
    manager = RecoveryManager(
        env, cluster_factory, specs_for,
        RecoveryConfig(ckpt_interval=2.0, backoff_base=0.25),
        plugin_factory=lambda: [InfinibandPlugin()], injector=injector,
        rng=rng)
    with collector_off():
        outcome = env.run(until=env.process(manager.run()))
        # the supervisor leaves the last partition up for its owner
        latest.pop("cluster").teardown()
        del manager
        garbage = cyclic_garbage()
    assert outcome.generations == 3 and outcome.n_failures == 2
    assert outcome.n_restarts == 1 and outcome.n_checkpoints >= 1
    assert_no_job_garbage(garbage)


# -- checkpoint bytes: one copy at rest, decoded images die on time -----------

def _pingpong_job(env, name):
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name=name)
    specs = make_mpi_specs(
        cluster, 2, lambda ctx, comm: pingpong_mpi_app(ctx, comm,
                                                       iters_sim=40))
    return cluster, specs


def _memory_bytes(memory):
    return {r.name: bytes(r.buffer) for r in memory}


def test_file_mode_record_keeps_only_the_blob():
    """The written blob is a file-mode checkpoint's one copy of its
    bytes: the record's image keeps metadata and layout, and the blob
    restores memory bit-identically to the state at the cut."""
    env = Environment()
    cluster, specs = _pingpong_job(env, "life-blob")

    def frozen():
        session = yield from dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])
        yield env.timeout(0.02)
        return (yield from session.checkpoint(intent="restart"))

    with collector_off():
        ckpt = env.run(until=env.process(frozen()))
        for record in ckpt.records:
            regions = record.image.memory_snapshot["regions"]
            assert regions and all(r["data"] is None for r in regions)
            assert all(r["size"] > 0 for r in regions)
            decoded = CheckpointImage.from_bytes(record.blob)
            restored = AddressSpace("restored")
            decoded.restore_memory(restored)
            # the frozen continuation's memory is the state at the cut
            assert _memory_bytes(restored) == \
                _memory_bytes(record.continuation.memory)
            assert decoded.region_meta == record.image.region_meta
            assert decoded.logical_size == record.image.logical_size


class _DecodedImages:
    """Weak references to every image decoded from disk or materialized
    from a store, and how many of them still lived each time a restarted
    process began its bring-up (``launch`` or ``restart_flow``)."""

    def __init__(self, monkeypatch):
        self.refs = []
        self.alive_at_bringup = []
        track = self.refs.append
        from_bytes = CheckpointImage.from_bytes
        materialize = CheckpointStore.materialize_image

        def decoded(cls, blob):
            image = from_bytes(blob)
            track(weakref.ref(image))
            return image

        def materialized(store, *args, **kwargs):
            image = materialize(store, *args, **kwargs)
            track(weakref.ref(image))
            return image

        monkeypatch.setattr(CheckpointImage, "from_bytes",
                            classmethod(decoded))
        monkeypatch.setattr(CheckpointStore, "materialize_image",
                            materialized)
        for name in ("launch", "restart_flow"):
            monkeypatch.setattr(DmtcpProcess, name,
                                self._probe(getattr(DmtcpProcess, name)))

    def _probe(self, flow):
        def probed(proc, *args, **kwargs):
            if self.refs:       # a first launch decodes nothing
                self.alive_at_bringup.append(self.alive())
            return (yield from flow(proc, *args, **kwargs))
        return probed

    def alive(self):
        return sum(ref() is not None for ref in self.refs)


def test_dmtcp_restart_drops_each_decoded_image_once_restored(monkeypatch):
    images = _DecodedImages(monkeypatch)
    env = Environment()
    cluster, specs = _pingpong_job(env, "life-decode")

    def frozen_and_revived():
        session = yield from dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])
        yield env.timeout(0.02)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        spare = Cluster(env, BUFFALO_CCR, n_nodes=2,
                        name="life-decode-spare")
        return (yield from dmtcp_restart(spare, ckpt))

    with collector_off():
        session2 = env.run(until=env.process(frozen_and_revived()))
        results = env.run(until=env.process(session2.wait()))
    assert [r.iterations for r in results] == [40, 40]
    assert images.alive_at_bringup == [0, 0]
    assert len(images.refs) == 2


def test_chaos_restart_drops_each_decoded_image_once_restored(monkeypatch):
    images = _DecodedImages(monkeypatch)
    env = Environment()
    rng = RngFactory(79)

    def cluster_factory(tag):
        return Cluster(env, BUFFALO_CCR, n_nodes=2, rng=rng,
                       name=f"life-decode-chaos-{tag}")

    def specs_for(cluster):
        return make_mpi_specs(cluster, 2, lambda ctx, comm: lu_app(
            ctx, comm, klass="A", iters_sim=20))

    # one crash after the first checkpoint: one chaos restart
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=5.0, kind="node-crash", node_index=1)]))
    manager = RecoveryManager(
        env, cluster_factory, specs_for,
        RecoveryConfig(ckpt_interval=2.0, backoff_base=0.25),
        plugin_factory=lambda: [InfinibandPlugin()], injector=injector,
        rng=rng)
    with collector_off():
        outcome = env.run(until=env.process(manager.run()))
    assert outcome.n_restarts == 1 and outcome.n_checkpoints >= 1
    assert images.alive_at_bringup == [0, 0]
    assert len(images.refs) == 2


def test_postcopy_drops_each_materialized_image_once_restored(monkeypatch):
    images = _DecodedImages(monkeypatch)
    with collector_off():
        run = run_postcopy_lu(seed=2014, nprocs=2, iters_sim=4)
    assert run["pager_stats"]["prefetched"] + run["pager_stats"]["pageins"]
    assert images.alive_at_bringup == [0, 0]
    # each rank's blob is decoded once to stage it into the store, then
    # its image is materialized once from the store
    assert len(images.refs) == 4
