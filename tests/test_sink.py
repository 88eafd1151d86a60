"""One checkpoint sink surface (DESIGN.md §15).

Image files (:class:`~repro.dmtcp.FileSink`), the per-run chunk store
(:class:`~repro.store.CheckpointStore`) and a tenant's view of the shared
service (:class:`~repro.service.TenantStoreClient`) all take the same
``sink=`` / ``sink_factory=`` seams: a frozen job restarts through any of
them without payload errors, a crashed one recovers through any of them
to the fault-free checksum, and a full disk fails a checkpoint round
the same structured way whichever sink it fills.
"""

import pytest

from repro.apps.nas import lu_app
from repro.apps.pingpong import pingpong_app
from repro.core import InfinibandPlugin
from repro.dmtcp import (AppSpec, FileSink, RunConfig, dmtcp_launch,
                         dmtcp_restart)
from repro.faults.injector import Injector
from repro.faults.recovery import (RecoveryConfig, RecoveryError,
                                   RecoveryManager)
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.hardware import BUFFALO_CCR, Cluster, MGHPCC
from repro.hardware.storage import QuotaExceededError
from repro.mpi import make_mpi_specs
from repro.service import CheckpointService
from repro.sim import Environment, RngFactory
from repro.store import CheckpointStore


def _files(env):
    return BUFFALO_CCR, FileSink


def _lustre_files(env):
    return MGHPCC, lambda cluster: FileSink(cluster, "lustre")


def _store(env):
    return MGHPCC, CheckpointStore


def _service_client(env):
    service = CheckpointService(
        Cluster(env, MGHPCC, n_nodes=2, name="sink-svc"), n_shards=4)
    return MGHPCC, lambda cluster: service.client("acme", "job")


SINKS = [_files, _lustre_files, _store, _service_client]
SINK_IDS = ["files", "lustre-files", "store", "service-client"]


def _pingpong_specs(cluster, iters=200):
    server = cluster.nodes[0].name
    return [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, None, is_server=True,
                                         iters=iters, msg_bytes=1024)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, server, is_server=False,
                                         iters=iters, msg_bytes=1024)),
    ]


@pytest.mark.parametrize("make", SINKS, ids=SINK_IDS)
def test_frozen_pingpong_restarts_through_every_sink(make):
    env = Environment()
    spec, sink_factory = make(env)
    cluster = Cluster(env, spec, n_nodes=2, name="sink-src")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pingpong_specs(cluster),
        plugin_factory=lambda: [InfinibandPlugin()],
        sink=sink_factory(cluster))))

    def scenario():
        yield env.timeout(0.002)    # mid-stream, traffic in flight
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        target = Cluster(env, spec, n_nodes=2, name="sink-dst")
        session2 = yield from dmtcp_restart(target, ckpt,
                                            sink=sink_factory(target))
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    assert [r["errors"] for r in results] == [0, 0]
    assert [r["iters"] for r in results] == [200, 200]


def _chaos(make, failures):
    env = Environment()
    rng = RngFactory(2014)
    spec, sink_factory = make(env)

    def app(ctx, comm):
        result = yield from lu_app(ctx, comm, klass="A", iters_sim=20)
        return result

    injector = Injector(env, FixedSchedule(failures))
    manager = RecoveryManager(
        env,
        lambda tag: Cluster(env, spec, n_nodes=2, rng=rng,
                            name=f"sink-chaos-{tag}"),
        lambda cluster: make_mpi_specs(cluster, 2, app, ppn=1),
        RecoveryConfig(ckpt_interval=0.5,
                       run=RunConfig(sink_factory=sink_factory)),
        plugin_factory=lambda: [InfinibandPlugin()],
        injector=injector, rng=rng)
    outcome = env.run(until=env.process(manager.run()))
    injector.stop()
    return outcome


@pytest.fixture(scope="module")
def fault_free_checksum():
    return _chaos(_files, []).results[0].checksum


#: a crash instant just after each sink's first checkpoint landed
CRASH_AT = {"files": 5.0, "lustre-files": 2.0, "store": 5.0,
            "service-client": 6.0}


@pytest.mark.parametrize("make,crash_at",
                         [(m, CRASH_AT[i]) for m, i in zip(SINKS, SINK_IDS)],
                         ids=SINK_IDS)
def test_crash_recovers_through_every_sink(make, crash_at,
                                           fault_free_checksum):
    outcome = _chaos(make, [FailureEvent(t=crash_at, kind="node-crash",
                                         node_index=1)])
    assert outcome.n_restarts >= 1
    assert outcome.results[0].checksum == fault_free_checksum


def test_full_disk_raises_after_every_rank_finished_the_round():
    """A full node-local disk under image files: the writer keeps the
    barrier protocol going, every rank reports its round, the session
    raises the structured error, and the resumed job runs on."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="full-disk")
    cluster.nodes[1].local_disk.fs.capacity_bytes = 10_000
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pingpong_specs(cluster),
        plugin_factory=lambda: [InfinibandPlugin()])))
    seen = {}

    def scenario():
        yield env.timeout(0.002)
        with pytest.raises(QuotaExceededError) as excinfo:
            yield from session.checkpoint(intent="resume")
        seen["error"] = excinfo.value
        # every rank's done-report of the round, the full one's with error
        seen["reports"] = {stats["name"]: "error" in stats
                           for stats in session.coordinator._ckpt_stats}
        return (yield from session.wait())

    results = env.run(until=env.process(scenario()))
    server, client = session.procs
    assert seen["error"] is client.ckpt_error
    assert seen["error"].fs_name == cluster.nodes[1].local_disk.fs.name
    assert seen["reports"] == {"pp-server": False, "pp-client": True}
    # the rank with room wrote its image; the full one kept none
    assert server.ckpt_error is None and server.last_record is not None
    assert client.last_record is None
    assert [r["errors"] for r in results] == [0, 0]


def test_full_disk_surfaces_through_recovery_manager():
    """The image-file twin of the service-tier quota test
    (tests/test_service.py): a full job disk fails the generation with
    timeline kind="quota" and tier/byte detail, never an escaped
    exception."""
    env = Environment()
    rng = RngFactory(23)

    def cluster_factory(tag):
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, rng=rng,
                          name=f"fullq-{tag}")
        for node in cluster.nodes:
            node.local_disk.fs.capacity_bytes = 10_000.0
        return cluster

    def app(ctx, comm):
        result = yield from lu_app(ctx, comm, klass="A", iters_sim=4)
        return result

    manager = RecoveryManager(
        env, cluster_factory,
        lambda cluster: make_mpi_specs(cluster, 2, app, ppn=1),
        RecoveryConfig(ckpt_interval=0.3, run=RunConfig(incremental=True),
                       max_attempts=1, backoff_base=0.1, backoff_max=0.2),
        plugin_factory=lambda: [InfinibandPlugin()],
        injector=Injector(env, FixedSchedule([])), name="fullq", rng=rng)
    with pytest.raises(RecoveryError) as excinfo:
        env.run(until=env.process(manager.run()))
    outcome = excinfo.value.outcome
    assert outcome.quota_failures >= 1
    quota_events = [e for e in outcome.timeline if e.kind == "quota"]
    assert quota_events
    detail = quota_events[0].detail
    assert "tier=" in detail and "tenant=" not in detail
    assert "requested=" in detail and "available=" in detail
