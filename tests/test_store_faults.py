"""End-to-end checkpoint-store runs under fault injection.

ISSUE acceptance: after an injected node-crash destroys the local tier,
LU/FT restart succeeds from the partner or Lustre replica with checksums
matching the non-store path bit for bit; an injected corrupt chunk is
detected by the digest check at fetch time and healed from a replica.
"""

import pytest

from repro.dmtcp import RunConfig
from repro.faults.harness import run_chaos_nas
from repro.faults.models import SILENT_KINDS, apply_failure
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.hardware import BUFFALO_CCR, Cluster, MGHPCC
from repro.sim import Environment
from repro.store import CheckpointStore, chunk_path, digest_bytes

_STORE = RunConfig(sink_factory=CheckpointStore)


def _crash(t, node_index=1):
    return FixedSchedule([FailureEvent(t=t, kind="node-crash",
                                       node_index=node_index)])


def test_lu_store_restart_after_node_crash_matches_baseline():
    """The crash lands after checkpoint #1 (t≈3.7): node 1's local tier
    dies with it, so the store-mode restart must be served by the partner
    replica — and produce the baseline's exact checksum."""
    kw = dict(app="lu", klass="A", nprocs=4, iters_sim=60,
              ckpt_interval=1.0, seed=11, backoff_base=0.25)
    base = run_chaos_nas(schedule=_crash(7.0), **kw)
    store = run_chaos_nas(schedule=_crash(7.0), config=_STORE, **kw)
    assert store.checksum == base.checksum
    assert store.recovery.n_restarts >= 1
    assert base.recovery.n_restarts == store.recovery.n_restarts


def test_ft_store_restart_after_node_crash_matches_baseline():
    kw = dict(app="ft", klass="B", nprocs=4, iters_sim=6,
              ckpt_interval=1.0, seed=11, backoff_base=0.25)
    base = run_chaos_nas(schedule=_crash(45.0), **kw)
    store = run_chaos_nas(schedule=_crash(45.0), config=_STORE, **kw)
    assert store.checksum == base.checksum
    assert store.recovery.n_restarts >= 1


def test_store_poisson_chaos_matches_baseline_checksum():
    """Same seed, same Poisson failures: routing checkpoints through the
    store changes where bytes land, never what the application computes."""
    kw = dict(app="lu", klass="A", nprocs=4, iters_sim=20, seed=4242,
              mtbf_node=10.0, ckpt_interval=1.0, backoff_base=0.2,
              backoff_max=2.0, max_attempts=50)
    base = run_chaos_nas(**kw)
    store = run_chaos_nas(config=_STORE, **kw)
    assert store.checksum == base.checksum


def test_ckpt_corrupt_fault_detected_and_healed_end_to_end():
    """The new silent fault kind: rot a stored chunk via apply_failure,
    then restart through the store — the digest check catches it, the
    partner replica serves the bytes, and the local copy is healed."""
    assert "ckpt-corrupt" in SILENT_KINDS
    from repro.core import InfinibandPlugin
    from repro.dmtcp import dmtcp_launch, dmtcp_restart
    from repro.mpi import make_mpi_specs
    from repro.apps.nas import lu_app

    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="rot-e2e")
    store = CheckpointStore(cluster)

    def wrapped(ctx, comm):
        result = yield from lu_app(ctx, comm, klass="A", iters_sim=12)
        return result

    specs = make_mpi_specs(cluster, 4, wrapped, ppn=1)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, specs,
            plugin_factory=lambda: [InfinibandPlugin()], sink=store)
        yield env.timeout(2.0)
        ckpt = yield from session.checkpoint(intent="restart")
        yield from store.drain_replication()
        store.stop()
        cluster.teardown()
        spare = Cluster(env, MGHPCC, n_nodes=4, name="rot-e2e-spare")
        store2 = CheckpointStore(spare)
        store2.stage_from(ckpt)
        # silent bit rot on node 1's local tier, via the fault model —
        # after staging, before the fetch that trips over it.  Aim the
        # flip at a chunk the node-1 process reads from its own tier
        # (not a partner replica only other nodes' fetches would serve).
        from repro.store.manifest import CHUNK_PREFIX
        rec1 = ckpt.records[1]
        assert rec1.node_index == 1
        m1 = store2.manifest(rec1.name, store2.latest_epoch(rec1.name))
        pool = spare.nodes[1].local_disk.fs.listdir(CHUNK_PREFIX)
        index = pool.index(chunk_path(m1.digests()[0]))
        applied = apply_failure(spare, FailureEvent(
            t=env.now, kind="ckpt-corrupt", node_index=1,
            params={"tier": "local", "index": index}))
        assert applied.fatal is False and "corrupted chunk" in applied.detail
        session2 = yield from dmtcp_restart(spare, ckpt, sink=store2,
                                            stage_images=False)
        results = yield from session2.wait()
        return results, store2

    results, store2 = env.run(until=env.process(scenario()))
    assert len({r.checksum for r in results}) == 1
    assert store2.stats["corrupt_detected"] >= 1
    assert store2.stats["healed"] == store2.stats["corrupt_detected"]


def test_ckpt_corrupt_noop_cases():
    """The fault model degrades gracefully: no chunks yet -> non-applied;
    no Lustre -> non-applied; unknown tier -> ValueError."""
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=2, name="rot-empty")
    applied = apply_failure(cluster, FailureEvent(
        t=0.0, kind="ckpt-corrupt", node_index=0))
    assert not applied.fatal and "no chunks" in applied.detail
    no_lustre = Cluster(env, BUFFALO_CCR, n_nodes=1, name="rot-nol")
    applied = apply_failure(no_lustre, FailureEvent(
        t=0.0, kind="ckpt-corrupt", node_index=0,
        params={"tier": "lustre"}))
    assert not applied.fatal and "no Lustre" in applied.detail
    with pytest.raises(ValueError, match="unknown ckpt-corrupt tier"):
        apply_failure(cluster, FailureEvent(
            t=0.0, kind="ckpt-corrupt", node_index=0,
            params={"tier": "tape"}))


def test_ckpt_corrupt_flips_a_real_chunk():
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=2, name="rot-flip")
    fs = cluster.nodes[0].local_disk.fs
    digest = digest_bytes(b"chunk-bytes")
    fs.store(chunk_path(digest), b"chunk-bytes", 11.0)
    applied = apply_failure(cluster, FailureEvent(
        t=0.0, kind="ckpt-corrupt", node_index=0))
    assert "corrupted chunk" in applied.detail
    rotten = fs.load(chunk_path(digest))
    assert rotten != b"chunk-bytes"
    assert digest_bytes(rotten) != digest
    assert fs.logical_size(chunk_path(digest)) == 11.0  # size preserved


def test_run_nas_store_restart_matches_monolithic():
    """The experiments layer (Table 4's --store route): same checksum and
    a successful restart whether images are monolithic or chunked."""
    from repro.apps.nas import lu_app
    from repro.dmtcp import FileSink
    from repro.experiments.runner import run_nas

    kw = dict(spec=MGHPCC, nprocs=4, ppn=1, under="dmtcp",
              app_kwargs={"klass": "A", "iters_sim": 12},
              checkpoint_after=1.0, restart=True)
    mono = run_nas(lu_app, config=RunConfig(
        sink_factory=lambda c: FileSink(c, "lustre")), **kw)
    chunked = run_nas(lu_app, config=_STORE, **kw)
    assert chunked.checksum == mono.checksum
    assert chunked.ok and chunked.restart_seconds > 0
    assert chunked.extra["store"]["puts"] == 4
    assert chunked.extra["store_restart"]["fetches"] == 4
