"""The shared multi-tenant checkpoint service (repro.service).

Covers the sharded chunk index (hashing, mutual exclusion, kill-safe
lock claims), the admission layer (tenant quotas, inflight backpressure,
byte conservation), the multi-tenant put path (cross-job dedup, quota
rejection as a soft failure), the gang scheduler (determinism,
preemption-via-checkpoint bit-identity, quota-capped streams), the
``service.*`` trace vocabulary, and QuotaExceededError surfacing through
the chaos RecoveryManager.
"""

import numpy as np
import pytest

from repro.core import InfinibandPlugin
from repro.dmtcp import RunConfig
from repro.dmtcp.image import CheckpointImage
from repro.faults.injector import Injector
from repro.faults.recovery import (RecoveryConfig, RecoveryError,
                                   RecoveryManager)
from repro.faults.schedule import FixedSchedule
from repro.hardware import BUFFALO_CCR, Cluster, MGHPCC
from repro.memory import AddressSpace
from repro.mpi import make_mpi_specs
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    CheckpointService,
    GangScheduler,
    ShardedChunkIndex,
    WORKLOADS,
    job_mix,
    poisson_arrivals,
    service_scenario,
)
from repro.sim import Environment, RngFactory
from repro.store import digest_bytes


def _run(env, gen):
    return env.run(until=env.process(gen))


def _memory(n_regions=6, region_bytes=4096, seed=0, name=None):
    rng = np.random.default_rng(seed)
    mem = AddressSpace(name or f"m{seed}")
    for i in range(n_regions):
        data = rng.integers(0, 256, region_bytes, dtype=np.uint8).tobytes()
        mem.mmap(f"r{i}", region_bytes, data=data)
    return mem


def _capture(memory, name="p0", prev=None):
    return CheckpointImage.capture(name, 1, "3.10.0", "mlx4", memory,
                                   gzip=True, prev=prev)


def _service(env, n_nodes=2, **kw):
    cluster = Cluster(env, MGHPCC, n_nodes=n_nodes, name="svc-test")
    return CheckpointService(cluster, **kw)


# -- sharded chunk index -------------------------------------------------------

def test_index_shard_of_is_stable_and_in_range():
    env = Environment()
    index = ShardedChunkIndex(env, n_shards=8)
    digests = [digest_bytes(bytes([i]) * 16) for i in range(64)]
    shards = [index.shard_of(d) for d in digests]
    assert all(0 <= s < 8 for s in shards)
    assert shards == [index.shard_of(d) for d in digests]  # stable
    assert len(set(shards)) > 1  # actually spreads


def test_index_counters_and_membership():
    env = Environment()
    index = ShardedChunkIndex(env, n_shards=4)
    digest = digest_bytes(b"chunk")
    shard = index.shard_of(digest)
    assert digest not in index
    index.note_new(shard, digest, 1024.0)
    index.note_dedup(shard)
    assert digest in index
    summary = index.summary()
    assert summary["chunks"] == 1 and summary["bytes_logical"] == 1024.0
    assert summary["dedup_hits"] == 1
    index.discard(digest)
    assert digest not in index
    assert index.summary()["chunks"] == 0
    assert index.summary()["bytes_logical"] == 0.0


def test_index_shard_lock_is_mutually_exclusive():
    env = Environment()
    index = ShardedChunkIndex(env, n_shards=2)
    order = []

    def holder(tag, hold):
        yield from index.acquire(0)
        order.append(("acq", tag, env.now))
        yield env.timeout(hold)
        index.release(0)
        order.append(("rel", tag, env.now))

    env.process(holder("a", 1.0))
    env.process(holder("b", 1.0))
    env.run(until=5.0)
    assert [(what, tag) for what, tag, _t in order] == [
        ("acq", "a"), ("rel", "a"), ("acq", "b"), ("rel", "b")]
    # second shard is independent: no cross-shard serialization
    t0 = env.now

    def other():
        yield from index.acquire(1)
        index.release(1)

    _run(env, other())
    assert env.now == t0


def test_index_killed_waiter_does_not_wedge_the_shard():
    env = Environment()
    index = ShardedChunkIndex(env, n_shards=1)

    def holder():
        yield from index.acquire(0)
        yield env.timeout(2.0)
        index.release(0)

    def waiter():
        yield from index.acquire(0)
        index.release(0)

    env.process(holder())
    victim = env.process(waiter())
    env.run(until=1.0)
    victim.kill()
    # a third claimant must still get the lock after the holder releases
    done = []

    def third():
        yield from index.acquire(0)
        done.append(env.now)
        index.release(0)

    env.process(third())
    env.run(until=5.0)
    assert done and done[0] == pytest.approx(2.0)


# -- admission -----------------------------------------------------------------

def test_admission_quota_rejects_with_detail():
    env = Environment()
    admission = AdmissionController(env, quotas={"tiny": 1000.0})

    def attempt():
        yield from admission.admit("tiny", 4000.0, proc="p0", job="j0")

    with pytest.raises(AdmissionRejected) as excinfo:
        _run(env, attempt())
    exc = excinfo.value
    assert exc.tenant == "tiny" and exc.requested == 4000.0
    assert exc.quota == 1000.0
    assert admission.tenant("tiny").rejections == 1
    assert admission.job_rejections.get("j0") == 1


def test_admission_backpressure_is_fifo():
    env = Environment()
    admission = AdmissionController(env, max_inflight_bytes=100.0)
    order = []

    def putter(tag, nbytes, hold):
        yield from admission.admit("t", nbytes, proc=tag)
        order.append((tag, env.now))
        yield env.timeout(hold)
        admission.release(nbytes)
        admission.on_stored("t", nbytes)

    env.process(putter("a", 80.0, 1.0))
    env.run(until=0.1)
    env.process(putter("b", 80.0, 1.0))   # blocks: 160 > 100
    env.process(putter("c", 80.0, 1.0))   # queues behind b
    env.run(until=10.0)
    assert [tag for tag, _t in order] == ["a", "b", "c"]
    assert order[1][1] == pytest.approx(1.0)  # b admitted when a released
    assert admission.inflight_bytes == 0.0


def test_admission_conservation_ledger():
    env = Environment()
    admission = AdmissionController(env, quotas={"t": 5000.0})

    def flow():
        yield from admission.admit("t", 3000.0)
        admission.release(3000.0)
        admission.on_stored("t", 3000.0)
        try:
            yield from admission.admit("t", 3000.0)  # 6000 > 5000 quota
        except AdmissionRejected:
            pass

    _run(env, flow())
    row = admission.account()["t"]
    assert row["bytes_admitted"] == pytest.approx(
        row["bytes_stored"] + row["bytes_rejected"])
    assert row["bytes_stored"] == 3000.0
    assert row["bytes_rejected"] == 3000.0


# -- multi-tenant put path -----------------------------------------------------

def test_put_for_dedups_across_jobs_and_tenants():
    env = Environment()
    service = _service(env)
    # two different jobs capture identical memory contents
    image_a = _capture(_memory(seed=5, name="ja.r0"), name="ja.r0")
    image_b = _capture(_memory(seed=5, name="jb.r0"), name="jb.r0")
    ra = _run(env, service.put_for("acme", "ja", 0, 0, 1, image_a))
    rb = _run(env, service.put_for("umass", "jb", 0, 0, 1, image_b))
    assert ra.chunks_new > 0 and not ra.rejected
    assert rb.chunks_new == 0 and rb.chunks_deduped == ra.chunks_new
    assert service.dedup_ratio() < 0.75
    # both manifests fetch bit-identical despite sharing every chunk
    fa = _run(env, service.store.fetch_image("ja.r0"))
    fb = _run(env, service.store.fetch_image("jb.r0"))
    assert fa.to_bytes() == image_a.to_bytes()
    assert fb.to_bytes() == image_b.to_bytes()


def test_put_for_quota_rejection_is_soft():
    env = Environment()
    service = _service(env, quotas={"tiny": 10.0})
    image = _capture(_memory(seed=3, name="jc.r0"), name="jc.r0")
    result = _run(env, service.put_for("tiny", "jc", 0, 0, 1, image))
    assert result.rejected and result.manifest_path == ""
    assert service.stats["puts_rejected"] == 1
    assert service.stats["bytes_naive"] == 0.0  # never admitted
    assert service.admission.job_rejections == {"jc": 1}


def test_client_epoch_bases_isolate_generations():
    env = Environment()
    service = _service(env)
    c1 = service.client("acme", "jd")
    c2 = service.client("acme", "jd")  # restarted generation
    image = _capture(_memory(seed=7, name="jd.r0"), name="jd.r0")
    r1 = _run(env, c1.put_image(rank=0, node_index=0, epoch=1, image=image))
    r2 = _run(env, c2.put_image(rank=0, node_index=0, epoch=1, image=image))
    assert r2.epoch > r1.epoch  # same coordinator epoch, disjoint namespace
    assert service.store.latest_epoch("jd.r0") == r2.epoch
    c2.stop()  # deliberate no-op: the service outlives its clients
    assert _run(env, service.store.fetch_image("jd.r0")) is not None


# -- gang scheduler ------------------------------------------------------------

def test_poisson_arrivals_are_seeded_and_monotone():
    rng = RngFactory(42)
    a1 = poisson_arrivals(rng, 10, 0.5)
    a2 = poisson_arrivals(RngFactory(42), 10, 0.5)
    assert a1 == a2
    assert all(b >= a for a, b in zip(a1, a1[1:]))


def test_job_mix_round_robins_and_caps_preemptible():
    jobs = job_mix(RngFactory(1), 6, ("a", "b", "tiny"),
                   non_preemptible_tenants=("tiny",))
    assert [j.tenant for j in jobs] == ["a", "b", "tiny"] * 2
    assert all(not j.preemptible for j in jobs if j.tenant == "tiny")
    assert all(j.preemptible for j in jobs if j.tenant != "tiny")
    assert [j.name for j in jobs] == [f"job{i:03d}" for i in range(6)]


def test_scheduler_rejects_oversized_job():
    env = Environment()
    service = _service(env)
    sched = GangScheduler(env, service, RngFactory(3), total_nodes=2)
    jobs = job_mix(RngFactory(3), 1, ("a",), nprocs=4)  # needs 4 > 2
    with pytest.raises(ValueError):
        _run(env, sched.run(jobs))


def test_service_scenario_is_deterministic():
    kw = dict(seed=17, n_jobs=4, total_nodes=4, quantum=None,
              mean_interarrival=0.4, iters_sim=2)
    one = service_scenario(**kw)
    two = service_scenario(**kw)
    assert one["completion_order"] == two["completion_order"]
    assert one["checksums"] == two["checksums"]
    assert one["summary"]["dedup_ratio"] == two["summary"]["dedup_ratio"]
    assert one["ledger"] == two["ledger"]
    assert all(o.ok for o in one["outcomes"])


def test_preempted_job_restarts_bit_identical():
    contended = dict(seed=11, n_jobs=3, total_nodes=2, quantum=0.2,
                     mean_interarrival=0.3, iters_sim=3)
    run = service_scenario(**contended)
    solo = service_scenario(**{**contended, "quantum": None,
                               "total_nodes": 16})
    assert all(o.n_preemptions == 0 for o in solo["outcomes"])
    preempted = [o for o in run["outcomes"] if o.n_preemptions > 0]
    assert preempted, "scenario no longer exercises preemption"
    for outcome in run["outcomes"]:
        assert outcome.ok
        assert run["checksums"][outcome.name] == \
            solo["checksums"][outcome.name]


def test_quota_capped_stream_soft_fails_and_balances():
    # 3-long shape cycle vs 2 tenants (coprime): the capped tenant gets
    # ml jobs too, which live long enough to reach admission
    run = service_scenario(
        seed=5, n_jobs=6, total_nodes=4, quantum=None,
        tenants=("acme", "tiny"), quotas={"tiny": 1.5e6},
        non_preemptible_tenants=("tiny",),
        shapes=(("ml", "S"), ("lu", "A"), ("ml", "S")), iters_sim=2)
    outcomes = run["outcomes"]
    assert all(o.ok for o in outcomes)  # rejection is a soft failure
    capped = [o for o in outcomes if o.tenant == "tiny"]
    assert sum(o.rejected_puts for o in capped) > 0
    assert sum(o.rejected_puts for o in outcomes
               if o.tenant != "tiny") == 0
    for row in run["ledger"].values():
        assert abs(row["bytes_admitted"]
                   - (row["bytes_stored"] + row["bytes_rejected"])) \
            <= max(1.0, 1e-6 * row["bytes_admitted"])


# -- trace vocabulary ----------------------------------------------------------

def test_service_trace_vocabulary_and_invariants(trace_invariants):
    service_scenario(seed=11, n_jobs=3, total_nodes=2, quantum=0.2,
                     mean_interarrival=0.3, iters_sim=3)
    harness = trace_invariants
    kinds = set(harness.kinds())
    for kind in ("service.arrive", "service.grant", "service.admit",
                 "service.put", "service.preempt", "service.quiesce",
                 "service.reclaim", "service.done", "service.account"):
        assert kind in kinds, f"missing {kind}"
    harness.assert_clean()
    harness.assert_service_conservation()
    harness.assert_admission_before_put()
    harness.assert_preempt_protocol()


# -- QuotaExceededError through the chaos harness ------------------------------

def test_quota_exceeded_surfaces_through_recovery_manager():
    """A saturated shared tier kills checkpoints with a structured
    QuotaExceededError; the RecoveryManager must surface it as timeline
    kind="quota" with tier/tenant/byte detail and count it."""
    env = Environment()
    rng = RngFactory(23)
    svc_cluster = Cluster(env, MGHPCC, n_nodes=2, rng=rng, name="svcq")
    service = CheckpointService(svc_cluster, n_shards=4)
    for node in svc_cluster.nodes:
        node.local_disk.fs.capacity_bytes = 10_000.0  # tier saturates

    def app(ctx, comm):
        result = yield from WORKLOADS["lu"](ctx, comm, klass="A",
                                            iters_sim=4)
        return result

    def cluster_factory(tag):
        return Cluster(env, BUFFALO_CCR, n_nodes=2, rng=rng,
                       name=f"q-{tag}")

    def specs_for(cluster):
        return make_mpi_specs(cluster, 2, app, ppn=1, name_prefix="qjob")

    cfg = RecoveryConfig(
        ckpt_interval=0.3, run=RunConfig(
            incremental=True,
            sink_factory=lambda cluster: service.client("acme", "qjob")),
        max_attempts=1, backoff_base=0.1, backoff_max=0.2)
    manager = RecoveryManager(
        env, cluster_factory, specs_for, cfg,
        plugin_factory=lambda: [InfinibandPlugin()],
        injector=Injector(env, FixedSchedule([])), name="quota", rng=rng)
    with pytest.raises(RecoveryError) as excinfo:
        _run(env, manager.run())
    outcome = excinfo.value.outcome
    assert outcome.quota_failures >= 1
    quota_events = [e for e in outcome.timeline if e.kind == "quota"]
    assert quota_events
    detail = quota_events[0].detail
    assert "tier=" in detail and "tenant=acme" in detail
    assert "requested=" in detail and "available=" in detail
