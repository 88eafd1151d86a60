"""Cross-tenant GC safety for the shared checkpoint service.

The service dedups chunks across tenants, so deletion must be decided
by refcounts, never by ownership: one tenant retiring (via the retention
GC) or tearing down a whole job (``delete_job``) must not invalidate any
chunk another tenant's manifests still reference.  A hypothesis property
test drives randomized put/delete interleavings over two tenants whose
images deliberately share a common-dataset region block, asserting after
every operation that every surviving manifest still fetches bit-identical
bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmtcp.image import CheckpointImage
from repro.hardware import Cluster, MGHPCC
from repro.memory import AddressSpace
from repro.obs import check_trace_invariants, split_segments, traced
from repro.service import CheckpointService
from repro.sim import Environment
from repro.store import StoreConfig

#: region blocks both tenants map verbatim (the shared training dataset)
_SHARED_REGIONS = 4
#: per-tenant private region blocks
_PRIVATE_REGIONS = 3
_REGION_BYTES = 2048
_SHARED_SEED = 20140623


def _run(env, gen):
    return env.run(until=env.process(gen))


def _memory(proc_name, private_seed):
    """Half-shared address space: the first blocks are identical across
    tenants (same seed), the rest are tenant-private."""
    shared_rng = np.random.default_rng(_SHARED_SEED)
    private_rng = np.random.default_rng(private_seed)
    mem = AddressSpace(proc_name)
    for i in range(_SHARED_REGIONS):
        data = shared_rng.integers(0, 256, _REGION_BYTES,
                                   dtype=np.uint8).tobytes()
        mem.mmap(f"shared{i}", _REGION_BYTES, data=data)
    for i in range(_PRIVATE_REGIONS):
        data = private_rng.integers(0, 256, _REGION_BYTES,
                                    dtype=np.uint8).tobytes()
        mem.mmap(f"priv{i}", _REGION_BYTES, data=data)
    return mem


class _Tenants:
    """Two tenants putting half-shared images into one service."""

    def __init__(self, retention=1):
        self.env = Environment()
        cluster = Cluster(self.env, MGHPCC, n_nodes=2, name="gc-svc")
        self.service = CheckpointService(
            cluster, config=StoreConfig(retention=retention), n_shards=4)
        self.epoch = {"A": 0, "B": 0}
        self.memory = {"A": _memory("jobA.r0", 1),
                       "B": _memory("jobB.r0", 2)}
        #: live reference bytes per job: what a fetch must reproduce
        self.expect = {}

    def put(self, tenant):
        """One more checkpoint epoch for ``tenant``'s job, with a private
        region dirtied so epochs differ (shared blocks never change)."""
        job = f"job{tenant}"
        proc = f"{job}.r0"
        mem = self.memory[tenant]
        if self.epoch[tenant] > 0:
            region = next(r for r in mem if r.name == "priv0")
            stamp = bytes([self.epoch[tenant] % 256]) * 64
            mem.write(region.addr, stamp + bytes(region.size - 64))
        image = CheckpointImage.capture(proc, 1, "3.10.0", "mlx4", mem,
                                        gzip=True, t_sim=self.env.now)
        self.epoch[tenant] += 1
        result = _run(self.env, self.service.put_for(
            tenant, job, 0, 0, self.epoch[tenant], image))
        assert not result.rejected
        self.expect[proc] = image.to_bytes()

    def delete(self, tenant):
        job = f"job{tenant}"
        self.service.delete_job(job)
        self.expect.pop(f"{job}.r0", None)
        self.epoch[tenant] = 0  # next put starts a fresh chain

    def check_survivors(self):
        """Every live job's latest checkpoint must still reassemble
        bit-identical — whatever the other tenant deleted."""
        for proc, reference in self.expect.items():
            fetched = _run(self.env, self.service.store.fetch_image(proc))
            assert fetched.to_bytes() == reference, (
                f"{proc} corrupted by cross-tenant GC")


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.sampled_from(["A", "B", "dA", "dB"]),
                    min_size=2, max_size=12),
       retention=st.integers(min_value=1, max_value=3))
def test_shared_chunks_survive_any_interleaving(ops, retention):
    world = _Tenants(retention=retention)
    # both tenants always land at least one image so every run actually
    # exercises a cross-tenant shared chunk
    for op in ["A", "B"] + ops:
        if op == "A" or op == "B":
            world.put(op)
        elif op == "dA":
            world.delete("A")
        else:
            world.delete("B")
        world.check_survivors()


def test_delete_job_spares_shared_chunks_and_reclaims_quota():
    world = _Tenants(retention=2)
    world.put("A")
    world.put("B")
    used_before = world.service.admission.tenant("A").used_bytes
    assert used_before > 0
    retired, _deleted = world.service.delete_job("jobA")
    assert retired >= 1
    world.expect.pop("jobA.r0")
    # A's quota position fully refunded on teardown
    assert world.service.admission.tenant("A").used_bytes == \
        pytest.approx(0.0)
    # B still fetches bit-identical through the shared chunks
    world.check_survivors()
    fetched = _run(world.env, world.service.store.fetch_image("jobB.r0"))
    assert fetched.to_bytes() == world.expect["jobB.r0"]


def test_index_gives_back_the_bytes_of_every_chunk_gc_deletes():
    """The sharded index forgets a deleted chunk's logical bytes along
    with the chunk: tearing down A drops A's private chunks (the shared
    ones stay for B), and tearing down B empties the index."""
    world = _Tenants(retention=2)
    world.put("A")
    world.put("B")
    full = world.service.index.summary()
    assert full["chunks"] > 0 and full["bytes_logical"] > 0
    world.delete("A")
    shared_and_b = world.service.index.summary()
    assert 0 < shared_and_b["chunks"] < full["chunks"]
    assert 0 < shared_and_b["bytes_logical"] < full["bytes_logical"]
    world.delete("B")
    empty = world.service.index.summary()
    assert empty["chunks"] == 0
    assert empty["bytes_logical"] == 0.0


def test_retention_gc_respects_cross_tenant_refs():
    """Retention retiring A's old epochs must not drop chunks B's only
    epoch still references, even though A wrote them first."""
    world = _Tenants(retention=1)
    world.put("A")   # A epoch 1 lands the shared chunks
    world.put("B")   # B epoch 1 dedups against them
    for _ in range(3):
        world.put("A")   # retention=1 retires A's older epochs
        world.check_survivors()
    world.delete("A")
    world.check_survivors()  # B alone still reassembles


def test_traced_puts_stay_on_one_timeline():
    """Captures stamped with the environment's clock keep a traced A, B,
    A put sequence in one trace segment, so history-dependent invariants
    (admission before put, among others) see the whole run."""
    with traced() as tracer:
        world = _Tenants()
        for tenant in ("A", "B", "A"):
            world.put(tenant)
    kinds = {event["kind"] for event in tracer.events}
    assert {"capture.region", "service.put"} <= kinds
    assert len(split_segments(tracer.events)) == 1
    assert check_trace_invariants(tracer.events) == []


def test_delete_job_is_prefix_safe():
    """jobA vs jobAB: deleting one job must not take down another whose
    name shares a prefix."""
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=2, name="gc-prefix")
    service = CheckpointService(cluster, n_shards=2)
    mem1 = _memory("jobA.r0", 11)
    mem2 = _memory("jobAB.r0", 12)
    img1 = CheckpointImage.capture("jobA.r0", 1, "3.10.0", "mlx4", mem1,
                                   gzip=True)
    img2 = CheckpointImage.capture("jobAB.r0", 1, "3.10.0", "mlx4", mem2,
                                   gzip=True)
    _run(env, service.put_for("t", "jobA", 0, 0, 1, img1))
    _run(env, service.put_for("t", "jobAB", 0, 0, 1, img2))
    service.delete_job("jobA")
    fetched = _run(env, service.store.fetch_image("jobAB.r0"))
    assert fetched.to_bytes() == img2.to_bytes()
    with pytest.raises(Exception):
        _run(env, service.store.fetch_image("jobA.r0"))
