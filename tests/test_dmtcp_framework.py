"""Tests for the DMTCP framework itself (no InfiniBand plugin yet):
launch, coordinator barriers/pub-sub, checkpoint-resume, checkpoint-restart
of plugin-free computations, image integrity, BLCR-style metadata."""

import numpy as np
import pytest

from repro.dmtcp import (
    AppSpec,
    CheckpointImage,
    DmtcpEvent,
    Plugin,
    RunConfig,
    dmtcp_launch,
    dmtcp_restart,
    native_launch,
)
from repro.hardware import BUFFALO_CCR, Cluster
from repro.sim import Environment


def counting_app(ctx, iters=10, quantum=0.5):
    """Keeps all state in process memory — checkpoint/restart-safe."""
    region = ctx.memory.mmap(f"{ctx.name}.state", 8 * (iters + 1))
    state = region.view(dtype=np.float64)
    for i in range(iters):
        yield ctx.compute(seconds=quantum)
        state[i + 1] = state[i] + 1.0
    return float(state[iters])


@pytest.fixture
def env_cluster():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="dmtcp-test")
    return env, cluster


def _launch(env, cluster, n=2, plugin_factory=lambda: [], **kw):
    specs = [AppSpec(node_index=i % len(cluster.nodes), name=f"r{i}", rank=i,
                     factory=lambda ctx: counting_app(ctx))
             for i in range(n)]
    return env.run(until=env.process(
        dmtcp_launch(cluster, specs, plugin_factory=plugin_factory, **kw)))


def test_native_launch_runs_to_completion(env_cluster):
    env, cluster = env_cluster
    specs = [AppSpec(0, "a", lambda ctx: counting_app(ctx)),
             AppSpec(1, "b", lambda ctx: counting_app(ctx))]
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    assert results == [10.0, 10.0]
    assert env.now == pytest.approx(5.0)  # 10 x 0.5s, parallel


def test_dmtcp_launch_adds_startup_and_runtime_overhead(env_cluster):
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)
    env.run(until=env.process(session.wait()))
    native_time = 5.0
    assert env.now > native_time  # startup + compute tax
    assert env.now < native_time + 3.0  # but modest


def test_checkpoint_resume_computation_completes(env_cluster):
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)

    def scenario():
        yield env.timeout(2.0)
        ckpt = yield from session.checkpoint(intent="resume")
        results = yield from session.wait()
        return ckpt, results

    ckpt, results = env.run(until=env.process(scenario()))
    assert results == [10.0, 10.0]
    assert len(ckpt.records) == 2
    assert ckpt.wall_seconds > 0
    for record in ckpt.records:
        assert record.image.logical_size > 0


def test_checkpoint_writes_real_image_bytes(env_cluster):
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)

    def scenario():
        yield env.timeout(2.0)
        return (yield from session.checkpoint(intent="resume"))

    ckpt = env.run(until=env.process(scenario()))
    node0 = cluster.nodes[0]
    path = ckpt.records[0].path
    data = node0.local_disk.fs.load(path)
    image = CheckpointImage.from_bytes(data)
    assert image.proc_name == "r0"
    assert image.kernel_version == BUFFALO_CCR.kernel_version
    # the memory snapshot contains the counting state at checkpoint time
    names = [r["name"] for r in image.memory_snapshot["regions"]]
    assert "r0.state" in names


def test_checkpoint_restart_same_cluster(env_cluster):
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)

    def scenario():
        yield env.timeout(2.2)  # mid-computation
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="restart-onto")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        results = yield from session2.wait()
        return results

    assert env.run(until=env.process(scenario())) == [10.0, 10.0]


def test_restart_rolls_back_post_checkpoint_memory(env_cluster):
    """Memory mutated after the checkpoint must be restored from the image."""
    env, cluster = env_cluster
    session = _launch(env, cluster, n=1)

    def scenario():
        yield env.timeout(2.2)
        ckpt = yield from session.checkpoint(intent="restart")
        cont = ckpt.records[0].continuation
        state = cont.memory.region("r0.state").view(dtype=np.float64)
        pre = state.copy()
        state[:] = 99.0  # simulate post-checkpoint corruption/progress
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=1, name="rb")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        restored = cont.memory.region("r0.state").view(
            dtype=np.float64)
        # the scribbled 99s are gone; earlier cells are byte-identical
        # (the thawed app may already have appended the next cell)
        assert not (restored == 99.0).any()
        assert (restored[:4] == pre[:4]).all()
        results = yield from session2.wait()
        return results

    assert env.run(until=env.process(scenario())) == [10.0]


def test_plugin_event_sequence():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="ev")
    events = []

    class Spy(Plugin):
        name = "spy"

        def event(self, event, data=None):
            events.append(event)

        def drain_round(self):
            return 0

    def app(ctx):
        yield ctx.compute(seconds=5.0)
        return "done"

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)], plugin_factory=lambda: [Spy()])
        yield env.timeout(1.0)
        yield from session.checkpoint(intent="resume")
        yield from session.wait()

    env.run(until=env.process(scenario()))
    assert events[0] is DmtcpEvent.INIT
    idx = {e: i for i, e in enumerate(events)}
    assert idx[DmtcpEvent.PRESUSPEND] < idx[DmtcpEvent.SUSPEND] \
        < idx[DmtcpEvent.PRECHECKPOINT] < idx[DmtcpEvent.WRITE_CKPT] \
        < idx[DmtcpEvent.RESUME]


def test_drain_rounds_repeat_until_globally_quiet():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="drain")

    class SlowDrain(Plugin):
        name = "slow"

        def __init__(self):
            super().__init__()
            self.rounds = 0

        def drain_round(self):
            self.rounds += 1
            # report activity for the first 3 calls
            return 1 if self.rounds <= 3 else 0

    plugin = SlowDrain()

    def app(ctx):
        yield ctx.compute(seconds=3.0)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [plugin])
        yield env.timeout(0.5)
        yield from session.checkpoint(intent="resume")
        yield from session.wait()

    env.run(until=env.process(scenario()))
    assert plugin.rounds >= 4  # kept going until a quiet round


def test_user_threads_frozen_during_checkpoint():
    """Compute makes no progress while the checkpoint is in flight."""
    env = Environment()
    # Artificially slow disk so the checkpoint takes a while
    from repro.hardware import HardwareSpec
    spec = HardwareSpec(name="slowdisk", cores_per_node=1,
                        local_disk_write_bw=1e4, has_lustre=False)
    cluster = Cluster(env, spec, n_nodes=1, name="freeze")
    ticks = []

    def app(ctx):
        for _ in range(40):
            yield ctx.compute(seconds=0.25)
            ticks.append(env.now)

    def scenario():
        session = yield from dmtcp_launch(cluster, [AppSpec(0, "p", app)])
        yield env.timeout(1.0)
        t0 = env.now
        yield from session.checkpoint(intent="resume")
        t1 = env.now
        yield from session.wait()
        return t0, t1

    t0, t1 = env.run(until=env.process(scenario()))
    assert t1 - t0 > 1.0  # slow disk made the freeze window real
    # no progress inside the freeze window (threads resume a network-latency
    # before the coordinator reports completion, hence the 10ms guard)
    assert not [t for t in ticks if t0 + 0.3 < t < t1 - 0.01]


def test_checkpoint_restart_twice(env_cluster):
    """A restarted job can be checkpointed and restarted again."""
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)

    def scenario():
        yield env.timeout(1.2)
        ckpt1 = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        c2 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="hop1")
        s2 = yield from dmtcp_restart(c2, ckpt1)
        yield env.timeout(1.7)
        ckpt2 = yield from s2.checkpoint(intent="restart")
        c2.teardown()
        c3 = Cluster(env, BUFFALO_CCR, n_nodes=2, name="hop2")
        s3 = yield from dmtcp_restart(c3, ckpt2)
        return (yield from s3.wait())

    assert env.run(until=env.process(scenario())) == [10.0, 10.0]


class _NsPlugin(Plugin):
    """Publishes one id per rank and keeps whatever view it is handed."""

    name = "nsprobe"

    def ns_publish(self):
        return {f"id:{self.appctx.name}": self.appctx.rank}

    def ns_receive(self, db):
        self.db = db


def _checkpoint_then_restart(ranks):
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=4, name=f"lin{ranks}")
    session = _launch(env, cluster, n=ranks,
                      plugin_factory=lambda: [_NsPlugin()])

    def scenario():
        yield env.timeout(1.2)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        spare = Cluster(env, BUFFALO_CCR, n_nodes=4, name=f"lin{ranks}-b")
        return (yield from dmtcp_restart(spare, ckpt))

    return env.run(until=env.process(scenario()))


def test_restart_host_work_is_linear_in_ranks(monkeypatch):
    """By count, not by clock: every image is serialised exactly once on
    the way from checkpoint to restart, and the name-service db is walked
    the same number of times whatever the number of ranks — all of them
    read one shared, read-only view."""
    serialised = []
    to_bytes = CheckpointImage.to_bytes
    monkeypatch.setattr(
        CheckpointImage, "to_bytes",
        lambda self: serialised.append(self.proc_name) or to_bytes(self))
    from repro.dmtcp.coordinator import NsView

    walked = []      # one entry per walk over a published db
    build = NsView.__init__
    monkeypatch.setattr(
        NsView, "__init__",
        lambda self, db, prefix: walked.append(len(db))
        or build(self, db, prefix))
    for ranks in (8, 16):
        del serialised[:], walked[:]
        session = _checkpoint_then_restart(ranks)
        assert sorted(serialised) == sorted(p.name for p in session.procs)
        views = {id(p.appctx.restart_db) for p in session.procs}
        sections = {id(p.plugins[0].db) for p in session.procs}
        assert len(views) == len(sections) == 1
        view = session.procs[0].appctx.restart_db
        section = session.procs[0].plugins[0].db
        assert len(section) == ranks and section["id:r3"] == 3
        assert view["nsprobe:id:r3"] == 3 and len(view) == 2 * ranks
        with pytest.raises(TypeError):
            section["id:r3"] = 0
        with pytest.raises(TypeError):
            view["nsprobe:id:r3"] = 0
        assert walked == [2 * ranks]    # built once, for every rank


@pytest.mark.parametrize("use_store", [False, True])
def test_staged_blob_equals_a_fresh_serialisation(use_store):
    """In file mode, what ``stage_from`` places is ``record.blob``: it
    decodes to the image at the cut — the metadata and layout
    ``record.image`` kept, and bytes that restore memory bit-identically.
    In store mode it is the image as it stands at staging time, where the
    put fills ``chunk_hashes`` holes in ``region_meta`` after capture and
    no monolithic blob was kept."""
    from repro.dmtcp import FileSink
    from repro.memory import AddressSpace
    from repro.store import CheckpointStore

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name=f"blob{use_store}")
    sink = CheckpointStore(cluster) if use_store else FileSink(cluster)
    session = _launch(env, cluster, n=2, sink=sink,
                      config=RunConfig(incremental=True))

    def scenario():
        yield env.timeout(1.2)
        yield from session.checkpoint(intent="resume")
        yield env.timeout(1.0)      # dirty some chunks, keep others clean
        return (yield from session.checkpoint(intent="restart"))

    ckpt = env.run(until=env.process(scenario()))
    target = Cluster(env, BUFFALO_CCR, n_nodes=2, name=f"blob{use_store}-b")
    staging = FileSink(target, "local")
    staging.stage_from(ckpt)
    for i, record in enumerate(ckpt.records):
        assert (record.blob is None) == use_store
        staged = target.nodes[i].local_disk.fs.load(
            staging.path(record.name))
        if use_store:
            assert CheckpointImage.from_bytes(staged) == \
                CheckpointImage.from_bytes(record.image.to_bytes())
            continue
        assert staged == record.blob
        decoded = CheckpointImage.from_bytes(staged)
        restored = AddressSpace("restored")
        decoded.restore_memory(restored)
        # the frozen continuation's memory is the state at the cut
        assert {r.name: bytes(r.buffer) for r in restored} == \
            {r.name: bytes(r.buffer) for r in record.continuation.memory}
        decoded.drop_bytes()
        assert decoded == record.image


def test_incremental_file_write_charges_the_stalled_delta(env_cluster,
                                                          trace_invariants):
    """An incremental image file is one blocking write of the dirty delta
    stalled by the gzip pipe, and no writer outlives it: after a resume
    checkpoint each process runs its app thread and its checkpoint
    manager, nothing else."""
    env, cluster = env_cluster

    def app(ctx):
        # a read-only table the second checkpoint proves clean
        ctx.memory.mmap(f"{ctx.name}.table", 16 * 4096, data=b"t" * 65536)
        return (yield from counting_app(ctx))

    session = env.run(until=env.process(dmtcp_launch(
        cluster, [AppSpec(i, f"r{i}", app, rank=i) for i in range(2)],
        config=RunConfig(incremental=True))))

    def scenario():
        yield env.timeout(1.2)
        yield from session.checkpoint(intent="resume")
        yield env.timeout(1.0)
        return (yield from session.checkpoint(intent="resume"))

    ckpt = env.run(until=env.process(scenario()))
    last_write = {e["proc"]: e
                  for e in trace_invariants.of_kind("ckpt.write", "E")}
    for record, proc in zip(ckpt.records, session.procs):
        image = record.image
        assert image.capture_stats["mode"] == "incremental"
        assert image.delta_logical_size < image.logical_size
        assert last_write[proc.name]["logical"] == \
            image.delta_logical_size * proc.config.costs.gzip_stall_factor()
        live = sorted(t.name for t in proc.host.threads if t.is_alive)
        assert live == [f"{proc.name}.ckptmgr", f"{proc.name}.main"]


def test_image_roundtrip_and_bad_magic():
    from repro.memory import AddressSpace
    from repro.dmtcp.image import ImageError

    mem = AddressSpace("x")
    r = mem.mmap("data", 256)
    r.view()[:] = 42
    img = CheckpointImage.capture("x", 1, "k", None, mem, gzip=True)
    blob = img.to_bytes()
    img2 = CheckpointImage.from_bytes(blob)
    assert img2.proc_name == "x"
    fresh = AddressSpace("y")
    img2.restore_memory(fresh)
    assert (fresh.region("data").view() == 42).all()
    with pytest.raises(ImageError):
        CheckpointImage.from_bytes(b"NOTMAGIC" + blob[8:])


@pytest.mark.parametrize("gzip", [True, False])
def test_truncated_or_corrupt_image_fails_typed(gzip):
    """Both magics: a file cut short anywhere past the magic, or with a
    flipped payload bit, raises ``ImageError`` with the decoder's own
    error chained — never a bare ``zlib.error`` / ``UnpicklingError`` /
    ``EOFError`` (the monolithic-file restart paths read these blobs
    straight off a simulated disk)."""
    from repro.memory import AddressSpace
    from repro.dmtcp.image import ImageError

    mem = AddressSpace("x")
    mem.mmap("data", 3000, data=bytes(range(250)) * 12)
    blob = CheckpointImage.capture("x", 1, "k", None, mem,
                                   gzip=gzip).to_bytes()
    assert blob[:8] == (b"DMTCPGZ1" if gzip else b"DMTCPRW1")
    n = len(blob)
    damaged = [blob[:cut] for cut in
               (8, 9, 10, 8 + (n - 8) // 4, n // 2, n - 2, n - 1)]
    # zlib's adler32 catches any flip; a raw pickle only those that break
    # its framing, such as the leading PROTO opcode
    for at in (8, n // 2, n - 1) if gzip else (8,):
        damaged.append(blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:])
    for bad in damaged:
        with pytest.raises(ImageError, match="truncated or corrupt") as exc:
            CheckpointImage.from_bytes(bad)
        assert exc.value.__cause__ is not None


def test_gzip_compression_ratio_measured():
    from repro.memory import AddressSpace

    mem = AddressSpace("x")
    zeros = mem.mmap("zeros", 64 * 1024)  # compresses well
    img_gz = CheckpointImage.capture("x", 1, "k", None, mem, gzip=True)
    img_raw = CheckpointImage.capture("x", 1, "k", None, mem, gzip=False)
    assert img_gz.compression_ratio < 0.1
    assert img_raw.compression_ratio == 1.0
    rng = np.random.default_rng(1)
    rnd = mem.mmap("rand", 64 * 1024)
    rnd.view()[:] = rng.integers(0, 256, 64 * 1024, dtype=np.uint8)
    img_gz2 = CheckpointImage.capture("x", 1, "k", None, mem, gzip=True)
    assert img_gz2.compression_ratio > 0.4  # random data barely compresses


def test_interval_checkpointing(env_cluster):
    """DMTCP's --interval: periodic checkpoints until the job completes."""
    env, cluster = env_cluster
    session = _launch(env, cluster, n=2)
    driver = session.start_interval_checkpointing(interval=2.0)

    def scenario():
        results = yield from session.wait()
        taken = yield driver
        return results, taken

    results, taken = env.run(until=env.process(scenario()))
    assert results == [10.0, 10.0]
    assert len(taken) >= 2  # the ~5s job fits at least two 2s intervals
    for ckpt in taken:
        assert len(ckpt.records) == 2
