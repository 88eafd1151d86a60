"""The content-addressed multi-tier checkpoint store (repro.store).

Covers the chunk/manifest layer, dedup across epochs and ranks, async
tier replication, tier-aware digest-verified fetch (including corrupt-
chunk healing), refcounted GC under retention, and the store's trace
instrumentation.
"""

import gc
import pickle

import numpy as np
import pytest

from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.process import CheckpointRecord
from repro.hardware import BUFFALO_CCR, Cluster, MGHPCC
from repro.memory import CHUNK_BYTES, AddressSpace
from repro.sim import Environment
from repro.store import (
    CheckpointStore,
    ChunkRef,
    Manifest,
    ManifestError,
    StoreConfig,
    StoreError,
    chunk_path,
    digest_bytes,
)


def _capture(memory, name="p0", prev=None):
    return CheckpointImage.capture(name, 1, "3.10.0", "mlx4", memory,
                                   gzip=True, prev=prev)


def _memory(n_regions=10, region_bytes=4096, seed=0):
    rng = np.random.default_rng(seed)
    mem = AddressSpace(f"m{seed}")
    for i in range(n_regions):
        data = rng.integers(0, 256, region_bytes, dtype=np.uint8).tobytes()
        mem.mmap(f"r{i}", region_bytes, data=data)
    return mem


def _record(**fields):
    """A file-less checkpoint record: the image keeps its bytes."""
    return CheckpointRecord(disk_kind="local", continuation=None, **fields)


def _run(env, gen):
    return env.run(until=env.process(gen))


def _mghpcc(env, n_nodes=4, name="store-test"):
    return Cluster(env, MGHPCC, n_nodes=n_nodes, name=name)


# -- chunk and manifest layer --------------------------------------------------

def test_manifest_roundtrip_and_bad_magic():
    image = _capture(_memory(3))
    env = Environment()
    cluster = _mghpcc(env, name="mf")
    store = CheckpointStore(cluster)
    result = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                       image=image))
    manifest = store.manifest("p0", result.epoch)
    blob = manifest.to_bytes()
    back = Manifest.from_bytes(blob)
    assert back.proc_name == "p0" and back.epoch == result.epoch
    assert back.rows == manifest.rows
    assert back.digests() == manifest.digests()
    assert back.header == manifest.header
    with pytest.raises(ManifestError):
        Manifest.from_bytes(b"NOTAMANIFEST" + blob)
    # the one format there is: a blob under the per-chunk format's magic
    # is not a manifest
    with pytest.raises(ManifestError):
        Manifest.from_bytes(b"STOREMF1" + blob[8:])
    # region rows missing their digests field fail typed, not with TypeError
    fields_ = pickle.loads(blob[8:])
    fields_["rows"] = [row[:7] for row in fields_["rows"]]
    with pytest.raises(ManifestError):
        Manifest.from_bytes(blob[:8] + pickle.dumps(fields_))


def test_manifest_holds_one_row_per_region():
    """A row is a region's layout plus its chunks' digests: the refs it
    rebuilds are the ones the put landed, its blob round-trips, and its
    logical bytes are the per-chunk sum, bit for bit."""
    rng = np.random.default_rng(5)
    mem = AddressSpace("rows")
    for name, size, scale in (("a", 3 * CHUNK_BYTES + 100, 1.0),
                              ("b", 100, 7.5), ("c", 2 * CHUNK_BYTES, 3.0)):
        data = rng.integers(0, 256, size // 2, dtype=np.uint8).tobytes()
        mem.mmap(name, size, repr_scale=scale, data=data)
    env = Environment()
    store = CheckpointStore(_mghpcc(env, name="mf-rows"))
    _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                              image=_capture(mem)))
    manifest = store.manifest("p0", 1)
    pairs = CheckpointStore.chunk_pairs(_capture(mem))
    refs = [ref for ref, _piece in pairs]
    assert [row.region_name for row in manifest.rows] == ["a", "b", "c"]
    assert [len(row.digests) for row in manifest.rows] == [4, 1, 2]
    assert manifest.n_chunks == len(refs) == 7
    assert manifest.chunks == refs
    assert manifest.logical_bytes == sum(ref.logical_bytes for ref in refs)
    back = Manifest.from_bytes(manifest.to_bytes())
    assert back.rows == manifest.rows
    assert back.digests() == manifest.digests() == [r.digest for r in refs]


def test_no_chunk_ref_outlives_a_service_run():
    """Retained manifests keep rows, never per-chunk objects: once a
    service run is over, no ChunkRef is alive while its store is."""
    from repro.service import service_scenario

    run = service_scenario(seed=11, n_jobs=3, total_nodes=2, iters_sim=3)
    assert any(run["service"].store._manifests.values())
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, ChunkRef)]


def test_put_reuses_capture_hashes():
    """Chunk digests agree with the capture's own blake2b fingerprint:
    when the capture carried a chunk's digest forward it IS the content
    address (no rehash); chunks without one get the same function
    applied, so cross-path dedup still works."""
    mem = _memory(4)
    base = _capture(mem)
    CheckpointStore.chunk_pairs(base)  # a put fills base's digests
    incr = _capture(mem, prev=base)
    carried = {name: list(meta["chunk_hashes"])
               for name, meta in incr.region_meta.items()}
    refs = CheckpointStore.chunk_pairs(incr)
    for (ref, data), region in zip(refs, incr.memory_snapshot["regions"]):
        assert ref.digest == digest_bytes(region["data"][0])
        assert ref.digest is carried[region["name"]][0]


# -- put: dedup across epochs and ranks ---------------------------------------

def test_incremental_put_writes_at_most_030x_of_full_baseline():
    """ISSUE acceptance: at ~10% dirty regions, bytes written per
    incremental checkpoint ≤ 0.3x the full-image baseline."""
    env = Environment()
    cluster = _mghpcc(env, name="dedup")
    store = CheckpointStore(cluster)
    mem = _memory(n_regions=10, seed=3)
    full = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                     image=_capture(mem)))
    assert full.chunks_new == 10 and full.chunks_deduped == 0
    # dirty one region of ten, checkpoint again
    region = next(iter(mem))
    mem.write(region.addr, b"\x01\x02\x03")
    second = _run(env, store.put_image(rank=0, node_index=0, epoch=2,
                                       image=_capture(mem)))
    assert second.chunks_new == 1 and second.chunks_deduped == 9
    assert second.bytes_written <= 0.3 * full.bytes_written


def test_cross_rank_dedup_on_shared_node():
    """Two ranks on one node with identical region contents: the second
    rank's put references the first rank's chunks instead of rewriting."""
    env = Environment()
    cluster = _mghpcc(env, name="xrank")
    store = CheckpointStore(cluster)
    mem0, mem1 = _memory(seed=5), _memory(seed=5)   # same bytes
    r0 = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                   image=_capture(mem0, name="p0")))
    r1 = _run(env, store.put_image(rank=1, node_index=0, epoch=1,
                                   image=_capture(mem1, name="p1")))
    assert r0.chunks_new == 10
    assert r1.chunks_new == 0 and r1.chunks_deduped == 10
    assert r1.bytes_real == 0.0


# -- replication ---------------------------------------------------------------

def test_replication_places_chunks_on_partner_and_lustre():
    env = Environment()
    cluster = _mghpcc(env, name="repl")
    store = CheckpointStore(cluster)
    image = _capture(_memory(seed=7))
    result = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                       image=image))
    manifest = store.manifest("p0", result.epoch)
    partner_fs = cluster.nodes[manifest.partner_index].local_disk.fs
    assert not any(partner_fs.exists(chunk_path(d))
                   for d in manifest.digests())
    store.schedule_replication(1)
    _run(env, store.drain_replication())
    for digest in manifest.digests():
        assert partner_fs.exists(chunk_path(digest))
        assert cluster.lustre_fs.exists(chunk_path(digest))
    assert partner_fs.exists(manifest.path)
    assert cluster.lustre_fs.exists(manifest.path)
    assert store.stats["replicated_chunks"] == 20  # 10 chunks x 2 tiers
    # idempotent: re-scheduling the same epoch spawns nothing new
    store.schedule_replication(1)
    assert not store._live_flows


def test_single_node_cluster_has_no_partner_tier():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="solo")
    store = CheckpointStore(cluster)
    assert store.partner is None and store.lustre is None


# -- tier-aware fetch ----------------------------------------------------------

def _stored_and_replicated(env, cluster, seed=11):
    store = CheckpointStore(cluster)
    image = _capture(_memory(seed=seed))
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    store.schedule_replication(1)
    _run(env, store.drain_replication())
    return store, image


def test_fetch_bit_identical_from_every_tier():
    env = Environment()
    cluster = _mghpcc(env, name="tiers")
    store, image = _stored_and_replicated(env, cluster)
    reference = image.to_bytes()

    fetched = _run(env, store.fetch_image("p0", via_node_index=2))
    assert fetched.to_bytes() == reference
    assert store.stats["hits_local"] == 10

    cluster.nodes[0].fail()                     # local tier destroyed
    fetched = _run(env, store.fetch_image("p0", via_node_index=2))
    assert fetched.to_bytes() == reference
    assert store.stats["hits_partner"] == 10

    manifest = store.manifest("p0", 1)
    cluster.nodes[manifest.partner_index].fail()  # partner gone too
    fetched = _run(env, store.fetch_image("p0", via_node_index=2))
    assert fetched.to_bytes() == reference
    assert store.stats["hits_lustre"] == 10


def test_fetch_detects_and_heals_corrupt_chunk():
    env = Environment()
    cluster = _mghpcc(env, name="rot")
    store, image = _stored_and_replicated(env, cluster, seed=13)
    manifest = store.manifest("p0", 1)
    digest = manifest.digests()[0]
    path = chunk_path(digest)
    local_fs = cluster.nodes[0].local_disk.fs
    good = local_fs.load(path)
    local_fs.store(path, bytes([good[0] ^ 0xFF]) + good[1:],
                   local_fs.logical_size(path))

    fetched = _run(env, store.fetch_image("p0", via_node_index=0))
    assert fetched.to_bytes() == image.to_bytes()
    assert store.stats["corrupt_detected"] == 1
    assert store.stats["healed"] == 1
    # healed in place: the local copy verifies again
    assert digest_bytes(local_fs.load(path)) == digest


def test_fetch_raises_when_no_live_tier_holds_a_chunk():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="dead")
    assert cluster.lustre_fs is None            # no shared tier to save us
    store = CheckpointStore(cluster)
    image = _capture(_memory(seed=17))
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    store.schedule_replication(1)
    _run(env, store.drain_replication())
    cluster.nodes[0].fail()
    cluster.nodes[1].fail()                     # partner replica dead too
    with pytest.raises(StoreError, match="no live replica"):
        _run(env, store.fetch_image("p0"))


def _after_loads(fs, k, action):
    """Run ``action`` as the k-th ``fs.load`` returns: a fault that lands
    between chunk k and chunk k+1 of whoever is reading (``Disk.read``
    and ``materialize_image`` both end in ``fs.load``)."""
    real, loads = fs.load, []

    def load(path):
        data = real(path)
        loads.append(path)
        if len(loads) == k:
            action()
        return data

    fs.load = load


def _home_fails(cluster):
    cluster.nodes[0].fail()


def _lustre_goes_down(cluster):
    cluster.lustre_down = True


def _home_fails_as_lustre_returns(cluster):
    cluster.nodes[0].fail()
    cluster.lustre_down = False


#: (nodes down before the fetch, Lustre down before it, the fault after
#: chunk 4 of 10, hits per tier, simulated seconds of the timed fetch —
#: the parent commit's for the same schedule, to the last bit)
_MID_FETCH = [
    ((), False, _home_fails, (4, 6, 0), 0.05007876923076915),
    ((0, 1), False, _lustre_goes_down, (0, 0, 4), 0.004029257142857179),
    ((1,), True, _home_fails_as_lustre_returns, (4, 0, 6),
     0.026075393406593428),
]


@pytest.mark.parametrize("timed", [True, False],
                         ids=["fetch_image", "materialize_image"])
@pytest.mark.parametrize("down,lustre_down,fault,hits,seconds", _MID_FETCH,
                         ids=[case[2].__name__ for case in _MID_FETCH])
def test_fault_between_two_chunks_redirects_the_next_one(
        down, lustre_down, fault, hits, seconds, timed):
    """Placement is resolved once per image, liveness once per chunk: a
    node crash or a Lustre brownout that lands after chunk k of one
    fetch sends chunk k+1 to the next live tier (or, with none left,
    fails typed) — never to the tier that just died."""
    env = Environment()
    cluster = _mghpcc(env, name="midfetch")
    store, image = _stored_and_replicated(env, cluster, seed=23)
    for index in down:
        cluster.nodes[index].fail()
    cluster.lustre_down = lustre_down
    serving = cluster.lustre_fs if 0 in down \
        else cluster.nodes[0].local_disk.fs
    _after_loads(serving, 4, lambda: fault(cluster))
    t0 = env.now

    def fetch():
        if timed:
            return _run(env, store.fetch_image("p0", via_node_index=2))
        return store.materialize_image("p0", via_node_index=2)

    if sum(hits) < 10:                  # the last live tier went away
        with pytest.raises(StoreError, match="no live replica"):
            fetch()
    else:
        assert fetch().to_bytes() == image.to_bytes()
    if timed:
        assert (store.stats["hits_local"], store.stats["hits_partner"],
                store.stats["hits_lustre"]) == hits
        assert env.now - t0 == seconds
    else:
        assert env.now == t0        # the post-copy split charges no time


def test_latest_epoch_and_manifest_errors():
    env = Environment()
    store = CheckpointStore(_mghpcc(env, name="err"))
    with pytest.raises(StoreError, match="no checkpoints"):
        store.latest_epoch("ghost")
    with pytest.raises(StoreError, match="no manifest"):
        store.manifest("ghost", 1)


# -- GC ------------------------------------------------------------------------

def test_gc_retires_old_epochs_but_keeps_shared_chunks():
    env = Environment()
    cluster = _mghpcc(env, name="gc")
    store = CheckpointStore(cluster, config=StoreConfig(retention=1))
    mem = _memory(n_regions=4, seed=19)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                              image=_capture(mem)))
    old = store.manifest("p0", 1)
    region = next(iter(mem))
    mem.write(region.addr, b"\xaa\xbb")         # 1 of 4 regions changes
    _run(env, store.put_image(rank=0, node_index=0, epoch=2,
                              image=_capture(mem)))
    new = store.manifest("p0", 2)
    local_fs = cluster.nodes[0].local_disk.fs
    retired, deleted = store.collect_garbage()
    assert retired == 1 and deleted == 1        # only the superseded chunk
    assert not local_fs.exists(old.path)
    with pytest.raises(StoreError):
        store.manifest("p0", 1)
    # every chunk the surviving epoch references is still there
    for digest in new.digests():
        assert local_fs.exists(chunk_path(digest))
    assert store.latest_epoch("p0") == 2


def test_gc_never_retires_the_latest_epoch():
    env = Environment()
    store = CheckpointStore(_mghpcc(env, name="keep1"),
                            config=StoreConfig(retention=1))
    image = _capture(_memory(seed=23))
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    assert store.collect_garbage() == (0, 0)
    assert store.latest_epoch("p0") == 1


def _retire_sequence(store):
    """Three epochs of p0 under retention 1 plus one epoch of p1, then
    retention GC and the deletion of p1.  Returns both (manifests
    retired, chunks deleted) counts."""
    env = store.env
    mem = _memory(n_regions=4, seed=53)
    for epoch in (1, 2, 3):
        mem.write(next(iter(mem)).addr, bytes([epoch]))  # one chunk changes
        _run(env, store.put_image(rank=0, node_index=0, epoch=epoch,
                                  image=_capture(mem)))
    _run(env, store.put_image(rank=1, node_index=1, epoch=3,
                              image=_capture(_memory(seed=59), name="p1")))
    return (store.collect_garbage(),
            store.delete_procs(lambda proc: proc == "p1"))


def test_on_retire_fires_once_per_retired_manifest():
    """The callback sees each manifest retention GC or ``delete_procs``
    retires exactly once, after its chunks' refcounts dropped; a store
    built without it retires the same manifests and chunks."""
    log = []

    def on_retire(manifest):
        # (proc, epoch, chunks no manifest references any more)
        log.append((manifest.proc_name, manifest.epoch,
                    sum(not store.holds(d) for d in manifest.digests())))

    config = StoreConfig(retention=1)
    store = CheckpointStore(_mghpcc(Environment(), name="on-retire"),
                            config=config, on_retire=on_retire)
    gc, deleted = _retire_sequence(store)
    assert log == [("p0", 1, 1), ("p0", 2, 1), ("p1", 3, 10)]
    assert gc == (2, 2) and deleted == (1, 10)
    plain = CheckpointStore(_mghpcc(Environment(), name="no-callback"),
                            config=config)
    assert _retire_sequence(plain) == (gc, deleted)
    assert plain.stats == store.stats
    assert plain.latest_epoch("p0") == store.latest_epoch("p0") == 3
    with pytest.raises(StoreError):
        plain.latest_epoch("p1")


# -- staging and epoch continuity ---------------------------------------------

def test_stage_resumes_epoch_numbering():
    """After staging epoch-3 records, a fresh coordinator's epoch 1 must
    land as absolute epoch 4 — not collide with the staged manifests."""
    env = Environment()
    cluster = _mghpcc(env, name="offset")
    store = CheckpointStore(cluster)
    image = _capture(_memory(seed=29))
    record = _record(image=image, name="p0", rank=0, node_index=0,
                     epoch=3, path="/ignored")
    store.ingest_record(record)
    assert store.latest_epoch("p0") == 3
    mem = _memory(seed=31)
    result = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                       image=_capture(mem)))
    assert result.epoch == 4
    assert store.latest_epoch("p0") == 4


def test_epoch_offset_compounds_across_two_staged_restarts():
    """Restart of a restart: generation 1 dies at epoch 3, generation 2
    stages it and checkpoints (epoch 4), dies in turn, generation 3
    stages *that* — each fresh coordinator counts from 1 again, so the
    offsets must compound (3 → 4 → 5), never collide."""
    env = Environment()
    store2 = CheckpointStore(_mghpcc(env, name="offset-gen2"))
    store2.ingest_record(_record(
        image=_capture(_memory(seed=43)), name="p0", rank=0,
        node_index=0, epoch=3, path="/ignored"))
    assert store2._epoch_offset == 3
    mem = _memory(seed=47)
    gen2 = _run(env, store2.put_image(rank=0, node_index=0, epoch=1,
                                      image=_capture(mem)))
    assert gen2.epoch == 4 and store2.latest_epoch("p0") == 4

    # generation 3: a fresh cluster and store stage generation 2's
    # latest image (absolute epoch 4) and checkpoint from 1 again
    env3 = Environment()
    store3 = CheckpointStore(_mghpcc(env3, name="offset-gen3"))
    store3.ingest_record(_record(
        image=_capture(mem), name="p0", rank=0, node_index=0,
        epoch=gen2.epoch, path="/ignored"))
    assert store3._epoch_offset == 4
    gen3 = _run(env3, store3.put_image(rank=0, node_index=0, epoch=1,
                                       image=_capture(_memory(seed=53))))
    assert gen3.epoch == 5 and store3.latest_epoch("p0") == 5
    # the offset is global (max over everything staged), so a sibling
    # rank staged at an older epoch shares the same numbering
    store3.ingest_record(_record(
        image=_capture(_memory(seed=59), name="p1"), name="p1", rank=1,
        node_index=1, epoch=2, path="/ignored"))
    assert store3._epoch_offset == 4
    sibling = _run(env3, store3.put_image(rank=1, node_index=1, epoch=1,
                                          image=_capture(_memory(seed=61),
                                                         name="p1")))
    assert sibling.epoch == 5


def test_gc_retention_races_concurrent_tier_walking_restart():
    """GC fires while a restart is mid-fetch, walking tiers chunk by
    chunk.  Retention only retires chunks unreferenced by surviving
    epochs, so the in-flight fetch of the latest epoch completes
    bit-identical and digest-clean even though the superseded epoch
    vanished under it."""
    env = Environment()
    cluster = _mghpcc(env, name="gc-race")
    store = CheckpointStore(cluster, config=StoreConfig(retention=1))
    mem = _memory(n_regions=8, region_bytes=1 << 20, seed=67)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                              image=_capture(mem)))
    region = next(iter(mem))
    mem.write(region.addr, b"\xde\xad\xbe\xef")  # 1 of 8 regions moves
    _run(env, store.put_image(rank=0, node_index=0, epoch=2,
                              image=_capture(mem)))
    expected = {r["name"]: r["data"]
                for r in _capture(mem).memory_snapshot["regions"]}

    def racing_restart():
        fetch = env.process(store.fetch_image("p0", epoch=2,
                                              via_node_index=2))
        yield env.timeout(1e-4)          # a few chunks into the walk
        assert fetch.is_alive
        retired, deleted = store.collect_garbage()
        assert retired == 1 and deleted == 1  # only the superseded chunk
        image = yield fetch
        return image

    image = _run(env, racing_restart())
    got = {r["name"]: r["data"] for r in image.memory_snapshot["regions"]}
    assert got == expected                       # bit-identical
    assert store.stats["corrupt_detected"] == 0  # no heals needed
    with pytest.raises(StoreError):
        store.manifest("p0", 1)                  # the old epoch is gone


def test_ingest_places_fully_replicated():
    env = Environment()
    cluster = _mghpcc(env, name="ingest")
    store = CheckpointStore(cluster)
    image = _capture(_memory(seed=37))
    record = _record(image=image, name="p0", rank=0, node_index=1,
                     epoch=2, path="/x")
    manifest = store.ingest_record(record)
    for digest in manifest.digests():
        assert cluster.nodes[1].local_disk.fs.exists(chunk_path(digest))
        partner_fs = cluster.nodes[manifest.partner_index].local_disk.fs
        assert partner_fs.exists(chunk_path(digest))
        assert cluster.lustre_fs.exists(chunk_path(digest))


# -- one object per chunk -----------------------------------------------------

def _assert_pieces_are(image, fs):
    """Every piece of ``image`` is the very object ``fs`` holds for it."""
    n = 0
    for region in image.memory_snapshot["regions"]:
        digests = image.region_meta[region["name"]]["chunk_hashes"]
        assert len(digests) == len(region["data"])
        for digest, piece in zip(digests, region["data"]):
            assert piece is fs.load(chunk_path(digest))
            n += 1
    assert n > 0


def _odd_memory(seed):
    """Regions of several chunks, none a whole number of chunks, and two
    regions with the same bytes (so one put dedups against itself)."""
    rng = np.random.default_rng(seed)
    mem = AddressSpace(f"odd{seed}")
    for i, size in enumerate((10_000, 4096 * 3 + 1, 100)):
        mem.mmap(f"r{i}", size,
                 data=rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    twin = rng.integers(0, 256, 9000, dtype=np.uint8).tobytes()
    mem.mmap("twin_a", 9000, data=twin)
    mem.mmap("twin_b", 9000, data=twin)
    return mem


def test_put_image_lands_and_dedups_one_object_per_chunk():
    env = Environment()
    cluster = _mghpcc(env, name="one-obj")
    store = CheckpointStore(cluster)
    fs = cluster.nodes[0].local_disk.fs
    mem = _odd_memory(seed=71)
    base = _capture(mem)
    first = _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                      image=base))
    assert first.chunks_deduped == 3          # twin_b's chunks
    _assert_pieces_are(base, fs)
    # a second rank on the node with the same bytes dedups everything and
    # ends up holding the first rank's objects
    other = _capture(_odd_memory(seed=71), name="p1")
    again = _run(env, store.put_image(rank=1, node_index=0, epoch=1,
                                      image=other))
    assert again.chunks_new == 0
    _assert_pieces_are(other, fs)
    # incremental: the clean regions' tuples stay shared with ``prev``;
    # the dirty region's fresh pieces are swapped where the tier has them
    region = mem.region("r0")
    mem.write(region.addr + 5000, b"\x01")
    incr = _capture(mem, prev=base)
    _run(env, store.put_image(rank=0, node_index=0, epoch=2, image=incr))
    _assert_pieces_are(incr, fs)
    by_name = {r["name"]: r["data"] for r in incr.memory_snapshot["regions"]}
    prev = {r["name"]: r["data"] for r in base.memory_snapshot["regions"]}
    for name in ("r1", "r2", "twin_a", "twin_b"):
        assert by_name[name] is prev[name]
    assert by_name["r0"] is not prev["r0"]
    assert by_name["r0"][0] is prev["r0"][0]      # clean chunk: deduped
    assert by_name["r0"][1] is not prev["r0"][1]  # the chunk written


def test_put_for_lands_and_dedups_one_object_per_chunk():
    from repro.service import CheckpointService

    env = Environment()
    cluster = _mghpcc(env, n_nodes=2, name="svc-one-obj")
    service = CheckpointService(cluster, n_shards=4)
    fs = cluster.nodes[0].local_disk.fs
    image_a = _capture(_odd_memory(seed=73), name="ja.r0")
    image_b = _capture(_odd_memory(seed=73), name="jb.r0")
    _run(env, service.put_for("acme", "ja", 0, 0, 1, image_a))
    result = _run(env, service.put_for("umass", "jb", 0, 0, 1, image_b))
    assert result.chunks_new == 0
    _assert_pieces_are(image_a, fs)
    _assert_pieces_are(image_b, fs)


def test_ingest_record_stores_one_object_on_every_tier():
    env = Environment()
    cluster = _mghpcc(env, name="ingest-one-obj")
    store = CheckpointStore(cluster)
    image = _capture(_odd_memory(seed=79))
    manifest = store.ingest_record(_record(
        image=image, name="p0", rank=0, node_index=1, epoch=1,
        path="/ignored"))
    tiers = [cluster.nodes[1].local_disk.fs,
             cluster.nodes[manifest.partner_index].local_disk.fs,
             cluster.lustre_fs]
    for fs in tiers:
        _assert_pieces_are(image, fs)


def test_fetch_image_hands_back_the_tiers_objects():
    env = Environment()
    cluster = _mghpcc(env, name="fetch-one-obj")
    store = CheckpointStore(cluster)
    mem = _odd_memory(seed=83)
    want = {r.name: bytes(r.buffer) for r in mem}
    image = _capture(mem)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    fetched = _run(env, store.fetch_image("p0", via_node_index=0))
    _assert_pieces_are(fetched, cluster.nodes[0].local_disk.fs)
    assert all(isinstance(r["data"], tuple)
               for r in fetched.memory_snapshot["regions"])
    for ours, theirs in zip(image.memory_snapshot["regions"],
                            fetched.memory_snapshot["regions"]):
        assert all(a is b for a, b in zip(ours["data"], theirs["data"]))
    fresh = AddressSpace("fresh")
    fetched.restore_memory(fresh)
    assert {r.name: bytes(r.buffer) for r in fresh} == want
    materialized = store.materialize_image("p0", via_node_index=0)
    _assert_pieces_are(materialized, cluster.nodes[0].local_disk.fs)


def test_dedup_never_adopts_a_rotten_tier_copy():
    """A piece whose tier copy has rotted stays the image's own: the
    in-memory image keeps the good bytes (the next fetch heals the
    tier)."""
    env = Environment()
    cluster = _mghpcc(env, name="rot-one-obj")
    store = CheckpointStore(cluster)
    fs = cluster.nodes[0].local_disk.fs
    mem = _memory(n_regions=2, seed=89)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                              image=_capture(mem)))
    digest = store.manifest("p0", 1).chunks[0].digest
    blob = fs.load(chunk_path(digest))
    fs.store(chunk_path(digest), b"\x00" + blob[1:], 1.0)
    image = _capture(mem)
    result = _run(env, store.put_image(rank=0, node_index=0, epoch=2,
                                       image=image))
    assert result.chunks_deduped == 2
    piece = image.memory_snapshot["regions"][0]["data"][0]
    assert piece == blob and digest_bytes(piece) == digest


def test_two_epochs_of_put_and_fetch_hold_each_chunk_once():
    """Captured images, every tier and the fetched images share one
    object per distinct chunk content: two epochs of put + replicate +
    fetch of an N-MiB address space, with every image still held, trace
    under 1.25 N MiB of byte payloads beyond live memory (allocations of
    at least 1 KiB; the per-chunk bookkeeping — refs, paths, file
    entries — is not what is shared)."""
    import gc
    import tracemalloc

    n_mib = 4
    env = Environment()
    cluster = _mghpcc(env, name="one-obj-rss")
    store = CheckpointStore(cluster)
    mem = _memory(n_regions=n_mib * 4, region_bytes=1 << 18, seed=97)
    gc.collect()
    tracemalloc.start()
    try:
        held = []
        prev = None
        for epoch in (1, 2):
            if epoch == 2:
                for region in list(mem)[:2]:     # a few chunks move
                    mem.write(region.addr + 8192, b"\x5a" * 4096)
            image = _capture(mem, prev=prev)
            _run(env, store.put_image(rank=0, node_index=0, epoch=epoch,
                                      image=image))
            store.schedule_replication(epoch)
            _run(env, store.drain_replication())
            held += [image, _run(env, store.fetch_image(
                "p0", epoch=epoch, via_node_index=1))]
            prev = image
        gc.collect()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    assert len(held) == 4
    payload = sum(t.size for t in traces if t.size >= 1024)
    assert n_mib * (1 << 20) < payload < 1.25 * n_mib * (1 << 20)


# -- manifest header ownership ------------------------------------------------

def test_fetched_image_does_not_alias_the_stored_manifest():
    """Editing a fetched (or the putting) image's bookkeeping — as the
    incremental chaos restart reseeds generations — must not rewrite the
    stored manifest."""
    env = Environment()
    cluster = _mghpcc(env, name="alias")
    store = CheckpointStore(cluster)
    image = _capture(_memory(n_regions=2, seed=101))
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    gen = image.region_meta["r0"]["generation"]
    image.region_meta["r0"]["generation"] = 998
    image.region_meta["r0"]["chunk_hashes"][0] = None
    image.capture_stats["mode"] = "edited"
    fetched = _run(env, store.fetch_image("p0"))
    assert fetched.region_meta["r0"]["generation"] == gen
    fetched.region_meta["r0"]["generation"] = 999
    fetched.region_meta["r0"]["chunk_hashes"][0] = None
    fetched.capture_stats["mode"] = "edited"
    again = _run(env, store.fetch_image("p0"))
    assert again.region_meta["r0"]["generation"] == gen
    assert again.region_meta["r0"]["chunk_hashes"][0] is not None
    assert again.capture_stats["mode"] == "full"
    materialized = store.materialize_image("p0")
    materialized.region_meta["r0"]["generation"] = 997
    assert store.materialize_image("p0").region_meta["r0"]["generation"] \
        == gen
    assert store.manifest("p0", 1).header["region_meta"]["r0"][
        "generation"] == gen


def test_fetched_image_region_meta_equals_the_put_images():
    """A manifest keeps one digest list per region, its row, and no
    ``chunk_hashes`` beside it: fetch and materialize rebuild each
    region's list from the row, so a fetched image's bookkeeping equals
    the put image's, for a full and an incremental epoch alike."""
    env = Environment()
    store = CheckpointStore(_mghpcc(env, name="meta"))
    mem = _memory(n_regions=3, region_bytes=3 * CHUNK_BYTES + 7, seed=7)
    full = _capture(mem)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=full))
    mem.region("r1").write(CHUNK_BYTES, b"dirty")
    incr = _capture(mem, prev=full)
    _run(env, store.put_image(rank=0, node_index=0, epoch=2, image=incr))
    for epoch, image in ((1, full), (2, incr)):
        manifest = store.manifest("p0", epoch)
        assert not any("chunk_hashes" in entry for entry in
                       manifest.header["region_meta"].values())
        fetched = _run(env, store.fetch_image("p0", epoch))
        assert fetched.region_meta == image.region_meta
        assert store.materialize_image("p0", epoch).region_meta \
            == image.region_meta


def test_replicas_store_the_one_rendered_manifest_blob():
    env = Environment()
    cluster = _mghpcc(env, name="mf-blob")
    store = CheckpointStore(cluster)
    _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                              image=_capture(_memory(seed=103))))
    store.schedule_replication(1)
    _run(env, store.drain_replication())
    manifest = store.manifest("p0", 1)
    local = cluster.nodes[0].local_disk.fs.load(manifest.path)
    partner = cluster.nodes[manifest.partner_index].local_disk.fs.load(
        manifest.path)
    lustre = cluster.lustre_fs.load(manifest.path)
    assert partner is local and lustre is local
    assert local == manifest.to_bytes()     # byte-identical to a render
    assert Manifest.from_bytes(local).header == manifest.header


# -- observability -------------------------------------------------------------

def test_store_spans_and_summary_under_tracer():
    from repro.obs import store_summary, traced

    env = Environment()
    cluster = _mghpcc(env, name="obs")
    with traced() as tracer:
        store = CheckpointStore(cluster)
        image = _capture(_memory(seed=41))
        _run(env, store.put_image(rank=0, node_index=0, epoch=1,
                                  image=image))
        store.schedule_replication(1)
        _run(env, store.drain_replication())
        _run(env, store.fetch_image("p0"))
    kinds = {e["kind"] for e in tracer.events}
    assert {"store.put", "store.replicate", "store.fetch"} <= kinds
    summary = store_summary(tracer.events)
    assert summary["puts"] == 1 and summary["chunks_new"] == 10
    assert summary["fetches"] == 1 and summary["hits_local"] == 10
    assert summary["chunks_copied"] == 20
    assert tracer.metrics.counter("store.chunks_new").value == 10
