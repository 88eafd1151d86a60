"""Stamp-based pre-copy: the dirty-chunk count live migration and
incremental capture share, and the two ways a round could trust a stale
stamp vector.

The migration tests drive :meth:`MigrationManager.migrate` itself — its
round loop and its stop-and-copy delta — over one address space, with
the cluster, the coordinator's freeze and the target restart stood in
by the few attributes the manager reads.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.migrate.manager as manager_module
from repro.dmtcp.image import CheckpointImage
from repro.memory import CHUNK_BYTES, AddressSpace, dirty_chunk_bytes
from repro.migrate import MigrationConfig, MigrationManager
from repro.sim import Environment

pytestmark = pytest.mark.chunksan

#: three full chunks and a 100-byte last chunk
SIZE = 3 * CHUNK_BYTES + 100
SCALE = 4.0
WIRE = 0.01          # seconds per transfer, whatever its size
HEADER = 64 * 1024.0


# -- the helper ---------------------------------------------------------------

def test_dirty_chunk_bytes_counts_moved_stamps_and_the_short_tail():
    ref = np.zeros(4, dtype=np.int64)
    gens = ref.copy()
    assert dirty_chunk_bytes(SIZE, gens, ref) == 0
    gens[1] = 7
    assert dirty_chunk_bytes(SIZE, gens, ref) == CHUNK_BYTES
    gens[3] = 7                       # the short last chunk
    assert dirty_chunk_bytes(SIZE, gens, ref) == CHUNK_BYTES + 100
    gens[:] = 7
    assert dirty_chunk_bytes(SIZE, gens, ref) == SIZE
    # a missing reference, or one of another length: the whole region
    assert dirty_chunk_bytes(SIZE, ref, None) == SIZE
    assert dirty_chunk_bytes(SIZE, ref, np.zeros(3, dtype=np.int64)) \
        == SIZE
    # a one-chunk region shorter than a chunk
    assert dirty_chunk_bytes(10, np.ones(1, dtype=np.int64),
                             np.zeros(1, dtype=np.int64)) == 10


# -- through the migration manager -------------------------------------------

def _migrate(monkeypatch, mem, rounds, during_round1=None,
             before_freeze=None):
    """Migrate one process owning ``mem`` with exactly ``rounds``
    pre-copy rounds.  ``during_round1`` runs halfway through round 1's
    wire time (after its scan); ``before_freeze`` runs just before the
    freeze captures the image."""
    env = Environment()
    proc = SimpleNamespace(name="p0", host=SimpleNamespace(memory=mem))

    def cluster(name):
        return SimpleNamespace(
            name=name, nodes=[], teardown=lambda: None,
            ethernet=SimpleNamespace(transfer_time=lambda nbytes: WIRE))

    def checkpoint(intent):
        assert intent == "migrate"
        if before_freeze is not None:
            before_freeze()
        image = CheckpointImage.capture("p0", 1, "3.10.0", "mlx4", mem,
                                        header_bytes=HEADER)
        return SimpleNamespace(records=[SimpleNamespace(name="p0",
                                                        image=image)])
        yield  # a process generator, like DmtcpSession.checkpoint

    def restart(target, ckpt_set, **_kwargs):
        return SimpleNamespace(cluster=target)
        yield  # a process generator, like dmtcp_restart

    monkeypatch.setattr(manager_module, "dmtcp_restart", restart)
    session = SimpleNamespace(env=env, cluster=cluster("src"), costs=None,
                              procs=[proc], checkpoint=checkpoint)
    mgr = MigrationManager(session, cluster("dst"), MigrationConfig(
        min_rounds=rounds, max_rounds=rounds))

    def mutator():
        yield env.timeout(WIRE / 2)
        during_round1()

    if during_round1 is not None:
        env.process(mutator())
    return env.run(until=env.process(mgr.migrate()))


def _memory():
    """A never-written region ``r`` (``data=`` leaves its stamps at 0)
    beside a larger one, so round 1 always outweighs round 2."""
    mem = AddressSpace("m")
    mem.mmap("big", 4 * SIZE, repr_scale=SCALE, data=b"b" * (4 * SIZE))
    mem.mmap("r", SIZE, repr_scale=SCALE, data=b"a" * SIZE)
    return mem


def _remap(mem):
    """munmap ``r`` and map a fresh ``r`` of the same size: new bytes,
    new address, and stamps that start again at 0 — equal to the old
    region's, so only the mapping tells them apart."""
    mem.munmap(mem.region("r"))
    fresh = mem.mmap("r", SIZE, repr_scale=SCALE, data=b"z" * SIZE)
    assert not fresh.chunk_gens.any()


def test_remapped_region_ships_whole_in_the_next_round(monkeypatch):
    mem = _memory()
    result = _migrate(monkeypatch, mem, rounds=2,
                      during_round1=lambda: _remap(mem))
    assert result.round_bytes == [5 * SIZE * SCALE, SIZE * SCALE]
    assert result.stopcopy_bytes == HEADER


def test_remapped_region_ships_whole_in_the_stopcopy(monkeypatch):
    mem = _memory()
    result = _migrate(monkeypatch, mem, rounds=1,
                      before_freeze=lambda: _remap(mem))
    assert result.round_bytes == [5 * SIZE * SCALE]
    assert result.stopcopy_bytes == SIZE * SCALE + HEADER


def test_write_after_a_rounds_scan_ships_in_the_next_round(monkeypatch):
    mem = _memory()
    region = mem.region("r")
    # chunk 1 written while round 1's bytes are on the wire, the short
    # last chunk written after the last round: each ships exactly once
    result = _migrate(
        monkeypatch, mem, rounds=2,
        during_round1=lambda: mem.write(region.addr + CHUNK_BYTES, b"x"),
        before_freeze=lambda: mem.write(region.addr + SIZE - 1, b"y"))
    assert result.round_bytes == [5 * SIZE * SCALE, CHUNK_BYTES * SCALE]
    assert result.stopcopy_bytes == 100 * SCALE + HEADER
