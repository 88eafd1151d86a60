"""Live pre-copy migration: move a running job to a target cluster.

The classic pre-copy algorithm (Clark et al.'s VM live migration,
re-cast over the paper's checkpoint machinery): while the application
runs, iterative rounds ship the *chunks* that changed since the last
round — dirtiness proven by the §8/§13 chunk generation stamps, the same
proof incremental capture trusts (:func:`~repro.memory.dirty_chunk_bytes`
over each region's per-:data:`~repro.memory.CHUNK_BYTES` stamp vector,
so a round reads no memory and charges no scan), transfer
time charged to the Ethernet segments the copies actually cross.  When
the dirty residue stops shrinking (or is small enough to ride along),
the manager freezes the job with the coordinator's ``intent="migrate"``
checkpoint — the full quiesce + global CQ drain of a real checkpoint,
but no image write — ships only the final dirty delta, and revives the
continuations on the target with ``dmtcp_restart(preloaded=True)``.
Downtime is therefore *stop-and-copy only*: quiesce + drain + capture +
the residue's wire time + restart, with no disk on the critical path —
strictly below a full checkpoint+restart cycle, which pays the disk
both ways.

Round bookkeeping guarantees the ``precopy-shrink`` trace invariant by
construction: a round whose dirty residue did not shrink below
``convergence_ratio`` of the previous round's is never transferred (it
would be wasted wire — the same bytes ride the stop-and-copy), so the
emitted ``migrate.precopy.round`` spans carry non-increasing byte
counts.

A target failure never strands the source: liveness is checked at every
round boundary and re-checked immediately before the freeze, and
:class:`MigrationError` is only ever raised while the source job still
runs — :meth:`repro.faults.RecoveryManager.supervise_migration` retries
with a fresh target on exactly that guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from .. import hooks
from ..dmtcp.launcher import DmtcpSession, dmtcp_restart
from ..hardware.cluster import Cluster
from ..memory import dirty_chunk_bytes

__all__ = ["MigrationConfig", "MigrationError", "MigrationManager",
           "MigrationResult"]


class MigrationError(RuntimeError):
    """The migration failed before the point of no return (e.g. the
    target died mid-pre-copy).  The source job is still running."""


@dataclass(frozen=True)
class MigrationConfig:
    """Pre-copy convergence knobs."""

    #: hard cap on transferred pre-copy rounds (round 1 is the full copy)
    max_rounds: int = 8
    #: rounds always transferred before convergence is consulted; setting
    #: ``min_rounds == max_rounds`` forces an exact round count (the
    #: sweep's downtime-vs-rounds axis)
    min_rounds: int = 1
    #: application run time between rounds (dirtying window), seconds
    round_interval: float = 0.05
    #: stop when a round's dirty residue is no smaller than this fraction
    #: of the previous round's — further rounds would re-ship the same
    #: working set
    convergence_ratio: float = 0.9
    #: a residue at or below this many logical bytes always rides the
    #: stop-and-copy instead of its own round
    stop_bytes: float = 256 * 1024.0


@dataclass
class MigrationResult:
    """One completed migration, decomposed."""

    #: the revived job on the target cluster
    session: DmtcpSession
    #: stop-and-copy wall time (freeze request → threads thawed on target)
    downtime_seconds: float
    #: transferred pre-copy rounds
    rounds: int
    #: logical bytes shipped while the application ran
    precopy_bytes: float
    #: final dirty delta shipped during the freeze
    stopcopy_bytes: float
    #: per-round logical byte counts, in transfer order (non-increasing)
    round_bytes: List[float] = field(default_factory=list)
    #: total pre-copy phase wall time (first scan → freeze request)
    precopy_seconds: float = 0.0


class MigrationManager:
    """Drives one live pre-copy migration (see module docstring)."""

    def __init__(self, session: DmtcpSession, target: Cluster,
                 config: Optional[MigrationConfig] = None,
                 node_map: Optional[Dict[int, int]] = None,
                 name: str = "migrate"):
        self.session = session
        self.env = session.env
        self.source = session.cluster
        self.target = target
        self.config = config if config is not None else MigrationConfig()
        self.node_map = node_map
        self.name = name

    # -- helpers ---------------------------------------------------------------

    def _target_dead(self) -> bool:
        return any(node.failed for node in self.target.nodes)

    def _wire_seconds(self, nbytes: float) -> float:
        """One-way time for ``nbytes`` across the slower of the two
        Ethernet segments (migration traffic leaves the IB fabric — the
        target may not even have one)."""
        return max(self.source.ethernet.transfer_time(nbytes),
                   self.target.ethernet.transfer_time(nbytes))

    def _dirty(self, proc, synced: Dict[tuple, np.ndarray]
               ) -> List[Tuple[tuple, np.ndarray, float]]:
        """Regions of ``proc`` holding chunks whose stamp moved past
        what the target already holds: [((name, addr, size), stamps at
        scan time, dirty logical bytes)].  ``synced`` is keyed by the
        mapping too, so a remapped or resized region ships whole — the
        same rule capture applies.  Only the dirty chunks' bytes ride
        the round's wire."""
        san = hooks.chunksan
        if san is not None:
            # audit the stamps this round trusts before they decide what
            # rides the wire
            san.check_capture(getattr(proc, "name", str(proc)),
                              proc.host.memory, context="migrate.round",
                              t_sim=self.env.now)
        dirty = []
        for region in proc.host.memory:
            key = (region.name, region.addr, region.size)
            gens = region.chunk_gens
            dirty_real = dirty_chunk_bytes(region.size, gens,
                                           synced.get(key))
            if dirty_real:
                # a copy: ``touch`` stamps the live array in place
                dirty.append((key, gens.copy(),
                              dirty_real * region.repr_scale))
        return dirty

    # -- the migration ---------------------------------------------------------

    def migrate(self) -> Generator:
        """Process generator: run the full pre-copy → stop-and-copy →
        target-restart pipeline; returns a :class:`MigrationResult`."""
        env = self.env
        cfg = self.config
        tracer = hooks.tracer
        procs = self.session.procs
        t_start = env.now
        span = None if tracer is None else tracer.begin(
            "migrate", self.name, t_start, procs=len(procs),
            source=self.source.name, target=self.target.name,
            max_rounds=cfg.max_rounds)

        # -- pre-copy rounds (application keeps running) -----------------------
        #: per proc: (region name, addr, size) → the chunk stamps the
        #: target's copy was scanned at
        synced = {p.name: {} for p in procs}
        round_bytes: List[float] = []
        precopy_bytes = 0.0
        while len(round_bytes) < cfg.max_rounds:
            if self._target_dead():
                if tracer is not None:
                    tracer.end(span, env.now, aborted=True,
                               rounds=len(round_bytes))
                raise MigrationError(
                    f"{self.target.name} died during pre-copy round "
                    f"{len(round_bytes) + 1}")
            dirty_by_proc = {}
            nbytes = 0.0
            nregions = 0
            for proc in procs:
                dirty = self._dirty(proc, synced[proc.name])
                dirty_by_proc[proc.name] = dirty
                nbytes += sum(size for _n, _h, size in dirty)
                nregions += len(dirty)
            if len(round_bytes) >= cfg.min_rounds:
                if nbytes <= cfg.stop_bytes:
                    break  # small enough to ride the stop-and-copy
                if round_bytes \
                        and nbytes > round_bytes[-1] * cfg.convergence_ratio:
                    break  # residue stopped shrinking: wire would be wasted
            rspan = None if tracer is None else tracer.begin(
                "migrate.precopy.round", self.name, env.now,
                round=len(round_bytes) + 1, bytes=nbytes, regions=nregions)
            yield env.timeout(self._wire_seconds(nbytes))
            # the target now holds the bytes as stamped *at scan time*;
            # anything dirtied since shows up next round
            for proc in procs:
                synced[proc.name].update(
                    {key: gens for key, gens, _sz in dirty_by_proc[proc.name]})
            round_bytes.append(nbytes)
            precopy_bytes += nbytes
            if tracer is not None:
                tracer.end(rspan, env.now)
            if len(round_bytes) < cfg.max_rounds:
                yield env.timeout(cfg.round_interval)

        # -- point of decision: target must be up to freeze the source --------
        if self._target_dead():
            if tracer is not None:
                tracer.end(span, env.now, aborted=True,
                           rounds=len(round_bytes))
            raise MigrationError(
                f"{self.target.name} died before stop-and-copy")
        precopy_seconds = env.now - t_start

        # -- stop-and-copy (the downtime window) -------------------------------
        t_stop = env.now
        sspan = None if tracer is None else tracer.begin(
            "migrate.stopcopy", self.name, t_stop, rounds=len(round_bytes))
        # full coordinated quiesce + global CQ drain + in-memory capture;
        # no image write (intent="migrate"), continuations detached
        ckpt_set = yield from self.session.checkpoint(intent="migrate")
        # the final delta: chunks whose stamps, as the freeze captured
        # them, moved past what the rounds shipped
        delta_bytes = 0.0
        for record in ckpt_set.records:
            have = synced[record.name]
            meta = record.image.region_meta
            for rsnap in record.image.memory_snapshot["regions"]:
                name, size = rsnap["name"], rsnap["size"]
                gens = np.frombuffer(meta[name]["chunk_gens"], dtype=np.int64)
                held = have.get((name, rsnap["addr"], size))
                delta_bytes += dirty_chunk_bytes(size, gens, held) \
                    * rsnap["repr_scale"]
            delta_bytes += record.image.header_bytes
        yield env.timeout(self._wire_seconds(delta_bytes))
        self.source.teardown()
        session2 = yield from dmtcp_restart(
            self.target, ckpt_set, node_map=self.node_map,
            stage_images=False, preloaded=True)
        downtime = env.now - t_stop
        if tracer is not None:
            tracer.end(sspan, env.now, delta_bytes=delta_bytes,
                       downtime=downtime)
            tracer.end(span, env.now, rounds=len(round_bytes),
                       precopy_bytes=precopy_bytes,
                       stopcopy_bytes=delta_bytes, downtime=downtime)
        return MigrationResult(
            session=session2, downtime_seconds=downtime,
            rounds=len(round_bytes), precopy_bytes=precopy_bytes,
            stopcopy_bytes=delta_bytes, round_bytes=round_bytes,
            precopy_seconds=precopy_seconds)
