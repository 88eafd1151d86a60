"""Migration scenario runners: baselines, smoke paths, and disruption.

End-to-end harnesses in the :func:`repro.faults.run_chaos_nas` mold —
each builds the whole stack (environment, seeded RNG, cluster(s), an LU
job) through one :class:`~repro.scenario.Scenario` and runs one migration
story to completion, returning a plain dict the tests and the migration
sweep both consume:

* :func:`run_baseline_lu` — the non-migrating control: same job, same
  seed, run to completion in place.  Its checksum is the bit-identity
  bar every migration mode must clear.
* :func:`run_cycle_lu` — the classic alternative to live migration: a
  full intent="restart" checkpoint *written to disk*, teardown, stage to
  the target, restart (disk read).  Its cycle time is the downtime bar
  the pre-copy stop-and-copy must beat.
* :func:`run_precopy_lu` — live pre-copy migration mid-run, optionally
  with a forced round count (the sweep's x-axis) and optionally
  disrupted by a target-node crash mid-pre-copy, recovered through
  :meth:`~repro.faults.RecoveryManager.supervise_migration`.
* :func:`run_postcopy_lu` — freeze a gate-parked resume image into a
  content-addressed store, kill the source, restart post-copy on a fresh
  cluster (bytes materialized up front, read time demand-paged),
  optionally through a ``lustre-brownout`` with the chunks pinned to the
  Lustre tier so every page-in must outwait the outage.
* :func:`run_elastic_lu` — freeze N ranks, revive them on M nodes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..apps.nas import lu_app
from ..faults.injector import Injector
from ..faults.recovery import (ChaosGate, ChaosPlugin, RecoveryConfig,
                               RecoveryManager, RecoveryOutcome)
from ..faults.schedule import FailureEvent, FixedSchedule
from ..hardware import BUFFALO_CCR, HardwareSpec
from ..scenario import Scenario
from .elastic import elastic_restart
from .manager import MigrationConfig
from .postcopy import postcopy_restart

__all__ = ["run_baseline_lu", "run_cycle_lu", "run_elastic_lu",
           "run_postcopy_lu", "run_precopy_lu"]


def run_baseline_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                    ppn: int = 1, iters_sim: int = 6,
                    spec: HardwareSpec = BUFFALO_CCR) -> Dict[str, Any]:
    """The non-migrating control run (see module docstring)."""
    scn = Scenario(spec, nprocs, f"base-{seed}", ppn=ppn, seed=seed)
    cluster = scn.cluster()
    specs = scn.mpi_specs(cluster, lu_app, klass=klass, iters_sim=iters_sim)

    def scenario():
        session = yield from scn.launch(cluster, specs)
        return (yield from session.wait())

    results = scn.run(scenario())
    return {"checksum": results[0].checksum, "results": results,
            "completion_seconds": scn.env.now}


def run_cycle_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                 ppn: int = 1, iters_sim: int = 6,
                 spec: HardwareSpec = BUFFALO_CCR,
                 warmup: float = 0.25) -> Dict[str, Any]:
    """The full checkpoint+restart *cycle* a live migration competes
    with: freeze-to-disk, teardown, stage, restart-from-disk.  Returns
    the cycle's wall time (``cycle_seconds``) plus the completed job's
    checksum."""
    scn = Scenario(spec, nprocs, f"cyc-{seed}", ppn=ppn, seed=seed)
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass=klass, iters_sim=iters_sim)

    def scenario():
        session = yield from scn.launch(source, specs)
        yield scn.env.timeout(warmup)
        _, session2, t_stop, _ = yield from scn.move(
            session, source, lambda: scn.cluster("dst"))
        cycle = scn.env.now - t_stop
        return cycle, (yield from session2.wait())

    cycle, results = scn.run(scenario())
    return {"checksum": results[0].checksum, "results": results,
            "cycle_seconds": cycle, "completion_seconds": scn.env.now}


def run_precopy_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                   ppn: int = 1, iters_sim: int = 6,
                   spec: HardwareSpec = BUFFALO_CCR,
                   warmup: float = 0.25, rounds: Optional[int] = None,
                   config: Optional[MigrationConfig] = None,
                   disrupt: bool = False, crash_delay: float = 0.02,
                   backoff_jitter: float = 0.0) -> Dict[str, Any]:
    """Live pre-copy migration of a running LU job, mid-iteration.

    ``rounds`` forces an exact transferred-round count (the sweep's
    x-axis); ``disrupt`` crashes the first target's node 0 shortly after
    pre-copy starts and recovers by retrying onto a fresh target through
    :meth:`RecoveryManager.supervise_migration`.
    """
    scn = Scenario(spec, nprocs, f"mig-{seed}", ppn=ppn, seed=seed)
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass=klass, iters_sim=iters_sim)
    if config is None:
        if rounds is not None:
            # a forced round count needs enough rounds of headroom that
            # convergence never fires early
            config = MigrationConfig(max_rounds=rounds, min_rounds=rounds)
        elif disrupt:
            # keep pre-copy long enough that the scheduled crash always
            # lands before the point of no return
            config = MigrationConfig(max_rounds=6, min_rounds=4,
                                     round_interval=0.05)
        else:
            config = MigrationConfig()

    injector = None
    recovery = RecoveryManager(
        scn.env, scn.cluster, lambda cluster: [],
        RecoveryConfig(ckpt_interval=1e9, max_attempts=4,
                       backoff_base=0.1, backoff_max=1.0,
                       backoff_jitter=backoff_jitter),
        injector=None, rng=scn.rng, name="migrate-disrupt")
    outcome = RecoveryOutcome()

    def scenario():
        nonlocal injector
        session = yield from scn.launch(source, specs)
        yield scn.env.timeout(warmup)
        if disrupt:
            # scheduled relative to the migration's own start so the
            # crash always lands inside attempt 1's pre-copy window
            injector = Injector(scn.env, FixedSchedule([
                FailureEvent(t=scn.env.now + crash_delay,
                             kind="node-crash", node_index=0)]))
            recovery.injector = injector
        result = yield from recovery.supervise_migration(
            session, scn.cluster, mig_config=config, outcome=outcome)
        return result, (yield from result.session.wait())

    result, results = scn.run(scenario())
    if injector is not None:
        injector.stop()
    return {
        "checksum": results[0].checksum,
        "results": results,
        "result": result,
        "downtime_seconds": result.downtime_seconds,
        "rounds": result.rounds,
        "round_bytes": result.round_bytes,
        "precopy_bytes": result.precopy_bytes,
        "stopcopy_bytes": result.stopcopy_bytes,
        "completion_seconds": scn.env.now,
        "outcome": outcome,
        "failures": list(injector.records) if injector is not None else [],
    }


def run_postcopy_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                    ppn: int = 1, iters_sim: int = 6,
                    spec: HardwareSpec = BUFFALO_CCR,
                    warmup: float = 0.1, prefetch: bool = True,
                    brownout: bool = False, brownout_delay: float = 0.02,
                    brownout_duration: float = 0.5,
                    retry_jitter: float = 0.0) -> Dict[str, Any]:
    """Post-copy restart of a gate-parked resume checkpoint on a fresh
    cluster.  With ``brownout``, the image's chunks are staged to the
    Lustre tier *only* and the tier browns out ``brownout_delay`` seconds
    after the restart bring-up ends (i.e. just as paging starts) — the
    page-ins caught by the outage must retry until the heal.  Brownout
    needs a Lustre back-end: a spec without one is swapped for MGHPCC."""
    from ..hardware import MGHPCC
    from ..store import CheckpointStore

    if brownout and not spec.has_lustre:
        spec = MGHPCC
    scn = Scenario(spec, nprocs, f"pcr-{seed}", ppn=ppn, seed=seed)
    env = scn.env
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass=klass, iters_sim=iters_sim)
    gate = ChaosGate(env, world=nprocs)
    injector = None

    def scenario():
        nonlocal injector
        session = yield from scn.launch(
            source, specs, lambda: scn.plugins() + [ChaosPlugin(gate)])
        yield env.timeout(warmup)
        # iteration-consistent cut: the factories re-run on the target
        all_parked = gate.request()
        done_evt = env.all_of([p.appctx.done for p in session.procs])
        yield env.any_of([all_parked, done_evt])
        if not all_parked.triggered:
            raise RuntimeError(
                "postcopy scenario: the job finished before the "
                "checkpoint gate parked — lower warmup or raise iters_sim")
        ckpt = yield from session.checkpoint(intent="resume")
        # the source is gone from here on — ranks die parked at the gate,
        # and post-copy re-runs the factories with fresh plugins
        scn.tracker.close()
        source.teardown()
        gate.reset()
        target = scn.cluster("dst")
        specs2 = scn.mpi_specs(target, lu_app, klass=klass,
                               iters_sim=iters_sim)
        store = CheckpointStore(target)
        store.stage_from(ckpt, tiers=("lustre",) if brownout else None)
        if brownout:
            injector = Injector(env, FixedSchedule([
                FailureEvent(t=env.now + ckpt.config.costs.restart_base
                             + brownout_delay,
                             kind="lustre-brownout", node_index=0,
                             params={"duration": brownout_duration})]))
            injector.set_target(target)
        session2, pagers = yield from postcopy_restart(
            target, ckpt, specs2, store,
            plugin_factory=scn.plugins, generation=2,
            prefetch=prefetch, retry_jitter=retry_jitter, rng=scn.rng)
        results = yield from session2.wait()
        for pager in pagers:
            pager.stop()
            pager.unwrap()
        store.stop()
        return results, pagers

    results, pagers = scn.run(scenario())
    if injector is not None:
        injector.stop()
    stats = {key: sum(p.stats[key] for p in pagers)
             for key in ("faults", "pageins", "prefetched", "retries")}
    return {
        "checksum": results[0].checksum,
        "results": results,
        "pager_stats": stats,
        "completion_seconds": env.now,
        "failures": list(injector.records) if injector is not None else [],
    }


def run_elastic_lu(seed: int = 2014, klass: str = "A", nprocs: int = 8,
                   ppn: int = 1, iters_sim: int = 6,
                   target_nodes: int = 4,
                   spec: HardwareSpec = BUFFALO_CCR,
                   warmup: float = 0.25) -> Dict[str, Any]:
    """Freeze ``nprocs`` ranks mid-run and revive them on
    ``target_nodes`` nodes (shrink when < N, expand when > N)."""
    scn = Scenario(spec, nprocs, f"ela-{seed}", ppn=ppn, seed=seed)
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass=klass, iters_sim=iters_sim)

    def scenario():
        session = yield from scn.launch(source, specs)
        yield scn.env.timeout(warmup)
        _, (session2, node_map), _, _ = yield from scn.move(
            session, source,
            lambda: scn.cluster("dst", n_nodes=target_nodes),
            restart=elastic_restart)
        return (yield from session2.wait()), node_map

    results, node_map = scn.run(scenario())
    return {
        "checksum": results[0].checksum,
        "results": results,
        "node_map": node_map,
        "completion_seconds": scn.env.now,
    }
