"""Migration scenario runners: baselines, smoke paths, and disruption.

End-to-end harnesses in the :func:`repro.faults.run_chaos_nas` mold —
each builds the whole stack (environment, seeded RNG, cluster(s), an LU
job) and runs one migration story to completion, returning a plain dict
the tests and the migration sweep both consume:

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
from ..core import InfinibandPlugin
from ..dmtcp import DEFAULT_COSTS, CostModel, dmtcp_launch
from ..dmtcp.launcher import JobTracker
from ..faults.injector import Injector
from ..faults.recovery import (ChaosGate, ChaosPlugin, RecoveryConfig,
                               RecoveryManager, RecoveryOutcome)
from ..faults.schedule import FailureEvent, FixedSchedule
from ..hardware import BUFFALO_CCR, Cluster, HardwareSpec
from ..mpi import make_mpi_specs
from ..sim import Environment, RngFactory
from .elastic import elastic_restart
from .manager import MigrationConfig
from .postcopy import postcopy_restart

__all__ = ["run_baseline_lu", "run_cycle_lu", "run_elastic_lu",
           "run_postcopy_lu", "run_precopy_lu"]


def _lu(klass: str, iters_sim: int):
    def wrapped(ctx, comm):
        result = yield from lu_app(ctx, comm, klass=klass,
                                   iters_sim=iters_sim)
        return result
    return wrapped


def run_baseline_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                    ppn: int = 1, iters_sim: int = 6,
                    spec: HardwareSpec = BUFFALO_CCR,
                    costs: CostModel = DEFAULT_COSTS) -> Dict[str, Any]:
    """The non-migrating control run (see module docstring)."""
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = max(1, -(-nprocs // ppn))
    cluster = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                      name=f"base-{seed}")
    specs = make_mpi_specs(cluster, nprocs, _lu(klass, iters_sim), ppn=ppn)
    tracker = JobTracker()

    def scenario():
        session = yield from dmtcp_launch(
            cluster, specs,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs)],
            costs=costs, tracker=tracker)
        results = yield from session.wait()
        return results

    results = env.run(until=env.process(scenario()))
    tracker.kill_all()
    return {"checksum": results[0].checksum, "results": results,
            "completion_seconds": env.now}


def run_cycle_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                 ppn: int = 1, iters_sim: int = 6,
                 spec: HardwareSpec = BUFFALO_CCR,
                 warmup: float = 0.25,
                 costs: CostModel = DEFAULT_COSTS) -> Dict[str, Any]:
    """The full checkpoint+restart *cycle* a live migration competes
    with: freeze-to-disk, teardown, stage, restart-from-disk.  Returns
    the cycle's wall time (``cycle_seconds``) plus the completed job's
    checksum."""
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = max(1, -(-nprocs // ppn))
    source = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                     name=f"cyc-{seed}-src")
    specs = make_mpi_specs(source, nprocs, _lu(klass, iters_sim), ppn=ppn)
    tracker = JobTracker()

    def scenario():
        from ..dmtcp import dmtcp_restart
        session = yield from dmtcp_launch(
            source, specs,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs)],
            costs=costs, tracker=tracker)
        yield env.timeout(warmup)
        t_stop = env.now
        ckpt = yield from session.checkpoint(intent="restart")
        source.teardown()
        target = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                         name=f"cyc-{seed}-dst")
        session2 = yield from dmtcp_restart(target, ckpt, costs=costs)
        cycle = env.now - t_stop
        results = yield from session2.wait()
        return cycle, results

    cycle, results = env.run(until=env.process(scenario()))
    tracker.kill_all()
    return {"checksum": results[0].checksum, "results": results,
            "cycle_seconds": cycle, "completion_seconds": env.now}


def run_precopy_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                   ppn: int = 1, iters_sim: int = 6,
                   spec: HardwareSpec = BUFFALO_CCR,
                   warmup: float = 0.25, rounds: Optional[int] = None,
                   config: Optional[MigrationConfig] = None,
                   disrupt: bool = False, crash_delay: float = 0.02,
                   backoff_jitter: float = 0.0,
                   costs: CostModel = DEFAULT_COSTS) -> Dict[str, Any]:
    """Live pre-copy migration of a running LU job, mid-iteration.

    ``rounds`` forces an exact transferred-round count (the sweep's
    x-axis); ``disrupt`` crashes the first target's node 0 shortly after
    pre-copy starts and recovers by retrying onto a fresh target through
    :meth:`RecoveryManager.supervise_migration`.
    """
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = max(1, -(-nprocs // ppn))
    source = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                     name=f"mig-{seed}-src")
    specs = make_mpi_specs(source, nprocs, _lu(klass, iters_sim), ppn=ppn)
    tracker = JobTracker()
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

    def target_factory(tag: str) -> Cluster:
        return Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                       name=f"mig-{seed}-{tag}")

    injector = None
    recovery = RecoveryManager(
        env, target_factory, lambda cluster: [],
        RecoveryConfig(ckpt_interval=1e9, max_attempts=4,
                       backoff_base=0.1, backoff_max=1.0,
                       backoff_jitter=backoff_jitter),
        costs=costs, injector=None, rng=rng, name="migrate-disrupt")
    outcome = RecoveryOutcome()

    def scenario():
        nonlocal injector
        session = yield from dmtcp_launch(
            source, specs,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs)],
            costs=costs, tracker=tracker)
        yield env.timeout(warmup)
        if disrupt:
            # scheduled relative to the migration's own start so the
            # crash always lands inside attempt 1's pre-copy window
            injector = Injector(env, FixedSchedule([
                FailureEvent(t=env.now + crash_delay, kind="node-crash",
                             node_index=0)]))
            recovery.injector = injector
        result = yield from recovery.supervise_migration(
            session, target_factory, mig_config=config, outcome=outcome)
        results = yield from result.session.wait()
        return result, results

    result, results = env.run(until=env.process(scenario()))
    if injector is not None:
        injector.stop()
    tracker.kill_all()
    return {
        "checksum": results[0].checksum,
        "results": results,
        "result": result,
        "downtime_seconds": result.downtime_seconds,
        "rounds": result.rounds,
        "round_bytes": result.round_bytes,
        "precopy_bytes": result.precopy_bytes,
        "stopcopy_bytes": result.stopcopy_bytes,
        "completion_seconds": env.now,
        "outcome": outcome,
        "failures": list(injector.records) if injector is not None else [],
    }


def run_postcopy_lu(seed: int = 2014, klass: str = "A", nprocs: int = 4,
                    ppn: int = 1, iters_sim: int = 6,
                    spec: HardwareSpec = BUFFALO_CCR,
                    warmup: float = 0.1, prefetch: bool = True,
                    brownout: bool = False, brownout_delay: float = 0.02,
                    brownout_duration: float = 0.5,
                    retry_jitter: float = 0.0,
                    costs: CostModel = DEFAULT_COSTS) -> Dict[str, Any]:
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
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = max(1, -(-nprocs // ppn))
    source = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                     name=f"pcr-{seed}-src")
    specs = make_mpi_specs(source, nprocs, _lu(klass, iters_sim), ppn=ppn)
    gate = ChaosGate(env, world=nprocs)
    tracker = JobTracker()
    injector = None

    def scenario():
        nonlocal injector
        session = yield from dmtcp_launch(
            source, specs,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs),
                                    ChaosPlugin(gate)],
            costs=costs, tracker=tracker)
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
        tracker.close()
        source.teardown()
        gate.reset()
        target = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                         name=f"pcr-{seed}-dst")
        specs2 = make_mpi_specs(target, nprocs, _lu(klass, iters_sim),
                                ppn=ppn)
        store = CheckpointStore(target)
        store.stage_from(ckpt, tiers=("lustre",) if brownout else None)
        if brownout:
            injector = Injector(env, FixedSchedule([
                FailureEvent(t=env.now + costs.restart_base
                             + brownout_delay,
                             kind="lustre-brownout", node_index=0,
                             params={"duration": brownout_duration})]))
            injector.set_target(target)
        session2, pagers = yield from postcopy_restart(
            target, ckpt, specs2, store,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs)],
            costs=costs, generation=2, prefetch=prefetch,
            retry_jitter=retry_jitter, rng=rng)
        results = yield from session2.wait()
        for pager in pagers:
            pager.stop()
            pager.unwrap()
        store.stop()
        return results, pagers

    results, pagers = env.run(until=env.process(scenario()))
    if injector is not None:
        injector.stop()
    tracker.kill_all()
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
                   warmup: float = 0.25,
                   costs: CostModel = DEFAULT_COSTS) -> Dict[str, Any]:
    """Freeze ``nprocs`` ranks mid-run and revive them on
    ``target_nodes`` nodes (shrink when < N, expand when > N)."""
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = max(1, -(-nprocs // ppn))
    source = Cluster(env, spec, n_nodes=n_nodes, rng=rng,
                     name=f"ela-{seed}-src")
    specs = make_mpi_specs(source, nprocs, _lu(klass, iters_sim), ppn=ppn)
    tracker = JobTracker()

    def scenario():
        session = yield from dmtcp_launch(
            source, specs,
            plugin_factory=lambda: [InfinibandPlugin(costs=costs)],
            costs=costs, tracker=tracker)
        yield env.timeout(warmup)
        ckpt = yield from session.checkpoint(intent="restart")
        source.teardown()
        target = Cluster(env, spec, n_nodes=target_nodes, rng=rng,
                         name=f"ela-{seed}-dst")
        session2, node_map = yield from elastic_restart(target, ckpt,
                                                        costs=costs)
        results = yield from session2.wait()
        return results, node_map

    results, node_map = env.run(until=env.process(scenario()))
    tracker.kill_all()
    return {
        "checksum": results[0].checksum,
        "results": results,
        "node_map": node_map,
        "completion_seconds": env.now,
    }
