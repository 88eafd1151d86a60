"""Chaos harness: NAS under fault injection, end to end.

:func:`run_chaos_nas` assembles the whole stack — a
:class:`~repro.scenario.Scenario` (environment, seeded RNG, a fresh
cluster per job generation), Poisson failure schedule, injector,
recovery manager — runs a NAS kernel to completion through failures, and
returns a :class:`ChaosOutcome`.  Everything stochastic descends from one
root seed, so two same-seed runs are bit-for-bit identical.

:func:`verify_restart_path` exercises the plugin's restart machinery under
an *injected crash* (not a graceful teardown): freeze a live job, let the
injector kill a node out from under it mid-flight, restart on a spare
cluster, and report the plugin counters (WQE re-posts, CQ refills, modify
replays) plus the id re-virtualization evidence.

:func:`young_daly_interval` is the first-order optimal checkpoint period
τ* = sqrt(2 · MTBF_job · C) the fault sweep validates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..apps.ml import ml_app
from ..apps.nas import ft_app, lu_app
from ..core import InfinibandPlugin
from ..dmtcp import RunConfig, dmtcp_restart
from ..hardware import BUFFALO_CCR, Cluster, HardwareSpec
from ..scenario import Scenario
from .injector import FailureRecord, Injector
from .recovery import RecoveryConfig, RecoveryManager, RecoveryOutcome
from .schedule import (FailureEvent, FailureSchedule, FixedSchedule,
                       PoissonSchedule)

__all__ = [
    "ChaosOutcome",
    "run_chaos_nas",
    "verify_restart_path",
    "young_daly_interval",
]

_APPS = {"lu": lu_app, "ft": ft_app, "ml": ml_app}


def young_daly_interval(mtbf_job: float, ckpt_cost: float) -> float:
    """Young's first-order optimum τ* = sqrt(2 · MTBF_job · C), where
    MTBF_job = mtbf_node / n_nodes and C is one checkpoint's wall cost."""
    return math.sqrt(2.0 * mtbf_job * ckpt_cost)


@dataclass
class ChaosOutcome:
    """One chaos run, fully described."""

    app: str
    klass: str
    nprocs: int
    n_nodes: int
    mtbf_node: float
    ckpt_interval: float
    seed: int
    checksum: float
    recovery: RecoveryOutcome
    failures: List[FailureRecord] = field(default_factory=list)
    #: event-kernel counters (``Environment.stats.snapshot()``): events
    #: processed, heap peak, same-timestamp batch shape
    sim_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def completion_seconds(self) -> float:
        return self.recovery.completion_seconds

    def fingerprint(self) -> tuple:
        """Everything that must be bit-identical across same-seed runs."""
        return (self.checksum, self.completion_seconds,
                self.recovery.n_failures, self.recovery.n_checkpoints,
                self.recovery.n_restarts, self.recovery.lost_work,
                tuple((r.t, r.kind, r.node_index, r.fatal, r.applied)
                      for r in self.failures))


def run_chaos_nas(app: str = "lu", klass: str = "A", nprocs: int = 4,
                  ppn: int = 1, spec: HardwareSpec = BUFFALO_CCR,
                  mtbf_node: float = 100.0, ckpt_interval: float = 10.0,
                  seed: int = 2014, iters_sim: int = 0,
                  kind: str = "node-crash",
                  schedule: Optional[FailureSchedule] = None,
                  max_attempts: int = 8, backoff_base: float = 0.5,
                  backoff_factor: float = 2.0, backoff_max: float = 8.0,
                  backoff_jitter: float = 0.0,
                  config: RunConfig = RunConfig()) -> ChaosOutcome:
    """Run one NAS kernel to completion under chaos; see module docstring.

    ``schedule`` overrides the default per-node Poisson(``mtbf_node``)
    schedule of ``kind`` failures (pass ``FixedSchedule([])`` for a
    failure-free run, e.g. to measure the checkpoint cost C).
    ``config`` is the job's run config; its ``sink_factory`` builds each
    generation's checkpoint sink (image files by default; pass
    :class:`~repro.store.CheckpointStore` for dedup + partner
    replication + digest-verified restart).  To
    observe the run, call it inside ``repro.obs.traced()`` and/or
    ``repro.analysis.sanitized()``.
    """
    app_fn = _APPS[app]
    scn = Scenario(spec, nprocs, f"chaos-{app}{klass}-{seed}", ppn=ppn,
                   seed=seed, config=config)

    def specs_for(cluster: Cluster):
        return scn.mpi_specs(cluster, app_fn, klass=klass,
                             iters_sim=iters_sim)

    if schedule is None:
        schedule = PoissonSchedule(scn.rng, n_nodes=scn.n_nodes,
                                   mtbf_node=mtbf_node, kind=kind)
    injector = Injector(scn.env, schedule)
    recovery_config = RecoveryConfig(
        ckpt_interval=ckpt_interval, run=config, max_attempts=max_attempts,
        backoff_base=backoff_base, backoff_factor=backoff_factor,
        backoff_max=backoff_max, backoff_jitter=backoff_jitter)
    manager = RecoveryManager(
        scn.env, scn.cluster, specs_for, recovery_config,
        plugin_factory=scn.plugins, injector=injector, rng=scn.rng)
    recovery = scn.run(manager.run())
    injector.stop()
    return ChaosOutcome(
        app=app, klass=klass, nprocs=nprocs, n_nodes=scn.n_nodes,
        mtbf_node=mtbf_node, ckpt_interval=ckpt_interval, seed=seed,
        checksum=recovery.results[0].checksum, recovery=recovery,
        failures=list(injector.records), sim_stats=scn.env.stats.snapshot())


def verify_restart_path(seed: int = 2014, klass: str = "A",
                        nprocs: int = 4, ppn: int = 1,
                        spec: HardwareSpec = BUFFALO_CCR,
                        crash_node_index: int = 1,
                        freeze_after: float = 0.25) -> Dict[str, Any]:
    """Freeze a live LU job, crash a node *via the injector* instead of a
    graceful teardown, restart on a spare cluster, and report the restart
    path's evidence (satellite check of §3's principles under failure).

    Returns a dict with per-plugin counters summed (``reposted_sends``,
    ``reposted_recvs``, ``replayed_modifies``, ``drained_completions``),
    the id re-virtualization booleans, and the completed job's results.
    """
    scn = Scenario(spec, nprocs, f"vrp-{seed}", ppn=ppn, seed=seed)
    env = scn.env
    cluster = scn.cluster("prod")
    plugins: List[InfinibandPlugin] = []

    def factory():
        made = scn.plugins()
        plugins.extend(made)
        return made

    specs = scn.mpi_specs(cluster, lu_app, klass=klass)

    def scenario():
        session = yield from scn.launch(cluster, specs, factory)
        yield env.timeout(freeze_after)  # mid-iteration, traffic in flight
        ckpt = yield from session.checkpoint(intent="restart")
        # the failure: a node dies for real (injector, not teardown) — the
        # frozen continuations survive because the freeze detached them
        injector = Injector(env, FixedSchedule([
            FailureEvent(t=env.now + 1e-6, kind="node-crash",
                         node_index=crash_node_index)]))
        injector.set_target(cluster)
        record = yield injector.arm()
        cluster.teardown()  # power off the rest of the dead partition
        session2 = yield from dmtcp_restart(scn.cluster("spare"), ckpt)
        return record, (yield from session2.wait())

    record, results = scn.run(scenario())

    counters = {key: sum(p.stats[key] for p in plugins)
                for key in ("reposted_sends", "reposted_recvs",
                            "replayed_modifies", "drained_completions")}
    evidence = [p.remap_evidence() for p in plugins]
    return {
        "crash": record,
        "results": results,
        "checksum": results[0].checksum,
        "counters": counters,
        "qps_remapped": bool(evidence) and all(
            e["qps_remapped"] for e in evidence),
        "mrs_remapped": bool(evidence) and all(
            e["mrs_remapped"] for e in evidence),
        "lids_remapped": bool(evidence) and all(
            e["lids_remapped"] for e in evidence),
    }
