"""Young/Daly under shared-tier contention: K supervised jobs, one service.

The classic sweep (:mod:`.fault_sweep`) validates τ* = sqrt(2·MTBF_job·C)
for a single job writing to its own private store.  Here K chaos-supervised
jobs checkpoint concurrently into one shared multi-tenant
:class:`~repro.service.CheckpointService`: the ingest tier's disk heads
and shard locks are contended, so the effective checkpoint cost C rises
with the degree of sharing — and the optimum interval must be predicted
from the *contended* C (measured by a failure-free calibration run of the
same K-job mix), not the solo cost.

Each job runs under its own :class:`~repro.faults.RecoveryManager` with a
per-job Poisson failure schedule; its run config's ``sink_factory`` hands
every job generation a fresh :class:`~repro.service.TenantStoreClient`,
so restarts re-ingest and fetch through the shared service (cross-job
dedup included).  The sweep then walks a geometric interval grid around
the contended τ* and checks the empirical completion minimum lands within
one grid step of the prediction.

Usage::

    PYTHONPATH=src python -m repro.experiments.service_sweep [--smoke]
    PYTHONPATH=src python -m repro.experiments service_sweep [--smoke]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..core import InfinibandPlugin
from ..dmtcp import RunConfig
from ..faults.harness import young_daly_interval
from ..faults.injector import Injector
from ..faults.recovery import RecoveryConfig, RecoveryManager
from ..faults.schedule import FixedSchedule, PoissonSchedule
from ..hardware.cluster import BUFFALO_CCR, MGHPCC, Cluster
from ..mpi import make_mpi_specs
from ..service import CheckpointService, WORKLOADS
from ..sim import Environment, RngFactory
from .fault_sweep import GRID

__all__ = ["ContendedRun", "ServiceSweepResult", "run_contended",
           "run_service_sweep"]

#: (workload, class) mix the K jobs cycle through — one dedup-heavy ML
#: job per pair so the shared index always has cross-job hits
_JOB_MIX = (("lu", "A"), ("ml", "S"))


@dataclass
class ContendedRun:
    """One K-job contended run at a fixed checkpoint interval."""

    interval: float
    makespan: float                 # last job's completion (sim seconds)
    mean_completion: float
    mean_ckpt_cost: float           # contended per-checkpoint wall cost
    n_failures: int
    n_restarts: int
    n_checkpoints: int
    dedup_ratio: float
    ledger: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ServiceSweepResult:
    n_jobs: int
    mtbf_node: float
    contended_ckpt_cost: float      # calibrated C under contention
    solo_baseline: float            # failure-free makespan
    predicted_interval: float       # τ* from the contended C
    runs: List[ContendedRun] = field(default_factory=list)

    def best_interval(self, rel_tol: float = 0.01) -> float:
        floor = min(r.makespan for r in self.runs)
        best = [r.interval for r in self.runs
                if r.makespan <= floor * (1.0 + rel_tol)]
        return min(best, key=lambda iv: abs(iv - self.predicted_interval))

    def young_daly_holds(self, rel_tol: float = 0.01) -> bool:
        """Is a co-minimal interval within one grid step of τ*?"""
        rows = sorted(r.interval for r in self.runs)
        floor = min(r.makespan for r in self.runs)
        best_idx = {rows.index(r.interval) for r in self.runs
                    if r.makespan <= floor * (1.0 + rel_tol)}
        nearest = min(range(len(rows)),
                      key=lambda i: abs(rows[i] - self.predicted_interval))
        return any(abs(i - nearest) <= 1 for i in best_idx)


def run_contended(interval: float, n_jobs: int = 4,
                  mtbf_node: float = 40.0, seed: int = 2014,
                  iters_sim: int = 12, nprocs: int = 2,
                  failure_free: bool = False) -> ContendedRun:
    """K supervised jobs checkpointing into one shared service."""
    env = Environment()
    rng = RngFactory(seed)
    n_nodes = nprocs  # ppn = 1
    svc_cluster = Cluster(env, MGHPCC, n_nodes=2, rng=rng,
                          name="svcsweep")
    service = CheckpointService(svc_cluster, n_shards=8)
    injectors: List[Injector] = []
    runs = []
    for i in range(n_jobs):
        workload, klass = _JOB_MIX[i % len(_JOB_MIX)]
        tenant = f"t{i % 2}"
        jobname = f"swj{i}"
        app_fn = WORKLOADS[workload]

        def wrapped(ctx, comm, app_fn=app_fn, klass=klass):
            result = yield from app_fn(ctx, comm, klass=klass,
                                       iters_sim=iters_sim)
            return result

        def cluster_factory(tag: str, i=i) -> Cluster:
            return Cluster(env, BUFFALO_CCR, n_nodes=n_nodes, rng=rng,
                           name=f"sw{i}-{tag}")

        def specs_for(cluster: Cluster, wrapped=wrapped,
                      jobname=jobname):
            return make_mpi_specs(cluster, nprocs, wrapped, ppn=1,
                                  name_prefix=jobname)

        if failure_free:
            schedule = FixedSchedule([])
        else:
            schedule = PoissonSchedule(
                rng.child(f"service/sweep{i}"), n_nodes=n_nodes,
                mtbf_node=mtbf_node)
        injector = Injector(env, schedule)
        injectors.append(injector)
        cfg = RecoveryConfig(
            ckpt_interval=interval, run=RunConfig(
                incremental=True,
                sink_factory=lambda cluster, t=tenant, j=jobname:
                    service.client(t, j)),
            max_attempts=50, backoff_base=0.2, backoff_max=2.0)
        manager = RecoveryManager(
            env, cluster_factory, specs_for, cfg,
            plugin_factory=lambda: [InfinibandPlugin()],
            injector=injector, name=f"sw{i}", rng=rng)
        runs.append(env.process(manager.run(), name=f"sweep.run{i}"))

    env.run(until=env.all_of(runs))
    for injector in injectors:
        injector.stop()
    ledger = env.run(until=env.process(service.shutdown(),
                                       name="sweep.shutdown"))
    outcomes = [proc.value for proc in runs]
    completions = [o.completion_seconds for o in outcomes]
    ckpts = sum(o.n_checkpoints for o in outcomes)
    overhead = sum(o.ckpt_overhead for o in outcomes)
    return ContendedRun(
        interval=interval,
        makespan=max(completions),
        mean_completion=sum(completions) / len(completions),
        mean_ckpt_cost=overhead / max(1, ckpts),
        n_failures=sum(o.n_failures for o in outcomes),
        n_restarts=sum(o.n_restarts for o in outcomes),
        n_checkpoints=ckpts,
        dedup_ratio=service.dedup_ratio(),
        ledger=ledger)


def run_service_sweep(n_jobs: int = 4, mtbf_node: float = 40.0,
                      seed: int = 2014, iters_sim: int = 12,
                      grid=GRID, quiet: bool = False
                      ) -> ServiceSweepResult:
    # calibrate the CONTENDED checkpoint cost: same K-job mix, no faults
    calib = run_contended(0.5, n_jobs=n_jobs, seed=seed,
                          iters_sim=iters_sim, failure_free=True)
    n_nodes_job = 2
    tau = young_daly_interval(mtbf_node / n_nodes_job,
                              calib.mean_ckpt_cost)
    result = ServiceSweepResult(
        n_jobs=n_jobs, mtbf_node=mtbf_node,
        contended_ckpt_cost=calib.mean_ckpt_cost,
        solo_baseline=calib.makespan, predicted_interval=tau)
    if not quiet:
        print(f"# {n_jobs} job(s) sharing one service: contended C = "
              f"{calib.mean_ckpt_cost:.3f}s, failure-free makespan "
              f"{calib.makespan:.2f}s, dedup {calib.dedup_ratio:.3f}")
        print(f"# MTBF/node {mtbf_node:g}s -> contended tau* = {tau:.2f}s")
        print(f"{'interval':>9} {'makespan':>10} {'mean':>9} "
              f"{'fails':>6} {'restarts':>9} {'ckpts':>6} {'dedup':>6}")
    for factor in grid:
        interval = round(tau * factor, 3)
        run = run_contended(interval, n_jobs=n_jobs,
                            mtbf_node=mtbf_node, seed=seed,
                            iters_sim=iters_sim)
        result.runs.append(run)
        if not quiet:
            print(f"{interval:9.3f} {run.makespan:10.2f} "
                  f"{run.mean_completion:9.2f} {run.n_failures:6d} "
                  f"{run.n_restarts:9d} {run.n_checkpoints:6d} "
                  f"{run.dedup_ratio:6.3f}")
    if not quiet:
        verdict = "OK" if result.young_daly_holds() else "MISS"
        print(f"# empirical best {result.best_interval():g}s vs "
              f"predicted {tau:.2f}s -> {verdict}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Young/Daly interval sweep with K jobs sharing one "
                    "multi-tenant checkpoint service")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--mtbf", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)

    if args.smoke:
        n_jobs = args.jobs or 2
        iters, grid = 8, (0.56, 1.0, 1.8)
    else:
        n_jobs = args.jobs or 4
        iters, grid = 16, GRID

    result = run_service_sweep(n_jobs=n_jobs, mtbf_node=args.mtbf,
                               seed=args.seed, iters_sim=iters,
                               grid=grid)
    ok = result.young_daly_holds()
    ok = ok and all(r.n_checkpoints > 0 for r in result.runs)
    print(f"\n# overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
