"""MTBF sweep under chaos: wasted work and the Young/Daly optimum.

Runs NAS LU under per-node Poisson failures across an MTBF sweep, each
MTBF across a geometric grid of checkpoint intervals centred on Young's
first-order optimum τ* = sqrt(2 · MTBF_job · C) (C measured from a
failure-free calibration run), averages seeded trials, and reports
completion time, rework (lost work), and checkpoint overhead per cell —
validating that the completion-time minimum lands at the Young/Daly-
predicted interval (within one sweep step).

Also re-runs the restart-path verification (id re-virtualization, WQE
re-post, CQ refill) under an injected mid-flight crash and prints the
plugin's counters; ``--analysis`` runs it under the lifecycle tracer and
gates on its trace (:func:`restart_trace_failures`).

Usage::

    PYTHONPATH=src python -m repro.experiments.fault_sweep [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..analysis.chunksan import sanitized
from ..dmtcp import FileSink, RunConfig
from ..faults.harness import (run_chaos_nas, verify_restart_path,
                              young_daly_interval)
from ..faults.schedule import FixedSchedule
from ..store import CheckpointStore

__all__ = ["SweepCell", "SweepResult", "measure_ckpt_cost", "run_sweep",
           "restart_trace_failures"]

#: interval grid, as multiples of the predicted optimum (log-spaced, one
#: step ≈ x1.8 — "within one sweep step" means within a factor ~1.8 of τ*)
GRID = (0.31, 0.56, 1.0, 1.8, 3.24)


def restart_trace_failures(events: List[dict],
                           dropped: int = 0) -> List[str]:
    """Why the traced injected-crash restart path fails the
    ``--analysis`` gate; empty when it passes.  Every trace invariant
    must hold, and the trace must hold a ``replay`` span that re-posted
    at least one WQE — a trace that never saw the replay proves nothing,
    so the gate cannot pass vacuously."""
    from ..obs import check_trace_invariants

    failures = []
    if not any(e["kind"] == "replay" and e["ev"] == "E"
               and e.get("reposts", 0) > 0 for e in events):
        failures.append("trace holds no replay span that re-posted a WQE")
    return failures + check_trace_invariants(events, dropped=dropped)


@dataclass
class SweepCell:
    """One (mtbf, interval) cell, averaged over trials."""

    mtbf_node: float
    interval: float
    completion: float          # mean completion seconds
    failures: float            # mean failure count
    restarts: float
    checkpoints: float
    lost_work: float           # mean rework seconds
    ckpt_overhead: float


@dataclass
class SweepResult:
    app: str
    klass: str
    nprocs: int
    n_nodes: int
    ckpt_cost: float                      # measured C
    baseline_seconds: float               # failure-free completion
    cells: List[SweepCell] = field(default_factory=list)

    def best_interval(self, mtbf_node: float) -> float:
        """The interval whose mean completion is minimal at this MTBF."""
        rows = [c for c in self.cells if c.mtbf_node == mtbf_node]
        return min(rows, key=lambda c: c.completion).interval

    def predicted_interval(self, mtbf_node: float) -> float:
        return young_daly_interval(mtbf_node / self.n_nodes, self.ckpt_cost)

    def young_daly_holds(self, mtbf_node: float,
                         rel_tol: float = 0.01) -> bool:
        """Is an empirical minimum within one grid step of τ*?  Intervals
        whose mean completion ties the minimum (within ``rel_tol``) all
        count as co-minimal: with few failures per run several intervals
        are empirically indistinguishable, and a first-index tie-break
        would make the verdict an accident of grid order."""
        cells = [c for c in self.cells if c.mtbf_node == mtbf_node]
        rows = sorted({c.interval for c in cells})
        floor = min(c.completion for c in cells)
        best_idx = {rows.index(c.interval) for c in cells
                    if c.completion <= floor * (1.0 + rel_tol)}
        predicted = self.predicted_interval(mtbf_node)
        nearest = min(range(len(rows)),
                      key=lambda i: abs(rows[i] - predicted))
        return any(abs(i - nearest) <= 1 for i in best_idx)


def measure_ckpt_cost(app: str = "lu", klass: str = "A", nprocs: int = 4,
                      ppn: int = 1, iters_sim: int = 0,
                      seed: int = 2014,
                      config: RunConfig = RunConfig()) -> tuple:
    """(C, baseline): one checkpoint's wall cost and the failure-free
    completion time, from a calibration run with no fault injection."""
    # C is calibrated on full captures: an incremental capture's cost
    # grows with the interval, so one measured at τ = 0.3 s understates it
    config = replace(config, incremental=False)
    out = run_chaos_nas(app=app, klass=klass, nprocs=nprocs, ppn=ppn,
                        iters_sim=iters_sim, ckpt_interval=0.3,
                        seed=seed, schedule=FixedSchedule([]),
                        config=config)
    baseline = run_chaos_nas(app=app, klass=klass, nprocs=nprocs, ppn=ppn,
                             iters_sim=iters_sim, ckpt_interval=1e9,
                             seed=seed, schedule=FixedSchedule([]),
                             config=config)
    return out.recovery.mean_ckpt_seconds, baseline.completion_seconds


def run_sweep(mtbf_values: List[float], trials: int = 3,
              app: str = "lu", klass: str = "A", nprocs: int = 4,
              ppn: int = 1, iters_sim: int = 0, base_seed: int = 2014,
              intervals: Optional[List[float]] = None,
              config: RunConfig = RunConfig(),
              quiet: bool = False) -> SweepResult:
    n_nodes = max(1, -(-nprocs // ppn))
    ckpt_cost, baseline = measure_ckpt_cost(app, klass, nprocs, ppn,
                                            iters_sim, seed=base_seed,
                                            config=config)
    result = SweepResult(app=app, klass=klass, nprocs=nprocs,
                         n_nodes=n_nodes, ckpt_cost=ckpt_cost,
                         baseline_seconds=baseline)
    if not quiet:
        print(f"# {app.upper()}.{klass} x{nprocs} ({n_nodes} nodes): "
              f"baseline {baseline:.2f}s, checkpoint cost C = "
              f"{ckpt_cost:.2f}s")
    for mtbf_node in mtbf_values:
        mtbf_job = mtbf_node / n_nodes
        tau = young_daly_interval(mtbf_job, ckpt_cost)
        grid = intervals or [round(tau * f, 3) for f in GRID]
        if not quiet:
            print(f"\n# MTBF/node {mtbf_node:g}s (job {mtbf_job:g}s), "
                  f"Young/Daly tau* = {tau:.2f}s")
            print(f"{'interval':>9} {'completion':>11} {'failures':>9} "
                  f"{'restarts':>9} {'ckpts':>6} {'lost':>8} {'ckpt-ovh':>9}")
        for interval in grid:
            runs = [run_chaos_nas(
                        app=app, klass=klass, nprocs=nprocs, ppn=ppn,
                        iters_sim=iters_sim, mtbf_node=mtbf_node,
                        ckpt_interval=interval,
                        seed=base_seed + 7919 * trial,
                        backoff_base=0.2, backoff_max=2.0,
                        max_attempts=50, config=config)
                    for trial in range(trials)]
            mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
            cell = SweepCell(
                mtbf_node=mtbf_node, interval=interval,
                completion=mean([r.completion_seconds for r in runs]),
                failures=mean([r.recovery.n_failures for r in runs]),
                restarts=mean([r.recovery.n_restarts for r in runs]),
                checkpoints=mean([r.recovery.n_checkpoints for r in runs]),
                lost_work=mean([r.recovery.lost_work for r in runs]),
                ckpt_overhead=mean([r.recovery.ckpt_overhead
                                    for r in runs]))
            result.cells.append(cell)
            if not quiet:
                print(f"{interval:9.3f} {cell.completion:11.2f} "
                      f"{cell.failures:9.2f} {cell.restarts:9.2f} "
                      f"{cell.checkpoints:6.1f} {cell.lost_work:8.2f} "
                      f"{cell.ckpt_overhead:9.2f}")
        if not quiet:
            best = result.best_interval(mtbf_node)
            verdict = "OK" if result.young_daly_holds(mtbf_node) \
                else "MISS"
            print(f"# empirical best {best:g}s vs predicted {tau:.2f}s "
                  f"-> {verdict}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="NAS LU under Poisson node failures: MTBF sweep, "
                    "Young/Daly validation, restart-path verification")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (seconds, not "
                             "minutes)")
    parser.add_argument("--trials", type=int, default=None,
                        help="seeded trials per cell")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--incremental", action="store_true",
                        help="capture checkpoints incrementally against "
                             "the previous image (DESIGN.md §8)")
    parser.add_argument("--store", action="store_true",
                        help="land checkpoints in the content-addressed "
                             "multi-tier store (repro.store): chunk dedup, "
                             "partner/Lustre replication, digest-verified "
                             "restart")
    parser.add_argument("--analysis", action="store_true",
                        help="run the restart-path verification under "
                             "the lifecycle tracer (repro.obs) and FAIL "
                             "unless its trace holds a replay that "
                             "re-posted WQEs and every trace invariant")
    parser.add_argument("--chunksan", action="store_true",
                        help="run every chaos job under the ChunkSan "
                             "shadow oracle (repro.analysis.chunksan): a "
                             "stale chunk stamp aborts the sweep")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="additionally run one traced LU job, write "
                             "its lifecycle trace (JSONL) to PATH, and "
                             "print the repro.obs per-phase checkpoint "
                             "decomposition")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be at least 1")

    if args.smoke:
        mtbfs, trials, iters = [40.0], args.trials or 1, 24
    else:
        mtbfs, trials, iters = [24.0, 40.0, 64.0], args.trials or 3, 300

    with sanitized() if args.chunksan else contextlib.nullcontext():
        result = run_sweep(mtbfs, trials=trials, iters_sim=iters,
                           base_seed=args.seed, config=RunConfig(
                               incremental=args.incremental,
                               sink_factory=CheckpointStore if args.store
                               else FileSink))
    if args.chunksan:
        print("# chunksan: every capture audited against the shadow "
              "full-hash oracle — no stale chunk stamps")

    print("\n# restart-path verification under injected crash")
    if args.analysis:
        from ..obs.trace import traced
        with traced() as restart_tracer:
            verdict = verify_restart_path(seed=args.seed)
    else:
        verdict = verify_restart_path(seed=args.seed)
    counters = verdict["counters"]
    print(f"# crash: {verdict['crash'].detail} at "
          f"t={verdict['crash'].t:.3f}")
    print(f"# reposted recvs {counters['reposted_recvs']}, reposted sends "
          f"{counters['reposted_sends']}, replayed modifies "
          f"{counters['replayed_modifies']}, drained completions "
          f"{counters['drained_completions']}")
    print(f"# ids remapped: qp {verdict['qps_remapped']}, "
          f"mr {verdict['mrs_remapped']}, lid {verdict['lids_remapped']}")
    gate_failures = []
    if args.analysis:
        gate_failures = restart_trace_failures(
            restart_tracer.events, dropped=restart_tracer.dropped)
        print(f"# restart trace: {len(restart_tracer.events)} record(s), "
              f"{len(gate_failures)} gate failure(s)")
        for failure in gate_failures:
            print(f"#   {failure}")

    if args.trace is not None:
        from ..obs import check_trace_invariants, decompose, render, \
            trace_scenario
        tracer, traced_run = trace_scenario(
            app="lu", seed=args.seed,
            iters_sim=24 if args.smoke else 100, sink=args.trace)
        print(f"\n# traced LU run: {len(tracer.events)} record(s) "
              f"written to {args.trace}")
        print(render(decompose(tracer.events)))
        violations = check_trace_invariants(tracer.events,
                                            dropped=tracer.dropped)
        print(f"# trace invariants: "
              f"{'clean' if not violations else violations}")

    ok = all(result.young_daly_holds(m) for m in mtbfs)
    ok = ok and verdict["qps_remapped"] and verdict["mrs_remapped"] \
        and counters["replayed_modifies"] > 0 and not gate_failures
    print(f"\n# overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
