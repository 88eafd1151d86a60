"""Migration sweep: downtime vs. pre-copy rounds, and the other modes.

Benchmarks live migration against the classic full checkpoint+restart
cycle on the same seeded LU job:

1. **baseline** — the non-migrating run; its checksum is the
   bit-identity bar every mode below must clear.
2. **cycle** — freeze-to-disk + teardown + stage + restart-from-disk;
   its wall time is the downtime bar.
3. **pre-copy sweep** — live migration with the transferred round count
   forced to each grid value: downtime (stop-and-copy only) per round
   count, each strictly below the cycle time.
4. **elastic** — N ranks frozen and revived on M nodes (shrink and
   expand), checksums unchanged.
5. **post-copy** — restart resumes compute immediately and pages the
   image in on touch (prefetch on), including a Lustre brownout
   mid-page-in that the pager must outwait.
6. **disrupt** — a target-node crash mid-pre-copy, recovered by the
   RecoveryManager retrying onto a fresh target.

Writes the machine-readable results to ``BENCH_migrate.json`` (or
``--out``), prints a table, and exits non-zero if any acceptance bar is
missed.

Usage::

    PYTHONPATH=src python -m repro.experiments.migrate_sweep [--smoke]
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from ..migrate import (run_baseline_lu, run_cycle_lu, run_elastic_lu,
                       run_postcopy_lu, run_precopy_lu)

__all__ = ["run_migrate_sweep"]


def run_migrate_sweep(seed: int = 2014, klass: str = "A",
                      iters_sim: int = 8, nprocs: int = 4,
                      round_grid: List[int] = (1, 2, 3, 4),
                      elastic_shapes: List[tuple] = ((8, 4), (4, 8)),
                      quiet: bool = False) -> Dict[str, Any]:
    """Run the whole migration benchmark matrix; returns the report
    dict (``report["pass"]`` is the overall verdict)."""
    checks: List[tuple] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))
        if not quiet and not ok:
            print(f"# CHECK FAILED: {name}")

    base = run_baseline_lu(seed=seed, klass=klass, nprocs=nprocs,
                           iters_sim=iters_sim)
    cyc = run_cycle_lu(seed=seed, klass=klass, nprocs=nprocs,
                       iters_sim=iters_sim)
    check("cycle checksum parity", cyc["checksum"] == base["checksum"])
    if not quiet:
        print(f"# LU.{klass} x{nprocs}, {iters_sim} iters, seed {seed}: "
              f"baseline {base['completion_seconds']:.3f}s, "
              f"checksum {base['checksum']:.6e}")
        print(f"# full checkpoint+restart cycle: "
              f"{cyc['cycle_seconds']:.3f}s downtime\n")
        print(f"{'rounds':>7} {'downtime':>9} {'precopy':>9} "
              f"{'shipped-MB':>11} {'residue-MB':>11} {'parity':>7}")

    sweep = []
    for rounds in round_grid:
        mig = run_precopy_lu(seed=seed, klass=klass, nprocs=nprocs,
                             iters_sim=iters_sim, rounds=rounds)
        parity = mig["checksum"] == base["checksum"]
        beats = mig["downtime_seconds"] < cyc["cycle_seconds"]
        check(f"pre-copy rounds={rounds} checksum parity", parity)
        check(f"pre-copy rounds={rounds} downtime < cycle", beats)
        check(f"pre-copy rounds={rounds} rounds shrink",
              all(b <= a + 1e-9 for a, b in
                  zip(mig["round_bytes"], mig["round_bytes"][1:])))
        sweep.append({
            "rounds": mig["rounds"],
            "downtime_seconds": mig["downtime_seconds"],
            "precopy_seconds": mig["result"].precopy_seconds,
            "precopy_bytes": mig["precopy_bytes"],
            "stopcopy_bytes": mig["stopcopy_bytes"],
            "round_bytes": mig["round_bytes"],
            "checksum_parity": parity,
            "beats_cycle": beats,
        })
        if not quiet:
            print(f"{mig['rounds']:>7} {mig['downtime_seconds']:>9.3f} "
                  f"{mig['result'].precopy_seconds:>9.3f} "
                  f"{mig['precopy_bytes'] / 1e6:>11.2f} "
                  f"{mig['stopcopy_bytes'] / 1e6:>11.2f} "
                  f"{'ok' if parity else 'MISMATCH':>7}")

    elastic = []
    for n, m in elastic_shapes:
        eb = base if n == nprocs else run_baseline_lu(
            seed=seed, klass=klass, nprocs=n, iters_sim=iters_sim)
        ela = run_elastic_lu(seed=seed, klass=klass, nprocs=n,
                             iters_sim=iters_sim, target_nodes=m)
        parity = ela["checksum"] == eb["checksum"]
        check(f"elastic {n}->{m} checksum parity", parity)
        elastic.append({"ranks": n, "target_nodes": m,
                        "checksum_parity": parity,
                        "node_map": {str(k): v
                                     for k, v in ela["node_map"].items()}})
        if not quiet:
            print(f"# elastic {n} rank(s) -> {m} node(s): "
                  f"{'ok' if parity else 'MISMATCH'}")

    pc = run_postcopy_lu(seed=seed, klass=klass, nprocs=nprocs,
                         iters_sim=iters_sim)
    check("post-copy checksum parity", pc["checksum"] == base["checksum"])
    check("post-copy paged everything in",
          pc["pager_stats"]["pageins"] + pc["pager_stats"]["prefetched"]
          > 0)
    bo = run_postcopy_lu(seed=seed, klass=klass, nprocs=nprocs,
                         iters_sim=iters_sim, brownout=True)
    bo_base = run_baseline_lu(seed=seed, klass=klass, nprocs=nprocs,
                              iters_sim=iters_sim, spec=__mghpcc())
    check("post-copy brownout checksum parity",
          bo["checksum"] == bo_base["checksum"])
    check("post-copy brownout retried through the outage",
          bo["pager_stats"]["retries"] > 0)
    if not quiet:
        print(f"# post-copy: {pc['pager_stats']['faults']} fault(s), "
              f"{pc['pager_stats']['pageins']} demand page-in(s), "
              f"{pc['pager_stats']['prefetched']} prefetched; brownout "
              f"{bo['pager_stats']['retries']} retry(ies)")

    from ..obs import check_trace_invariants, traced
    with traced() as tracer:
        dis = run_precopy_lu(seed=seed, klass=klass, nprocs=nprocs,
                             iters_sim=iters_sim, disrupt=True)
    crash_applied = any(r.kind == "node-crash" and r.applied
                        for r in dis["failures"])
    check("disrupt crash landed on the target", crash_applied)
    check("disrupt recovered (>=1 failed attempt)",
          dis["outcome"].n_failures >= 1)
    check("disrupt checksum parity", dis["checksum"] == base["checksum"])
    violations = check_trace_invariants(tracer.events)
    check("disrupt trace invariants clean", not violations)
    if not quiet:
        print(f"# disrupt: {dis['outcome'].n_failures} aborted "
              f"attempt(s), final downtime "
              f"{dis['downtime_seconds']:.3f}s, invariants "
              f"{'clean' if not violations else violations}")

    report = {
        "app": "lu", "klass": klass, "nprocs": nprocs,
        "iters_sim": iters_sim, "seed": seed,
        "baseline_seconds": base["completion_seconds"],
        "baseline_checksum": base["checksum"],
        "cycle_seconds": cyc["cycle_seconds"],
        "sweep": sweep,
        "elastic": elastic,
        "postcopy": {"stats": pc["pager_stats"],
                     "brownout_stats": bo["pager_stats"]},
        "disrupt": {"failed_attempts": dis["outcome"].n_failures,
                    "downtime_seconds": dis["downtime_seconds"],
                    "invariant_violations": violations},
        "checks": {name: ok for name, ok in checks},
        "pass": all(ok for _name, ok in checks),
    }
    return report


def __mghpcc():
    from ..hardware import MGHPCC
    return MGHPCC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="live migration benchmark: downtime vs pre-copy "
                    "rounds, elastic remapping, post-copy paging, and "
                    "migrate-disrupt recovery")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (seconds, not "
                             "minutes)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--out", default="BENCH_migrate.json",
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_migrate_sweep(seed=args.seed, iters_sim=4,
                                   round_grid=[1, 2, 3],
                                   elastic_shapes=[(4, 2), (2, 4)])
    else:
        report = run_migrate_sweep(seed=args.seed, iters_sim=8,
                                   round_grid=[1, 2, 3, 4],
                                   elastic_shapes=[(8, 4), (4, 8)])

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"\n# report written to {args.out}")
    print(f"# overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
