"""CLI: ``python -m repro.obs report`` — per-phase checkpoint-time
decomposition (paper Table 2's layout) from a live traced run or a
saved JSONL trace.

Usage::

    PYTHONPATH=src python -m repro.obs report                # traced LU run
    PYTHONPATH=src python -m repro.obs report --run ft --crash-at 6
    PYTHONPATH=src python -m repro.obs report --trace run.jsonl
    PYTHONPATH=src python -m repro.obs report --sink run.jsonl --json
"""

from __future__ import annotations

import argparse
import json

from .invariants import check_trace_invariants
from .report import (decompose, render, render_service, render_sim,
                     render_store, service_summary, store_summary,
                     trace_scenario)
from .trace import load_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability reports for checkpoint-restart runs")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser(
        "report", help="per-phase checkpoint-time decomposition")
    rep.add_argument("--trace", metavar="PATH",
                     help="read a saved JSONL trace instead of running")
    rep.add_argument("--run", choices=("lu", "ft"), default="lu",
                     help="NAS kernel to run under the tracer "
                          "(default: lu)")
    rep.add_argument("--seed", type=int, default=2014)
    rep.add_argument("--iters", type=int, default=24,
                     help="simulated NAS iterations")
    rep.add_argument("--ckpt-interval", type=float, default=1.0)
    rep.add_argument("--crash-at", type=float, default=None,
                     help="inject a fatal node crash at this sim time so "
                          "the trace exercises refill + replay")
    rep.add_argument("--store", action="store_true",
                     help="checkpoint through the content-addressed "
                          "multi-tier store so the trace carries "
                          "store.* records")
    rep.add_argument("--service", action="store_true",
                     help="run a gang-scheduled job stream against the "
                          "shared multi-tenant checkpoint service "
                          "instead of a single NAS job; the report adds "
                          "the service.* section")
    rep.add_argument("--jobs", type=int, default=6,
                     help="arrival-stream length for --service "
                          "(default: 6)")
    rep.add_argument("--incremental", action="store_true",
                     help="checkpoint incrementally against the previous "
                          "image so the report carries chunk "
                          "dirty-tracking counters")
    rep.add_argument("--sink", metavar="PATH", default=None,
                     help="also write the trace as JSONL to PATH")
    rep.add_argument("--sim", action="store_true",
                     help="also report event-kernel counters (sim.events, "
                          "heap peak, timestamp-batch shape); live runs "
                          "only")
    rep.add_argument("--json", action="store_true",
                     help="emit the decomposition as JSON")
    args = parser.parse_args(argv)

    counters = {}
    sim_stats = None
    if args.trace is not None:
        events = load_trace(args.trace)
        dropped = 0
    elif args.service:
        from ..obs.trace import traced
        from ..service import service_scenario
        with traced(sink=args.sink) as tracer:
            scenario = service_scenario(
                seed=args.seed, n_jobs=args.jobs, quantum=0.5,
                ckpt_interval=args.ckpt_interval)
        events = tracer.events
        dropped = tracer.dropped
        outcomes = scenario["outcomes"]
        print(f"# service stream: {len(outcomes)} job(s) completed, "
              f"order {', '.join(o.name for o in outcomes)}; "
              f"{len(events)} trace record(s)")
    else:
        from ..dmtcp import FileSink, RunConfig
        from ..store import CheckpointStore
        tracer, outcome = trace_scenario(
            app=args.run, seed=args.seed, iters_sim=args.iters,
            ckpt_interval=args.ckpt_interval, crash_at=args.crash_at,
            config=RunConfig(incremental=args.incremental,
                             sink_factory=CheckpointStore if args.store
                             else FileSink),
            sink=args.sink)
        events = tracer.events
        dropped = tracer.dropped
        counters = {n: v for n, v in
                    tracer.metrics.snapshot()["counters"].items()
                    if n.startswith("ckpt.chunks_")}
        if args.sim:
            sim_stats = outcome.sim_stats
        print(f"# {args.run.upper()} completed in "
              f"{outcome.completion_seconds:.3f}s (sim): "
              f"{outcome.recovery.n_checkpoints} checkpoint(s), "
              f"{outcome.recovery.n_restarts} restart(s), "
              f"{len(events)} trace record(s)")

    violations = check_trace_invariants(events, dropped=dropped)
    decomp = decompose(events)
    store = store_summary(events)
    store_active = store["puts"] or store["fetches"]
    service = service_summary(events)
    service_active = service["jobs_done"] or service["puts"]
    if args.json:
        payload = {"decomposition": decomp, "violations": violations}
        if store_active:
            payload["store"] = store
        if service_active:
            payload["service"] = service
        if counters:
            payload["counters"] = counters
        if sim_stats is not None:
            payload["sim"] = sim_stats
        print(json.dumps(payload, indent=2))
    else:
        print(render(decomp))
        if counters:
            print("# counters: " + ", ".join(
                f"{name}={value:.0f}"
                for name, value in sorted(counters.items())))
        if sim_stats is not None:
            print(render_sim(sim_stats))
        if store_active:
            print(render_store(store))
        if service_active:
            print(render_service(service))
        if violations:
            print(f"# {len(violations)} trace invariant violation(s):")
            for violation in violations:
                print(f"#   {violation}")
        else:
            print("# trace invariants: all clean")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
