"""Per-phase checkpoint-time decomposition from a live trace.

Mirrors the layout of the paper's Table 2 (runtime breakdown of a
checkpoint): for every completed ``ckpt`` span in a trace, the blocking
time is decomposed into

* ``quiesce``  — thread suspension + the global "suspended" barrier,
* ``drain``    — CQ drain rounds + settle waits + the coordinator's
  global drain verdict rounds (Principle 4),
* ``capture``  — memory snapshot + incremental hash scan,
* ``compress`` — the gzip pipeline stall folded into the write stream
  (derived from the write span's stall factor: a stalled write spends
  ``1 - 1/stall`` of its time waiting on the compressor),
* ``write``    — the blocking image write net of the compression stall,
* ``refill``   — post-restart private-queue serving (Principle 5; sim
  time ≈ 0, reported by completion count),
* ``replay``   — restart WQE re-posting (Principles 3/6).

The residual (barriers, coordinator messaging) is reported as ``other``
so the rows always sum to the total; ``coverage`` is the named phases'
share of total checkpoint time — the acceptance gate requires ≥ 0.95 on
a traced LU run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["decompose", "migration_summary", "render", "render_migration",
           "render_service", "render_sim", "render_store",
           "service_summary", "store_summary", "trace_scenario"]

_PHASES = ("quiesce", "drain", "capture", "compress", "write",
           "refill", "replay")


class _CompletedCkpts:
    """Emission-index intervals of the completed ``ckpt`` spans, per
    process.  A checkpoint killed mid-flight (fault injection) leaves
    orphaned phase spans; only phase spans nested inside a *completed*
    checkpoint count toward completed-checkpoint time."""

    def __init__(self, events: List[Dict[str, Any]]):
        self._begins = {e["span"]: e for e in events
                        if e["ev"] == "B" and "span" in e}
        self._intervals: Dict[str, List[tuple]] = {}
        for event in events:
            if event["kind"] == "ckpt" and event["ev"] == "E":
                b = self._begins.get(event.get("span"))
                if b is not None:
                    self._intervals.setdefault(event["proc"], []).append(
                        (b["seq"], event["seq"]))

    def contains(self, end_event: Dict[str, Any]) -> bool:
        b = self._begins.get(end_event.get("span"))
        if b is None:
            return False
        for lo, hi in self._intervals.get(end_event["proc"], ()):
            if lo <= b["seq"] and end_event["seq"] <= hi:
                return True
        return False


def _span_totals(events: List[Dict[str, Any]], kind: str,
                 within: Optional[_CompletedCkpts] = None):
    """(total sim seconds, count) over a kind's completed spans,
    optionally restricted to spans nested in a completed checkpoint."""
    total = 0.0
    count = 0
    for event in events:
        if event["kind"] != kind or event["ev"] != "E":
            continue
        if within is not None and not within.contains(event):
            continue
        total += event.get("dur", 0.0)
        count += 1
    return total, count


def decompose(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace into the per-phase decomposition dict."""
    within = _CompletedCkpts(events)
    total, n_ckpts = _span_totals(events, "ckpt")
    quiesce, _ = _span_totals(events, "ckpt.quiesce", within)
    drain, drain_rounds = _span_totals(events, "ckpt.drain", within)
    capture, _ = _span_totals(events, "ckpt.capture", within)
    write_gross, n_writes = _span_totals(events, "ckpt.write", within)
    replay, n_replays = _span_totals(events, "replay")

    # gzip piped through the writer stalls the stream by the stall
    # factor; the compressor's share of a stalled write is 1 - 1/stall
    compress = 0.0
    for event in events:
        if event["kind"] == "ckpt.write" and event["ev"] == "E" \
                and within.contains(event):
            stall = event.get("stall", 1.0)
            if stall > 1.0:
                compress += event.get("dur", 0.0) * (1.0 - 1.0 / stall)
    write = write_gross - compress

    # chunk-granularity dirty-tracking totals (incremental captures
    # stamp their ckpt.capture end with per-capture chunk counts)
    chunks_total = chunks_dirty = 0
    for event in events:
        if event["kind"] == "ckpt.capture" and event["ev"] == "E" \
                and "chunks" in event and within.contains(event):
            chunks_total += event.get("chunks", 0)
            chunks_dirty += event.get("chunks_dirty", 0)

    # ChunkSan audit volume (opt-in shadow oracle: each capture emits
    # one chunksan.check before the stamps are trusted)
    san_checks = san_chunks = 0
    for event in events:
        if event["kind"] == "chunksan.check":
            san_checks += 1
            san_chunks += event.get("chunks_checked", 0)

    refill_events = [e for e in events if e["kind"] == "refill.poll"]
    refill_served = sum(e.get("served_private", 0) for e in refill_events)
    reposts = sum(e.get("reposts", 0) for e in events
                  if e["kind"] == "replay" and e["ev"] == "E")
    drained = sum(e.get("drained", 0) for e in events
                  if e["kind"] == "drain.round")

    rows = [
        {"phase": "quiesce", "seconds": quiesce, "count": n_ckpts},
        {"phase": "drain", "seconds": drain, "count": drain_rounds,
         "note": f"{drained} completion(s) drained"},
        {"phase": "capture", "seconds": capture, "count": n_ckpts},
        {"phase": "compress", "seconds": compress, "count": n_writes},
        {"phase": "write", "seconds": write, "count": n_writes},
        {"phase": "refill", "seconds": 0.0, "count": len(refill_events),
         "note": f"{refill_served} drained completion(s) served"},
        {"phase": "replay", "seconds": replay, "count": n_replays,
         "note": f"{reposts} WQE(s) re-posted"},
    ]
    named = sum(row["seconds"] for row in rows)
    other = max(0.0, total - named)
    rows.append({"phase": "other", "seconds": other, "count": n_ckpts,
                 "note": "barriers + coordinator messaging"})
    for row in rows:
        row["share"] = row["seconds"] / total if total > 0 else 0.0
    return {
        "total_seconds": total,
        "n_checkpoints": n_ckpts,
        "coverage": named / total if total > 0 else 1.0,
        "phases": rows,
        "chunks": {
            "total": chunks_total,
            "clean": chunks_total - chunks_dirty,
            "dirty": chunks_dirty,
        },
        "chunksan": {
            "checks": san_checks,
            "chunks_checked": san_chunks,
        },
    }


def render(decomp: Dict[str, Any]) -> str:
    """Format a decomposition as the Table 2-style text table."""
    lines = [
        f"checkpoint-time decomposition over "
        f"{decomp['n_checkpoints']} per-process checkpoint span(s), "
        f"total {decomp['total_seconds']:.4f}s (sim)",
        f"{'phase':>10} {'seconds':>10} {'share':>7} {'count':>6}  notes",
    ]
    for row in decomp["phases"]:
        lines.append(
            f"{row['phase']:>10} {row['seconds']:>10.4f} "
            f"{row['share']:>6.1%} {row['count']:>6}  "
            f"{row.get('note', '')}".rstrip())
    chunks = decomp.get("chunks", {})
    if chunks.get("total"):
        total = chunks["total"]
        lines.append(
            f"# chunk dirty tracking: {chunks['dirty']}/{total} chunk(s) "
            f"dirty ({chunks['dirty'] / total:.1%}) across incremental "
            "capture(s)")
    san = decomp.get("chunksan", {})
    if san.get("checks"):
        lines.append(
            f"# chunksan: {san['checks']} capture audit(s), "
            f"{san['chunks_checked']} chunk stamp(s) proven against the "
            "shadow full-hash oracle, 0 stale")
    lines.append(f"# named-phase coverage {decomp['coverage']:.1%} of "
                 "total checkpoint time")
    return "\n".join(lines)


def store_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate the ``store.*`` records of a trace: dedup effectiveness
    per put, replication volume, per-tier fetch hits, and the corruption
    defence (detections + heals).  Empty trace → all-zero dict, so the
    caller can key "was a store in play" off ``puts``."""
    summary = {
        "puts": 0, "put_seconds": 0.0, "chunks_new": 0,
        "chunks_deduped": 0, "bytes_written": 0.0,
        "replications": 0, "chunks_copied": 0, "chunks_skipped": 0,
        "fetches": 0, "fetch_seconds": 0.0,
        "hits_local": 0, "hits_partner": 0, "hits_lustre": 0,
        "corrupt_detected": 0, "healed": 0,
        "gc_manifests": 0, "gc_chunks": 0,
    }
    for event in events:
        kind, ev = event["kind"], event["ev"]
        if kind == "store.put" and ev == "E":
            summary["puts"] += 1
            summary["put_seconds"] += event.get("dur", 0.0)
            summary["chunks_new"] += event.get("chunks_new", 0)
            summary["chunks_deduped"] += event.get("chunks_deduped", 0)
            summary["bytes_written"] += event.get("bytes_written", 0.0)
        elif kind == "store.replicate" and ev == "E":
            summary["replications"] += 1
            summary["chunks_copied"] += event.get("copied", 0)
            summary["chunks_skipped"] += event.get("skipped", 0)
            summary["gc_manifests"] += event.get("gc_manifests", 0)
            summary["gc_chunks"] += event.get("gc_chunks", 0)
        elif kind == "store.fetch" and ev == "E":
            summary["fetches"] += 1
            summary["fetch_seconds"] += event.get("dur", 0.0)
            for tier in ("local", "partner", "lustre"):
                summary[f"hits_{tier}"] += event.get(f"hits_{tier}", 0)
        elif kind == "store.corrupt":
            summary["corrupt_detected"] += 1
        elif kind == "store.heal":
            summary["healed"] += 1
        elif kind == "store.gc":
            summary["gc_manifests"] += event.get("manifests", 0)
            summary["gc_chunks"] += event.get("chunks", 0)
    total = summary["chunks_new"] + summary["chunks_deduped"]
    summary["dedup_ratio"] = (summary["chunks_deduped"] / total
                              if total else 0.0)
    return summary


def render_store(summary: Dict[str, Any]) -> str:
    """Format a :func:`store_summary` as a short text block."""
    lines = [
        f"checkpoint store: {summary['puts']} put(s) in "
        f"{summary['put_seconds']:.4f}s (sim) — "
        f"{summary['chunks_new']} new chunk(s), "
        f"{summary['chunks_deduped']} deduped "
        f"({summary['dedup_ratio']:.1%}), "
        f"{summary['bytes_written'] / 1e6:.2f} MB written",
        f"  replication: {summary['replications']} flow(s), "
        f"{summary['chunks_copied']} chunk(s) copied, "
        f"{summary['chunks_skipped']} skipped (already placed)",
        f"  fetches: {summary['fetches']} in "
        f"{summary['fetch_seconds']:.4f}s — hits "
        f"local {summary['hits_local']}, "
        f"partner {summary['hits_partner']}, "
        f"lustre {summary['hits_lustre']}",
        f"  integrity: {summary['corrupt_detected']} corrupt chunk(s) "
        f"detected, {summary['healed']} healed; "
        f"gc retired {summary['gc_manifests']} manifest(s) / "
        f"{summary['gc_chunks']} chunk file(s)",
    ]
    return "\n".join(lines)


def service_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate the ``service.*`` records of a trace: the job stream
    (arrivals, grants, preemptions, completions), the shared store's put
    traffic and latency, admission decisions, and the per-tenant byte
    ledger.  Empty trace → all-zero dict, so the caller can key "was a
    service in play" off ``jobs_done`` + ``puts``."""
    summary: Dict[str, Any] = {
        "jobs_arrived": 0, "jobs_granted": 0, "jobs_done": 0,
        "jobs_failed": 0, "preemptions": 0,
        "puts": 0, "puts_rejected": 0, "put_seconds": 0.0,
        "chunks_new": 0, "chunks_deduped": 0, "bytes_written": 0.0,
        "admitted": 0, "rejected": 0, "queued_seconds": 0.0,
        "replicate_batches": 0,
        "tenants": {},
    }
    put_durs: List[float] = []
    for event in events:
        kind, ev = event["kind"], event["ev"]
        if kind == "service.arrive":
            summary["jobs_arrived"] += 1
        elif kind == "service.grant":
            summary["jobs_granted"] += 1
        elif kind == "service.done":
            summary["jobs_done"] += 1
            if not event.get("ok", True):
                summary["jobs_failed"] += 1
        elif kind == "service.preempt" and ev == "E":
            summary["preemptions"] += 1
        elif kind == "service.put" and ev == "E":
            summary["puts"] += 1
            dur = event.get("dur", 0.0)
            summary["put_seconds"] += dur
            put_durs.append(dur)
            summary["chunks_new"] += event.get("chunks_new", 0)
            summary["chunks_deduped"] += event.get("chunks_deduped", 0)
            summary["bytes_written"] += event.get("bytes_written", 0.0)
        elif kind == "service.admit":
            summary["admitted"] += 1
            summary["queued_seconds"] += event.get("queued", 0.0)
        elif kind == "service.reject":
            summary["rejected"] += 1
            summary["puts_rejected"] += 1
        elif kind == "service.replicate.batch":
            summary["replicate_batches"] += 1
        elif kind == "service.account":
            summary["tenants"][event.get("tenant")] = {
                key: event.get(key, 0.0)
                for key in ("bytes_admitted", "bytes_stored",
                            "bytes_rejected", "used_bytes", "puts",
                            "rejections", "queued_seconds")}
    total = summary["chunks_new"] + summary["chunks_deduped"]
    summary["dedup_ratio"] = (summary["chunks_deduped"] / total
                              if total else 0.0)
    if put_durs:
        put_durs.sort()
        summary["put_p50"] = put_durs[len(put_durs) // 2]
        summary["put_p99"] = put_durs[
            min(len(put_durs) - 1, int(0.99 * len(put_durs)))]
    else:
        summary["put_p50"] = summary["put_p99"] = 0.0
    return summary


def render_service(summary: Dict[str, Any]) -> str:
    """Format a :func:`service_summary` as a short text block."""
    lines = [
        f"checkpoint service: {summary['jobs_done']} job(s) done of "
        f"{summary['jobs_arrived']} arrived "
        f"({summary['jobs_failed']} failed), "
        f"{summary['jobs_granted']} grant(s), "
        f"{summary['preemptions']} preemption(s)",
        f"  puts: {summary['puts']} ok / "
        f"{summary['puts_rejected']} rejected — "
        f"{summary['chunks_new']} new chunk(s), "
        f"{summary['chunks_deduped']} deduped "
        f"({summary['dedup_ratio']:.1%}), "
        f"{summary['bytes_written'] / 1e6:.2f} MB written; "
        f"latency p50 {summary['put_p50']:.4f}s "
        f"p99 {summary['put_p99']:.4f}s (sim)",
        f"  admission: {summary['admitted']} admit(s), "
        f"{summary['rejected']} rejection(s), "
        f"{summary['queued_seconds']:.4f}s queued (sim); "
        f"{summary['replicate_batches']} replication batch(es)",
    ]
    for tenant in sorted(summary["tenants"]):
        row = summary["tenants"][tenant]
        lines.append(
            f"  tenant {tenant}: admitted {row['bytes_admitted'] / 1e6:.2f} "
            f"MB = stored {row['bytes_stored'] / 1e6:.2f} MB + rejected "
            f"{row['bytes_rejected'] / 1e6:.2f} MB; resident "
            f"{row['used_bytes'] / 1e6:.2f} MB "
            f"({row['puts']:.0f} put(s), "
            f"{row['rejections']:.0f} rejection(s))")
    return "\n".join(lines)


def migration_summary(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate the ``migrate.*`` records of a trace: completed and
    aborted migrations, pre-copy volume, the stop-and-copy downtime
    decomposed into freeze (quiesce+drain+capture, the nested ``ckpt``
    span) vs. wire+restart, and post-copy paging traffic.  Empty trace →
    all-zero dict, so the caller can key "did a migration run" off
    ``migrations``."""
    summary = {
        "migrations": 0, "aborted": 0, "rounds": 0,
        "round_bytes": [], "precopy_bytes": 0.0, "precopy_seconds": 0.0,
        "stopcopy_bytes": 0.0, "downtime_seconds": 0.0,
        "freeze_seconds": 0.0, "xfer_restart_seconds": 0.0,
        "faults": 0, "pageins": 0, "prefetches": 0, "retries": 0,
        "elastic": 0,
    }
    open_stop: Optional[Dict[str, float]] = None
    for event in events:
        kind, ev = event["kind"], event["ev"]
        if kind == "migrate" and ev == "E":
            if event.get("aborted"):
                summary["aborted"] += 1
            else:
                summary["migrations"] += 1
                summary["rounds"] += event.get("rounds", 0)
                summary["precopy_bytes"] += event.get("precopy_bytes", 0.0)
                summary["stopcopy_bytes"] += event.get(
                    "stopcopy_bytes", 0.0)
        elif kind == "migrate.precopy.round":
            if ev == "B":
                summary["round_bytes"].append(event.get("bytes", 0.0))
            else:
                summary["precopy_seconds"] += event.get("dur", 0.0)
        elif kind == "migrate.stopcopy":
            if ev == "B":
                open_stop = {"freeze": 0.0}
            else:
                downtime = event.get("downtime", event.get("dur", 0.0))
                summary["downtime_seconds"] += downtime
                freeze = open_stop["freeze"] if open_stop else 0.0
                summary["freeze_seconds"] += freeze
                summary["xfer_restart_seconds"] += max(0.0,
                                                       downtime - freeze)
                open_stop = None
        elif kind == "ckpt" and ev == "E" and open_stop is not None:
            # the ranks freeze concurrently: the downtime's freeze share
            # is the slowest rank's checkpoint span, not the sum
            open_stop["freeze"] = max(open_stop["freeze"],
                                      event.get("dur", 0.0))
        elif kind == "migrate.fault":
            summary["faults"] += 1
        elif kind == "migrate.pagein" and ev == "E":
            if event.get("mode") == "prefetch":
                summary["prefetches"] += 1
            else:
                summary["pageins"] += 1
        elif kind == "migrate.pagein.retry":
            summary["retries"] += 1
        elif kind == "migrate.elastic":
            summary["elastic"] += 1
    return summary


def render_migration(summary: Dict[str, Any]) -> str:
    """Format a :func:`migration_summary` as a short text block."""
    rounds = ", ".join(f"{b / 1e6:.2f}" for b in summary["round_bytes"])
    lines = [
        f"migrations: {summary['migrations']} completed, "
        f"{summary['aborted']} aborted — "
        f"{summary['rounds']} pre-copy round(s) shipped "
        f"{summary['precopy_bytes'] / 1e6:.2f} MB in "
        f"{summary['precopy_seconds']:.4f}s (sim) "
        f"[per round MB: {rounds}]",
        f"  downtime: {summary['downtime_seconds']:.4f}s = "
        f"freeze {summary['freeze_seconds']:.4f}s + "
        f"wire+restart {summary['xfer_restart_seconds']:.4f}s "
        f"({summary['stopcopy_bytes'] / 1e6:.2f} MB residue)",
        f"  post-copy: {summary['faults']} fault(s), "
        f"{summary['pageins']} demand page-in(s), "
        f"{summary['prefetches']} prefetched, "
        f"{summary['retries']} retry(ies); "
        f"elastic remap(s): {summary['elastic']}",
    ]
    return "\n".join(lines)


def render_sim(stats: Dict[str, Any]) -> str:
    """One-line event-kernel summary from ``Environment.stats`` counters
    (``sim.events`` / ``sim.heap_peak`` / ``sim.batch_size``)."""
    return ("# sim kernel: {events:.0f} events, heap peak {heap_peak:.0f}, "
            "{batches:.0f} timestamp batches "
            "(max {max_batch:.0f}, mean {batch_mean:.2f})").format(**stats)


def trace_scenario(app: str = "lu", seed: int = 2014,
                   iters_sim: int = 24, nprocs: int = 4,
                   ckpt_interval: float = 1.0, crash_at: Optional[float]
                   = None, config=None, sink: Optional[str] = None):
    """Run a NAS chaos scenario under a fresh tracer; returns
    ``(tracer, outcome)``.  ``crash_at`` injects one fatal node crash so
    the trace exercises the restart path (refill + replay); ``config``
    is the job's :class:`~repro.dmtcp.RunConfig` (its ``sink_factory``
    :class:`~repro.store.CheckpointStore` makes the trace carry
    ``store.*`` records; ``incremental`` makes ``ckpt.capture`` spans
    carry chunk dirty-tracking attrs and moves the ``ckpt.chunks_*``
    counters); ``sink`` is the JSONL path the trace streams to."""
    from ..dmtcp import RunConfig
    from ..faults.harness import run_chaos_nas
    from ..faults.schedule import FailureEvent, FixedSchedule
    from .trace import traced

    klass = "B" if app == "ft" else "A"   # NAS defines no FT class A
    failures = [] if crash_at is None else [
        FailureEvent(t=crash_at, kind="node-crash", node_index=1)]
    with traced(sink=sink) as tracer:
        outcome = run_chaos_nas(
            app=app, klass=klass, nprocs=nprocs, iters_sim=iters_sim,
            seed=seed, ckpt_interval=ckpt_interval,
            schedule=FixedSchedule(failures),
            config=config or RunConfig(), backoff_base=0.25)
    stats = outcome.sim_stats
    tracer.metrics.counter("sim.events").inc(stats["events"])
    tracer.metrics.counter("sim.heap_peak").inc(stats["heap_peak"])
    tracer.metrics.counter("sim.batch_size").inc(stats["max_batch"])
    return tracer, outcome
