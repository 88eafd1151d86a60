"""What the ledger measures: workloads, sizes and the metric registry.

This module is data only.  ``run.py`` executes it, ``BENCHMARK.json`` is
its projection (``run.py --write-manifest``), ``README.md`` explains the
choices, and ``test_ledger.py`` asserts the three agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

DEFAULT_SEED = 2014
#: seconds of measured repeats per contract run (``--seconds``)
RUN_SECONDS = 12
#: never fewer measured repeats than this (after one discarded warm-up)
MIN_REPEATS = 5
MAX_REPEATS = 20
#: what an end-to-end metric reads on a workload it does not apply to:
#: every workload must print every metric, and none may read 0
NOT_APPLICABLE = 1.0

# -- workloads ---------------------------------------------------------------

#: name, why (one line, <= 200 chars; goes into BENCHMARK.json), loop kind
WORKLOADS: List[Tuple[str, str, str]] = [
    ("kernel_storm",
     "only the event kernel runs (zero-delay + staggered timeouts), so a "
     "kernel change shows at full size here; also the in-run calibrant "
     "for reading wall numbers across machines",
     "closed"),
    ("lu_native",
     "NAS LU over sim+fabric+verbs+mpi+memory with no plugin, coordinator, "
     "capture or store: plugin/dmtcp/store changes must predict no change "
     "here; denominator of the plugin overhead",
     "closed"),
    ("lu_ckpt_restart",
     "the paper's headline path: the same LU under DMTCP+InfiniBand "
     "plugin, one mid-loop checkpoint, teardown, restart on a fresh "
     "cluster with new ids, run to completion",
     "closed"),
    ("ckpt_store_churn",
     "byte path with zero messaging: full and 10%-dirty incremental "
     "captures, store put, replication, GC, post-failure fetch and "
     "restore of real bytes, so writes sit beside reads",
     "closed"),
    ("service_stream",
     "open-loop Poisson stream of small tenant jobs through admission, "
     "sharded index and cross-job dedup: the store used the other way "
     "round, and the only latency distribution",
     "open"),
]
WORKLOAD_NAMES = [w[0] for w in WORKLOADS]

#: size -> workload -> parameters.  ``bench`` is what BENCHMARK.json's
#: command runs (sized to the driver's time cap, see README); ``full`` is
#: the paper-scale set for a human with minutes to spend; ``smoke`` is CI.
SIZES: Dict[str, Dict[str, dict]] = {
    "bench": {
        "kernel_storm": {"procs": 2048, "rounds": 300},
        "lu_native": {"ranks": 64, "ppn": 16, "iters_sim": 8},
        "lu_ckpt_restart": {"ranks": 64, "ppn": 16, "iters_sim": 8},
        "ckpt_store_churn": {"ranks": 4, "regions": 16,
                             "region_kib": 256, "epochs": 8},
        "service_stream": {"jobs": 200},
    },
    "full": {
        "kernel_storm": {"procs": 2048, "rounds": 600},
        "lu_native": {"ranks": 256, "ppn": 16, "iters_sim": 8},
        "lu_ckpt_restart": {"ranks": 256, "ppn": 16, "iters_sim": 8},
        "ckpt_store_churn": {"ranks": 4, "regions": 16,
                             "region_kib": 1024, "epochs": 8},
        "service_stream": {"jobs": 400},
    },
    "smoke": {
        "kernel_storm": {"procs": 256, "rounds": 100},
        "lu_native": {"ranks": 16, "ppn": 4, "iters_sim": 8},
        "lu_ckpt_restart": {"ranks": 16, "ppn": 4, "iters_sim": 8},
        "ckpt_store_churn": {"ranks": 4, "regions": 16,
                             "region_kib": 16, "epochs": 8},
        "service_stream": {"jobs": 18},
    },
}

# -- metrics -----------------------------------------------------------------


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float          # share of the parent's median it may worsen by
    exact: bool           # simulated clock / byte count: repeats exactly
    workloads: Tuple[str, ...]   # () = all
    meaning: str


_ALL: Tuple[str, ...] = ()
_LU = ("lu_native", "lu_ckpt_restart")

#: ``sim_s`` is simulated seconds (the science), ``s`` host seconds (the
#: cost of getting it).  Exact metrics repeat bit-identically for a fixed
#: seed; their bounds only have to absorb seed-to-seed input variation.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, False, _ALL,
             "worker spawn to first timed call: interpreter start, "
             "imports, input generation, Cluster/spec construction"),
    EndToEnd("wall_s", "s", "lower", 0.25, False, _ALL,
             "timed body, tracing off (the bound is three times the "
             "run-to-run spread measured on a shared 2-core host, see "
             "README; claims of a gain use paired runs instead)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, False, _ALL,
             "ru_maxrss of the workload's interpreter"),
    EndToEnd("sim_runtime_s", "sim_s", "lower", 0.01, True, _LU,
             "launch start to last rank's return, minus time inside "
             "session.checkpoint and dmtcp_restart"),
    EndToEnd("sim_ckpt_s", "sim_s", "lower", 0.01, True,
             ("lu_ckpt_restart",), "one coordinated checkpoint (Table 1)"),
    EndToEnd("sim_restart_s", "sim_s", "lower", 0.01, True,
             ("lu_ckpt_restart",),
             "dmtcp_restart on a fresh cluster (Table 1)"),
    EndToEnd("sim_fetch_s", "sim_s", "lower", 0.01, True,
             ("ckpt_store_churn",),
             "mean fetch_image of one rank via the cheapest live tier "
             "after a node failure"),
    EndToEnd("sim_makespan_s", "sim_s", "lower", 0.01, True,
             ("service_stream",), "first arrival to last job done"),
    EndToEnd("sim_put_p50_s", "sim_s", "lower", 0.01, True,
             ("service_stream",), "service put latency, median"),
    EndToEnd("sim_put_p95_s", "sim_s", "lower", 0.15, True,
             ("service_stream",),
             "service put latency, p95 (>= 10 samples beyond it); sits on "
             "the cliff between deduped and first-of-kind puts, hence the "
             "wide seed-to-seed bound"),
    EndToEnd("ckpt_write_ratio", "ratio", "lower", 0.01, True,
             ("ckpt_store_churn", "service_stream"),
             "bytes written to checkpoint tiers / naive full-image bytes"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str            # which end-to-end metric on which workload


#: packages of ``src/repro`` a profile is folded into, plus ``bench`` (the
#: ledger's own load generators and drivers) and ``other`` (stdlib/numpy
#: time no caller in a named layer accounts for)
LAYERS = ["sim", "hardware", "ibverbs", "core.ib_plugin", "mpi", "memory",
          "dmtcp", "store", "service", "apps", "net", "faults", "obs",
          "bench", "other"]

PHASES = ["launch", "run_pre", "checkpoint", "restart", "run_post"]
SIMPHASES = ["quiesce", "drain", "capture", "compress", "write", "refill",
             "replay"]


def _per_layer() -> List[PerLayer]:
    rows: List[PerLayer] = []

    def add(*fields: str) -> None:
        rows.append(PerLayer(*fields))

    for layer in LAYERS:
        add(f"{layer}.self_s", "s", "lower",
            "wall_s on every workload, in proportion to its share")
        add(f"{layer}.calls", "count", "lower", "as its self_s")
    add("trace.coverage", "ratio", "higher",
        "none: validity of the split (named layers / traced wall, "
        ">= 0.95)")
    add("trace.overhead_ratio", "ratio", "lower",
        "none: profiled wall / untraced wall_s")
    for phase in PHASES:
        moves = {"restart": "wall_s and peak_rss_mb on lu_ckpt_restart "
                            "only (the superlinear-in-ranks term)",
                 "checkpoint": "sim_s is sim_ckpt_s; host_s -> wall_s on "
                               "lu_ckpt_restart"}.get(
            phase, "wall_s on the LU pair")
        add(f"phase.{phase}.host_s", "s", "lower", moves)
        add(f"phase.{phase}.sim_s", "sim_s", "lower", moves)
        add(f"phase.{phase}.events", "count", "lower", moves)
    kernel = "wall_s on all but ckpt_store_churn"
    add("sim.events", "count", "lower", kernel)
    add("sim.heap_peak", "count", "lower", kernel)
    add("sim.batch_mean", "count", "higher", kernel)
    add("sim.host_us_per_event", "us", "lower", kernel)
    add("sim.storm_events_per_s", "1/s", "higher",
        "wall_s on kernel_storm; the cross-machine calibrant")
    add("sim.storm_ref_ratio", "ratio", "higher",
        "ReferenceEnvironment wall / Environment wall on the same storm: "
        "decides ROADMAP 'three event kernels'")
    plugin = ("wall_s on lu_ckpt_restart and service_stream; no change on "
              "lu_native, kernel_storm, ckpt_store_churn")
    add("core.ib_plugin.wrapper_calls", "count", "lower", plugin)
    add("core.ib_plugin.host_us_per_wrapper_call", "us", "lower", plugin)
    add("core.ib_plugin.drained_completions", "count", "lower", plugin)
    add("core.ib_plugin.reposted_wqes", "count", "lower", plugin)
    add("core.ib_plugin.run_overhead_ratio", "ratio", "lower",
        "host us/event of run_pre+run_post / lu_native's: the plugin's "
        "runtime overhead on the host clock")
    wire = ("wall_s on the LU pair and service_stream; counts must not "
            "change under a host-only optimisation")
    add("ibverbs.posts", "count", "lower", wire)
    add("ibverbs.polls", "count", "lower", wire)
    add("hardware.msgs", "count", "lower", wire)
    add("hardware.bytes", "B", "lower", wire)
    capture = ("wall_s on ckpt_store_churn (most), phase.checkpoint.host_s "
               "on lu_ckpt_restart")
    add("dmtcp.capture_full.host_s", "s", "lower", capture)
    add("dmtcp.capture_incr.host_s", "s", "lower", capture)
    add("dmtcp.capture_full_mb_per_s", "MB/s", "higher", capture)
    add("dmtcp.regions_clean_ratio", "ratio", "higher", "ckpt_write_ratio")
    add("dmtcp.chunks_dirty_ratio", "ratio", "lower", "ckpt_write_ratio")
    add("dmtcp.image_mb_per_rank", "MB", "lower",
        "sim_ckpt_s and sim_restart_s on lu_ckpt_restart")
    for phase in SIMPHASES:
        add(f"simphase.{phase}_s", "sim_s", "lower",
            ("sim_restart_s" if phase in ("refill", "replay")
             else "sim_ckpt_s") + " on lu_ckpt_restart (paper Table 2; "
            "summed over ranks)")
    add("simphase.coverage", "ratio", "higher",
        "none: named phases / total checkpoint time")
    store_host = "wall_s on ckpt_store_churn"
    add("store.put.host_s", "s", "lower", store_host)
    add("store.fetch.host_s", "s", "lower", store_host)
    add("memory.restore.host_s", "s", "lower", store_host)
    dedup = ("ckpt_write_ratio, sim_fetch_s on ckpt_store_churn; "
             "sim_put_p50_s on service_stream")
    add("store.chunks_new", "count", "lower", dedup)
    add("store.chunks_deduped", "count", "higher", dedup)
    add("store.dedup_hit_ratio", "ratio", "higher", dedup)
    for tier in ("local", "partner", "lustre"):
        add(f"store.hits_{tier}", "count",
            "higher" if tier == "local" else "lower", dedup)
    add("store.replicated_chunks", "count", "lower", dedup)
    add("store.gc_chunks", "count", "higher", dedup)
    service = "sim_put_p95_s, sim_makespan_s, wall_s on service_stream only"
    add("service.puts", "count", "higher", service)
    add("service.puts_rejected", "count", "lower",
        service + "; the capped tenant's expected rejections, repeats "
        "exactly")
    add("service.queued_sim_s", "sim_s", "lower", service)
    add("service.jobs_per_wall_s", "1/s", "higher", service)
    add("service.sim_ingest_mb_per_s", "MB/s", "higher", service)
    add("obs.tracer_wall_ratio", "ratio", "lower",
        "none: repro.obs tracer-on wall / untraced wall_s (ROADMAP item "
        "(d)'s budget, recorded not gated)")
    add("obs.sim_drift", "sim_s", "lower",
        "none: tracer-on simulated clocks minus untraced; must be 0")
    return rows


PER_LAYER: List[PerLayer] = _per_layer()


def applies(metric: EndToEnd, workload: str) -> bool:
    return not metric.workloads or workload in metric.workloads


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why, _ in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
