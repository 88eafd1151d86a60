"""The five workload bodies and the worker that runs one of them.

Each repeat of each workload runs in a fresh interpreter
(``run.py --worker``): set up, time one body, check the outputs, print one
JSON row.  Workloads drive ``src/repro`` only through public functions and
read only public counters; the seed drives every generated input.

A workload is a class with three steps:

* ``__init__(params, seed, handoff)`` — set-up, untimed by
  ``wall_s`` and reported as ``setup_s``;
* ``body(rec)`` — the timed call, with ``rec.span(...)`` around each
  driver call into a layer (a no-op unless the run is traced);
* ``check(wall_s, verify)`` — fills ``exact`` (simulated clocks, counts,
  checksums: must repeat bit-identically for a seed), ``counters``
  (per-layer metrics read from public counters), ``attempted`` and
  ``failures``.  ``verify`` (the discarded warm-up repeat) adds the
  cross-checks too costly to pay on every repeat.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import resource
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from repro.apps.nas import lu_app
from repro.core import InfinibandPlugin
from repro.dmtcp import dmtcp_launch, dmtcp_restart, native_launch
from repro.dmtcp.image import CheckpointImage
from repro.hardware import MGHPCC, Cluster
from repro.memory import CHUNK_BYTES, AddressSpace
from repro.mpi import make_mpi_specs
from repro.service import service_scenario
from repro.sim import Environment, ReferenceEnvironment, RngFactory
from repro.store import CheckpointStore

from spec import SIMPHASES
from tracing import Recorder, fold_profile


class Workload:
    def __init__(self, params: dict, seed: int, handoff: dict):
        self.params = params
        self.seed = seed
        self.exact: Dict[str, object] = {}
        self.counters: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: what later repeats of the same run need from the warm-up
        self.handoff: Dict[str, object] = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def kernel_counters(self, env) -> None:
        snap = env.stats.snapshot()
        self.exact["events"] = snap["events"]
        self.counters["sim.events"] = snap["events"]
        self.counters["sim.heap_peak"] = snap["heap_peak"]
        self.counters["sim.batch_mean"] = snap["batch_mean"]


# -- kernel_storm --------------------------------------------------------------

class KernelStorm(Workload):
    """Generator processes alternating zero-delay timeouts (the ready
    lane) with small staggered ones (the heap): the mix the MPI wire-up
    produces, with nothing but ``repro.sim`` underneath."""

    def __init__(self, params, seed, handoff):
        super().__init__(params, seed, handoff)
        rng = np.random.default_rng(seed)
        self.phases = rng.integers(0, 4, params["procs"]).tolist()
        self.finished = 0
        self.env = None

    def _program(self, env_cls):
        env = env_cls()
        rounds = self.params["rounds"]
        self.finished = 0

        def proc(env, phase):
            for i in range(rounds):
                k = (phase + i) % 4
                yield env.timeout(0.0 if k == 0 else k * 25e-9)
            self.finished += 1

        for phase in self.phases:
            env.process(proc(env, phase))
        env.run()
        return env

    def body(self, rec: Recorder) -> None:
        with rec.span("sim.storm"):
            self.env = self._program(Environment)

    def check(self, wall_s: float, verify: bool) -> None:
        env = self.env
        self.attempted = self.params["procs"]
        self.expect(self.finished == self.attempted,
                    f"{self.attempted - self.finished} process(es) "
                    "never finished")
        self.kernel_counters(env)
        self.exact["storm_sim_s"] = env.now
        self.counters["sim.storm_events_per_s"] = \
            env.stats.events / wall_s
        if verify:
            t0 = time.perf_counter()
            ref = self._program(ReferenceEnvironment)
            ref_wall = time.perf_counter() - t0
            self.counters["sim.storm_ref_ratio"] = ref_wall / wall_s
            self.expect(ref.stats.events == env.stats.events
                        and ref.now == env.now,
                        f"kernel disagrees with ReferenceEnvironment: "
                        f"{env.stats.events} events at {env.now!r} vs "
                        f"{ref.stats.events} at {ref.now!r}")


# -- the LU pair ---------------------------------------------------------------

def _lu_cluster(env, params: dict, seed: int, name: str) -> Cluster:
    n_nodes = -(-params["ranks"] // params["ppn"])
    return Cluster(env, MGHPCC, n_nodes=n_nodes, rng=RngFactory(seed),
                   name=name)


def _lu_specs(cluster: Cluster, params: dict):
    def app(ctx, comm):
        result = yield from lu_app(ctx, comm, klass="A",
                                   iters_sim=params["iters_sim"])
        return result
    return make_mpi_specs(cluster, params["ranks"], app, ppn=params["ppn"])


def _lu_native_results(params: dict, seed: int):
    """Per-rank results of one untimed native run (the cross-check)."""
    env = Environment()
    cluster = _lu_cluster(env, params, seed, "ledger-lu-ref")
    session = native_launch(cluster, _lu_specs(cluster, params))
    return env.run(until=env.process(session.wait()))


class _Lu(Workload):
    def check_results(self, results) -> None:
        ranks = self.params["ranks"]
        self.attempted += ranks
        self.expect(len(results) == ranks,
                    f"{ranks - len(results)} rank(s) missing")
        sums = {r.checksum for r in results}
        self.expect(len(sums) == 1, f"ranks disagree: {len(sums)} checksums")
        self.exact["checksum"] = results[0].checksum if results else None


class LuNative(_Lu):
    def __init__(self, params, seed, handoff):
        super().__init__(params, seed, handoff)
        self.env = Environment()
        self.cluster = _lu_cluster(self.env, params, seed, "ledger-lu")
        self.specs = _lu_specs(self.cluster, params)

    def body(self, rec: Recorder) -> None:
        env = self.env
        with rec.span("phase.launch", env):
            session = native_launch(self.cluster, self.specs)
        with rec.span("phase.run_pre", env):
            self.results = env.run(until=env.process(session.wait()))

    def check(self, wall_s: float, verify: bool) -> None:
        self.check_results(self.results)
        self.kernel_counters(self.env)
        self.exact["sim_runtime_s"] = self.env.now
        fabric = self.cluster.fabric
        self.counters["hardware.msgs"] = fabric.messages_sent
        self.counters["hardware.bytes"] = fabric.bytes_sent


class LuCkptRestart(_Lu):
    """``handoff["ckpt_at"]`` is the simulated instant of the checkpoint,
    half way through the iteration loop.  The loop's window is only known
    after a run, so the warm-up repeat finds it with one uninterrupted
    DMTCP run and hands it to the measured repeats."""

    def __init__(self, params, seed, handoff):
        super().__init__(params, seed, handoff)
        if "ckpt_at" not in handoff:
            handoff = self._find_loop()
        self.handoff = dict(handoff)
        self.env = Environment()
        self.cluster = _lu_cluster(self.env, params, seed, "ledger-lu")
        self.specs = _lu_specs(self.cluster, params)

    def _launch(self, cluster, specs):
        return dmtcp_launch(cluster, specs,
                            plugin_factory=lambda: [InfinibandPlugin()])

    def _find_loop(self) -> dict:
        env = Environment()
        cluster = _lu_cluster(env, self.params, self.seed, "ledger-lu")
        session = env.run(until=env.process(
            self._launch(cluster, _lu_specs(cluster, self.params))))
        results = env.run(until=env.process(session.wait()))
        t_init = float(results[0].t_init)
        loop = float(results[0].loop_seconds)
        return {"ckpt_at": t_init + 0.5 * loop, "loop_start": t_init,
                "loop_end": t_init + loop,
                "uninterrupted_checksum": results[0].checksum}

    def body(self, rec: Recorder) -> None:
        env, events = self.env, self.env.stats
        with rec.span("phase.launch", env):
            session = env.run(until=env.process(
                self._launch(self.cluster, self.specs)))
        ev_launch = events.events
        with rec.span("phase.run_pre", env):
            env.run(until=self.handoff["ckpt_at"])
        self.ev_pre = events.events - ev_launch
        t_ckpt = env.now
        with rec.span("phase.checkpoint", env):
            self.ckpt = env.run(until=env.process(
                session.checkpoint(intent="restart")))
        self.sim_ckpt_s = env.now - t_ckpt
        # power the partition off; the replacement gets new LIDs, qp
        # numbers and keys (a different child RNG stream by name)
        self.cluster.teardown()
        self.cluster2 = _lu_cluster(env, self.params, self.seed,
                                    "ledger-lu-restarted")
        t_restart = env.now
        with rec.span("phase.restart", env):
            self.session2 = env.run(until=env.process(
                dmtcp_restart(self.cluster2, self.ckpt)))
        self.sim_restart_s = env.now - t_restart
        ev_restart = events.events
        with rec.span("phase.run_post", env):
            self.results = env.run(
                until=env.process(self.session2.wait()))
        self.ev_post = events.events - ev_restart

    def check(self, wall_s: float, verify: bool) -> None:
        env, handoff = self.env, self.handoff
        self.check_results(self.results)
        self.attempted += 2     # the checkpoint and the restart
        self.expect(len(self.ckpt.records) == self.params["ranks"],
                    "checkpoint set is missing records")
        # Principle 6 needs in-flight sends/recvs at the cut: the
        # checkpoint must land strictly inside the iteration loop.
        # (run_pre also holds the wire-up, so this is stricter than
        # "a quarter of the loop's events")
        self.expect(handoff["loop_start"] < handoff["ckpt_at"]
                    < handoff["loop_end"]
                    and self.ev_post >= 0.25 * (self.ev_pre + self.ev_post),
                    f"checkpoint did not land mid-loop: {self.ev_pre} "
                    f"events before, {self.ev_post} after")
        self.expect(self.exact["checksum"]
                    == handoff["uninterrupted_checksum"],
                    "restarted checksum differs from the uninterrupted "
                    "DMTCP run")
        if verify:
            native = _lu_native_results(self.params, self.seed)
            self.expect(self.exact["checksum"] == native[0].checksum,
                        "restarted checksum differs from lu_native's")
        self.kernel_counters(env)
        self.exact["sim_ckpt_s"] = self.sim_ckpt_s
        self.exact["sim_restart_s"] = self.sim_restart_s
        self.exact["sim_runtime_s"] = \
            env.now - self.sim_ckpt_s - self.sim_restart_s
        self.exact["events_run_pre"] = self.ev_pre
        self.exact["events_run_post"] = self.ev_post
        plugin = {"wrapper_calls": 0, "drained_completions": 0,
                  "reposted_sends": 0, "reposted_recvs": 0}
        for proc in self.session2.procs:
            for plug in proc.plugins:
                if isinstance(plug, InfinibandPlugin):
                    for key in plugin:
                        plugin[key] += plug.stats[key]
        c = self.counters
        c["core.ib_plugin.wrapper_calls"] = plugin["wrapper_calls"]
        c["core.ib_plugin.drained_completions"] = \
            plugin["drained_completions"]
        c["core.ib_plugin.reposted_wqes"] = \
            plugin["reposted_sends"] + plugin["reposted_recvs"]
        fabrics = (self.cluster.fabric, self.cluster2.fabric)
        c["hardware.msgs"] = sum(f.messages_sent for f in fabrics)
        c["hardware.bytes"] = sum(f.bytes_sent for f in fabrics)
        c["dmtcp.image_mb_per_rank"] = \
            self.ckpt.total_logical_bytes / len(self.ckpt.records) / 1e6


# -- ckpt_store_churn ----------------------------------------------------------

class CkptStoreChurn(Workload):
    """Epoch 1 full gzip capture, ``epochs`` incremental captures of
    ~10%-dirty memory, one final full recapture; every image is put,
    replicated and garbage-collected under retention 2.  Then node 0
    fails and both retained epochs of every rank are fetched (first via
    the rank's own node, then via its neighbour), restored and compared
    byte for byte with what was captured."""

    #: a quarter of the regions get 40% of their chunks rewritten:
    #: 10% of all chunks dirty, three quarters of the regions clean
    DIRTY_REGIONS = 0.25
    DIRTY_CHUNKS = 0.40

    def __init__(self, params, seed, handoff):
        super().__init__(params, seed, handoff)
        rng = np.random.default_rng(seed)
        n_ranks, n_regions = params["ranks"], params["regions"]
        size = params["region_kib"] * 1024
        n_chunks = size // CHUNK_BYTES

        def noise(n):   # six random bits per byte: gzip saves about 25%
            return rng.integers(0, 64, n, dtype=np.uint8).tobytes()

        self.spaces = []
        for rank in range(n_ranks):
            memory = AddressSpace(f"p{rank}")
            for i in range(n_regions):
                memory.mmap(f"r{i:03d}", size, data=noise(size))
            self.spaces.append(memory)
        #: plan[epoch][rank] = [(region index, chunk index, bytes)]
        self.plan = []
        for _epoch in range(params["epochs"]):
            per_rank = []
            for _rank in range(n_ranks):
                writes = []
                regions = rng.choice(
                    n_regions, max(1, int(n_regions * self.DIRTY_REGIONS)),
                    replace=False)
                for ri in sorted(int(r) for r in regions):
                    chunks = rng.choice(
                        n_chunks, max(1, int(n_chunks * self.DIRTY_CHUNKS)),
                        replace=False)
                    writes.extend((ri, int(ci), noise(CHUNK_BYTES))
                                  for ci in sorted(chunks))
                per_rank.append(writes)
            self.plan.append(per_rank)
        self.env = Environment()
        self.cluster = Cluster(self.env, MGHPCC, n_nodes=n_ranks,
                               rng=RngFactory(seed), name="ledger-churn")
        self.store = CheckpointStore(self.cluster)

    def _run(self, gen):
        return self.env.run(until=self.env.process(gen))

    def body(self, rec: Recorder) -> None:
        env, store, params = self.env, self.store, self.params
        n_epochs = params["epochs"] + 2
        prev: List[Optional[CheckpointImage]] = [None] * len(self.spaces)
        #: snapshots[(rank, epoch)] = region bytes at capture time, for
        #: the retained epochs only
        self.snapshots = {}
        self.naive_bytes = 0.0
        self.incr_stats = {"regions_total": 0, "regions_clean": 0,
                           "chunks_total": 0, "chunks_dirty": 0}
        self.full_bytes = 0
        self.ops = {"capture": 0, "put": 0, "fetch": 0, "restore": 0}
        for epoch in range(1, n_epochs + 1):
            full = epoch in (1, n_epochs)
            for rank, memory in enumerate(self.spaces):
                if 1 < epoch < n_epochs:
                    regions = list(memory)
                    for ri, ci, data in self.plan[epoch - 2][rank]:
                        memory.write(regions[ri].addr + ci * CHUNK_BYTES,
                                     data)
                kind = "full" if full else "incr"
                with rec.span(f"dmtcp.capture_{kind}"):
                    image = CheckpointImage.capture(
                        f"p{rank}", 1000 + rank, MGHPCC.kernel_version,
                        MGHPCC.hca_vendor, memory, gzip=True,
                        prev=None if full else prev[rank])
                self.ops["capture"] += 1
                prev[rank] = image
                stats = image.capture_stats
                if full:
                    self.full_bytes += memory.total_bytes
                else:
                    self.incr_stats["regions_total"] += \
                        stats["regions_total"]
                    self.incr_stats["regions_clean"] += \
                        stats["regions_clean_gen"] \
                        + stats["regions_clean_hash"]
                    self.incr_stats["chunks_total"] += stats["chunks_total"]
                    self.incr_stats["chunks_dirty"] += stats["chunks_dirty"]
                self.naive_bytes += image.logical_size
                if epoch >= n_epochs - 1:
                    self.snapshots[(rank, epoch)] = [
                        bytes(region.buffer) for region in memory]
                with rec.span("store.put", env):
                    self._run(store.put_image(
                        rank=rank, node_index=rank, epoch=epoch,
                        image=image))
                self.ops["put"] += 1
            store.schedule_replication(epoch)
            with rec.span("store.replicate", env):
                self._run(store.drain_replication())
            with rec.span("store.gc", env):
                store.collect_garbage()

        self.cluster.nodes[0].fail()
        n = len(self.spaces)
        self.fetch_sim_s = []
        self.mismatches = 0
        for hop in (0, 1):
            for (rank, epoch), want in sorted(self.snapshots.items()):
                via = (rank + hop) % n
                if via == 0:
                    via = 1     # node 0 is down: restart next door
                t0 = env.now
                with rec.span("store.fetch", env):
                    image = self._run(store.fetch_image(
                        f"p{rank}", epoch=epoch, via_node_index=via))
                self.fetch_sim_s.append(env.now - t0)
                self.ops["fetch"] += 1
                fresh = AddressSpace(f"p{rank}")
                with rec.span("memory.restore"):
                    image.restore_memory(fresh)
                self.ops["restore"] += 1
                got = [bytes(region.buffer) for region in fresh]
                self.mismatches += got != want

    def check(self, wall_s: float, verify: bool) -> None:
        stats = self.store.stats
        self.attempted = sum(self.ops.values())
        self.expect(self.mismatches == 0,
                    f"{self.mismatches} restore(s) not bit-identical")
        self.expect(stats["hits_partner"] + stats["hits_lustre"] > 0,
                    "node failure never forced a replica read")
        self.kernel_counters(self.env)
        self.exact["sim_fetch_s"] = \
            sum(self.fetch_sim_s) / len(self.fetch_sim_s)
        self.exact["ckpt_write_ratio"] = \
            stats["bytes_written"] / self.naive_bytes
        self.exact["churn_sim_s"] = self.env.now
        incr = self.incr_stats
        c = self.counters
        c["dmtcp.regions_clean_ratio"] = \
            incr["regions_clean"] / incr["regions_total"]
        c["dmtcp.chunks_dirty_ratio"] = \
            incr["chunks_dirty"] / incr["chunks_total"]
        c["store.chunks_new"] = stats["chunks_new"]
        c["store.chunks_deduped"] = stats["chunks_deduped"]
        c["store.dedup_hit_ratio"] = stats["chunks_deduped"] / (
            stats["chunks_new"] + stats["chunks_deduped"])
        for tier in ("local", "partner", "lustre"):
            c[f"store.hits_{tier}"] = stats[f"hits_{tier}"]
        c["store.replicated_chunks"] = stats["replicated_chunks"]
        c["store.gc_chunks"] = stats["gc_chunks"]
        for key in ("store.chunks_new", "store.gc_chunks",
                    "store.hits_partner"):
            self.exact[key] = c[key]
        #: bytes the full captures walk, for dmtcp.capture_full_mb_per_s
        self.exact["capture_full_bytes"] = self.full_bytes


# -- service_stream ------------------------------------------------------------

class ServiceStream(Workload):
    """The ``bench_service`` mix: three tenants (``tiny`` quota-capped
    and non-preemptible), ml/lu/pingpong shapes at 2 ranks, 8 node slots,
    an open-loop seeded Poisson arrival stream at mean inter-arrival
    0.3 sim s — far above what 8 slots serve, so the queue grows for the
    whole stream and the makespan is service-bound."""

    CAPPED = "tiny"

    def __init__(self, params, seed, handoff):
        super().__init__(params, seed, handoff)
        self.kwargs = dict(
            seed=seed, n_jobs=params["jobs"], total_nodes=8, quantum=None,
            tenants=("acme", "umass", self.CAPPED),
            # 4 shapes against 3 tenants: coprime, so every tenant sees
            # every shape
            shapes=(("ml", "S"), ("lu", "A"), ("pingpong", "S"),
                    ("ml", "S")),
            quotas={self.CAPPED: 1.5e6},
            non_preemptible_tenants=(self.CAPPED,),
            mean_interarrival=0.3, iters_sim=2, ckpt_interval=1.0)

    def body(self, rec: Recorder) -> None:
        with rec.span("service.scenario"):
            self.run = service_scenario(**self.kwargs)

    def check(self, wall_s: float, verify: bool) -> None:
        run = self.run
        env, service, summary = run["env"], run["service"], run["summary"]
        outcomes = run["outcomes"]
        uncapped = [o for o in outcomes if o.tenant != self.CAPPED]
        uncapped_puts = sum(o.n_checkpoints * o.nprocs for o in uncapped)
        self.attempted = len(outcomes) + uncapped_puts
        self.expect(len(outcomes) == self.params["jobs"],
                    "job(s) never completed")
        for o in uncapped:
            self.expect(o.ok, f"{o.name} failed: {o.error}")
            self.expect(o.rejected_puts == 0,
                        f"{o.name}: uncapped tenant had a put rejected")
        for tenant, row in run["ledger"].items():
            slack = max(1.0, 1e-6 * row["bytes_admitted"])
            self.expect(abs(row["bytes_admitted"] - row["bytes_stored"]
                            - row["bytes_rejected"]) <= slack,
                        f"ledger of {tenant} does not balance")
        lats = sorted(service.put_latencies)
        self.expect(len(lats) >= 10, "too few puts for a percentile")

        def quantile(p):    # nearest rank, as the service reports p50/p99
            return lats[min(len(lats) - 1, int(p * (len(lats) - 1) + 0.5))]

        makespan = env.now - min(job.arrival for job in run["jobs"])
        self.kernel_counters(env)
        self.exact["sim_makespan_s"] = makespan
        self.exact["sim_put_p50_s"] = quantile(0.50)
        self.exact["sim_put_p95_s"] = quantile(0.95)
        self.exact["ckpt_write_ratio"] = summary["dedup_ratio"]
        # same-seed replay: every repeat must reproduce this digest
        self.exact["replay_digest"] = hashlib.sha256(json.dumps(
            [run["completion_order"], run["checksums"]],
            sort_keys=True).encode()).hexdigest()[:16]
        c = self.counters
        c["service.puts"] = summary["puts"]
        c["service.puts_rejected"] = summary["puts_rejected"]
        c["service.queued_sim_s"] = sum(o.wait_seconds for o in outcomes)
        c["service.jobs_per_wall_s"] = len(outcomes) / wall_s
        c["service.sim_ingest_mb_per_s"] = \
            summary["bytes_naive"] / 1e6 / makespan
        c["store.chunks_new"] = summary["chunks_new"]
        c["store.chunks_deduped"] = summary["chunks_deduped"]
        c["store.dedup_hit_ratio"] = summary["chunks_deduped"] / (
            summary["chunks_new"] + summary["chunks_deduped"])
        c["store.replicated_chunks"] = summary["replicated_chunks"]
        c["store.gc_chunks"] = summary["gc_chunks"]
        for key in ("service.puts", "service.puts_rejected"):
            self.exact[key] = c[key]


CLASSES = {"kernel_storm": KernelStorm, "lu_native": LuNative,
           "lu_ckpt_restart": LuCkptRestart,
           "ckpt_store_churn": CkptStoreChurn,
           "service_stream": ServiceStream}


# -- the worker ----------------------------------------------------------------

def run_worker(workload: str, params: dict, seed: int, mode: str,
               handoff: dict, t_spawn: float) -> dict:
    """One repeat in this interpreter.  ``mode``: ``plain`` (tracing
    off), ``verify`` (plain plus the costly cross-checks: the warm-up),
    ``spans`` (driver-call spans), ``profile`` (cProfile folded by
    layer) or ``obs`` (under the repo's own ``repro.obs`` tracer)."""
    verify = mode == "verify"
    wl = CLASSES[workload](params, seed, handoff)
    rec = Recorder(enabled=mode == "spans")
    row: Dict[str, object] = {"workload": workload, "mode": mode,
                              "seed": seed}
    profiler = cProfile.Profile() if mode == "profile" else None
    observer = nullcontext()
    if mode == "obs":
        from repro.obs import decompose, traced
        observer = traced(capacity=1 << 22)
    with observer as tracer:
        row["setup_s"] = time.time() - t_spawn
        cpu0, t0 = time.process_time(), time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            wl.body(rec)
        finally:
            if profiler is not None:
                profiler.disable()
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0

    wl.check(wall_s, verify)
    row.update(wall_s=wall_s, cpu_s=cpu_s, exact=wl.exact,
               counters=wl.counters, attempted=wl.attempted,
               failures=wl.failures, handoff=wl.handoff)
    if mode == "spans":
        row["spans"] = rec.spans
        row["span_totals"] = rec.totals()
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        layers, calls = fold_profile(stats)
        row["layers"] = layers
        row["calls"] = {k: v for k, v in calls.items()
                        if k.startswith("ibverbs:_drv_")}
        top = sorted(stats.items(), key=lambda kv: -kv[1][2])[:40]
        row["top_functions"] = [
            {"function": f"{f[0]}:{f[1]}:{f[2]}", "self_s": s[2],
             "calls": s[1]} for f, s in top]
    if tracer is not None:
        decomp = decompose(tracer.events)
        phases = {r["phase"]: r["seconds"] for r in decomp["phases"]}
        row["simphase"] = {f"simphase.{p}_s": phases[p] for p in SIMPHASES}
        row["simphase"]["simphase.coverage"] = decomp["coverage"]
        row["tracer_dropped"] = tracer.dropped
    row["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row
