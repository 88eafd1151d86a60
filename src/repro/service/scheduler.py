"""A gang scheduler driving a Poisson stream of jobs at the service.

:class:`GangScheduler` is the "hundreds of jobs" driver: jobs arrive on
a seeded Poisson stream, queue FIFO for a fixed pool of node slots, and
each grant launches a *real* workload (LU / FT / ML / ping-pong)
through ``dmtcp_launch`` on a fresh per-job cluster with ``sink=``
pointed at the shared :class:`~.service.CheckpointService`.  Granted
jobs checkpoint on their own interval; when the queue backs up past the
quantum, the scheduler preempts the longest-running preemptible job
**via the checkpoint mechanism itself**:

    ``service.preempt`` B → ``session.checkpoint(intent="restart")``
    (the gang quiesces and freezes, ``service.quiesce``) → teardown and
    slot release (``service.reclaim``) → ``service.preempt`` E

On re-grant the job revives through ``dmtcp_restart`` from the frozen
continuations — bit-identical to a never-preempted run (the acceptance
gate ``bench_service.py`` enforces).  The quiesce-before-reclaim order
is a trace invariant (:mod:`repro.obs.invariants`).

Everything is deterministic under a fixed seed: arrivals come from a
named :class:`~repro.sim.RngFactory` stream, queueing is FIFO, and
victim selection is by (start time, name) — same seed, same completion
order, same checksums.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Sequence

import numpy as np

from .. import hooks
from ..apps.ml import ml_app
from ..apps.nas import ft_app, lu_app
from ..core import InfinibandPlugin
from ..dmtcp.config import RunConfig
from ..dmtcp.launcher import JobTracker, dmtcp_launch, dmtcp_restart
from ..faults.progress import ChaosProgress, chaos_sync
from ..faults.recovery import ChaosGate, ChaosPlugin, _safe
from ..apps.nas.common import NasResult, alloc_scaled
from ..hardware.cluster import BUFFALO_CCR, MGHPCC, Cluster, HardwareSpec
from ..mpi import make_mpi_specs
from ..sim import Environment, RngFactory
from ..store.store import StoreConfig
from .service import CheckpointService

__all__ = ["GangScheduler", "JobOutcome", "ServiceJob", "WORKLOADS",
           "job_mix", "poisson_arrivals", "pingpong_mpi_app",
           "service_scenario"]

TAG_PP = 95

#: every service job's run config: incremental, so each checkpoint
#: after a job's first recaptures only the chunks it dirtied
_RUN = RunConfig(incremental=True)


def pingpong_mpi_app(ctx, comm, klass: str = "S",
                     iters_sim: int = 0) -> Generator:
    """The OFED-style latency pair as an MPI workload: even ranks volley
    with their odd neighbour.  Tiny state, short runtime — the light end
    of the service's workload mix.  Speaks the progress protocol like
    the other kernels."""
    iters = iters_sim or 8
    progress = ChaosProgress.attach(ctx)
    start = progress.next_iter
    buf = alloc_scaled(ctx, f"{ctx.name}.pp.buf", float(1 << 20))
    v = buf.view(dtype=np.float64)
    if start == 0:
        v[:] = np.arange(len(v), dtype=np.float64) * (1.0 + comm.rank)
    peer = comm.rank ^ 1
    if peer >= comm.size:
        peer = None
    half = (len(v) // 2) * 8
    for _it in range(start, iters):
        if peer is not None:
            if comm.rank % 2 == 0:
                yield comm.isend(buf, 0, half, dest=peer, tag=TAG_PP)
                yield comm.irecv(buf, half, half, source=peer,
                                 tag=TAG_PP + 1)
            else:
                yield comm.irecv(buf, half, half, source=peer, tag=TAG_PP)
                yield comm.isend(buf, 0, half, dest=peer, tag=TAG_PP + 1)
        yield ctx.compute(seconds=5e-4)
        v[0] = (v[0] * 1.000001 + _it) % 97.0
        progress.mark(_it + 1)
        yield from chaos_sync(ctx, comm)
    checksum = yield from comm.allreduce_obj(float(np.abs(v).sum()),
                                             lambda a, b: a + b)
    return NasResult(benchmark="PP", klass=klass, rank=comm.rank,
                     nprocs=comm.size, t_init=0.0, loop_seconds=0.0,
                     iters_sim=iters, iterations=iters, checksum=checksum)


#: the workload shapes the service mixes (ISSUE: LU/FT/pingpong + ML)
WORKLOADS = {
    "lu": lu_app,
    "ft": ft_app,
    "ml": ml_app,
    "pingpong": pingpong_mpi_app,
}


@dataclass
class ServiceJob:
    """One gang-scheduled job in the arrival stream."""

    name: str
    tenant: str
    workload: str = "lu"        # key into WORKLOADS
    klass: str = "A"
    nprocs: int = 2
    ppn: int = 1
    iters_sim: int = 2
    arrival: float = 0.0        # sim seconds
    ckpt_interval: float = 0.0  # 0 = no interval checkpoints
    #: quota-capped tenants' jobs must not be preempted — a rejected
    #: preemption checkpoint would leave nothing to restart from
    preemptible: bool = True

    @property
    def n_nodes(self) -> int:
        return -(-self.nprocs // self.ppn)


@dataclass
class JobOutcome:
    """How one job went through the service."""

    name: str
    tenant: str
    workload: str
    klass: str
    nprocs: int
    arrival: float
    t_started: float = 0.0
    t_done: float = 0.0
    wait_seconds: float = 0.0   # total time spent queued (incl. re-queues)
    checksum: float = 0.0
    n_checkpoints: int = 0
    n_preemptions: int = 0
    rejected_puts: int = 0
    ok: bool = True
    error: str = ""


def poisson_arrivals(rng: RngFactory, n_jobs: int,
                     mean_interarrival: float,
                     name: str = "service/arrivals") -> List[float]:
    """Seeded Poisson arrival times (cumulative exponential gaps)."""
    gaps = rng.stream(name).exponential(mean_interarrival, size=n_jobs)
    return [float(t) for t in np.cumsum(gaps)]


def job_mix(rng: RngFactory, n_jobs: int, tenants: Sequence[str],
            mean_interarrival: float = 1.0,
            shapes: Sequence[tuple] = (("ml", "S"), ("lu", "A"),
                                       ("pingpong", "S")),
            nprocs: int = 2, iters_sim: int = 2,
            ckpt_interval: float = 1.0,
            non_preemptible_tenants: Sequence[str] = ()
            ) -> List[ServiceJob]:
    """A deterministic mixed-shape job stream: workloads and tenants
    cycle round-robin over the seeded arrival times."""
    arrivals = poisson_arrivals(rng, n_jobs, mean_interarrival)
    jobs = []
    for i, arrival in enumerate(arrivals):
        workload, klass = shapes[i % len(shapes)]
        tenant = tenants[i % len(tenants)]
        jobs.append(ServiceJob(
            name=f"job{i:03d}", tenant=tenant, workload=workload,
            klass=klass, nprocs=nprocs, iters_sim=iters_sim,
            arrival=arrival, ckpt_interval=ckpt_interval,
            preemptible=tenant not in tuple(non_preemptible_tenants)))
    return jobs


class _JobRun:
    """Scheduler-internal state for one job across grants."""

    __slots__ = ("job", "outcome", "ckpt_set", "preempt", "grant",
                 "t_granted", "t_enqueued", "started", "preempting",
                 "gate")

    def __init__(self, job: ServiceJob, t_enqueued: float):
        self.job = job
        self.outcome = JobOutcome(
            name=job.name, tenant=job.tenant, workload=job.workload,
            klass=job.klass, nprocs=job.nprocs, arrival=job.arrival)
        self.ckpt_set = None
        self.preempt = None
        self.grant = None
        self.t_granted = 0.0
        self.t_enqueued = t_enqueued
        self.started = False
        self.preempting = False
        self.gate = None


class GangScheduler:
    """FIFO gang scheduling over a node-slot pool (see module docstring)."""

    def __init__(self, env: Environment, service: CheckpointService,
                 rng: RngFactory,
                 spec: HardwareSpec = BUFFALO_CCR,
                 total_nodes: int = 8,
                 quantum: Optional[float] = None):
        self.env = env
        self.service = service
        self.rng = rng
        self.spec = spec
        self.total_nodes = int(total_nodes)
        #: minimum granted runtime before a job becomes a preemption
        #: victim; None disables preemption entirely
        self.quantum = quantum
        self._free = self.total_nodes
        self._queue: Deque[_JobRun] = deque()
        self._running: Dict[str, _JobRun] = {}
        self._completed: List[JobOutcome] = []
        self._wake = None
        self._n_jobs = 0
        self._cluster_seq = 0

    # -- plumbing -------------------------------------------------------------

    def _wake_up(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _app_for(self, job: ServiceJob):
        fn = WORKLOADS[job.workload]

        def app(ctx, comm):
            return fn(ctx, comm, klass=job.klass, iters_sim=job.iters_sim)

        return app

    def _emit(self, kind: str, who: str, **attrs) -> None:
        if hooks.tracer is not None:
            hooks.tracer.emit(kind, who, self.env.now, **attrs)

    # -- the scheduling loop ---------------------------------------------------

    def run(self, jobs: Sequence[ServiceJob]) -> Generator:
        """Process generator: feed ``jobs`` through the slot pool; returns
        the :class:`JobOutcome` list **in completion order** (the
        fixed-seed determinism witness)."""
        env = self.env
        jobs = sorted(jobs, key=lambda j: (j.arrival, j.name))
        for job in jobs:
            if job.n_nodes > self.total_nodes:
                raise ValueError(f"{job.name}: needs {job.n_nodes} nodes, "
                                 f"pool has {self.total_nodes}")
        self._n_jobs = len(jobs)

        def feeder() -> Generator:
            for job in jobs:
                delay = job.arrival - env.now
                if delay > 0:
                    yield env.timeout(delay)
                run = _JobRun(job, env.now)
                self._queue.append(run)
                self._emit("service.arrive", job.name, job=job.name,
                           tenant=job.tenant, workload=job.workload,
                           nodes=job.n_nodes)
                self._wake_up()

        env.process(feeder(), name="service.sched.arrivals")
        while len(self._completed) < self._n_jobs:
            self._dispatch()
            self._maybe_preempt()
            self._wake = env.event()
            yield self._wake
        return list(self._completed)

    def _dispatch(self) -> None:
        """Grant the queue head while it fits (FIFO gang scheduling —
        honest head-of-line blocking, no backfilling)."""
        while self._queue and self._queue[0].job.n_nodes <= self._free:
            run = self._queue.popleft()
            job = run.job
            self._free -= job.n_nodes
            run.t_granted = self.env.now
            run.outcome.wait_seconds += self.env.now - run.t_enqueued
            self._running[job.name] = run
            self._emit("service.grant", job.name, job=job.name,
                       tenant=job.tenant, nodes=job.n_nodes,
                       restart=run.started)
            if not run.started:
                run.started = True
                run.outcome.t_started = self.env.now
                self.env.process(_safe(self._run_job(run)),
                                 name=f"service.sched.{job.name}")
            else:
                grant, run.grant = run.grant, None
                grant.succeed()

    def _maybe_preempt(self) -> None:
        """Queue backed up and the head doesn't fit: preempt the oldest
        preemptible job that has held its gang past the quantum."""
        if self.quantum is None or not self._queue:
            return
        head = self._queue[0]
        if head.job.n_nodes <= self._free:
            return
        victims = [run for run in self._running.values()
                   if run.job.preemptible and not run.preempting
                   and self.env.now - run.t_granted >= self.quantum]
        victims.sort(key=lambda r: (r.t_granted, r.job.name))
        for victim in victims:
            if self._free + victim.job.n_nodes >= head.job.n_nodes:
                victim.preempting = True
                if victim.preempt is not None \
                        and not victim.preempt.triggered:
                    victim.preempt.succeed()
                return

    # -- one job's lifecycle ---------------------------------------------------

    def _run_job(self, run: _JobRun) -> Generator:
        env = self.env
        job = run.job
        tracer = hooks.tracer
        generation = 0
        while True:
            generation += 1
            self._cluster_seq += 1
            cluster = Cluster(env, self.spec, n_nodes=job.n_nodes,
                              rng=self.rng,
                              name=f"svc.{job.name}.g{generation}")
            client = self.service.client(job.tenant, job.name)
            tracker = JobTracker()
            run.preempt = env.event()
            run.preempting = False
            # checkpoints happen only at ChaosGate park points: a freeze
            # during the TCP wire-up (PLM registration, lazy QP id
            # exchange) is not restartable — raw sockets are not in the
            # image — so every cut waits for the ranks to park at an
            # iteration boundary, exactly like RecoveryManager
            if run.gate is None:
                run.gate = ChaosGate(env, world=job.nprocs)
            gate = run.gate
            specs = make_mpi_specs(cluster, job.nprocs,
                                   self._app_for(job), ppn=job.ppn,
                                   name_prefix=job.name)
            if run.ckpt_set is None:
                gate.reset()
                launch_gen = dmtcp_launch(
                    cluster, specs,
                    plugin_factory=lambda: [InfinibandPlugin(),
                                            ChaosPlugin(gate)],
                    config=_RUN, tracker=tracker, sink=client)
            else:
                launch_gen = dmtcp_restart(
                    cluster, run.ckpt_set, tracker=tracker, sink=client,
                    stage_images=False)
            launch = env.process(_safe(launch_gen),
                                 name=f"service.up.{job.name}.g{generation}")
            yield launch
            status, value = launch.value
            if status == "error":
                self._finish(run, cluster, tracker, ok=False,
                             error=f"bring-up: {value!r}")
                return run.outcome
            session = value
            if run.ckpt_set is not None:
                # the revived ranks resume inside gate.park() from the
                # preemption cut; lower the flag to let them run
                gate.release()

            done_evt = env.all_of([p.appctx.done for p in session.procs])
            preempted = False
            while True:
                waits = [done_evt, run.preempt]
                timer = None
                if job.ckpt_interval > 0:
                    timer = env.timeout(job.ckpt_interval)
                    waits.append(timer)
                yield env.any_of(waits)
                if done_evt.triggered:
                    break
                # interval expired or preemption requested: either way the
                # next step is an iteration-consistent parked cut
                all_parked = gate.request()
                yield env.any_of([all_parked, done_evt])
                if done_evt.triggered and not all_parked.triggered:
                    gate.release()  # finished before parking
                    break
                if run.preempt.triggered:
                    preempted = True  # gate stays up: freeze while parked
                    break
                ckpt = env.process(
                    _safe(session.checkpoint(intent="resume")),
                    name=f"service.ckpt.{job.name}")
                yield ckpt
                ok, cval = ckpt.value
                if ok == "error":
                    gate.release()
                    self._finish(run, cluster, tracker, ok=False,
                                 error=f"checkpoint: {cval!r}")
                    return run.outcome
                run.outcome.n_checkpoints += 1
                gate.release()

            if not preempted:
                results = [p.appctx.done.value for p in session.procs]
                run.outcome.checksum = float(results[0].checksum)
                self._finish(run, cluster, tracker, ok=True)
                return run.outcome

            # -- preemption via checkpoint (the protocol the
            # preempt-quiesce-before-reclaim invariant watches) ------------
            span = None if tracer is None else tracer.begin(
                "service.preempt", job.name, env.now, job=job.name,
                tenant=job.tenant, generation=generation)
            ckpt = env.process(
                _safe(session.checkpoint(intent="restart")),
                name=f"service.preempt.{job.name}")
            yield ckpt
            ok, cval = ckpt.value
            if ok == "error":
                if tracer is not None:
                    tracer.end(span, env.now, ok=False)
                self._finish(run, cluster, tracker, ok=False,
                             error=f"preempt-ckpt: {cval!r}")
                return run.outcome
            run.ckpt_set = cval
            run.outcome.n_preemptions += 1
            run.outcome.n_checkpoints += 1
            self._emit("service.quiesce", job.name, job=job.name,
                       ranks=len(session.procs))
            tracker.kill_all()
            cluster.teardown()
            self._free += job.n_nodes
            del self._running[job.name]
            self._emit("service.reclaim", job.name, job=job.name,
                       nodes=job.n_nodes)
            if tracer is not None:
                tracer.end(span, env.now, ok=True)
            # back of the queue; wait for the re-grant
            run.grant = env.event()
            run.t_enqueued = env.now
            self._queue.append(run)
            self._wake_up()
            yield run.grant

    def _finish(self, run: _JobRun, cluster: Cluster,
                tracker: JobTracker, ok: bool, error: str = "") -> None:
        tracker.close()
        cluster.teardown()
        self._free += run.job.n_nodes
        self._running.pop(run.job.name, None)
        run.outcome.ok = ok
        run.outcome.error = error
        run.outcome.t_done = self.env.now
        run.outcome.rejected_puts = \
            self.service.admission.job_rejections.get(run.job.name, 0)
        self._completed.append(run.outcome)
        self._emit("service.done", run.job.name, job=run.job.name,
                   tenant=run.job.tenant, ok=ok,
                   preemptions=run.outcome.n_preemptions)
        self._wake_up()


def service_scenario(seed: int = 2014, n_jobs: int = 6,
                     total_nodes: int = 4,
                     quantum: Optional[float] = None,
                     tenants: Sequence[str] = ("acme", "umass"),
                     quotas: Optional[Dict[str, float]] = None,
                     mean_interarrival: float = 0.5,
                     nprocs: int = 2, iters_sim: int = 2,
                     ckpt_interval: float = 1.0,
                     shapes: Sequence[tuple] = (("ml", "S"), ("lu", "A"),
                                                ("pingpong", "S")),
                     n_shards: int = 8,
                     max_inflight_bytes: Optional[float] = None,
                     service_nodes: int = 2,
                     spec: HardwareSpec = BUFFALO_CCR,
                     retention: int = 2,
                     non_preemptible_tenants: Sequence[str] = ()
                     ) -> Dict[str, object]:
    """One self-contained service run: shared :class:`CheckpointService`
    on its own MGHPCC-shaped cluster, a :class:`GangScheduler` over
    ``total_nodes`` slots, and a seeded ``job_mix`` arrival stream.  The
    entry point ``repro.obs report --service``, ``bench_service.py``,
    and the tests all drive.

    Fully deterministic under ``seed``: same completion order, same
    checksums, same ledger.
    """
    env = Environment()
    rng = RngFactory(seed)
    svc_cluster = Cluster(env, MGHPCC, n_nodes=service_nodes, rng=rng,
                          name="svcstore")
    service = CheckpointService(
        svc_cluster, config=StoreConfig(retention=retention),
        n_shards=n_shards, quotas=quotas,
        max_inflight_bytes=max_inflight_bytes)
    sched = GangScheduler(env, service, rng, spec=spec,
                          total_nodes=total_nodes, quantum=quantum)
    jobs = job_mix(rng, n_jobs, tenants,
                   mean_interarrival=mean_interarrival, shapes=shapes,
                   nprocs=nprocs, iters_sim=iters_sim,
                   ckpt_interval=ckpt_interval,
                   non_preemptible_tenants=non_preemptible_tenants)

    def main() -> Generator:
        outcomes = yield from sched.run(jobs)
        ledger = yield from service.shutdown()
        return outcomes, ledger

    outcomes, ledger = env.run(until=env.process(main(),
                                                 name="service.scenario"))
    return {
        "env": env,
        "service": service,
        "scheduler": sched,
        "jobs": jobs,
        "outcomes": outcomes,
        "ledger": ledger,
        "summary": service.summary(),
        "completion_order": [o.name for o in outcomes],
        "checksums": {o.name: o.checksum for o in outcomes},
    }
