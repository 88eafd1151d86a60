"""Coordinated checkpointing under chaos, and restart recovery.

Two mechanisms live here:

**ChaosGate** — the consistency protocol for checkpoints that must survive
a *crash* (not just a planned freeze).  A generator cannot be copied, so
an intent="resume" image's continuation keeps advancing after capture and
cannot be rewound; recovery instead re-runs the application factories
against the restored memory (see :mod:`.progress`).  For that to be
correct the image must be captured at an iteration-consistent global cut:
the gate raises a request flag, every rank folds its local view of the
flag into an OR-allreduce at the end of each iteration (so a flag raised
mid-round still produces one global verdict), and on a positive verdict
all ranks park at the end of the *same* iteration.  The checkpoint then
captures memory in which every rank's progress counter agrees.

**RecoveryManager** — the supervisor loop: launch the job, checkpoint it
through the gate on a fixed interval, and when the injector reports a
fatal failure, tear the generation down, back off exponentially, and
restart from the last checkpoint (:func:`chaos_restart`) on a fresh
cluster — new LIDs, new qp_nums, new pids, restored memory.  Repeated
failures without a new checkpoint eventually raise :class:`RecoveryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from .. import hooks
from ..dmtcp.config import RunConfig
from ..dmtcp.launcher import (
    AppSpec,
    CheckpointSet,
    DmtcpSession,
    JobTracker,
    _build_job,
    _rerun,
    dmtcp_launch,
)
from ..dmtcp.plugin import Plugin
from ..dmtcp.sink import FileSink
from ..hardware.cluster import Cluster
from ..sim import Environment, Event
from .injector import Injector

__all__ = [
    "ChaosGate",
    "ChaosPlugin",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryOutcome",
    "TimelineEvent",
    "chaos_restart",
]


class RecoveryError(RuntimeError):
    """Recovery gave up (retry limit exhausted).  Carries the partial
    :class:`RecoveryOutcome` as ``.outcome``."""

    def __init__(self, message: str, outcome: "RecoveryOutcome"):
        super().__init__(message)
        self.outcome = outcome


class ChaosGate:
    """The iteration-boundary parking protocol (see module docstring)."""

    def __init__(self, env: Environment, world: int = 0):
        self.env = env
        self.world = world
        self.requested = False
        self._parked = 0
        self._all_parked: Optional[Event] = None
        self._release: Optional[Event] = None

    def reset(self) -> None:
        """Forget any in-flight request (failure cleanup / new generation)."""
        self.requested = False
        self._parked = 0
        self._all_parked = None
        self._release = None

    def request(self) -> Event:
        """Ask every rank to park at its next iteration boundary; returns
        the event that fires once all ``world`` ranks are parked."""
        self.requested = True
        self._parked = 0
        self._all_parked = self.env.event()
        self._release = self.env.event()
        return self._all_parked

    def park(self) -> Generator:
        """Called by each rank (via :func:`.progress.chaos_sync`) after a
        positive verdict: block until the supervisor releases the gate."""
        release = self._release
        if release is None:
            return  # stale verdict: the request was withdrawn
        self._parked += 1
        if self._parked >= self.world and not self._all_parked.triggered:
            self._all_parked.succeed()
        yield release

    def release(self) -> None:
        """Lower the flag and resume every parked rank."""
        self.requested = False
        release, self._release = self._release, None
        self._all_parked = None
        self._parked = 0
        if release is not None and not release.triggered:
            release.succeed()


class ChaosPlugin(Plugin):
    """Hands the gate to the application context at install time — before
    the app's first iteration, so every rank agrees the gate exists (the
    per-iteration allreduce must run on all ranks or none)."""

    name = "chaos-gate"

    def __init__(self, gate: ChaosGate):
        super().__init__()
        self.gate = gate

    def install(self, appctx) -> None:
        super().install(appctx)
        appctx.chaos_gate = self.gate


def _safe(gen: Generator) -> Generator:
    """Run ``gen``, converting exceptions into a ('error', exc) return so a
    supervised sub-flow's death never fails an unwatched process event."""
    try:
        value = yield from gen
        return ("ok", value)
    except Exception as exc:
        return ("error", exc)


def chaos_restart(cluster: Cluster, ckpt_set: CheckpointSet,
                  specs: List[AppSpec],
                  plugin_factory: Callable[[], list] = lambda: [],
                  coord_node_index: int = 0,
                  tracker: Optional[JobTracker] = None,
                  generation: int = 1, sink=None) -> Generator:
    """Process generator: restart after a *crash* from a resume-intent
    checkpoint.

    Unlike :func:`~repro.dmtcp.launcher.dmtcp_restart` (which revives the
    frozen continuations of an intent="restart" freeze), the crashed job's
    generators are gone; this path stages the images to the new cluster,
    restores each image's memory into a fresh process, and re-runs the
    application factory — which must speak the :mod:`.progress` protocol to
    skip completed work.  Fresh plugins, fresh verbs resources, new real
    ids throughout, under the job's launch config.  The images are staged
    into and fetched from ``sink`` (by default, image files where the
    records were written).
    """
    if sink is None:
        sink = FileSink.where_written(cluster, ckpt_set)
    sink.stage_from(ckpt_set)
    rerun = _rerun(specs, len(ckpt_set.records), sink=sink,
                   plugin_factory=plugin_factory, config=ckpt_set.config,
                   generation=generation)
    return (yield from _build_job(
        cluster, ckpt_set.records, rerun, "chaos-restart", sink=sink,
        config=ckpt_set.config, coord_node_index=coord_node_index,
        tracker=tracker))


@dataclass
class RecoveryConfig:
    """Knobs of the supervisor loop."""

    ckpt_interval: float             # seconds between coordinated ckpts
    #: the job's run config; its ``sink_factory`` builds each
    #: generation's checkpoint sink from its cluster (DESIGN.md §15):
    #: image files by default; ``CheckpointStore`` for a fresh
    #: content-addressed store per generation, re-staged from the last
    #: CheckpointSet; or ``lambda c: service.client(tenant, job)`` to
    #: checkpoint into a shared long-lived service
    run: RunConfig = RunConfig()
    #: consecutive failures *without a new checkpoint* before giving up
    max_attempts: int = 5
    backoff_base: float = 2.0        # first retry delay (seconds)
    backoff_factor: float = 2.0      # growth per consecutive failure
    backoff_max: float = 60.0
    #: relative jitter on each backoff delay (0.1 = ±10%), drawn from the
    #: manager's seeded ``faults/`` RNG stream so chaos runs with retries
    #: stay bit-identical across reruns; 0.0 keeps delays exact
    backoff_jitter: float = 0.0


@dataclass
class TimelineEvent:
    t: float
    kind: str      # launch/restart/checkpoint/failure/backoff/done/give-up
    detail: str


@dataclass
class RecoveryOutcome:
    """What a chaos run cost, and how it went."""

    results: List[Any] = field(default_factory=list)
    completion_seconds: float = 0.0
    generations: int = 0             # 1 = never failed
    n_checkpoints: int = 0
    n_failures: int = 0
    n_restarts: int = 0
    ckpt_overhead: float = 0.0       # total wall seconds inside checkpoints
    restart_overhead: float = 0.0    # total wall seconds restoring
    lost_work: float = 0.0           # work redone: failure minus last capture
    backoff_seconds: float = 0.0
    #: generations killed by a structured storage-quota overflow
    #: (surfaced as timeline kind="quota" with tier/tenant/byte detail)
    quota_failures: int = 0
    timeline: List[TimelineEvent] = field(default_factory=list)

    @property
    def mean_ckpt_seconds(self) -> float:
        return self.ckpt_overhead / max(1, self.n_checkpoints)


class RecoveryManager:
    """Supervises one job across failures (see module docstring).

    ``cluster_factory(tag)`` builds a fresh cluster per generation (fresh
    LID base, fresh ports — recovery never reuses a possibly-degraded
    partition); ``specs_for(cluster)`` rebuilds the AppSpecs against it
    (rank-0 placement and hostnames are cluster-specific).
    """

    def __init__(self, env: Environment,
                 cluster_factory: Callable[[str], Cluster],
                 specs_for: Callable[[Cluster], List[AppSpec]],
                 config: RecoveryConfig,
                 plugin_factory: Callable[[], list] = lambda: [],
                 injector: Optional[Injector] = None,
                 name: str = "chaos", rng=None):
        self.env = env
        self.cluster_factory = cluster_factory
        self.specs_for = specs_for
        self.config = config
        self.plugin_factory = plugin_factory
        self.injector = injector
        self.name = name
        #: seeded RngFactory for the backoff jitter draws; with no rng (or
        #: backoff_jitter=0.0) every delay is exact and draw-free
        self.rng = rng
        self._backoff_stream = None
        self.gate = ChaosGate(env)

    # -- bookkeeping -----------------------------------------------------------

    def _mark(self, outcome: Optional[RecoveryOutcome], kind: str,
              detail: str) -> None:
        if outcome is not None:
            outcome.timeline.append(
                TimelineEvent(t=self.env.now, kind=kind, detail=detail))
        if hooks.tracer is not None:
            hooks.tracer.emit(f"harness.{kind}", self.name, self.env.now,
                              detail=detail)

    def _mark_error(self, outcome: Optional[RecoveryOutcome], where: str,
                    exc: BaseException) -> None:
        """Surface a generation-killing exception.  A structured
        :class:`~repro.hardware.storage.QuotaExceededError` gets its own
        timeline kind (``quota``) carrying tier name, requested/available
        bytes, and tenant — not a bare repr — so sweeps and reports can
        aggregate storage saturation separately from crashes."""
        from ..hardware.storage import QuotaExceededError
        if isinstance(exc, QuotaExceededError):
            if outcome is not None:
                outcome.quota_failures += 1
            who = f" tenant={exc.tenant}" if exc.tenant else ""
            self._mark(outcome, "quota",
                       f"{where}: tier={exc.fs_name}{who} "
                       f"requested={exc.requested:.0f} "
                       f"available={exc.available:.0f} "
                       f"capacity={exc.capacity:.0f}")
        else:
            self._mark(outcome, "failure", f"{where}: {exc!r}")

    def _backoff(self, consecutive_failures: int) -> float:
        """The k-th consecutive retry's delay: capped exponential, with
        optional relative jitter drawn from the reserved ``faults/`` RNG
        namespace — a named stream, so enabling jitter never perturbs the
        injector's (or anything else's) draws, and same-seed chaos runs
        with retries stay bit-identical."""
        cfg = self.config
        backoff = min(
            cfg.backoff_max,
            cfg.backoff_base
            * cfg.backoff_factor ** (consecutive_failures - 1))
        if cfg.backoff_jitter > 0.0 and self.rng is not None:
            if self._backoff_stream is None:
                self._backoff_stream = self.rng.fault_stream(
                    f"recovery/{self.name}/backoff")
            backoff *= 1.0 + cfg.backoff_jitter \
                * float(self._backoff_stream.uniform(-1.0, 1.0))
        return backoff

    def _plugins(self) -> list:
        return list(self.plugin_factory()) + [ChaosPlugin(self.gate)]

    # -- the supervisor loop -----------------------------------------------------

    def run(self) -> Generator:
        """Process generator: run the job to completion through failures;
        returns a :class:`RecoveryOutcome` (or raises RecoveryError)."""
        env = self.env
        cfg = self.config
        outcome = RecoveryOutcome()
        t_job_start = env.now
        ckpt_set: Optional[CheckpointSet] = None
        t_last_capture = env.now
        consecutive_failures = 0
        generation = 0

        while True:
            generation += 1
            outcome.generations = generation
            cluster = self.cluster_factory(f"g{generation}")
            specs = self.specs_for(cluster)
            self.gate.world = len(specs)
            self.gate.reset()
            # a fresh sink per generation: the old cluster's disks died
            # with it, and stage_from rebuilds them from the surviving
            # CheckpointSet (a service client is a fresh epoch base over
            # storage that outlives generations)
            sink = cfg.run.sink_factory(cluster)
            tracker = JobTracker()
            fail_evt = self.injector.arm() if self.injector is not None \
                else env.event()
            if self.injector is not None:
                self.injector.set_target(cluster)

            t_gen_start = env.now
            if ckpt_set is None:
                self._mark(outcome, "launch", f"generation {generation}")
                launch_gen = dmtcp_launch(
                    cluster, specs, plugin_factory=self._plugins,
                    config=cfg.run, tracker=tracker, sink=sink)
            else:
                self._mark(outcome, "restart",
                           f"generation {generation} from checkpoint at "
                           f"t={t_last_capture:.3f}")
                launch_gen = chaos_restart(
                    cluster, ckpt_set, specs, plugin_factory=self._plugins,
                    tracker=tracker, generation=generation, sink=sink)
            launch_proc = env.process(
                _safe(launch_gen), name=f"{self.name}.up.g{generation}")

            session: Optional[DmtcpSession] = None
            status = None
            yield env.any_of([launch_proc, fail_evt])
            if fail_evt.triggered:
                status = "failed"
            elif launch_proc.value[0] == "error":
                status = "failed"
                self._mark_error(outcome, "bring-up error",
                                 launch_proc.value[1])
            else:
                session = launch_proc.value[1]
                if ckpt_set is not None:
                    outcome.n_restarts += 1
                    outcome.restart_overhead += env.now - t_gen_start

            if session is not None:
                done_evt = env.all_of(
                    [p.appctx.done for p in session.procs])
                while True:
                    timer = env.timeout(cfg.ckpt_interval)
                    yield env.any_of([timer, done_evt, fail_evt])
                    if fail_evt.triggered:
                        status = "failed"
                        break
                    if done_evt.triggered:
                        status = "done"
                        break
                    # interval expired: coordinated checkpoint through the
                    # gate, racing the next failure the whole way
                    all_parked = self.gate.request()
                    yield env.any_of([all_parked, done_evt, fail_evt])
                    if fail_evt.triggered:
                        status = "failed"
                        break
                    if done_evt.triggered and not all_parked.triggered:
                        self.gate.release()  # finished before parking
                        status = "done"
                        break
                    ckpt_proc = env.process(
                        _safe(session.checkpoint(intent="resume")),
                        name=f"{self.name}.ckpt")
                    yield env.any_of([ckpt_proc, fail_evt])
                    if not ckpt_proc.triggered:
                        ckpt_proc.kill()  # died mid-checkpoint
                        status = "failed"
                        break
                    ok, value = ckpt_proc.value
                    if ok == "error":
                        status = "failed"
                        self._mark_error(outcome, "checkpoint error", value)
                        break
                    ckpt_set = value
                    t_last_capture = env.now
                    consecutive_failures = 0
                    outcome.n_checkpoints += 1
                    outcome.ckpt_overhead += value.wall_seconds
                    self._mark(outcome, "checkpoint",
                               f"#{outcome.n_checkpoints} in "
                               f"{value.wall_seconds:.3f}s")
                    self.gate.release()
                    if fail_evt.triggered:
                        status = "failed"
                        break

            if status == "done":
                if self.injector is not None:
                    self.injector.clear_target()
                sink.stop()  # nothing left worth replicating
                # the job is over: reap the coordinator loops parked on
                # recv and close the ranks.  The partition stays up (its
                # owner powers it off); once it does, the job is freed by
                # reference counting
                tracker.close()
                outcome.results = [p.appctx.done.value
                                   for p in session.procs]
                outcome.completion_seconds = env.now - t_job_start
                self._mark(outcome, "done",
                           f"after {outcome.n_failures} failure(s), "
                           f"{outcome.n_restarts} restart(s)")
                return outcome

            # -- failure path ------------------------------------------------
            outcome.n_failures += 1
            consecutive_failures += 1
            if fail_evt.triggered:
                record = fail_evt.value
                self._mark(outcome, "failure",
                           f"{record.kind}: {record.detail}")
            lost = env.now - max(t_last_capture, t_gen_start)
            outcome.lost_work += lost
            if self.injector is not None:
                self.injector.clear_target()
            sink.stop()  # replication flows target a dead cluster
            # chaos_restart re-runs the factories with fresh plugins: no
            # rank of the dead generation is ever revived
            tracker.close()
            cluster.teardown()
            self.gate.reset()
            if consecutive_failures > cfg.max_attempts:
                outcome.completion_seconds = env.now - t_job_start
                self._mark(outcome, "give-up",
                           f"{consecutive_failures} consecutive failures "
                           f"without a new checkpoint")
                raise RecoveryError(
                    f"recovery abandoned after {consecutive_failures} "
                    f"consecutive failures", outcome)
            backoff = self._backoff(consecutive_failures)
            outcome.backoff_seconds += backoff
            self._mark(outcome, "backoff", f"{backoff:.3g}s")
            yield env.timeout(backoff)

    # -- migration as a recovery action ----------------------------------------

    def supervise_migration(self, session: DmtcpSession,
                            target_factory: Callable[[str], Cluster],
                            mig_config=None,
                            node_map: Optional[dict] = None,
                            outcome: Optional[RecoveryOutcome] = None
                            ) -> Generator:
        """Process generator: drive a live pre-copy migration of
        ``session``, retrying with the supervisor's capped-exponential
        (optionally jittered) backoff when the move fails *before* the
        point of no return.

        :class:`~repro.migrate.MigrationError` is only ever raised while
        the source job is still running (target crashes are detected at
        round boundaries and re-checked immediately before the freeze),
        so each retry simply builds a fresh target cluster and pre-copies
        again — the dirty tracking starts over, the application never
        notices.  Returns the successful attempt's
        :class:`~repro.migrate.MigrationResult`."""
        from ..migrate import MigrationError, MigrationManager
        cfg = self.config
        attempt = 0
        while True:
            attempt += 1
            target = target_factory(f"m{attempt}")
            if self.injector is not None:
                self.injector.set_target(target)
            manager = MigrationManager(session, target, config=mig_config,
                                       node_map=node_map)
            flow = self.env.process(_safe(manager.migrate()),
                                    name=f"{self.name}.migrate.a{attempt}")
            status, value = yield flow
            if status == "ok":
                self._mark(outcome, "migrate",
                           f"attempt {attempt}: downtime "
                           f"{value.downtime_seconds:.3f}s")
                return value
            if not isinstance(value, MigrationError):
                raise value
            if self.injector is not None:
                self.injector.clear_target()
            target.teardown()
            if outcome is not None:
                outcome.n_failures += 1
            self._mark(outcome, "failure",
                       f"migration attempt {attempt}: {value}")
            if attempt > cfg.max_attempts:
                raise RecoveryError(
                    f"migration abandoned after {attempt} attempt(s)",
                    outcome if outcome is not None else RecoveryOutcome())
            backoff = self._backoff(attempt)
            if outcome is not None:
                outcome.backoff_seconds += backoff
            self._mark(outcome, "backoff", f"{backoff:.3g}s")
            yield self.env.timeout(backoff)
