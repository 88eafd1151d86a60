"""The fault-injection subsystem: schedules, models, injector, gate,
recovery, and the end-to-end chaos guarantees (determinism, checksum
integrity through crash-restart, backoff/give-up, Young/Daly)."""

import numpy as np
import pytest

from repro.faults import (ChaosGate, FailureEvent, FixedSchedule, Injector,
                          PoissonSchedule, RecoveryError, TraceSchedule,
                          apply_failure)
from repro.faults.harness import (run_chaos_nas, verify_restart_path,
                                  young_daly_interval)
from repro.hardware import BUFFALO_CCR, Cluster
from repro.sim import Environment, RngFactory


# -- schedules ---------------------------------------------------------------

def test_fixed_schedule_orders_events():
    sched = FixedSchedule([
        FailureEvent(t=5.0, kind="node-crash", node_index=1),
        FailureEvent(t=1.0, kind="straggler", node_index=0),
        FailureEvent(t=3.0, kind="hca-fail", node_index=2),
    ])
    assert [e.t for e in sched.events()] == [1.0, 3.0, 5.0]


def test_trace_schedule_parses_rows():
    sched = TraceSchedule([
        (2.5, "link-degrade", 0, {"duration": 0.5}),
        (1.0, "node-crash", 3),
    ])
    events = list(sched.events())
    assert events[0] == FailureEvent(t=1.0, kind="node-crash", node_index=3)
    assert events[1].params == {"duration": 0.5}


def test_poisson_schedule_same_seed_is_bit_identical():
    def draw(seed, n=40):
        sched = PoissonSchedule(RngFactory(seed), n_nodes=4, mtbf_node=10.0)
        out = []
        for event in sched.events():
            out.append((event.t, event.node_index))
            if len(out) == n:
                break
        return out

    assert draw(123) == draw(123)
    assert draw(123) != draw(124)
    # time-ordered, and every node appears (independent per-node streams)
    times = [t for t, _ in draw(123)]
    assert times == sorted(times)
    assert {i for _, i in draw(123)} == {0, 1, 2, 3}


def test_poisson_schedule_horizon_and_validation():
    sched = PoissonSchedule(RngFactory(7), n_nodes=3, mtbf_node=5.0,
                            horizon=30.0)
    events = list(sched.events())
    assert events and all(e.t <= 30.0 for e in events)
    with pytest.raises(ValueError):
        PoissonSchedule(RngFactory(7), n_nodes=3, mtbf_node=0.0)


def test_fault_streams_live_in_reserved_namespace():
    """Fault randomness is namespaced under ``faults/`` so enabling chaos
    never perturbs any other component's draws."""
    rng = RngFactory(99)
    a = rng.fault_stream("poisson/node0").random(8)
    b = rng.stream("faults/poisson/node0").random(8)
    assert np.array_equal(a, b)
    # ...and is distinct from the unreserved stream of the same name
    c = rng.stream("poisson/node0").random(8)
    assert not np.array_equal(a, c)


# -- failure models ----------------------------------------------------------

def _cluster(env, n=3, name="faulty"):
    return Cluster(env, BUFFALO_CCR, n_nodes=n, name=name)


def test_node_crash_is_fatal_and_idempotent():
    env = Environment()
    cluster = _cluster(env)
    applied = apply_failure(cluster, FailureEvent(t=0, kind="node-crash",
                                                 node_index=1))
    assert applied.fatal and cluster.nodes[1].failed
    again = apply_failure(cluster, FailureEvent(t=0, kind="node-crash",
                                                node_index=1))
    assert "already down" in again.detail


def test_hca_fail_and_link_partition_are_fatal():
    env = Environment()
    cluster = _cluster(env)
    hca = apply_failure(cluster, FailureEvent(t=0, kind="hca-fail",
                                              node_index=0))
    assert hca.fatal and cluster.nodes[0].hca.failed
    part = apply_failure(cluster, FailureEvent(t=0, kind="link-partition",
                                               node_index=2))
    assert part.fatal and "partitioned" in part.detail


def test_transient_kinds_are_nonfatal_and_healable():
    env = Environment()
    cluster = _cluster(env)
    deg = apply_failure(cluster, FailureEvent(
        t=0, kind="link-degrade", node_index=0,
        params={"bandwidth_factor": 0.25, "duration": 2.0}))
    assert not deg.fatal and deg.heal is not None and deg.heal_after == 2.0
    deg.heal()
    strag = apply_failure(cluster, FailureEvent(
        t=0, kind="straggler", node_index=1, params={"factor": 8.0}))
    assert not strag.fatal and strag.heal is not None
    strag.heal()


def test_unknown_failure_kind_raises():
    env = Environment()
    cluster = _cluster(env)
    with pytest.raises(ValueError):
        apply_failure(cluster, FailureEvent(t=0, kind="gamma-ray"))


# -- the injector ------------------------------------------------------------

def test_injector_records_missed_failures_without_target():
    """Lightning striking an empty rack: failures drawn between job
    generations are recorded but hit nothing and wake nobody."""
    env = Environment()
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=1.0, kind="node-crash", node_index=0)]))
    armed = injector.arm()
    env.run(until=2.0)
    assert len(injector.records) == 1
    record = injector.records[0]
    assert not record.applied and not record.fatal
    assert "missed" in record.detail
    assert not armed.triggered


def test_injector_notifies_armed_waiters_on_fatal():
    env = Environment()
    cluster = _cluster(env)
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=0.5, kind="straggler", node_index=0,
                     params={"duration": 0.1}),
        FailureEvent(t=1.0, kind="node-crash", node_index=2)]))
    injector.set_target(cluster)
    armed = injector.arm()
    env.run(until=2.0)
    # the transient did NOT trip the waiter; the crash did
    assert armed.triggered
    record = armed.value
    assert record.kind == "node-crash" and record.t == 1.0
    assert [r.fatal for r in injector.records] == [False, True]


def test_injector_heals_transients_after_duration():
    env = Environment()
    cluster = _cluster(env)
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=0.5, kind="straggler", node_index=1,
                     params={"factor": 4.0, "duration": 1.0})]))
    injector.set_target(cluster)
    node = cluster.nodes[1]
    baseline = node.gflops_per_core
    env.run(until=1.0)
    assert node.gflops_per_core < baseline   # mid-outage: slowed
    env.run(until=2.0)
    assert node.gflops_per_core == baseline  # healed at t=1.5


def test_injector_stop_interrupts_walker():
    env = Environment()
    injector = Injector(env, FixedSchedule([
        FailureEvent(t=100.0, kind="node-crash")]))
    env.run(until=1.0)
    assert not injector.stopped
    injector.stop()
    env.run(until=2.0)
    assert injector.stopped
    assert injector.records == []


# -- the checkpoint gate -----------------------------------------------------

def test_chaos_gate_parks_world_and_releases():
    env = Environment()
    gate = ChaosGate(env, world=2)
    order = []

    def rank(k):
        while not gate.requested:
            yield env.timeout(0.01)
        yield from gate.park()
        order.append(("resumed", k, env.now))

    env.process(rank(0))
    env.process(rank(1))

    def manager():
        yield env.timeout(0.05)
        all_parked = gate.request()
        assert gate.requested
        yield all_parked
        order.append(("all-parked", env.now))
        yield env.timeout(0.1)
        gate.release()
        assert not gate.requested

    env.process(manager())
    env.run(until=1.0)
    assert order[0][0] == "all-parked"
    assert sorted(o[1] for o in order[1:]) == [0, 1]
    # ranks resumed only after the release, not at the park barrier
    assert all(o[2] > order[0][1] for o in order[1:])


def test_chaos_gate_park_without_request_is_noop():
    env = Environment()
    gate = ChaosGate(env, world=2)
    done = []

    def rank():
        yield from gate.park()
        done.append(env.now)

    env.process(rank())
    env.run(until=1.0)
    assert done == [0]


# -- end-to-end chaos recovery ----------------------------------------------

def test_crash_recovery_restores_checksum_bit_for_bit():
    """A node crash after the first checkpoint: the job restarts on a
    fresh cluster from the image and finishes with the exact checksum of a
    failure-free run."""
    reference = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=60,
                              seed=77, ckpt_interval=1e9,
                              schedule=FixedSchedule([]))
    # checkpoint #1 completes ~4.7s (launch ~1s, park, ~1.65s write); the
    # crash at t=6 lands after it, so recovery restarts from the image
    chaos = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=60,
                          seed=77, ckpt_interval=2.0,
                          schedule=FixedSchedule([
                              FailureEvent(t=6.0, kind="node-crash",
                                           node_index=1)]),
                          backoff_base=0.25)
    assert chaos.checksum == reference.checksum
    assert chaos.recovery.n_failures == 1
    assert chaos.recovery.n_restarts == 1
    assert chaos.recovery.n_checkpoints >= 1
    assert chaos.completion_seconds > reference.completion_seconds
    kinds = [e.kind for e in chaos.recovery.timeline]
    assert "failure" in kinds and "restart" in kinds


def test_same_seed_chaos_runs_are_bit_identical():
    """The acceptance criterion: two same-seed Poisson chaos runs produce
    identical failure times, recovery timelines, and final checksums."""
    kw = dict(app="lu", klass="A", nprocs=4, iters_sim=20, seed=4242,
              mtbf_node=10.0, ckpt_interval=1.0, backoff_base=0.2,
              backoff_max=2.0, max_attempts=50)
    a = run_chaos_nas(**kw)
    b = run_chaos_nas(**kw)
    assert a.fingerprint() == b.fingerprint()
    c = run_chaos_nas(**{**kw, "seed": 4243})
    assert c.fingerprint() != a.fingerprint()


def test_recovery_gives_up_after_max_attempts_with_backoff():
    """Crashes faster than any checkpoint can complete: the manager backs
    off exponentially and finally raises RecoveryError carrying the
    partial outcome."""
    hammer = FixedSchedule([
        FailureEvent(t=0.4 + 0.7 * k, kind="node-crash", node_index=k % 4)
        for k in range(40)])
    with pytest.raises(RecoveryError) as info:
        run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=200,
                      seed=9, ckpt_interval=5.0, schedule=hammer,
                      max_attempts=3, backoff_base=0.1, backoff_factor=2.0,
                      backoff_max=1.0)
    outcome = info.value.outcome
    assert outcome.n_failures >= 4
    assert outcome.n_checkpoints == 0
    # exponential growth: 0.1 + 0.2 + 0.4, then the fourth failure aborts
    assert outcome.backoff_seconds == pytest.approx(0.7)


def test_transient_failures_degrade_time_but_not_data():
    """Stragglers and link degradation slow the job; nothing dies, nothing
    restarts, and the checksum is untouched."""
    reference = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=30,
                              seed=31, ckpt_interval=1e9,
                              schedule=FixedSchedule([]))
    bumpy = run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=30,
                          seed=31, ckpt_interval=1e9,
                          schedule=FixedSchedule([
                              FailureEvent(t=1.5, kind="straggler",
                                           node_index=0,
                                           params={"factor": 6.0,
                                                   "duration": 0.5}),
                              FailureEvent(t=2.2, kind="link-degrade",
                                           node_index=0,
                                           params={"bandwidth_factor": 0.2,
                                                   "duration": 0.5})]))
    assert bumpy.checksum == reference.checksum
    assert bumpy.recovery.n_restarts == 0
    assert bumpy.recovery.n_failures == 0          # transients are not fatal
    assert len(bumpy.failures) == 2                # ...but are recorded
    assert bumpy.completion_seconds > reference.completion_seconds


def test_ft_crash_recovery_carries_running_checksum():
    """FT's loop-carried checksum scalar rides in the progress region, so
    a crash-restart resumes the accumulation instead of restarting it."""
    reference = run_chaos_nas(app="ft", klass="B", nprocs=4, iters_sim=6,
                              seed=5, ckpt_interval=1e9,
                              schedule=FixedSchedule([]))
    # FT.B images are huge, so one checkpoint costs ~33s: the first one
    # completes near t=40 and the crash at t=45 lands after it
    chaos = run_chaos_nas(app="ft", klass="B", nprocs=4, iters_sim=6,
                          seed=5, ckpt_interval=4.0,
                          schedule=FixedSchedule([
                              FailureEvent(t=45.0, kind="node-crash",
                                           node_index=2)]),
                          backoff_base=0.25)
    assert chaos.checksum == reference.checksum
    assert chaos.recovery.n_restarts == 1


# -- restart-path verification & Young/Daly ----------------------------------

def test_verify_restart_path_counters_and_remaps():
    verdict = verify_restart_path(seed=77)
    assert verdict["crash"].kind == "node-crash" and verdict["crash"].applied
    counters = verdict["counters"]
    assert counters["reposted_recvs"] > 0
    assert counters["replayed_modifies"] > 0
    assert verdict["qps_remapped"] and verdict["mrs_remapped"] \
        and verdict["lids_remapped"]
    assert all(r.checksum == verdict["results"][0].checksum
               for r in verdict["results"])


def test_young_daly_interval_math():
    assert young_daly_interval(50.0, 2.0) == pytest.approx(
        np.sqrt(2 * 50.0 * 2.0))
    # longer MTBF or costlier checkpoints both stretch the interval
    assert young_daly_interval(100.0, 2.0) > young_daly_interval(50.0, 2.0)
    assert young_daly_interval(50.0, 4.0) > young_daly_interval(50.0, 2.0)


def test_sweep_shows_checkpoint_interval_tradeoff():
    """A miniature sweep at one MTBF: checkpointing far too often costs
    more overhead, and far too rarely costs more rework, than the
    Young/Daly neighbourhood — the U-curve the full sweep validates."""
    from repro.experiments.fault_sweep import run_sweep

    result = run_sweep([40.0], trials=1, iters_sim=120, quiet=True)
    assert result.ckpt_cost > 0 and result.baseline_seconds > 0
    rows = sorted((c.interval, c.completion) for c in result.cells)
    best = result.best_interval(40.0)
    # the extremes of the grid never win
    assert best not in (rows[0][0], rows[-1][0])
    assert result.young_daly_holds(40.0)


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_sweep_cli_rejects_nonpositive_trials(trials, capsys):
    """``--trials 0`` used to run the default count silently."""
    from repro.experiments.fault_sweep import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--smoke", "--trials", trials])
    assert exit_info.value.code == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_analysis_gate_fails_unless_the_monitor_saw_the_restart_path():
    """``--analysis`` may not pass on an empty violation list alone: the
    monitor must have counted every required restart-path event."""
    from repro.experiments.fault_sweep import (REQUIRED_MONITOR_EVENTS,
                                               protocol_gate_failures)

    seen = {name: 1 for name in REQUIRED_MONITOR_EVENTS}
    assert protocol_gate_failures({"events": seen, "violations": []}) == []
    assert protocol_gate_failures(None) == ["no protocol monitor summary"]
    assert protocol_gate_failures({"events": {}, "violations": []}) == [
        f"monitor counted no {name!r} event"
        for name in REQUIRED_MONITOR_EVENTS]
    unreplayed = dict(seen, replay_begin=0)
    assert protocol_gate_failures(
        {"events": unreplayed, "violations": []}) == [
        "monitor counted no 'replay_begin' event"]
    assert protocol_gate_failures(
        {"events": seen, "violations": ["[rkey-pd] x"]}) == ["[rkey-pd] x"]


def test_analysis_cli_fails_on_a_monitor_that_counted_nothing(monkeypatch,
                                                              capsys):
    """The ``--analysis`` command itself, not only its predicate: the
    same restart verdict passes with the monitor's real summary and
    FAILs once that summary is an empty, violation-free one."""
    from repro.experiments import fault_sweep

    class _Sweep:
        def young_daly_holds(self, mtbf):
            return True

    monkeypatch.setattr(fault_sweep, "run_sweep", lambda *a, **kw: _Sweep())
    verdict = verify_restart_path(seed=31, analysis=True)
    monkeypatch.setattr(fault_sweep, "verify_restart_path",
                        lambda seed, analysis: verdict)
    assert fault_sweep.main(["--smoke", "--analysis"]) == 0
    assert "# overall: PASS" in capsys.readouterr().out

    verdict = dict(verdict, protocol={"events": {}, "violations": []})
    assert fault_sweep.main(["--smoke", "--analysis"]) == 1
    out = capsys.readouterr().out
    assert "monitor counted no 'modify_qp' event" in out
    assert "# overall: FAIL" in out
