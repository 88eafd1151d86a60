"""Scale/determinism tests for the event kernel (DESIGN.md §15).

The optimization contract is *bit-identical replay*: the timestamp-
bucketed kernel must process the exact event stream the seed kernel did.
These tests pin that from five directions:

* hypothesis property tests race random timeout/spawn/interrupt programs
  through the bucketed :class:`Environment` and the pure-heap
  :class:`ReferenceEnvironment` and require identical resume order,
  final clock and ``stats.snapshot()``;
* directed cases for what the bucket structure added: a drain cursor
  that survives ``run()`` returning mid-bucket, deadlines between and on
  buckets, detaching from a target later in the bucket being drained,
  ``peek()`` at every cursor state, and release of consumed slots;
* the 1024-rank pingpong witnesses (events / sim_seconds / checksum)
  are pinned against the values recorded with the seed kernel;
* same-timestamp ties must fire in insertion order through the bucket
  drain, and kernel misuse (double-trigger) must still raise;
* a 512-rank LU chaos run (node crash mid-flight, ChunkSan oracle on)
  must restore bit-identically to the crash-free checksum.
"""

import gc
import json
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Interrupt,
    Process,
    ReferenceEnvironment,
    SimulationError,
    Store,
)

BASELINE = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "baseline_sim_seed.json")

with open(BASELINE) as _fh:
    SEED_BASELINE = json.load(_fh)


# -- property: bucketed kernel == reference kernel -------------------------------

_DELAYS = (0.0, 0.0, 0.0, 1e-6, 2e-6, 5e-6, 1e-3)

_op = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("spawn"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("event"), st.just(None)),
    st.tuples(st.just("interrupt"), st.sampled_from(_DELAYS)),
)

_programs = st.lists(st.lists(_op, min_size=1, max_size=6),
                     min_size=2, max_size=5)


def _run_program(env_cls, program):
    """Run one generated multi-process program; returns its full resume
    trace (the observable pop order), final clock, and kernel counters
    (events, heap_peak, batches, max_batch)."""
    env = env_cls()
    trace = []
    procs = []

    def body(pid, ops):
        for j, (op, arg) in enumerate(ops):
            try:
                if op == "timeout":
                    yield env.timeout(arg, value=(pid, j))
                elif op == "spawn":
                    def child(cid=(pid, j), delay=arg):
                        yield env.timeout(delay)
                        trace.append(("child", cid, env.now))
                    env.process(child())
                    yield env.timeout(0.0)
                elif op == "event":
                    evt = env.event()
                    evt.succeed((pid, j))
                    yield env.timeout(0.0)
                    trace.append(("event", evt.value, env.now))
                elif op == "interrupt":
                    target = procs[(pid + 1) % len(procs)]
                    if target.is_alive:
                        target.interrupt(cause=(pid, j))
                    yield env.timeout(arg)
            except Interrupt as intr:
                trace.append(("interrupted", pid, intr.cause, env.now))
        trace.append(("done", pid, env.now))

    for pid, ops in enumerate(program):
        procs.append(env.process(body(pid, ops), name=f"p{pid}"))
    env.run()
    return trace, env.now, env.stats.snapshot()


@settings(max_examples=80, deadline=None)
@given(_programs)
def test_batched_kernel_matches_reference(program):
    """The bucket drain preserves the exact pop order — and counts the
    same queue population and batches — as the pure-heap reference on
    arbitrary timeout/spawn/interrupt programs."""
    got = _run_program(Environment, program)
    want = _run_program(ReferenceEnvironment, program)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(_DELAYS), min_size=2, max_size=12))
def test_store_pipeline_matches_reference(delays):
    """Producer/consumer through a Store: item arrival order and clock
    are kernel-independent."""

    def run(env_cls):
        env = env_cls()
        store = Store(env)
        seen = []

        def producer():
            for i, d in enumerate(delays):
                yield env.timeout(d)
                store.put(i)

        def consumer():
            for _ in delays:
                item = yield store.get()
                seen.append((item, env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        return seen, env.now, env.stats.snapshot()

    assert run(Environment) == run(ReferenceEnvironment)


# -- directed: what the bucket structure added -----------------------------------

def _on_both_kernels(scenario):
    """Run ``scenario(env, trace)`` on both kernels; they must agree on
    everything it traced, the clock, the next event time and every
    counter.  Returns the agreed trace."""
    results = []
    for env_cls in (Environment, ReferenceEnvironment):
        env, trace = env_cls(), []
        scenario(env, trace)
        results.append((trace, env.now, env.peek(), env.stats.snapshot()))
    assert results[0] == results[1]
    return results[0][0]


def _waker(env, trace, tag, delay):
    yield env.timeout(delay)
    trace.append((tag, env.now))


def test_cursor_survives_run_until_event_stopping_mid_bucket():
    """``run(until=event)`` returns with the bucket at ``now`` half
    drained; a schedule at ``now`` from outside joins that bucket's tail
    (behind the events already waiting in it), and the next ``run()``
    resumes at the cursor."""
    def scenario(env, trace):
        def note(event):
            trace.append((event.value, env.now))

        ticks = [env.timeout(1.0, value=i) for i in range(6)]
        for tick in ticks:
            tick.callbacks.append(note)
        env.process(_waker(env, trace, "later", 2.0))
        assert env.run(until=ticks[2]) == 2
        trace.append(("stopped", env.now, env.peek()))
        env.process(_waker(env, trace, "outside", 0.0))
        env.event().succeed("outside-event").callbacks.append(note)
        env.run(until=ticks[4])
        trace.append(("stopped again", env.now, env.peek()))
        env.run()

    trace = _on_both_kernels(scenario)
    assert trace == [
        (0, 1.0), (1, 1.0), (2, 1.0), ("stopped", 1.0, 1.0),
        (3, 1.0), (4, 1.0), ("stopped again", 1.0, 1.0), (5, 1.0),
        ("outside-event", 1.0), ("outside", 1.0), ("later", 2.0)]


def test_deadline_between_buckets_on_a_bucket_and_schedule_at_it():
    """``run(until=t)`` drains every bucket with timestamp <= t and no
    other; whatever is then scheduled at ``t`` — after a bucket at ``t``
    was already drained or where none existed — runs next, in the same
    batch as ``t``'s earlier events if there were any."""
    def scenario(env, trace):
        for tag, delay in (("a", 1.0), ("b", 2.0), ("b2", 2.0), ("c", 3.0)):
            env.process(_waker(env, trace, tag, delay))
        env.run(until=1.5)                        # between buckets
        trace.append(("deadline", env.now, env.peek()))
        env.process(_waker(env, trace, "at-1.5", 0.0))
        env.run(until=2.0)                        # exactly on a bucket
        trace.append(("deadline", env.now, env.peek()))
        env.process(_waker(env, trace, "at-2.0", 0.0))
        trace.append(("peek", env.peek()))
        env.run(until=2.0)                        # a deadline at ``now``
        trace.append(("batches", env.stats.batches, env.stats.max_batch))
        env.run()

    trace = _on_both_kernels(scenario)
    assert trace == [
        ("a", 1.0), ("deadline", 1.5, 2.0), ("at-1.5", 1.5),
        ("b", 2.0), ("b2", 2.0), ("deadline", 2.0, 3.0), ("peek", 2.0),
        # t = 0, 1, 1.5 and 2 so far; everything at 2.0, before and
        # after the deadline, is one batch (a timeout and a termination
        # per waker, plus at-2.0's bootstrap)
        ("at-2.0", 2.0), ("batches", 4, 7), ("c", 3.0)]


@pytest.mark.parametrize("how", ["kill", "interrupt"])
def test_detach_from_target_later_in_the_bucket_being_drained(how):
    """An early event of the bucket being drained kills / interrupts a
    process whose own target sits further along the same bucket: the
    abandoned target still pops (it was counted) but resumes nobody.
    ``kill`` detaches at once; an interrupt detaches when its kick pops,
    by which time the victim has woken and is waiting on a zero-delay
    timeout queued behind the kick."""
    def scenario(env, trace):
        def victim():
            try:
                yield env.timeout(1.0)
                trace.append(("victim woke", env.now))
                yield env.timeout(0.0)
                trace.append(("victim ran on", env.now))
            except Interrupt as intr:
                trace.append(("interrupted", intr.cause, env.now))
                yield env.timeout(1.0)
                trace.append(("victim recovered", env.now))

        def attacker():
            yield env.timeout(1.0)       # queued first: pops first at t=1
            if how == "kill":
                procs["victim"].kill()
            else:
                procs["victim"].interrupt("stop")
            trace.append((how, env.now))

        procs = {}
        env.process(attacker())
        procs["victim"] = env.process(victim())
        env.process(_waker(env, trace, "bystander", 1.0))
        env.run()
        assert not procs["victim"].is_alive

    trace = _on_both_kernels(scenario)
    if how == "kill":
        assert trace == [("kill", 1.0), ("bystander", 1.0)]
    else:
        assert trace == [("interrupt", 1.0), ("victim woke", 1.0),
                         ("bystander", 1.0), ("interrupted", "stop", 1.0),
                         ("victim recovered", 2.0)]


def test_peek_mid_bucket_and_after_exhaustion():
    """``peek()`` is the current timestamp while its bucket has events
    left, then the next distinct one, then +inf — including right after
    ``run(until=event)`` consumed the last event of a bucket."""
    def scenario(env, trace):
        first = env.timeout(1.0)
        last = env.timeout(1.0)
        trace.append(env.peek())
        env.run(until=first)
        trace.append(env.peek())            # mid-bucket
        env.run(until=last)
        trace.append(env.peek())            # bucket spent, queue empty
        env.timeout(0.5)
        tail = env.timeout(0.0)
        trace.append(env.peek())            # refilled at ``now``
        env.run(until=tail)
        trace.append(env.peek())            # spent again, one bucket ahead
        env.run()
        trace.append(env.peek())

    inf = float("inf")
    assert _on_both_kernels(scenario) == [1.0, 1.0, inf, 1.0, 1.5, inf]


def test_zero_delay_chain_releases_consumed_slots():
    """A 50,000-link zero-delay chain lives in one bucket; each consumed
    slot is cleared as it is popped, so an early link's value dies long
    before the bucket is dropped (event values carry chunk bytes)."""
    class Payload:
        pass

    env = Environment()
    links = 50_000
    early = []

    def chain():
        for i in range(links):
            payload = Payload()
            if i == 10:
                early.append(weakref.ref(payload))
            if i == 1000:
                assert early[0]() is None
            yield env.timeout(0.0, value=payload)
            del payload

    gc.disable()    # reference counting alone must release it
    try:
        env.process(chain())
        env.run()
    finally:
        gc.enable()
    # one bucket held the bootstrap, every link and the termination
    assert env.stats.max_batch == links + 2 and env.stats.batches == 1
    assert early[0]() is None


def test_finished_processes_are_reclaimed_by_refcount_alone():
    """No reference cycle may keep a finished process alive: with gen 0
    widened for the run, cyclic garbage per process is what turned a
    cached bound ``_resume`` into +36% peak RSS."""
    def short(env):
        yield env.timeout(1e-6)
        yield env.timeout(0.0)

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        for _ in range(100):
            env.process(short(env))
        env.run()
        assert env.stats.events == 400     # all of them ran to the end
        assert not [o for o in gc.get_objects() if isinstance(o, Process)]
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- pinned pre-optimization witnesses -------------------------------------------

def test_pingpong_1024_matches_seed_witnesses():
    """Same seeds => bit-identical events / sim clock / checksum as the
    pre-optimization kernel (values recorded at the seed commit)."""
    from repro.experiments.sim_scale import run_pingpong

    want = SEED_BASELINE["pingpong"]["1024"]
    got = run_pingpong(1024)
    assert got["events"] == want["events"]
    assert got["sim_seconds"] == want["sim_seconds"]
    assert got["checksum"] == want["checksum"]


# -- tie-break + misuse semantics ------------------------------------------------

def test_same_timestamp_fires_in_insertion_order_through_batched_drain():
    """A same-timestamp wake storm from many processes drains in exact
    insertion order — both in the bucket at ``now`` (zero delay) and in
    a future bucket (equal nonzero delay)."""
    for delay in (0.0, 1e-3):
        env = Environment()
        order = []

        def waker(i, delay=delay):
            yield env.timeout(delay)
            order.append(i)

        for i in range(64):
            env.process(waker(i))
        env.run()
        assert order == list(range(64))
        # the drain was actually batched: one timestamp, 64+ pops
        assert env.stats.max_batch >= 64


def test_interleaved_zero_and_positive_delays_keep_global_order():
    """A chain growing the bucket at ``now`` finishes before the clock
    moves on, however close the next timestamp is."""
    env = Environment()
    order = []

    def late():
        yield env.timeout(1e-9)
        order.append("late")

    def chain(n):
        for i in range(n):
            yield env.timeout(0.0)
            order.append(("zero", i))

    env.process(chain(3))
    env.process(late())
    env.run()
    assert order == [("zero", 0), ("zero", 1), ("zero", 2), "late"]


def test_double_trigger_still_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("x"))
    env.run()
    with pytest.raises(SimulationError):  # processed is still triggered
        evt.succeed(3)


def test_failed_event_without_handler_raises_at_step():
    env = Environment()
    evt = env.event()
    evt.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


# -- golden trace byte-identity --------------------------------------------------

def test_lu_precopy_migration_golden_trace_bytes_identical():
    """The canonical live-migration trace re-serializes byte-identical
    to the checked-in golden file: the batched kernel replayed the
    protocol's event ordering exactly."""
    from repro.obs import canonicalize
    from test_obs_golden import SCENARIOS, _golden_path

    events = canonicalize(SCENARIOS["lu_precopy_migration"]())
    blob = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    with open(_golden_path("lu_precopy_migration")) as fh:
        assert fh.read() == blob


# -- 512-rank chaos restore ------------------------------------------------------

@pytest.mark.chunksan
def test_lu_512_node_crash_restores_bit_identically():
    """Crash a node mid-LU at 512 ranks, restart from the image (with
    the ChunkSan capture oracle auditing every chunk stamp), and require
    the final checksum to equal the crash-free run's — the restore
    reproduced the lost ranks' data bit-for-bit."""
    from repro.faults.harness import run_chaos_nas
    from repro.faults.schedule import FailureEvent, FixedSchedule

    # timeline (all sim time, fully deterministic): launch completes
    # ~7.2s, the 0.2s interval timer fires, and the class-A capture of
    # 512 ranks runs 7.4->26.694.  The crash at 26.71 lands after the
    # checkpoint commits but before the job finishes (26.73 crash-free),
    # forcing a restart from the image.
    out = run_chaos_nas(
        app="lu", klass="A", nprocs=512, ppn=16, iters_sim=10,
        seed=2014, ckpt_interval=0.2,
        schedule=FixedSchedule([FailureEvent(
            t=26.71, kind="node-crash", node_index=3)]),
        backoff_base=0.25)
    assert out.recovery.n_restarts >= 1
    assert out.recovery.n_checkpoints >= 1
    # data-dependent witness: the checksum of the *uninterrupted* run of
    # this same workload (seed 2014, iters_sim=10) — kernel-independent,
    # so equality means the restore reproduced every chunk exactly
    assert out.checksum == 1.9020139881052927e+43
    assert out.sim_stats is not None and out.sim_stats["events"] > 0
