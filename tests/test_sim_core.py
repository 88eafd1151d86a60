"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    ReferenceEnvironment,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(until=env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def worker(name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(worker("b", 2.0))
    env.process(worker("a", 1.0))
    env.process(worker("c", 3.0))
    env.run()
    assert trace == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_fifo_tie_break_is_creation_order():
    env = Environment()
    trace = []

    def worker(name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abcde":
        env.process(worker(name))
    env.run()
    assert trace == list("abcde")


def test_process_waits_on_process():
    env = Environment()

    def inner():
        yield env.timeout(2.0)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    assert env.run(until=env.process(outer())) == 43


def test_yield_already_processed_event_resumes_same_time():
    env = Environment()

    def inner():
        yield env.timeout(1.0)
        return "done"

    def outer(p):
        yield env.timeout(5.0)  # inner finished long ago
        value = yield p
        return (value, env.now)

    p = env.process(inner())
    assert env.run(until=env.process(outer(p))) == ("done", 5.0)


def test_exception_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield env.process(bad())
        return "handled"

    assert env.run(until=env.process(waiter())) == "handled"


def test_unhandled_failure_surfaces_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("unseen")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unseen"):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_interrupt_wakes_blocked_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))
        yield env.timeout(1.0)
        return "recovered"

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(3.0)
        p.interrupt(cause="wake-up")

    env.process(interrupter())
    assert env.run(until=p) == "recovered"
    assert log == [(3.0, "wake-up")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_kill_stops_process_silently():
    env = Environment()
    ran = []

    def victim():
        yield env.timeout(10.0)
        ran.append("should not happen")

    p = env.process(victim())

    def killer():
        yield env.timeout(1.0)
        p.kill()

    env.process(killer())
    env.run()
    assert ran == []
    assert p.triggered


def test_any_of_returns_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, list(result.values()))

    assert env.run(until=env.process(proc())) == (1.0, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, sorted(result.values()))

    assert env.run(until=env.process(proc())) == (5.0, ["a", "b"])


@pytest.mark.parametrize("env_cls", [Environment, ReferenceEnvironment])
def test_fired_condition_detaches_from_pending_children(env_cls):
    """A decided condition leaves the children that have not fired: a
    child that never fires must not keep the condition (and through
    ``events`` everything it waited on) alive."""
    env = env_cls()
    never = env.event()
    first = env.any_of([env.timeout(1.0), never])
    env.run()
    assert first.triggered and never.callbacks == []
    # failure decides an AllOf early, with the same detachment
    boom = env.event()
    both = env.all_of([boom, never])
    both.defuse()
    boom.fail(RuntimeError("boom"))
    env.run()
    assert not both.ok and never.callbacks == []
    # decided while being built: later children are never attached
    done = env.timeout(0.0)
    env.run()
    late = env.any_of([done, never])
    assert late.triggered and never.callbacks == []


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run(until=env.process(proc())) == 0.0


def test_run_until_deadline():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10.0)
        fired.append(True)

    env.process(proc())
    env.run(until=5.0)
    assert env.now == 5.0 and not fired
    env.run()
    assert fired == [True]


def test_run_until_past_deadline_rejected():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=0.5)


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_process_that_survives_its_non_event_yield_keeps_running():
    """The error thrown for a non-event yield is an ordinary resume: what
    the generator yields next is waited on, and how it ends is how the
    process ends (it used to be stranded alive, never resumed)."""
    env = Environment()
    trace = []

    def survivor():
        try:
            yield 42
        except SimulationError:
            trace.append("caught")
        try:
            yield "still not an event"      # twice in a row
        except SimulationError:
            trace.append("caught again")
        yield env.timeout(2.0)
        trace.append(env.now)
        return "done"

    def returns_from_handler():
        try:
            yield None
        except SimulationError:
            return "bailed"

    def raises_from_handler():
        try:
            yield None
        except SimulationError:
            raise KeyError("own error")

    p, q, r = (env.process(g()) for g in
               (survivor, returns_from_handler, raises_from_handler))
    with pytest.raises(KeyError, match="own error"):
        env.run()                  # r's failure has no waiter
    assert q.value == "bailed" and not r.ok
    env.run()
    assert trace == ["caught", "caught again", 2.0]
    assert not p.is_alive and p.value == "done" and env.now == 2.0


def test_run_until_event_exhausted_heap():
    env = Environment()
    never = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_cross_environment_yield_rejected():
    env1, env2 = Environment(), Environment()

    def proc():
        yield env2.timeout(1.0)

    env1.process(proc())
    with pytest.raises(SimulationError):
        env1.run()


def test_suspend_stashes_wakeup():
    env = Environment()
    trace = []

    def worker():
        yield env.timeout(5.0)
        trace.append(env.now)

    p = env.process(worker())

    def controller():
        yield env.timeout(1.0)
        p.suspend()
        yield env.timeout(9.0)  # worker's timeout fired at t=5 while frozen
        assert trace == []
        p.unsuspend()

    env.process(controller())
    env.run()
    assert trace == [10.0]


def test_suspend_before_event_pending_is_noop_until_fire():
    env = Environment()

    def worker():
        yield env.timeout(2.0)
        return env.now

    p = env.process(worker())
    p.suspend()
    p.unsuspend()  # nothing stashed; normal wait continues
    assert env.run(until=p) == 2.0


def test_unsuspend_without_suspend_is_noop():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "ok"

    p = env.process(worker())
    p.unsuspend()
    assert env.run(until=p) == "ok"


# -- interrupt semantics under composite waits and races --------------------------
# (the contracts the fault injector and recovery manager rely on)


def test_interrupt_blocked_on_any_of():
    """Interrupting a process parked on AnyOf detaches it cleanly; the
    abandoned children firing later neither resume it twice nor crash the
    environment."""
    env = Environment()
    trace = []

    def worker():
        try:
            yield env.any_of([env.timeout(5.0), env.timeout(7.0)])
            trace.append("completed")
        except Interrupt as intr:
            trace.append(("interrupted", intr.cause, env.now))
        yield env.timeout(10.0)  # keep living past the stale children
        trace.append(("alive", env.now))

    p = env.process(worker())

    def interrupter():
        yield env.timeout(1.0)
        p.interrupt("chaos")

    env.process(interrupter())
    env.run()
    assert trace == [("interrupted", "chaos", 1.0), ("alive", 11.0)]


def test_interrupt_blocked_on_all_of():
    env = Environment()
    trace = []

    def worker():
        try:
            yield env.all_of([env.timeout(3.0), env.timeout(4.0)])
            trace.append("completed")
        except Interrupt:
            trace.append(("interrupted", env.now))
        return "done"

    p = env.process(worker())

    def interrupter():
        yield env.timeout(2.0)
        p.interrupt()

    env.process(interrupter())
    env.run()
    assert trace == [("interrupted", 2.0)]
    assert p.value == "done"


def test_interrupt_detaches_from_later_failing_event():
    """After an interrupt, the abandoned event failing must not surface as
    an unobserved error (the injector interrupts launch drivers whose
    sub-flows die later)."""
    env = Environment()
    doomed = env.event()

    def worker():
        try:
            yield doomed
        except Interrupt:
            pass
        yield env.timeout(5.0)
        return "survived"

    p = env.process(worker())

    def interrupter():
        yield env.timeout(1.0)
        p.interrupt()
        yield env.timeout(1.0)
        doomed.fail(RuntimeError("nobody listens"))

    env.process(interrupter())
    env.run()  # would raise RuntimeError if the failure were not defused
    assert p.value == "survived"


def test_interrupt_same_time_termination_race_is_dropped():
    """Interrupt delivery is deferred within the timestep; if the victim
    terminates naturally first, the interrupt is silently dropped (the
    signal-to-reaped-pid race, resolved the way a kernel resolves it)."""
    env = Environment()

    def victim():
        yield env.timeout(1.0)
        return "natural"

    # NOTE creation order: the interrupter runs first at t=1.0, so the
    # kick event pops after the victim has already terminated
    holder = {}

    def interrupter():
        yield env.timeout(1.0)
        holder["victim"].interrupt("too-late")

    env.process(interrupter())
    holder["victim"] = env.process(victim())
    env.run()
    assert holder["victim"].value == "natural"


def test_interrupt_terminated_process_is_defined_error():
    env = Environment()

    def quick():
        yield env.timeout(0.5)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_suspended_process_cancels_suspension():
    """An interrupt supersedes a quiesce: it delivers immediately, clears
    the suspension, and drops any stashed wake-up."""
    env = Environment()
    trace = []

    def worker():
        try:
            yield env.timeout(2.0)
            trace.append("woke-normally")
        except Interrupt:
            trace.append(("interrupted", env.now, "suspended:",
                          p.suspended))
        return "out"

    p = env.process(worker())

    def controller():
        yield env.timeout(1.0)
        p.suspend()
        yield env.timeout(2.0)  # the timeout fires meanwhile and is stashed
        p.interrupt()

    env.process(controller())
    env.run()
    assert trace == [("interrupted", 3.0, "suspended:", False)]
    assert p._stash is None
    assert p.value == "out"


def test_interrupt_after_stale_wake_is_not_double_resumed():
    """Yielding an already-processed event schedules a same-time wake; an
    interrupt arriving in that window must win, not race the stale wake
    into a double resume."""
    env = Environment()
    trace = []
    fired = env.event()
    fired.succeed("stale")

    def worker():
        try:
            got = yield fired  # already processed: wake is scheduled
            trace.append(("woke", got))
        except Interrupt:
            trace.append("interrupted")
        yield env.timeout(1.0)
        return "end"

    p = env.process(worker())
    p.interrupt("now")  # delivered in the same timestep, before the wake
    env.run()
    assert trace == ["interrupted"]
    assert p.value == "end"


def test_kill_detaches_from_later_failing_event():
    """kill() must defuse the abandoned target: recovery kills launch
    drivers whose network flows fail afterwards."""
    env = Environment()
    doomed = env.event()

    def worker():
        yield doomed

    p = env.process(worker())

    def controller():
        yield env.timeout(1.0)
        p.kill()
        yield env.timeout(1.0)
        doomed.fail(RuntimeError("late failure"))

    env.process(controller())
    env.run()  # no unobserved-failure crash
    assert p.triggered and p.value is None
