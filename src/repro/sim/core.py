"""Discrete-event simulation kernel.

A small SimPy-flavoured engine: simulated processes are Python generators
that ``yield`` :class:`Event` objects (timeouts, channel gets, other
processes) and are resumed when those events trigger.  The engine is the
clock for everything in this package — network transfers, disk writes,
checkpoint barriers — so that the paper's reported times can be reproduced
as simulated seconds.

The kernel is deliberately deterministic: events pop in (time, insertion
order), never by object identity.

The queue is one structure (DESIGN.md §15): ``_buckets`` maps each
pending timestamp to the FIFO list of events scheduled for it and
``_times`` is a heap of those *distinct* timestamps.  Most events share
their timestamp with others, so the O(log n) heap work is paid once per
distinct float and the rest is a dict lookup and a list append.  FIFO
inside a bucket is insertion order and float equality of ``now + delay``
is the tie condition, so the pop order is exactly that of a ``(time,
seq)`` heap — which :class:`ReferenceEnvironment` still is, as the
oracle that tests, ``bench_sim_scale`` and the ledger race against.

Two invariants carry it:

* the bucket being drained stays in ``_buckets`` until the drain moves
  on, so anything scheduled for ``now`` lands on its tail, and its cursor
  lives on the environment across ``run()`` calls — ``run(until=event)``
  returns mid-bucket and callers schedule at ``now`` before running on;
* a consumed slot is cleared as it is popped: event values hold chunk
  bytes, and a long zero-delay chain would otherwise pin every event of
  its timestamp until the bucket is dropped.

The drain is inlined where frames were the cost: no per-event ``step``,
``Timeout.__init__`` inserts itself, ``Process._resume`` drives the
generator.  Measured and rejected: caching the bound ``_resume`` on the
process (every finished process becomes cyclic garbage; with gen 0
widened below, ``peak_rss_mb`` +36% on ``ckpt_store_churn``, +20% on
``service_stream``) and ``env.timeout = partial(Timeout, env)`` (no
gain, one more cycle).  Also: ``__slots__`` on every event class; the
kernel's *internal* one-shot control events (bootstrap, wake-up,
interrupt kick) recycle through a free list — only those, callers may
hold user-visible events after they fire; :class:`SimStats` counts
events, peak population and same-timestamp batches for ``repro.obs``.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "ReferenceEnvironment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "SimStats",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` is whatever object the interrupter supplied (for the
    checkpoint engine this is typically a quiesce or teardown token).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event moves through three states: *pending* (created), *triggered*
    (value decided, queued), and *processed* (callbacks run).
    Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    #: delay-scheduled subclasses (Timeout) shadow this with a real slot;
    #: reading it off a plain Event is then a cheap class-attr lookup
    _delayed_value = None

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        # set when a failure's traceback has been consumed by some waiter,
        # so un-waited failures can be reported at the end of the run
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so run() does not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _Control(Event):
    """Kernel-internal one-shot event (bootstrap / wake / interrupt kick).

    Only the kernel ever holds a reference once it is scheduled, so the
    drain returns it to the environment's free list right after its
    callbacks ran.
    """

    __slots__ = ()


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Event.__init__ and the bucket insert, inlined: this constructor
        # runs once per simulated wait
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.delay = delay
        self._delayed_value = value  # applied when the drain pops us
        env._queued += 1
        when = env._now + delay
        bucket = env._buckets.get(when)
        if bucket is None:
            env._buckets[when] = [self]
            heappush(env._times, when)
        else:
            bucket.append(self)


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The generator may ``yield`` any :class:`Event`.  ``return value`` inside
    the generator becomes the process's event value.
    """

    __slots__ = ("_generator", "name", "_target", "_suspended", "_stash")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process target must be a generator, got {generator!r}")
        Event.__init__(self, env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # event we are waiting on
        self._suspended = False
        self._stash: Optional[tuple] = None  # (ok, value) deferred wake
        # bootstrap: start the generator at the current time
        init = env._control()
        init._value = None
        init.callbacks.append(self._resume)
        env._schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a process that has already terminated raises
        :class:`SimulationError` (the defined-error analogue of signalling
        a reaped pid).  If the process terminates between this call and
        the interrupt's delivery (both at the current simulated time), the
        interrupt is silently dropped — the race a real kernel resolves
        the same way.  Interrupting a :meth:`suspend`-ed process delivers
        immediately and cancels the suspension (and any stashed wake-up):
        the interrupt supersedes whatever the process was waiting for.
        """
        if self.triggered:
            raise SimulationError(f"{self.name} has already terminated")
        env = self.env
        proc = self

        def _do_interrupt(kick: Event) -> None:
            if proc.triggered:
                return
            # Detach from whatever we were waiting on; if the abandoned
            # event later fails with no other waiter, that failure is ours
            # to ignore (we are no longer interested), so defuse it.
            target = proc._target
            if target is not None:
                if target.callbacks is not None:
                    try:
                        target.callbacks.remove(proc._resume)
                    except ValueError:
                        pass
                target._defused = True
            proc._stash = None
            proc._suspended = False
            proc._resume(kick)

        # the interrupt travels as a failed wake-up the kernel owns (so a
        # dropped one is nobody's unhandled failure)
        kick = env._control()
        kick._ok = False
        kick._value = Interrupt(cause)
        kick._defused = True
        kick.callbacks.append(_do_interrupt)
        env._schedule(kick)

    def kill(self) -> None:
        """Terminate the process immediately without running its finally
        blocks at a later simulated time (used for cluster teardown)."""
        if self.triggered:
            return
        if self._target is not None:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            # a failure of the abandoned event concerns nobody now
            self._target._defused = True
        self._target = None
        self._stash = None
        self._generator.close()
        self._ok = True
        self._value = None
        self.env._schedule(self)

    def suspend(self) -> None:
        """Quiesce the process: if its awaited event fires while suspended,
        the wake-up is stashed and replayed on :meth:`unsuspend` (the
        checkpoint engine's SIGSTOP analogue)."""
        self._suspended = True

    def unsuspend(self) -> None:
        """Resume a suspended process, replaying any stashed wake-up at the
        current simulated time."""
        if not self._suspended:
            return
        self._suspended = False
        if self._stash is not None:
            ok, value = self._stash
            self._stash = None
            wake = self.env._control()
            wake._ok = ok
            wake._value = value
            wake.callbacks.append(self._resume)
            self._target = wake
            self.env._schedule(wake)

    @property
    def suspended(self) -> bool:
        return self._suspended

    # -- internal driving ------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Callback on the awaited event: drive the generator to its next
        yield (or its end) and wait on what it yielded."""
        ok = event._ok
        if not ok:
            event._defused = True
        if self._suspended:
            self._stash = (ok, event._value)
            self._target = None
            return
        self._target = None
        env = self.env
        value = event._value
        while True:
            try:
                if ok:
                    target = self._generator.send(value)
                else:
                    target = self._generator.throw(value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                env._schedule(self)
                return
            if target.__class__ is Timeout or isinstance(target, Event):
                break
            # give the generator a chance to handle it; what it yields
            # next (or how it ends) is treated like any other step
            ok = False
            value = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")

        if target.env is not env:
            raise SimulationError("yielded event from a foreign environment")
        if target.callbacks is None:
            # already processed: wake immediately (same timestamp).  The
            # wake (not the processed target) is what we are waiting on,
            # so interrupt()/kill() can detach us from it.
            wake = env._control()
            wake._ok = target._ok
            wake._value = target._value
            if not target._ok:
                target._defused = True
            wake.callbacks.append(self._resume)
            self._target = wake
            env._schedule(wake)
        else:
            self._target = target
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        Event.__init__(self, env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for evt in self.events:
            if evt.env is not env:
                raise SimulationError("condition spans environments")
            if evt.callbacks is None:
                self._check(evt)
            elif not self.triggered:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {evt: evt._value for evt in self.events if evt.triggered}

    def _detach(self) -> None:
        """Leave every child that has not fired yet, once the condition
        is decided (as SimPy's ``Condition`` does): a child that never
        fires (a preemption that never comes) would otherwise hold the
        condition, and through ``events`` everything it waited on."""
        check = self._check
        for evt in self.events:
            callbacks = evt.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_Condition):
    """Triggers once all child events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class SimStats:
    """Kernel counters, fed to ``repro.obs`` (``sim.events`` /
    ``sim.heap_peak`` / ``sim.batch_size``) and the benches.

    ``events`` counts every pop; ``heap_peak`` is the largest queued
    population observed at a pop; a *batch* is a maximal run of events
    processed at one simulated timestamp.
    """

    __slots__ = ("events", "heap_peak", "batches", "_max_batch",
                 "_cur_batch", "_last_when")

    def __init__(self):
        self.events = 0
        self.heap_peak = 0
        self.batches = 0
        self._max_batch = 0
        self._cur_batch = 0
        self._last_when = None  # ReferenceEnvironment's batch detector

    @property
    def max_batch(self) -> int:
        # the still-open batch counts too: a run that drains in one
        # timestamp never closes it
        return max(self._max_batch, self._cur_batch)

    @property
    def batch_mean(self) -> float:
        return self.events / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        return {"events": self.events, "heap_peak": self.heap_peak,
                "batches": self.batches, "max_batch": self.max_batch,
                "batch_mean": self.batch_mean}


#: free-list bound: enough to absorb a 2048-rank wake storm without
#: pinning memory forever on small runs
_POOL_MAX = 4096


class Environment:
    """Holds the simulated clock and the timestamp-bucketed event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: timestamp -> FIFO of the events scheduled for it (a consumed
        #: slot is None).  The bucket being drained is ``_buckets[_when]``,
        #: consumed up to ``_pos``; it is the one key not in ``_times``.
        #: Before the first pop that is an empty placeholder under None.
        self._buckets: dict[Optional[float], list[Optional[Event]]] = {
            None: []}
        self._times: list[float] = []  # heap of the distinct pending keys
        self._when: Optional[float] = None
        self._pos = 0
        self._queued = 0  # events scheduled and not yet popped
        self._pool: list[_Control] = []
        self.stats = SimStats()

    @property
    def now(self) -> float:
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _control(self) -> _Control:
        """A recycled (or fresh) kernel-internal one-shot event."""
        pool = self._pool
        if pool:
            evt = pool.pop()
            evt.callbacks = []
            evt._value = PENDING
            evt._ok = True
            evt._defused = False
            return evt
        return _Control(self)

    def _schedule(self, event: Event) -> None:
        """Queue a triggered event at the current time (timeouts, the
        only delayed events, insert themselves)."""
        self._queued += 1
        bucket = self._buckets.get(self._now)
        if bucket is None:
            self._buckets[self._now] = [event]
            heappush(self._times, self._now)
        else:
            bucket.append(event)

    def _drain(self, stop: Optional[Event], deadline: float) -> None:
        """Pop events in (time, insertion) order until the queue is empty,
        the next timestamp is past ``deadline``, or ``stop`` is processed."""
        buckets = self._buckets
        times = self._times
        stats = self.stats
        pool = self._pool
        when = self._when
        pos = self._pos
        bucket = buckets[when]
        try:
            while stop is None or stop.callbacks is not None:
                if pos == len(bucket):
                    if not times or times[0] > deadline:
                        break
                    # this timestamp is spent: on to the next distinct one
                    del buckets[when]
                    when = self._now = heappop(times)
                    bucket = buckets[when]
                    pos = 0
                    stats.batches += 1
                    if stats._cur_batch > stats._max_batch:
                        stats._max_batch = stats._cur_batch
                event = bucket[pos]
                bucket[pos] = None
                pos += 1
                stats._cur_batch = pos
                stats.events += 1
                n = self._queued
                self._queued = n - 1
                if n > stats.heap_peak:
                    stats.heap_peak = n

                if event._value is PENDING:
                    # a delay-scheduled event (Timeout) triggers as it pops
                    event._ok = True
                    event._value = event._delayed_value
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # killed process already finalized
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if event.__class__ is _Control and len(pool) < _POOL_MAX:
                    # nothing outside the kernel can still reference it
                    pool.append(event)
        finally:
            self._when = when
            self._pos = pos

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        If ``until`` is an event, returns that event's value (raising if the
        event failed).  If it is a number, simulated time advances exactly to
        it.  If ``None``, runs until no events remain.
        """
        stop: Optional[Event] = None
        deadline = inf
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                if not stop._ok:
                    raise stop._value
                return stop._value
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError("deadline is in the past")

        # An event-loop turn allocates ~30 short-lived objects (frames,
        # packets, WRs); CPython's default gen-0 threshold (700) makes
        # the collector walk the young generation every ~25 events, which
        # costs ~20% of a 2048-rank run.  Widen gen 0 for the duration and
        # restore on exit.  Inside a long run the older generations are
        # then almost never collected, so this is safe only because
        # nothing depends on the collector: a finished job leaves no
        # reference cycle (DESIGN.md §15, "Object lifetime";
        # tests/test_lifetime.py).
        gc_thresholds = gc.get_threshold()
        if gc_thresholds[0]:
            gc.set_threshold(200_000, gc_thresholds[1], gc_thresholds[2])
        try:
            self._drain(stop, deadline)
        finally:
            gc.set_threshold(*gc_thresholds)

        if stop is None:
            if until is not None:
                self._now = deadline
            return None
        if stop._value is PENDING:
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired")
        if not stop._ok:
            stop._defused = True
            raise stop._value
        return stop._value

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._pos < len(self._buckets[self._when]):
            return self._when
        return self._times[0] if self._times else inf


class ReferenceEnvironment(Environment):
    """The oracle: one pure ``(time, seq)`` heap, one ``step`` per event,
    no free list.

    Property tests, ``bench_sim_scale`` and the ledger's ``kernel_storm``
    run the same program through this and :class:`Environment` and
    require identical pop order, clock and :class:`SimStats`.
    """

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        evt = Timeout.__new__(Timeout)  # its __init__ fills buckets
        Event.__init__(evt, self)
        evt.delay = delay
        evt._delayed_value = value
        self._schedule(evt, delay)
        return evt

    def _control(self) -> _Control:
        return _Control(self)  # never pooled

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, event))

    def _drain(self, stop: Optional[Event], deadline: float) -> None:
        heap = self._heap
        while (heap and heap[0][0] <= deadline
               and (stop is None or stop.callbacks is not None)):
            self.step()

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else inf

    def step(self) -> None:
        when, seq, event = heappop(self._heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        stats = self.stats
        stats.events += 1
        n = len(self._heap) + 1
        if n > stats.heap_peak:
            stats.heap_peak = n
        if when == stats._last_when:
            stats._cur_batch += 1
        else:
            stats._last_when = when
            stats.batches += 1
            if stats._cur_batch > stats._max_batch:
                stats._max_batch = stats._cur_batch
            stats._cur_batch = 1
        self._now = when
        if event._value is PENDING:
            event._ok = True
            event._value = event._delayed_value
        callbacks = event.callbacks
        if callbacks is None:
            return
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value
