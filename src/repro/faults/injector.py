"""The chaos injector: a sim process that walks a failure schedule and
applies each event to whatever cluster is currently the target.

The injector is deliberately decoupled from recovery: it notifies armed
waiters when a *fatal* failure lands (the job just died), records every
event either way, and keeps walking the schedule across job generations —
failures drawn while no cluster is active (between a teardown and the next
restart attempt) are recorded as missed, like lightning striking an empty
rack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .. import hooks
from ..hardware.cluster import Cluster
from ..sim import Environment, Event, Interrupt
from .models import apply_failure
from .schedule import FailureSchedule

__all__ = ["FailureRecord", "Injector"]


@dataclass
class FailureRecord:
    """One failure as it actually landed (or missed)."""

    t: float
    kind: str
    node_index: int
    fatal: bool
    applied: bool
    detail: str


class Injector:
    """Applies a :class:`FailureSchedule` to the active cluster."""

    def __init__(self, env: Environment, schedule: FailureSchedule,
                 name: str = "injector"):
        self.env = env
        self.name = name
        self.schedule = schedule
        self.records: List[FailureRecord] = []
        self.on_failure: List[Callable[[FailureRecord], None]] = []
        self._target: Optional[Cluster] = None
        self._waiters: List[Event] = []
        self._proc = env.process(self._run(), name=name)

    # -- wiring ---------------------------------------------------------------

    def set_target(self, cluster: Cluster) -> None:
        """Point the chaos at ``cluster`` (the current job generation)."""
        self._target = cluster

    def clear_target(self) -> None:
        """Failures drawn from now on are recorded but hit nothing."""
        self._target = None

    def arm(self) -> Event:
        """An event that fires (with the FailureRecord) on the next fatal
        failure that actually lands."""
        evt = self.env.event()
        self._waiters.append(evt)
        return evt

    def stop(self) -> None:
        """Stop the schedule walker (uses the kernel's interrupt path —
        the injector may be mid-sleep toward its next failure)."""
        if self._proc.is_alive:
            self._proc.interrupt("chaos-stop")

    @property
    def stopped(self) -> bool:
        return not self._proc.is_alive

    # -- the walker ------------------------------------------------------------

    def _run(self):
        try:
            for event in self.schedule.events():
                delay = event.t - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                self._apply(event)
        except Interrupt:
            return

    def _apply(self, event) -> None:
        cluster = self._target
        if cluster is None:
            record = FailureRecord(
                t=self.env.now, kind=event.kind,
                node_index=event.node_index, fatal=False, applied=False,
                detail="no active cluster (missed)")
        else:
            applied = apply_failure(cluster, event)
            record = FailureRecord(
                t=self.env.now, kind=event.kind,
                node_index=event.node_index, fatal=applied.fatal,
                applied=True, detail=applied.detail)
            if applied.heal is not None:
                self.env.process(
                    self._heal_later(applied.heal, applied.heal_after),
                    name="injector.heal")
        self.records.append(record)
        if hooks.tracer is not None:
            hooks.tracer.emit("fault.inject", self.name, self.env.now,
                              fault=record.kind, node=record.node_index,
                              fatal=record.fatal, applied=record.applied)
        for callback in self.on_failure:
            callback(record)
        if record.fatal and record.applied:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed(record)

    def _heal_later(self, heal: Callable[[], None], after: float):
        yield self.env.timeout(after)
        heal()
