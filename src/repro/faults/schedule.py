"""Failure-event schedules: when what breaks where.

A schedule is an iterator of :class:`FailureEvent` objects in
non-decreasing time order.  Stochastic schedules draw exclusively from the
reserved ``faults/`` namespace of :class:`~repro.sim.rng.RngFactory`
(per-node streams, derived by name) so enabling fault injection never
perturbs any other component's randomness and two same-seed chaos runs see
bit-identical failure times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..sim import RngFactory

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "FixedSchedule",
    "TraceSchedule",
    "PoissonSchedule",
]


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure."""

    t: float                 # absolute simulated time
    kind: str                # see models.FAILURE_KINDS
    node_index: int = 0      # victim (modulo cluster size at apply time)
    params: dict = field(default_factory=dict, compare=False)


class FailureSchedule:
    """Base: a subclass's ``events()`` yields FailureEvents in time
    order."""


class FixedSchedule(FailureSchedule):
    """An explicit list of events (deterministic scenarios, tests)."""

    def __init__(self, events: Iterable[FailureEvent]):
        self._events: List[FailureEvent] = sorted(
            events, key=lambda e: (e.t, e.node_index, e.kind))

    def events(self) -> Iterator[FailureEvent]:
        return iter(self._events)


class TraceSchedule(FixedSchedule):
    """Trace-driven injection from ``(t, kind, node_index[, params])`` rows
    — e.g. replaying a production cluster's failure log."""

    def __init__(self, rows: Iterable[tuple]):
        events = []
        for row in rows:
            t, kind, node_index = row[0], row[1], row[2]
            params = dict(row[3]) if len(row) > 3 else {}
            events.append(FailureEvent(t=float(t), kind=str(kind),
                                       node_index=int(node_index),
                                       params=params))
        super().__init__(events)


class PoissonSchedule(FailureSchedule):
    """Independent Poisson failures per node: exponential inter-arrival
    gaps with mean ``mtbf_node`` seconds, one stream per node, merged in
    time order.  The whole-job MTBF is ``mtbf_node / n_nodes``."""

    def __init__(self, rng: RngFactory, n_nodes: int, mtbf_node: float,
                 kind: str = "node-crash", horizon: Optional[float] = None,
                 params: Optional[dict] = None):
        if mtbf_node <= 0:
            raise ValueError(f"mtbf_node must be positive: {mtbf_node}")
        self.rng = rng
        self.n_nodes = n_nodes
        self.mtbf_node = float(mtbf_node)
        self.kind = kind
        self.horizon = horizon
        self.params = dict(params or {})

    def events(self) -> Iterator[FailureEvent]:
        streams: Dict[int, object] = {
            i: self.rng.fault_stream(f"poisson/node{i}")
            for i in range(self.n_nodes)
        }
        heap = [(float(streams[i].exponential(self.mtbf_node)), i)
                for i in range(self.n_nodes)]
        heapq.heapify(heap)
        while heap:
            t, i = heapq.heappop(heap)
            if self.horizon is not None and t > self.horizon:
                continue  # this node's arrivals are past the horizon
            yield FailureEvent(t=t, kind=self.kind, node_index=i,
                               params=dict(self.params))
            heapq.heappush(
                heap, (t + float(streams[i].exponential(self.mtbf_node)), i))
