"""Checkpoint-lifecycle tracer: typed span/event records with sim-clock
and wall-clock timestamps.

The tracer attaches through the observer slot :data:`repro.hooks.tracer`:
:func:`traced` enters a fresh one for a block, and every instrumented
site reads the slot at call time — the instrumented packages never
import ``obs``.  An empty slot costs one attribute read per hook site.

Timestamp discipline: instrumented code passes its *simulated* clock
reading (``env.now``) explicitly as ``t_sim``; the tracer stamps the
wall clock itself.  The deterministic packages therefore never touch
``time.*`` (the ``wallclock`` lint rule in :mod:`repro.analysis.lint`
stays clean) while every record still carries both clocks.

Record schema — plain dicts, one JSON object per line in the sink:

====== =======================================================
key    meaning
====== =======================================================
seq    global emission index (total order of emission)
kind   dotted event type, e.g. ``ckpt.capture``, ``refill.poll``
ev     ``"B"`` span begin · ``"E"`` span end · ``"P"`` point
proc   emitting process name (``coord`` for the coordinator)
t      simulated seconds (caller's ``env.now``)
wall   wall-clock seconds (``time.perf_counter``, tracer-stamped)
span   span id tying a ``B`` to its ``E``
dur    simulated duration, on ``E`` records
...    free-form event fields (epoch, cq, bytes, ...)
====== =======================================================

Events land in a bounded ring (old records drop, ``dropped`` counts
them) and, when a sink path is given, in a JSONL file.  The records are
the whole of what a tracer keeps: every count a report prints is a fold
over them.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import hooks

__all__ = [
    "Tracer",
    "traced",
    "canonicalize",
    "load_trace",
]

#: keys stripped by :func:`canonicalize` — everything run-dependent
#: (emission order, clocks, span ids); what survives is the structural
#: content golden-trace tests compare.
VOLATILE_KEYS = frozenset({"seq", "t", "wall", "dur", "span"})

DEFAULT_RING_CAPACITY = 1 << 16


class Tracer:
    """Collects span/point records from the instrumented classes."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 sink: Optional[str] = None):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: records evicted from the ring (history-dependent invariant
        #: checks are skipped when this is non-zero)
        self.dropped = 0
        self._seq = 0
        self._span_seq = 0
        #: open spans: id → (kind, proc, t_begin)
        self._open: Dict[int, Tuple[str, str, float]] = {}
        self._sink_path = sink
        self._sink_file = None

    # -- recording -----------------------------------------------------------

    def _record(self, event: Dict[str, Any]) -> Dict[str, Any]:
        event["seq"] = self._seq
        self._seq += 1
        event["wall"] = time.perf_counter()
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        if self._sink_path is not None:
            if self._sink_file is None:
                self._sink_file = open(self._sink_path, "w")
            self._sink_file.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    def emit(self, kind: str, proc: str, t_sim: float,
             **fields: Any) -> Dict[str, Any]:
        """Record a point event."""
        event = {"kind": kind, "ev": "P", "proc": proc, "t": t_sim}
        event.update(fields)
        return self._record(event)

    def begin(self, kind: str, proc: str, t_sim: float,
              **fields: Any) -> int:
        """Open a span; returns the id :meth:`end` closes it with."""
        self._span_seq += 1
        span_id = self._span_seq
        event = {"kind": kind, "ev": "B", "proc": proc, "t": t_sim,
                 "span": span_id}
        event.update(fields)
        self._record(event)
        self._open[span_id] = (kind, proc, t_sim)
        return span_id

    def end(self, span_id: Optional[int], t_sim: float,
            **fields: Any) -> Optional[Dict[str, Any]]:
        """Close a span.  Unknown/already-closed ids are ignored (a
        background writer may outlive the tracer that opened its span)."""
        opened = self._open.pop(span_id, None)
        if opened is None:
            return None
        kind, proc, t_begin = opened
        event = {"kind": kind, "ev": "E", "proc": proc, "t": t_sim,
                 "span": span_id, "dur": t_sim - t_begin}
        event.update(fields)
        self._record(event)
        return event

    # -- access ---------------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def close(self) -> None:
        if self._sink_file is not None:
            self._sink_file.close()
            self._sink_file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- canonical / serialized forms ---------------------------------------------

def canonicalize(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Strip run-dependent keys, keeping event kinds, ordering, and the
    deterministic payload fields — the golden-trace comparison form."""
    return [{k: v for k, v in sorted(event.items())
             if k not in VOLATILE_KEYS} for event in events]


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace written by a :class:`Tracer` sink (or a
    checked-in golden trace)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- observing ----------------------------------------------------------------

@contextmanager
def traced(sink: Optional[str] = None,
           capacity: int = DEFAULT_RING_CAPACITY) -> Iterator[Tracer]:
    """Run a block under a fresh :class:`Tracer` in the observer slot."""
    tracer = Tracer(capacity=capacity, sink=sink)
    try:
        with hooks.observing(tracer=tracer):
            yield tracer
    finally:
        tracer.close()
