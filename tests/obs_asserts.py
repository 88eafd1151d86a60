"""TraceAssertions: the trace-invariant harness for tests.

Wraps a :class:`repro.obs.Tracer` (built and entered in the observer
slot by :func:`repro.obs.traced`) plus the ordering invariants of
:mod:`repro.obs.invariants`, with convenience accessors for asserting on
the recorded lifecycle directly.  The autouse ``trace_invariants``
fixture in ``conftest.py`` runs every test under ``traced()``, hands the
tracer to one of these and asserts a clean trace at teardown; tests that
need the raw harness (ordering assertions, golden traces) take the
fixture as an argument.
"""

from typing import Any, Dict, List, Optional

from repro.obs import Tracer, check_trace_invariants, split_segments
from repro.obs.invariants import TraceInvariantViolation

__all__ = ["TraceAssertions", "assert_ordering_in", "events_of_kind"]


def events_of_kind(events: List[Dict[str, Any]], kind: str,
                   ev: Optional[str] = None) -> List[Dict[str, Any]]:
    """Events of one kind, optionally filtered to B/E/P records."""
    return [e for e in events
            if e["kind"] == kind and (ev is None or e["ev"] == ev)]


def assert_ordering_in(events: List[Dict[str, Any]], proc: str,
                       kinds: List[str]) -> None:
    """Assert ``kinds`` (B/P records) appear for ``proc`` in order —
    each kind's first occurrence after the previous match."""
    pos = 0
    matched: List[float] = []
    for want in kinds:
        found = False
        while pos < len(events):
            event = events[pos]
            pos += 1
            if event["proc"] == proc and event["kind"] == want \
                    and event["ev"] in ("B", "P"):
                matched.append(event.get("t", 0.0))
                found = True
                break
        if not found:
            raise AssertionError(
                f"trace ordering: no '{want}' for {proc} after "
                f"{kinds[:len(matched)]} (matched at t={matched})")


class TraceAssertions:
    """A tracer plus invariant checks, as one object."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    # -- accessors ------------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self.tracer.events

    @property
    def dropped(self) -> int:
        return self.tracer.dropped

    def of_kind(self, kind: str, ev: Optional[str] = None
                ) -> List[Dict[str, Any]]:
        """Events of one kind, optionally filtered to B/E/P records."""
        return [e for e in self.tracer.events
                if e["kind"] == kind and (ev is None or e["ev"] == ev)]

    def kinds(self) -> List[str]:
        """The distinct event kinds recorded, in first-seen order."""
        seen: List[str] = []
        for event in self.tracer.events:
            if event["kind"] not in seen:
                seen.append(event["kind"])
        return seen

    def segments(self) -> List[List[Dict[str, Any]]]:
        return split_segments(self.tracer.events)

    # -- assertions -----------------------------------------------------------

    def violations(self) -> List[str]:
        return check_trace_invariants(self.tracer.events,
                                      dropped=self.tracer.dropped)

    def assert_clean(self) -> None:
        violations = self.violations()
        if violations:
            raise TraceInvariantViolation(violations)

    def assert_ordering(self, proc: str, kinds: List[str]) -> None:
        """Assert ``kinds`` (B/P records) appear for ``proc`` in order."""
        assert_ordering_in(self.tracer.events, proc, kinds)

    # -- service-specific accessors / assertions ------------------------------

    def service_accounts(self) -> Dict[str, Dict[str, float]]:
        """The per-tenant ledger rows from ``service.account`` records
        (last row wins if a tenant is accounted more than once)."""
        rows: Dict[str, Dict[str, float]] = {}
        for event in self.of_kind("service.account"):
            rows[event.get("tenant")] = {
                key: float(event.get(key, 0.0))
                for key in ("bytes_admitted", "bytes_stored",
                            "bytes_rejected", "used_bytes", "puts",
                            "rejections")}
        return rows

    def assert_service_conservation(self) -> None:
        """Every tenant's ledger balances: admitted == stored + rejected."""
        rows = self.service_accounts()
        assert rows, "no service.account records in trace"
        for tenant, row in rows.items():
            admitted = row["bytes_admitted"]
            total = row["bytes_stored"] + row["bytes_rejected"]
            slack = max(1.0, 1e-6 * abs(admitted))
            assert abs(admitted - total) <= slack, (
                f"tenant {tenant}: admitted {admitted:.0f} != stored "
                f"{row['bytes_stored']:.0f} + rejected "
                f"{row['bytes_rejected']:.0f}")

    def assert_admission_before_put(self) -> None:
        """Every ``service.put`` span had an outstanding admission grant
        on the same process (the gate-then-store order, per segment)."""
        for segment in self.segments():
            credits: Dict[str, int] = {}
            for event in segment:
                if event["kind"] == "service.admit":
                    credits[event["proc"]] = \
                        credits.get(event["proc"], 0) + 1
                elif event["kind"] == "service.put" \
                        and event["ev"] == "B":
                    have = credits.get(event["proc"], 0)
                    assert have >= 1, (
                        f"{event['proc']} opened a service.put span at "
                        f"t={event.get('t', 0.0):.6f} without a grant")
                    credits[event["proc"]] = have - 1

    def assert_preempt_protocol(self) -> None:
        """Every completed preemption quiesced the gang before its node
        slots were reclaimed, and closed its span."""
        begins = self.of_kind("service.preempt", "B")
        assert begins, "no service.preempt spans in trace"
        ends = self.of_kind("service.preempt", "E")
        assert len(begins) == len(ends), "unclosed service.preempt span"
        for begin in begins:
            job = begin.get("job")
            self.assert_ordering(begin["proc"], [
                "service.preempt", "service.quiesce", "service.reclaim"])
            assert job is not None
