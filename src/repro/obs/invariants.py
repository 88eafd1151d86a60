"""Trace-level protocol invariants.

These checks replay a recorded trace (a list of event dicts, see
:mod:`.trace`) and assert the *ordering* half of the paper's correctness
argument — the part no single verbs call can check, because it is about
the timeline (DESIGN.md §9 has the per-call rules):

``capture-after-quiesce`` (Principle 4)
    Every ``ckpt.capture`` begin is preceded — within its enclosing
    ``ckpt`` span, on the same process — by a ``drain.quiesce`` event:
    the global drain protocol declared every completion queue quiet
    before a single memory byte was captured.

``refill-before-real`` (Principle 5)
    Whenever a ``poll_cq`` serves completions from the real CQ, the
    private (drained) queue observed at entry has been fully served
    first; the application never sees a fresh completion before a
    drained one.

``replay-balance`` (Principles 3/6)
    A restart replay re-posts exactly the surviving WQE-log entries:
    the ``replay`` span's actual re-post count equals the log sizes
    snapshotted when the replay began.

``precopy-shrink``
    Within one live migration, the transferred pre-copy rounds carry
    monotonically non-increasing dirty-byte counts: the
    :class:`~repro.migrate.MigrationManager` never ships a round whose
    residue stopped shrinking (it belongs to the stop-and-copy).

``pagein-before-compute``
    A post-copy restart never runs a compute tick while a faulted
    region's page-in is still outstanding on the same process: every
    ``migrate.fault`` is closed by a ``migrate.pagein`` end before the
    next ``migrate.compute``.

``chunk-balance``
    Any record carrying chunk dirty-tracking attrs (incremental
    ``ckpt.capture`` / ``capture.region`` events) reports a dirty chunk
    count between 0 and the region/capture chunk total — the bitmap can
    never claim more dirty chunks than exist.

``admission-before-put``
    Every ``service.put`` span a :class:`~repro.service.CheckpointService`
    opens was granted by a preceding ``service.admit`` on the same
    process: no checkpoint byte enters the shared store without passing
    the tenant quota / backpressure gate first.

``preempt-quiesce-before-reclaim``
    Within an open ``service.preempt`` span, the scheduler may only
    emit ``service.reclaim`` (returning the gang's node slots to the
    pool) after ``service.quiesce`` reported the job frozen — slots
    never free while ranks are still running.  (``service.quota.reclaim``
    is the admission ledger's byte refund, a different event.)

``service-conservation``
    Every ``service.account`` record balances its tenant's byte ledger:
    ``bytes_admitted == bytes_stored + bytes_rejected`` — an admitted
    byte either landed in a tier or was refunded on failure, never
    silently lost.  Self-contained (checked even on overflowed rings).

Traces may span several :class:`~repro.sim.Environment` instances (one
per scenario, or per chaos generation in tests that build fresh
environments): the simulated clock then restarts from zero.  Checks are
applied per *segment* — a maximal run of events whose sim timestamps
are non-decreasing — so cross-environment history never false-positives.

When the tracer's ring overflowed (``dropped > 0``), the history-
dependent checks (``capture-after-quiesce``, ``precopy-shrink``,
``pagein-before-compute``,
``admission-before-put``, ``preempt-quiesce-before-reclaim``) are
skipped; the self-contained per-record checks still run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = [
    "TraceInvariantViolation",
    "split_segments",
    "check_trace_invariants",
    "assert_trace_invariants",
]

_T_EPS = 1e-12


class TraceInvariantViolation(AssertionError):
    """A recorded trace breaks a protocol-ordering invariant."""

    def __init__(self, violations: List[str]):
        super().__init__(
            f"{len(violations)} trace invariant violation(s):\n  "
            + "\n  ".join(violations))
        self.violations = violations


def split_segments(
        events: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Split a trace where the sim clock jumps backwards (a fresh
    :class:`~repro.sim.Environment` started)."""
    segments: List[List[Dict[str, Any]]] = []
    current: List[Dict[str, Any]] = []
    prev_t: Optional[float] = None
    for event in events:
        t = event.get("t", 0.0)
        if prev_t is not None and t < prev_t - _T_EPS:
            segments.append(current)
            current = []
        current.append(event)
        prev_t = t
    if current:
        segments.append(current)
    return segments


def _check_capture_after_quiesce(segment, violations) -> None:
    # per proc: the seq of the innermost open ckpt B, and whether a
    # drain.quiesce has been seen since it
    open_ckpt: Dict[str, int] = {}
    quiesced: Dict[str, bool] = {}
    for event in segment:
        kind, ev, proc = event["kind"], event["ev"], event["proc"]
        if kind == "ckpt" and ev == "B":
            open_ckpt[proc] = event.get("seq", -1)
            quiesced[proc] = False
        elif kind == "drain.quiesce":
            quiesced[proc] = True
        elif kind == "ckpt.capture" and ev == "B":
            if not quiesced.get(proc, False):
                violations.append(
                    f"[capture-after-quiesce] {proc} began a capture at "
                    f"t={event.get('t', 0.0):.6f} without a preceding "
                    "drain.quiesce inside its ckpt span (Principle 4)")
        elif kind == "ckpt" and ev == "E":
            open_ckpt.pop(proc, None)
            quiesced.pop(proc, None)


def _check_refill_before_real(segment, violations) -> None:
    for event in segment:
        if event["kind"] != "refill.poll":
            continue
        private_before = event.get("private_before", 0)
        served_private = event.get("served_private", 0)
        served_real = event.get("served_real", 0)
        if served_real > 0 and served_private < private_before:
            violations.append(
                f"[refill-before-real] {event['proc']} served "
                f"{served_real} real completion(s) at "
                f"t={event.get('t', 0.0):.6f} while {private_before - served_private} "
                "drained completion(s) still sat in the private queue "
                "(Principle 5)")


def _check_replay_balance(segment, violations) -> None:
    for event in segment:
        if event["kind"] != "replay" or event["ev"] != "E":
            continue
        expected = event.get("expected")
        reposts = event.get("reposts")
        if expected is None or reposts is None:
            continue
        if reposts != expected:
            violations.append(
                f"[replay-balance] {event['proc']} replay re-posted "
                f"{reposts} WQE(s) but the surviving logs held "
                f"{expected} (Principles 3/6)")


def _check_precopy_shrink(segment, violations) -> None:
    # per migrating proc: the previous transferred round's byte count,
    # reset at each migrate span begin (a retry starts dirty tracking
    # over, so its round 1 may legitimately exceed the aborted attempt's
    # last round)
    prev_bytes: Dict[str, float] = {}
    for event in segment:
        kind, ev, proc = event["kind"], event["ev"], event["proc"]
        if kind == "migrate" and ev == "B":
            prev_bytes.pop(proc, None)
        elif kind == "migrate.precopy.round" and ev == "B":
            nbytes = float(event.get("bytes", 0.0))
            prev = prev_bytes.get(proc)
            if prev is not None and nbytes > prev + _T_EPS:
                violations.append(
                    f"[precopy-shrink] {proc} round "
                    f"{event.get('round')} shipped {nbytes:.0f} dirty "
                    f"bytes at t={event.get('t', 0.0):.6f}, more than "
                    f"the previous round's {prev:.0f} — a non-shrinking "
                    "residue must ride the stop-and-copy")
            prev_bytes[proc] = nbytes


def _check_pagein_before_compute(segment, violations) -> None:
    # per proc: faulted regions whose page-in has not ended yet
    outstanding: Dict[str, set] = {}
    for event in segment:
        kind, ev, proc = event["kind"], event["ev"], event["proc"]
        if kind == "migrate.fault":
            outstanding.setdefault(proc, set()).add(event.get("region"))
        elif kind == "migrate.pagein" and ev == "E":
            outstanding.get(proc, set()).discard(event.get("region"))
        elif kind == "migrate.compute":
            pending = outstanding.get(proc)
            if pending:
                names = ", ".join(sorted(map(str, pending))[:4])
                violations.append(
                    f"[pagein-before-compute] {proc} ran a compute tick "
                    f"at t={event.get('t', 0.0):.6f} with {len(pending)} "
                    f"faulted region(s) not yet paged in ({names})")


def _check_chunk_balance(segment, violations) -> None:
    # self-contained per-record check: the dirty chunk count can never
    # exceed the chunk total on the same record
    for event in segment:
        if "chunks" not in event or "chunks_dirty" not in event:
            continue
        total = event["chunks"]
        dirty = event["chunks_dirty"]
        if not 0 <= dirty <= total:
            violations.append(
                f"[chunk-balance] {event['proc']} {event['kind']} at "
                f"t={event.get('t', 0.0):.6f} reports {dirty} dirty "
                f"chunk(s) of {total} total")


def _check_admission_before_put(segment, violations) -> None:
    # per proc: outstanding admission credits; a service.put B consumes
    # one (rejected puts emit service.reject and never open a put span)
    credits: Dict[str, int] = {}
    for event in segment:
        kind, ev, proc = event["kind"], event["ev"], event["proc"]
        if kind == "service.admit":
            credits[proc] = credits.get(proc, 0) + 1
        elif kind == "service.put" and ev == "B":
            have = credits.get(proc, 0)
            if have < 1:
                violations.append(
                    f"[admission-before-put] {proc} opened a service.put "
                    f"span at t={event.get('t', 0.0):.6f} (tenant "
                    f"{event.get('tenant')!r}) with no outstanding "
                    "service.admit grant")
            else:
                credits[proc] = have - 1


def _check_preempt_quiesce_before_reclaim(segment, violations) -> None:
    # per job: whether a service.preempt span is open, and whether
    # service.quiesce has fired inside it
    open_preempt: Dict[str, bool] = {}
    for event in segment:
        kind, ev = event["kind"], event["ev"]
        job = event.get("job")
        if kind == "service.preempt":
            if ev == "B":
                open_preempt[job] = False
            else:
                open_preempt.pop(job, None)
        elif kind == "service.quiesce" and job in open_preempt:
            open_preempt[job] = True
        elif kind == "service.reclaim" and job in open_preempt:
            if not open_preempt[job]:
                violations.append(
                    f"[preempt-quiesce-before-reclaim] job {job} had its "
                    f"node slots reclaimed at t={event.get('t', 0.0):.6f} "
                    "before service.quiesce reported the gang frozen")


def _check_service_conservation(segment, violations) -> None:
    # self-contained per-record check on the admission ledger rows
    for event in segment:
        if event["kind"] != "service.account":
            continue
        admitted = float(event.get("bytes_admitted", 0.0))
        stored = float(event.get("bytes_stored", 0.0))
        rejected = float(event.get("bytes_rejected", 0.0))
        slack = max(1.0, 1e-6 * abs(admitted))
        if abs(admitted - (stored + rejected)) > slack:
            violations.append(
                f"[service-conservation] tenant {event.get('tenant')!r} "
                f"ledger off balance at t={event.get('t', 0.0):.6f}: "
                f"admitted {admitted:.0f} != stored {stored:.0f} + "
                f"rejected {rejected:.0f}")


def check_trace_invariants(events: List[Dict[str, Any]],
                           dropped: int = 0) -> List[str]:
    """Return every invariant violation found in ``events`` (empty list
    when the trace is clean).  ``dropped`` is the tracer's ring-eviction
    count: non-zero disables the history-dependent checks."""
    violations: List[str] = []
    for segment in split_segments(events):
        if dropped == 0:
            _check_capture_after_quiesce(segment, violations)
            _check_precopy_shrink(segment, violations)
            _check_pagein_before_compute(segment, violations)
            _check_admission_before_put(segment, violations)
            _check_preempt_quiesce_before_reclaim(segment, violations)
        _check_refill_before_real(segment, violations)
        _check_replay_balance(segment, violations)
        _check_chunk_balance(segment, violations)
        _check_service_conservation(segment, violations)
    return violations


def assert_trace_invariants(events: List[Dict[str, Any]],
                            dropped: int = 0) -> None:
    """Raise :class:`TraceInvariantViolation` if any check fails."""
    violations = check_trace_invariants(events, dropped=dropped)
    if violations:
        raise TraceInvariantViolation(violations)
