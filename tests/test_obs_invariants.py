"""Trace invariants over real checkpoint-restart runs (positive), plus
one seeded negative trace per invariant (synthetic).

The positive half runs LU/FT chaos scenarios and the injected-crash
restart path under the lifecycle tracer and asserts the paper's
ordering — drain → capture → write on every checkpoint, restart →
replay → refill on every restart — comes out of the recorded trace.
The negative half builds small seeded synthetic traces that each break
exactly one invariant and asserts the checker names it.
"""

import json
import random
import re

import pytest

from repro.faults.harness import run_chaos_nas, verify_restart_path
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.obs import (
    assert_trace_invariants,
    check_trace_invariants,
    decompose,
    split_segments,
    traced,
)
from repro.obs.invariants import TraceInvariantViolation

from obs_asserts import assert_ordering_in, events_of_kind

RANKS = [f"mpi.r{i}" for i in range(4)]


# -- positive: real runs under the tracer -------------------------------------


@pytest.fixture(scope="module")
def lu_trace():
    """A failure-free LU run with several checkpoints, traced."""
    with traced() as tracer:
        run_chaos_nas(app="lu", klass="A", nprocs=4, iters_sim=24,
                      seed=2014, ckpt_interval=1.0,
                      schedule=FixedSchedule([]))
    assert tracer.events
    return tracer.events


@pytest.fixture(scope="module")
def ft_crash_outcome():
    """FT crashed after its first completed checkpoint, traced: the
    recovery manager restarts the job from the image.  Returns
    ``(outcome, events)``."""
    with traced() as tracer:
        out = run_chaos_nas(app="ft", klass="B", nprocs=4, iters_sim=8,
                            seed=77, ckpt_interval=20.0,
                            schedule=FixedSchedule([FailureEvent(
                                t=60.0, kind="node-crash",
                                node_index=1)]),
                            backoff_base=0.25)
    return out, tracer.events


def test_lu_trace_phase_ordering(lu_trace):
    for rank in RANKS:
        assert_ordering_in(lu_trace, rank, [
            "ckpt", "ckpt.quiesce", "ckpt.drain", "drain.quiesce",
            "ckpt.capture", "ckpt.write"])
    assert_trace_invariants(lu_trace)


def test_lu_trace_checkpoints_complete(lu_trace):
    begins = events_of_kind(lu_trace, "ckpt", "B")
    ends = events_of_kind(lu_trace, "ckpt", "E")
    assert len(begins) == len(ends) > 0
    assert {e["proc"] for e in ends} == set(RANKS)


def test_lu_trace_decomposition_coverage(lu_trace):
    """Acceptance gate: the named phases explain >= 95% of the total
    per-process checkpoint time on a traced LU run."""
    decomp = decompose(lu_trace)
    assert decomp["n_checkpoints"] > 0
    assert decomp["total_seconds"] > 0
    assert decomp["coverage"] >= 0.95
    named = sum(r["seconds"] for r in decomp["phases"]
                if r["phase"] != "other")
    assert abs(named - decomp["total_seconds"]) \
        <= 0.05 * decomp["total_seconds"]


def test_ft_crash_restart_trace(ft_crash_outcome):
    out, events = ft_crash_outcome
    assert out.recovery.n_restarts >= 1
    faults = [e for e in events_of_kind(events, "fault.inject")
              if e.get("applied") and e.get("fatal")]
    assert faults, "the injected node crash must appear in the trace"
    restart_marks = events_of_kind(events, "harness.restart")
    assert len(restart_marks) == out.recovery.n_restarts
    # the crash lands strictly before the recovery restart mark
    assert faults[0]["seq"] < restart_marks[0]["seq"]
    # checkpoints continue (and complete) after the restart
    later_ckpts = [e for e in events_of_kind(events, "ckpt", "E")
                   if e["seq"] > restart_marks[0]["seq"]]
    assert later_ckpts
    assert_trace_invariants(events)


def test_restart_path_refill_replay_ordering(trace_invariants):
    """The injected-crash dmtcp_restart path, recorded by the autouse
    fixture's tracer: restart → id re-exchange → replay → refill, with
    the replay re-post count balancing the surviving WQE logs."""
    verdict = verify_restart_path(seed=2014)
    assert verdict["qps_remapped"] and verdict["mrs_remapped"]
    harness = trace_invariants
    for rank in RANKS:
        harness.assert_ordering(rank, [
            "drain.quiesce", "ckpt.capture", "ckpt.write",
            "restart", "ns.publish", "replay", "refill.poll"])
    replays = harness.of_kind("replay", "E")
    assert len(replays) == len(RANKS)
    for event in replays:
        assert event["reposts"] == event["expected"] > 0
    refills = [e for e in harness.of_kind("refill.poll")
               if e.get("restarted")]
    assert refills, "post-restart polls must surface in the trace"
    assert any(e.get("served_real", 0) > 0 for e in refills)
    # (the fixture asserts the full invariant set at teardown)


# -- negative: seeded synthetic traces, one per invariant ---------------------


class _TraceBuilder:
    """Seeded synthetic event-list builder (strictly increasing sim
    time with seeded jitter, monotonically increasing seq)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seq = 0
        self._t = 0.0
        self.events = []

    def emit(self, kind, ev, proc, **fields):
        self._t += self._rng.uniform(1e-4, 1e-2)
        event = {"seq": self._seq, "kind": kind, "ev": ev, "proc": proc,
                 "t": round(self._t, 6)}
        event.update(fields)
        self.events.append(event)
        self._seq += 1
        return event

    def rewind(self):
        """Jump the sim clock back to zero: a fresh Environment."""
        self._t = 0.0


def _violation_kinds(events, dropped=0):
    return [v.split("]")[0].lstrip("[")
            for v in check_trace_invariants(events, dropped=dropped)]


def test_negative_capture_without_quiesce():
    b = _TraceBuilder(seed=41)
    b.emit("ckpt", "B", "mpi.r0", span=1, epoch=1)
    b.emit("ckpt.quiesce", "B", "mpi.r0", span=2)
    b.emit("ckpt.quiesce", "E", "mpi.r0", span=2)
    # no drain.quiesce: memory is captured with CQs possibly live
    b.emit("ckpt.capture", "B", "mpi.r0", span=3)
    assert _violation_kinds(b.events) == ["capture-after-quiesce"]
    with pytest.raises(TraceInvariantViolation) as excinfo:
        assert_trace_invariants(b.events)
    assert len(excinfo.value.violations) == 1

    # the well-ordered twin is clean
    g = _TraceBuilder(seed=41)
    g.emit("ckpt", "B", "mpi.r0", span=1, epoch=1)
    g.emit("drain.quiesce", "P", "mpi.r0", epoch=1, cqs=2)
    g.emit("ckpt.capture", "B", "mpi.r0", span=3)
    assert check_trace_invariants(g.events) == []


def test_negative_refill_before_real():
    b = _TraceBuilder(seed=42)
    b.emit("refill.poll", "P", "mpi.r1",
           private_before=3, served_private=1, served_real=2,
           restarted=True)
    assert _violation_kinds(b.events) == ["refill-before-real"]

    g = _TraceBuilder(seed=42)
    g.emit("refill.poll", "P", "mpi.r1",
           private_before=3, served_private=3, served_real=2,
           restarted=True)
    assert check_trace_invariants(g.events) == []


def test_negative_replay_balance():
    b = _TraceBuilder(seed=43)
    b.emit("replay", "B", "mpi.r2", span=7, expected=8)
    b.emit("replay", "E", "mpi.r2", span=7, expected=8, reposts=7)
    assert _violation_kinds(b.events) == ["replay-balance"]

    g = _TraceBuilder(seed=43)
    g.emit("replay", "B", "mpi.r2", span=7, expected=8)
    g.emit("replay", "E", "mpi.r2", span=7, expected=8, reposts=8)
    assert check_trace_invariants(g.events) == []


def test_dropped_ring_disables_history_checks():
    """With ring evictions the prefix may be gone: history-dependent
    checks are skipped, self-contained ones still run."""
    b = _TraceBuilder(seed=45)
    b.emit("ckpt", "B", "mpi.r0", span=1, epoch=1)
    b.emit("ckpt.capture", "B", "mpi.r0", span=2)   # no drain.quiesce
    b.emit("refill.poll", "P", "mpi.r0",
           private_before=2, served_private=0, served_real=1)
    assert sorted(_violation_kinds(b.events)) == [
        "capture-after-quiesce", "refill-before-real"]
    assert _violation_kinds(b.events, dropped=5) == ["refill-before-real"]


def test_report_cli_lu_acceptance(tmp_path, capsys):
    """Acceptance gate, CLI form: ``python -m repro.obs report`` on a
    traced LU run prints every phase row and a named-phase sum within
    5% of total checkpoint time, and the sink round-trips."""
    from repro.obs.__main__ import main

    sink = str(tmp_path / "lu.jsonl")
    assert main(["report", "--iters", "12", "--sink", sink]) == 0
    out = capsys.readouterr().out
    assert "checkpoint-time decomposition" in out
    for phase in ("quiesce", "drain", "capture", "compress", "write",
                  "refill", "replay", "other"):
        assert phase in out
    match = re.search(r"coverage (\d+(?:\.\d+)?)% of", out)
    assert match and float(match.group(1)) >= 95.0
    assert "# trace invariants: all clean" in out
    # the saved JSONL re-analyzes to the same decomposition
    assert main(["report", "--trace", sink]) == 0
    assert "checkpoint-time decomposition" in capsys.readouterr().out


def test_report_cli_json(capsys):
    from repro.obs.__main__ import main

    assert main(["report", "--iters", "12", "--json"]) == 0
    out = capsys.readouterr().out
    body = "\n".join(line for line in out.splitlines()
                     if not line.startswith("#"))
    payload = json.loads(body)
    assert payload["violations"] == []
    decomp = payload["decomposition"]
    assert decomp["coverage"] >= 0.95
    assert {row["phase"] for row in decomp["phases"]} == {
        "quiesce", "drain", "capture", "compress", "write",
        "refill", "replay", "other"}


def test_report_cli_store_sim_and_service_sections(capsys):
    """``--store``, ``--sim`` and ``--service`` each add their section,
    and an incremental run's chunk counters see clean chunks."""
    from repro.obs.__main__ import main

    assert main(["report", "--ckpt-interval", "0.8", "--incremental",
                 "--store", "--sim"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"# counters: ckpt\.chunks_clean=[1-9]\d*, "
                     r"ckpt\.chunks_dirty=[1-9]\d*\n", out)
    assert "# sim kernel:" in out and "checkpoint store:" in out
    assert main(["report", "--service", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint service: 2 job(s) done of 2 arrived" in out


def test_chunk_counters_fold_full_and_incremental_captures():
    """A full capture dirties every chunk of the regions it records; an
    incremental one reports its own counts; a region recorded outside a
    checkpoint capture (BLCR's) counts for nothing."""
    from repro.memory import CHUNK_BYTES
    from repro.obs import Tracer, chunk_counters

    tracer = Tracer()
    full = tracer.begin("ckpt.capture", "p0", 0.0)
    tracer.emit("capture.region", "p0", 0.0, bytes=2 * CHUNK_BYTES + 1)
    tracer.emit("capture.region", "p0", 0.0, bytes=0)
    tracer.emit("capture.region", "p1", 0.0, bytes=CHUNK_BYTES)
    tracer.end(full, 1.0, mode="full")
    incr = tracer.begin("ckpt.capture", "p0", 2.0)
    tracer.emit("capture.region", "p0", 2.0, bytes=CHUNK_BYTES, chunks=1,
                chunks_dirty=0)
    tracer.end(incr, 3.0, mode="incremental", chunks=10, chunks_dirty=4)
    assert chunk_counters(tracer.events) == {
        "ckpt.chunks_clean": 6.0, "ckpt.chunks_dirty": 7.0}
    assert chunk_counters([]) == {}


def test_segments_reset_history():
    """A sim-clock rewind (fresh Environment) starts a new segment:
    drain state from the previous scenario never leaks forward."""
    b = _TraceBuilder(seed=46)
    b.emit("ckpt", "B", "mpi.r0", span=1, epoch=1)
    b.emit("drain.quiesce", "P", "mpi.r0", epoch=1, cqs=2)
    b.emit("ckpt.capture", "B", "mpi.r0", span=2)
    b.emit("ckpt", "E", "mpi.r0", span=1)
    b.rewind()
    b.emit("ckpt", "B", "mpi.r0", span=3, epoch=1)
    b.emit("ckpt.capture", "B", "mpi.r0", span=4)   # quiesce was last env
    assert len(split_segments(b.events)) == 2
    assert _violation_kinds(b.events) == ["capture-after-quiesce"]
