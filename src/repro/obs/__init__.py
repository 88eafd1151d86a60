"""repro.obs — observability for the checkpoint-restart lifecycle.

Structured tracing (:mod:`.trace`), trace invariants
(:mod:`.invariants`), and the Table 2-style per-phase report
(:mod:`.report` / ``python -m repro.obs report``).  The trace is the one
record a run keeps: every count the report prints is a fold over it.

Hooked into the simulation the same way :mod:`repro.analysis` is:
:func:`traced` enters a tracer in the observer slot :mod:`repro.hooks`
— the instrumented packages never import this one.
"""

from .invariants import (
    TraceInvariantViolation,
    assert_trace_invariants,
    check_trace_invariants,
    split_segments,
)
from .report import (chunk_counters, decompose, migration_summary, render,
                     render_migration, render_store, store_summary,
                     trace_scenario)
from .trace import (
    Tracer,
    canonicalize,
    load_trace,
    traced,
)

__all__ = [
    "Tracer",
    "TraceInvariantViolation",
    "assert_trace_invariants",
    "canonicalize",
    "check_trace_invariants",
    "chunk_counters",
    "decompose",
    "load_trace",
    "migration_summary",
    "render",
    "render_migration",
    "render_store",
    "split_segments",
    "store_summary",
    "trace_scenario",
    "traced",
]
