"""repro.obs — observability for the checkpoint-restart lifecycle.

Structured tracing (:mod:`.trace`), metrics (:mod:`.metrics`), trace
invariants (:mod:`.invariants`), and the Table 2-style per-phase report
(:mod:`.report` / ``python -m repro.obs report``).

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
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (decompose, migration_summary, render,
                     render_migration, render_store, store_summary,
                     trace_scenario)
from .trace import (
    Tracer,
    canonicalize,
    load_trace,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "TraceInvariantViolation",
    "assert_trace_invariants",
    "canonicalize",
    "check_trace_invariants",
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
