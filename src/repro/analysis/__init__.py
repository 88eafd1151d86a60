"""repro.analysis — the verbs-protocol analysis gate.

Two static passes and two runtime checkers keep the shadow-virtualization
and determinism disciplines the paper depends on machine-checked instead
of convention-checked:

* :mod:`.lint` — AST shadow-isolation and determinism rules over
  ``src/repro`` (Principle 1, §3.2, deterministic replay, RNG namespace
  taint);
* :mod:`.findings` — ``stale-suppression``: every ``# repro: allow()``
  waiver must still silence a real finding or it becomes one;
* :mod:`.protocol` / :mod:`.chunksan` — the opt-in runtime checkers:
  :class:`ProtocolMonitor` (QP state machine, WQE-log balance, rkey
  translation) and :class:`ChunkSan` (shadow full-hash oracle proving
  chunk stamps are a superset of the true content diff).

The chunk-stamp discipline needs no static pass: ``Region.buffer`` is
read-only, so every write outside ``memory/`` goes through a writer that
stamps what it wrote (DESIGN.md §14).

CLI: ``python -m repro.analysis [paths] [--budget FILE]``.
"""

from .budget import charge, load_budget, render_report, write_budget
from .chunksan import (
    ChunkSan,
    ChunkSanError,
    install_chunksan,
    sanitized,
    uninstall_chunksan,
)
from .findings import Finding, STALE_RULES
from .lint import LINT_RULES, lint_paths
from .protocol import (
    ProtocolMonitor,
    ProtocolViolation,
    install_monitor,
    monitored,
    uninstall_monitor,
)

__all__ = [
    "Finding",
    "LINT_RULES",
    "STALE_RULES",
    "lint_paths",
    "load_budget",
    "charge",
    "render_report",
    "write_budget",
    "ProtocolMonitor",
    "ProtocolViolation",
    "install_monitor",
    "uninstall_monitor",
    "monitored",
    "ChunkSan",
    "ChunkSanError",
    "install_chunksan",
    "uninstall_chunksan",
    "sanitized",
    "run_analysis",
]

ALL_RULES = {**LINT_RULES, **STALE_RULES}


def run_analysis(paths, budget_path=None):
    """Static passes charged against the budget, file by file.

    Lints each source file, then audits that file's ``# repro: allow()``
    comments against its findings so dead waivers surface as
    ``stale-suppression``.  Returns ``(findings, violations, slack)``;
    the gate passes iff ``violations`` is empty.
    """
    import os
    from pathlib import Path

    from .budget import DEFAULT_BUDGET_FILE
    from .findings import stale_suppressions
    from .lint import iter_sources, lint_file

    findings = []
    for path, root in iter_sources(paths):
        per_file = lint_file(path, root)
        per_file.extend(stale_suppressions(
            path.read_text(), os.path.relpath(path), per_file))
        findings.extend(per_file)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    budget = load_budget(
        Path(budget_path) if budget_path else Path(DEFAULT_BUDGET_FILE))
    violations, slack = charge(findings, budget)
    return findings, violations, slack
