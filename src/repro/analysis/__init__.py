"""repro.analysis — the verbs-protocol analysis gate.

Five coordinated passes keep the shadow-virtualization and chunk-stamp
disciplines the paper depends on machine-checked instead of
convention-checked:

* :mod:`.lint` — AST shadow-isolation and determinism rules over
  ``src/repro`` (Principle 1, §3.2, deterministic replay);
* :mod:`.concurrency` — lockset-style check that thread-pool capture
  workers never touch coordinator-owned Region dirty tracking;
* :mod:`.escape` — dirty-write escape analysis: raw buffer views,
  untracked ``region.buffer`` writes, RNG namespace taint;
* :mod:`.findings` — ``stale-suppression``: every ``# repro: allow()``
  waiver must still silence a real finding or it becomes one;
* :mod:`.protocol` / :mod:`.chunksan` — the opt-in runtime checkers:
  :class:`ProtocolMonitor` (QP state machine, WQE-log balance, rkey
  translation) and :class:`ChunkSan` (shadow full-hash oracle proving
  chunk stamps are a superset of the true content diff).

CLI: ``python -m repro.analysis [paths] [--budget FILE] [--escape]``.
"""

from .budget import charge, load_budget, render_report, write_budget
from .chunksan import (
    ChunkSan,
    ChunkSanError,
    install_chunksan,
    sanitized,
    uninstall_chunksan,
)
from .concurrency import CONCURRENCY_RULES, check_paths
from .escape import ESCAPE_RULES, escape_paths
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
    "CONCURRENCY_RULES",
    "ESCAPE_RULES",
    "STALE_RULES",
    "lint_paths",
    "check_paths",
    "escape_paths",
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

ALL_RULES = {**LINT_RULES, **CONCURRENCY_RULES, **ESCAPE_RULES,
             **STALE_RULES}

#: the full gate; a subset selects specific passes (escape-only runs
#: audit only escape-rule waivers for staleness)
ALL_PASSES = ("lint", "concurrency", "escape", "stale")


def run_analysis(paths, budget_path=None, passes=None):
    """Static passes charged against the budget, file by file.

    Runs every pass in ``passes`` (default: all of lint, concurrency,
    escape, stale) over each source file, then audits that file's
    ``# repro: allow()`` comments against the combined findings so dead
    waivers surface as ``stale-suppression``.  Returns ``(findings,
    violations, slack)``; the gate passes iff ``violations`` is empty.
    """
    import os
    from pathlib import Path

    from .budget import DEFAULT_BUDGET_FILE
    from .concurrency import check_file
    from .escape import escape_file
    from .findings import stale_suppressions
    from .lint import iter_sources, lint_file

    selected = set(passes) if passes is not None else set(ALL_PASSES)
    eligible = None
    if not selected.issuperset({"lint", "concurrency", "escape"}):
        eligible = set()
        if "lint" in selected:
            eligible |= set(LINT_RULES)
        if "concurrency" in selected:
            eligible |= set(CONCURRENCY_RULES)
        if "escape" in selected:
            eligible |= set(ESCAPE_RULES)

    findings = []
    for path, root in iter_sources(paths):
        per_file = []
        if "lint" in selected:
            per_file.extend(lint_file(path, root))
        if "concurrency" in selected:
            per_file.extend(check_file(path))
        if "escape" in selected:
            per_file.extend(escape_file(path, root))
        if "stale" in selected:
            per_file.extend(stale_suppressions(
                path.read_text(), os.path.relpath(path), per_file,
                eligible))
        findings.extend(per_file)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    budget = load_budget(
        Path(budget_path) if budget_path else Path(DEFAULT_BUDGET_FILE))
    violations, slack = charge(findings, budget)
    return findings, violations, slack
