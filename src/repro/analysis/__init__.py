"""repro.analysis — the verbs-protocol analysis gate.

Two static passes and one runtime checker keep the shadow-virtualization
and determinism disciplines the paper depends on machine-checked instead
of convention-checked:

* :mod:`.lint` — AST shadow-isolation and determinism rules over
  ``src/repro`` (Principle 1, §3.2, deterministic replay, RNG namespace
  taint);
* :mod:`.findings` — ``stale-suppression``: every ``# repro: allow()``
  waiver must still silence a real finding or it becomes one;
* :mod:`.chunksan` — the opt-in runtime checker :class:`ChunkSan`
  (shadow full-hash oracle proving chunk stamps are a superset of the
  true content diff).

The verbs-protocol rules need no checker of their own: each is enforced
where it lives — the QP state machine by the driver, WQE-log balance by
:class:`~repro.core.ib_plugin.WqeLogError` and the ``replay-balance``
trace invariant, per-PD rkeys by ``InfinibandPlugin.translate_rkey``
(DESIGN.md §9).  The chunk-stamp discipline needs no static pass either:
``Region.buffer`` is read-only, so every write outside ``memory/`` goes
through a writer that stamps what it wrote (DESIGN.md §14).

CLI: ``python -m repro.analysis [paths]`` exits 1 on any unsuppressed
finding.
"""

from .chunksan import ChunkSan, ChunkSanError, sanitized
from .findings import Finding, STALE_RULES
from .lint import LINT_RULES, lint_paths

__all__ = [
    "Finding",
    "LINT_RULES",
    "STALE_RULES",
    "lint_paths",
    "ChunkSan",
    "ChunkSanError",
    "sanitized",
    "run_analysis",
]

ALL_RULES = {**LINT_RULES, **STALE_RULES}


def run_analysis(paths):
    """Both static passes, file by file.

    Lints each source file, then audits that file's ``# repro: allow()``
    comments against its findings so dead waivers surface as
    ``stale-suppression``.  Returns the findings, suppressed ones
    included; the gate passes iff every one is suppressed.
    """
    import os

    from .findings import stale_suppressions
    from .lint import iter_sources, lint_file

    findings = []
    for path, root in iter_sources(paths):
        per_file = lint_file(path, root)
        per_file.extend(stale_suppressions(
            path.read_text(), os.path.relpath(path), per_file))
        findings.extend(per_file)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
