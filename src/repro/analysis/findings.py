"""The shared finding model for every static pass.

A finding pins one rule violation to one source line.  Suppression is
per-line and per-rule: a trailing ``# repro: allow(rule-a, rule-b)``
comment marks that line's findings for those rules as acknowledged debt.
Suppressed findings are still collected and reported (so the debt stays
visible), but they never fail the gate; any unsuppressed finding does.

Suppressions are parsed from real COMMENT tokens (via :mod:`tokenize`),
so an ``allow(...)`` mentioned in a docstring or string literal never
registers.  A suppression that silences nothing is itself a finding —
``stale-suppression`` — so dead waivers cannot accumulate: every
``# repro: allow(rule)`` must keep earning its place, and removing the
violation means removing the comment in the same change.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

__all__ = [
    "Finding",
    "parse_suppressions",
    "apply_suppressions",
    "stale_suppressions",
    "STALE_RULE",
    "STALE_RULES",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")

STALE_RULE = "stale-suppression"
#: rule-table entry, merged into ALL_RULES alongside the other passes
STALE_RULES: Dict[str, str] = {
    STALE_RULE: "a '# repro: allow(rule)' comment that suppresses "
                "nothing on its line — a dead waiver; delete it or fix "
                "the rule name",
}


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          # display path (as discovered under the scan root)
    line: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}]{mark} {self.message}"


def _comment_lines(source: str):
    """(line, comment-text) for every real COMMENT token; falls back to
    treating every line as a potential comment when the source does not
    tokenize (the AST passes report the syntax error separately)."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            yield lineno, line


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → set of rule names allowed on that line.

    The special rule name ``*`` allows every rule on the line.  Only
    real comments count: an ``allow(...)`` inside a docstring or string
    literal is inert.
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in _comment_lines(source):
        match = _ALLOW_RE.search(text)
        if match is not None:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            allowed.setdefault(lineno, set()).update(rules)
    return allowed


def apply_suppressions(findings: Iterable[Finding],
                       allowed: Dict[int, Set[str]]) -> List[Finding]:
    out = []
    for finding in findings:
        rules = allowed.get(finding.line, ())
        if finding.rule in rules or "*" in rules:
            finding.suppressed = True
        out.append(finding)
    return out


def stale_suppressions(source: str, display_path: str,
                       findings: Iterable[Finding]) -> List[Finding]:
    """Findings for every ``allow()`` entry that silenced nothing.

    Call with the post-suppression findings of the lint pass over one
    file: an allow entry is "used" iff some suppressed finding
    on its line carries that rule (or, for ``*``, any suppressed finding
    exists on the line).  Unused entries become ``stale-suppression``
    findings, themselves suppressible the usual way (so a deliberately
    forward-looking waiver can say ``allow(some-rule,
    stale-suppression)`` with a justification).  Every entry is audited,
    misspelled rule names and ``*`` included.
    """
    by_line: Dict[int, Set[str]] = {}
    for finding in findings:
        if finding.suppressed:
            by_line.setdefault(finding.line, set()).add(finding.rule)
    stale: List[Finding] = []
    allowed = parse_suppressions(source)
    for lineno in sorted(allowed):
        used = by_line.get(lineno, set())
        for rule in sorted(allowed[lineno]):
            if rule == STALE_RULE:
                continue    # meta-entry: only meaningful with others
            if rule == "*":
                if used:
                    continue
                what = "allow(*)"
            else:
                if rule in used:
                    continue
                what = f"allow({rule})"
            stale.append(Finding(
                rule=STALE_RULE, path=display_path, line=lineno,
                message=f"{what} suppresses nothing on this line — "
                        "dead waiver; delete it or fix the rule name"))
    return apply_suppressions(stale, allowed)
