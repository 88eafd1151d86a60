"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit status 0 when every rule is within its checked-in budget
(``analysis_budget.json``), 1 when any rule carries new unsuppressed
debt.  This is the command the CI ``analysis`` job runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ALL_RULES, run_analysis
from .budget import DEFAULT_BUDGET_FILE, write_budget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="verbs-protocol invariant / shadow-isolation / "
                    "determinism analysis gate")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to scan "
                             "(default: src)")
    parser.add_argument("--budget", default=DEFAULT_BUDGET_FILE,
                        help="lint budget file "
                             f"(default: {DEFAULT_BUDGET_FILE})")
    parser.add_argument("--update-budget", action="store_true",
                        help="rewrite the budget file to current "
                             "unsuppressed counts (the ratchet)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable findings on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(ALL_RULES.items()):
            print(f"{rule:24s} {desc}")
        return 0

    paths = args.paths or ["src"]
    if args.update_budget:
        findings, _violations, _slack = run_analysis(paths, args.budget)
        data = write_budget(findings, Path(args.budget))
        print(f"wrote {args.budget}: {json.dumps(data)}")
        return 0

    findings, violations, slack = run_analysis(paths, args.budget)
    if args.as_json:
        print(json.dumps({
            "findings": [vars(f) for f in findings],
            "violations": violations,
            "slack": slack,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        unsuppressed = sum(1 for f in findings if not f.suppressed)
        print(f"-- {len(findings)} finding(s): {unsuppressed} "
              f"unsuppressed, {len(findings) - unsuppressed} suppressed")
        for v in violations:
            print(f"BUDGET VIOLATION: {v}", file=sys.stderr)
        for s in slack:
            print(f"budget slack: {s}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
