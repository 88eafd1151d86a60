"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit status 0 when every finding is suppressed, 1 on any unsuppressed
finding.  This is the command the CI ``analysis`` job runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ALL_RULES, run_analysis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="shadow-isolation / determinism analysis gate")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to scan "
                             "(default: src)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable findings on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(ALL_RULES.items()):
            print(f"{rule:24s} {desc}")
        return 0

    findings = run_analysis(args.paths or ["src"])
    unsuppressed = sum(1 for f in findings if not f.suppressed)
    if args.as_json:
        print(json.dumps({
            "findings": [vars(f) for f in findings],
            "unsuppressed": unsuppressed,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"-- {len(findings)} finding(s): {unsuppressed} "
              f"unsuppressed, {len(findings) - unsuppressed} suppressed")
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
