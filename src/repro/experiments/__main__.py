"""``python -m repro.experiments [--full] [--max-procs N] [--table K]``

Named sweeps delegate to their own CLIs::

    python -m repro.experiments fault_sweep [--smoke]
    python -m repro.experiments service_sweep [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import time

from . import TABLES, _run_table, run_all

_SWEEPS = ("fault_sweep", "service_sweep")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SWEEPS:
        import importlib
        module = importlib.import_module(f".{argv[0]}", __package__)
        return module.main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables")
    parser.add_argument("--full", action="store_true",
                        help="include the 1024/2048-process configurations")
    parser.add_argument("--max-procs", type=int, default=256,
                        help="cap Table 1/2 process counts (default 256)")
    parser.add_argument("--table", type=int, choices=sorted(TABLES),
                        help="regenerate a single table")
    parser.add_argument("--store", action="store_true",
                        help="Table 4: route the Lustre checkpoint "
                             "through the content-addressed multi-tier "
                             "store (repro.store)")
    args = parser.parse_args(argv)

    t0 = time.time()
    if args.table:
        print(_run_table(args.table, args.full, args.max_procs,
                         args.store).format())
    else:
        for table in run_all(full=args.full, max_procs=args.max_procs,
                             store=args.store):
            print(table.format())
            print()
    print(f"[done in {time.time() - t0:.1f}s wall]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
