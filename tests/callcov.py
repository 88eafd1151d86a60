"""Call-coverage gate: the ``src/repro`` functions the suite never calls.

A pytest plugin.  Loaded with ``-p callcov`` (``tests/`` on the path), it
records every code object entered while the session runs, through
``sys.setprofile`` and ``threading.setprofile``, and at the end lists each
function of the ``repro`` package that was never called, with its line
span.  The session fails when an uncalled function lies outside
``experiments/`` and :data:`ALLOWED` does not name it with a reason, or
when :data:`ALLOWED` names a function that was called or is gone.

Run it over the whole suite but the 512-rank LU test, which costs
minutes under the profiler::

    PYTHONPATH=src:tests python -m pytest -p callcov -q \\
        --deselect tests/test_sim_scale.py::test_lu_512_node_crash_restores_bit_identically

Profiling starts when this module is imported, which ``-p`` does before
``conftest.py`` imports ``repro``, so a function that runs at import time
counts as called.  A decorated function's line span starts at its first
decorator.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, Iterator, List, Tuple

#: uncalled functions outside ``experiments/`` that the gate tolerates,
#: ``"<path under src/repro>::<qualname>"`` → why it stays
ALLOWED: Dict[str, str] = {
    "dmtcp/coordinator.py::Coordinator.wait_all_connected":
        "its event is pinned: deleting it drops one event per job and "
        "moves the ledger's witnessed event counts (ROADMAP item 4)",
    "hardware/node.py::Node.__repr__":
        "a debugger's view of a node; nothing prints one",
    "hardware/node.py::ProcessHost.__repr__":
        "a debugger's view of a process; nothing prints one",
    "ibverbs/rdmacm.py::CmId.__repr__":
        "a debugger's view of a connection id; nothing prints one",
}

#: uncalled functions here are listed but never fail the gate
_EXEMPT = "experiments/"

_ROOT = os.path.realpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "repro"))

_CO_NEWLOCALS = 0x2

#: id(code) → code of every code object entered; holding the code keeps
#: its id from being reused
_called: Dict[int, object] = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _called[id(code)] = code


sys.setprofile(_profile)
threading.setprofile(_profile)


def _functions(code, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """(qualname, code) of every named function nested in ``code``."""
    for const in code.co_consts:
        if not hasattr(const, "co_flags") or const.co_name.startswith("<"):
            continue
        if const.co_flags & _CO_NEWLOCALS:
            qualname = prefix + const.co_name
            yield qualname, const
            yield from _functions(const, qualname + ".<locals>.")
        else:   # a class body
            yield from _functions(const, prefix + const.co_name + ".")


def _span(code) -> int:
    lines = [line for _s, _e, line in code.co_lines() if line is not None]
    return max(lines, default=code.co_firstlineno) - code.co_firstlineno + 1


def uncalled() -> Tuple[int, List[Tuple[str, int]]]:
    """(functions in the package, [(name, lines) of each never called])."""
    seen = set()
    for code in list(_called.values()):
        path = os.path.realpath(code.co_filename)
        if path.startswith(_ROOT + os.sep):
            seen.add((os.path.relpath(path, _ROOT), code.co_firstlineno,
                      code.co_name))
    total = 0
    missed = []
    for directory, _dirs, files in os.walk(_ROOT):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            rel = os.path.relpath(path, _ROOT)
            with open(path) as fh:
                module = compile(fh.read(), path, "exec")
            for qualname, code in _functions(module):
                total += 1
                if (rel, code.co_firstlineno, code.co_name) not in seen:
                    missed.append((f"{rel}::{qualname}", _span(code)))
    return total, sorted(missed)


_report: List[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    total, missed = uncalled()
    gated = [(name, n) for name, n in missed
             if not name.startswith(_EXEMPT)]
    missed_names = {name for name, _n in missed}
    failing = [(name, n) for name, n in gated if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - missed_names)
    _report.append(
        f"call coverage: {len(missed)} of {total} repro functions never "
        f"called ({sum(n for _name, n in missed)} lines); "
        f"{len(gated)} outside {_EXEMPT} "
        f"({sum(n for _name, n in gated)} lines), "
        f"{len(gated) - len(failing)} allowlisted")
    for name, n in missed:
        mark = "allowed" if name in ALLOWED else (
            "exempt" if name.startswith(_EXEMPT) else "UNCALLED")
        _report.append(f"  {mark:>8} {n:>4} lines  {name}")
    for name in stale:
        _report.append(f"     STALE allowlist entry (called or gone): {name}")
    if failing or stale:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
