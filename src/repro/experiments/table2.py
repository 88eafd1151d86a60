"""Table 2: decomposition of the DMTCP overhead from Table 1 into a
startup overhead s and runtime-slope r, via the paper's two-equation fit

    o1 = s + r * t1        o2 = s + r * t2

using, per process count, the two largest classes measured."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .tables import Table

__all__ = ["PAPER_DERIVED", "derive", "run"]

#: paper's Table 2: nprocs -> (classes, startup s, slope r %)
PAPER_DERIVED = {
    64: ("C,D", 3.1, 0.8), 128: ("C,D", 4.4, 1.5), 256: ("C,D", 5.0, 0.9),
    512: ("D,E", 7.6, 1.0), 1024: ("D,E", 8.7, 1.3), 2048: ("D,E", 12.9, 1.7),
}

_PAIRS = {64: ("C", "D"), 128: ("C", "D"), 256: ("C", "D"),
          512: ("D", "E"), 1024: ("D", "E"), 2048: ("D", "E")}


def derive(measured: Dict[Tuple[str, int], Tuple[float, float]],
           nprocs: int) -> Optional[Tuple[float, float]]:
    """(startup seconds, slope fraction) from two classes at ``nprocs``."""
    k1, k2 = _PAIRS[nprocs]
    if (k1, nprocs) not in measured or (k2, nprocs) not in measured:
        return None
    t1, d1 = measured[(k1, nprocs)]
    t2, d2 = measured[(k2, nprocs)]
    o1, o2 = d1 - t1, d2 - t2
    r = (o2 - o1) / (t2 - t1)
    s = o1 - r * t1
    return s, r


def run(table1=None, max_procs: int = 512) -> Table:
    """Derive Table 2 from a (possibly freshly run) Table 1."""
    from . import table1 as t1mod

    if table1 is None:
        table1 = t1mod.run(max_procs=max_procs)
    measured: Dict[Tuple[str, int], Tuple[float, float]] = {}
    for row in table1.rows:
        bench, nprocs, native, dmtcp = row[0], row[1], row[2], row[3]
        measured[(bench.split(".")[1], nprocs)] = (native, dmtcp)

    table = Table(
        "Table 2", "Derived DMTCP startup overhead and runtime slope",
        ["procs", "classes", "startup(s)", "slope(%)",
         "paper-startup", "paper-slope(%)"])
    for nprocs, (classes, p_s, p_r) in PAPER_DERIVED.items():
        got = derive(measured, nprocs)
        if got is None:
            continue
        s, r = got
        table.add(nprocs, classes, s, 100 * r, p_s, p_r)
    table.note("startup grows ~ N^0.41 (the paper calls it 'cube root')")
    return table
