"""Experiment harness: one module per table in the paper's evaluation.

Run everything (quick configuration) with::

    python -m repro.experiments

or regenerate a single table::

    from repro.experiments import table4
    table4.run().print()
"""

from . import (
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from .runner import Outcome, run_nas, run_upc_nas
from .tables import Table

__all__ = [
    "Outcome",
    "Table",
    "run_all",
    "run_nas",
    "run_upc_nas",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
]


#: table number -> its module
TABLES = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5,
          6: table6, 7: table7, 8: table8, 9: table9}

#: the settings each table's ``run`` takes; the others take none
_SETTINGS = {1: ("max_procs",), 2: ("max_procs",), 3: ("full",),
             4: ("store",), 5: ("full",)}


def _run_table(number: int, full: bool = False, max_procs: int = 256,
               store: bool = False) -> Table:
    """Regenerate Table ``number`` with the settings it takes: ``full``
    raises ``max_procs`` to 2048 and enables the 1,024/2,048-process
    configurations; ``store`` routes Table 4 through the chunk store."""
    settings = {"full": full, "max_procs": 2048 if full else max_procs,
                "store": store}
    return TABLES[number].run(
        **{name: settings[name] for name in _SETTINGS.get(number, ())})


def run_all(full: bool = False, max_procs: int = 256, store: bool = False):
    """Regenerate every table; returns them in paper order.

    ``full`` enables the 1,024/2,048-process configurations (several
    wall-clock minutes each); ``store`` routes Table 4 through the chunk
    store."""
    t1 = _run_table(1, full, max_procs)
    return [t1, table2.run(table1=t1)] + [
        _run_table(number, full, max_procs, store)
        for number in range(3, 10)]
