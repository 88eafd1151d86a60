"""Table 3: checkpoint times and per-process image sizes for NAS LU.E
under different node-count x processes-per-node configurations."""

from __future__ import annotations

from ..apps.nas import lu_app
from ..hardware import MGHPCC
from .runner import run_nas
from .tables import Table

__all__ = ["PAPER", "run"]

#: (nodes, ppn) -> (ckpt seconds, image MB per process)
PAPER = {
    (128, 4): (70.8, 350.0),
    (64, 8): (136.6, 356.0),
    (32, 16): (222.6, 355.0),
    (128, 16): (70.2, 117.0),
}


def run(full: bool = False) -> Table:
    """The 2,048-process row (128x16) needs minutes; gate it on ``full``."""
    table = Table(
        "Table 3", "LU.E checkpoint time and image size per configuration",
        ["config", "procs", "ckpt(s)", "img/proc(MB)",
         "paper-ckpt", "paper-img"])
    for (nodes, ppn), (p_t, p_mb) in PAPER.items():
        nprocs = nodes * ppn
        if nprocs > 512 and not full:
            continue
        out = run_nas(lu_app, MGHPCC, nprocs, ppn=ppn, under="dmtcp",
                      app_kwargs={"klass": "E"}, checkpoint_after=2.0)
        table.add(f"{nodes}x{ppn}", nprocs, out.ckpt_seconds,
                  out.ckpt_image_mb, p_t, p_mb)
    table.note("checkpoint time tracks total image bytes per node "
               "(one disk head per node)")
    return table
