"""Table 5: checkpointing with and without DMTCP's default gzip —
numerical data barely compresses, so sizes match and gzip costs ~5%."""

from __future__ import annotations

from ..apps.nas import lu_app
from ..dmtcp import RunConfig
from ..hardware import MGHPCC
from .runner import run_nas
from .tables import Table

__all__ = ["PAPER", "run"]

#: gzip -> (image MB, ckpt s, restart s); paper ran LU.E at 128x16 (2048)
PAPER = {True: (117.0, 70.2, 23.5), False: (116.0, 67.3, 23.2)}


def run(full: bool = False) -> Table:
    """``full`` uses the paper's 2,048-process configuration; the default
    uses 512 (32x16) — the gzip-vs-raw *ratios* are placement-independent."""
    nodes, ppn = ((128, 16) if full else (32, 16))
    table = Table(
        "Table 5", "Checkpoint with and without gzip (LU.E)",
        ["gzip", "img/proc(MB)", "ckpt(s)", "restart(s)",
         "paper-img", "paper-ckpt", "paper-restart"])
    for gz in (True, False):
        out = run_nas(lu_app, MGHPCC, nodes * ppn, ppn=ppn, under="dmtcp",
                      app_kwargs={"klass": "E"}, checkpoint_after=2.0,
                      restart=True, config=RunConfig(gzip=gz))
        p_mb, p_ckpt, p_rst = PAPER[gz]
        table.add("with gzip" if gz else "w/o gzip", out.ckpt_image_mb,
                  out.ckpt_seconds, out.restart_seconds, p_mb, p_ckpt,
                  p_rst)
    with_gz, without = table.rows[0], table.rows[1]
    table.note(f"gzip size saving: "
               f"{100 * (1 - with_gz[1] / without[1]):.1f}% (paper: ~1%); "
               f"gzip time delta: "
               f"{100 * (with_gz[2] / without[2] - 1):+.1f}% (paper: +4%)")
    if not full:
        table.note("run at 512 procs (paper row is 2048; pass full=True)")
    return table
