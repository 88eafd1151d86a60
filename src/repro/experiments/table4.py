"""Table 4: checkpoint to local disk vs the Lustre back-end — Lustre
checkpoints ~6.5x faster; restart times are essentially unchanged
(images are read back hot).  LU.E, 512 processes (32 nodes x 16)."""

from __future__ import annotations

from ..apps.nas import lu_app
from ..dmtcp import FileSink, RunConfig
from ..hardware import MGHPCC
from ..store import CheckpointStore
from .runner import run_nas
from .tables import Table

__all__ = ["PAPER", "run"]

#: disk -> (image MB, ckpt s, restart s)
PAPER = {"local disk": (356.0, 232.3, 11.1), "Lustre": (365.0, 35.7, 10.9)}


def run(store: bool = False) -> Table:
    """``store=True`` routes the Lustre row's checkpoint through the
    content-addressed multi-tier store (chunk dedup + partner/Lustre
    replication) instead of monolithic images; the local-disk row stays
    monolithic so the paper's file-per-process baseline is preserved."""
    table = Table(
        "Table 4", "LU.E (512 procs) checkpoints: local disk vs Lustre",
        ["disk", "img(MB)", "ckpt(s)", "restart(s)",
         "paper-img", "paper-ckpt", "paper-restart"])
    rows = (("local disk", RunConfig()),
            ("Lustre", RunConfig(sink_factory=CheckpointStore if store
                                 else lambda c: FileSink(c, "lustre"))))
    for label, config in rows:
        out = run_nas(lu_app, MGHPCC, 512, ppn=16, under="dmtcp",
                      app_kwargs={"klass": "E"}, checkpoint_after=2.0,
                      restart=True, config=config)
        p_mb, p_ckpt, p_restart = PAPER[label]
        table.add(label, out.ckpt_image_mb, out.ckpt_seconds,
                  out.restart_seconds, p_mb, p_ckpt, p_restart)
    if not store:
        ratio = table.rows[0][2] / max(table.rows[1][2], 1e-9)
        table.note(f"measured local/Lustre checkpoint ratio: {ratio:.1f}x "
                   "(paper: 6.5x)")
    else:
        table.note("Lustre row checkpointed through the content-addressed "
                   "store: chunks land on the node-local tier synchronously "
                   "and replicate to partner/Lustre in the background, so "
                   "ckpt(s) is the local-disk landing cost for this one full "
                   "image — the dedup payoff is on incremental chains "
                   "(benchmarks/bench_store.py)")
    return table
