"""The checkpoint settings a job is launched with: its session and
checkpoints carry them, and every restart reads them from the checkpoint
(DESIGN.md §7, "One run config")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .costs import CostModel, DEFAULT_COSTS
from .sink import FileSink

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """The four settings of one job, chosen at ``dmtcp_launch``."""

    #: the calibrated time costs of interposition and checkpointing
    costs: CostModel = DEFAULT_COSTS
    #: pipe every image through dynamic gzip (Table 5)
    gzip: bool = True
    #: reuse the previous image's clean chunks (DESIGN.md §8)
    incremental: bool = False
    #: builds the job's checkpoint sink from a cluster when launch is
    #: handed none (DESIGN.md §15): image files on local disk by default
    sink_factory: Callable[[Any], Any] = FileSink
