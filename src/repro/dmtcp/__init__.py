"""DMTCP-like transparent checkpoint-restart framework (coordinator,
checkpoint engine, plugin API, image format)."""

from .coordinator import COORD_PORT, Coordinator, CoordinatorClient
from .config import RunConfig
from .costs import CostModel, DEFAULT_COSTS
from .events import DmtcpEvent
from .image import CheckpointImage, ImageError
from .launcher import (
    AppSpec,
    CheckpointSet,
    DmtcpSession,
    JobTracker,
    NativeSession,
    dmtcp_launch,
    dmtcp_restart,
    native_launch,
)
from .plugin import Plugin, PluginError
from .process import AppContext, CheckpointRecord, Continuation, DmtcpProcess
from .sink import FileSink, PutResult

__all__ = [
    "AppContext",
    "AppSpec",
    "COORD_PORT",
    "CheckpointImage",
    "CheckpointRecord",
    "CheckpointSet",
    "Continuation",
    "Coordinator",
    "CoordinatorClient",
    "CostModel",
    "DEFAULT_COSTS",
    "DmtcpEvent",
    "DmtcpProcess",
    "DmtcpSession",
    "FileSink",
    "ImageError",
    "JobTracker",
    "NativeSession",
    "Plugin",
    "PluginError",
    "PutResult",
    "RunConfig",
    "dmtcp_launch",
    "dmtcp_restart",
    "native_launch",
]
