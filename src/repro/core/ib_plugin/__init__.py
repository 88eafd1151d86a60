"""The InfiniBand DMTCP plugin (the paper's primary contribution)."""

from .errors import (
    HeterogeneousDriverError,
    IbPluginError,
    IdTranslationError,
    NoInfinibandError,
    UnsupportedQpTypeError,
    VirtualIdConflictError,
    WqeLogError,
)
from .plugin import InfinibandPlugin
from .shadow import (
    SendLogEntry,
    VirtualContext,
    VirtualCq,
    VirtualMr,
    VirtualPd,
    VirtualQp,
    VirtualSrq,
)
from .wrappers import WrappedVerbs

__all__ = [
    "HeterogeneousDriverError",
    "IbPluginError",
    "IdTranslationError",
    "InfinibandPlugin",
    "NoInfinibandError",
    "SendLogEntry",
    "UnsupportedQpTypeError",
    "VirtualContext",
    "VirtualCq",
    "VirtualMr",
    "VirtualPd",
    "VirtualQp",
    "VirtualSrq",
    "VirtualIdConflictError",
    "WqeLogError",
    "WrappedVerbs",
]
