"""Plugin-specific failure modes (each mirrors a limitation the paper
discusses in §4/§7)."""

from __future__ import annotations

__all__ = [
    "IbPluginError",
    "HeterogeneousDriverError",
    "IdTranslationError",
    "UnsupportedQpTypeError",
    "VirtualIdConflictError",
    "NoInfinibandError",
    "WqeLogError",
]


class IbPluginError(RuntimeError):
    """Base class for InfiniBand-plugin failures."""


class HeterogeneousDriverError(IbPluginError):
    """Restart onto a different HCA vendor: the checkpoint image embeds the
    original vendor's user-space driver (§4).  The §7 future-work fix —
    forcing the library to re-initialize and load the right driver — is
    available as ``allow_driver_reload=True``."""


class UnsupportedQpTypeError(IbPluginError):
    """Unreliable-datagram QPs are not supported for checkpointing (§4)."""


class VirtualIdConflictError(IbPluginError):
    """An InfiniBand object created *after* restart received a real id that
    collides with a pre-checkpoint virtual id (§7's theoretical conflict).
    Construct the plugin with ``globally_unique_vids=True`` for the fix the
    paper proposes."""


class IdTranslationError(IbPluginError):
    """After a restart, a virtual id resolved to no real id where the
    published namespace proves it must have: a vrkey registered under
    some other pd than the remote QP's (§3.2.2 — rkeys are per-PD, so
    the application mixed protection domains).  The message names the
    key and the pds that do hold it."""


class NoInfinibandError(IbPluginError):
    """Restarted on a node with no HCA and no IB2TCP fallback configured."""


class WqeLogError(IbPluginError):
    """A completion arrived for a ``wr_id`` that was never posted (or was
    already retired).  Principle 3 pairs every polled completion with a
    logged WQE; an orphan completion means the log and the hardware have
    diverged — the stale-handle / unmatched-WQE regression class — so it
    is a typed, loud failure rather than a silent no-op."""
