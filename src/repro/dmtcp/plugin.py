"""The DMTCP plugin API (paper §2.2).

Plugins get exactly the three core features the paper lists:

1. *wrapper functions* — :meth:`Plugin.install` swaps entries in the
   process's library table (the LD_PRELOAD analogue) and may patch
   ``ops`` function-pointer tables;
2. *event hooks* — :meth:`Plugin.event` is called at suspend / drain /
   write / resume / restart time;
3. *publish/subscribe* — :meth:`Plugin.ns_publish` returns key/value pairs
   the checkpoint manager ships to the coordinator;
   :meth:`Plugin.ns_receive` is handed the merged database after the
   restart barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping

from .costs import DEFAULT_COSTS
from .events import DmtcpEvent

if TYPE_CHECKING:  # pragma: no cover
    from .process import AppContext

__all__ = ["Plugin", "PluginError"]


class PluginError(RuntimeError):
    pass


class Plugin:
    """Base class for DMTCP plugins."""

    name = "base"

    def __init__(self) -> None:
        self.appctx: "AppContext" = None
        #: the installing process's cost model, bound by
        #: :meth:`DmtcpProcess.launch` just before :meth:`install`
        self.costs = DEFAULT_COSTS

    # -- feature 1: wrappers -------------------------------------------------

    def install(self, appctx: "AppContext") -> None:
        """Interpose on the process's libraries.  Called once at launch
        (DmtcpEvent.INIT follows) and never again — on restart the plugin
        object survives inside the "process memory" continuation."""
        self.appctx = appctx

    # -- feature 2: event hooks ------------------------------------------------

    def event(self, event: DmtcpEvent, data: Any = None) -> None:
        """Synchronous event hook; override what you need."""

    def drain_round(self) -> int:
        """One drain pass during PRECHECKPOINT; returns how many new
        hardware completions were captured (the coordinator repeats global
        rounds until every plugin reports zero)."""
        return 0

    # -- feature 3: publish/subscribe ---------------------------------------------

    def ns_publish(self) -> Dict[str, Any]:
        """Key/value pairs to publish at restart (namespaced by plugin)."""
        return {}

    def ns_receive(self, db: Mapping[str, Any]) -> None:
        """Receive the merged published database after the restart
        barrier.  The mapping is shared by every rank: keep it, read it,
        never mutate it."""

    # -- end of the job ------------------------------------------------------------

    def close(self) -> None:
        """The job is over: drop any reference that points back at the
        process (its wrappers, its context).  Counters stay readable."""

    # -- metadata ----------------------------------------------------------------

    def image_metadata(self) -> Dict[str, Any]:
        """Extra metadata recorded in the checkpoint image (e.g. the
        embedded user-space driver vendor)."""
        return {}
