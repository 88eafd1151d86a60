"""Shadow (virtual) structs — paper §3.1, Principle 1.

The application is never shown a pointer to a real InfiniBand resource.
Each virtual struct mirrors the user-visible fields of its real counterpart
(with *virtual* ids), records the creation parameters needed to re-create a
semantically equivalent resource on restart, and privately points at the
current real struct.  After a restart the ``real`` pointer is swapped; the
virtual ids the application cached never change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from ...ibverbs.enums import AccessFlags, QpState, QpType
from .errors import WqeLogError
from ...ibverbs.structs import (
    ibv_context_ops,
    ibv_qp_attr,
    ibv_send_wr,
)

__all__ = [
    "VirtualContext",
    "VirtualPd",
    "VirtualMr",
    "VirtualCq",
    "VirtualSrq",
    "VirtualQp",
    "SendLogEntry",
    "WqeLog",
]


@dataclass
class VirtualContext:
    """Shadow of ibv_context.  ``ops`` holds the *plugin's* function
    pointers (Principle 2): inline API calls dispatching through this table
    land in the plugin, which forwards to the saved real pointers."""

    real: Any
    device_name: str
    vendor: str
    ops: ibv_context_ops = field(default_factory=ibv_context_ops)
    real_ops: Optional[ibv_context_ops] = None  # saved originals
    vlid: int = 0          # virtual lid: frozen at first query_port
    real_lid: int = 0


@dataclass
class VirtualPd:
    real: Any
    vcontext: VirtualContext
    guid: Tuple[str, int]  # globally unique pd id: (process name, index)
    handle: int = 0        # virtual handle (== real until first restart)

    @property
    def context(self) -> VirtualContext:
        return self.vcontext


@dataclass
class VirtualMr:
    real: Any
    vpd: VirtualPd
    addr: int
    length: int
    access: AccessFlags
    lkey: int   # virtual lkey (== real until first restart)
    rkey: int   # virtual rkey

    @property
    def pd(self) -> VirtualPd:
        return self.vpd

    @property
    def context(self) -> VirtualContext:
        return self.vpd.vcontext


@dataclass
class VirtualCq:
    real: Any
    vcontext: VirtualContext
    cqe: int
    # Principles 4/5: completions drained from the real CQ at checkpoint
    # time, served back to the application before any real poll
    private_queue: Deque[Any] = field(default_factory=deque)
    # a pending blocking-wait event (wrapped ibv_get_cq_event) to re-arm
    pending_notify: Any = None

    @property
    def context(self) -> VirtualContext:
        return self.vcontext


@dataclass(slots=True)
class SendLogEntry:
    """A posted send WQE not yet known to be complete (Principle 3)."""

    wr: ibv_send_wr          # with VIRTUAL ids in sges/rkey
    signaled: bool
    #: §4: immediate/inline RDMA posts never produce a local completion;
    #: the drain protocol assumes them complete once the network is quiet
    assume_complete_on_drain: bool = False

    @property
    def wr_id(self) -> int:
        return self.wr.wr_id


class WqeLog:
    """An outstanding-WQE log with O(1) completion matching.

    An entry is anything with a ``wr_id``: a receive log holds the posted
    :class:`ibv_recv_wr` values themselves (with VIRTUAL lkeys), a send
    log holds :class:`SendLogEntry` records.  Entries live in one
    insertion-ordered dict.  wr_ids are application-chosen and may
    repeat, so the key is the bare ``wr_id`` for the oldest outstanding
    WQE with that id — nearly all of them, as one id is rarely posted
    twice before it completes — and ``(wr_id, n)``, ``n`` unique within
    the log, for a duplicate, with a FIFO of those keys per ``wr_id`` on
    the side.  A bare key is only given to a wr_id with nothing
    outstanding, so while it is present it is the oldest of its id.
    Iteration yields entries in post order — Principle 3/6 replay
    re-posts in exactly the order the application posted.
    :meth:`complete_recv` removes the oldest entry with a given wr_id in
    O(1); :meth:`complete_send_upto` removes the whole prefix through the
    oldest match (ordered-completion semantics: a signaled completion
    implies every earlier WQE on the QP completed), costing O(removed) —
    amortized O(1) per posted WQE.
    """

    __slots__ = ("_entries", "_dups", "_n")

    def __init__(self) -> None:
        self._entries: Dict[Any, Any] = {}
        #: wr_id -> its duplicates' keys, oldest first (never empty)
        self._dups: Dict[int, Deque[Tuple[int, int]]] = {}
        self._n = 0

    def append(self, entry: Any) -> None:
        wr_id = entry.wr_id
        if wr_id not in self._entries and wr_id not in self._dups:
            self._entries[wr_id] = entry
            return
        key = (wr_id, self._n)
        self._n += 1
        self._entries[key] = entry
        dups = self._dups.get(wr_id)
        if dups is None:
            self._dups[wr_id] = deque((key,))
        else:
            dups.append(key)

    def extend(self, entries: Iterable[Any]) -> None:
        for entry in entries:
            self.append(entry)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def _oldest(self, wr_id: int) -> Any:
        """The key of the oldest outstanding WQE with ``wr_id``, or None."""
        if wr_id in self._entries:
            return wr_id
        dups = self._dups.get(wr_id)
        return None if dups is None else dups[0]

    def _drop(self, key: Any) -> None:
        del self._entries[key]
        if key.__class__ is tuple:
            wr_id = key[0]
            dups = self._dups[wr_id]
            dups.remove(key)  # the first, unless retain() drops it
            if not dups:
                del self._dups[wr_id]

    def complete_recv(self, wr_id: int) -> bool:
        """Destroy the oldest logged WQE with ``wr_id``.

        Raises :class:`WqeLogError` if no such WQE was ever posted — a
        completion without a matching log entry violates Principle 3.
        """
        key = self._oldest(wr_id)
        if key is None:
            raise WqeLogError(
                f"orphan completion: wr_id {wr_id:#x} matches no logged "
                "recv WQE (Principle 3: every post stays logged until "
                "its completion is polled)")
        self._drop(key)
        return True

    def complete_send_upto(self, wr_id: int) -> bool:
        """Destroy every WQE up to and including the oldest one with
        ``wr_id`` (ordered completions).

        Raises :class:`WqeLogError` if ``wr_id`` was never posted (or was
        already retired): prefix retirement against an unknown wr_id
        would silently desynchronize the log from the hardware.
        """
        target = self._oldest(wr_id)
        if target is None:
            raise WqeLogError(
                f"orphan completion: wr_id {wr_id:#x} matches no logged "
                "send WQE (already retired, or never posted)")
        # the prefix is exactly the dict's leading keys: stop at the
        # target, so the walk touches only what it removes — amortized
        # O(1) per post
        prefix = []
        for key in self._entries:
            prefix.append(key)
            if key == target:
                break
        for key in prefix:
            self._drop(key)
        return True

    def retain(self, pred: Callable[[Any], bool]) -> None:
        """Keep only entries where ``pred(entry)`` holds, in order."""
        for key in [k for k, e in self._entries.items() if not pred(e)]:
            self._drop(key)


@dataclass
class VirtualSrq:
    real: Any
    vpd: VirtualPd
    max_wr: int
    limit: int = 0
    modify_log: List[int] = field(default_factory=list)  # limits, in order
    recv_log: WqeLog = field(default_factory=WqeLog)   # ibv_recv_wr values

    @property
    def pd(self) -> VirtualPd:
        return self.vpd

    @property
    def context(self) -> VirtualContext:
        return self.vpd.vcontext


@dataclass
class VirtualQp:
    """Shadow of ibv_qp (Figure 2): virtual number, logs, creation params."""

    real: Any
    vpd: VirtualPd
    qp_num: int              # virtual qp_num (== real until first restart)
    qp_type: QpType
    vsend_cq: VirtualCq
    vrecv_cq: VirtualCq
    vsrq: Optional[VirtualSrq]
    sq_sig_all: bool
    cap_max_send_wr: int = 256
    cap_max_recv_wr: int = 256
    cap_max_inline_data: int = 256
    # Principle 3 logs
    modify_log: List[Tuple[ibv_qp_attr, Any]] = field(default_factory=list)
    send_log: WqeLog = field(default_factory=WqeLog)   # SendLogEntry records
    recv_log: WqeLog = field(default_factory=WqeLog)   # ibv_recv_wr values
    #: remote *virtual* (lid, qp number), captured from the app's
    #: modify_qp(RTR) call — qp numbers are only unique per HCA, so the
    #: pub-sub namespace keys pairs, not bare numbers
    remote_vqpn: Optional[int] = None
    remote_vlid: Optional[int] = None

    @property
    def pd(self) -> VirtualPd:
        return self.vpd

    @property
    def context(self) -> VirtualContext:
        return self.vpd.vcontext

    @property
    def send_cq(self) -> VirtualCq:
        return self.vsend_cq

    @property
    def recv_cq(self) -> VirtualCq:
        return self.vrecv_cq

    @property
    def srq(self) -> Optional[VirtualSrq]:
        return self.vsrq

    @property
    def state(self) -> QpState:
        """The app may read qp.state; mirror the real struct's."""
        return self.real.state if self.real is not None else QpState.RESET
