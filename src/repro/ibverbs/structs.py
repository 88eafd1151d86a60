"""Struct models for the verbs API.

The *real* structs (``ibv_context``, ``ibv_pd``, ``ibv_mr``, ``ibv_cq``,
``ibv_qp``, ``ibv_srq``) carry hidden device-dependent fields — here a
``_driver_blob`` binding them to one driver session — exactly the property
(paper §3.1, Principle 1) that makes it unsafe to hand a pre-checkpoint
struct back to the library after restart.  The verbs library validates the
blob on every call; a stale struct raises :class:`StaleResourceError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence, Union

from .enums import (
    AccessFlags,
    QpState,
    QpType,
    SendFlags,
    WcOpcode,
    WcStatus,
    WrOpcode,
)

__all__ = [
    "VerbsError",
    "StaleResourceError",
    "ibv_device",
    "ibv_context_ops",
    "ibv_context",
    "ibv_pd",
    "ibv_mr",
    "ibv_cq",
    "ibv_srq",
    "ibv_qp",
    "ibv_sge",
    "ibv_send_wr",
    "ibv_recv_wr",
    "RecvWrs",
    "recv_chain",
    "ibv_wc",
    "ibv_qp_attr",
    "ibv_qp_init_attr",
    "ibv_port_attr",
]


class VerbsError(RuntimeError):
    """Generic verbs-layer failure (errno-style).

    A refused receive post sets ``bad_wr`` to the index, in the chain it
    was handed, of the first WR the driver refused (real verbs' ``bad_wr``
    out-pointer); every WR before it was queued.
    """

    def __init__(self, *args, bad_wr: Optional[int] = None):
        super().__init__(*args)
        self.bad_wr = bad_wr


class StaleResourceError(VerbsError):
    """A real struct from a previous boot/driver session was used — the
    failure mode Principle 1's shadow structs exist to prevent."""


@dataclass
class ibv_device:
    """An entry from ibv_get_device_list."""

    name: str            # e.g. "mlx4_0"
    vendor: str          # "mlx4" | "qib"
    guid: int
    hw: Any = None       # the hardware.HCA behind this device


@dataclass
class ibv_context_ops:
    """The device-dependent function-pointer table (paper Principle 2).

    OFED expands "inline" API functions into calls through these pointers;
    the plugin interposes by *replacing the pointers*, never the inlines.
    """

    post_send: Any = None
    post_recv: Any = None
    post_srq_recv: Any = None
    poll_cq: Any = None
    req_notify_cq: Any = None


@dataclass
class ibv_context:
    device: ibv_device
    ops: ibv_context_ops
    _driver_blob: Any = None  # hidden: driver session cookie

    @property
    def num_comp_vectors(self) -> int:
        return 1


@dataclass
class ibv_pd:
    context: ibv_context
    handle: int
    _driver_blob: Any = None


@dataclass
class ibv_mr:
    context: ibv_context
    pd: ibv_pd
    addr: int
    length: int
    lkey: int
    rkey: int
    access: AccessFlags = AccessFlags.LOCAL_WRITE
    _driver_blob: Any = None


@dataclass
class ibv_cq:
    context: ibv_context
    cqe: int            # capacity
    _driver_blob: Any = None
    _hw: Any = None     # hardware completion queue


@dataclass
class ibv_srq:
    context: ibv_context
    pd: ibv_pd
    max_wr: int
    limit: int = 0
    _driver_blob: Any = None
    _hw: Any = None


@dataclass
class ibv_qp:
    context: ibv_context
    pd: ibv_pd
    qp_num: int
    qp_type: QpType
    state: QpState
    send_cq: ibv_cq
    recv_cq: ibv_cq
    srq: Optional[ibv_srq] = None
    sq_sig_all: bool = False
    cap_max_send_wr: int = 256
    cap_max_recv_wr: int = 256
    cap_max_inline_data: int = 256
    _driver_blob: Any = None
    _hw: Any = None     # hardware queue pair (transport engine)


class ibv_sge(NamedTuple):
    """Scatter/gather element: a slice of registered memory.  An
    immutable value, so every copy of a WR may share it."""

    addr: int
    length: int
    lkey: int


# A send WR is a mutable struct, as the application builds it: ``copy()``
# is the snapshot a post takes (the Principle-3 log entry, the driver's
# copy, into which it writes ``_inline_data``).  A receive WR is an
# immutable value, shared by the application, the log and the driver's
# queue (DESIGN.md §15).

@dataclass(slots=True)
class ibv_send_wr:
    wr_id: int
    sg_list: Sequence[ibv_sge]
    opcode: WrOpcode
    send_flags: SendFlags = SendFlags.SIGNALED
    imm_data: Optional[int] = None
    # RDMA-only fields (wr.rdma.*)
    remote_addr: int = 0
    rkey: int = 0
    # filled for INLINE sends at post time
    _inline_data: Optional[bytes] = None

    def copy(self) -> "ibv_send_wr":
        return ibv_send_wr(self.wr_id, tuple(self.sg_list), self.opcode,
                           self.send_flags, self.imm_data, self.remote_addr,
                           self.rkey, self._inline_data)


class ibv_recv_wr(NamedTuple):
    """Receive work request: an immutable value.  ``post_recv`` and
    ``post_srq_recv`` take one, or a sequence of them (a ``wr->next``
    chain); see :func:`recv_chain`."""

    wr_id: int
    sg_list: Sequence[ibv_sge]


#: what a receive post takes: one WR, or a chain of them in post order
RecvWrs = Union[ibv_recv_wr, Sequence[ibv_recv_wr]]


def recv_chain(wrs: RecvWrs) -> Sequence[ibv_recv_wr]:
    """A posted WR or chain of WRs as a chain of frozen values.

    A single WR is a chain of one.  A WR built with a list ``sg_list`` is
    replaced by one holding a tuple, so what is queued and logged cannot
    change under the application; any other WR is passed on as it is.
    """
    chain = (wrs,) if wrs.__class__ is ibv_recv_wr else wrs
    for wr in chain:
        if wr.sg_list.__class__ is not tuple:
            return [wr if wr.sg_list.__class__ is tuple
                    else ibv_recv_wr(wr.wr_id, tuple(wr.sg_list))
                    for wr in chain]
    return chain


@dataclass(slots=True)
class ibv_wc:
    """Work completion."""

    wr_id: int
    status: WcStatus
    opcode: WcOpcode
    byte_len: int = 0
    imm_data: Optional[int] = None
    qp_num: int = 0
    src_qp: int = 0
    wc_flags: int = 0


@dataclass(slots=True)
class ibv_qp_attr:
    """Attributes for ibv_modify_qp (subset; mask selects valid fields)."""

    qp_state: Optional[QpState] = None
    pkey_index: int = 0
    port_num: int = 1
    qp_access_flags: AccessFlags = AccessFlags.LOCAL_WRITE
    path_mtu: int = 4096
    dest_qp_num: int = 0
    rq_psn: int = 0
    sq_psn: int = 0
    dlid: int = 0              # in ah_attr on real hardware
    max_rd_atomic: int = 1
    min_rnr_timer: int = 12
    timeout: int = 14
    retry_cnt: int = 7
    rnr_retry: int = 7

    def copy(self) -> "ibv_qp_attr":
        return ibv_qp_attr(
            qp_state=self.qp_state, pkey_index=self.pkey_index,
            port_num=self.port_num, qp_access_flags=self.qp_access_flags,
            path_mtu=self.path_mtu, dest_qp_num=self.dest_qp_num,
            rq_psn=self.rq_psn, sq_psn=self.sq_psn, dlid=self.dlid,
            max_rd_atomic=self.max_rd_atomic,
            min_rnr_timer=self.min_rnr_timer, timeout=self.timeout,
            retry_cnt=self.retry_cnt, rnr_retry=self.rnr_retry)


@dataclass
class ibv_qp_init_attr:
    send_cq: ibv_cq = None
    recv_cq: ibv_cq = None
    srq: Optional[ibv_srq] = None
    qp_type: QpType = QpType.RC
    sq_sig_all: bool = False
    max_send_wr: int = 256
    max_recv_wr: int = 256
    max_inline_data: int = 256


@dataclass
class ibv_port_attr:
    lid: int
    state: str = "ACTIVE"
    max_mtu: int = 4096
