"""Constants mirroring the libibverbs API surface (the subset the paper's
plugin interposes on)."""

from __future__ import annotations

import enum

__all__ = [
    "QpState",
    "QpType",
    "WrOpcode",
    "WcOpcode",
    "WcStatus",
    "SendFlags",
    "AccessFlags",
    "QpAttrMask",
    "LEGAL_QP_TRANSITIONS",
    "qp_transition_legal",
]


class QpState(enum.Enum):
    """ibv_qp_state — the RESET→INIT→RTR→RTS ladder (+ ERR)."""

    RESET = 0
    INIT = 1
    RTR = 2   # ready to receive
    RTS = 3   # ready to send
    SQD = 4
    SQE = 5
    ERR = 6


#: The legal ``ibv_modify_qp`` state transitions for connected (RC/UC)
#: queue pairs — exactly the RESET→INIT→RTR→RTS ladder the paper
#: exercises, plus attribute-only updates in RTS and the ERR→RESET
#: recovery edge.  SQD/SQE drains are deliberately absent: the paper's
#: checkpoint protocol never uses them, so the driver model
#: (``verbs.py``) rejects them — for application calls and restart
#: replay alike.
LEGAL_QP_TRANSITIONS = frozenset({
    (QpState.RESET, QpState.INIT),
    (QpState.INIT, QpState.RTR),
    (QpState.RTR, QpState.RTS),
    (QpState.RTS, QpState.RTS),   # attribute-only updates
    (QpState.RESET, QpState.RESET),
    (QpState.ERR, QpState.RESET),
})


def qp_transition_legal(old: "QpState", new: "QpState") -> bool:
    """True iff ``modify_qp`` may move a QP from ``old`` to ``new``.

    Any state may be forced into ERR (the hardware does exactly that on a
    fatal work-request error); everything else must follow
    :data:`LEGAL_QP_TRANSITIONS`.
    """
    return new is QpState.ERR or (old, new) in LEGAL_QP_TRANSITIONS


class QpType(enum.Enum):
    RC = 2   # reliable connection (the model the paper assumes)
    UC = 3
    UD = 4   # unreliable datagram — not supported for checkpointing (§4)


class WrOpcode(enum.Enum):
    """ibv_wr_opcode for ibv_post_send."""

    RDMA_WRITE = 0
    RDMA_WRITE_WITH_IMM = 1
    SEND = 2
    SEND_WITH_IMM = 3
    RDMA_READ = 4


class WcOpcode(enum.Enum):
    """ibv_wc_opcode."""

    SEND = 0
    RDMA_WRITE = 1
    RDMA_READ = 2
    RECV = 128
    RECV_RDMA_WITH_IMM = 129


class WcStatus(enum.Enum):
    """ibv_wc_status (subset)."""

    SUCCESS = 0
    LOC_LEN_ERR = 1
    LOC_PROT_ERR = 4
    WR_FLUSH_ERR = 5
    REM_ACCESS_ERR = 10
    RNR_RETRY_EXC_ERR = 13


class SendFlags(enum.IntFlag):
    """ibv_send_flags."""

    NONE = 0
    FENCE = 1
    SIGNALED = 2
    SOLICITED = 4
    INLINE = 8


class AccessFlags(enum.IntFlag):
    """ibv_access_flags for ibv_reg_mr."""

    LOCAL_WRITE = 1
    REMOTE_WRITE = 2
    REMOTE_READ = 4
    REMOTE_ATOMIC = 8


class QpAttrMask(enum.IntFlag):
    """ibv_qp_attr_mask bits for ibv_modify_qp."""

    STATE = 1
    PKEY_INDEX = 2
    PORT = 4
    ACCESS_FLAGS = 8
    AV = 16            # address vector: dlid lives here
    PATH_MTU = 32
    DEST_QPN = 64
    RQ_PSN = 128
    SQ_PSN = 256
    MAX_QP_RD_ATOMIC = 512
    MIN_RNR_TIMER = 1024
    TIMEOUT = 2048
    RETRY_CNT = 4096
    RNR_RETRY = 8192
