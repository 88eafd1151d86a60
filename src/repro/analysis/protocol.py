"""Runtime verbs-protocol monitor: the dynamic half of the analysis gate.

The :class:`ProtocolMonitor` hooks the shadow layer (via the
``InfinibandPlugin.monitor`` class attribute — ``core`` never imports
``analysis``) and validates, while the
simulation runs, the invariants the paper's correctness argument rests
on:

``qp-state-machine``
    Every ``modify_qp`` the application issues — and every modify the
    plugin *replays* at restart (Principle 6) — must follow the legal
    RESET→INIT→RTR→RTS progression.  One shared table,
    :data:`~repro.ibverbs.enums.LEGAL_QP_TRANSITIONS`, backs both the
    library model and this check.

``wqe-balance``
    Every polled completion must match a logged post (Principle 3 —
    the orphan itself raises :class:`WqeLogError` in the shadow layer;
    the monitor records it), and restart replay must re-post *exactly*
    the surviving logged set: after ``on_replay_done`` the per-QP repost
    counts are compared against the log lengths.

``rkey-pd``
    Rkey translation is per-PD (§3.2.2).  If a virtual rkey fails to
    resolve under the remote QP's PD but *would* resolve under some
    other PD, the application is mixing rkeys across protection domains
    — a silent-data-corruption bug on real hardware.

``strict`` (the default) raises :class:`ProtocolViolation` at the
offending call; non-strict accumulates violations for ``summary()``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..ibverbs.enums import QpAttrMask, QpState, qp_transition_legal

__all__ = [
    "ProtocolViolation",
    "ProtocolMonitor",
    "install_monitor",
    "uninstall_monitor",
    "monitored",
]


class ProtocolViolation(AssertionError):
    """A verbs-protocol invariant was broken at runtime."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class ProtocolMonitor:
    """Validates shadow-layer events against the protocol invariants."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.counts: Counter = Counter()
        self.violations: List[str] = []
        #: application-visible QP state, tracked here because the shadow
        #: VirtualQp deliberately does not mirror it
        self._qp_state: Dict[int, QpState] = {}
        #: state machine re-walked during restart replay (the re-created
        #: real QP starts over from RESET)
        self._replay_state: Dict[int, QpState] = {}
        #: (id(log owner), kind) → reposts seen during the current replay
        self._reposts: Counter = Counter()

    # -- bookkeeping ---------------------------------------------------------

    def _violate(self, invariant: str, message: str) -> None:
        self.counts[f"violation:{invariant}"] += 1
        self.violations.append(f"[{invariant}] {message}")
        if self.strict:
            raise ProtocolViolation(invariant, message)

    def summary(self) -> Dict[str, Any]:
        return {
            "events": dict(self.counts),
            "violations": list(self.violations),
            "qps_tracked": len(self._qp_state),
        }

    # -- qp lifecycle / state machine ----------------------------------------

    def on_create_qp(self, vqp: Any) -> None:
        self.counts["create_qp"] += 1
        self._qp_state[id(vqp)] = QpState.RESET

    def on_destroy_qp(self, vqp: Any) -> None:
        self.counts["destroy_qp"] += 1
        self._qp_state.pop(id(vqp), None)

    def on_modify_qp(self, vqp: Any, attr: Any, mask: QpAttrMask) -> None:
        self.counts["modify_qp"] += 1
        if not mask & QpAttrMask.STATE:
            return
        old = self._qp_state.get(id(vqp), QpState.RESET)
        new = attr.qp_state
        if not qp_transition_legal(old, new):
            self._violate(
                "qp-state-machine",
                f"illegal transition {old.name} -> {new.name} on "
                f"vqpn {vqp.qp_num}")
            return  # non-strict: do not advance through an illegal jump
        self._qp_state[id(vqp)] = new

    # -- restart replay balance (Principles 3/6) -----------------------------

    def on_replay_begin(self, plugin: Any) -> None:
        self.counts["replay_begin"] += 1
        self._reposts = Counter()
        self._replay_state = {}

    def on_replay_modify(self, vqp: Any, attr: Any,
                         mask: QpAttrMask) -> None:
        self.counts["replay_modify"] += 1
        if not mask & QpAttrMask.STATE:
            return
        old = self._replay_state.get(id(vqp), QpState.RESET)
        new = attr.qp_state
        if not qp_transition_legal(old, new):
            self._violate(
                "qp-state-machine",
                f"replayed modify_qp walks an illegal transition "
                f"{old.name} -> {new.name} on vqpn {vqp.qp_num}: the "
                "modify log was poisoned before the checkpoint")
            return
        self._replay_state[id(vqp)] = new

    def on_repost(self, owner: Any, kind: str) -> None:
        self.counts[f"repost_{kind}"] += 1
        self._reposts[(id(owner), kind)] += 1

    def on_replay_done(self, plugin: Any) -> None:
        self.counts["replay_done"] += 1
        expected: List[Tuple[Any, str, int]] = []
        for vsrq in plugin.srqs:
            expected.append((vsrq, "recv", len(vsrq.recv_log)))
        for vqp in plugin.qps:
            expected.append((vqp, "recv", len(vqp.recv_log)))
            expected.append((vqp, "send", len(vqp.send_log)))
        for owner, kind, want in expected:
            got = self._reposts.get((id(owner), kind), 0)
            if got != want:
                name = getattr(owner, "qp_num", None)
                label = f"vqpn {name}" if name is not None else "srq"
                self._violate(
                    "wqe-balance",
                    f"restart replay re-posted {got} {kind} WQE(s) for "
                    f"{label} but the surviving log holds {want}: replay "
                    "must re-post exactly the logged set (Principle 6)")

    # -- completion / drain balance (Principle 3) ----------------------------

    def on_completion(self, vqp: Any, wc: Any) -> None:
        self.counts["completion"] += 1

    def on_orphan_completion(self, vqp: Any, wc: Any) -> None:
        # The shadow layer raises WqeLogError itself; the monitor only
        # records the event so summaries show it even when the error is
        # swallowed upstream.
        self.counts["violation:wqe-balance"] += 1
        self.violations.append(
            f"[wqe-balance] orphan completion wr_id {wc.wr_id:#x} on "
            f"vqpn {vqp.qp_num}")

    def on_write_ckpt(self, plugin: Any) -> None:
        self.counts["write_ckpt"] += 1

    # -- rkey translation (§3.2.2) -------------------------------------------

    def on_translate_rkey(self, plugin: Any, vqp: Any, vrkey: int,
                          qinfo: Optional[Dict[str, Any]],
                          rkey: Optional[int]) -> None:
        self.counts["translate_rkey"] += 1
        if rkey is not None or qinfo is None:
            return
        suffix = f":{vrkey}"
        other_pds = [key.split(":")[1] for key in plugin.db
                     if key.startswith("mr:") and key.endswith(suffix)]
        if other_pds:
            self._violate(
                "rkey-pd",
                f"vrkey {vrkey:#x} does not resolve under the remote "
                f"QP's pd {qinfo['pd']} but is registered under pd(s) "
                f"{sorted(set(other_pds))}: rkeys are per-PD (§3.2.2) "
                "and must not cross protection domains")


def install_monitor(monitor: ProtocolMonitor) -> Any:
    """Install ``monitor`` class-wide; returns the previous monitor so
    nested installs (harness --analysis inside a monitored test run)
    restore cleanly."""
    from ..core.ib_plugin.plugin import InfinibandPlugin

    prev = InfinibandPlugin.monitor
    InfinibandPlugin.monitor = monitor
    return prev


def uninstall_monitor(prev: Any = None) -> None:
    from ..core.ib_plugin.plugin import InfinibandPlugin

    InfinibandPlugin.monitor = prev


@contextmanager
def monitored(strict: bool = True) -> Iterator[ProtocolMonitor]:
    """Run a block under a fresh :class:`ProtocolMonitor`."""
    monitor = ProtocolMonitor(strict=strict)
    prev = install_monitor(monitor)
    try:
        yield monitor
    finally:
        uninstall_monitor(prev)
