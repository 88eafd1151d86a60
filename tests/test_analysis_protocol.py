"""The runtime ProtocolMonitor: each invariant raises on a seeded
violation, stays silent on the legal path, and the chaos harness runs
violation-free under it."""

from types import SimpleNamespace

import pytest

from repro.analysis import (
    ProtocolMonitor,
    ProtocolViolation,
    install_monitor,
    monitored,
    uninstall_monitor,
)
from repro.core.ib_plugin import InfinibandPlugin, WqeLogError
from repro.core.ib_plugin.shadow import WqeLog
from repro.dmtcp import AppSpec, dmtcp_launch
from repro.faults.harness import verify_restart_path
from repro.hardware import BUFFALO_CCR, Cluster
from repro.ibverbs import (
    QpAttrMask,
    QpState,
    WcOpcode,
    ibv_qp_attr,
    ibv_qp_init_attr,
)
from repro.sim import Environment


def _attr(state):
    return SimpleNamespace(qp_state=state)


def _vqp(n=1, **kw):
    return SimpleNamespace(qp_num=n, **kw)


# -- qp-state-machine ----------------------------------------------------------


def test_legal_qp_walk_is_silent():
    monitor = ProtocolMonitor(strict=True)
    vqp = _vqp()
    monitor.on_create_qp(vqp)
    for state in (QpState.INIT, QpState.RTR, QpState.RTS, QpState.ERR,
                  QpState.RESET):
        monitor.on_modify_qp(vqp, _attr(state), QpAttrMask.STATE)
    assert monitor.violations == []


def test_illegal_qp_jump_raises():
    monitor = ProtocolMonitor(strict=True)
    vqp = _vqp()
    monitor.on_create_qp(vqp)
    with pytest.raises(ProtocolViolation, match="qp-state-machine"):
        monitor.on_modify_qp(vqp, _attr(QpState.RTS), QpAttrMask.STATE)


def test_illegal_replayed_modify_raises():
    monitor = ProtocolMonitor(strict=True)
    vqp = _vqp()
    monitor.on_replay_begin(SimpleNamespace(qps=[], srqs=[]))
    monitor.on_replay_modify(vqp, _attr(QpState.INIT), QpAttrMask.STATE)
    with pytest.raises(ProtocolViolation, match="poisoned"):
        monitor.on_replay_modify(vqp, _attr(QpState.RTS), QpAttrMask.STATE)


def test_illegal_modify_qp_through_wrapped_stack(protocol_monitor):
    """The app-facing wrapper reports to the monitor before logging, so
    an illegal jump fails the test at the call — and never lands in the
    replay log."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="mon-illegal")
    seen = {}

    def app(ctx):
        ibv = ctx.ibv
        ibctx = ibv.open_device(ibv.get_device_list()[0])
        pd = ibv.alloc_pd(ibctx)
        cq = ibv.create_cq(ibctx)
        qp = ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq, recv_cq=cq))
        seen["qp"] = qp
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTS),
                      QpAttrMask.STATE)  # RESET -> RTS: illegal
        yield ctx.compute(seconds=0.01)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        yield from session.wait()

    with pytest.raises(ProtocolViolation, match="qp-state-machine"):
        env.run(until=env.process(scenario()))
    assert seen["qp"].modify_log == []
    assert protocol_monitor.counts["violation:qp-state-machine"] == 1


# -- wqe-balance ---------------------------------------------------------------


def test_orphan_completion_raises_and_is_recorded(protocol_monitor):
    plugin = InfinibandPlugin()
    vqp = _vqp(n=42, vsrq=None, recv_log=WqeLog(), send_log=WqeLog())
    plugin.vqp_by_real_qpn[42] = vqp
    wc = SimpleNamespace(qp_num=42, wr_id=0x7, opcode=WcOpcode.RECV)
    with pytest.raises(WqeLogError, match="orphan"):
        plugin.take_completion(wc)
    assert any("wqe-balance" in v for v in protocol_monitor.violations)


def test_replay_repost_imbalance_raises():
    monitor = ProtocolMonitor(strict=True)
    vqp = _vqp(recv_log=[object(), object()], send_log=[])
    plugin = SimpleNamespace(qps=[vqp], srqs=[])
    monitor.on_replay_begin(plugin)
    monitor.on_repost(vqp, "recv")  # only one of the two logged WQEs
    with pytest.raises(ProtocolViolation, match="wqe-balance"):
        monitor.on_replay_done(plugin)


def test_replay_repost_balance_is_silent():
    monitor = ProtocolMonitor(strict=True)
    vqp = _vqp(recv_log=[object()], send_log=[object()])
    srq = SimpleNamespace(recv_log=[object()])
    plugin = SimpleNamespace(qps=[vqp], srqs=[srq])
    monitor.on_replay_begin(plugin)
    monitor.on_repost(srq, "recv")
    monitor.on_repost(vqp, "recv")
    monitor.on_repost(vqp, "send")
    monitor.on_replay_done(plugin)
    assert monitor.violations == []


# -- rkey-pd -------------------------------------------------------------------


def test_cross_pd_rkey_raises():
    monitor = ProtocolMonitor(strict=True)
    plugin = SimpleNamespace(db={"mr:pd-B:5": 0x99})
    qinfo = {"pd": "pd-A"}  # the remote QP's pd does NOT hold vrkey 5
    with pytest.raises(ProtocolViolation, match="rkey-pd"):
        monitor.on_translate_rkey(plugin, _vqp(), 5, qinfo, None)


def test_resolved_or_unpublished_rkey_is_silent():
    monitor = ProtocolMonitor(strict=True)
    plugin = SimpleNamespace(db={"mr:pd-A:5": 0x99})
    monitor.on_translate_rkey(plugin, _vqp(), 5, {"pd": "pd-A"}, 0x99)
    # vrkey unknown everywhere: not a cross-PD mixup, just unpublished
    monitor.on_translate_rkey(plugin, _vqp(), 6, {"pd": "pd-A"}, None)
    assert monitor.violations == []


# -- non-strict mode / summary -------------------------------------------------


def test_non_strict_accumulates_instead_of_raising():
    monitor = ProtocolMonitor(strict=False)
    vqp = _vqp()
    monitor.on_create_qp(vqp)
    monitor.on_modify_qp(vqp, _attr(QpState.RTS), QpAttrMask.STATE)
    plugin = SimpleNamespace(db={"mr:pd-B:5": 0x99})
    monitor.on_translate_rkey(plugin, _vqp(), 5, {"pd": "pd-A"}, None)
    summary = monitor.summary()
    assert len(summary["violations"]) == 2
    assert summary["events"]["violation:qp-state-machine"] == 1
    assert summary["events"]["violation:rkey-pd"] == 1


# -- install / nesting ---------------------------------------------------------


def test_monitored_restores_previous_monitor(protocol_monitor):
    assert InfinibandPlugin.monitor is protocol_monitor
    with monitored() as inner:
        assert InfinibandPlugin.monitor is inner
        with monitored() as innermost:
            assert InfinibandPlugin.monitor is innermost
        assert InfinibandPlugin.monitor is inner
    assert InfinibandPlugin.monitor is protocol_monitor


def test_install_uninstall_roundtrip():
    mine = ProtocolMonitor()
    prev = install_monitor(mine)
    try:
        assert InfinibandPlugin.monitor is mine
    finally:
        uninstall_monitor(prev)
    assert InfinibandPlugin.monitor is not mine


# -- the restart path end to end ----------------------------------------------


def test_injected_crash_restart_is_violation_free_under_monitor():
    """The chaos harness's own restart path satisfies every runtime
    invariant: state-machine-legal replay, exactly-balanced re-posts,
    per-PD rkey resolution."""
    out = verify_restart_path(seed=31, analysis=True)
    proto = out["protocol"]
    assert proto is not None
    assert proto["violations"] == []
    assert proto["events"].get("replay_begin", 0) >= 1
    assert proto["events"].get("repost_recv", 0) >= 1
    assert proto["events"].get("modify_qp", 0) >= 1
    assert proto["events"].get("completion", 0) >= 1
