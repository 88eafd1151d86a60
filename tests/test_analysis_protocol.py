"""The verbs-protocol rules, enforced where each one lives: every seeded
violation fails at the source's own typed error, with no observer
installed — the same code path the ledger, the tables and the examples
run (DESIGN.md §9).

* qp-state-machine — the driver's ``VerbsError``, for application calls
  and restart-replayed modifies alike; a rejected modify never reaches
  the replay log;
* wqe-balance — ``WqeLogError`` on an orphan completion; a replay that
  re-posts the wrong count breaks the ``replay-balance`` trace invariant;
* rkey-pd — ``IdTranslationError`` from ``translate_rkey``.
"""

from types import SimpleNamespace

import pytest

from repro.core.ib_plugin import (IdTranslationError, InfinibandPlugin,
                                  VirtualQp, WqeLogError)
from repro.core.ib_plugin.shadow import WqeLog
from repro.dmtcp import AppSpec, dmtcp_launch, dmtcp_restart
from repro.experiments.fault_sweep import restart_trace_failures
from repro.faults.harness import verify_restart_path
from repro.hardware import BUFFALO_CCR, Cluster
from repro.ibverbs import (
    AccessFlags,
    QpAttrMask,
    QpState,
    QpType,
    VerbsError,
    WcOpcode,
    ibv_qp_attr,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_sge,
)
from repro.obs import check_trace_invariants
from repro.sim import Environment

_RTS_TO_PEER = (ibv_qp_attr(qp_state=QpState.RTS, dest_qp_num=7, dlid=3),
                QpAttrMask.STATE | QpAttrMask.DEST_QPN | QpAttrMask.AV)


def _open_qp(ctx):
    ibv = ctx.ibv
    ibctx = ibv.open_device(ibv.get_device_list()[0])
    pd = ibv.alloc_pd(ibctx)
    cq = ibv.create_cq(ibctx)
    return ibv, pd, ibv.create_qp(pd, ibv_qp_init_attr(send_cq=cq,
                                                       recv_cq=cq))


def _run_one_rank(app, name):
    """Launch ``app`` as one rank under the plugin and run it out."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name=name)

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        return (yield from session.wait())

    return env.run(until=env.process(scenario()))


def _checkpoint_restart_one_rank(app, name, state):
    """Launch ``app`` as one rank, checkpoint it once ``state["ready"]``,
    restart it on a fresh cluster (new real ids), then set
    ``state["resume"]`` and run it out."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name=f"{name}-prod")

    def scenario():
        session = yield from dmtcp_launch(
            cluster, [AppSpec(0, "p", app)],
            plugin_factory=lambda: [InfinibandPlugin()])
        while not state.get("ready"):
            yield env.timeout(1e-4)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        spare = Cluster(env, BUFFALO_CCR, n_nodes=1, name=f"{name}-spare")
        session2 = yield from dmtcp_restart(spare, ckpt)
        state["resume"] = True
        return (yield from session2.wait())

    return env.run(until=env.process(scenario()))


def _park(ctx, state):
    """Mark the rank ready for its checkpoint and wait out the restart."""
    state["ready"] = True
    while not state.get("resume"):
        yield ctx.sleep(1e-4)


# -- qp-state-machine ----------------------------------------------------------


def test_illegal_qp_jump_raises(ib_pair):
    """The rule lives in the driver: with no plugin at all, RESET -> RTS
    is refused and the QP stays where it was."""
    qp = ib_pair.a.make_qp()
    with pytest.raises(VerbsError, match="illegal QP transition RESET -> RTS"):
        ib_pair.a.lib.modify_qp(qp, *_RTS_TO_PEER)
    assert qp.state is QpState.RESET


def test_legal_qp_walk_is_silent():
    """A full legal walk through the wrapper: every modify reaches the
    driver and lands in the replay log in order, and the peer ids the
    RTR modify carried are kept for restart translation."""
    seen = {}

    def app(ctx):
        ibv, _pd, qp = _open_qp(ctx)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.INIT),
                      QpAttrMask.STATE)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTR, dest_qp_num=7,
                                      dlid=3),
                      QpAttrMask.STATE | QpAttrMask.DEST_QPN | QpAttrMask.AV)
        for state in (QpState.RTS, QpState.ERR, QpState.RESET):
            ibv.modify_qp(qp, ibv_qp_attr(qp_state=state), QpAttrMask.STATE)
        seen["log"] = [a.qp_state for a, _ in qp.modify_log]
        seen["peer"] = (qp.remote_vqpn, qp.remote_vlid)
        seen["real_state"] = qp.real.state
        yield ctx.compute(seconds=0.01)

    _run_one_rank(app, "walk")
    assert seen["log"] == [QpState.INIT, QpState.RTR, QpState.RTS,
                           QpState.ERR, QpState.RESET]
    assert seen["peer"] == (7, 3)
    assert seen["real_state"] is QpState.RESET


def test_illegal_modify_qp_through_wrapped_stack():
    """A rejected modify on a connected QP — RTS -> RTR naming a new
    peer — changes nothing the restart would replay or translate: the
    log, the remote ids and the real QP's state are those of the last
    accepted call."""
    seen = {}

    def app(ctx):
        ibv, _pd, qp = _open_qp(ctx)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.INIT),
                      QpAttrMask.STATE)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTR, dest_qp_num=7,
                                      dlid=3),
                      QpAttrMask.STATE | QpAttrMask.DEST_QPN | QpAttrMask.AV)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.RTS),
                      QpAttrMask.STATE)
        before = [(a.qp_state, m) for a, m in qp.modify_log]
        with pytest.raises(VerbsError,
                           match="illegal QP transition RTS -> RTR"):
            ibv.modify_qp(
                qp, ibv_qp_attr(qp_state=QpState.RTR, dest_qp_num=9, dlid=4),
                QpAttrMask.STATE | QpAttrMask.DEST_QPN | QpAttrMask.AV)
        seen["log"] = (before, [(a.qp_state, m) for a, m in qp.modify_log])
        seen["peer"] = (qp.remote_vqpn, qp.remote_vlid)
        seen["real_state"] = qp.real.state
        yield ctx.compute(seconds=0.01)

    _run_one_rank(app, "mid-walk-reject")
    before, after = seen["log"]
    assert len(after) == 3 and after == before
    assert seen["peer"] == (7, 3)
    assert seen["real_state"] is QpState.RTS


def test_rejected_modify_qp_leaves_no_log_entry():
    """An illegal application jump (RESET -> RTS) fails with the driver's
    ``VerbsError``.  Principle 3 logs only what the driver accepted: the
    rejected call leaves neither a replay-log entry nor a remote peer,
    and the next legal modify is logged as usual."""
    seen = {}

    def app(ctx):
        ibv, _pd, qp = _open_qp(ctx)
        attr, mask = _RTS_TO_PEER
        try:
            ibv.modify_qp(qp, attr, mask)
        except VerbsError as err:
            seen["error"] = err
        seen["after_reject"] = (list(qp.modify_log), qp.remote_vqpn,
                                qp.remote_vlid)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.INIT),
                      QpAttrMask.STATE)
        seen["after_accept"] = [a.qp_state for a, _ in qp.modify_log]
        yield ctx.compute(seconds=0.01)

    _run_one_rank(app, "reject")
    assert "illegal QP transition RESET -> RTS" in str(seen["error"])
    assert seen["after_reject"] == ([], None, None)
    assert seen["after_accept"] == [QpState.INIT]


def test_poisoned_modify_log_fails_restart_replay():
    """A modify log that walks an illegal transition — here poisoned by
    hand, the only way one can now arise — is refused by the driver when
    RESTART_REPLAY walks it against the re-created QP."""
    state = {}

    def app(ctx):
        ibv, _pd, qp = _open_qp(ctx)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.INIT),
                      QpAttrMask.STATE)
        qp.modify_log.append((ibv_qp_attr(qp_state=QpState.RTS),
                              QpAttrMask.STATE))  # INIT -> RTS skips RTR
        yield from _park(ctx, state)

    with pytest.raises(VerbsError, match="illegal QP transition INIT -> RTS"):
        _checkpoint_restart_one_rank(app, "poison", state)


# -- modify_srq: logged once accepted, replayed at restart ---------------------


def test_rejected_modify_srq_leaves_no_log_entry():
    seen = {}

    def app(ctx):
        ibv, pd, _qp = _open_qp(ctx)
        srq = ibv.create_srq(pd, max_wr=8)
        ibv.modify_srq(srq, 4)
        with pytest.raises(VerbsError, match="exceeds the SRQ's max_wr"):
            ibv.modify_srq(srq, 9)
        seen["srq"] = (list(srq.modify_log), srq.limit)
        yield ctx.compute(seconds=0.01)

    _run_one_rank(app, "srq-reject")
    assert seen["srq"] == ([4], 4)


def test_modify_srq_replayed_onto_the_new_real_srq():
    state = {}

    def app(ctx):
        ibv, pd, _qp = _open_qp(ctx)
        srq = ibv.create_srq(pd, max_wr=16)
        ibv.modify_srq(srq, 5)
        ibv.modify_srq(srq, 12)
        state["srq"], state["real_before"] = srq, srq.real
        yield from _park(ctx, state)

    _checkpoint_restart_one_rank(app, "srq-replay", state)
    srq = state["srq"]
    assert srq.real is not state["real_before"]
    assert srq.modify_log == [5, 12]
    assert srq.real.limit == 12 == srq.limit


# -- wqe-balance ---------------------------------------------------------------


def test_orphan_completion_raises_wqe_log_error():
    plugin = InfinibandPlugin()
    vqp = SimpleNamespace(qp_num=42, vsrq=None, recv_log=WqeLog(),
                          send_log=WqeLog())
    plugin.vqp_by_real_qpn[42] = vqp
    wc = SimpleNamespace(qp_num=42, wr_id=0x7, opcode=WcOpcode.RECV)
    with pytest.raises(WqeLogError, match="orphan"):
        plugin.take_completion(wc)


def _recv_app(state, n_recvs):
    """One rank with an INIT QP and ``n_recvs`` logged receives, parked
    for a checkpoint-restart."""

    def app(ctx):
        ibv, pd, qp = _open_qp(ctx)
        ibv.modify_qp(qp, ibv_qp_attr(qp_state=QpState.INIT),
                      QpAttrMask.STATE)
        buf = ctx.memory.mmap("r.buf", 64 * n_recvs)
        mr = ibv.reg_mr(pd, buf.addr, 64 * n_recvs,
                        AccessFlags.LOCAL_WRITE)
        for i in range(n_recvs):
            ibv.post_recv(qp, ibv_recv_wr(i, [
                ibv_sge(buf.addr + 64 * i, 64, mr.lkey)]))
        state["qp"] = qp
        yield from _park(ctx, state)

    return app


def test_replay_repost_balance_is_silent(trace_invariants):
    """A real restart re-posts exactly the surviving logged WQEs: the
    ``replay`` span balances and every trace invariant holds."""
    state = {}
    _checkpoint_restart_one_rank(_recv_app(state, 3), "balance", state)
    replays = trace_invariants.of_kind("replay", "E")
    assert [(e["expected"], e["reposts"]) for e in replays] == [(3, 3)]
    assert len(state["qp"].recv_log) == 3
    assert trace_invariants.violations() == []


def test_replay_repost_imbalance_raises(trace_invariants):
    """The same real trace with one re-post dropped from its ``replay``
    span breaks the ``replay-balance`` invariant."""
    state = {}
    _checkpoint_restart_one_rank(_recv_app(state, 3), "imbalance", state)
    events = [dict(e) for e in trace_invariants.events]
    replay_end = next(e for e in events
                      if e["kind"] == "replay" and e["ev"] == "E")
    replay_end["reposts"] -= 1
    violations = check_trace_invariants(events)
    assert len(violations) == 1
    assert violations[0].startswith("[replay-balance]")
    assert "re-posted 2 WQE(s) but the surviving logs held 3" in violations[0]


def test_injected_crash_restart_is_violation_free(trace_invariants):
    """The chaos harness's own restart path, with a node crashed by the
    injector: the driver accepts every replayed modify, no completion is
    an orphan, and the trace holds a balanced replay that re-posted WQEs
    — the ``fault_sweep --analysis`` gate passes on it."""
    verdict = verify_restart_path(seed=31)
    counters = verdict["counters"]
    assert counters["replayed_modifies"] > 0
    assert counters["reposted_recvs"] > 0
    assert verdict["qps_remapped"] and verdict["mrs_remapped"]
    assert restart_trace_failures(trace_invariants.events,
                                  dropped=trace_invariants.dropped) == []


# -- rkey-pd -------------------------------------------------------------------


def _restarted_plugin(db):
    plugin = InfinibandPlugin()
    plugin.restarted = True
    plugin.db = db
    return plugin


def _vqp_to(vlid, vqpn):
    return VirtualQp(real=None, vpd=None, qp_num=1, qp_type=QpType.RC,
                     vsend_cq=None, vrecv_cq=None, vsrq=None,
                     sq_sig_all=False, remote_vqpn=vqpn, remote_vlid=vlid)


def test_cross_pd_rkey_raises_id_translation_error():
    plugin = _restarted_plugin({"qp:10/100": {"pd": "a/0", "qpn": 7},
                                "mr:b/0:5": 0x99, "mr:c/1:5": 0x98})
    with pytest.raises(IdTranslationError) as info:
        plugin.translate_rkey(_vqp_to(10, 100), 5)
    msg = str(info.value)
    assert "vrkey 0x5" in msg and "pd a/0" in msg
    assert "['b/0', 'c/1']" in msg


def test_other_rkey_misses_pass_through():
    """DESIGN.md §9: a resolved vrkey translates; a remote QP that was
    never published (created after the restart, identity-mapped) and a
    vrkey that no pd holds (the remote HCA answers REM_ACCESS_ERR) both
    pass the vrkey through unchanged."""
    plugin = _restarted_plugin({"qp:10/100": {"pd": "a/0", "qpn": 7},
                                "mr:a/0:5": 0x99, "mr:b/0:6": 0x98})
    assert plugin.translate_rkey(_vqp_to(10, 100), 5) == 0x99
    assert plugin.translate_rkey(_vqp_to(10, 200), 6) == 6
    assert plugin.translate_rkey(_vqp_to(10, 100), 7) == 7
