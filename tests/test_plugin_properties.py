"""Property-style tests of the plugin's end-to-end guarantees: arbitrary
checkpoint instants never corrupt traffic; limitation modes behave as the
paper's §4/§7 describe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pingpong import pingpong_app
from repro.core.ib_plugin import InfinibandPlugin, VirtualIdConflictError
from repro.dmtcp import (AppSpec, CostModel, RunConfig, dmtcp_launch,
                         dmtcp_restart)
from repro.hardware import BUFFALO_CCR, Cluster, HardwareSpec
from repro.sim import Environment


def _pp_specs(cluster, iters, msg_bytes=1024):
    server = cluster.nodes[0].name
    return [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, None, True, iters=iters,
                                         msg_bytes=msg_bytes)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, server, False, iters=iters,
                                         msg_bytes=msg_bytes)),
    ]


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=5e-4, max_value=8e-3),
       st.booleans())
def test_checkpoint_at_arbitrary_instant_never_corrupts(ckpt_at, restart):
    """Whatever instant the checkpoint hits — mid-transfer, mid-poll,
    between iterations — resume and restart both deliver every payload."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2,
                      name=f"prop-{ckpt_at:.5f}-{restart}")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=300),
        plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(ckpt_at)
        if restart:
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2,
                               name=f"prop2-{ckpt_at:.5f}")
            session2 = yield from dmtcp_restart(cluster2, ckpt)
            return (yield from session2.wait())
        yield from session.checkpoint(intent="resume")
        return (yield from session.wait())

    results = env.run(until=env.process(scenario()))
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 300 for r in results)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=3))
def test_repeated_checkpoints_resume(n_ckpts):
    """Multiple resume-checkpoints in one run stay correct."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name=f"multi{n_ckpts}")
    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=400),
        plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        for k in range(n_ckpts):
            yield env.timeout(0.001 * (k + 1))
            yield from session.checkpoint(intent="resume")
        return (yield from session.wait())

    results = env.run(until=env.process(scenario()))
    assert all(r["errors"] == 0 for r in results)


def test_virtual_id_conflict_detection_and_unique_mode():
    """§7: an object created after restart may receive a real id that
    collides with a live virtual id."""
    plugin = InfinibandPlugin()
    plugin.restarted = True
    table = {0x100: object()}
    with pytest.raises(VirtualIdConflictError):
        plugin._alloc_virtual_id(0x100, table)

    class Ctx:
        name = "proc-a"

    unique = InfinibandPlugin(globally_unique_vids=True)
    unique.appctx = Ctx()
    unique.restarted = True
    vid = unique._alloc_virtual_id(0x100, table)
    assert vid != 0x100 and vid not in table
    vid2 = unique._alloc_virtual_id(0x100, table)
    assert vid2 not in (0x100, vid)


def test_drain_settle_too_short_for_slow_fabric_loses_imm_writes():
    """The paper's admitted §4 window: an RDMA-write-with-immediate (no
    sender completion ever) still in flight when the drain declares quiet
    is assumed complete; if the fabric is slower than the settle, restart
    loses it.  With an adequate settle the same run is safe."""
    slow_fabric = HardwareSpec(
        name="slowfab", cores_per_node=1, gflops_per_core=1.0,
        ib_latency=5e-3,  # pathological 5ms wire
        has_lustre=False)

    def run(settle):
        env = Environment()
        costs = CostModel(drain_settle=settle)
        cluster = Cluster(env, slow_fabric, n_nodes=2,
                          name=f"slow-{settle}")
        session = env.run(until=env.process(dmtcp_launch(
            cluster, _pp_specs(cluster, iters=50),
            plugin_factory=lambda: [InfinibandPlugin()],
            config=RunConfig(costs=costs))))

        def scenario():
            yield env.timeout(0.03)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            cluster2 = Cluster(env, slow_fabric, n_nodes=2,
                               name=f"slow2-{settle}")
            session2 = yield from dmtcp_restart(cluster2, ckpt)
            done = env.process(session2.wait())
            yield env.any_of([done, env.timeout(env.now + 600.0)])
            return done

        done = env.run(until=env.process(scenario()))
        return done.triggered and done.ok

    # an adequate settle (>= wire latency) is always safe
    assert run(settle=20e-3)
    # the inadequate settle *may* hang the restarted run (lost message);
    # either outcome is allowed here — the point is the safe case works —
    # but it must not corrupt silently if it does complete
    run(settle=0.05e-3)


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=5e-4, max_value=8e-3),
       st.integers(min_value=0, max_value=1))
def test_injected_crash_at_arbitrary_instant_restart_survives(ckpt_at,
                                                              crash_node):
    """The chaos variant of the arbitrary-instant property: freeze at any
    instant, then a node-crash from the fault injector (either node) kills
    the live cluster before restart — every payload still arrives and
    every post-restart id is freshly virtualized."""
    from repro.faults import FailureEvent, FixedSchedule, Injector

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2,
                      name=f"chaosprop-{ckpt_at:.5f}-{crash_node}")
    plugins = []

    def factory():
        p = InfinibandPlugin()
        plugins.append(p)
        return [p]

    session = env.run(until=env.process(dmtcp_launch(
        cluster, _pp_specs(cluster, iters=300), plugin_factory=factory)))

    def scenario():
        yield env.timeout(ckpt_at)
        ckpt = yield from session.checkpoint(intent="restart")
        injector = Injector(env, FixedSchedule([
            FailureEvent(t=env.now + 1e-6, kind="node-crash",
                         node_index=crash_node)]))
        injector.set_target(cluster)
        record = yield injector.arm()
        assert record.fatal and record.applied
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=2,
                           name=f"chaosprop2-{ckpt_at:.5f}-{crash_node}")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    assert all(r["errors"] == 0 for r in results)
    assert all(r["iters"] == 300 for r in results)
    for plugin in plugins:
        for vqp in plugin.qps:
            assert vqp.qp_num != vqp.real.qp_num
        for vmr in plugin.mrs:
            assert vmr.rkey != vmr.real.rkey


# -- Principle 3: the log holds what was posted, the driver a translation --------

import dataclasses  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from repro.core.ib_plugin import (  # noqa: E402
    VirtualContext,
    VirtualMr,
    VirtualPd,
    VirtualQp,
    VirtualSrq,
)
from repro.ibverbs import (  # noqa: E402
    QpType,
    SendFlags,
    WrOpcode,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
)
from repro.ibverbs.structs import ibv_context_ops  # noqa: E402

_VLKEYS = (0x1000, 0x1010, 0x1020)     # registered; 0x9999 never is
_RDMA = (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM,
         WrOpcode.RDMA_READ)


def _ref_translate_sge(plugin, sge):
    """The translation as the copy-heavy seed wrote it: the reference the
    single-snapshot path must stay field-equal to."""
    vmr = plugin.vmr_by_vlkey.get(sge.lkey)
    return ibv_sge(addr=sge.addr, length=sge.length,
                   lkey=vmr.real.lkey if vmr is not None else sge.lkey)


def _ref_translate_recv_wr(plugin, wr):
    return ibv_recv_wr(wr.wr_id, tuple(_ref_translate_sge(plugin, s)
                                       for s in wr.sg_list))


def _ref_translate_send_wr(plugin, vqp, wr):
    real_wr = wr.copy()
    real_wr.sg_list = tuple(_ref_translate_sge(plugin, s)
                            for s in wr.sg_list)
    if wr.opcode in _RDMA:
        real_wr.rkey = plugin.translate_rkey(vqp, wr.rkey)
    return real_wr


def _rig():
    """A plugin wired to a recording driver: one context, pd, srq and RC
    queue pair, three memory regions whose real lkeys equal the virtual
    ones until :func:`_fake_restart`."""
    seen = []
    plugin = InfinibandPlugin()
    plugin.appctx = SimpleNamespace(
        name="p", proc=SimpleNamespace(overhead_debt=0.0),
        env=SimpleNamespace(now=0.0))
    record = lambda kind: lambda real, wr: seen.append((kind, real, wr))
    plugin.real_lib = SimpleNamespace(post_srq_recv=record("srq"))
    vctx = VirtualContext(real=None, device_name="d", vendor="mlx4",
                          real_ops=ibv_context_ops(
                              post_send=record("send"),
                              post_recv=record("recv"),
                              post_srq_recv=record("srq")))
    vpd = VirtualPd(real=None, vcontext=vctx, guid=("p", 0))
    for vlkey in _VLKEYS:
        plugin.vmr_by_vlkey[vlkey] = VirtualMr(
            real=SimpleNamespace(lkey=vlkey, rkey=vlkey + 1), vpd=vpd,
            addr=0, length=1 << 20, access=None, lkey=vlkey,
            rkey=vlkey + 1)
    vsrq = VirtualSrq(real="real-srq", vpd=vpd, max_wr=64)
    vqp = VirtualQp(real="real-qp", vpd=vpd, qp_num=5, qp_type=QpType.RC,
                    vsend_cq=None, vrecv_cq=None, vsrq=None,
                    sq_sig_all=False, remote_vqpn=6, remote_vlid=3)
    plugin.qps, plugin.srqs = [vqp], [vsrq]
    return plugin, vqp, vsrq, seen


def _fake_restart(plugin):
    """New real lkeys everywhere and a published db that moves rkeys."""
    plugin.restarted = True
    for vmr in plugin.vmr_by_vlkey.values():
        vmr.real = SimpleNamespace(lkey=vmr.lkey + 0x500000,
                                   rkey=vmr.rkey + 0x500000)
    plugin.db = {"qp:3/6": {"pd": "peer/0", "qpn": 77},
                 "mr:peer/0:4242": 0xBEEF}


_sge_lists = st.lists(
    st.builds(ibv_sge, st.integers(0, 1 << 30), st.integers(0, 4096),
              st.sampled_from(_VLKEYS + (0x9999,))),
    min_size=1, max_size=4)
_sges = st.one_of(_sge_lists, _sge_lists.map(tuple))
_send_wrs = st.builds(
    ibv_send_wr, wr_id=st.integers(0, 50), sg_list=_sges,
    opcode=st.sampled_from(list(WrOpcode)),
    send_flags=st.sampled_from([SendFlags(0), SendFlags.SIGNALED,
                                SendFlags.INLINE,
                                SendFlags.SIGNALED | SendFlags.INLINE]),
    imm_data=st.one_of(st.none(), st.integers(0, 1 << 31)),
    remote_addr=st.integers(0, 1 << 40),
    rkey=st.sampled_from([0, 4242, 31337]))
_recv_wrs = st.builds(ibv_recv_wr, wr_id=st.integers(0, 50), sg_list=_sges)


def _scribble(wr):
    """What a careless application may do to its WR once post returned.
    A receive WR is a value: only a list ``sg_list`` inside it can still
    change."""
    if isinstance(wr.sg_list, list):
        wr.sg_list.reverse()
        wr.sg_list.append(ibv_sge(1, 2, 3))
    elif isinstance(wr, ibv_send_wr):
        wr.sg_list = wr.sg_list[::-1] + (ibv_sge(1, 2, 3),)
    if isinstance(wr, ibv_send_wr):
        wr.wr_id += 1000
        wr.rkey ^= 0xFFFF
        wr.opcode = WrOpcode.SEND
        wr.send_flags = SendFlags(0)


def _fields(wr):
    """A WR's fields, with ``sg_list`` as a tuple."""
    if isinstance(wr, ibv_send_wr):
        return dataclasses.astuple(wr.copy())
    return (wr.wr_id, tuple(wr.sg_list))


def _handed(seen):
    """What the recording driver was handed, one ``(kind, wr)`` per WR: a
    receive post hands it a chain."""
    return [(kind, wr) for kind, _real, item in seen
            for wr in ((item,) if kind == "send" else item)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_send_wrs, _recv_wrs, _recv_wrs.map(
    lambda wr: ("srq", wr))), min_size=1, max_size=8))
def test_log_holds_a_copy_and_driver_sees_the_seed_translation(posts):
    plugin, vqp, vsrq, seen = _rig()
    ops = plugin.wrapped
    posted = []     # (kind, field snapshot of the WR as posted)
    for item in posts:
        kind, wr = item if type(item) is tuple else (
            "send" if isinstance(item, ibv_send_wr) else "recv", item)
        want = (_ref_translate_send_wr(plugin, vqp, wr) if kind == "send"
                else _ref_translate_recv_wr(plugin, wr))
        if kind == "send":
            ops.ops_post_send(vqp, wr)
        elif kind == "recv":
            ops.ops_post_recv(vqp, wr)
        else:
            ops.ops_post_srq_recv(vsrq, wr)
        ((got_kind, got),) = _handed(seen)
        seen.clear()
        assert got_kind == kind
        # a send is copied; a receive value is shared unless its sg_list
        # was a list, which is frozen into a tuple once
        assert (got is wr) == (kind != "send"
                               and isinstance(wr.sg_list, tuple))
        assert isinstance(got.sg_list, tuple)
        assert _fields(got) == _fields(want)
        with pytest.raises(AttributeError):
            got.sg_list[0].lkey = 0x9999     # an SGE is a value
        posted.append((kind, _fields(wr)))
        _scribble(wr)

    # what Principle 3 logged is what was posted, not what the app holds
    logged = {"send": [e.wr for e in vqp.send_log],
              "recv": list(vqp.recv_log), "srq": list(vsrq.recv_log)}
    for kind in logged:
        assert [_fields(wr) for wr in logged[kind]] == \
            [snap for k, snap in posted if k == kind]
    for entry in vqp.send_log:
        flags = entry.wr.send_flags
        assert entry.signaled == bool(flags & SendFlags.SIGNALED)
        assert entry.assume_complete_on_drain == (
            entry.wr.opcode is WrOpcode.RDMA_WRITE_WITH_IMM
            or (entry.wr.opcode is WrOpcode.RDMA_WRITE
                and bool(flags & SendFlags.INLINE)))

    # ... and replay re-posts exactly that, translated against the new ids
    _fake_restart(plugin)
    plugin._restart_replay()
    handed = _handed(seen)
    for kind in ("srq", "recv", "send"):        # replay order
        for wr in logged[kind]:
            got_kind, got = handed.pop(0)
            want = (_ref_translate_send_wr(plugin, vqp, wr)
                    if kind == "send"
                    else _ref_translate_recv_wr(plugin, wr))
            assert got_kind == kind
            assert _fields(got) == _fields(want)
    assert not handed


def test_driver_is_handed_the_logged_snapshot_until_keys_move():
    """One value per posted receive: before a restart the application,
    the log and the driver share it, and a list ``sg_list`` is frozen into
    a tuple once; a send is one snapshot, which the log and the driver
    share.  Once keys move, the driver gets a translated WR of its own
    and the log keeps the virtual one."""
    plugin, vqp, vsrq, seen = _rig()
    ops = plugin.wrapped
    sges = (ibv_sge(0x100, 64, _VLKEYS[0]), ibv_sge(0x200, 32, _VLKEYS[1]))
    send = ibv_send_wr(1, sges, WrOpcode.RDMA_WRITE, remote_addr=0x40,
                       rkey=4242)
    recv = ibv_recv_wr(2, sges)
    srq = ibv_recv_wr(3, list(sges))
    ops.ops_post_send(vqp, send)
    ops.ops_post_recv(vqp, recv)
    ops.ops_post_srq_recv(vsrq, srq)
    (e_send,), (e_recv,), (e_srq,) = vqp.send_log, vqp.recv_log, \
        vsrq.recv_log
    assert [(k, len(wrs)) for k, _r, wrs in seen[1:]] == \
        [("recv", 1), ("srq", 1)]
    (_k, _r, d_send), (_k, _r, (d_recv,)), (_k, _r, (d_srq,)) = seen
    assert d_send is e_send.wr and d_send is not send
    assert e_send.wr.sg_list is sges
    assert d_recv is e_recv is recv
    assert d_srq is e_srq and e_srq is not srq
    assert e_srq.sg_list == sges and isinstance(e_srq.sg_list, tuple)
    assert isinstance(srq.sg_list, list)       # the application's own

    real_lkeys = [k + 0x500000 for k in _VLKEYS[:2]]
    _fake_restart(plugin)
    seen.clear()
    plugin._restart_replay()
    ops.ops_post_recv(vqp, ibv_recv_wr(4, sges))
    logged = (e_srq, e_recv, e_send.wr, list(vqp.recv_log)[-1])
    handed = _handed(seen)
    assert [k for k, _wr in handed] == ["srq", "recv", "send", "recv"]
    for (_k, wr), entry in zip(handed, logged):
        assert wr is not entry
        assert [s.lkey for s in wr.sg_list] == real_lkeys
        assert [s.lkey for s in entry.sg_list] == list(_VLKEYS[:2])
    assert handed[2][1].rkey == 0xBEEF and e_send.wr.rkey == 4242


# -- a post the driver rejects is not logged ---------------------------------------

from conftest import make_endpoint  # noqa: E402

from repro.ibverbs import VerbsLib, VerbsError  # noqa: E402
from repro.ibverbs.connect import connect_pair, qp_to_init  # noqa: E402


def _plugin_endpoint(proc):
    """``proc``'s verbs opened through the plugin over the real driver."""
    plugin = InfinibandPlugin()
    plugin.appctx = SimpleNamespace(name=proc.name, proc=proc, env=proc.env)
    plugin.real_lib = VerbsLib(proc)
    return plugin, make_endpoint(proc, plugin.wrapped)


def _replayed(plugin):
    """Replay the logs into a recording driver: ``(kind, wr_id)`` in
    re-post order."""
    seen = []
    record = lambda kind: lambda real, wrs: seen.extend(
        (kind, wr.wr_id) for wr in ((wrs,) if kind == "send" else wrs))
    plugin.real_lib = SimpleNamespace(
        post_srq_recv=record("srq"), modify_qp=lambda real, attr, mask: None)
    for vctx in plugin.contexts:
        vctx.real_ops = ibv_context_ops(post_send=record("send"),
                                        post_recv=record("recv"))
    plugin._restart_replay()
    return seen


def test_rejected_srq_post_leaves_no_log_entry():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="rej-srq")
    plugin, ep = _plugin_endpoint(cluster.nodes[0].fork("p"))
    srq = ep.lib.create_srq(ep.pd, max_wr=2)
    buf, mr = ep.reg(64, "r")
    sges = (ibv_sge(buf.addr, 8, mr.lkey),)
    for wr_id in (1, 2):
        ep.lib.post_srq_recv(srq, ibv_recv_wr(wr_id, sges))
    with pytest.raises(VerbsError, match="SRQ full"):
        ep.lib.post_srq_recv(srq, ibv_recv_wr(3, sges))
    assert plugin._logged_wqes() == 2
    assert _replayed(plugin) == [("srq", 1), ("srq", 2)]


def test_chain_refused_part_way_queues_and_logs_the_accepted_prefix():
    """A chain the driver refuses at ``bad_wr``: the WRs before it are
    queued and logged, the refused one and those after it are neither."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="rej-chain")
    plugin, ep = _plugin_endpoint(cluster.nodes[0].fork("p"))
    srq = ep.lib.create_srq(ep.pd, max_wr=2)
    qp = ep.make_qp(srq=srq)
    qp_to_init(ep.lib, qp)
    buf, mr = ep.reg(64, "r")
    sges = (ibv_sge(buf.addr, 8, mr.lkey),)
    with pytest.raises(VerbsError, match="SRQ full") as refused:
        ep.lib.post_srq_recv(srq, [ibv_recv_wr(i, sges) for i in (1, 2, 3)])
    assert refused.value.bad_wr == 2
    assert [wr.wr_id for wr in srq.real._hw.wqes] == [1, 2]
    assert [wr.wr_id for wr in srq.recv_log] == [1, 2]
    # a post_recv chain on an SRQ-attached QP is refused at its first WR
    with pytest.raises(VerbsError, match="SRQ") as refused:
        ep.lib.post_recv(qp, [ibv_recv_wr(4, sges), ibv_recv_wr(5, sges)])
    assert refused.value.bad_wr == 0
    assert not qp.recv_log and qp.real._hw.recv_queue is None
    assert plugin._logged_wqes() == 2
    assert _replayed(plugin) == [("srq", 1), ("srq", 2)]


def test_rejected_inline_send_leaves_no_log_entry():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="rej-inline")
    plugin, a = _plugin_endpoint(cluster.nodes[0].fork("a"))
    b = make_endpoint(cluster.nodes[1].fork("b"))
    qa, qb = a.make_qp(), b.make_qp()
    connect_pair(a.lib, qa, a.lid, b.lib, qb, b.lid)
    buf, mr = a.reg(4096, "big")
    a.lib.post_recv(qa, ibv_recv_wr(1, (ibv_sge(buf.addr, 64, mr.lkey),)))
    a.lib.post_send(qa, ibv_send_wr(2, (ibv_sge(buf.addr, 8, mr.lkey),),
                                    opcode=WrOpcode.SEND))
    with pytest.raises(VerbsError, match="inline"):
        a.lib.post_send(qa, ibv_send_wr(
            3, (ibv_sge(buf.addr, 1024, mr.lkey),), opcode=WrOpcode.SEND,
            send_flags=SendFlags.SIGNALED | SendFlags.INLINE))
    assert plugin._logged_wqes() == 2
    assert _replayed(plugin) == [("recv", 1), ("send", 2)]


def test_rejected_recv_on_srq_qp_leaves_no_log_entry():
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=1, name="rej-srq-qp")
    plugin, ep = _plugin_endpoint(cluster.nodes[0].fork("p"))
    srq = ep.lib.create_srq(ep.pd)
    qp = ep.make_qp(srq=srq)
    qp_to_init(ep.lib, qp)
    buf, mr = ep.reg(64, "r")
    sges = (ibv_sge(buf.addr, 8, mr.lkey),)
    ep.lib.post_srq_recv(srq, ibv_recv_wr(1, sges))
    with pytest.raises(VerbsError, match="SRQ"):
        ep.lib.post_recv(qp, ibv_recv_wr(2, sges))
    assert plugin._logged_wqes() == 1
    assert _replayed(plugin) == [("srq", 1)]
