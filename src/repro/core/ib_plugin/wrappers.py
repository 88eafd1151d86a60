"""The interposition layer: a drop-in replacement for ``VerbsLib``.

``dmtcp_launch`` swaps this object into the process's library table, so
application code calls it exactly as it would call the real library (the
LD_PRELOAD analogue).  Every entry:

* translates virtual structs/ids to real ones before calling down
  (Principle 1), going through the saved real ``ops`` pointers for the
  "inline" functions (Principle 2);
* records posts and queue-pair modifications in the shadow logs
  (Principle 3);
* serves drained completions from the plugin's private queue before ever
  touching the real completion queue (Principle 5);
* charges the interposition overhead that shows up as the paper's 0.8-1.7%
  runtime tax.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence

from ... import hooks
from ...ibverbs.enums import QpAttrMask, QpType, SendFlags, WrOpcode
from ...ibverbs.structs import (
    RecvWrs,
    VerbsError,
    ibv_port_attr,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_wc,
    recv_chain,
)
from .errors import UnsupportedQpTypeError
from .shadow import (
    SendLogEntry,
    VirtualContext,
    VirtualCq,
    VirtualMr,
    VirtualPd,
    VirtualQp,
    VirtualSrq,
    WqeLog,
)

if TYPE_CHECKING:  # pragma: no cover
    from .plugin import InfinibandPlugin

# raw flag bits: IntFlag ``&`` builds a new flag instance per use
_F_INLINE = SendFlags.INLINE._value_
_F_SIGNALED = SendFlags.SIGNALED._value_

__all__ = ["WrappedVerbs"]


def _post_logged(post: Callable, real, handed: Sequence[ibv_recv_wr],
                 chain: Sequence[ibv_recv_wr], log: WqeLog) -> None:
    """``post(real, handed)`` — ``handed`` is ``chain`` as the driver is to
    see it — then log exactly the prefix of ``chain`` the driver accepted:
    a refused WR (``bad_wr``) and the ones after it are never replayed."""
    try:
        post(real, handed)
    except VerbsError as err:
        log.extend(chain[:err.bad_wr or 0])
        raise
    log.extend(chain)


class WrappedVerbs:
    """The application-facing verbs library under DMTCP."""

    def __init__(self, plugin: "InfinibandPlugin"):
        self.plugin = plugin

    # -- helpers -------------------------------------------------------------

    def _charge(self) -> None:
        self.plugin.charge_wrapper()

    @property
    def _real(self):
        return self.plugin.real_lib

    # -- devices ------------------------------------------------------------------

    def get_device_list(self):
        self._charge()
        return self._real.get_device_list()

    def open_device(self, device) -> VirtualContext:
        self._charge()
        return self.plugin.open_device(device)

    def close_device(self, vctx: VirtualContext) -> None:
        self._charge()
        self._real.close_device(vctx.real)
        self.plugin.registry_remove(vctx)

    def query_port(self, vctx: VirtualContext,
                   port_num: int = 1) -> ibv_port_attr:
        """The application sees the *virtual* lid — frozen at first query,
        stable across restarts even though the real lid changes (§3.2)."""
        self._charge()
        attr = self._real.query_port(vctx.real, port_num)
        vctx.real_lid = attr.lid
        if vctx.vlid == 0:
            vctx.vlid = attr.lid
        return ibv_port_attr(lid=vctx.vlid, state=attr.state,
                             max_mtu=attr.max_mtu)

    # -- pds / mrs -----------------------------------------------------------------

    def alloc_pd(self, vctx: VirtualContext) -> VirtualPd:
        self._charge()
        return self.plugin.alloc_pd(vctx)

    def dealloc_pd(self, vpd: VirtualPd) -> None:
        self._charge()
        self._real.dealloc_pd(vpd.real)
        self.plugin.registry_remove(vpd)

    def reg_mr(self, vpd: VirtualPd, addr: int, length: int,
               access=None) -> VirtualMr:
        self._charge()
        return self.plugin.reg_mr(vpd, addr, length, access)

    def dereg_mr(self, vmr: VirtualMr) -> None:
        self._charge()
        self._real.dereg_mr(vmr.real)
        self.plugin.registry_remove(vmr)

    # -- cqs --------------------------------------------------------------------------

    def create_cq(self, vctx: VirtualContext, cqe: int = 4096) -> VirtualCq:
        self._charge()
        real = self._real.create_cq(vctx.real, cqe)
        vcq = VirtualCq(real=real, vcontext=vctx, cqe=cqe)
        self.plugin.registry_add(vcq)
        return vcq

    def destroy_cq(self, vcq: VirtualCq) -> None:
        self._charge()
        self._real.destroy_cq(vcq.real)
        self.plugin.registry_remove(vcq)

    def poll_cq(self, vcq: VirtualCq, num_entries: int) -> List[ibv_wc]:
        """Inline function → dispatch through the (plugin's) ops table."""
        return vcq.vcontext.ops.poll_cq(vcq, num_entries)

    def req_notify_cq(self, vcq: VirtualCq, solicited_only: bool = False):
        return vcq.context.ops.req_notify_cq(vcq, solicited_only)

    def get_cq_event(self, notify_event):
        return notify_event

    # -- srqs ---------------------------------------------------------------------------

    def create_srq(self, vpd: VirtualPd, max_wr: int = 4096) -> VirtualSrq:
        self._charge()
        real = self._real.create_srq(vpd.real, max_wr)
        vsrq = VirtualSrq(real=real, vpd=vpd, max_wr=max_wr)
        self.plugin.registry_add(vsrq)
        return vsrq

    def modify_srq(self, vsrq: VirtualSrq, limit: int) -> None:
        self._charge()
        self._real.modify_srq(vsrq.real, limit)
        # recorded for restart replay only once the driver accepted it
        vsrq.modify_log.append(limit)
        vsrq.limit = limit

    def destroy_srq(self, vsrq: VirtualSrq) -> None:
        self._charge()
        self._real.destroy_srq(vsrq.real)
        self.plugin.registry_remove(vsrq)

    def post_srq_recv(self, vsrq: VirtualSrq, wrs: RecvWrs) -> None:
        return vsrq.vpd.vcontext.ops.post_srq_recv(vsrq, wrs)

    # -- qps ------------------------------------------------------------------------------

    def create_qp(self, vpd: VirtualPd,
                  init_attr: ibv_qp_init_attr) -> VirtualQp:
        self._charge()
        return self.plugin.create_qp(vpd, init_attr)

    def modify_qp(self, vqp: VirtualQp, attr, mask: QpAttrMask) -> None:
        self._charge()
        self._real.modify_qp(
            vqp.real, self.plugin.translate_qp_attr(attr, mask, vqp), mask)
        # Principle 3: record for restart replay (with the app's VIRTUAL
        # ids) only once the driver accepted the call — a rejected
        # transition must not be replayed
        vqp.modify_log.append((attr.copy(), mask))
        if mask & QpAttrMask.DEST_QPN:
            vqp.remote_vqpn = attr.dest_qp_num
        if mask & QpAttrMask.AV:
            vqp.remote_vlid = attr.dlid

    def destroy_qp(self, vqp: VirtualQp) -> None:
        self._charge()
        self._real.destroy_qp(vqp.real)
        self.plugin.registry_remove(vqp)

    def post_send(self, vqp: VirtualQp, wr: ibv_send_wr) -> None:
        """Inline function → dispatch through the (plugin's) ops table."""
        return vqp.vpd.vcontext.ops.post_send(vqp, wr)

    def post_recv(self, vqp: VirtualQp, wrs: RecvWrs) -> None:
        return vqp.vpd.vcontext.ops.post_recv(vqp, wrs)

    # -- ops-table entries (installed into VirtualContext.ops) ------------------------
    #
    # The per-message path (DESIGN.md §15): a post charges the wrapper
    # inline, once per WR.  A send takes one snapshot of its WR; a receive
    # WR is an immutable value, and a receive post may carry a chain of
    # them.  What is posted goes through translation — which hands it back
    # unchanged until a restart moves a key — to the driver; only what the
    # driver accepted is logged, so a rejected post leaves nothing for
    # replay to re-post.  ``overhead_debt`` is a float sum, so the operand
    # order — wrapper cost first, then the IB2TCP copy, WR by WR in chain
    # order — is part of the simulated clock.

    def ops_post_send(self, vqp: VirtualQp, wr: ibv_send_wr) -> None:
        plugin = self.plugin
        logical = sum(s.length for s in wr.sg_list)
        plugin.stats["wrapper_calls"] += 1
        plugin.appctx.proc.overhead_debt += plugin.costs.wrapper_cost(logical)
        plugin.charge_ib2tcp_copy(logical)
        if vqp.qp_type is QpType.UD:
            raise UnsupportedQpTypeError(
                "UD queue pairs are not supported (§4)")
        snap = wr.copy()
        vqp.vpd.vcontext.real_ops.post_send(
            vqp.real, plugin.translate_send_wr(vqp, snap))
        flags = snap.send_flags._value_
        vqp.send_log.append(SendLogEntry(
            snap, vqp.sq_sig_all or bool(flags & _F_SIGNALED),
            snap.opcode is WrOpcode.RDMA_WRITE_WITH_IMM or (
                snap.opcode is WrOpcode.RDMA_WRITE
                and bool(flags & _F_INLINE))))

    def ops_post_recv(self, vqp: VirtualQp, wrs: RecvWrs) -> None:
        plugin = self.plugin
        proc, costs = plugin.appctx.proc, plugin.costs
        chain = recv_chain(wrs)
        for _wr in chain:
            plugin.stats["wrapper_calls"] += 1
            proc.overhead_debt += costs.wrapper_cost()
            plugin.charge_ib2tcp_copy(0.0)
        _post_logged(vqp.vpd.vcontext.real_ops.post_recv, vqp.real,
                     plugin.translate_recv_chain(chain), chain, vqp.recv_log)

    def ops_post_srq_recv(self, vsrq: VirtualSrq, wrs: RecvWrs) -> None:
        plugin = self.plugin
        proc, costs = plugin.appctx.proc, plugin.costs
        chain = recv_chain(wrs)
        for _wr in chain:
            plugin.stats["wrapper_calls"] += 1
            proc.overhead_debt += costs.wrapper_cost()
        _post_logged(vsrq.vpd.vcontext.real_ops.post_srq_recv, vsrq.real,
                     plugin.translate_recv_chain(chain), chain,
                     vsrq.recv_log)

    def ops_poll_cq(self, vcq: VirtualCq, num_entries: int) -> List[ibv_wc]:
        """Principle 5: refill from the plugin's private queue first; the
        real CQ is only polled once the private queue is empty."""
        plugin = self.plugin
        plugin.charge_wrapper()
        private = vcq.private_queue
        private_before = len(private)
        out: List[ibv_wc] = []
        while private and len(out) < num_entries:
            out.append(private.popleft())
        served_private = len(out)
        if served_private < num_entries:
            out.extend(map(plugin.take_completion,
                           vcq.vcontext.real_ops.poll_cq(
                               vcq.real, num_entries - served_private)))
        tracer = hooks.tracer
        if tracer is not None and (out or private_before):
            # empty polls are not recorded — only refill activity and
            # real-CQ hits carry Principle-5 evidence
            tracer.emit("refill.poll", plugin.appctx.name,
                        plugin.appctx.env.now,
                        private_before=private_before,
                        served_private=served_private,
                        served_real=len(out) - served_private,
                        restarted=plugin.restarted)
        return out

    def ops_req_notify_cq(self, vcq: VirtualCq, solicited_only: bool = False):
        self._charge()
        return self.plugin.arm_notify(vcq)
