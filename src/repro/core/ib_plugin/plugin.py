"""The InfiniBand DMTCP plugin — the paper's primary contribution (§3).

Lifecycle:

* **launch** — :meth:`install` interposes :class:`WrappedVerbs` over the
  real library; virtual ids equal real ids (§3.2: translation is trivial
  before the first restart).
* **checkpoint** — after user threads quiesce, :meth:`drain_round` empties
  every real completion queue into per-CQ private queues (Principle 4),
  repeating under the coordinator's global settle protocol until the whole
  job is quiet; WRITE_CKPT then discards send-log entries that can never
  produce a local completion (§4's immediate/inline case).
* **resume** — nothing to do: private queues are served first (Principle 5)
  and the hardware state is untouched.
* **restart** — RESTART re-creates every resource against the new node's
  hardware (new real ids); the checkpoint manager then runs the
  publish/subscribe exchange (§3.2.1-§3.2.2); RESTART_REPLAY replays the
  modify_qp logs and re-posts every logged WQE (Principles 3 and 6 — data
  is re-sent only here, from restored memory).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ... import hooks
from ...dmtcp.events import DmtcpEvent
from ...dmtcp.plugin import Plugin
from ...ibverbs.enums import (AccessFlags, QpAttrMask, QpType, WcOpcode,
                              WrOpcode)
from ...ibverbs.structs import (ibv_qp_init_attr, ibv_recv_wr, ibv_send_wr,
                                ibv_sge, ibv_wc)
from .errors import (
    HeterogeneousDriverError,
    IdTranslationError,
    NoInfinibandError,
    UnsupportedQpTypeError,
    VirtualIdConflictError,
)
from .shadow import (
    VirtualContext,
    VirtualCq,
    VirtualMr,
    VirtualPd,
    VirtualQp,
    VirtualSrq,
)
from .wrappers import WrappedVerbs

_RECV_OPCODES = (WcOpcode.RECV, WcOpcode.RECV_RDMA_WITH_IMM)
_RDMA_OPCODES = (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM,
                 WrOpcode.RDMA_READ)

__all__ = ["InfinibandPlugin"]


def _pd_key(guid) -> str:
    return f"{guid[0]}/{guid[1]}"


class InfinibandPlugin(Plugin):
    """DMTCP plugin for transparent checkpoint-restart over InfiniBand."""

    name = "infiniband"

    def __init__(self, allow_driver_reload: bool = False,
                 globally_unique_vids: bool = False,
                 fallback: Optional[Plugin] = None):
        super().__init__()
        self.allow_driver_reload = allow_driver_reload
        self.globally_unique_vids = globally_unique_vids
        #: the verbs provider a restart onto a node with no HCA gets its
        #: library from (the IB2TCP plugin)
        self.fallback = fallback
        self.real_lib = None
        self.wrapped = WrappedVerbs(self)
        # registry of live virtual resources (Figure 2's "plugin internal
        # resources"), in creation order for faithful re-creation
        self.contexts: List[VirtualContext] = []
        self.pds: List[VirtualPd] = []
        self.mrs: List[VirtualMr] = []
        self.cqs: List[VirtualCq] = []
        self.srqs: List[VirtualSrq] = []
        self.qps: List[VirtualQp] = []
        # translation tables (§3.2)
        self.vqp_by_vqpn: Dict[int, VirtualQp] = {}
        self.vqp_by_real_qpn: Dict[int, VirtualQp] = {}
        self.vmr_by_vlkey: Dict[int, VirtualMr] = {}
        #: published ids after restart: the coordinator's read-only view,
        #: shared with every other rank — never mutated here
        self.db: Mapping[str, Any] = {}
        self.restarted = False
        self._pd_counter = 0
        self._vid_counter = 0
        self.stats = {"wrapper_calls": 0, "drained_completions": 0,
                      "reposted_sends": 0, "reposted_recvs": 0,
                      "replayed_modifies": 0}

    # -- installation ------------------------------------------------------------

    def install(self, appctx) -> None:
        super().install(appctx)
        self.real_lib = appctx.proc.libs["ibverbs"]
        appctx.proc.libs["ibverbs"] = self.wrapped

    def charge_wrapper(self) -> None:
        """One intercepted call that moves no bytes (the post entries,
        which may, charge inline)."""
        self.stats["wrapper_calls"] += 1
        self.appctx.proc.overhead_debt += self.costs.wrapper_cost()

    def charge_ib2tcp_copy(self, nbytes: float) -> None:
        """Extra in-memory copy the IB2TCP plugin performs on every post
        while loaded (§6.4.1) — charged even before any restart."""
        if self.fallback is not None:
            self.appctx.proc.overhead_debt += (
                self.costs.ib2tcp_copy_per_call
                + self.costs.ib2tcp_copy_per_byte * nbytes)

    # -- registry ------------------------------------------------------------------

    def registry_add(self, vobj) -> None:
        {VirtualContext: self.contexts, VirtualPd: self.pds,
         VirtualMr: self.mrs, VirtualCq: self.cqs,
         VirtualSrq: self.srqs, VirtualQp: self.qps}[type(vobj)].append(vobj)

    def registry_remove(self, vobj) -> None:
        bucket = {VirtualContext: self.contexts, VirtualPd: self.pds,
                  VirtualMr: self.mrs, VirtualCq: self.cqs,
                  VirtualSrq: self.srqs, VirtualQp: self.qps}[type(vobj)]
        if vobj in bucket:
            bucket.remove(vobj)
        if isinstance(vobj, VirtualQp):
            self.vqp_by_vqpn.pop(vobj.qp_num, None)
            if vobj.real is not None:
                self.vqp_by_real_qpn.pop(vobj.real.qp_num, None)
        elif isinstance(vobj, VirtualMr):
            self.vmr_by_vlkey.pop(vobj.lkey, None)

    # -- resource creation (called from WrappedVerbs) -----------------------------

    def open_device(self, device) -> VirtualContext:
        real = self.real_lib.open_device(device)
        vctx = VirtualContext(real=real, device_name=device.name,
                              vendor=device.vendor, real_ops=real.ops)
        # Principle 2: the ops table handed to the application holds the
        # plugin's function pointers
        vctx.ops.post_send = self.wrapped.ops_post_send
        vctx.ops.post_recv = self.wrapped.ops_post_recv
        vctx.ops.post_srq_recv = self.wrapped.ops_post_srq_recv
        vctx.ops.poll_cq = self.wrapped.ops_poll_cq
        vctx.ops.req_notify_cq = self.wrapped.ops_req_notify_cq
        self.registry_add(vctx)
        return vctx

    def alloc_pd(self, vctx: VirtualContext) -> VirtualPd:
        real = self.real_lib.alloc_pd(vctx.real)
        guid = (self.appctx.name, self._pd_counter)
        self._pd_counter += 1
        vpd = VirtualPd(real=real, vcontext=vctx, guid=guid)
        self.registry_add(vpd)
        return vpd

    def _alloc_virtual_id(self, real_id: int, table: Dict[int, Any]) -> int:
        """Virtual id policy: identical to the real id at creation (§3.2),
        unless that would collide after a restart — §7's conflict — in
        which case ``globally_unique_vids`` switches to a private range."""
        if real_id not in table:
            return real_id
        if not self.globally_unique_vids:
            raise VirtualIdConflictError(
                f"real id {real_id:#x} assigned after restart collides "
                "with a live virtual id (paper §7)")
        self._vid_counter += 1
        return (abs(hash(self.appctx.name)) % 0xFFFF << 32) \
            | self._vid_counter

    def reg_mr(self, vpd: VirtualPd, addr: int, length: int,
               access) -> VirtualMr:
        if access is None:
            access = AccessFlags.LOCAL_WRITE
        real = self.real_lib.reg_mr(vpd.real, addr, length, access)
        vlkey = self._alloc_virtual_id(real.lkey, self.vmr_by_vlkey)
        vrkey = real.rkey if vlkey == real.lkey else vlkey + 1
        vmr = VirtualMr(real=real, vpd=vpd, addr=addr, length=length,
                        access=access, lkey=vlkey, rkey=vrkey)
        self.vmr_by_vlkey[vlkey] = vmr
        self.registry_add(vmr)
        return vmr

    def create_qp(self, vpd: VirtualPd,
                  init_attr: ibv_qp_init_attr) -> VirtualQp:
        vsend, vrecv = init_attr.send_cq, init_attr.recv_cq
        vsrq = init_attr.srq
        real_attr = ibv_qp_init_attr(
            send_cq=vsend.real, recv_cq=vrecv.real,
            srq=vsrq.real if vsrq is not None else None,
            qp_type=init_attr.qp_type, sq_sig_all=init_attr.sq_sig_all,
            max_send_wr=init_attr.max_send_wr,
            max_recv_wr=init_attr.max_recv_wr,
            max_inline_data=init_attr.max_inline_data)
        real = self.real_lib.create_qp(vpd.real, real_attr)
        vqpn = self._alloc_virtual_id(real.qp_num, self.vqp_by_vqpn)
        vqp = VirtualQp(real=real, vpd=vpd, qp_num=vqpn,
                        qp_type=init_attr.qp_type, vsend_cq=vsend,
                        vrecv_cq=vrecv, vsrq=vsrq,
                        sq_sig_all=init_attr.sq_sig_all,
                        max_send_wr=init_attr.max_send_wr,
                        max_recv_wr=init_attr.max_recv_wr,
                        max_inline_data=init_attr.max_inline_data)
        self.vqp_by_vqpn[vqpn] = vqp
        self.vqp_by_real_qpn[real.qp_num] = vqp
        self.registry_add(vqp)
        return vqp

    # -- id translation (§3.2) ------------------------------------------------------

    def _real_sg_list(self, sg_list: Tuple[ibv_sge, ...]
                      ) -> Tuple[ibv_sge, ...]:
        """``sg_list`` with real lkeys.  When every lkey maps to itself
        (always, before the first restart) that is ``sg_list`` itself;
        otherwise a new tuple that still shares each element whose lkey
        did not move (scatter/gather elements are immutable values)."""
        by_vlkey = self.vmr_by_vlkey
        for sge in sg_list:
            vmr = by_vlkey.get(sge.lkey)
            if vmr is not None and vmr.real.lkey != sge.lkey:
                break
        else:
            return sg_list
        return tuple(sge if (vmr := by_vlkey.get(sge.lkey)) is None
                     or vmr.real.lkey == sge.lkey
                     else ibv_sge(sge.addr, sge.length, vmr.real.lkey)
                     for sge in sg_list)

    def translate_send_wr(self, vqp: VirtualQp,
                          wr: ibv_send_wr) -> ibv_send_wr:
        """The WR the driver is handed — for the first post and for the
        Principle-6 re-post alike.  ``wr`` is a logged snapshot; when no
        key moves it is handed back as is (the driver copies on post).
        Remote addresses are virtual addresses restored 1:1, so only keys
        change."""
        rkey = self.translate_rkey(vqp, wr.rkey) \
            if wr.opcode in _RDMA_OPCODES else wr.rkey
        sg_list = self._real_sg_list(wr.sg_list)
        if sg_list is wr.sg_list and rkey == wr.rkey:
            return wr
        return ibv_send_wr(wr.wr_id, sg_list, wr.opcode, wr.send_flags,
                           wr.imm_data, wr.remote_addr, rkey,
                           wr._inline_data)

    def translate_recv_chain(self, chain: Sequence[ibv_recv_wr]
                             ) -> Sequence[ibv_recv_wr]:
        """The receive chain the driver is handed, for the first post and
        the Principle-6 re-post alike: ``chain`` itself while no lkey in it
        moved (always, before the first restart); otherwise a list in which
        each WR whose lkeys moved is a new value with real lkeys.  The
        logged values keep their virtual lkeys."""
        real_sg_list = self._real_sg_list
        real = None
        for i, wr in enumerate(chain):
            sg_list = real_sg_list(wr.sg_list)
            if sg_list is not wr.sg_list:
                if real is None:
                    real = list(chain[:i])
                wr = ibv_recv_wr(wr.wr_id, sg_list)
            if real is not None:
                real.append(wr)
        return chain if real is None else real

    def translate_rkey(self, vqp: VirtualQp, vrkey: int) -> int:
        """(virtual qp, vrkey) → real rkey via the remote pd (§3.2.2):
        the local virtual qp determines the remote virtual qp, whose
        published tuple carries the globally-unique pd; (pd, vrkey) then
        resolves to the real rkey.

        A miss passes ``vrkey`` through (DESIGN.md §9): an object created
        after the restart is identity-mapped, and an rkey no pd holds is
        the remote HCA's to refuse.  Only a vrkey published under some
        *other* pd than the remote QP's is an application bug — rkeys do
        not cross protection domains — and raises."""
        if not self.restarted:
            return vrkey  # trivial before the first restart
        qinfo = self.db.get(f"qp:{vqp.remote_vlid}/{vqp.remote_vqpn}")
        if qinfo is None:
            return vrkey
        rkey = self.db.get(f"mr:{qinfo['pd']}:{vrkey}")
        if rkey is not None:
            return rkey
        suffix = f":{vrkey}"
        holders = sorted({key.split(":")[1] for key in self.db
                          if key.startswith("mr:") and key.endswith(suffix)})
        if holders:
            raise IdTranslationError(
                f"vrkey {vrkey:#x} does not resolve under the remote QP's "
                f"pd {qinfo['pd']} but is registered under pd(s) "
                f"{holders}: rkeys are per-PD (§3.2.2)")
        return vrkey

    def translate_qp_attr(self, attr, mask: QpAttrMask,
                          vqp: Optional[VirtualQp] = None):
        real_attr = attr.copy()
        if self.restarted:
            if mask & QpAttrMask.DEST_QPN:
                vlid = attr.dlid if mask & QpAttrMask.AV else (
                    vqp.remote_vlid if vqp is not None else None)
                qinfo = self.db.get(f"qp:{vlid}/{attr.dest_qp_num}")
                if qinfo is not None:
                    real_attr.dest_qp_num = qinfo["qpn"]
            if mask & QpAttrMask.AV:
                real_lid = self.db.get(f"lid:{attr.dlid}")
                if real_lid is not None:
                    real_attr.dlid = real_lid
        return real_attr

    # -- Principle 3 bookkeeping -------------------------------------------------------

    def take_completion(self, wc: ibv_wc) -> ibv_wc:
        """A completion leaves the real CQ: destroy its logged WQE — O(1)
        against the wr_id-indexed :class:`~.shadow.WqeLog` — and return
        what the application is allowed to see.  On an RC queue pair the
        sender is the connected peer, so ``src_qp`` is the virtual number
        the application itself passed to ``modify_qp`` (real qp numbers
        are unique per HCA only, and are not looked up)."""
        vqp = self.vqp_by_real_qpn.get(wc.qp_num)
        if vqp is None:
            return wc
        if wc.opcode in _RECV_OPCODES:
            log = vqp.vsrq.recv_log if vqp.vsrq is not None \
                else vqp.recv_log
            log.complete_recv(wc.wr_id)
        else:
            # send completions are ordered: a signaled completion implies
            # every earlier (possibly unsignaled) WQE on the QP completed
            vqp.send_log.complete_send_upto(wc.wr_id)
        src = wc.src_qp
        if src and vqp.remote_vqpn is not None:
            src = vqp.remote_vqpn
        return ibv_wc(wc.wr_id, wc.status, wc.opcode, wc.byte_len,
                      wc.imm_data, vqp.qp_num, src, wc.wc_flags)

    # -- Principles 4/5: drain and refill ----------------------------------------------

    def drain_round(self) -> int:
        drained = 0
        for vcq in self.cqs:
            while wcs := vcq.vcontext.real_ops.poll_cq(vcq.real, 64):
                vcq.private_queue.extend(map(self.take_completion, wcs))
                drained += len(wcs)
        self.stats["drained_completions"] += drained
        if hooks.tracer is not None:
            hooks.tracer.emit("drain.round", self.appctx.name,
                              self.appctx.env.now, drained=drained,
                              cqs=len(self.cqs))
        return drained

    def arm_notify(self, vcq: VirtualCq):
        """Wrapped req_notify: fires on private-queue content or real CQ
        activity; restart re-arms it against the re-created CQ."""
        env = self.appctx.env
        evt = env.event()
        if vcq.private_queue:
            evt.succeed()
            return evt
        vcq.pending_notify = evt
        self._chain_notify(vcq)
        return evt

    def _chain_notify(self, vcq: VirtualCq) -> None:
        evt = vcq.pending_notify
        if evt is None or evt.triggered:
            return
        real_evt = self.real_lib.req_notify_cq(vcq.real)

        def fire(_e):
            if vcq.pending_notify is evt and not evt.triggered:
                vcq.pending_notify = None
                evt.succeed()

        if real_evt.callbacks is None:
            fire(real_evt)
        else:
            real_evt.callbacks.append(fire)

    # -- event hooks -----------------------------------------------------------------------

    def event(self, event: DmtcpEvent, data: Any = None) -> None:
        if event is DmtcpEvent.PRESUSPEND:
            for vqp in self.qps:
                if vqp.qp_type is QpType.UD:
                    raise UnsupportedQpTypeError(
                        "cannot checkpoint a UD queue pair (§4)")
        elif event is DmtcpEvent.WRITE_CKPT:
            # §4: immediate/inline RDMA posts generate no local completion;
            # after the global settle the drain protocol assumes them done
            for vqp in self.qps:
                vqp.send_log.retain(
                    lambda e: not e.assume_complete_on_drain)
        elif event is DmtcpEvent.RESTART:
            self._restart_recreate()
        elif event is DmtcpEvent.RESTART_REPLAY:
            self._restart_replay()

    def close(self) -> None:
        """Unload the wrapper library: it and every ops table handed to
        the application point back here."""
        self.wrapped.plugin = None

    def image_metadata(self) -> Dict[str, Any]:
        if self.contexts:
            return {"hca_vendor": self.contexts[0].vendor}
        return {}

    def remap_evidence(self) -> Dict[str, bool]:
        """Did the id re-virtualization actually happen after a restart?
        True per class only when every live virtual object now fronts a
        *different* real id than the one the application saw it under —
        the §3.2.1 transparency evidence the fault harness and the
        migration sweep both assert on."""
        return {
            "qps_remapped": bool(self.qps) and all(
                vqp.qp_num != vqp.real.qp_num for vqp in self.qps),
            "mrs_remapped": bool(self.mrs) and all(
                vmr.rkey != vmr.real.rkey for vmr in self.mrs),
            "lids_remapped": bool(self.contexts) and all(
                vctx.vlid != vctx.real_lid for vctx in self.contexts),
        }

    # -- restart phase 1: recreate resources -------------------------------------------------

    def _restart_recreate(self) -> None:
        self.restarted = True
        proc = self.appctx.proc
        new_lib = proc.libs["ibverbs"]
        devices = new_lib.get_device_list()
        # with no HCA the fallback provider's software device stands in;
        # the image's user-space driver never runs on it, so the §4
        # vendor check does not apply and each context keeps its vendor
        software = not devices
        if software:
            if self.fallback is None:
                raise NoInfinibandError(
                    "restart node has no HCA and no IB2TCP fallback")
            new_lib = self.fallback.verbs_lib(
                proc, self.costs.ib2tcp_tcp_per_byte)
            devices = new_lib.get_device_list()
        device = devices[0]
        self.real_lib = new_lib
        proc.libs["ibverbs"] = self.wrapped
        for vctx in self.contexts:
            if device.vendor != vctx.vendor and not software:
                if not self.allow_driver_reload:
                    raise HeterogeneousDriverError(
                        f"image embeds the {vctx.vendor!r} user-space "
                        f"driver but the restart node has "
                        f"{device.vendor!r} (§4); pass "
                        "allow_driver_reload=True for the §7 re-load path")
                vctx.vendor = device.vendor
            real = new_lib.open_device(device)
            vctx.real = real
            vctx.real_ops = real.ops
            vctx.device_name = device.name
            vctx.real_lid = new_lib.query_port(real).lid
        for vpd in self.pds:
            vpd.real = new_lib.alloc_pd(vpd.vcontext.real)
        for vmr in self.mrs:
            vmr.real = new_lib.reg_mr(vmr.vpd.real, vmr.addr, vmr.length,
                                      vmr.access)
        for vcq in self.cqs:
            vcq.real = new_lib.create_cq(vcq.vcontext.real, vcq.cqe)
        for vsrq in self.srqs:
            vsrq.real = new_lib.create_srq(vsrq.vpd.real, vsrq.max_wr)
            for limit in vsrq.modify_log:
                new_lib.modify_srq(vsrq.real, limit)
        self.vqp_by_real_qpn.clear()
        for vqp in self.qps:
            real_attr = ibv_qp_init_attr(
                send_cq=vqp.vsend_cq.real, recv_cq=vqp.vrecv_cq.real,
                srq=vqp.vsrq.real if vqp.vsrq is not None else None,
                qp_type=vqp.qp_type, sq_sig_all=vqp.sq_sig_all,
                max_send_wr=vqp.max_send_wr, max_recv_wr=vqp.max_recv_wr,
                max_inline_data=vqp.max_inline_data)
            vqp.real = new_lib.create_qp(vqp.vpd.real, real_attr)
            self.vqp_by_real_qpn[vqp.real.qp_num] = vqp

    # -- publish/subscribe (§3.2.1) ---------------------------------------------------------

    def ns_publish(self) -> Dict[str, Any]:
        entries: Dict[str, Any] = {}
        for vctx in self.contexts:
            entries[f"lid:{vctx.vlid}"] = vctx.real_lid
        for vqp in self.qps:
            vlid = vqp.vpd.vcontext.vlid
            entries[f"qp:{vlid}/{vqp.qp_num}"] = {
                "pd": _pd_key(vqp.vpd.guid), "qpn": vqp.real.qp_num}
        for vmr in self.mrs:
            entries[f"mr:{_pd_key(vmr.vpd.guid)}:{vmr.rkey}"] = \
                vmr.real.rkey
        if hooks.tracer is not None:
            hooks.tracer.emit("ns.publish", self.appctx.name,
                              self.appctx.env.now, entries=len(entries))
        return entries

    def ns_receive(self, db: Mapping[str, Any]) -> None:
        self.db = db
        if hooks.tracer is not None:
            hooks.tracer.emit("ns.receive", self.appctx.name,
                              self.appctx.env.now, entries=len(db))

    # -- restart phase 2: replay (Principles 3 and 6) ------------------------------------------

    def _logged_wqes(self) -> int:
        """The surviving logged set a replay must re-post exactly."""
        return sum(len(vsrq.recv_log) for vsrq in self.srqs) \
            + sum(len(vqp.recv_log) + len(vqp.send_log) for vqp in self.qps)

    def _restart_replay(self) -> None:
        tracer = hooks.tracer
        replay_span = None
        reposted_before = (self.stats["reposted_recvs"]
                           + self.stats["reposted_sends"])
        if tracer is not None:
            replay_span = tracer.begin(
                "replay", self.appctx.name, self.appctx.env.now,
                expected=self._logged_wqes(),
                modifies=sum(len(vqp.modify_log) for vqp in self.qps))
        for vqp in self.qps:
            for attr, mask in vqp.modify_log:
                self.real_lib.modify_qp(
                    vqp.real, self.translate_qp_attr(attr, mask, vqp), mask)
                self.stats["replayed_modifies"] += 1
        # receives first (shared queues, then per-QP), each owner's log as
        # one chain, then sends: every re-post goes through the translation
        # the first post went through
        recv_owners = [(vsrq, self.real_lib.post_srq_recv)
                       for vsrq in self.srqs] \
            + [(vqp, vqp.vpd.vcontext.real_ops.post_recv) for vqp in self.qps]
        for owner, post in recv_owners:
            if owner.recv_log:
                chain = list(owner.recv_log)
                post(owner.real, self.translate_recv_chain(chain))
                self.stats["reposted_recvs"] += len(chain)
        for vqp in self.qps:
            for entry in vqp.send_log:
                vqp.vpd.vcontext.real_ops.post_send(
                    vqp.real, self.translate_send_wr(vqp, entry.wr))
                self.stats["reposted_sends"] += 1
        if tracer is not None:
            tracer.end(replay_span, self.appctx.env.now,
                       expected=self._logged_wqes(),
                       reposts=(self.stats["reposted_recvs"]
                                + self.stats["reposted_sends"]
                                - reposted_before))
        for vcq in self.cqs:
            if vcq.private_queue and vcq.pending_notify is not None \
                    and not vcq.pending_notify.triggered:
                evt, vcq.pending_notify = vcq.pending_notify, None
                evt.succeed()
            elif vcq.pending_notify is not None:
                self._chain_notify(vcq)  # re-arm on the new real CQ
