"""Tenant quotas, admission control, and backpressure for the service.

Every put into the shared store passes the :class:`AdmissionController`
first:

* **quota** — each tenant carries an optional logical-byte quota layered
  *above* the :class:`~repro.hardware.storage.FileSystem` capacity
  quotas.  Quota accounting is on *referenced* (manifest logical) bytes
  regardless of physical dedup: a tenant is charged for what it asked
  the service to retain, not for what the content-addressing happened to
  share — the fair-share rule, and the one that keeps per-tenant byte
  conservation exact (``bytes_admitted == bytes_stored +
  bytes_rejected``, an invariant ``repro.obs`` checks on every trace).
* **backpressure** — a global in-flight byte window models the saturated
  tier: puts beyond the window queue FIFO and their wait is reported as
  admission latency (``service.admit`` carries ``queued``).
* **rejection** — a put that would overflow its tenant's quota is
  refused *softly*: :class:`AdmissionRejected` is caught by the store
  facade, which returns a ``rejected`` :class:`~repro.store.PutResult`
  so the checkpoint protocol never wedges on a broke tenant.

Trace vocabulary (emitted to the tracer in :mod:`repro.hooks`):
``service.admit`` / ``service.reject`` points on the put path,
``service.quota.reclaim`` when GC credits bytes back, and one
self-contained ``service.account`` point per tenant at drain time
carrying the conservation totals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional

from .. import hooks
from ..sim import Environment

__all__ = ["AdmissionController", "AdmissionRejected", "TenantState"]


class AdmissionRejected(RuntimeError):
    """A put exceeded its tenant's byte quota (soft failure)."""

    def __init__(self, tenant: str, requested: float, used: float,
                 quota: float):
        self.tenant = tenant
        self.requested = float(requested)
        self.used = float(used)
        self.quota = float(quota)
        super().__init__(
            f"tenant {tenant!r}: admission rejected {requested:.0f} "
            f"logical bytes ({used:.0f} of {quota:.0f} quota in use)")


@dataclass
class TenantState:
    """One tenant's quota position and conservation counters."""

    name: str
    quota_bytes: Optional[float] = None  # None = unlimited
    used_bytes: float = 0.0      # referenced bytes currently retained
    bytes_admitted: float = 0.0  # total bytes presented for admission
    bytes_stored: float = 0.0    # admitted bytes that landed durably
    bytes_rejected: float = 0.0  # refused by quota or failed mid-write
    puts: int = 0
    rejections: int = 0
    queued_seconds: float = 0.0  # sim seconds spent in backpressure


class AdmissionController:
    """Per-tenant quotas plus a global in-flight byte window (see module
    docstring)."""

    def __init__(self, env: Environment,
                 quotas: Optional[Dict[str, Optional[float]]] = None,
                 max_inflight_bytes: Optional[float] = None):
        self.env = env
        self.max_inflight_bytes = max_inflight_bytes
        self.tenants: Dict[str, TenantState] = {}
        for name, quota in sorted((quotas or {}).items()):
            self.tenants[name] = TenantState(name=name, quota_bytes=quota)
        self._inflight = 0.0
        self._waiters: Deque = deque()
        #: rejected-put counts per job (the scheduler reports these)
        self.job_rejections: Dict[str, int] = {}

    @property
    def inflight_bytes(self) -> float:
        return self._inflight

    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(name=name)
        return state

    # -- the put path --------------------------------------------------------

    def admit(self, tenant: str, nbytes: float, proc: str = "",
              job: str = "") -> Generator:
        """Process generator: charge ``nbytes`` against ``tenant`` or
        raise :class:`AdmissionRejected`.  Queues (FIFO) while the global
        in-flight window is saturated; returns seconds spent queued."""
        state = self.tenant(tenant)
        nbytes = float(nbytes)
        state.bytes_admitted += nbytes
        if state.quota_bytes is not None \
                and state.used_bytes + nbytes > state.quota_bytes:
            state.bytes_rejected += nbytes
            state.rejections += 1
            if job:
                self.job_rejections[job] = \
                    self.job_rejections.get(job, 0) + 1
            tracer = hooks.tracer
            if tracer is not None:
                tracer.emit("service.reject", proc or tenant, self.env.now,
                            tenant=tenant, job=job, bytes=nbytes,
                            used=state.used_bytes,
                            quota=state.quota_bytes)
            raise AdmissionRejected(tenant, nbytes, state.used_bytes,
                                    state.quota_bytes)
        t0 = self.env.now
        queued_before = False
        while self.max_inflight_bytes is not None and self._inflight > 0 \
                and self._inflight + nbytes > self.max_inflight_bytes:
            gate = self.env.event()
            if queued_before:
                # woken but still blocked: keep our place at the head
                self._waiters.appendleft(gate)
            else:
                self._waiters.append(gate)
                queued_before = True
            try:
                yield gate
            except GeneratorExit:
                # killed while queued: this put never happened — undo the
                # admission charge (conservation) and don't eat a wakeup
                state.bytes_admitted -= nbytes
                try:
                    self._waiters.remove(gate)
                except ValueError:
                    # already woken: pass the wakeup to the next in line
                    if self._waiters:
                        self._waiters.popleft().succeed()
                raise
        queued = self.env.now - t0
        self._inflight += nbytes
        state.used_bytes += nbytes
        state.queued_seconds += queued
        tracer = hooks.tracer
        if tracer is not None:
            tracer.emit("service.admit", proc or tenant, self.env.now,
                        tenant=tenant, job=job, bytes=nbytes,
                        queued=queued)
        return queued

    def release(self, nbytes: float) -> None:
        """The put finished (or died): free its in-flight window share and
        wake the queue head to re-check."""
        self._inflight = max(0.0, self._inflight - float(nbytes))
        if self._waiters:
            self._waiters.popleft().succeed()

    def on_stored(self, tenant: str, nbytes: float) -> None:
        state = self.tenant(tenant)
        state.bytes_stored += float(nbytes)
        state.puts += 1

    def on_failed(self, tenant: str, nbytes: float, job: str = "") -> None:
        """An *admitted* put died before landing (tier quota, or the job
        was killed mid-write): refund the retention charge and fold the
        bytes into the rejected side of the conservation ledger."""
        state = self.tenant(tenant)
        nbytes = float(nbytes)
        state.used_bytes = max(0.0, state.used_bytes - nbytes)
        state.bytes_rejected += nbytes
        state.rejections += 1
        if job:
            self.job_rejections[job] = self.job_rejections.get(job, 0) + 1

    def reclaim(self, tenant: str, nbytes: float) -> None:
        """GC retired a manifest: credit its referenced bytes back."""
        state = self.tenant(tenant)
        state.used_bytes = max(0.0, state.used_bytes - float(nbytes))
        tracer = hooks.tracer
        if tracer is not None:
            tracer.emit("service.quota.reclaim", tenant, self.env.now,
                        tenant=tenant, bytes=float(nbytes),
                        used=state.used_bytes)

    # -- accounting ----------------------------------------------------------

    def account(self) -> Dict[str, Dict[str, float]]:
        """Emit one self-contained ``service.account`` point per tenant
        with the conservation totals (only meaningful when no put is in
        flight — call after draining).  Returns the per-tenant ledger."""
        tracer = hooks.tracer
        ledger: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.tenants):
            state = self.tenants[name]
            row = {
                "bytes_admitted": state.bytes_admitted,
                "bytes_stored": state.bytes_stored,
                "bytes_rejected": state.bytes_rejected,
                "used_bytes": state.used_bytes,
                "puts": state.puts,
                "rejections": state.rejections,
                "queued_seconds": state.queued_seconds,
            }
            ledger[name] = row
            if tracer is not None:
                tracer.emit("service.account", name, self.env.now,
                            tenant=name, **row)
        return ledger
