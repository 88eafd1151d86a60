"""Post-copy restart: resume compute first, page the image in on touch.

The inverse trade of pre-copy (the petascale multi-tier restart
economics): instead of paying the whole image fetch before the first
instruction, the job restarts immediately after the manifests are
restored and the store's chunk reads happen lazily — a region's read
time is charged when the application first touches it, served from the
cheapest live tier through :meth:`repro.store.CheckpointStore.
fetch_chunk` (digest-verified, heal-on-corrupt), while a background
prefetcher streams the untouched remainder in manifest order.

Simulation split: the restored process needs every region's *bytes* up
front for checksums to stay bit-identical, so
:meth:`~repro.store.CheckpointStore.materialize_image` restores them in
zero simulated time and the pager charges only the *time* of each read
at first touch.  The ``pagein-before-compute`` trace invariant pins the
ordering this module must preserve: a ``migrate.compute`` tick never
fires while a faulted region's page-in is still outstanding.

A tier outage mid-page-in (``lustre-brownout`` chaos) surfaces as
:class:`~repro.store.StoreError` when no live tier holds the chunk; the
pager retries with a seeded-jitter delay until a replica comes back —
recovery by waiting, not by restart, because the data at rest is intact.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from .. import hooks
from ..dmtcp.launcher import AppSpec, CheckpointSet, JobTracker, _build_job, \
    _rerun
from ..hardware.cluster import Cluster
from ..store import CheckpointStore, RegionRow, StoreError

__all__ = ["PostCopyPager", "postcopy_restart"]


class PostCopyPager:
    """Demand-pages one restarted process's regions from the store.

    Installed per process by :func:`postcopy_restart`: instance-level
    wrappers over the restored :class:`~repro.memory.address_space.
    AddressSpace` record first touches of not-yet-paged regions
    (``migrate.fault``), and a wrapper over ``appctx.compute`` services
    every outstanding fault (``migrate.pagein``, charged store reads)
    before the compute tick runs (``migrate.compute``).
    """

    def __init__(self, env, store: CheckpointStore, manifest, host,
                 via_node_index: int, retry_delay: float = 0.2,
                 retry_jitter: float = 0.0, rng_stream=None):
        self.env = env
        self.store = store
        self.manifest = manifest
        self.host = host
        self.name = manifest.proc_name
        self.via = via_node_index
        self.retry_delay = retry_delay
        self.retry_jitter = retry_jitter
        self.rng_stream = rng_stream
        #: region name → that region's manifest row, in manifest order (a
        #: region is paged in as a unit: one fault charges all its chunks)
        self.rows: Dict[str, RegionRow] = {
            row.region_name: row for row in manifest.rows}
        #: regions whose read time has been charged (demand or prefetch)
        self.resident: set = set()
        #: faulted regions awaiting service, in fault order
        self.outstanding: List[str] = []
        self._outstanding_set: set = set()
        #: regions the prefetcher is currently streaming (a touch of one
        #: is a readahead hit, not a new fault)
        self._inflight: set = set()
        self._prefetch_proc = None
        self._orig_memory: Dict[str, object] = {}
        self.stats = {"faults": 0, "pageins": 0, "prefetched": 0,
                      "retries": 0}
        self._wrap_memory()

    # -- fault capture ---------------------------------------------------------

    def _fault(self, region_name: str) -> None:
        if region_name not in self.rows \
                or region_name in self.resident \
                or region_name in self._outstanding_set \
                or region_name in self._inflight:
            return
        self.outstanding.append(region_name)
        self._outstanding_set.add(region_name)
        self.stats["faults"] += 1
        if hooks.tracer is not None:
            hooks.tracer.emit("migrate.fault", self.name, self.env.now,
                              region=region_name,
                              outstanding=len(self.outstanding))

    def _wrap_memory(self) -> None:
        memory = self.host.memory
        region_at = memory.region_at

        def wrap_by_name(orig):
            def wrapped(name, *args, **kwargs):
                self._fault(name)
                return orig(name, *args, **kwargs)
            return wrapped

        def wrap_by_addr(orig):
            def wrapped(addr, *args, **kwargs):
                try:
                    self._fault(region_at(addr).name)
                except Exception:
                    pass  # let the original raise the simulated SEGV
                return orig(addr, *args, **kwargs)
            return wrapped

        for attr, wrap in (("region", wrap_by_name),
                           ("ensure", wrap_by_name),
                           ("region_at", wrap_by_addr),
                           ("read", wrap_by_addr),
                           ("write", wrap_by_addr)):
            orig = getattr(memory, attr)
            self._orig_memory[attr] = orig
            setattr(memory, attr, wrap(orig))

    def unwrap(self) -> None:
        """Remove the instance-level wrappers (all regions resident, or
        teardown)."""
        for attr, orig in self._orig_memory.items():
            setattr(self.host.memory, attr, orig)
        self._orig_memory.clear()

    # -- page-in service -------------------------------------------------------

    def _page_in(self, region_name: str, mode: str) -> Generator:
        """Charge one region's store reads (every chunk of it), retrying
        through tier outages.  The bytes are already in memory
        (materialized); the fetch is the *time* of the reads,
        digest-verified so a corrupt replica is healed exactly as an
        offline restart would."""
        row = self.rows[region_name]
        tracer = hooks.tracer
        span = None if tracer is None else tracer.begin(
            "migrate.pagein", self.name, self.env.now, region=region_name,
            mode=mode, chunks=len(row.digests))
        tier = None
        for ref in row.refs():
            while True:
                try:
                    _data, tier = yield from self.store.fetch_chunk(
                        self.manifest, ref, self.via)
                    break
                except StoreError:
                    # every tier dark (brownout): the data at rest is
                    # fine, so outwait the outage instead of failing the
                    # restart
                    self.stats["retries"] += 1
                    delay = self.retry_delay
                    if self.retry_jitter > 0.0 \
                            and self.rng_stream is not None:
                        delay *= 1.0 + self.retry_jitter \
                            * float(self.rng_stream.uniform(-1.0, 1.0))
                    if tracer is not None:
                        tracer.emit("migrate.pagein.retry", self.name,
                                    self.env.now, region=region_name,
                                    delay=delay)
                    yield self.env.timeout(delay)
        self.resident.add(region_name)
        self.stats["pageins" if mode == "demand" else "prefetched"] += 1
        if tracer is not None:
            tracer.end(span, self.env.now, tier=tier, mode=mode)

    def service(self) -> Generator:
        """Process generator: page in every outstanding fault, oldest
        first (the compute gate runs this before any compute tick)."""
        while self.outstanding:
            name = self.outstanding.pop(0)
            self._outstanding_set.discard(name)
            if name in self.resident:
                continue  # prefetched between fault and service
            yield from self._page_in(name, mode="demand")

    @property
    def complete(self) -> bool:
        return len(self.resident) >= len(self.rows)

    # -- compute gate ----------------------------------------------------------

    def attach(self, appctx) -> None:
        """Interpose on ``appctx.compute``: outstanding faults are
        serviced before the tick, preserving pagein-before-compute."""
        orig_compute = appctx.compute

        def compute(flops: float = 0.0, seconds: float = 0.0):
            return self.env.process(
                self._gated_compute(orig_compute, flops, seconds),
                name=f"{self.name}.pager.compute")

        appctx.compute = compute

    def _gated_compute(self, orig_compute, flops: float,
                       seconds: float) -> Generator:
        yield from self.service()
        if hooks.tracer is not None and not self.complete:
            hooks.tracer.emit("migrate.compute", self.name, self.env.now,
                              outstanding=len(self.outstanding))
        value = yield orig_compute(flops=flops, seconds=seconds)
        return value

    # -- background prefetch ---------------------------------------------------

    def start_prefetch(self) -> None:
        """Stream the not-yet-touched remainder in manifest order while
        the application runs."""
        if self._prefetch_proc is None:
            self._prefetch_proc = self.env.process(
                self._prefetch_flow(), name=f"{self.name}.prefetch")

    def _prefetch_flow(self) -> Generator:
        for name in self.rows:
            if name in self.resident or name in self._outstanding_set \
                    or name in self._inflight:
                continue
            self._inflight.add(name)
            try:
                yield from self._page_in(name, mode="prefetch")
            finally:
                self._inflight.discard(name)

    def stop(self) -> None:
        if self._prefetch_proc is not None and self._prefetch_proc.is_alive:
            self._prefetch_proc.kill()
        self._prefetch_proc = None


def postcopy_restart(cluster: Cluster, ckpt_set: CheckpointSet,
                     specs: List[AppSpec], store: CheckpointStore,
                     plugin_factory: Callable[[], list] = lambda: [],
                     node_map: Optional[Dict[int, int]] = None,
                     coord_node_index: int = 0,
                     tracker: Optional[JobTracker] = None,
                     generation: int = 1, prefetch: bool = True,
                     retry_delay: float = 0.2, retry_jitter: float = 0.0,
                     rng=None) -> Generator:
    """Process generator: restart ``ckpt_set`` post-copy style.

    Like :func:`repro.faults.chaos_restart` (fresh processes, factories
    re-entered against restored memory — they must speak the progress
    protocol), except only the *manifests* are restored eagerly: every
    region's bytes come back in zero simulated time via
    ``materialize_image`` and each region's read time is charged by its
    process's :class:`PostCopyPager` on first touch.  The job runs
    under its launch config (``ckpt_set.config``).  Returns
    ``(session, pagers)``.
    """
    env = cluster.env
    pagers: Dict[str, PostCopyPager] = {}

    def materialize(record, dst_index):
        # bytes now (bit-identical, digest-verified), time at first touch
        yield from ()
        return store.materialize_image(record.name, record.epoch or None,
                                       via_node_index=dst_index)

    rerun = _rerun(specs, len(ckpt_set.records), sink=store,
                   plugin_factory=plugin_factory, config=ckpt_set.config,
                   generation=generation, load=materialize)

    def bring_up(record, host, dst_index):
        proc, start = yield from rerun(record, host, dst_index)
        epoch = record.epoch or store.latest_epoch(record.name)
        pager = PostCopyPager(
            env, store, store.manifest(record.name, epoch), host, dst_index,
            retry_delay=retry_delay, retry_jitter=retry_jitter,
            rng_stream=rng.fault_stream(f"postcopy/{record.name}")  # repro: allow(rng-taint) pager retry jitter must ride the faults/ namespace so enabling post-copy never perturbs app streams
            if rng is not None else None)
        pager.attach(proc.appctx)
        if prefetch:
            pager.start_prefetch()
        pagers[record.name] = pager
        return proc, start

    session = yield from _build_job(
        cluster, ckpt_set.records, bring_up, "postcopy-restart", sink=store,
        config=ckpt_set.config, node_map=node_map,
        coord_node_index=coord_node_index, tracker=tracker)
    return session, [pagers[r.name] for r in ckpt_set.records]
