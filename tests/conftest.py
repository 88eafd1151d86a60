"""Shared fixtures: small IB clusters with processes and verbs endpoints."""

import os
from dataclasses import dataclass
from typing import List

import pytest

from repro.hardware import BUFFALO_CCR, Cluster, HardwareSpec, ProcessHost
from repro.ibverbs import (
    AccessFlags,
    VerbsLib,
    ibv_qp_init_attr,
)
from repro.sim import Environment


@pytest.fixture(autouse=True)
def trace_invariants(request):
    """Every test runs under a fresh lifecycle Tracer
    (``repro.obs.traced()``): at teardown the recorded
    checkpoint-lifecycle trace is checked against every trace invariant
    of ``repro.obs.invariants`` (capture-after-quiesce,
    refill-before-real, replay-balance, ...) and any violation fails the
    test.  Opt out with ``@pytest.mark.no_trace_invariants`` (e.g. for
    tests that record deliberately broken traces or drive the tracer
    hooks directly)."""
    if request.node.get_closest_marker("no_trace_invariants"):
        yield None
        return
    from obs_asserts import TraceAssertions
    from repro.obs import traced
    with traced() as tracer:
        harness = TraceAssertions(tracer)
        yield harness
    harness.assert_clean()


@pytest.fixture(autouse=True)
def chunksan_oracle(request):
    """ChunkSan knob: tests marked ``@pytest.mark.chunksan`` — or every
    test, when ``REPRO_CHUNKSAN=1`` is exported — run under the shadow
    full-hash oracle (``repro.analysis.chunksan``): each checkpoint
    capture and migration round audits the chunk stamps against true
    content, and a stale stamp fails the test at the offending capture
    with the chunk index and last-touch backtrace.  Opt out with
    ``@pytest.mark.no_chunksan`` (tests that install the oracle
    themselves, or time the capture path the oracle re-measures)."""
    marked = request.node.get_closest_marker("chunksan") is not None
    if request.node.get_closest_marker("no_chunksan") is not None \
            or not (marked or os.environ.get("REPRO_CHUNKSAN") == "1"):
        yield None
        return
    from repro.analysis.chunksan import sanitized
    with sanitized() as san:
        yield san


@dataclass
class Endpoint:
    """One process with an opened verbs stack (context/pd/cq ready)."""

    proc: ProcessHost
    lib: VerbsLib
    ctx: object
    pd: object
    cq: object
    lid: int

    def make_qp(self, sq_sig_all: bool = False, srq=None):
        return self.lib.create_qp(
            self.pd, ibv_qp_init_attr(send_cq=self.cq, recv_cq=self.cq,
                                      srq=srq, sq_sig_all=sq_sig_all))

    def reg(self, size: int, name: str, scale: float = 1.0):
        """mmap + reg_mr a buffer; returns (region, mr)."""
        region = self.proc.memory.mmap(name, size, repr_scale=scale)
        mr = self.lib.reg_mr(
            self.pd, region.addr, size,
            AccessFlags.LOCAL_WRITE | AccessFlags.REMOTE_WRITE
            | AccessFlags.REMOTE_READ)
        return region, mr


def make_endpoint(proc: ProcessHost, lib: VerbsLib = None) -> Endpoint:
    lib = lib or VerbsLib(proc)
    dev = lib.get_device_list()[0]
    ctx = lib.open_device(dev)
    pd = lib.alloc_pd(ctx)
    cq = lib.create_cq(ctx, cqe=4096)
    lid = lib.query_port(ctx).lid
    return Endpoint(proc=proc, lib=lib, ctx=ctx, pd=pd, cq=cq, lid=lid)


@dataclass
class IbPair:
    env: Environment
    cluster: Cluster
    a: Endpoint
    b: Endpoint


@pytest.fixture
def ib_pair() -> IbPair:
    """Two nodes, one process each, verbs opened on both."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=2, name="test-pair")
    pa = cluster.nodes[0].fork("a")
    pb = cluster.nodes[1].fork("b")
    return IbPair(env=env, cluster=cluster,
                  a=make_endpoint(pa), b=make_endpoint(pb))
