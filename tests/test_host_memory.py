"""Per-rank host memory holds only what is live (DESIGN.md §15,
"Per-rank host memory").

These tests count structures, not bytes, so they hold on any
interpreter.  One 16-rank LU checkpoint-restart, run in slices of
simulated time, backs the first three: a finished thread leaves its
process's thread table (adopted threads included), the torn-down
generation's hosts are freed, and a QP's send engine never queues a
work request behind another.  The last is a property of the span
:class:`~repro.memory.TrackedView` marks on a write.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nas import lu_app
from repro.core import InfinibandPlugin
from repro.dmtcp import dmtcp_launch, dmtcp_restart
from repro.hardware import MGHPCC, Cluster
from repro.ibverbs.transport import QpHardware
from repro.memory.address_space import _byte_bounds
from repro.mpi import make_mpi_specs
from repro.sim import Environment
from repro.sim.resources import _Fifo

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    byte_bounds = np.byte_bounds

RANKS = 16
#: simulated seconds between two looks at the thread tables (the LU
#: loop below runs ~55 ms on either side of the restart)
SLICE = 1e-3
#: looks taken before the checkpoint starts
SLICES_BEFORE_CKPT = 20


def _finished_listed(hosts) -> list:
    """Names of threads a host lists although they have finished."""
    return [t.name for h in hosts for t in h.threads if t.triggered]


def _look(env, hosts, seen: list, slices: int) -> None:
    """Run ``slices`` slices, looking at the thread tables of ``hosts``
    after each; offenders are appended to ``seen``."""
    for _ in range(slices):
        env.run(until=env.now + SLICE)
        seen.extend(_finished_listed(hosts))


@pytest.fixture(scope="module")
def lu_restart():
    posts, queued = [], []
    post_send = QpHardware.post_send

    def counting_post_send(self, wr):
        post_send(self, wr)
        posts.append(self.qpn)
        if self.send_queue._items.__class__ is _Fifo:
            queued.append(self.qpn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QpHardware, "post_send", counting_post_send)
        env = Environment()
        cluster = Cluster(env, MGHPCC, n_nodes=4, name="hostmem")
        specs = make_mpi_specs(cluster, RANKS, lambda ctx, comm: lu_app(
            ctx, comm, klass="A", iters_sim=4), ppn=4)
        session = env.run(until=env.process(dmtcp_launch(
            cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))
        hosts = [p.host for p in session.procs]
        finished_listed: list = []
        _look(env, hosts, finished_listed, SLICES_BEFORE_CKPT)
        mains = {t.name: t for h in hosts for t in h.threads
                 if t.name.endswith(".main")}
        ckpt = env.run(until=env.process(session.checkpoint(
            intent="restart")))
        finished_listed.extend(_finished_listed(hosts))
        torn_down = [weakref.ref(h) for h in hosts]
        cluster.teardown()
        del session, hosts
        cluster2 = Cluster(env, MGHPCC, n_nodes=4, name="hostmem-2")
        session2 = env.run(until=env.process(dmtcp_restart(cluster2, ckpt)))
        gc.collect()
        freed = [r() is None for r in torn_down]
        hosts2 = [p.host for p in session2.procs]
        adopted = [t for h in hosts2 for t in h.threads
                   if mains.get(t.name) is t]
        wait = env.process(session2.wait())
        while wait.callbacks is not None:
            _look(env, hosts2, finished_listed, 1)
        yield {
            "results": wait.value, "hosts2": hosts2, "adopted": adopted,
            "mains": mains, "freed": freed,
            "finished_listed": finished_listed,
            "posts": posts, "queued": queued,
        }


def test_no_thread_table_lists_a_finished_thread(lu_restart):
    assert len({r.checksum for r in lu_restart["results"]}) == 1
    assert lu_restart["finished_listed"] == []
    # every rank's main thread crossed the restart and was adopted ...
    assert len(lu_restart["mains"]) == RANKS
    assert sorted(t.name for t in lu_restart["adopted"]) == \
        sorted(lu_restart["mains"])
    # ... and left its new host's table when the job finished
    assert all(t.triggered for t in lu_restart["adopted"])
    assert not [t for h in lu_restart["hosts2"] for t in h.threads
                if t in lu_restart["adopted"]]


def test_torn_down_hosts_are_freed_once_restarted(lu_restart):
    assert lu_restart["freed"] == [True] * RANKS


def test_qp_send_engine_never_queues_a_work_request(lu_restart):
    assert len(lu_restart["posts"]) > 100
    assert lu_restart["queued"] == []


_DTYPES = st.sampled_from([np.uint8, np.int32, np.float64])


@st.composite
def _views(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1,
                                max_size=3)))
    dtype = draw(_DTYPES)
    base = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    key = tuple(draw(st.slices(n)) for n in shape)
    return base[key]


@settings(max_examples=200, deadline=None)
@given(_views())
def test_tracked_view_span_matches_numpy_byte_bounds(view):
    """The span a write marks is numpy's ``byte_bounds`` of the view,
    for every basic-slice view: 1-3 dimensions, any start/stop, negative
    and non-unit steps, empty results."""
    assert _byte_bounds(view) == byte_bounds(view)
