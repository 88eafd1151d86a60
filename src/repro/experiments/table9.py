"""Table 9: NAS LU.A.2 runtime when migrating from InfiniBand to Gigabit
Ethernet with IB2TCP (paper §6.4.2).  The IB-side plugins are nearly free;
restarting over Ethernet costs ~67% more runtime on two nodes and ~142%
more when the whole computation lands on one node."""

from __future__ import annotations

from ..apps.nas import lu_app
from ..apps.nas.common import NAS, post_restart_rate
from ..core import Ib2TcpPlugin, InfinibandPlugin
from ..dmtcp import native_launch
from ..hardware import DEV_CLUSTER, ETHERNET_DEBUG_CLUSTER
from ..scenario import Scenario
from .tables import Table

__all__ = ["PAPER", "run"]

#: environment -> paper runtime (s)
PAPER = {
    "IB (w/o DMTCP)": 26.61,
    "DMTCP/IB (w/o IB2TCP)": 27.81,
    "DMTCP/IB2TCP/IB": 27.38,
    "DMTCP/IB2TCP/Ethernet (2 nodes)": 45.75,
    "DMTCP/IB2TCP/Ethernet (1 node)": 66.34,
}

_ITERS_SIM = 40


def _steady_runtime(factory=None, migrate_nodes: int = 0) -> float:
    """LU.A.2 runtime in one environment ('runtime does not involve the
    checkpoint and restart times' — migrated rows are projected from the
    post-restart per-iteration rate)."""
    scn = Scenario(DEV_CLUSTER, 2, "t9", ppn=1)
    env = scn.env
    cluster = scn.cluster()
    specs = scn.mpi_specs(cluster, lu_app, klass="A", iters_sim=_ITERS_SIM)
    spec = NAS[("LU", "A")]
    if factory is None:
        session = native_launch(cluster, specs)
        results = scn.run(session.wait())
        return max(r.projected_runtime() for r in results)
    session = env.run(until=env.process(scn.launch(cluster, specs,
                                                   factory)))
    if not migrate_nodes:
        results = scn.run(session.wait())
        return max(r.projected_runtime() for r in results)

    def scenario():
        yield env.timeout(1.6)  # a few iterations in
        _, session2, _, _ = yield from scn.move(
            session, cluster,
            lambda: scn.cluster("debug", spec=ETHERNET_DEBUG_CLUSTER,
                                n_nodes=migrate_nodes),
            node_map=None if migrate_nodes == 2 else {0: 0, 1: 0})
        t_restarted = env.now
        return (yield from session2.wait()), t_restarted

    results, t_restarted = scn.run(scenario())
    per_iter = max(post_restart_rate(r.marks, t_restarted)
                   for r in results)
    init = min(r.t_init for r in results)
    return init + per_iter * spec.iterations


def run() -> Table:
    table = Table(
        "Table 9", "LU.A.2: InfiniBand -> Ethernet migration runtimes",
        ["environment", "runtime(s)", "paper(s)"])
    ib2 = lambda: [InfinibandPlugin(fallback=Ib2TcpPlugin())]
    rows = [
        ("IB (w/o DMTCP)", _steady_runtime()),
        ("DMTCP/IB (w/o IB2TCP)",
         _steady_runtime(lambda: [InfinibandPlugin()])),
        ("DMTCP/IB2TCP/IB", _steady_runtime(ib2)),
        ("DMTCP/IB2TCP/Ethernet (2 nodes)",
         _steady_runtime(ib2, migrate_nodes=2)),
        ("DMTCP/IB2TCP/Ethernet (1 node)",
         _steady_runtime(ib2, migrate_nodes=1)),
    ]
    for label, runtime in rows:
        table.add(label, runtime, PAPER[label])
    two = rows[3][1] / rows[0][1] - 1
    one = rows[4][1] / rows[0][1] - 1
    table.note(f"Ethernet overhead: +{100 * two:.0f}% on 2 nodes, "
               f"+{100 * one:.0f}% on 1 node (paper: +67%/+142%)")
    return table
