"""Table 8: IB2TCP ping-pong — transfer rates across four environments,
from bare InfiniBand down to verbs-over-TCP on Gigabit Ethernet after a
live migration (paper §6.4.1: 100,000 iterations, 819 MB total)."""

from __future__ import annotations

from ..apps.pingpong import pingpong_app
from ..apps.nas.common import post_restart_rate
from ..core import Ib2TcpPlugin, InfinibandPlugin
from ..dmtcp import native_launch, AppSpec
from ..hardware import DEV_CLUSTER, ETHERNET_DEBUG_CLUSTER
from ..scenario import Scenario
from .tables import Table

__all__ = ["PAPER", "run"]

PAPER_ITERS = 100_000
MSG_BYTES = 4096          # 819 MB total over 100k iterations, both ways

#: environment -> (transfer time s, rate Gbit/s)
PAPER = {
    "IB (w/o DMTCP)": (0.9, 7.2),
    "DMTCP/IB (w/o IB2TCP)": (1.2, 5.7),
    "DMTCP/IB2TCP/IB": (1.4, 4.6),
    "DMTCP/IB2TCP/Ethernet": (65.7, 0.1),
}


def _specs(cluster, iters):
    server = cluster.nodes[0].name
    return [
        AppSpec(0, "pp-server",
                lambda ctx: pingpong_app(ctx, None, True, iters=iters,
                                         msg_bytes=MSG_BYTES)),
        AppSpec(1, "pp-client",
                lambda ctx: pingpong_app(ctx, server, False, iters=iters,
                                         msg_bytes=MSG_BYTES)),
    ]


def _project(per_iter: float):
    total = per_iter * PAPER_ITERS
    rate = (2.0 * PAPER_ITERS * MSG_BYTES) * 8 / total / 1e9
    return total, rate


def run(iters: int = 3000) -> Table:
    """``iters`` simulated round trips are projected to the paper's 100k."""
    table = Table(
        "Table 8", "IB2TCP ping-pong transfer time and rate "
        f"(projected to {PAPER_ITERS} iterations, 819 MB)",
        ["environment", "time(s)", "Gbit/s", "paper-time", "paper-Gbit/s"])

    def steady(factory, migrate=False):
        scn = Scenario(DEV_CLUSTER, 2, "pp-t8", ppn=1)
        env = scn.env
        cluster = scn.cluster()
        if factory is None:  # bare InfiniBand
            session = native_launch(cluster, _specs(cluster, iters))
            results = scn.run(session.wait())
            return max(r["elapsed"] / r["iters"] for r in results)
        session = env.run(until=env.process(scn.launch(
            cluster, _specs(cluster, iters), factory)))
        if not migrate:
            results = scn.run(session.wait())
            return max(r["elapsed"] / r["iters"] for r in results)

        def scenario():
            yield env.timeout(0.01)  # a few hundred iterations in
            _, session2, _, t_restarted = yield from scn.move(
                session, cluster,
                lambda: scn.cluster("debug", spec=ETHERNET_DEBUG_CLUSTER))
            return (yield from session2.wait()), t_restarted

        results, t_restarted = scn.run(scenario())
        # steady-state per-iteration rate measured after the migration
        return max(post_restart_rate(r["marks"], t_restarted)
                   for r in results)

    rows = [
        ("IB (w/o DMTCP)", steady(None)),
        ("DMTCP/IB (w/o IB2TCP)",
         steady(lambda: [InfinibandPlugin()])),
        ("DMTCP/IB2TCP/IB",
         steady(lambda: [InfinibandPlugin(fallback=Ib2TcpPlugin())])),
        ("DMTCP/IB2TCP/Ethernet",
         steady(lambda: [InfinibandPlugin(fallback=Ib2TcpPlugin())],
                migrate=True)),
    ]
    for label, per_iter in rows:
        total, rate = _project(per_iter)
        p_t, p_r = PAPER[label]
        table.add(label, total, rate, p_t, p_r)
    return table
