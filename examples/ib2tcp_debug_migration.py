#!/usr/bin/env python
"""The paper's §6.4 debugging story, end to end — twice.

A long MPI job runs on an expensive InfiniBand production cluster.  Hours
in, something looks wrong.  With the IB2TCP plugin loaded you checkpoint,
copy the images to a cheap Ethernet-only debug cluster — running a
*different Linux kernel*, which the BLCR approach cannot tolerate — and
restart there.  The verbs traffic now flows over TCP; you attach your
"debugger" and inspect live application memory.

Act one is the paper's *offline* path: freeze, write images, copy,
restart — the job is down for the whole round trip.  Act two replays
the same hand-off with ``repro.migrate``'s *online* pre-copy path: the
memory streams to the debug cluster while the job keeps computing, and
the only downtime is the final stop-and-copy.  Same bug hunt, same
bit-identical checksum, a fraction of the outage.

Run:  python examples/ib2tcp_debug_migration.py
"""

import numpy as np

from repro.apps.nas import lu_app
from repro.core import Ib2TcpPlugin, InfinibandPlugin
from repro.dmtcp import dmtcp_launch, dmtcp_restart
from repro.hardware import Cluster, DEV_CLUSTER, ETHERNET_DEBUG_CLUSTER
from repro.migrate import MigrationManager
from repro.mpi import make_mpi_specs
from repro.sim import Environment


def offline_act() -> float:
    """Act one: stop-the-world checkpoint, copy, restart (§6.4)."""
    env = Environment()
    production = Cluster(env, DEV_CLUSTER, n_nodes=2, name="production")
    print(f"production kernel: {production.spec.kernel_version}")
    print(f"debug-cluster kernel: "
          f"{ETHERNET_DEBUG_CLUSTER.kernel_version}  (different!)")

    specs = make_mpi_specs(
        production, 2,
        lambda ctx, comm: lu_app(ctx, comm, klass="A", iters_sim=30),
        ppn=1)
    session = env.run(until=env.process(dmtcp_launch(
        production, specs,
        plugin_factory=lambda: [InfinibandPlugin(
            fallback=Ib2TcpPlugin())])))
    print("LU.A.2 running over InfiniBand with the IB2TCP plugin loaded")

    def scenario():
        yield env.timeout(2.0)
        print(f"[t={env.now:6.2f}s] bug suspected - checkpointing...")
        t_down = env.now
        ckpt = yield from session.checkpoint(intent="restart")
        production.teardown()
        print(f"[t={env.now:6.2f}s] images copied to the debug cluster")

        debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                        name="debug")
        session2 = yield from dmtcp_restart(debug, ckpt)
        print(f"[t={env.now:6.2f}s] restarted over TCP on Ethernet "
              f"({env.now - t_down:.2f}s of downtime)")

        # "attach gdb": inspect the restored application memory directly
        cont = ckpt.records[0].continuation
        state = cont.memory.region("mpi.r0.lu.data").view(
            dtype=np.float64)
        print(f"(gdb) p state[0..3] = {state[:4]}")
        print(f"(gdb) info proc     = pid {cont.appctx.proc.pid} on "
              f"{cont.appctx.proc.node.name}")

        results = yield from session2.wait()
        return results, env.now - t_down

    results, downtime = env.run(until=env.process(scenario()))
    sums = {r.checksum for r in results}
    assert len(sums) == 1
    checksum = sums.pop()
    print(f"job completed on the debug cluster; checksum {checksum:.4f}")
    print("OK: production-to-debug migration with a kernel change.")
    return checksum


def online_act() -> float:
    """Act two: the same hand-off, live — pre-copy while computing."""
    env = Environment()
    production = Cluster(env, DEV_CLUSTER, n_nodes=2, name="production")
    specs = make_mpi_specs(
        production, 2,
        lambda ctx, comm: lu_app(ctx, comm, klass="A", iters_sim=30),
        ppn=1)
    session = env.run(until=env.process(dmtcp_launch(
        production, specs,
        plugin_factory=lambda: [InfinibandPlugin(
            fallback=Ib2TcpPlugin())])))
    print("same job again - this time the hand-off is live")

    def scenario():
        yield env.timeout(2.0)
        print(f"[t={env.now:6.2f}s] bug suspected - pre-copying while "
              f"the job keeps running...")
        debug = Cluster(env, ETHERNET_DEBUG_CLUSTER, n_nodes=2,
                        name="debug")
        manager = MigrationManager(session, debug)
        result = yield from manager.migrate()
        print(f"[t={env.now:6.2f}s] live on the debug cluster: "
              f"{result.rounds} pre-copy round(s), "
              f"{result.precopy_bytes / 1e6:.1f} MB streamed while "
              f"computing, downtime {result.downtime_seconds:.2f}s")

        # the same "gdb attach" works on the migrated memory
        proc = result.session.procs[0]
        state = proc.host.memory.region("mpi.r0.lu.data").view(
            dtype=np.float64)
        print(f"(gdb) p state[0..3] = {state[:4]}")

        results = yield from result.session.wait()
        return results, result.downtime_seconds

    results, downtime = env.run(until=env.process(scenario()))
    sums = {r.checksum for r in results}
    assert len(sums) == 1
    checksum = sums.pop()
    print(f"job completed on the debug cluster; checksum {checksum:.4f}")
    return checksum


def main() -> None:
    print("== act one: offline (checkpoint, copy, restart) ==")
    offline_sum = offline_act()
    print("\n== act two: online (live pre-copy migration) ==")
    online_sum = online_act()
    assert online_sum == offline_sum, (online_sum, offline_sum)
    print("\nOK: online migration matched the offline path bit-for-bit.")


if __name__ == "__main__":
    main()
