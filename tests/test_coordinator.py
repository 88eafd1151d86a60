"""Unit tests for the DMTCP coordinator protocol: barriers, the global
drain rounds, and the publish/subscribe database."""

import pytest

from repro.dmtcp.coordinator import Coordinator, CoordinatorClient
from repro.hardware import BUFFALO_CCR, Cluster
from repro.sim import Environment


def _setup(n_clients=3):
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=max(2, n_clients),
                      name="coord-test")
    coordinator = Coordinator(cluster.nodes[0], expected_clients=n_clients)
    return env, cluster, coordinator


def test_barrier_releases_all_at_once():
    env, cluster, coord = _setup(3)
    releases = []

    def client(i):
        c = yield from CoordinatorClient.connect(
            cluster.nodes[i % len(cluster.nodes)], coord.node.name,
            coord.port, f"c{i}")
        yield env.timeout(0.01 * i)  # skewed arrivals
        yield from c.barrier("b1")
        releases.append((i, env.now))

    for i in range(3):
        env.process(client(i))
    env.run()
    assert len(releases) == 3
    times = [t for _, t in releases]
    assert max(times) - min(times) < 0.01  # all released together
    assert min(times) >= 0.02              # after the last arrival


def test_barrier_waits_for_expected_not_connected():
    """A barrier must not release before all *expected* clients arrive,
    even if the stragglers have not connected yet (the restart race)."""
    env, cluster, coord = _setup(2)
    order = []

    def early():
        c = yield from CoordinatorClient.connect(
            cluster.nodes[0], coord.node.name, coord.port, "early")
        yield from c.barrier("x")
        order.append(("early-released", env.now))

    def late():
        yield env.timeout(0.5)  # connects long after 'early' hit the barrier
        c = yield from CoordinatorClient.connect(
            cluster.nodes[1], coord.node.name, coord.port, "late")
        yield from c.barrier("x")
        order.append(("late-released", env.now))

    env.process(early())
    env.process(late())
    env.run()
    assert len(order) == 2
    assert all(t >= 0.5 for _, t in order)


def test_publish_query_prefix_filtering():
    env, cluster, coord = _setup(2)
    result = {}

    def publisher():
        c = yield from CoordinatorClient.connect(
            cluster.nodes[0], coord.node.name, coord.port, "pub")
        yield from c.publish({"infiniband:qp:1": {"qpn": 7},
                              "infiniband:lid:5": 99,
                              "other:thing": 1})
        yield from c.barrier("ns")

    def querier():
        c = yield from CoordinatorClient.connect(
            cluster.nodes[1], coord.node.name, coord.port, "sub")
        yield from c.barrier("ns")
        result["ib"] = (yield from c.query_all("infiniband:"))
        result["all"] = (yield from c.query_all(""))

    env.process(publisher())
    env.process(querier())
    env.run()
    assert set(result["ib"]) == {"infiniband:qp:1", "infiniband:lid:5"}
    assert len(result["all"]) == 3


def test_drain_rounds_quiet_only_when_everyone_quiet():
    env, cluster, coord = _setup(2)
    verdicts = {0: [], 1: []}
    # client 0 reports activity for 2 rounds, client 1 is always quiet
    counts = {0: [3, 1, 0, 0], 1: [0, 0, 0, 0]}

    def client(i):
        c = yield from CoordinatorClient.connect(
            cluster.nodes[i], coord.node.name, coord.port, f"c{i}")
        for count in counts[i]:
            done = yield from c.drain_status(count)
            verdicts[i].append(done)
            if done:
                break

    for i in range(2):
        env.process(client(i))
    env.run()
    # rounds 1-2 not done (client 0 active), round 3 done for both
    assert verdicts[0] == [False, False, True]
    assert verdicts[1] == [False, False, True]


def test_stale_or_repeated_done_report_never_completes_a_round():
    """Done-reports are matched to the checkpoint epoch and counted once
    per client: a report left over from the previous round, or a client
    reporting twice, cannot stand in for a client still writing."""
    env, cluster, coord = _setup(2)

    def client(i):
        c = yield from CoordinatorClient.connect(
            cluster.nodes[i], coord.node.name, coord.port, f"c{i}")
        for _ in range(2):
            msg = yield c.recv()
            assert msg["op"] == "checkpoint", msg
            epoch = msg["epoch"]
            if i == 0 and epoch == 2:
                yield from c.ckpt_done({"epoch": 1, "who": "stale"})
                yield from c.ckpt_done({"epoch": 2, "who": "c0"})
                yield from c.ckpt_done({"epoch": 2, "who": "c0-repeat"})
            else:
                if i == 1:
                    yield env.timeout(0.5)  # the slow writer
                yield from c.ckpt_done({"epoch": epoch, "who": f"c{i}"})

    def driver():
        yield env.timeout(0.1)  # both clients connected
        yield from coord.checkpoint_all()
        start = env.now
        stats = yield from coord.checkpoint_all()
        return start, env.now, stats

    for i in range(2):
        env.process(client(i))
    start, done, stats = env.run(until=env.process(driver()))
    assert sorted(s["who"] for s in stats) == ["c0", "c1"]
    assert done - start >= 0.5  # waited for c1, not for c0's extras


def test_last_writer_wins_in_db():
    env, cluster, coord = _setup(1)

    def client():
        c = yield from CoordinatorClient.connect(
            cluster.nodes[0], coord.node.name, coord.port, "c")
        yield from c.publish({"k": 1})
        yield from c.publish({"k": 2})
        return (yield from c.query_all("k"))

    result = env.run(until=env.process(client()))
    assert result == {"k": 2}
