"""The DMTCP coordinator.

One coordinator per session, reachable over the Ethernet segment.  It
provides the global checkpoint barriers, aggregates the distributed drain
protocol (all nodes keep draining completion queues until a full global
round sees no new completions anywhere), and hosts the publish/subscribe
key-value database used to exchange new real ids at restart (§3.2.1).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Generator, List, Mapping, Optional

from .. import hooks
from ..hardware.node import Node
from ..net.tcp import Connection, TcpStack
from ..sim import Environment, Event

__all__ = ["Coordinator", "CoordinatorClient", "NsView"]

COORD_PORT = 7779


class NsView(Mapping):
    """A read-only snapshot of the name-service database (§3.2.1).

    The coordinator builds one per published db and answers every
    ``query-all`` with the same object, so the restart exchange costs
    O(|db|) host work in total rather than per rank.  The split by
    ``"<plugin>:"`` namespace is made here too, once: :meth:`section` is
    what a plugin is handed, likewise shared — nobody may mutate it.
    """

    def __init__(self, db: Dict[str, Any], prefix: str):
        self._data = {k: v for k, v in db.items() if k.startswith(prefix)}
        sections: Dict[str, Dict[str, Any]] = {}
        for key, value in self._data.items():
            name, _, rest = key.partition(":")
            sections.setdefault(name, {})[rest] = value
        self._sections = {name: MappingProxyType(entries)
                          for name, entries in sections.items()}

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def section(self, name: str) -> Mapping[str, Any]:
        """The entries published as ``"<name>:<key>"``, keyed by ``key``."""
        return self._sections.get(name, MappingProxyType({}))


class _ClientHandle:
    """One connected checkpoint manager.  ``slot`` is the coordinator's
    dense index for this client (assigned at accept time): all per-rank
    round state lives in flat arrays indexed by it, so a 2048-rank
    barrier/drain round costs O(ranks) int ops with no per-message dict
    or list churn."""

    __slots__ = ("conn", "name", "slot")

    def __init__(self, conn: Connection, name: str, slot: int):
        self.conn = conn
        self.name = name
        self.slot = slot


class Coordinator:
    """Runs on a (login) node; speaks the client protocol over TCP."""

    def __init__(self, node: Node, port: int = COORD_PORT,
                 expected_clients: Optional[int] = None, *, sink):
        self.node = node
        self.env: Environment = node.env
        self.port = port
        self.stack = TcpStack.of(node)
        self.listener = self.stack.listen(port)
        #: slot-indexed: ``clients[h.slot] is h`` for every handle
        self.clients: List[_ClientHandle] = []
        self.expected = expected_clients
        self.db: Dict[str, Any] = {}
        #: per-prefix :class:`NsView` of ``db``, dropped on every publish
        self._ns_views: Dict[str, NsView] = {}
        #: barrier accounting is a single int counter per live barrier id
        #: (one dict slot, O(1) per arrival, O(ranks) per round)
        self._barriers: Dict[str, int] = {}
        #: drain round accumulators: total completions + ranks heard from
        self._drain_total = 0
        self._drain_n = 0
        #: per-slot epoch stamp of the last accepted ckpt-done report;
        #: grown in the accept loop alongside ``clients``
        self._ckpt_seen: List[int] = []
        self._ckpt_stats: List[dict] = []
        self._ckpt_done_evt: Optional[Event] = None
        #: checkpoint epoch counter: it numbers the store's epochs, and
        #: done-reports are matched to it, so a late report from an
        #: earlier round (or a repeat) never completes the current one
        self._ckpt_epoch = 0
        #: the job's checkpoint sink (DESIGN.md §15): each completed epoch
        #: kicks off its async tier replication, if it has any
        self.sink = sink
        #: nothing in the package waits on this, but its trigger is one
        #: simulated event per job that the pinned ledger witnesses
        #: (``benchmarks/ledger/witnesses.json``) count: it goes when
        #: they are re-pinned
        self._all_connected = self.env.event()
        self._procs = [self.env.process(self._accept_loop(),
                                        name="coord.accept")]

    def shutdown(self) -> None:
        """Kill the coordinator's service loops and close its listener.

        Needed when the job dies under it (fault injection): a client loop
        parked mid-broadcast would otherwise wake into a torn-down network
        and raise with nobody left to observe it."""
        for proc in self._procs:
            if proc.is_alive:
                proc.kill()
        self._procs.clear()
        self.listener.close()

    # -- connection handling ------------------------------------------------------

    def _accept_loop(self) -> Generator:
        while True:
            conn = yield self.listener.accept()
            hello = yield conn.recv()
            assert hello["op"] == "hello", hello
            handle = _ClientHandle(conn, hello["name"], len(self.clients))
            self.clients.append(handle)
            self._ckpt_seen.append(0)
            if (self.expected is not None
                    and len(self.clients) == self.expected
                    and not self._all_connected.triggered):
                self._all_connected.succeed()
            self._procs.append(
                self.env.process(self._client_loop(handle),
                                 name=f"coord.client.{handle.name}"))

    def wait_all_connected(self) -> Event:
        return self._all_connected

    def _client_loop(self, client: _ClientHandle) -> Generator:
        while True:
            msg = yield client.conn.recv()
            op = msg["op"]
            if op == "barrier":
                yield from self._barrier(msg["id"])
            elif op == "publish":
                self.db.update(msg["entries"])
                self._ns_views.clear()
            elif op == "query-all":
                prefix = msg["prefix"]
                data = self._ns_views.get(prefix)
                if data is None:
                    data = self._ns_views[prefix] = NsView(self.db, prefix)
                yield from client.conn.send(
                    {"op": "query-result", "data": data},
                    size=128.0 + 64.0 * len(data))
            elif op == "drain-status":
                yield from self._drain_status(msg["count"])
            elif op == "ckpt-done":
                stats = msg["stats"]
                epoch = self._ckpt_epoch
                if (stats.get("epoch", epoch) == epoch
                        and self._ckpt_seen[client.slot] != epoch):
                    self._ckpt_seen[client.slot] = epoch
                    self._ckpt_stats.append(stats)
                if (len(self._ckpt_stats) == self._quorum()
                        and self._ckpt_done_evt is not None
                        and not self._ckpt_done_evt.triggered):
                    self._ckpt_done_evt.succeed(list(self._ckpt_stats))
            else:  # pragma: no cover - protocol bug
                raise AssertionError(f"unknown op {op!r}")

    # -- barriers -------------------------------------------------------------------

    def _quorum(self) -> int:
        return self.expected if self.expected is not None \
            else len(self.clients)

    def _barrier(self, barrier_id: str) -> Generator:
        count = self._barriers.get(barrier_id, 0) + 1
        self._barriers[barrier_id] = count
        if count == self._quorum():
            del self._barriers[barrier_id]
            for client in self.clients:
                yield from client.conn.send(
                    {"op": "barrier-release", "id": barrier_id})
        return
        yield  # pragma: no cover

    # -- global drain rounds -----------------------------------------------------------

    def _drain_status(self, count: int) -> Generator:
        self._drain_total += count
        self._drain_n += 1
        if self._drain_n == self._quorum():
            done = self._drain_total == 0
            if hooks.tracer is not None:
                hooks.tracer.emit("coord.drain.verdict", "coord",
                                  self.env.now, done=done,
                                  total=self._drain_total)
            self._drain_total = 0
            self._drain_n = 0
            for client in self.clients:
                yield from client.conn.send(
                    {"op": "drain-verdict", "done": done})
        return
        yield  # pragma: no cover

    # -- checkpoint initiation --------------------------------------------------------

    def checkpoint_all(self, intent: str = "resume") -> Generator:
        """Broadcast a checkpoint request; returns the per-process
        ``ckpt-done`` reports (``name``, ``epoch``, and ``error`` when the
        put failed) once every checkpoint manager reports done.

        "Done" means each process's put into the sink returned.

        ``intent="migrate"`` is the stop-and-copy capture of a live
        migration: quiesce + drain + in-memory capture with *no* image
        write — the migration manager ships the final dirty delta over
        the wire itself, so nothing lands on any tier at this epoch."""
        assert intent in ("resume", "restart", "migrate")
        self._ckpt_epoch += 1
        self._ckpt_stats = []
        self._ckpt_done_evt = self.env.event()
        if hooks.tracer is not None:
            hooks.tracer.emit("coord.ckpt.request", "coord", self.env.now,
                              epoch=self._ckpt_epoch, intent=intent,
                              clients=len(self.clients))
        for client in self.clients:
            yield from client.conn.send({"op": "checkpoint",
                                         "intent": intent,
                                         "epoch": self._ckpt_epoch})
        stats = yield self._ckpt_done_evt
        self._ckpt_done_evt = None
        if hooks.tracer is not None:
            hooks.tracer.emit("coord.ckpt.done", "coord", self.env.now,
                              epoch=self._ckpt_epoch, procs=len(stats))
        # every image of this epoch landed: a chunk store starts pushing
        # partner/Lustre replicas while the job runs on
        self.sink.schedule_replication(self._ckpt_epoch)
        return stats


class CoordinatorClient:
    """The checkpoint-manager side of the protocol (lives in each process).

    The manager thread owns the connection: pushed requests ("checkpoint")
    and protocol replies arrive on the same ordered stream, exactly like
    DMTCP's checkpoint-thread socket.
    """

    def __init__(self, env: Environment, conn: Connection, name: str):
        self.env = env
        self.conn = conn
        self.name = name

    @classmethod
    def connect(cls, node: Node, coord_host: str, port: int,
                name: str) -> Generator:
        stack = TcpStack.of(node)
        conn = yield from stack.connect(coord_host, port)
        yield from conn.send({"op": "hello", "name": name})
        return cls(node.env, conn, name)

    def recv(self):
        return self.conn.recv()

    def barrier(self, barrier_id: str) -> Generator:
        yield from self.conn.send({"op": "barrier", "id": barrier_id})
        while True:
            msg = yield self.conn.recv()
            if msg["op"] == "barrier-release" and msg["id"] == barrier_id:
                return
            raise AssertionError(f"unexpected {msg} while in barrier")

    def publish(self, entries: Dict[str, Any]) -> Generator:
        yield from self.conn.send({"op": "publish", "entries": entries},
                                  size=128.0 + 64.0 * len(entries))

    def query_all(self, prefix: str) -> Generator:
        """Returns the coordinator's shared, read-only :class:`NsView`."""
        yield from self.conn.send({"op": "query-all", "prefix": prefix})
        msg = yield self.conn.recv()
        assert msg["op"] == "query-result", msg
        return msg["data"]

    def drain_status(self, count: int) -> Generator:
        """Report this round's completion count; returns True when the
        coordinator declares the network globally quiet."""
        yield from self.conn.send({"op": "drain-status", "count": count})
        msg = yield self.conn.recv()
        assert msg["op"] == "drain-verdict", msg
        return msg["done"]

    def ckpt_done(self, stats: dict) -> Generator:
        yield from self.conn.send({"op": "ckpt-done", "stats": stats})
