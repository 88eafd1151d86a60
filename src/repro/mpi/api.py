"""The mini-MPI communicator: point-to-point matching and collectives.

mpi4py-flavoured split: lowercase ``send_obj``/``recv_obj`` move pickled
Python objects (control-channel eager path); capitalized ``Send``/``Recv``
move raw buffer bytes between registered memory regions via the rendezvous
RDMA protocol (the path whose rkeys the paper's plugin must virtualize).

SPMD collectives (barrier, bcast, reduce, allreduce, gather, alltoall) are
built on those primitives with deterministic tag allocation, so they work
unchanged over the IB BTL and the TCP BTL.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Callable, Dict, Generator, List, Tuple

from ..dmtcp.process import AppContext
from ..memory import Region

__all__ = ["Communicator", "ANY_SOURCE", "MpiError"]

ANY_SOURCE = -1
_TAG_COLLECTIVE = 1 << 24


class MpiError(RuntimeError):
    pass


class _PostedRecv:
    __slots__ = ("tag", "source", "region", "offset", "nbytes", "event")

    def __init__(self, tag, source, region, offset, nbytes, event):
        self.tag = tag
        self.source = source
        self.region = region
        self.offset = offset
        self.nbytes = nbytes
        self.event = event

    def matches(self, tag: int, src: int) -> bool:
        return self.tag == tag and self.source in (ANY_SOURCE, src)


class Communicator:
    """COMM_WORLD for one rank."""

    def __init__(self, ctx: AppContext, btl, rank: int, size: int):
        self.ctx = ctx
        self.btl = btl
        self.rank = rank
        self.size = size
        btl.on_control = self._on_control
        self._rts_ids = itertools.count(1)
        self._coll_seq = itertools.count(1)
        # receiver state
        self._posted: List[_PostedRecv] = []
        self._unexpected: List[Tuple[int, dict]] = []
        self._rts_wait: Dict[int, _PostedRecv] = {}
        # sender state
        self._send_wait: Dict[int, Tuple] = {}   # rts id -> (args, event)
        # object messages
        self._obj_posted: List[Tuple[int, int, Any]] = []  # (tag, src, evt)
        self._obj_unexpected: List[Tuple[int, int, Any]] = []

    def close(self) -> None:
        """MPI_Finalize's last step: unhook from the BTL, whose control
        callback is this communicator's bound method."""
        self.btl.on_control = None

    # -- introspection -----------------------------------------------------------

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def pending_transfers(self) -> int:
        """Rendezvous transfers currently crossing the wire (receivers
        holding an exposed buffer awaiting the RDMA put) — what the CRS
        quiesce must drain before the network can be torn down.  Sends
        still awaiting a CTS are safe to freeze: their data has not left
        the sender, and the CTS/put will flow after the rebuild."""
        return len(self._rts_wait)

    # -- buffer-path point-to-point ------------------------------------------------

    #: largest *real* payload carried inline in the envelope (eager path);
    #: bigger transfers rendezvous through an RDMA write
    EAGER_INLINE_BYTES = 256

    def isend(self, region: Region, offset: int, nbytes: int, dest: int,
              tag: int = 0):
        """Non-blocking send; returns a completion event.

        Small messages go eager — the payload rides in the envelope and
        the send completes locally (buffered semantics, like Open MPI's
        eager protocol).  Larger ones rendezvous: RTS → CTS (receiver's
        rkey) → RDMA write → FIN."""
        if dest == self.rank:
            raise MpiError("self-sends not supported; use memory directly")
        rts = next(self._rts_ids)
        done = self.ctx.env.event()
        logical = nbytes * region.repr_scale
        if nbytes <= self.EAGER_INLINE_BYTES \
                and logical <= self.EAGER_INLINE_BYTES:
            payload = self.ctx.memory.read(region.addr + offset, nbytes)

            def launch_eager():
                yield from self.btl.send_control(dest, {
                    "kind": "eager", "tag": tag, "src": self.rank,
                    "nbytes": nbytes, "logical": logical, "rts": rts,
                    "data": payload})
                if not done.triggered:
                    done.succeed(nbytes)  # buffered: complete on hand-off

            self.ctx.proc.spawn_thread(launch_eager(),
                                       name=f"{self.ctx.name}.eag{rts}")
            return done
        self._send_wait[rts] = ((region, offset, nbytes), done)

        def launch():
            yield from self.btl.send_control(dest, {
                "kind": "rts", "tag": tag, "src": self.rank,
                "nbytes": nbytes, "logical": logical, "rts": rts})

        self.ctx.proc.spawn_thread(launch(),
                                   name=f"{self.ctx.name}.isend{rts}")
        return done

    def Send(self, region: Region, offset: int, nbytes: int, dest: int,
             tag: int = 0) -> Generator:
        yield self.isend(region, offset, nbytes, dest, tag)

    def irecv(self, region: Region, offset: int, nbytes: int,
              source: int = ANY_SOURCE, tag: int = 0):
        """Non-blocking receive; returns a completion event."""
        done = self.ctx.env.event()
        posted = _PostedRecv(tag, source, region, offset, nbytes, done)
        self._posted.append(posted)
        self._match_unexpected()
        return done

    def Recv(self, region: Region, offset: int, nbytes: int,
             source: int = ANY_SOURCE, tag: int = 0) -> Generator:
        yield self.irecv(region, offset, nbytes, source, tag)

    # -- object-path point-to-point ------------------------------------------------------

    def send_obj(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(data) > 380:
            raise MpiError(
                f"object message too large ({len(data)}B); use Send()")
        yield from self.btl.send_control(dest, {
            "kind": "obj", "tag": tag, "src": self.rank, "data": data})

    def recv_obj(self, source: int = ANY_SOURCE, tag: int = 0) -> Generator:
        for i, (utag, usrc, data) in enumerate(self._obj_unexpected):
            if utag == tag and source in (ANY_SOURCE, usrc):
                del self._obj_unexpected[i]
                return pickle.loads(data)
        evt = self.ctx.env.event()
        self._obj_posted.append((tag, source, evt))
        data = yield evt
        return pickle.loads(data)

    # -- control-message dispatch (runs in the BTL progress thread) ----------------------

    def _on_control(self, peer: int, msg: dict) -> None:
        kind = msg["kind"]
        if kind in ("rts", "eager"):
            self._unexpected.append((peer, msg))
            self._match_unexpected()
        elif kind == "cts":
            (region, offset, nbytes), done = self._send_wait.pop(msg["rts"])

            def put(peer=peer, msg=msg):
                yield from self.btl.rdma_put(
                    peer, region, offset, nbytes, msg["rts"],
                    msg["raddr"], msg["rkey"])
                if not done.triggered:
                    done.succeed(nbytes)

            self.ctx.proc.spawn_thread(put(),
                                       name=f"{self.ctx.name}.put")
        elif kind == "fin":
            posted = self._rts_wait.pop((peer, msg["rts"]), None)
            if posted is not None and not posted.event.triggered:
                posted.event.succeed(posted.nbytes)
        elif kind == "obj":
            for i, (tag, src, evt) in enumerate(self._obj_posted):
                if tag == msg["tag"] and src in (ANY_SOURCE, msg["src"]):
                    del self._obj_posted[i]
                    if not evt.triggered:
                        evt.succeed(msg["data"])
                    return
            self._obj_unexpected.append((msg["tag"], msg["src"],
                                         msg["data"]))
        else:  # pragma: no cover - protocol bug
            raise MpiError(f"unknown control message {kind!r}")

    def _match_unexpected(self) -> None:
        matched = True
        while matched:
            matched = False
            for ui, (peer, msg) in enumerate(self._unexpected):
                for pi, posted in enumerate(self._posted):
                    if posted.matches(msg["tag"], msg["src"]):
                        if msg["nbytes"] > posted.nbytes:
                            raise MpiError(
                                f"message truncation: {msg['nbytes']} > "
                                f"{posted.nbytes}")
                        del self._unexpected[ui]
                        del self._posted[pi]
                        if msg["kind"] == "eager":
                            self.ctx.memory.write(
                                posted.region.addr + posted.offset,
                                msg["data"])
                            if not posted.event.triggered:
                                posted.event.succeed(msg["nbytes"])
                        else:
                            self._issue_cts(peer, msg, posted)
                        matched = True
                        break
                if matched:
                    break

    def _issue_cts(self, peer: int, msg: dict, posted: _PostedRecv) -> None:
        # rts ids are per-sender counters: key by (peer, rts) or two
        # senders' ids collide and a receive completion is lost
        self._rts_wait[(peer, msg["rts"])] = posted
        mr = self.btl.mr_for(posted.region)

        def cts():
            yield from self.btl.send_control(peer, {
                "kind": "cts", "rts": msg["rts"],
                "raddr": posted.region.addr + posted.offset,
                "rkey": mr.rkey})

        self.ctx.proc.spawn_thread(cts(), name=f"{self.ctx.name}.cts")

    # -- collectives -----------------------------------------------------------------------

    def _next_tag(self) -> int:
        """Tag block for one collective call: SPMD programs call
        collectives in the same order on every rank, so the sequence
        numbers agree; the stride leaves room for per-round/per-phase
        offsets within one collective (up to 4096 ranks)."""
        return _TAG_COLLECTIVE + 4096 * next(self._coll_seq)

    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2(n)) rounds."""
        tag = self._next_tag()
        n, rank = self.size, self.rank
        k, rnd = 1, 0
        while k < n:
            dest = (rank + k) % n
            src = (rank - k) % n
            yield from self.send_obj(None, dest, tag + rnd)
            yield from self.recv_obj(src, tag + rnd)
            k *= 2
            rnd += 1

    def bcast_obj(self, obj: Any, root: int = 0) -> Generator:
        """Binomial-tree broadcast of a small object."""
        tag = self._next_tag()
        n = self.size
        vrank = (self.rank - root) % n
        mask = 1
        while mask < n:
            if vrank & mask:
                src = (self.rank - mask) % n
                obj = yield from self.recv_obj(src, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < n and not (vrank & mask):
                dest = (self.rank + mask) % n
                yield from self.send_obj(obj, dest, tag)
            mask >>= 1
        return obj

    def reduce_obj(self, value: Any, op: Callable[[Any, Any], Any],
                   root: int = 0) -> Generator:
        """Binomial-tree reduction of small values."""
        tag = self._next_tag()
        n = self.size
        vrank = (self.rank - root) % n
        mask = 1
        while mask < n:
            if vrank & mask:
                dest = (self.rank - mask) % n
                yield from self.send_obj(value, dest, tag)
                return None
            partner = vrank + mask
            if partner < n:
                src = (self.rank + mask) % n
                other = yield from self.recv_obj(src, tag)
                value = op(value, other)
            mask *= 2
        return value if self.rank == root else None

    def allreduce_obj(self, value: Any,
                      op: Callable[[Any, Any], Any]) -> Generator:
        reduced = yield from self.reduce_obj(value, op, root=0)
        result = yield from self.bcast_obj(reduced, root=0)
        return result

    def gather_obj(self, value: Any, root: int = 0) -> Generator:
        tag = self._next_tag()
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = value
            for _ in range(self.size - 1):
                src_val = yield from self.recv_obj(ANY_SOURCE, tag)
                src, val = src_val
                out[src] = val
            return out
        yield from self.send_obj((self.rank, value), root, tag)
        return None

    def alltoall_buffers(self, send_region: Region, recv_region: Region,
                         block_bytes: int) -> Generator:
        """Pairwise-exchange all-to-all of equal blocks (FT's transpose).

        ``send_region``/``recv_region`` are laid out as ``size`` blocks of
        ``block_bytes`` each; block *i* goes to rank *i*.
        """
        tag = self._next_tag()
        n, rank = self.size, self.rank
        # local copy
        lo = rank * block_bytes
        recv_region.write(lo, send_region.buffer[lo:lo + block_bytes])
        for phase in range(1, n):
            partner = rank ^ phase if (n & (n - 1)) == 0 \
                else (rank + phase) % n
            recv_partner = partner if (n & (n - 1)) == 0 \
                else (rank - phase) % n
            sreq = self.isend(send_region, partner * block_bytes,
                              block_bytes, partner, tag + phase)
            rreq = self.irecv(recv_region, recv_partner * block_bytes,
                              block_bytes, recv_partner, tag + phase)
            yield sreq
            yield rreq

    def sendrecv(self, send_region: Region, send_off: int, send_n: int,
                 dest: int, recv_region: Region, recv_off: int, recv_n: int,
                 source: int, tag: int = 0) -> Generator:
        """Simultaneous send+receive (halo exchanges)."""
        sreq = self.isend(send_region, send_off, send_n, dest, tag)
        rreq = self.irecv(recv_region, recv_off, recv_n, source, tag)
        yield sreq
        yield rreq
