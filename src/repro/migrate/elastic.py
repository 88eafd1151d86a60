"""Elastic restart: N checkpointed ranks onto M nodes.

The §3.2.1 transparency argument, cashed in: because every id the
application ever saw is virtual (vLIDs, virtual qp_nums, virtual rkeys)
and every restart re-resolves them through the coordinator's name-service
exchange, nothing ties a rank to the node that checkpointed it.  A job
frozen on N nodes can therefore be revived on M ≠ N — shrink onto half
the machine before a maintenance window, or expand back out — with a
plain round-robin placement map and zero application changes.  Ranks
sharing a node after a shrink talk over the same virtual QPs they always
did; the ib2tcp/ns layer just resolves both ends to the same host.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from .. import hooks
from ..dmtcp.launcher import CheckpointSet, dmtcp_restart
from ..hardware.cluster import Cluster

__all__ = ["elastic_node_map", "elastic_restart"]


def elastic_node_map(ckpt_set: CheckpointSet,
                     target: Cluster) -> Dict[int, int]:
    """Round-robin the checkpointed ranks' source nodes over the target's
    nodes, in rank order — the placement a shrink (M < N) or expand
    (M > N) gets with no hints."""
    n_dst = len(target.nodes)
    node_map: Dict[int, int] = {}
    next_dst = 0
    for record in sorted(ckpt_set.records, key=lambda r: r.rank):
        if record.node_index not in node_map:
            node_map[record.node_index] = next_dst % n_dst
            next_dst += 1
    return node_map


def elastic_restart(target: Cluster, ckpt_set: CheckpointSet, sink=None,
                    coord_node_index: int = 0,
                    node_map: Optional[Dict[int, int]] = None) -> Generator:
    """Process generator: revive an intent="restart" freeze of N ranks on
    the M-node ``target``, remapping placements round-robin (or per an
    explicit ``node_map``).  Returns ``(session, node_map)``."""
    if node_map is None:
        node_map = elastic_node_map(ckpt_set, target)
    tracer = hooks.tracer
    if tracer is not None:
        tracer.emit("migrate.elastic", "migrate", target.env.now,
                    ranks=len(ckpt_set.records),
                    src_nodes=len(set(r.node_index
                                      for r in ckpt_set.records)),
                    dst_nodes=len(target.nodes))
    session = yield from dmtcp_restart(
        target, ckpt_set, node_map=node_map,
        coord_node_index=coord_node_index, sink=sink)
    return session, node_map
