"""Failure-domain-aware tier placement.

Three tiers, ordered cheapest-first for restart:

* **local**   — the checkpointing node's own disk.  Fastest, but shares
  the node's failure domain: a node-crash destroys it.
* **partner** — a neighbour node's disk (FTI-style buddy placement:
  node *i* replicates to node ``(i + 1) % n``).  Survives any
  single-node crash by construction, since a chunk's local and partner
  copies live on different nodes.
* **lustre**  — the shared parallel filesystem.  Slowest writes, but its
  failure domain is disjoint from every compute node; it also gives
  *cross-rank* dedup a global scope (one shared chunk pool for the job).

Each tier answers the same three questions for a checkpoint taken on
``node_index``: which filesystem holds the replica (``replica_fs``),
which :class:`~repro.hardware.storage.Disk` moves its bytes
(``replica_disk`` — for Lustre that is the *accessing* node's client
mount, so reads are charged to whoever restarts), and whether the
replica survived (``alive``).
"""

from __future__ import annotations

from typing import Optional

from ..hardware.cluster import Cluster
from ..hardware.storage import Disk, FileSystem

__all__ = ["LocalTier", "PartnerTier", "LustreTier"]


class LocalTier:
    """The checkpointing node's own disk."""

    kind = "local"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def placement(self, node_index: int) -> int:
        return node_index % len(self.cluster.nodes)

    def replica_fs(self, node_index: int) -> FileSystem:
        return self.cluster.nodes[self.placement(node_index)].local_disk.fs

    def replica_disk(self, node_index: int,
                     via_index: Optional[int] = None) -> Disk:
        return self.cluster.nodes[self.placement(node_index)].local_disk

    def alive(self, node_index: int) -> bool:
        return not self.cluster.nodes[self.placement(node_index)].failed


class PartnerTier(LocalTier):
    """Buddy replica on node ``(i + 1) % n``."""

    kind = "partner"

    def placement(self, node_index: int) -> int:
        return (node_index + 1) % len(self.cluster.nodes)

    def degenerate(self, node_index: int) -> bool:
        """True when the partner lands on the checkpointing node itself
        (single-node cluster): a copy there buys no failure isolation."""
        return self.placement(node_index) == \
            node_index % len(self.cluster.nodes)


class LustreTier:
    """The shared parallel filesystem, accessed through per-node clients."""

    kind = "lustre"

    def __init__(self, cluster: Cluster):
        if cluster.lustre_fs is None:
            raise ValueError(f"{cluster.name}: no Lustre back-end")
        self.cluster = cluster

    def placement(self, node_index: int) -> Optional[int]:
        return None  # not on any compute node

    def replica_fs(self, node_index: int) -> FileSystem:
        return self.cluster.lustre_fs

    def replica_disk(self, node_index: int,
                     via_index: Optional[int] = None) -> Disk:
        """The client mount the transfer goes through — the accessing
        node's, so restart reads bill the restarting node's client."""
        n = len(self.cluster.nodes)
        via = node_index if via_index is None else via_index
        return self.cluster.nodes[via % n].lustre

    def alive(self, node_index: int) -> bool:
        # the backing OSTs are off the compute partition: node crashes
        # never take the tier down (a dead *client* just can't reach it,
        # which replica_disk's caller checks on the via node).  A
        # transient ``lustre-brownout`` fault blacks the whole tier out
        # until its heal timer resets the flag.
        return not getattr(self.cluster, "lustre_down", False)
