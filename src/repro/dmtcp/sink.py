"""Monolithic image files as a checkpoint sink.

:class:`FileSink`, :class:`repro.store.CheckpointStore` and
:class:`repro.service.TenantStoreClient` share one duck-typed surface
(DESIGN.md §15, "One sink surface"): ``put_image``,
``schedule_replication``, ``stage_from``, ``fetch_image``, ``stop`` and
a ``chunked`` flag.  Each hides a format: one blob per process here.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..hardware.cluster import Cluster
from .image import CheckpointImage

__all__ = ["FileSink", "PutResult"]


@dataclass
class PutResult:
    """What landing one image cost, and where it landed."""

    epoch: int                  # absolute store epoch (offset-mapped)
    manifest_path: str          # the manifest, or the image file
    chunks_new: int = 0
    chunks_deduped: int = 0
    bytes_written: float = 0.0  # logical bytes charged to the disk
    bytes_real: float = 0.0     # real bytes of the new chunks or file
    #: the multi-tenant service's admission layer refused the put (quota);
    #: a rejected put writes nothing and must not wedge the ckpt protocol
    rejected: bool = False
    #: the disk kind the image landed on (a store lands on the local tier)
    disk_kind: str = "local"
    #: a file put's serialised image: the one copy of its bytes, which
    #: the checkpoint record keeps and staging copies as is
    blob: Optional[bytes] = None


class FileSink:
    """One image file per process, ``<ckpt_dir>/ckpt_<name>.dmtcp`` on
    the ``disk_kind`` disk of the node it runs on — the paper's layout
    (node-local disk or Lustre, Tables 3–4)."""

    chunked = False

    def __init__(self, cluster: Cluster, disk_kind: str = "local",
                 ckpt_dir: str = "/tmp"):
        self.cluster = cluster
        self.disk_kind = disk_kind
        self.ckpt_dir = ckpt_dir

    @classmethod
    def where_written(cls, cluster: Cluster, ckpt_set) -> "FileSink":
        """Image files on ``cluster``, on the disk kind and in the
        directory ``ckpt_set``'s records were written to: a restart's
        default sink.  (A migration capture names no directory.)"""
        first = ckpt_set.records[0]
        return cls(cluster, first.disk_kind,
                   posixpath.dirname(first.path) or "/tmp")

    def path(self, proc_name: str) -> str:
        return f"{self.ckpt_dir}/ckpt_{proc_name}.dmtcp"

    def _disk(self, node_index: int):
        return self.cluster.nodes[node_index].disk(self.disk_kind)

    def put_image(self, rank: int, node_index: int, epoch: int,
                  image: CheckpointImage, stall: float = 1.0) -> Generator:
        """Process generator: write ``image`` as one file.  Dynamic gzip
        pipes through the writer, stalling the stream by ``stall``
        (Table 5's ~4% gzip cost); an incremental image only pushes the
        dirty regions' bytes.  Returns a :class:`PutResult` carrying the
        blob: the image keeps only its metadata and layout."""
        path = self.path(image.proc_name)
        data = image.to_bytes()
        image.drop_bytes()
        incremental = image.capture_stats.get("mode") == "incremental"
        logical = (image.delta_logical_size if incremental
                   else image.logical_size) * stall
        yield from self._disk(node_index).write(path, data,
                                                logical_size=logical)
        return PutResult(epoch=0, manifest_path=path, bytes_written=logical,
                         bytes_real=float(len(data)),
                         disk_kind=self.disk_kind, blob=data)

    def schedule_replication(self, epoch: int) -> None:
        """Nothing to do: an image file has no replicas."""

    def stop(self) -> None:
        """Nothing to do: no background flow writes image files."""

    def stage_from(self, ckpt_set, node_map: Optional[Dict[int, int]]
                   = None) -> None:
        """Copy every record's image to its file on this sink's cluster
        (the offline scp of §6.4; its cost is not part of any measured
        time)."""
        for record in ckpt_set.records:
            dst_index = (node_map or {}).get(
                record.node_index,
                record.node_index % len(self.cluster.nodes))
            data = record.blob if record.blob is not None \
                else record.image_with_bytes().to_bytes()
            self._disk(dst_index).fs.store(self.path(record.name), data,
                                           record.image.logical_size)

    def fetch_image(self, proc_name: str, epoch: Optional[int] = None,
                    via_node_index: int = 0) -> Generator:
        """Process generator: read and decode ``proc_name``'s image file
        from node ``via_node_index``'s disk (``epoch`` is unused: a file
        holds one image)."""
        data = yield from self._disk(via_node_index).read(
            self.path(proc_name))
        return CheckpointImage.from_bytes(data)
