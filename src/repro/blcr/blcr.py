"""BLCR: Berkeley Lab Checkpoint/Restart, the kernel-module baseline.

BLCR checkpoints a *single node's* processes from inside the kernel.  Two
properties matter for the paper's comparison:

* it knows nothing about the network, so a distributed checkpoint must
  tear the InfiniBand connections down first (the MPI checkpoint-restart
  services' job — see :mod:`.ompi_crs`);
* the kernel module ties the image to the kernel version: restart on a
  different kernel fails (§1, drawback 3 — the motivation for IB2TCP's
  debug-cluster story).
"""

from __future__ import annotations

from typing import Generator

from ..dmtcp.image import CheckpointImage
from ..hardware.node import Node, ProcessHost

__all__ = ["BlcrCheckpointer", "BlcrError", "BlcrKernelMismatchError"]


class BlcrError(RuntimeError):
    pass


class BlcrKernelMismatchError(BlcrError):
    """Restart attempted on a node running a different Linux kernel."""


class BlcrCheckpointer:
    """The cr_checkpoint / cr_restart pair for one node."""

    def __init__(self, node: Node):
        self.node = node
        # the kernel module must match the running kernel at load time —
        # always true here, recorded for the restart check
        self.kernel_version = node.kernel_version

    def checkpoint(self, host: ProcessHost, path: str,
                   disk_kind: str = "local",
                   header_bytes: float = 4096.0) -> Generator:
        """Process generator: capture ``host``'s memory into an image file
        (no gzip — BLCR writes raw pages).  Returns the image."""
        for region in host.memory:
            if region.pinned:
                raise BlcrError(
                    f"cannot checkpoint pinned (DMA-registered) memory "
                    f"region {region.name!r}: tear down the network first")
        image = CheckpointImage.capture(
            proc_name=host.name, pid=host.pid,
            kernel_version=self.kernel_version, hca_vendor=None,
            memory=host.memory, gzip=False, checkpointer="blcr",
            header_bytes=header_bytes, t_sim=self.node.env.now)
        disk = self.node.disk(disk_kind)
        yield from disk.write(path, image.to_bytes(),
                              logical_size=image.logical_size)
        return image

    def restart(self, target_node: Node, image: CheckpointImage,
                host: ProcessHost) -> None:
        """cr_restart: restore ``image`` into ``host`` on ``target_node``.

        Raises :class:`BlcrKernelMismatchError` unless the target runs the
        same kernel the image was taken under."""
        if image.checkpointer != "blcr":
            raise BlcrError("not a BLCR image")
        if target_node.kernel_version != image.kernel_version:
            raise BlcrKernelMismatchError(
                f"image taken under kernel {image.kernel_version!r}, "
                f"node runs {target_node.kernel_version!r}")
        image.restore_memory(host.memory)
