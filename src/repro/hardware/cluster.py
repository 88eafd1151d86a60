"""Cluster assembly: nodes, InfiniBand fabric, Ethernet, storage.

``HardwareSpec`` carries every calibrated constant; the presets at the
bottom mirror the testbeds in the paper's §6 (MGHPCC for scalability,
U. Buffalo CCR for the DMTCP/BLCR comparison, and the small development
cluster used for the IB2TCP ping-pong test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import Environment, RngFactory
from .hca import HCA, SoftHca
from .network import Network
from .node import Node
from .storage import Disk, FileSystem

__all__ = [
    "HardwareSpec",
    "Cluster",
    "MGHPCC",
    "BUFFALO_CCR",
    "DEV_CLUSTER",
    "ETHERNET_DEBUG_CLUSTER",
]


@dataclass(frozen=True)
class HardwareSpec:
    """Calibrated hardware constants (see EXPERIMENTS.md for provenance)."""

    name: str = "generic"
    cores_per_node: int = 16
    gflops_per_core: float = 1.4       # effective, NAS-like code at 2 GHz
    kernel_version: str = "2.6.32-rhel6.1"
    # InfiniBand (QDR-class)
    has_infiniband: bool = True
    hca_vendor: str = "mlx4"
    ib_latency: float = 1.8e-6
    ib_bandwidth: float = 3.2e9        # bytes/s
    ib_msg_overhead: float = 0.6e-6    # per-message HCA processing
    # Ethernet (GigE)
    eth_latency: float = 45e-6
    eth_bandwidth: float = 112e6
    eth_msg_overhead: float = 12e-6    # kernel TCP stack per message
    # Storage
    local_disk_write_bw: float = 26e6  # paper §6.1: 20-27 MB/s observed
    local_disk_read_bw: float = 520e6   # page-cache-hot reads
    has_lustre: bool = False
    lustre_client_write_bw: float = 170e6  # ≈6.5x local disk (Table 4)
    lustre_client_read_bw: float = 560e6


class Cluster:
    """A homogeneous partition of ``n_nodes`` built from a spec.

    The subnet manager assigns LIDs from a per-cluster random base, so
    restarting a job on a *different* cluster changes every LID (§3.2),
    while a restart on the same cluster keeps them.
    """

    _instance_counter = 0

    def __init__(self, env: Environment, spec: HardwareSpec, n_nodes: int,
                 rng: Optional[RngFactory] = None, name: str = ""):
        Cluster._instance_counter += 1
        self.env = env
        self.spec = spec
        self.name = name or f"{spec.name}#{Cluster._instance_counter}"
        self.rng = (rng or RngFactory(2014)).child(self.name)
        self.nodes: List[Node] = []
        self.fabric: Optional[Network] = None
        self.ethernet = Network(
            env, f"{self.name}.eth", latency=spec.eth_latency,
            bandwidth=spec.eth_bandwidth,
            per_message_overhead=spec.eth_msg_overhead)
        self.lustre_fs = FileSystem(f"{self.name}.lustre") \
            if spec.has_lustre else None

        if spec.has_infiniband:
            self.fabric = Network(
                env, f"{self.name}.ib", latency=spec.ib_latency,
                bandwidth=spec.ib_bandwidth,
                per_message_overhead=spec.ib_msg_overhead)
        lid_base = int(self.rng.stream("subnet-manager").integers(1, 0x4000))

        for i in range(n_nodes):
            node_name = f"{self.name}.n{i:03d}"
            hca = None
            if spec.has_infiniband:
                hca = HCA(env, f"{node_name}.{spec.hca_vendor}",
                          vendor=spec.hca_vendor,
                          rng=self.rng.stream(f"hca{i}"))
                hca.attach(self.fabric, lid_base + i)
            local_disk = Disk(
                env, f"{node_name}.disk",
                write_bandwidth=spec.local_disk_write_bw,
                read_bandwidth=spec.local_disk_read_bw)
            lustre = None
            if spec.has_lustre:
                lustre = Disk(
                    env, f"{node_name}.lustre-client",
                    write_bandwidth=spec.lustre_client_write_bw,
                    read_bandwidth=spec.lustre_client_read_bw,
                    latency=1e-3, fs=self.lustre_fs)
            node = Node(env, node_name, cores=spec.cores_per_node,
                        gflops_per_core=spec.gflops_per_core,
                        kernel_version=spec.kernel_version,
                        hca=hca, local_disk=local_disk, lustre=lustre)
            node.ethernet = self.ethernet  # for the TCP stack to attach to
            if not spec.has_infiniband:
                # a software HCA on the NIC, for the IB2TCP provider
                node.soft_hca = SoftHca(env, f"{node_name}.rxe",
                                        rng=self.rng.stream(f"rxe{i}"))
                node.soft_hca.attach(self.ethernet, lid_base + i)
            self.nodes.append(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def teardown(self) -> None:
        """Power the partition off: kill every process, drop every in-flight
        packet (the precondition for the paper's restart path)."""
        for node in self.nodes:
            node.power_off()
        if self.fabric is not None:
            self.fabric.teardown()
        self.ethernet.teardown()


# -- presets matching the paper's testbeds ------------------------------------

#: §6.1 scalability runs: dual-CPU Xeon E5-2650, 16 cores/node, Mellanox,
#: Lustre back-end.
MGHPCC = HardwareSpec(
    name="mghpcc", cores_per_node=16, gflops_per_core=1.4,
    hca_vendor="mlx4", has_lustre=True,
    kernel_version="2.6.32-mghpcc")

#: §6.2/6.3 DMTCP-vs-BLCR runs: one core per node used, 2.13-2.40 GHz,
#: mixed Mellanox/QLogic partitions (homogeneous per experiment).
BUFFALO_CCR = HardwareSpec(
    name="ccr", cores_per_node=1, gflops_per_core=0.85,
    hca_vendor="mlx4", has_lustre=False,
    kernel_version="2.6.32-rhel6.1")

#: §6.4.1 development cluster: 6-core Xeon X5650, Mellanox HCA, GigE.
DEV_CLUSTER = HardwareSpec(
    name="dev", cores_per_node=6, gflops_per_core=1.22,
    hca_vendor="mlx4", has_lustre=False,
    kernel_version="2.6.32-dev")

#: The inexpensive Ethernet-only debug cluster of §6.4 — note the different
#: kernel, which BLCR cannot restart onto but DMTCP can.
ETHERNET_DEBUG_CLUSTER = HardwareSpec(
    name="debug", cores_per_node=8, gflops_per_core=1.3,
    has_infiniband=False, has_lustre=False,
    kernel_version="3.2.0-debian")
