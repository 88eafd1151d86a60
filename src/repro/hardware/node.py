"""Compute nodes and the simulated OS processes that run on them."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from ..memory import AddressSpace
from ..sim import Environment, Event, Process
from .hca import HCA
from .storage import Disk

__all__ = ["Node", "ProcessHost", "ProcessError"]

_pid_counter = itertools.count(1000)


class ProcessError(RuntimeError):
    pass


class Node:
    """One computer: cores, an HCA, an Ethernet NIC, and disks."""

    def __init__(self, env: Environment, name: str, cores: int,
                 gflops_per_core: float, kernel_version: str,
                 hca: Optional[HCA], local_disk: Disk,
                 lustre: Optional[Disk] = None):
        self.env = env
        self.name = name
        self.cores = cores
        self.gflops_per_core = gflops_per_core
        self.kernel_version = kernel_version
        self.hca = hca
        self.local_disk = local_disk
        self.lustre = lustre
        #: the software HCA on the NIC of a node with no InfiniBand (set
        #: by the cluster): only the IB2TCP provider hands it out
        self.soft_hca: Optional[HCA] = None
        self.processes: List["ProcessHost"] = []
        self.failed = False
        self._base_gflops = gflops_per_core

    def fork(self, name: str) -> "ProcessHost":
        if self.failed:
            raise ProcessError(f"{self.name}: fork on failed node")
        proc = ProcessHost(self, name)
        self.processes.append(proc)
        return proc

    # -- fault injection -------------------------------------------------------

    def fail(self) -> None:
        """Whole-node crash (kernel panic / power loss): every process is
        hard-killed, the HCA drops off the fabric, the NIC drops off the
        Ethernet segment.  In-flight packets addressed here are silently
        dropped by the switches — the condition the paper's Principle 6
        (re-post on restart) exists for."""
        if self.failed:
            return
        self.failed = True
        for proc in list(self.processes):
            proc.kill()
        for hca in (self.hca, self.soft_hca):
            if hca is not None:
                hca.fail()
        stack = getattr(self, "_tcp_stack", None)
        if stack is not None:
            stack._port.detach()

    def power_off(self) -> None:
        """Cluster teardown: every process is killed, the HCA leaves the
        fabric, and the kernel TCP stack is dropped with its sockets
        (each of which points back at the stack)."""
        for proc in list(self.processes):
            proc.kill()
        for hca in (self.hca, self.soft_hca):
            if hca is not None:
                hca.detach()
        stack = getattr(self, "_tcp_stack", None)
        if stack is not None:
            self._tcp_stack = None
            stack.close()

    def slow_down(self, factor: float) -> None:
        """Straggler injection: the node computes ``factor``x slower
        (thermal throttling / a co-scheduled job) until :meth:`restore_speed`."""
        if factor <= 0:
            raise ProcessError(f"slow_down factor must be positive: {factor}")
        self.gflops_per_core = self._base_gflops / factor

    def restore_speed(self) -> None:
        self.gflops_per_core = self._base_gflops

    def disk(self, kind: str) -> Disk:
        if kind == "local":
            return self.local_disk
        if kind == "lustre":
            if self.lustre is None:
                raise ProcessError(f"{self.name}: no Lustre mount")
            return self.lustre
        raise ProcessError(f"unknown disk kind {kind!r}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"


class ProcessHost:
    """A simulated OS process: an address space, loaded libraries, and one
    or more threads (sim processes).

    ``libs`` is the process's dynamic-linking table: application code calls
    ``proc.libs['ibverbs']``; ``dmtcp_launch`` swaps entries for plugin
    wrappers — the simulation analogue of LD_PRELOAD interposition.
    """

    def __init__(self, node: Node, name: str):
        self.node = node
        self.env = node.env
        self.pid = next(_pid_counter)
        self.name = name
        self.memory = AddressSpace(f"{name}(pid={self.pid})")
        self.libs: Dict[str, Any] = {}
        #: the live threads: one leaves when it finishes
        self.threads: List[Process] = []
        self.alive = True
        # multiplier on compute time; dmtcp_launch bumps it slightly to model
        # the constant interposition tax on a traced process
        self.compute_tax = 0.0
        # CPU time owed by synchronous interposition wrappers (plugins add
        # to this; it is paid at the next compute() call)
        self.overhead_debt = 0.0
        self.exit_event: Event = self.env.event()
        self._kill_hooks: List[Callable[[], None]] = []

    def at_kill(self, hook: Callable[[], None]) -> None:
        """Register a cleanup to run when the process is hard-killed
        (drivers use this to tear down hardware resources the way the
        kernel reclaims them when a real process dies)."""
        self._kill_hooks.append(hook)

    # -- execution ------------------------------------------------------------

    def spawn_thread(self, generator: Generator, name: str = "") -> Process:
        if not self.alive:
            raise ProcessError(f"{self.name}: spawn in dead process")
        thread = self.env.process(generator,
                                  name=name or f"{self.name}.thread")
        self.adopt_thread(thread)
        return thread

    def adopt_thread(self, thread: Process) -> None:
        """Add a live thread; the process reaps it when it finishes, so
        finished helpers (isend, put, cts...) do not pile up one per
        message.  The reap runs before any waiter wakes, so no code that
        runs later sees a finished thread listed."""
        self.threads.append(thread)
        thread.callbacks.insert(0, self._reap)

    def release_thread(self, thread: Process) -> None:
        """Take a live thread out of the process (a frozen continuation
        leaving the host it was checkpointed on): nothing of the thread
        refers back here afterwards."""
        self.threads.remove(thread)
        thread.callbacks.remove(self._reap)

    def _reap(self, thread: Process) -> None:
        self.threads.remove(thread)

    def compute(self, flops: float = 0.0, seconds: float = 0.0):
        """Event charging CPU time for ``flops`` of work plus raw seconds
        (plus any interposition overhead owed by wrapper calls)."""
        time = seconds + flops / (self.node.gflops_per_core * 1e9)
        time = time * (1.0 + self.compute_tax) + self.overhead_debt
        self.overhead_debt = 0.0
        return self.env.timeout(time)

    def kill(self) -> None:
        """Hard-kill: all threads stop, nothing runs again (SIGKILL).

        The dead process lets go of its libraries, threads and hooks, so
        nothing it loaded keeps it alive.  Its address space stays: a
        frozen continuation restores into it on the restart node."""
        self.alive = False
        for hook in self._kill_hooks:
            hook()
        self._kill_hooks.clear()
        reap = self._reap
        for thread in self.threads:
            thread.callbacks.remove(reap)
            thread.kill()
        self.threads.clear()
        self.libs.clear()
        if not self.exit_event.triggered:
            self.exit_event.succeed(None)
        if self in self.node.processes:
            self.node.processes.remove(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ProcessHost {self.name} pid={self.pid} on {self.node.name}>"
