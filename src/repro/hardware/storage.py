"""Storage devices: per-node local disks and a Lustre-like shared back-end.

Files hold real bytes in an in-memory filesystem (so restart genuinely
re-reads checkpoint images), while transfer *time* is charged from the
``logical_size`` a file stands for — this is how scaled-down experiments
report paper-magnitude checkpoint times (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..sim import Environment, Resource

__all__ = ["FileSystem", "Disk", "StorageError", "QuotaExceededError"]


class StorageError(RuntimeError):
    """Missing file, invalid storage operation, or capacity overflow."""


class QuotaExceededError(StorageError):
    """A write would overflow a tier's logical-byte quota.

    Carries the structured fields a supervisor needs to report the
    saturation usefully (tier name, requested vs available bytes) plus a
    ``tenant`` slot the multi-tenant service layer fills in when the
    write was made on a tenant's behalf — ``RecoveryManager`` surfaces
    these instead of a bare exception string.
    """

    def __init__(self, fs_name: str, path: str, requested: float,
                 available: float, capacity: float,
                 tenant: Optional[str] = None):
        self.fs_name = fs_name
        self.path = path
        self.requested = float(requested)
        self.available = float(available)
        self.capacity = float(capacity)
        self.tenant = tenant
        super().__init__(self._render())

    def _render(self) -> str:
        who = f" (tenant {self.tenant!r})" if self.tenant else ""
        return (f"{self.fs_name}: quota exceeded storing {self.path!r}"
                f"{who}: requested {self.requested:.0f} logical bytes, "
                f"{self.available:.0f} of {self.capacity:.0f} available")

    def with_tenant(self, tenant: str) -> "QuotaExceededError":
        """Attach the tenant on whose behalf the write ran (service layer)."""
        self.tenant = tenant
        self.args = (self._render(),)
        return self


@dataclass
class _File:
    data: bytes
    logical_size: float


class FileSystem:
    """A flat in-memory filesystem (shared for Lustre, per-node for disks).

    ``capacity_bytes`` is an optional quota on the *logical* bytes held
    (the paper-testbed sizes the files stand for — the unit every
    transfer-time and image-size account uses).  ``store`` raises
    :class:`StorageError` when a write would exceed it; overwriting an
    existing path first releases that path's old accounting.
    """

    def __init__(self, name: str = "fs",
                 capacity_bytes: Optional[float] = None):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._files: Dict[str, _File] = {}
        self._used_logical = 0.0

    def check_capacity(self, path: str, logical_size: float) -> None:
        """Raise :class:`StorageError` if storing ``logical_size`` at
        ``path`` would overflow the quota (no-op when unlimited)."""
        if self.capacity_bytes is None:
            return
        old = self._files.get(path)
        released = old.logical_size if old is not None else 0.0
        projected = self._used_logical + logical_size - released
        if projected > self.capacity_bytes:
            raise QuotaExceededError(
                fs_name=self.name, path=path, requested=logical_size,
                available=max(0.0, self.capacity_bytes
                              - self._used_logical + released),
                capacity=self.capacity_bytes)

    def store(self, path: str, data: bytes, logical_size: float) -> None:
        self.check_capacity(path, logical_size)
        old = self._files.get(path)
        if old is not None:
            self._used_logical -= old.logical_size
        self._files[path] = _File(data=data, logical_size=logical_size)
        self._used_logical += logical_size

    def load(self, path: str) -> bytes:
        return self._entry(path).data

    def logical_size(self, path: str) -> float:
        return self._entry(path).logical_size

    def _entry(self, path: str) -> _File:
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"{self.name}: no such file {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        entry = self._entry(path)
        self._used_logical -= entry.logical_size
        del self._files[path]

    def listdir(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def total_bytes(self) -> int:
        return sum(len(f.data) for f in self._files.values())

    @property
    def used_logical_bytes(self) -> float:
        """Logical bytes currently stored (what the quota is charged on)."""
        return self._used_logical


class Disk:
    """A block device with seek latency, sequential bandwidth, and a single
    head (writes from the 16 ranks of one node serialize — the effect behind
    Table 3's "checkpoint time ∝ total image bytes per node")."""

    def __init__(self, env: Environment, name: str,
                 write_bandwidth: float, read_bandwidth: float,
                 latency: float = 5e-3, fs: Optional[FileSystem] = None,
                 streams: int = 1):
        self.env = env
        self.name = name
        self.write_bandwidth = float(write_bandwidth)
        self.read_bandwidth = float(read_bandwidth)
        self.latency = float(latency)
        self.fs = fs if fs is not None else FileSystem(name)
        self._head = Resource(env, capacity=streams)
        self.bytes_written = 0.0  # logical accounting
        self.bytes_read = 0.0

    def _claim_head(self) -> Generator:
        """Process generator: take the head, kill-safely.  A writer killed
        while queued (teardown racing I/O on a *shared*, long-lived disk —
        the checkpoint service's tiers) must not leak its claim: on
        ``GeneratorExit`` a granted slot is released and a still-queued
        request is cancelled (``release`` skips triggered waiters)."""
        req = self._head.request()
        if req.triggered:
            return
        try:
            yield req
        except GeneratorExit:
            if req.triggered:
                self._head.release()
            else:
                req.succeed()  # cancel our queued claim
            raise

    def write(self, path: str, data: bytes,
              logical_size: Optional[float] = None) -> Generator:
        """Process generator: store ``data``, charging time for
        ``logical_size`` (defaults to ``len(data)``) at write bandwidth."""
        size = float(len(data) if logical_size is None else logical_size)
        self.fs.check_capacity(path, size)  # ENOSPC before seeking
        yield from self._claim_head()
        try:
            yield self.env.timeout(self.latency + size / self.write_bandwidth)
            self.fs.store(path, data, size)
            self.bytes_written += size
        finally:
            self._head.release()

    def read(self, path: str) -> Generator:
        """Process generator: returns the file bytes, charging read time for
        its logical size."""
        size = self.fs.logical_size(path)  # raises early if missing
        yield from self._claim_head()
        try:
            yield self.env.timeout(self.latency + size / self.read_bandwidth)
            self.bytes_read += size
            return self.fs.load(path)
        finally:
            self._head.release()
