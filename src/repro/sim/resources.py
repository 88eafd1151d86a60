"""Waitable resources built on the DES kernel.

``Store`` is the FIFO message channel used for every queue in the system
(fabric ports, TCP socket buffers, coordinator mailboxes).  ``Resource``
models mutual-exclusion with queuing (disk heads, NIC DMA engines).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, Event, SimulationError

__all__ = ["Store", "Resource"]


class Store:
    """An unbounded (or capacity-bounded) FIFO channel of Python objects."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        # created when a bounded store first blocks a put: most stores are
        # unbounded and never need one
        self._putters: Optional[Deque[tuple[Event, Any]]] = None

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is in the store."""
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._service_getters()
        else:
            if self._putters is None:
                self._putters = deque()
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.env)
        self._getters.append(event)
        self._service_getters()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty.  Taking an item frees
        capacity, so a putter blocked on a bounded store is let in."""
        if self.items:
            item = self.items.popleft()
            self._service_putters()
            return item
        return None

    def _service_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter.triggered:  # cancelled by interrupt
                continue
            getter.succeed(self.items.popleft())
            self._service_putters()

    def _service_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            if event.triggered:
                continue
            self.items.append(item)
            event.succeed()
            self._service_getters()


class Resource:
    """A counted resource with FIFO queuing.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()
            return
        self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)
