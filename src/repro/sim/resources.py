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


#: an empty slot (None is a valid item)
_EMPTY = object()


class _Fifo(deque):
    """What a one-value slot grows into once a second value has to wait
    behind the first: a private type, so a deque put into a store as an
    item is never mistaken for one."""

    __slots__ = ()


def _push(slot: Any, value: Any) -> Any:
    """``slot`` (``_EMPTY``, one bare value or a ``_Fifo``) with
    ``value`` queued behind what it holds."""
    if slot is _EMPTY:
        return value
    if slot.__class__ is _Fifo:
        slot.append(value)
        return slot
    return _Fifo((slot, value))


def _pop(slot: Any) -> tuple:
    """``(oldest value, what the slot holds without it)`` of a slot that
    holds something; a drained ``_Fifo`` is dropped."""
    if slot.__class__ is not _Fifo:
        return slot, _EMPTY
    value = slot.popleft()
    return value, slot if slot else _EMPTY


class Store:
    """An unbounded (or capacity-bounded) FIFO channel of Python objects.

    Most stores are a mailbox one process waits on, holding at most one
    item or one waiting getter at a time.  Each is kept bare in its slot;
    a queue is built only while two or more wait, and a put that finds a
    waiting getter hands the item straight over.
    """

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        #: _EMPTY, the one held item, or a _Fifo of them
        self._items: Any = _EMPTY
        #: _EMPTY, the one waiting getter, or a _Fifo of them
        self._getters: Any = _EMPTY
        # created when a bounded store first blocks a put: most stores are
        # unbounded and never need one
        self._putters: Optional[Deque[tuple[Event, Any]]] = None

    def __len__(self) -> int:
        items = self._items
        if items.__class__ is _Fifo:
            return len(items)
        return 0 if items is _EMPTY else 1

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is in the store."""
        event = Event(self.env)
        if self._items is _EMPTY and self._getters is not _EMPTY:
            getter = self._next_getter()
            if getter is not None:
                # nothing held, so nothing to overtake: hand it over
                event.succeed()
                getter.succeed(item)
                return event
        if len(self) < self.capacity:
            self._items = _push(self._items, item)
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
        if self._items is not _EMPTY:
            item, self._items = _pop(self._items)
            event.succeed(item)
            self._service_putters()
            return event
        self._getters = _push(self._getters, event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty.  Taking an item frees
        capacity, so a putter blocked on a bounded store is let in."""
        if self._items is _EMPTY:
            return None
        item, self._items = _pop(self._items)
        self._service_putters()
        return item

    def _next_getter(self) -> Optional[Event]:
        """Dequeue the oldest getter still waiting (one that was
        triggered meanwhile was cancelled by an interrupt)."""
        while self._getters is not _EMPTY:
            getter, self._getters = _pop(self._getters)
            if not getter.triggered:
                return getter
        return None

    def _service_getters(self) -> None:
        while self._items is not _EMPTY and self._getters is not _EMPTY:
            getter = self._next_getter()
            if getter is None:
                return
            item, self._items = _pop(self._items)
            getter.succeed(item)
            self._service_putters()

    def _service_putters(self) -> None:
        while self._putters and len(self) < self.capacity:
            event, item = self._putters.popleft()
            if event.triggered:
                continue
            self._items = _push(self._items, item)
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
