"""Shared resources for the discrete-event engine.

* :class:`Resource` — a counted resource (e.g. flash channels, CPU cores).
  Requests are granted FIFO; a request event doubles as a context manager so
  call sites read naturally::

      with resource.request() as req:
          yield req
          ...  # holding the resource
      # released on exit

* :class:`PriorityResource` — same, but lower ``priority`` values are granted
  first among waiters.
* :class:`Fifo` — a lean FIFO server (the SSD's FTL and flash channels,
  link servers) that also serves callback-driven state machines.
* :class:`Store` — a FIFO buffer of items with blocking put/get, used for
  queues between producer and consumer processes (e.g. NVMe SQ/CQ rings).
* :class:`Container` — a continuous quantity (e.g. buffer bytes).

Hot-path notes
--------------
``Resource.request``/``release`` and ``Store.put``/``get`` sit on the
per-request path of every control plane, so both have O(1) fast paths for
the overwhelmingly common shapes (free slot, no waiters; plain FIFO get
with no predicate waiters) that bypass the general settle/grant loops.
The fast paths schedule exactly the same success events in exactly the
same order as the general path, so simulated timestamps are unchanged.

``PriorityResource.cancel`` uses lazy deletion: cancelled entries stay in
the heap, are skipped at grant time, and the heap is compacted only once
stale entries outnumber live ones — cancelling under a large waiter queue
was previously O(n log n) per cancel (rebuild + re-heapify).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.core import NORMAL, Environment, Event, _PENDING


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # inlined Event.__init__ — requests are a per-I/O allocation
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; yield the returned event to wait for the grant."""
        req = Request(self)
        if not self._queue and len(self._users) < self.capacity:
            # fast path: free slot, nobody ahead — grant immediately.
            # The event is born *processed* (no heap entry): nobody else
            # can hold a callback on an event we have not returned yet,
            # so the requester's ``yield`` continues synchronously at the
            # same instant the scheduled grant would have run.
            self._users.append(req)
            req._ok = True
            req._value = None
            req.callbacks = None
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Give back a previously granted slot.

        Releasing a request that was never granted cancels it instead;
        releasing the *same granted* request twice is always a lifecycle
        bug in the caller (the slot it would free belongs to someone else
        by then) and raises :class:`SimulationError`.
        """
        try:
            self._users.remove(request)
        except ValueError:
            if request.triggered:
                # Triggered but not holding a slot: it was granted once
                # and already released — a double release.  Silently
                # falling through to _cancel here used to no-op and mask
                # lifecycle bugs in callers.
                raise SimulationError(
                    f"double release of {request!r}: the request was "
                    "already released"
                )
            # Releasing an ungranted request cancels it instead.
            self._cancel(request)
            return
        self._grant()

    def _cancel(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        queue = self._queue
        users = self._users
        capacity = self.capacity
        while queue and len(users) < capacity:
            req = queue.popleft()
            if req.triggered:
                continue
            users.append(req)
            req.succeed()


class PriorityRequest(Request):
    __slots__ = ("priority", "cancelled", "in_heap")

    def __init__(self, resource: "PriorityResource", priority: float):
        super().__init__(resource)
        self.priority = priority
        #: lazy-deletion marker: cancelled entries stay heap-resident and
        #: are skipped at grant time
        self.cancelled = False
        #: True while a heap entry references this request
        self.in_heap = False


class PriorityResource(Resource):
    """A resource whose waiters are served lowest-``priority`` first,
    breaking ties FIFO."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._pqueue: list = []
        self._seq = 0
        #: heap entries whose request was cancelled (lazy deletion)
        self._stale = 0

    @property
    def queued(self) -> int:
        return len(self._pqueue) - self._stale

    def request(self, priority: float = 0.0) -> PriorityRequest:
        req = PriorityRequest(self, priority)
        if not self._pqueue and len(self._users) < self.capacity:
            # fast path: free slot and an empty waiter heap — grant as a
            # born-processed event (see Resource.request)
            self._users.append(req)
            req._ok = True
            req._value = None
            req.callbacks = None
            return req
        self._seq += 1
        req.in_heap = True
        heapq.heappush(self._pqueue, (priority, self._seq, req))
        self._grant()
        return req

    def _cancel(self, request: Request) -> None:
        """Lazy deletion: mark the entry and skip it at grant time.

        The heap is compacted only once stale entries outnumber live
        ones, so cancelling under a large waiter queue is O(1) amortized
        instead of the previous rebuild + re-heapify per cancel.
        """
        if not getattr(request, "in_heap", False) or request.cancelled:
            return
        request.cancelled = True
        self._stale += 1
        if self._stale > len(self._pqueue) // 2:
            stale = [
                entry for entry in self._pqueue if entry[2].cancelled
            ]
            self._pqueue = [
                entry for entry in self._pqueue if not entry[2].cancelled
            ]
            for entry in stale:
                entry[2].in_heap = False
            heapq.heapify(self._pqueue)
            self._stale = 0

    def _grant(self) -> None:
        pqueue = self._pqueue
        users = self._users
        capacity = self.capacity
        while pqueue and len(users) < capacity:
            _, _, req = heapq.heappop(pqueue)
            req.in_heap = False
            if req.cancelled:
                self._stale -= 1
                continue
            if req.triggered:
                continue
            users.append(req)
            req.succeed()


class Fifo:
    """A counted FIFO server that keeps a slot count, not a holder list.

    It serves two kinds of waiter from one queue:

    * processes, through :meth:`request` / :meth:`release` — the
      :class:`Resource` protocol (``with fifo.request() as slot: yield
      slot``);
    * callback-driven state machines, through :meth:`acquire`: the
      waiter is an event-shaped record with its ``callbacks`` already
      set, and a hand-off schedules the record itself.

    Either way a slot passes to the oldest waiter through one same-instant
    NORMAL heap event created at release time — where
    :meth:`Resource.release` schedules its grant — so the simulated
    timeline is the one a :class:`Resource` would give.  What it drops is
    a holder list (O(capacity) removal) and a :class:`Request` per
    callback-driven claim; the price is that a double release is not
    detected.
    """

    __slots__ = ("env", "capacity", "busy", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: slots currently held
        self.busy = 0
        self._waiters: Deque[Any] = deque()

    @property
    def queued(self) -> int:
        """Number of waiters."""
        return len(self._waiters)

    def acquire(self, waiter: Any) -> bool:
        """Take a free slot (True) or queue ``waiter`` for one (False)."""
        if self.busy < self.capacity and not self._waiters:
            self.busy += 1
            return True
        self._waiters.append(waiter)
        return False

    def request(self) -> Request:
        """Claim a slot; yield the returned event to wait for the grant.

        A free slot is granted on the spot as a born-processed event
        (see :meth:`Resource.request`).
        """
        req = Request(self)
        if self.acquire(req):
            req._ok = True
            req._value = None
            req.callbacks = None
        return req

    def release(self, request: Optional[Request] = None) -> None:
        """Give back a slot, handing it to the oldest waiter if any.

        Releasing a :meth:`request` that was never granted withdraws it
        instead.
        """
        if request is not None and request._value is _PENDING:
            self._cancel(request)
            return
        waiters = self._waiters
        if not waiters:
            self.busy -= 1
            return
        waiter = waiters.popleft()
        waiter._ok = True
        waiter._value = None
        env = self.env
        env._eid += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._eid, waiter))

    def _cancel(self, request: Request) -> None:
        try:
            self._waiters.remove(request)
        except ValueError:
            pass


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        # inlined Event.__init__ — ring puts are a per-I/O allocation
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.item = item


class StoreGet(Event):
    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable]):
        # inlined Event.__init__ — ring gets are a per-I/O allocation
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.predicate = predicate


class Store:
    """A FIFO buffer of items with optional capacity.

    ``yield store.put(item)`` blocks while full; ``yield store.get()`` blocks
    while empty and resumes with the item.  ``get(predicate)`` takes the
    first item satisfying the predicate (FilterStore behaviour).
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        if not self._putters:
            getters = self._getters
            if not getters:
                if len(self.items) < self.capacity:
                    # fast path: room and nobody waiting.  The put event
                    # is born processed (no heap entry) — only the caller
                    # can observe it, and its ``yield`` continues
                    # synchronously at the same instant.
                    self.items.append(item)
                    event._ok = True
                    event._value = None
                    event.callbacks = None
                    return event
            elif getters[0].predicate is None and not self.items:
                # fast path: hand the item straight to the oldest plain
                # getter.  The getter's wakeup stays heap-scheduled (its
                # process holds a callback); the putter's own event is
                # born processed as above.
                event._ok = True
                event._value = None
                event.callbacks = None
                getters.popleft().succeed(item)
                return event
        self._putters.append(event)
        self._settle()
        return event

    def get(self, predicate: Optional[Callable] = None) -> StoreGet:
        event = StoreGet(self, predicate)
        if predicate is None and self.items and not self._getters:
            # fast path: FIFO pop with nobody queued ahead; born
            # processed (no heap entry), so the caller's ``yield``
            # continues synchronously
            event._ok = True
            event._value = self.items.pop(0)
            event.callbacks = None
            # the freed slot may admit waiting putters (store was full)
            putters = self._putters
            while putters and len(self.items) < self.capacity:
                put = putters.popleft()
                self.items.append(put.item)
                put.succeed()
            return event
        if not self.items and not self._putters:
            # fast path: empty store — the getter just parks; nothing for
            # _settle to do
            self._getters.append(event)
            return event
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            # admit pending puts while there is room
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # satisfy pending gets
            remaining: Deque[StoreGet] = deque()
            while self._getters:
                get = self._getters.popleft()
                index = self._match(get.predicate)
                if index is None:
                    remaining.append(get)
                else:
                    get.succeed(self.items.pop(index))
                    progress = True
            self._getters = remaining

    def _match(self, predicate: Optional[Callable]) -> Optional[int]:
        if predicate is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if predicate(item):
                return index
        return None


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.amount = amount


class Container:
    """A continuous quantity with blocking put/get (e.g. free buffer bytes)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._putters: Deque[ContainerPut] = deque()
        self._getters: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        event = ContainerPut(self, amount)
        self._putters.append(event)
        self._settle()
        return event

    def get(self, amount: float) -> ContainerGet:
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        event = ContainerGet(self, amount)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                put = self._putters[0]
                if self._level + put.amount <= self.capacity:
                    self._putters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._getters:
                get = self._getters[0]
                if get.amount <= self._level:
                    self._getters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True
