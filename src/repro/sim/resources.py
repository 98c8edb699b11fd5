"""Shared-resource primitives for the simulation kernel.

Provides the queuing building blocks the hardware models are made of:

* :class:`Resource` — ``capacity`` identical servers, FIFO queue
  (CPU cores, DMA channels, SSD submission slots).
* :class:`Container` — a continuous quantity with bounded capacity
  (buffer-pool bytes).
* :class:`Store` — a queue of Python objects (dispatch queues,
  mailboxes).

All request/release operations are events, so processes simply ``yield``
them.  Requests support the context-manager protocol::

    with resource.request() as req:
        yield req
        ...             # holding the resource
    # released on exit
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Optional

from .core import _INF, PRIORITY_NORMAL, Environment, Event, _PENDING
from .exceptions import SimulationError

__all__ = [
    "Resource",
    "Request",
    "Release",
    "Container",
    "Store",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__ — requests are minted per hold on
        # resources that don't recycle (and for every pool miss).
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        resource._do_request(self)

    def release(self) -> "Release":
        """Release the resource claimed by this request."""
        return Release(self.resource, self)

    def hold(self, delay: float) -> "Request":
        """Re-arm this granted request as the timeout of its own hold.

        Between its grant and its release a request is an idle object;
        ``yield req.hold(d)`` files it — one sequence number, on the
        heap or the normal FIFO exactly as ``Timeout(env, d)`` files
        itself — instead of constructing a timeout to wait beside it.
        The contract: yield (or park on) the result in the same
        statement, once per grant dispatch, and release as usual
        afterwards (``tests/test_chaos.py``'s
        ``test_op_loop_interrupted_at_any_park_ends_cleanly`` fails on a
        hold that is armed and not waited on).  Releasing *during* the
        hold (an interrupt unwinding through ``finally: finish(req)``)
        is safe: the resource is freed at once, ``callbacks`` stays a
        list until the stale hold is popped, and only a request whose
        ``callbacks`` is ``None`` is ever recycled.
        """
        # ``callbacks`` is None only between a dispatch and the next
        # filing, and only a grant or a hold is ever dispatched: one
        # test covers ungranted, granted-but-undispatched and armed.
        if self.callbacks is not None or not 0 <= delay < _INF:
            raise SimulationError(
                f"hold({delay!r}) needs a granted, dispatched, unarmed "
                f"request and a finite delay >= 0: {self!r}"
            )
        self.callbacks = []
        env = self.env
        env._seq = seq = env._seq + 1
        now = env._now
        at = now + delay
        if at > now:
            heappush(env._queue, (at, PRIORITY_NORMAL, seq, self))
        else:
            env._normal.append(self)
        return self

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.finish(self)


class Release(Event):
    """Event representing the release of a previously granted request."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        if request._value is _PENDING:
            raise SimulationError("release of a request that holds nothing")
        resource.finish(request)
        self.succeed()


class Resource:
    """``capacity`` identical servers with a FIFO wait queue.

    ``recycle_requests=True`` opts the resource into a request free
    list: a :class:`Request` released by :meth:`finish` (or its
    with-block) is reset and reused by a later :meth:`request` call.
    Only safe for resources whose callers never inspect a request after
    releasing it — the hardware models' core pools, DMA channels, and
    NIC pipes qualify.
    """

    __slots__ = ("env", "capacity", "users", "queue", "_request_pool")

    def __init__(
        self,
        env: Environment,
        capacity: int = 1,
        recycle_requests: bool = False,
    ) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        self._request_pool: Optional[list[Request]] = (
            [] if recycle_requests else None
        )

    @property
    def count(self) -> int:
        """Number of currently granted requests."""
        return len(self.users)

    def request(self) -> Request:
        """Claim one unit of the resource (an event to ``yield``)."""
        pool = self._request_pool
        if pool:
            # A recycled request skips the Event/Request constructors.
            req = pool.pop()
            req.callbacks = []
            req._value = _PENDING
            req._defused = False
            self._do_request(req)
            return req
        return Request(self)

    def release(self, request: Request) -> Release:
        """Release a granted request outside the with-statement form."""
        return Release(self, request)

    def finish(self, request: Request) -> None:
        """Release a granted request or cancel an ungranted one — what
        ``Request.__exit__`` does, for code that releases in a
        ``finally`` instead of a with-statement — and recycle it when
        the resource opted in: ``callbacks is None`` proves the event
        loop is done with it."""
        if request._value is _PENDING:
            self._withdraw(request)
            return
        users = self.users
        try:
            users.remove(request)
        except ValueError:
            # Releasing an already-released request is a model bug;
            # surface it loudly.
            raise SimulationError(
                "release of a request that holds nothing"
            ) from None
        queue = self.queue
        while queue and len(users) < self.capacity:
            nxt = queue.popleft()
            users.append(nxt)
            nxt.succeed()
        pool = self._request_pool
        if pool is not None and request.callbacks is None and len(pool) < 32:
            pool.append(request)

    # -- internals -----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _withdraw(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.count}/{self.capacity} busy,"
            f" {len(self.queue)} queued>"
        )


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if not 0 < amount <= container.capacity:
            # Above capacity it could never be served, and the FIFO
            # would hold every later get behind it forever.
            raise SimulationError(
                f"get amount must be in (0, {container.capacity}]: {amount}"
            )
        # Inlined Event.__init__ (hot: every throttle acquire).
        self.env = container.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.amount = amount
        container._get_waiters.append(self)
        container._trigger()


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if not 0 < amount <= container.capacity:
            # Above capacity it could never be served, and the FIFO
            # would hold every later put behind it forever.
            raise SimulationError(
                f"put amount must be in (0, {container.capacity}]: {amount}"
            )
        # Inlined Event.__init__ (hot: every throttle release).
        self.env = container.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.amount = amount
        container._put_waiters.append(self)
        container._trigger()


class Container:
    """A homogeneous quantity with bounded level (e.g. pool of bytes)."""

    __slots__ = ("env", "capacity", "_level", "_get_waiters", "_put_waiters")

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("initial level out of bounds")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._get_waiters: deque[_ContainerGet] = deque()
        self._put_waiters: deque[_ContainerPut] = deque()

    @property
    def level(self) -> float:
        """Currently available amount."""
        return self._level

    def get(self, amount: float) -> _ContainerGet:
        """Withdraw ``amount`` (waits until available)."""
        return _ContainerGet(self, amount)

    def put(self, amount: float) -> _ContainerPut:
        """Deposit ``amount`` (waits until it fits under capacity)."""
        return _ContainerPut(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self.capacity:
                    self._put_waiters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if self._level >= get.amount:
                    self._get_waiters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progressed = True


class _StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        # Inlined Event.__init__ (hot: every dispatch-queue pop).
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        store._getters.append(self)
        store._trigger()


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        # Inlined Event.__init__ (hot: every dispatch-queue push).
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.item = item
        store._putters.append(self)
        store._trigger()


class Store:
    """FIFO queue of arbitrary items with optional bounded capacity."""

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[_StoreGet] = deque()
        self._putters: deque[_StorePut] = deque()

    def put(self, item: Any) -> _StorePut:
        """Append ``item`` (waits while the store is full)."""
        return _StorePut(self, item)

    def get(self) -> _StoreGet:
        """Pop the oldest item (waits while the store is empty)."""
        return _StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)

    def _trigger(self) -> None:
        # succeed() only schedules (no user code runs synchronously), so
        # matching all putters first and then all satisfiable getters
        # produces the same trigger order as alternating single steps.
        # The outer loop re-admits queued putters after getters free
        # capacity on a bounded store; unbounded stores take one pass.
        items = self.items
        while True:
            putters = self._putters
            if putters:
                capacity = self.capacity
                while putters and len(items) < capacity:
                    put = putters.popleft()
                    items.append(put.item)
                    put.succeed()
            getters = self._getters
            progressed = False
            while getters and items:
                getters.popleft().succeed(items.popleft())
                progressed = True
            if not (progressed and self._putters):
                return

