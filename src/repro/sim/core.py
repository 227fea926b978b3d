"""Core of the discrete-event engine: environment, events and processes.

Design notes
------------
* Simulated time is a ``float`` number of **seconds**.
* The event heap orders by ``(time, priority, sequence)``; the sequence number
  makes scheduling deterministic for events at the same instant.
* A :class:`Process` wraps a generator.  Each ``yield``ed value must be an
  :class:`Event`; when that event triggers, the process resumes with the
  event's value (or the event's exception is thrown into the generator).
* Interrupts follow SimPy semantics: ``process.interrupt(cause)`` throws
  :class:`~repro.errors.ProcessInterrupt` into the generator at the current
  simulation time.

Hot-path notes
--------------
The engine is the wall-clock bottleneck of every experiment sweep, so the
classes here trade a little uniformity for speed:

* every event class declares ``__slots__`` — per-event dict allocation is
  the single biggest constant cost at millions of events;
* :meth:`Event.succeed`, :meth:`Event.fail` and :class:`Timeout` push onto
  the heap directly instead of going through :meth:`Environment._schedule`;
* :meth:`Environment.run` inlines :meth:`Environment.step` so the main
  loop pays one Python frame per event, not two.

None of this changes scheduling semantics: ordering is still strictly
``(time, priority, sequence)`` and the sequence counter is bumped in
exactly the same places as before.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import ProcessInterrupt, SimulationError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

#: Scheduling priorities.  URGENT events run before NORMAL events scheduled
#: for the same instant; interrupts use URGENT so they beat ordinary resumes.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it on the environment's heap, after which its callbacks run
    exactly once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set True once `fail()`'s exception was delivered somewhere
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (value decided)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet decided")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event carried (or the exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet decided")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heappush(env._heap, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` thrown into
        it.  If nothing ever waits, the environment re-raises it at
        :meth:`Environment.step` time so errors never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._heap, (env._now, NORMAL, env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy success/failure state from ``event`` (chaining helper).

        ``event`` must already be triggered; chaining from a pending event
        has no defined value to copy and is always a caller bug.
        """
        if event._value is _PENDING:
            raise SimulationError(
                f"cannot chain from untriggered event {event!r}; "
                "trigger() copies a decided value"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined Event.__init__ + _schedule: a Timeout is born triggered,
        # so skip the _PENDING dance entirely.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._delay = delay
        env._eid += 1
        heappush(env._heap, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class ReservedTimeline(Event):
    """A run of events that pop under heap keys reserved in advance,
    with one heap entry at a time.

    :meth:`reserve` takes the heap sequence number an event created at
    this moment would take and appends ``(time, sequence)`` to packed
    arrays; only the earliest pending entry is on the heap, under its
    reserved key.  Its pop pushes the next one under that one's key and
    then calls :meth:`fire` with the popped entry's index.  Entries must
    be reserved in increasing ``(time, sequence)`` order, so each pops
    exactly where an event of its own would have, while the heap holds
    one entry and the arrays 16 bytes per entry.  Subclasses define
    :meth:`fire`.
    """

    __slots__ = ("times", "sequences", "head", "_deferred")

    def __init__(self, env: "Environment"):
        self.env = env
        #: ``_POP_RESERVED`` while an entry is on the heap, else None
        self.callbacks = None
        self._ok = True
        self._value = None
        self._defused = False
        self.times = array("d")
        self.sequences = array("q")
        #: the entry on the heap, or the next one to be reserved
        self.head = 0
        #: times waiting for :meth:`reserve_at_start`'s slot to pop
        self._deferred = None

    def reserve(self, time: float) -> None:
        """Reserve the next heap key for an entry popping at ``time``."""
        env = self.env
        env._eid += 1
        self.times.append(time)
        self.sequences.append(env._eid)
        if self.callbacks is None:
            # no entry pending: this one goes on, timed by the packed
            # double so the clock stays a float whatever ``time`` was
            self.callbacks = _POP_RESERVED
            heappush(env._heap, (self.times[-1], NORMAL, env._eid, self))

    def reserve_at_start(self, times: Iterable[float]) -> None:
        """:meth:`reserve` each of ``times`` where a process started
        now would: in its first step, which runs at this instant's
        URGENT slot.  The slot costs one heap event."""
        self._deferred = times
        self.callbacks = _OPEN_RESERVED
        self.env._schedule(self, URGENT, 0.0)

    def fire(self, index: int) -> None:
        """Called when entry ``index`` pops, after the next went on."""
        raise NotImplementedError


def _pop_reserved(timeline: ReservedTimeline) -> None:
    """Heap callback of a :class:`ReservedTimeline` entry."""
    index = timeline.head
    timeline.head = head = index + 1
    if head < len(timeline.times):
        timeline.callbacks = _POP_RESERVED
        heappush(timeline.env._heap, (
            timeline.times[head], NORMAL, timeline.sequences[head],
            timeline,
        ))
    timeline.fire(index)


def _open_reserved(timeline: ReservedTimeline) -> None:
    """Heap callback of :meth:`ReservedTimeline.reserve_at_start`."""
    times, timeline._deferred = timeline._deferred, None
    for time in times:
        timeline.reserve(time)


_POP_RESERVED = [_pop_reserved]
_OPEN_RESERVED = [_open_reserved]


class Initialize(Event):
    """Internal: first resume of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        env._eid += 1
        heappush(env._heap, (env._now, URGENT, env._eid, self))


class _InterruptEvent(Event):
    """Internal: delivery vehicle for :meth:`Process.interrupt`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any):
        self.env = env
        self.callbacks = [process._resume_interrupt]
        self._ok = False
        self._value = ProcessInterrupt(cause)
        self._defused = True
        env._eid += 1
        heappush(env._heap, (env._now, URGENT, env._eid, self))


class Process(Event):
    """A running generator.  Also an event that triggers when the generator
    returns (with its return value) or raises (with the exception)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # inlined Event.__init__ — the fan-out paths spawn one process
        # per request, so this constructor is a per-I/O allocation
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._generator is self.env._active_generator:
            raise SimulationError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- resumption ------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # finished before the interrupt was delivered
        # Detach from whatever we were waiting on; we will be resumed by the
        # interrupt instead.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        send = generator.send
        throw = generator.throw
        env._active_generator = generator
        while True:
            try:
                if event._ok:
                    next_target = send(event._value)
                else:
                    event._defused = True
                    next_target = throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    env._eid += 1
                    heappush(env._heap, (env._now, NORMAL, env._eid, self))
                else:
                    # fire-and-forget success: nobody is waiting, so the
                    # end event becomes processed on the spot instead of
                    # burning a heap entry.  Failures still schedule so
                    # unconsumed exceptions surface at step time.
                    self.callbacks = None
                break
            except BaseException as exc:  # generator died with an error
                self._ok = False
                self._value = exc
                env._eid += 1
                heappush(env._heap, (env._now, NORMAL, env._eid, self))
                break

            if next_target.__class__ is not Timeout and not isinstance(
                next_target, Event
            ):
                exc2 = SimulationError(
                    f"process yielded non-event {next_target!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc2
                continue
            callbacks = next_target.callbacks
            if callbacks is None:
                if next_target._value is _PENDING:
                    raise SimulationError("event processed but callbacks gone")
                # already done: loop around synchronously
                event = next_target
                continue
            callbacks.append(self._resume)
            self._target = next_target
            break
        env._active_generator = None


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                # NB: a triggered-but-unprocessed event (e.g. a Timeout that
                # has not fired yet) still counts as pending here; we wait
                # for its callbacks to run at its scheduled time.
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed({})

    def _matched(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._matched(self._count, len(self._events)):
            # Only events that have actually *fired* contribute values; a
            # Timeout scheduled for later is "triggered" but not processed.
            self.succeed(
                {
                    ev: ev._value
                    for ev in self._events
                    if ev.callbacks is None and ev._ok
                }
            )


class AllOf(Condition):
    """Triggers when every child event has succeeded.  Value is a dict of
    ``event -> value``."""

    __slots__ = ()

    def _matched(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Triggers when the first child event succeeds."""

    __slots__ = ()

    def _matched(self, count: int, total: int) -> bool:
        return count >= 1


class Environment:
    """The simulation world: a clock and an event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list = []
        self._eid = 0
        self._active_generator = None
        #: events processed so far — the simulator's own cost metric
        self.events_processed = 0
        #: span tracer (see :mod:`repro.obs`); the shared null tracer
        #: keeps the disabled path allocation-free — install a recording
        #: one with :func:`repro.obs.install_tracer`
        self.tracer = NULL_TRACER
        #: live metrics bundle (see :mod:`repro.obs.metrics`); the
        #: shared null bundle keeps the disabled path to one attribute
        #: test — install a recording one with
        #: :func:`repro.obs.install_metrics`
        self.metrics = NULL_METRICS

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a process; returns the process event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        heappush(
            self._heap, (self._now + delay, priority, self._eid, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        heap = self._heap
        if not heap:
            raise SimulationError("nothing scheduled")
        self.events_processed += 1
        self._now, _, _, event = heappop(heap)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody consumed: surface it loudly.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run up to
        that time), or an :class:`Event` (run until it triggers, returning
        its value).

        The three loops below inline :meth:`step` (one Python frame per
        event instead of two); ``events_processed`` is accumulated locally
        and flushed even when an event failure propagates out.
        """
        heap = self._heap
        steps = 0
        if until is None:
            try:
                while heap:
                    steps += 1
                    self._now, _, _, event = heappop(heap)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            finally:
                self.events_processed += steps
            return None
        if isinstance(until, Event):
            stop = until
            try:
                while stop.callbacks is not None:
                    if not heap:
                        raise SimulationError(
                            "simulation ran out of events before target "
                            "triggered"
                        )
                    steps += 1
                    self._now, _, _, event = heappop(heap)
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
            finally:
                self.events_processed += steps
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("cannot run into the past")
        try:
            while heap and heap[0][0] <= horizon:
                steps += 1
                self._now, _, _, event = heappop(heap)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self.events_processed += steps
        self._now = horizon
        return None
