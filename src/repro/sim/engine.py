"""Discrete-event simulation kernel.

The whole reproduction runs on this small engine: a monotonic simulation
clock, a binary-heap event queue, and a handful of conveniences for the
periodic processes (traffic-monitor windows, LBP epochs, power sampling)
that the HAL system is built from.

Time is expressed in **seconds** as floats; sub-microsecond resolution is
ample for the microsecond-scale latencies the paper measures.

Event representation
--------------------
Events are plain lists ``[time, priority, seq, callback, args, status,
next]`` rather than objects: heap comparisons stop at the unique ``seq``
(so the callback is never compared), pushes allocate one small list, and
the ``run()`` loop indexes slots directly instead of chasing attributes.
``status`` is one of the ``_PENDING``/``_CANCELLED``/``_POPPED``
module constants; cancellation flips it in place, and the heap compacts
cancelled entries lazily once they outnumber the live ones.

Batched arrivals
----------------
``schedule_batch`` chains a pre-computed arrival train through the
``next`` slot and pushes only its first member; popping a member pushes
its follower before the callback runs.  A follower's ``(time, priority,
seq)`` key is greater than its predecessor's (times ascend, seqs
increase, the priority is shared), so every deferred member is greater
than an event already in the heap and the heap still pops the global
minimum of all pending events: pop order is exactly as if each member
had been pushed up front.  The heap stays at the size of the *live*
event set instead of growing by whole trains, and ``pending()`` stays
exact as ``len(heap) - cancelled + deferred``.
"""

from __future__ import annotations

import itertools
from heapq import (
    heapify as _heapify,
    heappop as _heappop,
    heappush as _heappush,
    heapreplace as _heapreplace,
)
from typing import Any, Callable, Dict, Iterable, List, Optional, cast

# event slot indices
_TIME = 0
_PRIORITY = 1
_SEQ = 2
_CALLBACK = 3
_ARGS = 4
_STATUS = 5
_NEXT = 6

# event status values
_PENDING = 0
_CANCELLED = 1
_POPPED = 2


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: List[Any], sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        return cast(float, self._event[_TIME])

    @property
    def seq(self) -> int:
        """Insertion sequence number (the heap's final tie-break).

        Checkpoint code records it to re-arm coexisting pending events in
        their original relative order; the absolute value is meaningless.
        """
        return cast(int, self._event[_SEQ])

    @property
    def pending(self) -> bool:
        return bool(self._event[_STATUS] == _PENDING)

    @property
    def cancelled(self) -> bool:
        return bool(self._event[_STATUS] == _CANCELLED)

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        event = self._event
        if event[_STATUS] != _PENDING:
            return
        event[_STATUS] = _CANCELLED
        event[_CALLBACK] = event[_ARGS] = None  # release references early
        self._sim._note_cancelled(1)


class BatchHandle:
    """Handle to a batch of events scheduled with :meth:`Simulator.schedule_batch`.

    Cancelling the batch cancels every member that has not fired yet and
    cuts the chain: the first pending member is the one in the heap (an
    in-heap cancel), the rest were never pushed (deferred).  One counter
    update each and at most one heap compaction, however many remain.
    """

    __slots__ = ("_events", "_sim")

    def __init__(self, events: List[List[Any]], sim: "Simulator") -> None:
        self._events = events
        self._sim = sim

    def __len__(self) -> int:
        return len(self._events)

    def pending(self) -> int:
        """Members that have neither fired nor been cancelled."""
        return sum(1 for event in self._events if event[_STATUS] == _PENDING)

    def cancel(self) -> None:
        """Cancel every not-yet-fired member of the batch."""
        cancelled = 0
        for event in self._events:
            if event[_STATUS] == _PENDING:
                event[_STATUS] = _CANCELLED
                event[_CALLBACK] = event[_ARGS] = event[_NEXT] = None
                cancelled += 1
        if cancelled:
            sim = self._sim
            sim._deferred -= cancelled - 1
            sim._note_cancelled(1)


class RecurrenceHandle:
    """Stop/inspect handle for a recurrence built by :meth:`Simulator.every`.

    Calling the handle stops the recurrence (the historical contract:
    ``every()`` used to return a bare stop closure, and every call site
    just invokes it).  On top of that it exposes the *currently pending*
    firing — next time and insertion seq — which is what lets checkpoint
    code snapshot a recurrence and re-arm it phase-exactly at restore
    (``sim.every(period, cb, start=next_time, priority=priority)``).
    """

    __slots__ = ("period", "priority", "stopped", "_event")

    def __init__(self, period: float, priority: int) -> None:
        self.period = period
        self.priority = priority
        self.stopped = False
        self._event: Optional[List[Any]] = None

    def __call__(self) -> None:
        self.stop()

    def stop(self) -> None:
        self.stopped = True

    @property
    def next_time(self) -> Optional[float]:
        """Absolute time of the next firing; None once stopped/expired."""
        event = self._event
        if self.stopped or event is None or event[_STATUS] != _PENDING:
            return None
        return cast(float, event[_TIME])

    @property
    def next_seq(self) -> Optional[int]:
        """Insertion seq of the next firing; None once stopped/expired."""
        event = self._event
        if self.stopped or event is None or event[_STATUS] != _PENDING:
            return None
        return cast(int, event[_SEQ])


class Simulator:
    """A discrete-event simulator with a priority-ordered event heap.

    Events scheduled for the same instant fire in (priority, insertion)
    order, so components can guarantee e.g. that a rate-window rollover is
    observed before the packets of the next window arrive.
    """

    #: priority for ordinary events
    PRIORITY_NORMAL = 10
    #: priority for control-plane events that must precede data events
    PRIORITY_CONTROL = 0
    #: priority for bookkeeping that must follow data events
    PRIORITY_LATE = 20

    #: cancelled events are compacted out of the heap once they outnumber
    #: the live ones (and the heap is big enough for a rebuild to pay off)
    _COMPACT_MIN_CANCELLED = 16

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_in_heap = 0
        # batch members chained behind an in-heap member (see _NEXT)
        self._deferred = 0
        # observability hook (repro.obs): None in untraced runs, so the
        # run() loop is untouched and only rare kernel-internal moments
        # (heap compaction) pay an is-not-None branch; typed Any rather
        # than the obs Tracer protocol to keep the kernel import-free
        self.tracer: Optional[Any] = None

    def set_tracer(self, tracer: Any) -> None:
        """Attach an ``repro.obs`` tracer (kernel-internal events only;
        periodic dispatch counters come from the system's probe pump)."""
        self.tracer = tracer

    def _note_cancelled(self, count: int) -> None:
        self._cancelled_in_heap += count
        if (
            self._cancelled_in_heap > self._COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            before = len(self._heap)
            self._heap = [e for e in self._heap if e[_STATUS] == _PENDING]
            _heapify(self._heap)
            self._cancelled_in_heap = 0
            if self.tracer is not None:
                self.tracer.instant(
                    "kernel",
                    "heap_compaction",
                    self._now,
                    {"before": before, "after": len(self._heap)},
                )

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        event = [when, priority, next(self._seq), callback, args, _PENDING, None]
        _heappush(self._heap, event)
        return EventHandle(event, self)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` at normal priority without building a handle,
        for hot-path events nobody cancels."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        _heappush(
            self._heap,
            [
                self._now + delay,
                self.PRIORITY_NORMAL,
                next(self._seq),
                callback,
                args,
                _PENDING,
                None,
            ],
        )

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        event = [when, priority, next(self._seq), callback, args, _PENDING, None]
        _heappush(self._heap, event)
        return EventHandle(event, self)

    def schedule_batch(
        self,
        times: Iterable[float],
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> BatchHandle:
        """Schedule ``callback(*args)`` at each absolute time in ``times``.

        ``times`` must be ascending and not in the past. This is the bulk
        counterpart of :meth:`schedule_at` for pre-computed arrival trains:
        the members are chained through their ``next`` slot and only the
        first is pushed; each pop pushes its follower (see the module
        docstring). Seqs are drawn up front, so event identity (seq order,
        priority semantics) and pop order are exactly as if
        :meth:`schedule_at` had been called once per time.
        """
        seq = self._seq
        prev = self._now
        events: List[List[Any]] = []
        follower: Optional[List[Any]] = None
        for when in times:
            if when < prev:
                raise SimulationError(
                    f"schedule_batch times must be ascending and not in the "
                    f"past (got {when} after {prev})"
                )
            prev = when
            event = [when, priority, next(seq), callback, args, _PENDING, None]
            if follower is not None:
                follower[_NEXT] = event
            follower = event
            events.append(event)
        if events:
            _heappush(self._heap, events[0])
            self._deferred += len(events) - 1
        return BatchHandle(events, self)

    def every(
        self,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        start: Optional[float] = None,
        priority: int = PRIORITY_CONTROL,
    ) -> RecurrenceHandle:
        """Run ``callback(*args)`` every ``period`` seconds.

        Returns a :class:`RecurrenceHandle`; calling it stops the
        recurrence. The first firing is at ``start`` (absolute) if given,
        else one period from now.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")
        handle = RecurrenceHandle(period, priority)

        def fire() -> None:
            if handle.stopped:
                return
            callback(*args)
            if not handle.stopped:
                handle._event = self.schedule(period, fire, priority=priority)._event

        first = start if start is not None else self._now + period
        handle._event = self.schedule_at(first, fire, priority=priority)._event
        return handle

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap is empty, ``until`` is reached, or
        ``max_events`` have been executed. Returns the final clock value.

        The clock only fast-forwards to ``until`` when the event heap was
        genuinely drained past it; stopping early on ``max_events`` leaves
        the clock at the last executed event.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        # localize everything the loop touches: the heap list, heappop, and
        # the budget counter live in locals; only _now (which callbacks read
        # through .now) is written back per event
        heap = self._heap
        pop = _heappop
        replace = _heapreplace
        executed = 0
        budget = float("inf") if max_events is None else max_events
        hit_budget = False
        try:
            while heap:
                if executed >= budget:
                    hit_budget = True
                    break
                event = heap[0]
                when = event[_TIME]
                if until is not None and when > until:
                    break
                # a batch member hands its heap slot to its follower
                # (cancelled members carry no follower: cancel cut it)
                follower = event[_NEXT]
                if follower is None:
                    pop(heap)
                else:
                    replace(heap, follower)
                    self._deferred -= 1
                status = event[_STATUS]
                event[_STATUS] = _POPPED
                if status == _CANCELLED:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = when
                event[_CALLBACK](*event[_ARGS])
                executed += 1
                self._events_processed += 1
                if heap is not self._heap:
                    # a cancel-triggered compaction replaced the heap list
                    heap = self._heap
            if until is not None and not hit_budget and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event. Returns False if none remain."""
        heap = self._heap
        while heap:
            follower = heap[0][_NEXT]
            if follower is None:
                event = _heappop(heap)
            else:
                event = _heapreplace(heap, follower)
                self._deferred -= 1
            status = event[_STATUS]
            event[_STATUS] = _POPPED
            if status == _CANCELLED:
                self._cancelled_in_heap -= 1
                continue
            self._now = event[_TIME]
            event[_CALLBACK](*event[_ARGS])
            self._events_processed += 1
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][_STATUS] == _CANCELLED:
            _heappop(heap)[_STATUS] = _POPPED
            self._cancelled_in_heap -= 1
        return cast(float, heap[0][_TIME]) if heap else None

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return len(self._heap) - self._cancelled_in_heap + self._deferred

    # -- checkpoint/restore primitives ----------------------------------
    #
    # The heap itself is deliberately *not* serialized: pending events
    # hold closures (recurrence ``fire`` wrappers, wake completions), so
    # a checkpoint records component state + timer phases instead and a
    # restore rebuilds the components and re-arms their timers.  Only the
    # relative seq order of coexisting pending events affects pop order,
    # so re-arming in ascending original-seq order on a fresh counter
    # reproduces the identical event sequence (see repro.serve.state).

    def clock_state(self) -> Dict[str, Any]:
        """The restorable clock portion of the engine's state."""
        return {"now": self._now, "events_processed": self._events_processed}

    def clear_events(self) -> int:
        """Drop every scheduled event; returns how many were live.

        Checkpoint-restore preamble: a freshly built component tree has
        construction-time timers in the heap that the restore re-arms
        with snapshot phases instead.  Every dropped event (deferred batch
        members included) is marked cancelled, so cancelling it later
        through a stale handle is a no-op.
        """
        if self._running:
            raise SimulationError("cannot clear events while running")
        live = self.pending()
        for head in self._heap:
            event: Optional[List[Any]] = head
            while event is not None:
                follower = event[_NEXT]
                event[_STATUS] = _CANCELLED
                event[_CALLBACK] = event[_ARGS] = event[_NEXT] = None
                event = follower
        self._heap = []
        self._cancelled_in_heap = 0
        self._deferred = 0
        return live

    def restore_clock(self, now: float, events_processed: int = 0) -> None:
        """Reset the clock to a snapshot taken by :meth:`clock_state`.

        Requires an empty heap (``clear_events`` first): rewinding or
        advancing the clock under pending events would fire them at the
        wrong instants.
        """
        if self._running:
            raise SimulationError("cannot restore the clock while running")
        if self._heap:
            raise SimulationError(
                "restore_clock requires an empty heap (call clear_events first)"
            )
        self._now = now
        self._events_processed = events_processed
