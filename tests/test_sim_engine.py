"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import itertools
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, cast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hal import HalSystem
from repro.net.traffic import ConstantRateGenerator, TrafficSpec
from repro.sim.engine import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert sim.pending() == 0
    assert sim.peek() is None


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_same_time_priority_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, "late", priority=Simulator.PRIORITY_LATE)
    sim.schedule(0.1, fired.append, "normal", priority=Simulator.PRIORITY_NORMAL)
    sim.schedule(0.1, fired.append, "control", priority=Simulator.PRIORITY_CONTROL)
    sim.run()
    assert fired == ["control", "normal", "late"]


def test_same_time_same_priority_fifo():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(0.1, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=0.5)
    assert sim.now == pytest.approx(0.5)
    assert sim.pending() == 1
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    sim.run()
    handle.cancel()  # must not raise
    assert fired == ["x"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.1, fired.append, "inner")

    sim.schedule(0.1, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == pytest.approx(0.2)


def test_every_recurs_and_stops():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1

    stop = sim.every(0.1, tick)
    sim.run(until=0.55)
    assert count[0] == 5
    stop()
    sim.run(until=2.0)
    assert count[0] == 5


def test_every_with_custom_start():
    sim = Simulator()
    times = []
    sim.every(0.1, lambda: times.append(sim.now), start=0.0)
    sim.run(until=0.25)
    assert times[0] == pytest.approx(0.0)
    assert len(times) == 3


def test_every_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    handle.cancel()
    assert sim.peek() == pytest.approx(0.2)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(max_events=3)
    assert sim.events_processed == 3


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.1, reenter)
    sim.run()


def test_clock_advances_to_until_even_with_no_events():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)


def test_cancelled_events_compacted_from_heap():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    # more than half the heap was cancelled → lazy compaction kicked in
    # (at the triggering cancel; later cancels below threshold may remain)
    assert len(sim._heap) <= 49
    assert sim.pending() == 40
    sim.run()
    assert sim.events_processed == 40


def test_pending_is_exact_without_compaction():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(10)]
    handles[3].cancel()
    handles[7].cancel()
    assert sim.pending() == 8  # below threshold: no rebuild, still exact
    sim.run()
    assert sim.events_processed == 8


def test_double_cancel_counts_once():
    sim = Simulator()
    keep = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(5)]
    victim = sim.schedule(1.0, lambda: None)
    victim.cancel()
    victim.cancel()
    assert sim.pending() == 5
    sim.run()
    assert sim.events_processed == 5
    assert keep


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    sim.run()
    handle.cancel()  # already fired; must not corrupt the pending count
    assert sim.pending() == 0
    sim.schedule(0.2, lambda: None)
    assert sim.pending() == 1


def test_peek_skips_cancelled_and_keeps_count():
    sim = Simulator()
    first = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    first.cancel()
    assert sim.peek() == pytest.approx(0.2)
    assert sim.pending() == 1


# -- schedule_batch -----------------------------------------------------


def test_schedule_batch_fires_in_order():
    sim = Simulator()
    fired = []
    handle = sim.schedule_batch([0.1, 0.2, 0.3], fired.append, "t")
    assert len(handle) == 3
    assert handle.pending() == 3
    sim.run()
    assert fired == ["t", "t", "t"]
    assert sim.now == pytest.approx(0.3)
    assert handle.pending() == 0


def test_schedule_batch_matches_schedule_at_interleaving():
    """Batched events pop exactly as if schedule_at had been called per
    time — including priority and FIFO ties against individually
    scheduled events at the same instants."""

    def build(use_batch):
        sim = Simulator()
        fired = []
        if use_batch:
            sim.schedule_batch([0.1, 0.2], lambda: fired.append(("b", sim.now)))
        else:
            for t in (0.1, 0.2):
                sim.schedule_at(t, lambda: fired.append(("b", sim.now)))
        sim.schedule_at(0.2, lambda: fired.append(("ctl", sim.now)),
                        priority=Simulator.PRIORITY_CONTROL)
        sim.schedule_at(0.1, lambda: fired.append(("i", sim.now)))
        sim.run()
        return fired

    assert build(True) == build(False)


def test_schedule_batch_large_batch_heapifies():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "tail")
    # batch much larger than the existing heap: only its head is pushed
    times = [0.001 * (i + 1) for i in range(500)]
    sim.schedule_batch(times, lambda: fired.append(sim.now))
    sim.run()
    assert fired[:-1] == sorted(fired[:-1])
    assert len(fired) == 501
    assert fired[-1] == "tail"


def test_schedule_batch_small_batch_pushes():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(0.1 * (i + 1), fired.append, "base")
    # batch far smaller than the heap still pops in global order
    sim.schedule_batch([0.05], fired.append, "batched")
    sim.run()
    assert fired[0] == "batched"
    assert len(fired) == 101


def test_schedule_batch_rejects_descending_times():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_batch([0.2, 0.1], lambda: None)


def test_schedule_batch_rejects_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_batch([0.5], lambda: None)


def test_schedule_batch_empty_is_noop():
    sim = Simulator()
    handle = sim.schedule_batch([], lambda: None)
    assert len(handle) == 0
    assert handle.pending() == 0
    handle.cancel()  # must not raise
    assert sim.pending() == 0


def test_batch_cancel_skips_fired_members():
    sim = Simulator()
    fired = []
    handle = sim.schedule_batch([0.1, 0.2, 0.3, 0.4], lambda: fired.append(sim.now))
    sim.run(until=0.25)
    assert len(fired) == 2
    assert handle.pending() == 2
    handle.cancel()
    assert handle.pending() == 0
    sim.run()
    assert len(fired) == 2  # cancelled members never fire
    assert sim.pending() == 0


def test_batch_cancel_keeps_pending_count_exact():
    sim = Simulator()
    keep = [sim.schedule(1.0 + 0.1 * i, lambda: None) for i in range(3)]
    handle = sim.schedule_batch([0.1 * (i + 1) for i in range(50)], lambda: None)
    handle.cancel()
    handle.cancel()  # idempotent
    assert sim.pending() == 3
    sim.run()
    assert sim.events_processed == 3
    assert keep


# -- max_events / clock semantics ---------------------------------------


def test_max_events_break_leaves_clock_at_last_event():
    """Stopping on the event budget must not fast-forward the clock to
    ``until`` — the heap was not drained past it."""
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(until=5.0, max_events=3)
    assert sim.now == pytest.approx(0.3)
    assert sim.pending() == 7


def test_until_fastforward_still_happens_when_drained():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.run(until=5.0, max_events=100)
    assert sim.now == pytest.approx(5.0)


def test_max_events_zero_executes_nothing():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.run(max_events=0)
    assert sim.events_processed == 0
    assert sim.pending() == 1
    assert sim.now == 0.0


# -- cancelled-counter audit --------------------------------------------


def test_cancelled_counter_stress_across_peek_pop_compact():
    """pending() stays exact under interleaved schedule / cancel / peek /
    step / run — whichever of pop, peek, or compaction reaps a cancelled
    entry must decrement the counter exactly once."""
    import random

    rng = random.Random(1234)
    sim = Simulator()
    live = []
    expected = 0
    for round_no in range(60):
        for _ in range(rng.randrange(1, 12)):
            handle = sim.schedule(rng.uniform(0.0, 2.0), lambda: None)
            live.append(handle)
            expected += 1
        rng.shuffle(live)
        for _ in range(min(len(live), rng.randrange(0, 8))):
            victim = live.pop()
            if victim._event[5] == 0:  # pending
                expected -= 1
            victim.cancel()
            victim.cancel()
        assert sim.pending() == expected, f"round {round_no}"
        if rng.random() < 0.4:
            sim.peek()
            assert sim.pending() == expected
        if rng.random() < 0.3:
            before = sim.events_processed
            if sim.step():
                expected -= 1
                assert sim.events_processed == before + 1
            assert sim.pending() == expected
    fired_remaining = sim.pending()
    before = sim.events_processed
    sim.run()
    assert sim.events_processed == before + fired_remaining
    assert sim.pending() == 0
    assert sim._cancelled_in_heap == 0


def test_batch_keeps_one_member_in_the_heap():
    sim = Simulator()
    fired = []
    handle = sim.schedule_batch([0.1, 0.2, 0.3, 0.4], lambda: fired.append(sim.now))
    assert len(sim._heap) == 1
    assert sim.pending() == 4
    sim.step()
    assert len(sim._heap) == 1  # the follower took the popped member's slot
    assert sim.pending() == 3
    assert handle.pending() == 3
    sim.run()
    assert fired == [0.1, 0.2, 0.3, 0.4]
    assert sim.pending() == 0


def test_batch_cancelled_from_its_own_callback():
    sim = Simulator()
    fired = []
    handles = []

    def member() -> None:
        fired.append(sim.now)
        if len(fired) == 2:
            handles[0].cancel()

    handles.append(sim.schedule_batch([0.1, 0.2, 0.3, 0.4, 0.5], member))
    sim.schedule(1.0, fired.append, "tail")
    sim.run(until=0.25)
    assert sim.pending() == 1
    assert handles[0].pending() == 0
    sim.run()
    assert fired == [0.1, 0.2, "tail"]
    assert sim.pending() == 0
    assert sim._deferred == 0


def test_clear_events_makes_stale_handles_inert():
    """Dropped events, deferred batch members included, are no longer
    pending: cancelling them through stale handles must not move the
    pending count of the events scheduled after the clear."""
    sim = Simulator()
    single = sim.schedule(0.1, lambda: None)
    batch = sim.schedule_batch([0.2, 0.3], lambda: None)
    assert sim.clear_events() == 3
    sim.schedule(0.5, lambda: None)
    single.cancel()
    batch.cancel()
    assert sim.pending() == 1
    assert not single.pending
    assert batch.pending() == 0
    sim.run()
    assert sim.events_processed == 1


def test_post_fires_like_schedule_without_a_handle():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, "handled")
    assert sim.post(0.1, fired.append, "posted") is None
    sim.schedule(0.1, fired.append, "after")
    assert sim.pending() == 3
    sim.run()
    assert fired == ["handled", "posted", "after"]
    with pytest.raises(SimulationError):
        sim.post(-1e-9, fired.append, "past")


def test_constant_rate_run_keeps_arrivals_out_of_the_heap():
    """A constant-rate train is pending in full but occupies one heap
    slot: the heap holds only the live working set, so it stays small
    however long the train is (eager insertion would hold thousands)."""
    system = HalSystem("nat")
    sim = system.sim
    samples = []

    def probe() -> None:
        samples.append((len(sim._heap), sim.pending()))

    stop = sim.every(1e-3, probe)
    generator = ConstantRateGenerator(
        system.plan, TrafficSpec(batch=32), system.rng, 60.0
    )
    system.run(generator, 0.02)
    stop()
    assert len(samples) >= 10
    assert max(heap for heap, _ in samples) < 64
    # 60 Gbps of 32-packet MTU batches is one arrival per 6.4 µs, so the
    # first probe (1 ms in) still has ~2900 of the train's 3126 pending
    assert samples[0][1] > 2500


# -- chained batches vs the reference kernel ------------------------------

_DELAYS = (0.0, 0.05, 0.1, 0.1, 0.25)  # repeats make equal-time ties likely
_STEPS = (0.0, 0.05, 0.1)
_PRIORITIES = (
    Simulator.PRIORITY_CONTROL,
    Simulator.PRIORITY_NORMAL,
    Simulator.PRIORITY_LATE,
)

_OPERATIONS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.sampled_from(_DELAYS),
        st.sampled_from(_PRIORITIES),
        st.booleans(),
    ),
    st.tuples(
        st.just("schedule_at"), st.sampled_from(_DELAYS), st.sampled_from(_PRIORITIES)
    ),
    st.tuples(
        st.just("batch"),
        st.integers(0, 30),
        st.sampled_from(_DELAYS),
        st.sampled_from(_STEPS),
        st.sampled_from(_PRIORITIES),
        st.integers(-1, 30),
    ),
    st.tuples(st.just("cancel_batch"), st.integers(0, 20)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("step")),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from(_DELAYS)),
        st.one_of(st.none(), st.integers(0, 8)),
    ),
    st.tuples(st.just("clear")),
)


class _Replay:
    """Applies an operation sequence to one kernel and records, in order,
    every callback that fires (label, batch member index, clock)."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.fired: List[Any] = []
        self.handles: List[Any] = []
        self.batches: List[Any] = []
        self._fired_members: List[int] = []
        self._labels = itertools.count()

    def _fire(self, label: int, spawn: bool) -> None:
        self.fired.append((label, -1, self.sim.now))
        if spawn:  # one level of events scheduled from inside the run
            self.sim.schedule(0.05, self._fire, -label - 1, False)

    def _fire_member(self, label: int, slot: int, cancel_at: int) -> None:
        index = self._fired_members[slot]
        self._fired_members[slot] += 1
        self.fired.append((label, index, self.sim.now))
        if index == cancel_at:
            self.batches[slot].cancel()

    def apply(self, op: Any) -> Any:
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            _, delay, priority, spawn = op
            self.handles.append(
                sim.schedule(
                    delay, self._fire, next(self._labels), spawn, priority=priority
                )
            )
        elif kind == "schedule_at":
            _, offset, priority = op
            self.handles.append(
                sim.schedule_at(
                    sim.now + offset,
                    self._fire,
                    next(self._labels),
                    False,
                    priority=priority,
                )
            )
        elif kind == "batch":
            _, count, offset, step, priority, cancel_at = op
            times = []
            t = sim.now + offset
            for _ in range(count):
                times.append(t)
                t += step
            self._fired_members.append(0)
            self.batches.append(
                sim.schedule_batch(
                    times,
                    self._fire_member,
                    next(self._labels),
                    len(self.batches),
                    cancel_at,
                    priority=priority,
                )
            )
        elif kind == "cancel_batch":
            batch = self.batches[op[1] % len(self.batches)] if self.batches else None
            if batch is not None:
                batch.cancel()
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "peek":
            return sim.peek()
        elif kind == "step":
            return sim.step()
        elif kind == "run":
            _, offset, max_events = op
            until = None if offset is None else sim.now + offset
            return sim.run(until=until, max_events=max_events)
        elif kind == "clear":
            # the reference kernel left cleared events PENDING, so stale
            # cancels corrupt its pending(); that divergence is the fix
            # pinned by test_clear_events_makes_stale_handles_inert
            self.handles = []
            self.batches = [None] * len(self.batches)
            return sim.clear_events()
        return None

    def observed(self) -> Any:
        sim = self.sim
        return (
            self.fired,
            sim.now,
            sim.events_processed,
            sim.pending(),
            [None if b is None else b.pending() for b in self.batches],
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPERATIONS, max_size=40))
def test_chained_batches_match_the_reference_kernel(operations):
    kernel = _Replay(Simulator())
    reference = _Replay(_RefSimulator())
    for op in operations:
        assert kernel.apply(op) == reference.apply(op), op
        assert kernel.observed() == reference.observed(), op
    kernel.apply(("run", None, None))
    reference.apply(("run", None, None))
    assert kernel.observed() == reference.observed()
    assert kernel.sim.pending() == 0
    assert kernel.sim._deferred == 0


# -- reference kernel -----------------------------------------------------
#
# The event kernel as it was before batched arrivals were chained behind
# one heap entry (every batch member pushed up front, heapify for large
# batches).  Verbatim apart from the ``_Ref`` class-name prefix and the
# shared SimulationError; the property test below drives it in lockstep
# with the current kernel.

# event slot indices
_TIME = 0
_PRIORITY = 1
_SEQ = 2
_CALLBACK = 3
_ARGS = 4
_STATUS = 5

# event status values
_PENDING = 0
_CANCELLED = 1
_POPPED = 2


class _RefEventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: List[Any], sim: "_RefSimulator") -> None:
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


class _RefBatchHandle:
    """Handle to a batch of events scheduled with :meth:`_RefSimulator.schedule_batch`.

    Cancelling the batch cancels every member that has not fired yet (one
    counter update + at most one heap compaction, however many remain).
    """

    __slots__ = ("_events", "_sim")

    def __init__(self, events: List[List[Any]], sim: "_RefSimulator") -> None:
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
                event[_CALLBACK] = event[_ARGS] = None
                cancelled += 1
        if cancelled:
            self._sim._note_cancelled(cancelled)


class _RefRecurrenceHandle:
    """Stop/inspect handle for a recurrence built by :meth:`_RefSimulator.every`.

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


class _RefSimulator:
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
    ) -> _RefEventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        event = [when, priority, next(self._seq), callback, args, _PENDING]
        _heappush(self._heap, event)
        return _RefEventHandle(event, self)

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> _RefEventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        event = [when, priority, next(self._seq), callback, args, _PENDING]
        _heappush(self._heap, event)
        return _RefEventHandle(event, self)

    def schedule_batch(
        self,
        times: Iterable[float],
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> _RefBatchHandle:
        """Schedule ``callback(*args)`` at each absolute time in ``times``.

        ``times`` must be ascending and not in the past. This is the bulk
        counterpart of :meth:`schedule_at` for pre-computed arrival trains:
        large batches are appended and re-heapified in one O(n + m) pass
        instead of m individual O(log n) sifts. Event identity (seq order,
        priority semantics) is exactly as if :meth:`schedule_at` had been
        called once per time, so pop order is unchanged.
        """
        heap = self._heap
        seq = self._seq
        prev = self._now
        events: List[List[Any]] = []
        for when in times:
            if when < prev:
                raise SimulationError(
                    f"schedule_batch times must be ascending and not in the "
                    f"past (got {when} after {prev})"
                )
            prev = when
            events.append([when, priority, next(seq), callback, args, _PENDING])
        if events:
            # a heapify rebuild costs O(n + m); m pushes cost O(m log n).
            # Rebuild when the batch is big relative to the live heap.
            if len(events) * 4 >= len(heap):
                heap.extend(events)
                _heapify(heap)
            else:
                for event in events:
                    _heappush(heap, event)
        return _RefBatchHandle(events, self)

    def every(
        self,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        start: Optional[float] = None,
        priority: int = PRIORITY_CONTROL,
    ) -> _RefRecurrenceHandle:
        """Run ``callback(*args)`` every ``period`` seconds.

        Returns a :class:`_RefRecurrenceHandle`; calling it stops the
        recurrence. The first firing is at ``start`` (absolute) if given,
        else one period from now.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")
        handle = _RefRecurrenceHandle(period, priority)

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
                pop(heap)
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
        while self._heap:
            event = _heappop(self._heap)
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
        return len(self._heap) - self._cancelled_in_heap

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
        with snapshot phases instead.
        """
        if self._running:
            raise SimulationError("cannot clear events while running")
        live = self.pending()
        self._heap = []
        self._cancelled_in_heap = 0
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
