"""The simulator core: clock, event queue, and run loop.

Hot-path design (see docs/performance.md): the engine keeps **two**
pending-event structures —

* a binary heap (``heapq``) of ``(time, tiebreak, event)`` entries for
  events scheduled at a *future* time, and
* a plain FIFO deque (the **same-time fast lane**) for events scheduled
  at the *current* time — ``Event.succeed``/``fail``, ``Initialize``,
  store/resource dispatch — which dominate real workloads.

Lane appends are a single C-level ``deque.append`` with no tie-break
counter and no heap sift. Determinism is preserved because a heap entry
due at time *t* was always posted at a sim time strictly before *t*
(``_post`` routes anything that would land at the current instant into
the lane), so it precedes every lane entry at *t* in global post order;
``step``/``peek``/``run`` therefore drain due heap entries first, then
the lane in FIFO order — exactly the ``(time, post-order)`` sequence the
legacy heap-only path produces.

The legacy path remains available for debugging and A/B determinism
checks: pass ``fast_lane=False`` or set ``REPRO_SIM_LEGACY_HEAP=1``.
"""

from __future__ import annotations

import gc
import heapq
import os
from collections import deque
from functools import partial
from itertools import count
from typing import Any, Generator, Iterable, Optional, Union

from repro.obs.tracer import NULL_TRACER
from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop

#: The drain loop allocates heavily (events, messages, generator frames)
#: and the hot objects are either cycle-free or die with the run, so the
#: cyclic collector's periodic young-gen scans are nearly pure overhead
#: mid-drain (~15% of wall time on the macro bench). ``run()`` therefore
#: pauses automatic collection while draining and forces a bounded sweep
#: every ``_GC_SWEEP_MASK + 1`` events so multi-million-event runs cannot
#: accumulate unbounded cyclic garbage. ``REPRO_SIM_GC=1`` keeps the
#: collector running normally (A/B and leak-hunting escape hatch).
_GC_PAUSE = not os.environ.get("REPRO_SIM_GC")
_GC_SWEEP_MASK = (1 << 20) - 1
_gc_collect = gc.collect


class Simulator:
    """Owns the virtual clock and the pending-event queue.

    All events and processes are bound to one simulator; mixing objects
    from different simulators raises :class:`SimulationError`.
    """

    def __init__(self, fast_lane: Optional[bool] = None) -> None:
        if fast_lane is None:
            fast_lane = not os.environ.get("REPRO_SIM_LEGACY_HEAP")
        self.fast_lane = bool(fast_lane)
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._lane: deque[Event] = deque()
        self._counter = count()
        self._active_process: Optional[Process] = None
        #: Total events processed (the numerator of the engine's
        #: events/sec wall-clock throughput; see benchmarks/bench_macro).
        self.events_processed: int = 0
        #: Exceptions from failed events that no handler defused.
        self._unhandled: list[BaseException] = []
        #: Span tracer for process lifetimes; the shared no-op tracer
        #: unless an :class:`~repro.obs.api.Observability` installs one.
        self.tracer = NULL_TRACER
        # ``Event._trigger`` calls this once per triggered event; in
        # fast-lane mode it is the raw bound deque.append (no Python
        # frame at all), in legacy mode the heap-push fallback.
        if self.fast_lane:
            self._schedule_now = self._lane.append
        else:
            self._schedule_now = self._legacy_schedule_now
        # Shadow the factory methods with C-level partials: event/timeout
        # creation is once-per-yield in every process, and the delegating
        # Python frame is measurable there. The defs below remain as the
        # documented API surface.
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)

    def _legacy_schedule_now(self, event: Event) -> None:
        _heappush(self._queue, (self._now, next(self._counter), event))

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Run a generator as a process; returns its completion event."""
        return Process(self, gen, name=name)

    # Alias matching SimPy nomenclature.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _post(self, event: Event, delay: float = 0.0) -> None:
        when = self._now + delay
        # Anything landing at the current instant (delay 0, or a delay so
        # small it vanishes in float addition) takes the lane; the heap
        # must only ever hold strictly-future postings, which is what
        # makes the lane/heap merge order equal the legacy post order.
        if when == self._now and self.fast_lane:
            self._lane.append(event)
        else:
            _heappush(self._queue, (when, next(self._counter), event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        queue = self._queue
        if self._lane:
            # Heap entries already due were posted at an earlier sim time
            # (strictly lower global tie-break): they run first.
            if queue and queue[0][0] <= self._now:
                event = _heappop(queue)[2]
            else:
                event = self._lane.popleft()
        elif queue:
            when, _, event = _heappop(queue)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        self.events_processed += 1
        event._process()
        if self._unhandled:
            exc = self._unhandled[0]
            self._unhandled.clear()
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the schedule drains, a deadline, or an event.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until the clock would pass that time
          (the clock is then set to exactly ``until``).
        * ``until=<Event>`` — run until that event is processed; returns
          its value (raising if it failed).

        The drain loops below repeat :meth:`step`'s pop-and-dispatch
        inline: one method call plus redundant emptiness checks per event
        is the difference between this engine and the hardware ceiling,
        so ``run`` pays the duplication once instead of per event.
        """
        lane = self._lane
        queue = self._queue
        lane_pop = lane.popleft
        unhandled = self._unhandled
        processed = 0
        # Pause the cyclic collector for the duration of the drain (see
        # _GC_PAUSE above); a bounded manual sweep keeps memory flat on
        # runs long enough to matter.
        gc_paused = _GC_PAUSE and gc.isenabled()
        if isinstance(until, Event):
            stop = until
            if stop.sim is not self:
                raise SimulationError("until-event belongs to another simulator")
            if gc_paused:
                gc.disable()
            try:
                now = self._now  # local clock mirror (see deadline loop)
                while stop.callbacks is not None:  # i.e. not stop.processed
                    if lane:
                        if queue and queue[0][0] <= now:
                            event = _heappop(queue)[2]
                        else:
                            event = lane_pop()
                    elif queue:
                        when, _, event = _heappop(queue)
                        now = self._now = when
                    else:
                        raise SimulationError(
                            "schedule drained before until-event triggered"
                            " (deadlock?)"
                        )
                    processed += 1
                    if not (processed & _GC_SWEEP_MASK) and gc_paused:
                        _gc_collect(1)
                    # Inlined Event._process (no subclass overrides it).
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
                    if not event._ok and not event.defused:
                        unhandled.append(event._value)
                    if unhandled:
                        exc = unhandled[0]
                        unhandled.clear()
                        raise exc
            finally:
                self.events_processed += processed
                if gc_paused:
                    gc.enable()
            stop.defused = True
            if stop.ok:
                return stop.value
            raise stop.value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"until={deadline} is in the past (now={self._now})")
        if gc_paused:
            gc.disable()
        try:
            # ``now`` mirrors self._now so the (dominant) lane pops read
            # a local instead of an attribute; writes go through both.
            now = self._now
            while True:
                # Lane events are always due at the current time (<= the
                # deadline, since the clock never passes it).
                if lane:
                    if queue and queue[0][0] <= now:
                        event = _heappop(queue)[2]
                    else:
                        event = lane_pop()
                elif queue:
                    # Pop first, push back past-deadline items: the
                    # push-back happens at most once per run() while the
                    # peek-then-pop it replaces double-touched the heap
                    # root on every event.
                    item = _heappop(queue)
                    when = item[0]
                    if when > deadline:
                        _heappush(queue, item)
                        break
                    now = self._now = when
                    event = item[2]
                else:
                    break
                processed += 1
                if not (processed & _GC_SWEEP_MASK) and gc_paused:
                    _gc_collect(1)
                # Inlined Event._process (no subclass overrides it).
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event.defused:
                    unhandled.append(event._value)
                if unhandled:
                    exc = unhandled[0]
                    unhandled.clear()
                    raise exc
        finally:
            self.events_processed += processed
            if gc_paused:
                gc.enable()
        if deadline != float("inf"):
            self._now = deadline
        return None
