"""Virtual-time event loop with generator-based processes.

The model is a stripped-down simpy:

- :class:`EventLoop` owns the clock and a priority queue of pending events.
- :class:`Event` is a one-shot future living on a loop.  Succeeding or
  failing it schedules its callbacks at the current virtual time.
- :class:`Process` drives a generator that ``yield``-s events; the process
  resumes when the yielded event fires.  A process is itself an event that
  succeeds with the generator's return value.
- :class:`Timer` is a cancellable handle returned by
  :meth:`EventLoop.timer_at` / :meth:`EventLoop.timer_later`.

Determinism: ties in time are broken by insertion order, and nothing in the
kernel consults wall time or global randomness, so a simulation with a fixed
seed replays identically.

Fast-path internals (all behaviour-preserving):

- Scheduled entries are mutable 4-lists ``[when, seq, fn, arg]``.  ``seq``
  is unique, so list comparison never reaches ``fn`` and stays in C.  A
  cancelled timer is a *tombstone*: its ``fn`` slot is set to ``None`` and
  the entry is dropped when next touched.  When tombstones outnumber live
  entries every structure is compacted in place -- the resulting dispatch
  order is unchanged because ``(when, seq)`` keys are distinct.
- The pending-entry store is a **hierarchical timer wheel**, not a single
  heap: 4 levels x 256 slots at a deliberately coarse tick of 2^-12 s
  (~0.24 ms per slot), an exact ``(when, seq)`` heap for everything at or
  behind the cursor, and an overflow heap for entries beyond the wheel
  horizon (2^32 ticks, ~12 days).  Dense sub-millisecond traffic lands in
  the exact heap and degenerates to plain heapq; the Python-level slot
  machinery (cursor jumps via per-level occupancy bitmasks, cascades of
  higher-level slots) runs once per *slot*, amortised over all the events
  the slot holds.  Cancelled entries parked in far slots are dropped
  wholesale during compaction without ever paying heap traffic, which is
  what makes resend/RTO churn cheap.  Dispatch order is *identical* to
  the old heap: slot assignment is monotonic in ``when`` and the exact
  heap orders by ``(when, seq)``.
- ``call_soon`` appends to a FIFO ready deque instead of touching the
  wheel.  Ready entries share the global ``seq`` counter, and the run
  loop merges the deque with same-timestamp wheel entries strictly by
  ``seq``, so the dispatch order is byte-identical to the all-heap scheme.
- ``timeout()`` returns a slotted :class:`Event` subclass fired by a
  module-level function -- no per-timeout closure allocation, which
  matters because every modelled packet delay and CPU slice is a timeout.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

# Sentinel: "call fn()" rather than "call fn(arg)".
_NO_ARG = object()

# Timer-wheel resolution: ticks per second.  Slots are deliberately
# *coarse* -- 2^12 ticks/s is ~0.24 ms per slot -- because the wheel's job
# in CPython is not fine-grained bucketing but keeping the Python-level
# slot machinery off the per-event path: everything inside the current
# slot lives in an exact C-heap ordered by (when, seq), so the dense
# sub-millisecond packet traffic degenerates to plain heapq and the
# cursor/cascade code runs once per slot, amortised over the hundreds of
# events the slot holds.  A 4-level x 256-slot wheel spans 2^32 ticks
# (2^20 s, ~12 days); anything further sits in a small overflow heap.  Slot
# binning is order-preserving for any monotonic tick function (dispatch
# order comes from the exact heap, never the slot index), so this scale
# is purely a performance knob.  Multiplying by a power of two is exact
# for the float timestamps we use.
_TICK_SCALE = float(2 ** 12)
_WHEEL_LEVELS = 4
_WHEEL_SLOTS = 256

# Events dispatched across every loop in this process, for perf trajectory
# bookkeeping (wall-clock benches report events/sec).  Deliberately a plain
# module global: the simulator is single-threaded per process.
_dispatched_total = 0


def events_dispatched() -> int:
    """Total events dispatched by all loops in this process."""
    return _dispatched_total


class Event:
    """A one-shot occurrence at some virtual time.

    An event starts *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, at which point its callbacks run (in registration
    order) via the loop.  Yielding a failed event inside a process raises the
    failure in the generator.
    """

    __slots__ = ("loop", "_callbacks", "_ok", "value", "_triggered")

    def __init__(self, loop: "EventLoop"):
        self.loop = loop
        # Lazily allocated: most timeouts complete with exactly one waiter,
        # and many events are fired before anyone registers.
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._ok: Optional[bool] = None
        self.value: Any = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event triggers (immediately if done)."""
        if self._triggered:
            self.loop.call_soon(fn, self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful, delivering ``value`` to waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed, raising ``exc`` in waiting processes."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            call_soon = self.loop.call_soon
            for fn in callbacks:
                call_soon(fn, self)


class _Timeout(Event):
    """A timeout event: carries its value, fired without a closure."""

    __slots__ = ("_value",)


def _fire_timeout(ev: _Timeout) -> None:
    ev._trigger(True, ev._value)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator, resuming it whenever the yielded event fires.

    The process is an :class:`Event` that succeeds with the generator's
    ``return`` value, or fails with any exception the generator escapes
    with -- so processes compose (a process can yield another process).
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, loop: "EventLoop", gen: Generator[Event, Any, Any]):
        super().__init__(loop)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        loop.call_soon(self._start)

    def _start(self) -> None:
        self._step(None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None and not target._triggered:
            # Detach from the event we were waiting for; it may still fire
            # later but must no longer resume us.
            if target._callbacks is not None:
                try:
                    target._callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._waiting_on = None
        self.loop.call_soon(lambda: self._step(None, Interrupt(cause)))

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interrupt: treat as clean exit.
            self.succeed(None)
            return
        except BaseException as failure:  # noqa: BLE001 - fail the process event
            self.fail(failure)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class Timer:
    """Cancellable handle for one scheduled callback.

    Holds the scheduled entry itself, so :meth:`cancel` is O(1): it blanks
    the entry's ``fn`` slot (turning it into a tombstone the wheel drops
    when it next touches it) rather than searching any structure.
    Cancelling after the callback fired, or twice, is a no-op -- dispatch
    blanks the same slot.
    """

    __slots__ = ("_loop", "_entry")

    def __init__(self, loop: "EventLoop", entry: list):
        self._loop = loop
        self._entry = entry

    @property
    def when(self) -> float:
        """Scheduled virtual time (valid whether or not still active)."""
        return self._entry[0]

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        return self._entry[2] is not None

    def cancel(self) -> bool:
        """Cancel the callback; True if it had not yet fired.

        Idempotent.  The entry stays parked in its wheel slot as a
        tombstone and is reclaimed lazily -- immediately compacting when
        tombstones outnumber live entries, otherwise dropped when its
        slot is next drained or cascaded.
        """
        entry = self._entry
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = _NO_ARG  # drop the arg reference right away
        loop = self._loop
        loop._tombstones += 1
        if loop._tombstones * 2 > loop._size:
            loop._compact()
        return True


class PeriodicTimer:
    """A repeating timer: fires ``fn()`` every ``interval`` until cancelled.

    Built on :class:`Timer` handles, so cancellation is O(1) and a
    cancelled periodic leaves only a lazily-reclaimed tombstone.  The
    callback may cancel its own periodic; the reschedule check runs after
    the callback returns.  Created via :meth:`EventLoop.every` -- the
    control-plane primitives (key-pool refill, ticket rotation, session
    idle sweeps) all hang off this.
    """

    __slots__ = ("_loop", "interval", "_fn", "_entry", "_cancelled", "fires")

    def __init__(
        self,
        loop: "EventLoop",
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
    ):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._loop = loop
        self.interval = interval
        self._fn = fn
        self._cancelled = False
        self.fires = 0
        delay = interval if first_delay is None else first_delay
        # The scheduled entry is held directly (not via a Timer handle):
        # a periodic reschedules on every fire, and skipping the handle
        # allocation matters for heartbeat-grade frequencies.
        loop._seq = seq = loop._seq + 1
        when = loop._now + delay
        entry = [when, seq, self._fire, _NO_ARG]
        self._entry: list = entry
        tick = int(when * _TICK_SCALE)
        if tick <= loop._cur_tick:
            heappush(loop._cur, entry)
            loop._size += 1
        else:
            loop._push(entry, tick)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        self._fn()
        if not self._cancelled:
            loop = self._loop
            loop._seq = seq = loop._seq + 1
            when = loop._now + self.interval
            entry = [when, seq, self._fire, _NO_ARG]
            self._entry = entry
            if int(when * _TICK_SCALE) <= loop._cur_tick:
                heappush(loop._cur, entry)
                loop._size += 1
            else:
                loop._push(entry)

    @property
    def active(self) -> bool:
        return not self._cancelled

    def cancel(self) -> bool:
        """Stop firing; True if the periodic was still active."""
        if self._cancelled:
            return False
        self._cancelled = True
        entry = self._entry
        if entry[2] is not None:
            # Tombstone the pending entry exactly as Timer.cancel does.
            entry[2] = None
            entry[3] = _NO_ARG
            loop = self._loop
            loop._tombstones += 1
            if loop._tombstones * 2 > loop._size:
                loop._compact()
        return True


class EventLoop:
    """Deterministic virtual-time scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        # Scheduled entries are [when, seq, fn, arg] lists; arg is _NO_ARG
        # for plain fn() calls.  Cancelled entries have fn=None (tombstones).
        # They live in a hierarchical timer wheel:
        #   _cur       heap of entries at/behind the cursor tick, ordered by
        #              (when, seq) -- the only structure dispatch pops from
        #   _levels    4 levels x 256 slots of plain lists; level L holds
        #              entries (tick >> 8L) - (cursor >> 8L) in [1, 255]
        #   _masks     per-level occupancy bitmask ints (bit i = slot i)
        #   _overflow  heap for entries beyond the wheel horizon (~12 days)
        self._cur: list[list] = []
        self._cur_tick = 0
        self._levels: list[list[list]] = [
            [[] for _ in range(_WHEEL_SLOTS)] for _ in range(_WHEEL_LEVELS)
        ]
        self._masks = [0] * _WHEEL_LEVELS
        self._overflow: list[list] = []
        self._size = 0  # entries across _cur + wheel + overflow, incl. tombstones
        self._ready: deque = deque()  # (seq, fn, arg) at the current time
        self._seq = 0
        self._tombstones = 0
        # Events this loop has dispatched over its lifetime.
        self.dispatched = 0
        # Per-loop observability hub (repro.obs.Observability) or None.
        # Instrumentation points across the stack guard on this, so an
        # unobserved loop runs the exact event sequence it always did.
        self.obs = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def seq(self) -> int:
        """Tie-break key of the most recently scheduled entry."""
        return self._seq

    # -- scheduling --------------------------------------------------------

    def _push(self, entry: list, tick: Optional[int] = None) -> None:
        """File ``entry`` into the wheel structure holding it until dispatch.

        O(1) for anything within the wheel horizon: pick the innermost
        level whose 256-slot window (relative to the cursor) contains the
        entry's tick, and append to that slot.  At/behind the cursor goes
        straight into the current-slot heap; beyond the horizon goes into
        the overflow heap.  Callers that already computed the tick for the
        inlined fast-path check pass it in to avoid the recompute.
        """
        if tick is None:
            tick = int(entry[0] * _TICK_SCALE)
        ctick = self._cur_tick
        delta = tick - ctick
        if delta <= 0:
            heappush(self._cur, entry)
        elif delta < 256:
            idx = tick & 255
            self._levels[0][idx].append(entry)
            self._masks[0] |= 1 << idx
        elif (tick >> 8) - (ctick >> 8) < 256:
            idx = (tick >> 8) & 255
            self._levels[1][idx].append(entry)
            self._masks[1] |= 1 << idx
        elif (tick >> 16) - (ctick >> 16) < 256:
            idx = (tick >> 16) & 255
            self._levels[2][idx].append(entry)
            self._masks[2] |= 1 << idx
        elif (tick >> 24) - (ctick >> 24) < 256:
            idx = (tick >> 24) & 255
            self._levels[3][idx].append(entry)
            self._masks[3] |= 1 << idx
        else:
            heappush(self._overflow, entry)
        self._size += 1

    def call_at(self, when: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` -- or ``fn(arg)`` if given -- at virtual time ``when``."""
        if when < self._now - 1e-15:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._seq = seq = self._seq + 1
        entry = [when, seq, fn, arg]
        # Inlined _push fast path: at/behind the cursor's slot goes straight
        # into the current heap.  With millisecond-grade slots this is the
        # overwhelmingly common case, and skipping the call is measurable.
        tick = int(when * _TICK_SCALE)
        if tick <= self._cur_tick:
            heappush(self._cur, entry)
            self._size += 1
        else:
            self._push(entry, tick)

    def call_at_seq(
        self, when: float, seq: float, fn: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Like :meth:`call_at`, with an explicit tie-break key ``seq``.

        Among entries due at the same ``when``, this one runs after those
        with a smaller key and before those with a larger one, as if it had
        been scheduled at that point of the past.  The key must differ from
        every other pending entry's -- pick a fraction between two keys the
        loop handed out (see :attr:`seq`).  The loop's own counter does not
        advance.  The sharded kernel uses this to file a cross-domain
        arrival where a single loop would have filed it.
        """
        if when < self._now - 1e-15:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._push([when, seq, fn, arg])

    def call_later(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        when = self._now + delay
        entry = [when, seq, fn, arg]
        tick = int(when * _TICK_SCALE)
        if tick <= self._cur_tick:
            heappush(self._cur, entry)
            self._size += 1
        else:
            self._push(entry, tick)

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``fn()`` at the current time, after already-queued events.

        Fast path: appends to a FIFO ready queue (no heap traffic); the run
        loop merges it with same-timestamp heap entries in ``seq`` order,
        preserving the exact global dispatch order.
        """
        self._seq = seq = self._seq + 1
        self._ready.append((seq, fn, arg))

    def timer_at(self, when: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Like :meth:`call_at`, but returns a cancellable :class:`Timer`."""
        if when < self._now - 1e-15:
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._seq = seq = self._seq + 1
        entry = [when, seq, fn, arg]
        tick = int(when * _TICK_SCALE)
        if tick <= self._cur_tick:
            heappush(self._cur, entry)
            self._size += 1
        else:
            self._push(entry, tick)
        timer = Timer.__new__(Timer)  # skip __init__: this path is hot
        timer._loop = self
        timer._entry = entry
        return timer

    def timer_later(self, delay: float, fn: Callable[..., None], arg: Any = _NO_ARG) -> Timer:
        """Like :meth:`call_later`, but returns a cancellable :class:`Timer`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        when = self._now + delay
        entry = [when, seq, fn, arg]
        tick = int(when * _TICK_SCALE)
        if tick <= self._cur_tick:
            heappush(self._cur, entry)
            self._size += 1
        else:
            self._push(entry, tick)
        timer = Timer.__new__(Timer)  # skip __init__: this path is hot
        timer._loop = self
        timer._entry = entry
        return timer

    def _advance(self) -> bool:
        """Move the cursor to the next occupied slot and refill ``_cur``.

        Called only when the current-slot heap is empty.  Scans each
        level's occupancy bitmask for the nearest slot *in tick order*
        (the scan window wraps around the cursor position), takes the
        minimum base tick across levels and the overflow head, then
        either drains that slot into ``_cur`` (level 0 -- one exact tick
        per slot, so a heapify restores full ``(when, seq)`` order) or
        cascades it down a level and rescans.  Tombstones are dropped on
        the way instead of being re-filed.  Returns True when ``_cur``
        has a live head, False when nothing is pending anywhere.
        """
        cur = self._cur
        levels = self._levels
        masks = self._masks
        overflow = self._overflow
        while True:
            ctick = self._cur_tick
            # Fast path: the next occupied level-0 slot wins outright
            # whenever no higher level holds a transient current-lap slot
            # (cursor-position bit) and the overflow head is further out.
            # Same-lap higher-level slots cannot precede it -- their base
            # is at least the cursor's next lap boundary, past the level-0
            # window -- so the full scan below is only needed on the rarer
            # cascade/wrap/overflow iterations.
            m0 = masks[0]
            if m0:
                pos = ctick & 255
                rest = m0 >> pos
                if rest & 1:
                    idx0 = pos
                    best0 = ctick
                else:
                    hi = rest >> 1
                    if hi:
                        off = (hi & -hi).bit_length()
                        idx0 = pos + off
                        best0 = ctick + off
                    else:
                        best0 = -1
                if (
                    best0 >= 0
                    and not masks[1] & (1 << ((ctick >> 8) & 255))
                    and not masks[2] & (1 << ((ctick >> 16) & 255))
                    and not masks[3] & (1 << ((ctick >> 24) & 255))
                    and (not overflow or int(overflow[0][0] * _TICK_SCALE) > best0)
                ):
                    slot = levels[0][idx0]
                    masks[0] = m0 & ~(1 << idx0)
                    if best0 > ctick:
                        self._cur_tick = best0
                    for entry in slot:
                        if entry[2] is None:
                            self._tombstones -= 1
                            self._size -= 1
                        else:
                            cur.append(entry)
                    slot.clear()
                    if cur:
                        if len(cur) > 1:
                            heapify(cur)
                        return True
                    continue
            best_tick = -1
            best_lvl = -1
            best_idx = -1
            for lvl in range(_WHEEL_LEVELS):
                m = masks[lvl]
                if not m:
                    continue
                shift = lvl << 3
                csh = ctick >> shift
                pos = csh & 255
                if m & (1 << pos):
                    # The cursor's own slot position at this level: only
                    # possible transiently, right after a cascade parked
                    # the cursor exactly on this slot's lap boundary.  Its
                    # entries belong to the *current* lap (ticks at/after
                    # the cursor), so it is the nearest candidate here --
                    # the wrapped window below would misread it as a full
                    # lap away and strand it behind the advancing cursor.
                    idx = pos
                    ssh = csh
                else:
                    hi = m >> (pos + 1)
                    if hi:
                        idx = pos + 1 + ((hi & -hi).bit_length() - 1)
                        ssh = csh - pos + idx
                    else:
                        lo = m & ((1 << pos) - 1)
                        idx = (lo & -lo).bit_length() - 1
                        ssh = csh - pos + 256 + idx
                # Ties prefer the higher level: a level-L slot whose base
                # tick equals a lower candidate must cascade first, or the
                # cursor would land on its lap position and strand its
                # entries outside the wrapped scan window.
                slot_tick = ssh << shift
                if best_tick < 0 or slot_tick <= best_tick:
                    best_tick, best_lvl, best_idx = slot_tick, lvl, idx
            if overflow and (
                best_tick < 0 or int(overflow[0][0] * _TICK_SCALE) <= best_tick
            ):
                # Overflow entries have crept to/inside the wheel horizon
                # (or are all that's left): migrate the batch that now fits,
                # then rescan.  With an empty wheel the cursor may jump
                # straight to the overflow head -- nothing else is pending.
                if best_tick < 0:
                    self._cur_tick = int(overflow[0][0] * _TICK_SCALE)
                while overflow:
                    head = overflow[0]
                    tick = int(head[0] * _TICK_SCALE)
                    if (tick >> 24) - (self._cur_tick >> 24) >= 256:
                        break
                    heappop(overflow)
                    if head[2] is None:
                        self._tombstones -= 1
                        self._size -= 1
                    else:
                        self._size -= 1  # _push re-counts it
                        self._push(head)
                continue
            if best_tick < 0:
                return False
            slot = levels[best_lvl][best_idx]
            masks[best_lvl] &= ~(1 << best_idx)
            if best_tick > ctick:  # a current-lap slot must not rewind the cursor
                self._cur_tick = best_tick
            if best_lvl == 0:
                for entry in slot:
                    if entry[2] is None:
                        self._tombstones -= 1
                        self._size -= 1
                    else:
                        cur.append(entry)
                slot.clear()
                if cur:
                    if len(cur) > 1:
                        heapify(cur)
                    return True
            else:
                for entry in slot:
                    if entry[2] is None:
                        self._tombstones -= 1
                        self._size -= 1
                    else:
                        self._size -= 1  # _push re-counts it
                        self._push(entry)
                slot.clear()

    def _compact(self) -> None:
        """Drop every tombstone from every structure, in place.

        Live entries never move: each slot list is filtered where it is
        (its slot assignment is still valid), so compaction costs one
        C-level list rebuild per occupied structure rather than a refile
        per entry.  In place matters for ``_cur``: ``run`` holds a
        reference to the list, so the list object must survive
        compaction.  Dispatch order is unchanged -- ``(when, seq)`` keys
        are distinct and the exact heaps are re-heapified.
        """
        cur = self._cur
        cur[:] = [entry for entry in cur if entry[2] is not None]
        heapify(cur)
        size = len(cur)
        levels = self._levels
        masks = self._masks
        for lvl in range(_WHEEL_LEVELS):
            m = masks[lvl]
            scan = m
            while scan:
                bit = scan & -scan
                scan ^= bit
                slot = levels[lvl][bit.bit_length() - 1]
                slot[:] = [e for e in slot if e[2] is not None]
                if slot:
                    size += len(slot)
                else:
                    m ^= bit
            masks[lvl] = m
        overflow = self._overflow
        overflow[:] = [e for e in overflow if e[2] is not None]
        heapify(overflow)
        self._size = size + len(overflow)
        self._tombstones = 0

    # -- event factories ----------------------------------------------------

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        """Fire ``fn()`` every ``interval`` seconds until cancelled."""
        return PeriodicTimer(self, interval, fn, first_delay=first_delay)

    def event(self) -> Event:
        """A fresh untriggered event on this loop."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds ``delay`` seconds from now."""
        ev = _Timeout(self)
        ev._value = value
        self.call_later(delay, _fire_timeout, ev)
        return ev

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a process driving ``gen``; returns its completion event."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event succeeding when all ``events`` have succeeded.

        Fails fast with the first failure.  The combined value is the list
        of individual values in input order.
        """
        events = list(events)
        done = Event(self)
        remaining = len(events)
        values: list[Any] = [None] * len(events)
        if remaining == 0:
            return done.succeed(values)

        def make_cb(i: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                nonlocal remaining
                if done.triggered:
                    return
                if not ev.ok:
                    done.fail(ev.value)
                    return
                values[i] = ev.value
                remaining -= 1
                if remaining == 0:
                    done.succeed(values)

            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue.

        With ``until`` set, stops once the clock would pass it (and advances
        the clock exactly to ``until``).  Returns the final virtual time.
        ``max_events`` guards against runaway simulations (tombstone skips
        do not count).
        """
        cur = self._cur
        ready = self._ready
        pop = heappop
        no_arg = _NO_ARG
        count = 0
        # Ready entries run at the *current* time; if the window already
        # ended they must wait for a later run, like the wheel entries do.
        ready_ok = until is None or self._now <= until
        try:
            while True:
                # Find the next live scheduled entry (leave it in _cur).
                if cur:
                    head = cur[0]
                    if head[2] is None:  # cancelled: drop the tombstone
                        pop(cur)
                        self._tombstones -= 1
                        self._size -= 1
                        continue
                else:
                    if self._size:
                        self._advance()
                        if cur:
                            continue
                    if not ready:
                        break
                    head = None
                if ready and ready_ok:
                    # Dispatch from the ready FIFO unless a scheduled entry
                    # at the current time was filed earlier.
                    if head is None or head[0] > self._now or head[1] > ready[0][0]:
                        _seq, fn, arg = ready.popleft()
                        if arg is no_arg:
                            fn()
                        else:
                            fn(arg)
                        count += 1
                        if count > max_events:
                            raise SimulationError(
                                f"exceeded {max_events} events; runaway simulation?"
                            )
                        continue
                if head is None:
                    break  # only ready entries left, for a later run
                when = head[0]
                if until is not None and when > until:
                    break  # head stays filed for a later run
                pop(cur)
                self._size -= 1
                fn = head[2]
                head[2] = None  # marks "fired": Timer.cancel becomes a no-op
                arg, head[3] = head[3], no_arg
                self._now = when
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                count += 1
                if count > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self.dispatched += count
            global _dispatched_total
            _dispatched_total += count
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_process(self, gen: Generator[Event, Any, Any], timeout: Optional[float] = None) -> Any:
        """Run ``gen`` as a process to completion and return its value.

        Convenience for tests and benchmarks.  Raises if the process fails
        or the queue drains before the process finishes.
        """
        proc = self.process(gen)
        self.run(until=None if timeout is None else self._now + timeout)
        if not proc.triggered:
            raise SimulationError("process did not complete (deadlock or timeout)")
        if not proc.ok:
            raise proc.value
        return proc.value

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending event, or ``None`` if idle.

        The conservative shard scheduler (``repro.sim.shard``) uses this to
        size safe synchronization windows: at a domain barrier every event
        is strictly in the future, so ``min`` over domains bounds the next
        state change anywhere.  Ready-queue entries fire at the current
        time.  May pop tombstones and advance the wheel cursor to the next
        occupied slot -- both are deterministic and dispatch nothing, so
        the observable event sequence is unchanged.
        """
        if self._ready:
            return self._now
        cur = self._cur
        while True:
            if cur:
                head = cur[0]
                if head[2] is None:  # cancelled: drop the tombstone
                    heappop(cur)
                    self._tombstones -= 1
                    self._size -= 1
                    continue
                return head[0]
            if self._size:
                # Like run(): a cascade may park entries in _cur even when
                # _advance reports no newly-drained slot, so recheck _cur
                # rather than trusting the return value.
                self._advance()
                if cur:
                    continue
            return None

    def pending_events(self) -> int:
        """Number of not-yet-dispatched events (for tests).

        Tombstones are already-dead entries, not pending work, so they are
        excluded; ready-queue entries count.
        """
        return self._size - self._tombstones + len(self._ready)
