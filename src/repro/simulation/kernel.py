"""The discrete-event kernel: a virtual clock plus a wakeup heap.

Simulated threads are real OS threads, but exactly one of them -- or
the host thread that called :meth:`Kernel.run` -- executes at any
instant, so execution is effectively single-threaded and, given seeded
RNGs, fully deterministic.

Handoff.  Every party owns a *gate*: a raw ``_thread`` lock held
closed.  Releasing a gate lets its owner's blocked ``acquire`` return,
which closes it again, so one release is exactly one wakeup.  The host
owns ``Kernel._control``; a simulated thread borrows the gate of the
pooled OS thread it runs on (``SimThread._resume``).

The dispatch loop has no home thread (*baton passing*).  It runs in
whichever thread is about to block: a simulated thread suspending on a
primitive or finishing, or the host when ``run`` starts.  That thread
pops events in ``(time, seq)`` order, running timer callbacks in place,
until one wakes a thread.  A wakeup of the suspending thread itself
returns at once, with no switch; any other opens that thread's gate and
the caller blocks on its own.  Only when the run must stop -- ``until``
or ``limit`` reached, ``run_until``'s predicate true, or the heap empty
-- is the host's gate opened.  Each wakeup therefore costs at most one
handoff between OS threads, where a host-centred loop pays two.

Wakeup preemption.  A waker always blocks on its own gate right after
opening the wakee's, still holding the GIL.  Under the default Linux
policy the freshly woken thread preempts it anyway, finds the GIL
held, blocks again, and the OS switches back: on one CPU of a 2-vCPU
VM that measured about 3.2 OS context switches per wakeup, not one.
Each pooled worker therefore moves itself to ``SCHED_BATCH``, under
which a wakeup does not preempt the running thread; the wakee runs
once the waker blocks.  The host thread's policy is never touched.
"""

from __future__ import annotations

import _thread
import heapq
import itertools
import os
import threading
from typing import Any, Callable, Iterable

from repro.errors import DeadlockError, NotInSimThread, SimulationError
from repro.simulation.rng import RngRegistry

#: ``_context.thread``: the SimThread an OS thread is executing, unset
#: in the host and cleared around timer callbacks.
_context = threading.local()

#: Cap on the Wakeup free list; beyond this, surplus events are left to
#: the garbage collector (a pool larger than the live heap is pure waste).
_POOL_MAX = 1024

#: Idle OS threads a kernel keeps for reuse.  A finished simulated
#: thread's OS thread parks for the next spawn unless this many already
#: wait, in which case it exits; peak OS threads still track peak live
#: simulated threads.
_POOL_THREADS = 128

#: Compaction trigger: once at least this many cancelled events sit in
#: the heap *and* they make up half of it, the dispatch loop rebuilds.
_COMPACT_MIN = 512


def current_kernel() -> "Kernel":
    """Return the kernel driving the calling simulated thread."""
    thread = getattr(_context, "thread", None)
    if thread is None:
        raise NotInSimThread("no simulation kernel in this context")
    return thread.kernel


def current_thread() -> "SimThread":
    """Return the simulated thread executing the caller."""
    thread = getattr(_context, "thread", None)
    if thread is None:
        raise NotInSimThread("not running inside a simulated thread")
    return thread


def in_sim_thread() -> bool:
    """True when the caller runs inside a simulated thread."""
    return getattr(_context, "thread", None) is not None


class Wakeup:
    """A scheduled resumption of a simulated thread.

    ``value`` is handed to the thread as the result of its suspension,
    letting primitives distinguish e.g. a timeout from a notification.

    ``recycle`` marks wakeups whose handle never escapes the scheduling
    call site (sleeps, primitive notifications): the kernel returns
    those to a free pool once they leave the heap, so the dominant
    event type allocates ~once instead of once per dispatch.
    """

    __slots__ = ("thread", "value", "cancelled", "time", "recycle")

    #: Dispatch discriminator, cheaper than ``isinstance`` per pop.
    is_timer = False

    def __init__(self, thread: "SimThread", value: Any, time: float,
                 recycle: bool = False):
        self.thread = thread
        self.value = value
        self.time = time
        self.cancelled = False
        self.recycle = recycle

    def cancel(self) -> None:
        self.cancelled = True


class Timer:
    """A scheduled callback executed in kernel context (non-blocking).

    Timer handles are returned to callers (who may hold them across
    suspension points and cancel them much later), so timers are never
    pooled — recycling one under a live handle would let a stale
    ``cancel()`` kill an unrelated event.
    """

    __slots__ = ("callback", "cancelled", "time")

    is_timer = True
    recycle = False

    def __init__(self, callback: Callable[[], None], time: float):
        self.callback = callback
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _Worker:
    """A pooled OS thread and its gate; ``sim`` is the SimThread it is
    to run next (``None`` tells it to exit)."""

    __slots__ = ("gate", "sim")

    def __init__(self):
        self.gate = _thread.allocate_lock()
        self.gate.acquire()
        self.sim = None


class Kernel:
    """Virtual-time scheduler for simulated threads and timers.

    ``scheduler`` — an object implementing the
    :class:`repro.explore.Scheduler` protocol — turns every dispatch
    into an explicit *scheduling point*: all events ready at the
    minimum virtual time are offered to it, and it picks which one runs
    (and may delay it by a bounded amount).  ``None`` (the default)
    keeps the historical FIFO ``(time, seq)`` order with zero overhead;
    :class:`repro.explore.FifoScheduler` reproduces it decision-by-
    decision, which is what makes schedule exploration a strict
    generalisation of the deterministic kernel rather than a fork.
    """

    def __init__(self, seed: int = 0, name: str = "sim", scheduler=None):
        self.name = name
        self.rng = RngRegistry(seed)
        #: Optional schedule-exploration hook (repro.explore).
        self.scheduler = scheduler
        # Deferred import: repro.trace imports this module at its top.
        from repro.trace.tracer import NULL_TRACER

        #: The active tracer; a shared no-op :class:`NullTracer` until
        #: :meth:`enable_tracing` installs a real one.  Tracing only
        #: *observes* the clock — enabling it never changes timestamps.
        self.tracer = NULL_TRACER
        self._now = 0.0
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, object]] = []
        self._threads: set = set()  # live SimThreads
        #: The host's gate, opened when a run must stop (see module doc).
        self._control = _thread.allocate_lock()
        self._control.acquire()
        #: The current run's stop conditions, read by every baton holder.
        self._bound: float | None = None
        self._predicate: Callable[[], bool] | None = None
        #: Why the last run stopped: "done", "bound" or "drained".
        self._stopped = ""
        #: An exception raised in a baton holder, re-raised by the host.
        self._error: BaseException | None = None
        #: Idle pooled workers, and every OS thread started that may
        #: still be alive (joined by :meth:`close`).
        self._idle: list[_Worker] = []
        self._os_threads: list[threading.Thread] = []
        self._closed = False
        self._failed: list = []  # threads that died with an exception
        #: Free list of recyclable Wakeups (see :class:`Wakeup`).
        self._wakeup_pool: list = []
        #: Cancelled events still sitting in the heap (approximate:
        #: counted where cancellation is cheap to observe).  When the
        #: count dominates the heap the dispatch loop compacts, so a
        #: workload cancelling far-future timeouts cannot degrade every
        #: subsequent push/pop to O(log garbage).
        self._cancelled = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- tracing ----------------------------------------------------------

    def enable_tracing(self, service: str = "repro"):
        """Attach a :class:`repro.trace.Tracer` and return it.

        Idempotent: a second call returns the already-installed tracer.
        """
        from repro.trace.tracer import Tracer

        if not self.tracer.enabled:
            self.tracer = Tracer(self, service=service)
        return self.tracer

    # -- scheduling -------------------------------------------------------

    def schedule_wakeup(self, thread, delay: float, value: Any = None,
                        recycle: bool = False) -> Wakeup:
        """Schedule ``thread`` to resume after ``delay`` virtual seconds.

        ``recycle=True`` is an optimisation contract offered by the
        call site: it promises the returned handle is never retained
        across a suspension point, letting the kernel pool the Wakeup
        once it has been dispatched (or popped cancelled).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        pool = self._wakeup_pool
        if pool:
            wakeup = pool.pop()
            wakeup.thread = thread
            wakeup.value = value
            wakeup.time = self._now + delay
            wakeup.cancelled = False
            wakeup.recycle = recycle
        else:
            wakeup = Wakeup(thread, value, self._now + delay, recycle)
        heapq.heappush(self._heap, (wakeup.time, next(self._seq), wakeup))
        thread._pending.add(wakeup)
        return wakeup

    def _reclaim(self, item) -> None:
        """Return a recyclable event to the pool once it left the heap."""
        if item.recycle and len(self._wakeup_pool) < _POOL_MAX:
            item.thread = None
            item.value = None
            self._wakeup_pool.append(item)

    def _compact(self) -> None:
        """Drop cancelled events from the heap in one O(n) pass.

        Rebuilds in place (run loops hold a reference to the list), so
        the ``(time, seq)`` dispatch order of live events is unchanged.
        """
        live = []
        for entry in self._heap:
            item = entry[2]
            if item.cancelled:
                self._reclaim(item)
            else:
                live.append(entry)
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled = 0

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` in kernel context after ``delay`` seconds.

        The callback must not block on simulation primitives; spawn a
        thread for blocking work.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        timer = Timer(callback, self._now + delay)
        heapq.heappush(self._heap, (timer.time, next(self._seq), timer))
        return timer

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        return self.call_later(max(0.0, when - self._now), callback)

    def spawn(self, target: Callable[..., Any], *args, name: str | None = None,
              daemon: bool = False, **kwargs):
        """Create and start a simulated thread running ``target``."""
        from repro.simulation.thread import SimThread

        thread = SimThread(self, target, args=args, kwargs=kwargs,
                           name=name, daemon=daemon)
        if self.tracer.enabled:
            # Trace-context propagation: the child inherits the
            # spawner's active span as its initial parent.
            self.tracer.on_spawn(thread)
        thread.start()
        return thread

    def spawn_at(self, when: float, target: Callable[..., Any], *args,
                 name: str | None = None, daemon: bool = False,
                 **kwargs) -> Timer:
        """Start a simulated thread once the clock reaches ``when``.

        The fault-injection layer uses this to fire scheduled faults:
        unlike :meth:`call_later` callbacks, the spawned thread may
        block on simulation primitives (e.g. to release parked waiters
        of a crashed node, or to sleep until a fault's end time).
        Returns the :class:`Timer`; cancelling it before ``when``
        prevents the spawn.
        """
        return self.call_at(when, lambda: self.spawn(
            target, *args, name=name, daemon=daemon, **kwargs))

    # -- main loop --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Dispatch events until the heap drains or ``until`` is reached.

        Raises :class:`DeadlockError` if the heap drains while
        non-daemon threads remain blocked.
        """
        if self._drive(until, None) == "drained":
            self._detect_deadlock()

    def run_until(self, predicate: Callable[[], bool],
                  limit: float | None = None) -> None:
        """Dispatch events until ``predicate()`` holds.

        With ``limit``, the head event's time is checked *before* it is
        popped, so hitting the limit raises with the event still queued
        — a later ``run``/``run_until`` call on the same kernel will
        dispatch it.
        """
        stopped = self._drive(limit, predicate)
        if stopped == "bound":
            raise SimulationError(
                f"condition not met by virtual time limit {limit}")
        if stopped == "drained":
            self._detect_deadlock()
            raise SimulationError(
                "event queue drained before condition was met")

    def _drive(self, bound: float | None,
               predicate: Callable[[], bool] | None) -> str:
        """Run the dispatch loop from the host until it stops; returns
        why (see ``_stopped``)."""
        self._check_host_context()
        self._bound = bound
        self._predicate = predicate
        self._advance(None)
        self._control.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error
        return self._stopped

    def _advance(self, me) -> bool:
        """The dispatch loop, run by the baton holder (module doc).

        ``me`` is the suspending SimThread, or ``None`` in the host and
        in a thread that has finished.  Returns ``True`` when ``me``'s
        own wakeup came next: it resumes without a switch.  Otherwise
        exactly one gate has been opened -- a woken thread's, or the
        host's when the run stops -- and the caller must touch no
        kernel state until its own gate opens.
        """
        heap = self._heap
        pop = heapq.heappop
        fast = self.scheduler is None
        bound = self._bound
        predicate = self._predicate
        while True:
            if self._cancelled >= _COMPACT_MIN \
                    and self._cancelled * 2 >= len(heap):
                self._compact()
            if predicate is not None and predicate():
                return self._stop("done")
            if not heap:
                return self._stop("drained")
            time, _, item = heap[0]
            if item.cancelled:
                pop(heap)
                self._reclaim(item)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            if bound is not None and time > bound:
                self._now = bound
                return self._stop("bound")
            if fast:
                pop(heap)
            else:
                item = self._next_event()
                if item is None:
                    continue
            self._now = time
            if item.is_timer:
                if me is None:
                    item.callback()
                else:
                    # Timer callbacks run in kernel context, whichever
                    # thread holds the baton.
                    _context.thread = None
                    try:
                        item.callback()
                    finally:
                        _context.thread = me
                continue
            thread = item.thread
            thread._pending.discard(item)
            value = item.value
            self._reclaim(item)
            if thread.done:
                continue
            thread._wake_value = value
            if thread is me:
                return True
            gate = thread._resume
            if gate is None:
                gate = self._bind(thread)
            gate.release()
            return False

    def _stop(self, reason: str) -> bool:
        self._stopped = reason
        self._control.release()
        return False

    def _fail(self, exc: BaseException) -> None:
        """Hand an exception raised in a baton holder to the host."""
        self._error = exc
        self._control.release()

    def _next_event(self):
        """Pop the event to dispatch next under a scheduler, or ``None``
        to re-examine.

        The caller has checked that the head is live.  Every pop is a
        *scheduling point*: all live events ready at the head's virtual
        time are offered to ``scheduler.decide(time, entries)`` —
        ``entries`` being ``(seq, item)`` pairs in FIFO order — which
        returns the chosen index plus a bounded extra delay.  A positive
        delay re-enqueues the chosen event at ``time + delay`` (a
        preemption: events due within the delay window overtake it) and
        reports ``None`` so the caller re-peeks the heap.
        """
        time, seq, item = heapq.heappop(self._heap)
        batch = [(seq, item)]
        while self._heap and self._heap[0][0] == time:
            _, other_seq, other = heapq.heappop(self._heap)
            if other.cancelled:
                self._reclaim(other)
                if self._cancelled:
                    self._cancelled -= 1
            else:
                batch.append((other_seq, other))
        index, delay = self.scheduler.decide(time, batch)
        chosen_seq, chosen = batch.pop(index)
        for entry_seq, entry in batch:
            heapq.heappush(self._heap, (time, entry_seq, entry))
        if delay > 0:
            chosen.time = time + delay
            heapq.heappush(self._heap,
                           (chosen.time, next(self._seq), chosen))
            return None
        return chosen

    def run_main(self, target: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``target`` as the client application to completion.

        Returns the target's return value; re-raises its exception.
        Other (background) threads keep their state and may be resumed
        by further ``run`` calls.
        """
        thread = self.spawn(target, *args, name="main", **kwargs)
        self.run_until(lambda: thread.done)
        return thread.result()

    def _detect_deadlock(self) -> None:
        blocked = [t.name for t in self._threads if not t.daemon and not t.done]
        if blocked:
            raise DeadlockError(blocked)

    def _check_host_context(self) -> None:
        if in_sim_thread():
            raise SimulationError(
                "Kernel.run() must be called from the host thread, "
                "not from inside a simulated thread")
        if self._closed:
            raise SimulationError("kernel is closed")

    # -- pooled OS threads --------------------------------------------------

    def _bind(self, thread):
        """Give ``thread`` an OS thread on its first dispatch: an idle
        pooled worker, or a new one.  Returns the worker's gate."""
        if self._idle:
            worker = self._idle.pop()
        else:
            worker = _Worker()
            if len(self._os_threads) >= 2 * _POOL_THREADS + len(self._threads):
                # Forget retired workers' exited threads.
                self._os_threads = [t for t in self._os_threads
                                    if t.is_alive()]
            os_thread = threading.Thread(
                target=self._work, args=(worker,), daemon=True,
                name=f"{self.name}-worker")
            self._os_threads.append(os_thread)
            os_thread.start()
        worker.sim = thread
        thread._resume = worker.gate
        return worker.gate

    def _work(self, worker: _Worker) -> None:
        """Body of a pooled OS thread: run one SimThread per opening
        of the gate, passing the baton on after each."""
        try:
            # Module doc, *Wakeup preemption*.  Workers only: the host
            # thread keeps the policy its caller gave it.
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            pass  # not Linux, or refused: keep the default policy
        gate = worker.gate
        while True:
            gate.acquire()
            thread, worker.sim = worker.sim, None
            if thread is None:
                return
            thread._main()
            if self._closed:
                # close() is unwinding threads one at a time.
                self._control.release()
                return
            retire = len(self._idle) >= _POOL_THREADS
            if not retire:
                self._idle.append(worker)
            try:
                self._advance(None)
            except BaseException as exc:  # noqa: BLE001 - host re-raises
                self._fail(exc)
            if retire:
                return

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Tear down every live simulated thread and seal the kernel.

        Blocked threads unwind one at a time (their primitives raise
        :class:`SimShutdown`); every OS thread the kernel started has
        exited by the time this returns.
        """
        if self._closed:
            return
        self._closed = True
        for thread in list(self._threads):
            thread._shutdown = True
        for thread in list(self._threads):
            if thread.done:
                continue
            if thread._resume is None:  # never dispatched: no OS thread
                thread._finish()
                continue
            thread._resume.release()
            self._control.acquire()
        for worker in self._idle:
            worker.gate.release()  # ``sim`` is None: the worker exits
        self._idle.clear()
        for os_thread in self._os_threads:
            os_thread.join()
        self._os_threads.clear()
        self._heap.clear()
        self._threads.clear()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping used by SimThread -------------------------------------

    def _register(self, thread) -> None:
        self._threads.add(thread)

    def _unregister(self, thread) -> None:
        self._threads.discard(thread)
        if thread.exception is not None and not thread._observed:
            self._failed.append(thread)

    @property
    def failed_threads(self) -> Iterable:
        """Threads that died with an unobserved exception."""
        return tuple(self._failed)

