"""Simulated threads: ordinary blocking code driven by the kernel.

A :class:`SimThread` executes ordinary blocking Python code on an OS
thread from its kernel's pool.  Whenever it calls a simulation
primitive (sleep, event wait, lock acquire...), it runs the kernel's
dispatch loop itself until the loop wakes another thread, then parks on
its gate -- a raw lock held closed -- until a later baton holder opens
it at the right virtual time.  When its own wakeup is next it simply
continues.  Exactly one simulated thread runs at any instant (see
:mod:`repro.simulation.kernel`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimShutdown, SimulationError
from repro.simulation import kernel as _kernel_mod

# Sentinel wake values used by primitives.
TIMEOUT = object()
INTERRUPT = object()


class SimThread:
    """A simulated thread of execution.

    Mirrors the essentials of ``threading.Thread``: ``start``, ``join``,
    ``name``, ``daemon`` — plus ``result()`` to retrieve the target's
    return value (re-raising its exception, if any).
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, kernel, target: Callable[..., Any], args=(),
                 kwargs=None, name: str | None = None, daemon: bool = False):
        self.kernel = kernel
        self.target = target
        self.args = args
        self.kwargs = kwargs or {}
        self.tid = next(SimThread._ids)
        self.name = name or f"simthread-{self.tid}"
        self.daemon = daemon
        self.done = False
        self.started = False
        self.exception: BaseException | None = None
        self._result: Any = None
        self._observed = False  # result()/join() was called
        #: Gate of the pooled OS thread running this thread, bound on
        #: its first dispatch (``None`` before).
        self._resume = None
        self._pending: set = set()  # outstanding Wakeups
        self._wake_value: Any = None
        self._shutdown = False
        self._joiners: list[SimThread] = []
        #: Execution site maintained by :mod:`repro.core.runtime`: the
        #: network endpoint and CPU share this thread runs with.
        self.location = "client"
        self.cpu_share = 1.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SimThread":
        if self.started:
            raise SimulationError(f"{self.name} already started")
        self.started = True
        self.kernel._register(self)
        self.kernel.schedule_wakeup(self, 0.0, recycle=True)
        return self

    def _main(self) -> None:
        """Run the target on the calling pooled OS thread (the kernel's
        first dispatch of this thread opened its gate)."""
        _kernel_mod._context.thread = self
        try:
            if not self._shutdown:
                self._result = self.target(*self.args, **self.kwargs)
        except SimShutdown:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported via result()
            self.exception = exc
        self._finish()
        _kernel_mod._context.thread = None

    def _finish(self) -> None:
        """Mark the thread done, wake its joiners and unregister it."""
        self.done = True
        self._cancel_pending()
        if not self._shutdown:
            for joiner in self._joiners:
                self.kernel.schedule_wakeup(joiner, 0.0, self, recycle=True)
            self._joiners.clear()
        self.kernel._unregister(self)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.on_thread_exit(self)

    # -- suspension protocol -------------------------------------------------

    def _suspend(self) -> Any:
        """Block until the kernel delivers the next wakeup.

        Must be called by the thread itself, after having scheduled (or
        registered for) at least one wakeup.  Runs the dispatch loop
        while holding the baton, then parks unless its own wakeup came
        next.  Returns the wakeup value.
        """
        if self._shutdown:
            raise SimShutdown()
        kernel = self.kernel
        try:
            resumed = kernel._advance(self)
        except BaseException as exc:  # noqa: BLE001 - host re-raises
            kernel._fail(exc)
            resumed = False
        if not resumed:
            self._resume.acquire()
            if self._shutdown:
                raise SimShutdown()
        value = self._wake_value
        self._wake_value = None
        return value

    def _cancel_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        for wakeup in pending:
            wakeup.cancelled = True
        self.kernel._cancelled += len(pending)
        pending.clear()

    # -- blocking API ----------------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Advance this thread's virtual time by ``duration`` seconds."""
        self.kernel.schedule_wakeup(self, duration, recycle=True)
        self._suspend()
        self._cancel_pending()

    def join(self, timeout: float | None = None) -> None:
        """Block until this thread finishes.

        Re-raises the target's exception in the joiner — the behaviour
        of Crucial's CloudThread, where remote failures propagate to
        the caller — unlike ``threading.Thread.join``.
        """
        caller = _kernel_mod.current_thread()
        if caller is self:
            raise SimulationError("a thread cannot join itself")
        if not self.done:
            self._joiners.append(caller)
            handle = None
            if timeout is not None:
                handle = self.kernel.schedule_wakeup(caller, timeout, TIMEOUT)
            value = caller._suspend()
            caller._cancel_pending()
            if value is TIMEOUT:
                if caller in self._joiners:
                    self._joiners.remove(caller)
                from repro.errors import SimTimeoutError
                raise SimTimeoutError(f"join({self.name}) timed out")
            if handle is not None:
                handle.cancel()
        self._observed = True
        if self.exception is not None:
            raise self.exception

    def result(self) -> Any:
        """Return the target's return value; re-raise its exception."""
        if not self.done:
            raise SimulationError(f"{self.name} has not finished")
        self._observed = True
        if self.exception is not None:
            raise self.exception
        return self._result


def sleep(duration: float) -> None:
    """Suspend the calling simulated thread for ``duration`` seconds."""
    _kernel_mod.current_thread().sleep(duration)


def now() -> float:
    """Virtual time seen by the calling simulated thread."""
    return _kernel_mod.current_kernel().now


def spawn(target: Callable[..., Any], *args, name: str | None = None,
          daemon: bool = False, **kwargs) -> SimThread:
    """Spawn a sibling simulated thread from inside simulated code."""
    return _kernel_mod.current_kernel().spawn(
        target, *args, name=name, daemon=daemon, **kwargs)
