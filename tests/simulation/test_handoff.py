"""Edge cases of the baton-passing handoff and the OS-thread pool.

The dispatch loop runs in whichever thread is suspending, a thread
whose own wakeup is next resumes without a switch, and simulated
threads borrow pooled OS threads.  These tests pin the stop
conditions, ordering, error and teardown behaviour of those paths.
"""

import os
import resource
import threading

import pytest

from repro.core.runtime import _set_location, current_cpu_share, \
    current_location
from repro.errors import DeadlockError, NotInSimThread, SimulationError
from repro.simulation import Event, Kernel
from repro.simulation import kernel as kernel_mod
from repro.simulation.kernel import current_thread, in_sim_thread
from repro.simulation.thread import SimThread, now, sleep, spawn


@pytest.fixture
def kernel():
    with Kernel(seed=11) as k:
        yield k


# -- stop conditions on the short-circuit path ------------------------------


def test_own_wakeup_past_until_stops_the_run(kernel):
    woke = []

    def ticker():
        for _ in range(5):
            sleep(1.0)
            woke.append(now())

    thread = kernel.spawn(ticker)
    kernel.run(until=2.5)
    # The ticker's next wakeup (t=3) headed the heap when it suspended
    # at t=2, but lies past ``until``: the run stops with it queued.
    assert woke == [1.0, 2.0]
    assert kernel.now == 2.5
    assert len(kernel._heap) == 1
    kernel.run()
    assert woke == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert thread.done


def test_predicate_true_while_own_wakeup_is_next(kernel):
    flag = []
    woke = []

    def worker():
        sleep(1.0)
        flag.append(True)
        sleep(1.0)  # its own wakeup is next, but the run must stop
        woke.append(now())

    kernel.spawn(worker)
    kernel.run_until(lambda: bool(flag))
    assert kernel.now == 1.0
    assert woke == []
    kernel.run()
    assert woke == [2.0]


def test_run_until_limit_on_the_short_circuit_path(kernel):
    def worker():
        while True:
            sleep(1.0)

    kernel.spawn(worker, daemon=True)
    with pytest.raises(SimulationError, match="limit"):
        kernel.run_until(lambda: False, limit=3.5)
    assert kernel.now == 3.5


# -- ordering -----------------------------------------------------------------


def test_timer_and_wakeups_at_one_instant_dispatch_in_seq_order(kernel):
    log = []
    kernel.call_later(1.0, lambda: log.append("t1"))

    def a():
        kernel.call_later(1.0, lambda: log.append("t2"))
        sleep(1.0)
        log.append("a")

    def b():
        kernel.call_later(1.0, lambda: log.append("t3"))
        sleep(1.0)
        log.append("b")

    kernel.spawn(a)
    kernel.spawn(b)
    kernel.run()
    # Sequence numbers: t1 < t2 < a's wakeup < t3 < b's wakeup.
    assert log == ["t1", "t2", "a", "t3", "b"]


def test_compaction_during_short_circuited_dispatches(kernel, monkeypatch):
    from repro.simulation.kernel import _COMPACT_MIN

    compactions = []
    original = kernel._compact
    monkeypatch.setattr(kernel, "_compact",
                        lambda: (compactions.append(len(kernel._heap)),
                                 original()))
    times = []

    def lonely():
        me = current_thread()
        for _ in range(2 * _COMPACT_MIN):
            # Far-future garbage behind the thread's own next wakeup.
            handle = kernel.schedule_wakeup(me, 1e6)
            handle.cancel()
            kernel._cancelled += 1
            me._pending.discard(handle)
            sleep(1e-3)
            times.append(now())

    kernel.run_main(lonely)
    assert compactions, "compaction never ran"
    assert len(kernel._heap) < _COMPACT_MIN
    assert times == sorted(times) and len(times) == 2 * _COMPACT_MIN


# -- errors -------------------------------------------------------------------


def test_thread_raising_while_holding_the_baton_is_reported(kernel):
    def failing():
        sleep(1.0)
        raise ValueError("boom")

    def survivor():
        sleep(2.0)
        return "ok"

    bad = kernel.spawn(failing)
    good = kernel.spawn(survivor)
    kernel.run()
    assert good.result() == "ok"
    assert bad in kernel.failed_threads
    with pytest.raises(ValueError, match="boom"):
        bad.result()


def test_timer_raising_on_a_baton_holder_surfaces_in_the_host(kernel):
    log = []

    def boom():
        raise RuntimeError("timer failed")

    def worker():
        kernel.call_later(0.5, boom)
        sleep(1.0)
        log.append(now())

    kernel.spawn(worker)
    with pytest.raises(RuntimeError, match="timer failed"):
        kernel.run()
    assert kernel.now == 0.5
    # The kernel stays usable: the parked worker resumes on the next run.
    kernel.run()
    assert log == [1.0]


def test_deadlock_detected_when_the_heap_drains_in_a_thread(kernel):
    event = Event(kernel)

    def waiter():
        event.wait()

    def finisher():
        sleep(1.0)

    kernel.spawn(waiter, name="stuck")
    kernel.spawn(finisher)
    with pytest.raises(DeadlockError, match="stuck"):
        kernel.run()


def test_deadlock_detected_by_run_until(kernel):
    event = Event(kernel)
    kernel.spawn(lambda: event.wait(), name="stuck")
    with pytest.raises(DeadlockError):
        kernel.run_until(lambda: False)


# -- execution context ----------------------------------------------------------


def _kernel_context() -> tuple:
    try:
        current_thread()
        raised = False
    except NotInSimThread:
        raised = True
    return (in_sim_thread(), raised, current_location(),
            current_cpu_share())


def test_timer_callbacks_see_no_thread_on_a_baton_holder(kernel):
    seen = []

    def remote():
        _set_location("lambda.container-1", 0.5)
        kernel.call_later(0.5, lambda: seen.append(_kernel_context()))
        sleep(1.0)  # pops the timer while holding the baton
        seen.append((current_location(), current_cpu_share()))
        kernel.call_later(0.0, lambda: seen.append(_kernel_context()))
        # Finishing: the exit path pops this timer on this OS thread.

    kernel.spawn(remote)
    kernel.run()
    assert seen == [(False, True, "client", 1.0),
                    ("lambda.container-1", 0.5),
                    (False, True, "client", 1.0)]


def test_location_does_not_leak_through_a_pooled_os_thread(kernel):
    seen = []

    def remote():
        _set_location("lambda.container-2", 0.25)
        seen.append((threading.get_ident(), current_location()))

    def local():
        seen.append((threading.get_ident(), current_location(),
                     current_cpu_share()))

    def main():
        spawn(remote).join()
        spawn(local).join()

    kernel.run_main(main)
    (first_os, where), (second_os, location, share) = seen
    assert where == "lambda.container-2"
    assert first_os == second_os  # the pooled OS thread was reused
    assert (location, share) == ("client", 1.0)


def test_host_context_reads_client():
    assert (current_location(), current_cpu_share()) == ("client", 1.0)
    assert not in_sim_thread()


# -- OS-thread pool and teardown --------------------------------------------------


def test_threads_bind_an_os_thread_only_when_first_dispatched(kernel):
    thread = kernel.spawn(lambda: None)
    assert thread._resume is None
    kernel.run()
    assert thread.done and len(kernel._idle) == 1


def test_close_joins_every_os_thread(monkeypatch):
    monkeypatch.setattr(kernel_mod, "_POOL_THREADS", 2)
    before = threading.active_count()
    kernel = Kernel(seed=5)
    event = Event(kernel)

    def short(i):
        sleep(0.1 * i)

    def main():
        # Eight concurrent threads: two workers park idle, six retire.
        for thread in [spawn(short, i) for i in range(8)]:
            thread.join()
        spawn(event.wait, name="blocked")  # closed mid-suspend
        sleep(1.0)

    kernel.run_main(main)
    assert len(kernel._idle) == 2 and len(kernel._os_threads) > 3
    SimThread(kernel, lambda: None)  # never started
    kernel.spawn(lambda: None)  # started, never dispatched
    assert threading.active_count() > before
    kernel.close()
    assert threading.active_count() == before


def test_close_without_running_starts_no_os_thread():
    before = threading.active_count()
    kernel = Kernel(seed=5)
    pending = [kernel.spawn(sleep, 1.0) for _ in range(3)]
    kernel.close()
    assert threading.active_count() == before
    assert all(thread.done for thread in pending)
    assert not kernel.failed_threads


# -- worker scheduling policy -------------------------------------------------


def _batch_policy_allowed() -> bool:
    """True when a fresh OS thread may move itself to SCHED_BATCH."""
    if not hasattr(os, "SCHED_BATCH"):
        return False
    allowed = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:
            allowed.append(False)
        else:
            allowed.append(os.sched_getscheduler(0) == os.SCHED_BATCH)

    helper = threading.Thread(target=probe)
    helper.start()
    helper.join()
    return allowed[0]


needs_batch_policy = pytest.mark.skipif(
    not _batch_policy_allowed(),
    reason="SCHED_BATCH is missing or refused on this host")


@needs_batch_policy
def test_workers_run_batch_and_the_host_keeps_its_policy():
    host_policy = os.sched_getscheduler(0)
    kernel = Kernel(seed=3)

    def main():
        sleep(1.0)
        return os.sched_getscheduler(0)

    assert kernel.run_main(main) == os.SCHED_BATCH
    assert os.sched_getscheduler(0) == host_policy
    kernel.close()
    assert os.sched_getscheduler(0) == host_policy


@needs_batch_policy
def test_one_context_switch_per_wakeup_on_one_cpu():
    """A woken batch worker waits for its waker to block instead of
    preempting it and bouncing off the GIL it still holds; under the
    default policy this loop makes about 3.2 switches per wakeup."""
    threads, rounds = 16, 130

    def sleeper(period):
        for _ in range(rounds):
            sleep(period)

    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        with Kernel(seed=3) as kernel:
            for i in range(threads):
                kernel.spawn(sleeper, 0.001 * (1 + i % 3))
            before = resource.getrusage(resource.RUSAGE_SELF)
            kernel.run()
            after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        os.sched_setaffinity(0, saved)
    wakeups = threads * (rounds + 1)  # first dispatch + one per sleep
    assert wakeups >= 2000
    switches = (after.ru_nvcsw - before.ru_nvcsw
                + after.ru_nivcsw - before.ru_nivcsw)
    assert switches / wakeups <= 1.5
