"""Per-layer observation for the traced run.

Two instruments, both installed only around a traced episode:

* :class:`Probe` wraps public entry points of each layer.  A wrapper
  counts the call and, for calls that take virtual time, records a
  *span*: its duration and its self time (duration minus the spans
  nested in it on the same simulated thread).  Wrappers only read
  ``kernel.now`` -- no sleeps, no RNG draws -- so a traced episode's
  virtual-clock outputs are bit-identical to an untraced one's, which
  ``run.py`` asserts.
* :class:`Profiler` charges host CPU to packages.  Every simulated
  thread is an OS thread, so a profile of the main thread alone would
  see only lock waits; the profiler installs itself in every thread
  (``threading.setprofile``) and charges each thread's CPU time
  (``time.thread_time``, which does not advance while a thread is
  blocked in a lock ``acquire``) to the ``repro.<package>`` -- or
  stdlib ``threading`` -- of the innermost such frame.  C builtins
  (pickle, numpy ufuncs) and third-party Python frames are charged to
  the package that called them.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict

from repro.core.cloud_thread import CloudThread
from repro.core.sync import CyclicBarrier
from repro.dso.cache import is_readonly
from repro.dso.layer import DsoLayer
from repro.dso.txn import Txn
from repro.errors import ThrottlingError
from repro.faas.platform import FaasPlatform
from repro.metrics.recorder import percentile
from repro.net.network import Network
from repro.simulation.kernel import Kernel

#: Layers whose host CPU is reported; other packages (and the
#: benchmark's own code) land in ``other``.
LAYERS = ("simulation", "dso", "net", "faas", "core", "cluster",
          "workload", "ml", "trace")

_THREADING_FILE = os.path.normcase(threading.__file__)


def _package(filename: str) -> str | None:
    """Bucket of a code object's file, or ``None`` to inherit."""
    path = os.path.normcase(filename)
    if path == _THREADING_FILE:
        return "threading"
    parts = path.replace(os.sep, "/").split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        package = parts[index + 1] if index + 1 < len(parts) else ""
        return package if package in LAYERS else "other"
    if os.path.dirname(path) == os.path.dirname(
            os.path.normcase(os.path.abspath(__file__))):
        return "other"
    return None


class _ThreadProfile:
    """One OS thread's CPU seconds per bucket (see :class:`Profiler`)."""

    def __init__(self, buckets: dict[str, str | None], current: str):
        self.buckets = buckets
        self.totals: dict[str, float] = defaultdict(float)
        self.stack: list[str] = []
        self.current = current
        self.mark = time.thread_time()

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code.co_filename
            bucket = self.buckets.get(code, 0)
            if bucket == 0:
                bucket = self.buckets[code] = _package(code)
            self.stack.append(self.current)
            if bucket is not None and bucket != self.current:
                self._switch(bucket)
        elif event == "return" and self.stack:
            bucket = self.stack.pop()
            if bucket != self.current:
                self._switch(bucket)

    def _switch(self, bucket: str) -> None:
        now = time.thread_time()
        self.totals[self.current] += now - self.mark
        self.mark = now
        self.current = bucket


class Profiler:
    """Self CPU seconds per package, summed over every OS thread."""

    def __init__(self):
        self._buckets: dict[str, str | None] = {}
        self._threads: list[_ThreadProfile] = []

    def _install_here(self, frame=None, event=None, arg=None) -> None:
        # A new thread starts inside threading's bootstrap; the thread
        # that installs the profiler is the benchmark's own.
        profile = _ThreadProfile(
            self._buckets, "other" if event is None else "threading")
        self._threads.append(profile)
        sys.setprofile(profile.hook)
        if event is not None:
            profile.hook(frame, event, arg)

    @contextmanager
    def installed(self):
        threading.setprofile(self._install_here)
        self._install_here()
        try:
            yield self
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for profile in list(self._threads):
            for bucket, seconds in list(profile.totals.items()):
                out[bucket] += seconds
        return out


class Probe:
    """Counters and virtual-time spans around public entry points."""

    def __init__(self):
        self.profiler = Profiler()
        self.active = False
        self.kernel: Kernel | None = None
        self.env = None
        self.counts: Counter = Counter()
        #: span name -> virtual durations, seconds
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: layer -> virtual self seconds
        self.self_vs: dict[str, float] = defaultdict(float)
        self.peak_threads = 0
        self._stacks: dict[int, list[float]] = {}
        self._before: dict = {}
        self._after: dict = {}
        self.rent = None
        self.scale_events: list = []

    # -- phase boundaries (called by the workload) -------------------------

    def _snapshot(self) -> dict:
        env = self.env
        return {
            "wall": time.perf_counter(),
            "cpu": self.profiler.totals(),
            "dso": asdict(env.dso.stats),
            "bytes": env.network.bytes_sent,
            "records": len(env.platform.records),
        }

    def begin(self, env) -> None:
        self.env = env
        self.kernel = env.kernel
        self._before = self._snapshot()
        self.active = True

    def end(self) -> None:
        self.active = False
        self._after = self._snapshot()

    def observe(self, rent=None, scale_events=()) -> None:
        """Public stats objects that exist only inside the workload."""
        self.rent = rent
        self.scale_events = list(scale_events)

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name: str, original):
        probe = self

        def wrapper(*args, **kwargs):
            if probe.active:
                probe.counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _spanned(self, layer: str, name, original, on_error=None):
        """Wrap ``original`` in a span; ``name`` may be a callable of
        the call's arguments."""
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.active:
                return original(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            stack = probe._stacks.setdefault(threading.get_ident(), [])
            stack.append(0.0)
            start = probe.kernel.now
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and isinstance(exc, on_error):
                    probe.counts[f"{label}.errors"] += 1
                raise
            finally:
                duration = probe.kernel.now - start
                nested = stack.pop()
                probe.self_vs[layer] += duration - nested
                if stack:
                    stack[-1] += duration
                probe.durations[label].append(duration)

        return wrapper

    def _spawn(self, original):
        probe = self

        def spawn(*args, **kwargs):
            thread = original(*args, **kwargs)
            if probe.active:
                probe.counts["simulation.spawns"] += 1
                probe.peak_threads = max(probe.peak_threads,
                                         threading.active_count())
            return thread

        return spawn

    @staticmethod
    def _invoke_kind(layer, client, ref, method, *args, **kwargs) -> str:
        ctor = kwargs.get("ctor", args[2] if len(args) > 2 else None)
        read = method.startswith("get") or (
            ctor is not None and is_readonly(ctor[0], method))
        return "dso.invoke.read" if read else "dso.invoke.write"

    @contextmanager
    def installed(self):
        """Patch the wrappers in and run the profiler; undo on exit."""
        patches = [
            (Kernel, "spawn", self._spawn),
            (Kernel, "schedule_wakeup",
             lambda f: self._counted("simulation.wakeups", f)),
            (Kernel, "call_later",
             lambda f: self._counted("simulation.timers", f)),
            (DsoLayer, "invoke",
             lambda f: self._spanned("dso", self._invoke_kind, f)),
            (DsoLayer, "invoke_async",
             lambda f: self._spanned("dso", "dso.invoke_async", f)),
            (DsoLayer, "flush",
             lambda f: self._spanned("dso", "dso.flush", f)),
            (Txn, "commit", lambda f: self._spanned("dso", "dso.txn", f)),
            (Network, "transfer",
             lambda f: self._spanned("net", "net.transfer", f)),
            (FaasPlatform, "invoke",
             lambda f: self._spanned("faas", "faas.invoke", f,
                                     on_error=ThrottlingError)),
            (CloudThread, "start",
             lambda f: self._spanned("core", "core.cloud_thread", f)),
            (CyclicBarrier, "wait",
             lambda f: self._spanned("core", "core.barrier.wait", f)),
        ]
        originals = [(cls, attr, cls.__dict__[attr])
                     for cls, attr, _ in patches]
        for cls, attr, make in patches:
            setattr(cls, attr, make(cls.__dict__[attr]))
        try:
            with self.profiler.installed():
                yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    # -- report ----------------------------------------------------------------

    def report(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of the measured phase (units: BENCHMARK.json)."""
        before, after = self._before, self._after
        dso = {k: after["dso"][k] - before["dso"][k] for k in after["dso"]}
        cpu = defaultdict(float)
        for bucket, seconds in after["cpu"].items():
            cpu[bucket] = seconds - before["cpu"].get(bucket, 0.0)
        wall = after["wall"] - before["wall"]
        records = self.env.platform.records[
            before["records"]:after["records"]]
        counts, durations = self.counts, self.durations

        def ms(name: str, q: float) -> float:
            values = durations.get(name)
            return percentile(values, q) * 1000 if values else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        net = durations.get("net.transfer", [])
        barrier = durations.get("core.barrier.wait", [])
        out = {
            "simulation.spawns": counts["simulation.spawns"],
            "simulation.wakeups": counts["simulation.wakeups"],
            "simulation.wakeups_per_op": ratio(
                counts["simulation.wakeups"], ops),
            "simulation.timers": counts["simulation.timers"],
            "simulation.peak_os_threads": self.peak_threads,
            "simulation.switch_s": wall - sum(cpu.values()),
            "dso.invocations": dso["invocations"],
            "dso.retries": dso["retries"],
            "dso.first_try_ratio": ratio(
                dso["invocations"], dso["invocations"] + dso["retries"]),
            "dso.batches": dso["batches"],
            "dso.batch_fill": ratio(dso["pipelined_ops"], dso["batches"]),
            "dso.txns_committed": dso["txns_committed"],
            "dso.txns_aborted": dso["txns_aborted"],
            "dso.invoke.read.p50_ms": ms("dso.invoke.read", 50),
            "dso.invoke.read.p99_ms": ms("dso.invoke.read", 99),
            "dso.invoke.write.p50_ms": ms("dso.invoke.write", 50),
            "dso.invoke.write.p99_ms": ms("dso.invoke.write", 99),
            "dso.flush.p99_ms": ms("dso.flush", 99),
            "dso.txn.p99_ms": ms("dso.txn", 99),
            "dso.self_vs": self.self_vs["dso"],
            "net.transfers": len(net),
            "net.bytes": after["bytes"] - before["bytes"],
            "net.delay_vs": sum(net),
            "faas.invocations": len(durations.get("faas.invoke", [])),
            "faas.cold_starts": sum(1 for r in records if r.cold_start),
            "faas.throttled": counts["faas.invoke.errors"],
            "faas.invoke.p50_ms": ms("faas.invoke", 50),
            "faas.invoke.p99_ms": ms("faas.invoke", 99),
            "faas.billed_gb_s": sum(r.billed_duration * r.memory_mb / 1024.0
                                    for r in records),
            "core.cloud_threads": len(durations.get("core.cloud_thread", [])),
            "core.barrier.wait_p50_ms": ms("core.barrier.wait", 50),
            "core.barrier.wait_max_ms": max(barrier, default=0.0) * 1000,
            "cluster.rebalanced_objects": dso["rebalanced_objects"],
            "cluster.node_seconds": (self.rent.node_seconds
                                     if self.rent else 0.0),
            "workload.scale_events": len(self.scale_events),
            "trace.spans": sum(len(v) for v in durations.values()),
        }
        for layer in LAYERS + ("threading", "other"):
            out[f"{layer}.host_s"] = cpu[layer]
        return out
