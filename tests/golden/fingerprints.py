"""Behavioural fingerprints: small seeded runs reduced to exact values.

Each function runs one deterministic scenario and returns a flat
``{field: value}`` dict of virtual-clock outputs only -- never wall
time -- so the values are a pure function of the code's modelled
behaviour.  ``golden.json`` holds the values the code produced when
they were last regenerated; ``test_golden.py`` diffs a fresh run
against it field by field.

A change that reorders two same-instant events, shifts an RNG draw or
re-prices a request moves at least one field here, even when every
run-vs-run determinism test still passes.
"""

from __future__ import annotations

import struct
import zlib

from repro.core.runtime import CrucialEnvironment
from repro.dso.reference import DsoReference
from repro.errors import CloudError
from repro.metrics.cost import CostLedger
from repro.simulation.thread import spawn


def latency_crc(latencies) -> str:
    """CRC-32 of the exact bit patterns of ``latencies``, in order."""
    payload = struct.pack(f"<{len(latencies)}d", *latencies)
    return f"{zlib.crc32(payload):08x}"


def ledger_fields(ledger: CostLedger) -> dict:
    """Every bill of ``ledger`` plus its total, as flat fields."""
    out = {"cost.total_dollars": ledger.total_dollars}
    for name, bill in sorted(ledger.bills.items()):
        out[f"cost.{name}.requests"] = bill.requests
        out[f"cost.{name}.request_dollars"] = bill.request_dollars
        out[f"cost.{name}.byte_seconds"] = bill.byte_seconds
        out[f"cost.{name}.storage_dollars"] = bill.storage_dollars
    return out


def table2() -> dict:
    """The Table 2 averages exactly as ``python -m repro table2``
    computes them."""
    from repro.harness import table2_latency

    result = table2_latency.run()
    out = {}
    for system, (put, get) in sorted(result.averages.items()):
        out[f"{system}.put"] = put
        out[f"{system}.get"] = get
    return out


def kernel_speed() -> dict:
    """The virtual-time fields of the kernel/pipelining harness."""
    from repro.harness import kernel_speed as harness

    result = harness.run(events=400)
    return {"sync_op_time": result.sync_op_time,
            "pipelined_op_time": result.pipelined_op_time,
            "batches": result.batches}


def serving(seed: int = 17, duration: float = 3.0) -> dict:
    """A short autoscaled open-loop run of the serving harness's
    workload: one spawned thread per arrival, FaaS and DSO tenants."""
    from repro.harness.serving import (
        _bill_lambda,
        serving_config,
        serving_policy,
        serving_tenants,
    )
    from repro.workload.autoscaler import Autoscaler, NodeRentMeter
    from repro.workload.generator import OpenLoopGenerator, RateProfile

    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            config=serving_config()) as env:
        rent = NodeRentMeter(env, env.cost_ledger)

        def main():
            generator = OpenLoopGenerator(
                env, serving_tenants(),
                RateProfile.diurnal(base=50.0, peak=340.0, warmup=0.5,
                                    ramp=1.0, plateau=0.5), duration)
            scaler = Autoscaler(env, generator.metrics,
                                policy=serving_policy(),
                                ledger=env.cost_ledger, rent=rent).start()
            metrics = generator.run()
            scaler.stop()
            env.cost_ledger.settle()
            _bill_lambda(env)
            return metrics

        metrics = env.run(main)
        records = metrics.records
        return {
            "requests": len(records),
            "errors": metrics.errors,
            "acked": metrics.total_acked,
            "latency_crc": latency_crc([r.latency for r in records]),
            "ok_crc": f"{zlib.crc32(bytes(r.ok for r in records)):08x}",
            "end_time": env.now,
            **ledger_fields(env.cost_ledger),
        }


class _Counter:
    def __init__(self):
        self.value = 0

    def get(self) -> int:
        return self.value

    def incr(self) -> int:
        self.value += 1
        return self.value


_CTOR = (_Counter, (), {})


def oltp(seed: int = 3, clients: int = 6, vseconds: float = 0.08) -> dict:
    """Closed-loop clients on rf=2 counters: sync gets and incrs,
    pipelined batches and two-cell transactions."""
    from repro.workload.autoscaler import NodeRentMeter

    with CrucialEnvironment(seed=seed, dso_nodes=3) as env:
        dso = env.dso
        NodeRentMeter(env, env.cost_ledger)
        latencies: list[float] = []

        def ref(rank: int) -> DsoReference:
            return DsoReference("_Counter", f"golden-{rank:02d}",
                                persistent=True, rf=2)

        def client_loop(index: int, t0: float) -> None:
            endpoint = f"golden-client-{index}"
            env.network.ensure_endpoint(endpoint)
            rng = env.kernel.rng.stream(f"golden.oltp.{index}")
            while env.now - t0 < vseconds:
                issued = env.now
                choice = float(rng.random())
                try:
                    if choice < 0.7:
                        method = "get" if choice < 0.35 else "incr"
                        dso.invoke(endpoint, ref(int(rng.integers(16))),
                                   method, ctor=_CTOR)
                    elif choice < 0.85:
                        for _ in range(4):
                            dso.invoke_async(endpoint,
                                             ref(int(rng.integers(16))),
                                             "incr", ctor=_CTOR)
                        dso.flush(endpoint)
                    else:
                        with dso.transaction(endpoint, rf=2) as txn:
                            for cell in (2 * index, 2 * index + 1):
                                key = f"golden-cell-{cell}"
                                txn.write(key, txn.read(key) + 1)
                except CloudError:
                    latencies.append(-1.0)
                    continue
                latencies.append(env.now - issued)

        def main():
            client = env.client_endpoint
            for rank in range(16):
                dso.invoke(client, ref(rank), "get", ctor=_CTOR)
            with dso.transaction(client, rf=2) as txn:
                for cell in range(2 * clients):
                    txn.write(f"golden-cell-{cell}", 0)
            t0 = env.now
            threads = [spawn(client_loop, i, t0) for i in range(clients)]
            for thread in threads:
                thread.join()
            env.cost_ledger.settle()
            return sum(dso.invoke(client, ref(rank), "get")
                       for rank in range(16))

        total = env.run(main)
        return {
            "ops": len(latencies),
            "latency_crc": latency_crc(latencies),
            "counter_total": total,
            "end_time": env.now,
            "dso.invocations": env.dso.stats.invocations,
            "dso.batches": env.dso.stats.batches,
            "net.bytes": env.network.bytes_sent,
            **ledger_fields(env.cost_ledger),
        }


def explore() -> dict:
    """Schedule-trace CRCs of the exploration mode's three strategies
    on a three-writer counter workload."""
    from repro import AtomicLong, ExplorationRunner

    def workload(trial):
        with trial.environment(dso_nodes=2) as env:
            def main():
                counter = AtomicLong("golden-counter")
                counter.get()
                workers = [spawn(lambda: [counter.add_and_get(1)
                                          for _ in range(3)],
                                 name=f"w{i}") for i in range(3)]
                for worker in workers:
                    worker.join()
                return counter.get()

            return env.run(main)

    out = {}
    for kind, opts in (("fifo", {}),
                       ("random", {"preempt_prob": 0.2}),
                       ("pct", {})):
        report = ExplorationRunner(workload, trials=3, scheduler=kind,
                                   scheduler_opts=opts, shrink=False).run()
        for result in report.results:
            tag = f"{kind}.{result.index}"
            out[f"{tag}.crc"] = result.fingerprint
            out[f"{tag}.points"] = len(result.schedule)
            out[f"{tag}.value"] = result.value
    return out


def kmeans(seed: int = 5, workers: int = 4, k: int = 5,
           iterations: int = 3) -> dict:
    """Crucial k-means (Listing 2) and MLlib k-means on one small
    dataset.  Only virtual outputs are pinned: centroid values may move
    by ulps whenever the numpy kernel is rewritten, but no modelled
    time, byte or dollar may."""
    from repro.ml.dataset import MLDataset
    from repro.ml.kmeans import CrucialKMeans
    from repro.net import LatencyModel, Network
    from repro.simulation.kernel import Kernel
    from repro.sparklike import KMeansMLlib, SparkCluster
    from repro.storage import ObjectStore

    def dataset() -> MLDataset:
        return MLDataset("kmeans", partitions=workers,
                         materialized_points=300, seed=seed,
                         nominal_points=200_000, nominal_bytes=4 * 10 ** 7)

    def timings(prefix: str, result) -> dict:
        return {f"{prefix}.latency_crc": latency_crc(result.per_iteration),
                f"{prefix}.total_time": result.total_time,
                f"{prefix}.load_time": result.load_time,
                f"{prefix}.iteration_phase_time":
                    result.iteration_phase_time}

    def prefixed(prefix: str, fields: dict) -> dict:
        return {f"{prefix}.{name}": value for name, value in fields.items()}

    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            function_memory_mb=2048) as env:
        job = CrucialKMeans(dataset(), k=k, iterations=iterations,
                            workers=workers, run_id="golden-kmeans")
        result = env.run(job.train)
        env.cost_ledger.settle()
        out = {**timings("crucial", result),
               "crucial.iterations": result.iterations,
               "crucial.net.bytes": env.network.bytes_sent,
               "crucial.net.messages": env.network.messages_sent,
               "crucial.dso.invocations": env.dso.stats.invocations,
               **prefixed("crucial", ledger_fields(env.cost_ledger))}

    with Kernel(seed=seed) as kernel:
        network = Network(kernel, LatencyModel(0.0002))
        cluster = SparkCluster(kernel, network)
        store = ObjectStore(kernel)
        algorithm = KMeansMLlib(cluster, k=k, iterations=iterations)
        fit = kernel.run_main(lambda: algorithm.train(dataset(), store))
        store.settle()
        out.update({**timings("mllib", fit),
                    "mllib.net.bytes": network.bytes_sent,
                    "mllib.net.messages": network.messages_sent,
                    **prefixed("mllib", ledger_fields(store.ledger))})
    return out


FINGERPRINTS = {
    "table2": table2,
    "kernel_speed": kernel_speed,
    "serving": serving,
    "oltp": oltp,
    "explore": explore,
    "kmeans": kmeans,
}
