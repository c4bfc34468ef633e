"""The benchmark's three workloads, each one seeded *episode*.

An episode builds a fresh :class:`~repro.core.runtime.CrucialEnvironment`
from one seed, drives it through the public API, audits what it
produced and returns an :class:`Episode`.  Two clocks meet here:

* host time (``time.perf_counter``) splits the episode into set-up --
  environment construction, object pre-creation, dataset
  materialisation -- and the measured phase;
* virtual time (``env.now``) gives the modelled system's latencies,
  throughput and dollars, exactly reproducible for a seed.

Every random draw comes from ``env.kernel.rng`` streams, so the seed
alone fixes the inputs.  A :class:`~probes.Probe` passed in sees the
phase boundaries and the public stats objects; without one the episode
runs bare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.runtime import CrucialEnvironment
from repro.dso.reference import DsoReference
from repro.errors import CloudError
from repro.harness.serving import (
    _bill_lambda,
    serving_config,
    serving_policy,
    serving_tenants,
)
from repro.metrics.recorder import percentile
from repro.ml import math as mlmath
from repro.ml.dataset import MLDataset
from repro.ml.kmeans import CrucialKMeans
from repro.simulation.thread import spawn
from repro.workload.autoscaler import Autoscaler, NodeRentMeter
from repro.workload.distributions import ZipfSampler
from repro.workload.generator import (
    OpenLoopGenerator,
    RateProfile,
    TenantCounter,
)


@dataclass
class Episode:
    """What one seeded run of a workload produced."""

    seed: int
    #: Host seconds before the first measured op / of the measured phase.
    setup_s: float
    host_s: float
    #: Ops attempted and failed (or refused) in the measured phase.
    attempted: int
    failed: int
    #: Virtual per-op latencies, seconds, in completion order.
    latencies: list[float]
    #: Whether each op succeeded, aligned with ``latencies``.
    ok: list[bool]
    #: Virtual measured-phase seconds, from first issue to last
    #: completion; for k-means the iteration phase (``job_s``).
    virtual_s: float
    #: CostLedger total including the Lambda bill, USD.
    dollars: float
    #: Audit failures; empty when every output checked out.
    audit: list[str]

    def fingerprint(self) -> tuple:
        """Every virtual-clock output, for bit-identity checks."""
        return (self.attempted, self.failed, tuple(self.latencies),
                tuple(self.ok), self.virtual_s, self.dollars)


class _Phases:
    """Host-clock split of an episode, forwarded to the probe."""

    def __init__(self, probe):
        self.probe = probe
        self._start = time.perf_counter()
        self.setup_s = self.host_s = 0.0

    def begin(self, env: CrucialEnvironment) -> None:
        now = time.perf_counter()
        self.setup_s = now - self._start
        self._start = now
        if self.probe is not None:
            self.probe.begin(env)

    def end(self) -> None:
        self.host_s = time.perf_counter() - self._start
        if self.probe is not None:
            self.probe.end()


# ---------------------------------------------------------------------------
# serving: the harness/serving.py autoscaled point
# ---------------------------------------------------------------------------

#: The autoscaler's p99 target doubles as the per-request SLO.
SLO_S = serving_policy().slo_p99
#: The diurnal ramp's trough and peak, req/s, and its length, virtual s.
SERVING_BASE_RATE = 50.0
SERVING_PEAK_RATE = 340.0
SERVING_SECONDS = 28.0


def serving(seed: int, probe=None,
            duration: float = SERVING_SECONDS) -> Episode:
    """Open-loop diurnal traffic on an autoscaled 1-4 node grid.

    At the default duration this is ``harness.serving``'s
    ``autoscaled`` point, request for request.
    """
    phases = _Phases(probe)
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            config=serving_config()) as env:
        rent = NodeRentMeter(env, env.cost_ledger)

        def main():
            generator = OpenLoopGenerator(
                env, serving_tenants(),
                RateProfile.diurnal(base=SERVING_BASE_RATE,
                                    peak=SERVING_PEAK_RATE),
                duration)
            scaler = Autoscaler(env, generator.metrics,
                                policy=serving_policy(),
                                ledger=env.cost_ledger, rent=rent)
            phases.begin(env)
            scaler.start()
            t0 = env.now
            metrics = generator.run()
            scaler.stop()
            phases.end()
            env.cost_ledger.settle()
            _bill_lambda(env)
            if probe is not None:
                probe.observe(rent=rent, scale_events=scaler.grid_events())
            return t0, metrics, env.cost_ledger.total_dollars, \
                generator.final_counts()

        t0, metrics, dollars, final = env.run(main)
    records = metrics.records
    audit = []
    if metrics.errors:
        audit.append(f"serving: {metrics.errors} failed requests")
    if sum(final.values()) != metrics.total_acked:
        audit.append(f"serving: final counters sum {sum(final.values())} "
                     f"!= {metrics.total_acked} acknowledged writes")
    last = max((r.finished for r in records), default=t0)
    return Episode(
        seed=seed, setup_s=phases.setup_s, host_s=phases.host_s,
        attempted=len(records), failed=metrics.errors,
        latencies=[r.latency for r in records],
        ok=[r.ok for r in records], virtual_s=last - t0,
        dollars=dollars, audit=audit)


# ---------------------------------------------------------------------------
# oltp-rf2: closed-loop clients on replicated counters and transactions
# ---------------------------------------------------------------------------

OLTP_CLIENTS = 16
OLTP_NODES = 3
OLTP_KEYS = 256
OLTP_ZIPF = 0.9
OLTP_BATCH = 8
#: Transaction cells per client.  Each client's read-modify-write
#: transactions touch only its own cells: read-atomic isolation does not
#: order concurrent read-modify-writes of one cell, so shared cells
#: could lose updates by design and the 2 x committed audit would not
#: hold.
OLTP_TXN_CELLS = 16
#: Virtual seconds the clients keep issuing.
OLTP_SECONDS = 0.5
_COUNTER_CTOR = (TenantCounter, (), {})


def _counter(rank: int) -> DsoReference:
    return DsoReference("TenantCounter", f"oltp-{rank:04d}",
                        persistent=True, rf=2)


def _cell(client: int, rank: int) -> str:
    return f"oltp-txn-{client:02d}-{rank:02d}"


def oltp(seed: int, probe=None, vseconds: float = OLTP_SECONDS) -> Episode:
    """16 closed-loop clients, 40/40/10/10 get/incr/batch/txn."""
    phases = _Phases(probe)
    with CrucialEnvironment(seed=seed, dso_nodes=OLTP_NODES) as env:
        dso = env.dso
        client = env.client_endpoint
        cells = [_cell(c, r) for c in range(OLTP_CLIENTS)
                 for r in range(OLTP_TXN_CELLS)]
        acked = [0] * OLTP_CLIENTS
        committed = [0] * OLTP_CLIENTS
        records: list[tuple[float, bool]] = []

        def client_loop(index: int, t0: float) -> None:
            endpoint = f"oltp-client-{index:02d}"
            env.network.ensure_endpoint(endpoint)
            ops = env.kernel.rng.stream(f"perfbench.oltp.{index}.ops")
            keys = ZipfSampler(OLTP_KEYS, OLTP_ZIPF, rng=env.kernel.rng.stream(
                f"perfbench.oltp.{index}.keys"))
            while env.now - t0 < vseconds:
                issued = env.now
                choice = float(ops.random())
                ok = True
                try:
                    if choice < 0.8:
                        method = "get" if choice < 0.4 else "incr"
                        dso.invoke(endpoint, _counter(keys.sample()),
                                   method, ctor=_COUNTER_CTOR)
                        if method == "incr":
                            acked[index] += 1
                    elif choice < 0.9:
                        batch = []
                        for _ in range(OLTP_BATCH):
                            method = "incr" if ops.random() < 0.5 else "get"
                            batch.append((method, dso.invoke_async(
                                endpoint, _counter(keys.sample()), method,
                                ctor=_COUNTER_CTOR)))
                        dso.flush(endpoint)
                        for method, future in batch:
                            if future.exception() is not None:
                                ok = False
                            elif method == "incr":
                                acked[index] += 1
                    else:
                        first, second = ops.choice(OLTP_TXN_CELLS, 2,
                                                   replace=False)
                        with dso.transaction(endpoint, rf=2) as txn:
                            for rank in (first, second):
                                key = _cell(index, int(rank))
                                txn.write(key, txn.read(key) + 1)
                        committed[index] += 1
                except CloudError:
                    ok = False
                records.append((env.now - issued, ok))

        def main():
            for rank in range(OLTP_KEYS):
                dso.invoke(client, _counter(rank), "get", ctor=_COUNTER_CTOR)
            with dso.transaction(client, rf=2) as txn:
                for key in cells:
                    txn.write(key, 0)
            phases.begin(env)
            rent = NodeRentMeter(env, env.cost_ledger)
            t0 = env.now
            threads = [spawn(client_loop, i, t0, name=f"oltp-{i:02d}")
                       for i in range(OLTP_CLIENTS)]
            for thread in threads:
                thread.join()
            last = env.now
            phases.end()
            env.cost_ledger.settle()
            if probe is not None:
                probe.observe(rent=rent)
            counters = sum(dso.invoke(client, _counter(rank), "get")
                           for rank in range(OLTP_KEYS))
            with dso.transaction(client, rf=2) as txn:
                cell_sum = sum(txn.read(key) for key in cells)
            return last - t0, env.cost_ledger.total_dollars, counters, \
                cell_sum

        virtual_s, dollars, counters, cell_sum = env.run(main)
    audit = []
    if counters != sum(acked):
        audit.append(f"oltp-rf2: counters sum {counters} != "
                     f"{sum(acked)} acknowledged increments")
    if cell_sum != 2 * sum(committed):
        audit.append(f"oltp-rf2: transaction cells sum {cell_sum} != "
                     f"2 x {sum(committed)} committed transactions")
    failed = sum(1 for _, ok in records if not ok)
    return Episode(
        seed=seed, setup_s=phases.setup_s, host_s=phases.host_s,
        attempted=len(records), failed=failed,
        latencies=[latency for latency, _ in records],
        ok=[ok for _, ok in records], virtual_s=virtual_s,
        dollars=dollars, audit=audit)


# ---------------------------------------------------------------------------
# kmeans: the paper's Listing 2
# ---------------------------------------------------------------------------

KMEANS_K = 25
KMEANS_WORKERS = 20
KMEANS_POINTS = 10_000
KMEANS_ITERATIONS = 10


def lloyd(parts: list[np.ndarray], centroids: np.ndarray,
          iterations: int) -> np.ndarray:
    """Plain-numpy Lloyd's algorithm: the reference for the audit."""
    centroids = centroids.copy()
    k = len(centroids)
    for _ in range(iterations):
        sums = np.zeros_like(centroids)
        counts = np.zeros(k)
        for points in parts:
            nearest = np.linalg.norm(
                points[:, None, :] - centroids[None, :, :], axis=2
            ).argmin(axis=1)
            for cluster in range(k):
                members = points[nearest == cluster]
                sums[cluster] += members.sum(axis=0)
                counts[cluster] += len(members)
        moved = counts > 0
        centroids[moved] = sums[moved] / counts[moved, None]
    return centroids


def kmeans(seed: int, probe=None, workers: int = KMEANS_WORKERS,
           points: int = KMEANS_POINTS,
           iterations: int = KMEANS_ITERATIONS) -> Episode:
    """CloudThreads on pre-warmed containers, shards in the DSO."""
    phases = _Phases(probe)
    with CrucialEnvironment(seed=seed, dso_nodes=1,
                            function_memory_mb=2048) as env:
        draw = env.kernel.rng.stream("perfbench.kmeans")
        data_seed, job_seed = (int(x) for x in draw.integers(0, 2**31, 2))
        # Each worker holds the paper's per-partition share of the
        # 100 GB dataset (1/80), so an iteration costs what Fig. 5's
        # does whatever the worker count.
        spec = env.config.dataset
        dataset = MLDataset(
            "kmeans", partitions=workers, materialized_points=points,
            seed=data_seed,
            nominal_points=spec.nominal_points * workers // spec.partitions,
            nominal_bytes=spec.nominal_bytes * workers // spec.partitions)
        parts = [dataset.materialize(i) for i in range(workers)]
        job = CrucialKMeans(dataset, k=KMEANS_K, iterations=iterations,
                            workers=workers, run_id="perfbench",
                            seed=job_seed)
        rent = NodeRentMeter(env, env.cost_ledger)

        def main():
            phases.begin(env)
            result = job.train()
            phases.end()
            env.cost_ledger.settle()
            _bill_lambda(env)
            if probe is not None:
                probe.observe(rent=rent)
            return result, env.cost_ledger.total_dollars

        result, dollars = env.run(main)
    # The same initial centroids CrucialKMeans.train draws from its seed.
    initial = mlmath.init_centroids(
        np.random.Generator(np.random.PCG64(job_seed)), KMEANS_K,
        dataset.features)
    expected = lloyd(parts, initial, iterations)
    audit = []
    if result.iterations != iterations:
        audit.append(f"kmeans: {result.iterations} iterations, "
                     f"expected {iterations}")
    if not np.allclose(result.centroids, expected, rtol=1e-9, atol=1e-9):
        error = float(np.abs(result.centroids - expected).max())
        audit.append(f"kmeans: centroids differ from the Lloyd reference "
                     f"by up to {error:.3e}")
    latencies = [t for report in result.worker_reports
                 for t in report["iteration_times"]]
    return Episode(
        seed=seed, setup_s=phases.setup_s, host_s=phases.host_s,
        attempted=workers * iterations,
        failed=workers * iterations - len(latencies),
        latencies=latencies, ok=[True] * len(latencies),
        virtual_s=result.iteration_phase_time, dollars=dollars,
        audit=audit)


WORKLOADS = {"serving": serving, "oltp-rf2": oltp, "kmeans": kmeans}


def summarize(episodes: list[Episode]) -> dict[str, float]:
    """Pooled virtual-clock metrics over ``episodes``."""
    latencies = [t for e in episodes for t in e.latencies]
    ok = [flag for e in episodes for flag in e.ok]
    attempted = sum(e.attempted for e in episodes)
    completed = sum(len(e.latencies) for e in episodes)
    misses = sum(1 for t, good in zip(latencies, ok)
                 if not good or t > SLO_S)
    misses += attempted - completed
    return {
        "p50_ms": percentile(latencies, 50.0) * 1000,
        "p90_ms": percentile(latencies, 90.0) * 1000,
        "p99_ms": percentile(latencies, 99.0) * 1000,
        "samples": float(len(latencies)),
        "vops_per_s": completed / sum(e.virtual_s for e in episodes),
        "dollars": sum(e.dollars for e in episodes) / len(episodes),
        "slo_miss_frac": misses / attempted,
        "error_rate": sum(e.failed for e in episodes) / attempted,
        "job_s": sum(e.virtual_s for e in episodes) / len(episodes),
    }
