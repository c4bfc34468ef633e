"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serving --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is imported
from ``src/``; nothing is installed.

A run repeats seeded *episodes* of the workload (see ``workloads.py``)
until ``--seconds`` of host time have passed, and at least
``MIN_EPISODES`` times.  Episode 0 runs ``--seed`` itself; later
episodes run seeds drawn from a stream of that seed.  Host-clock
metrics are medians over all episodes, in seconds of a reference host
(see :func:`calibrate`).  Virtual-clock metrics pool the
first ``MIN_EPISODES`` episodes only, so they are exactly reproducible
for a seed whatever the host's speed.

``--trace 1`` then re-runs episode 0 under :class:`probes.Probe` and
prints the per-layer metrics instead.  The traced episode must
reproduce the untraced one's virtual-clock outputs bit for bit.

The run pins itself to one CPU.  The simulator keeps at most one OS
thread runnable, so one CPU is all it can use; left unpinned, each
kernel handoff may wake a thread on the other CPU, and on a shared
virtual machine waking an idle virtual CPU costs whatever the
hypervisor's load makes it -- a run-to-run swing of more than a factor
of two on the host this benchmark was sized on, with the program
unchanged.  The price is that the host figures leave out that
cross-CPU wake-up cost, which unpinned runs (the tests, the harnesses)
do pay: a handoff change that helps or hurts only unpinned runs does
not show here.

Every episode audits its outputs.  The last line of standard output is
one JSON object; the exit code is 1 when any audit failed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import statistics
import sys
import threading
import time

# Modules that import ``repro`` are imported inside the functions that
# use them: main() puts ``src/`` on the path first.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Episodes pooled into the virtual-clock metrics.  Sized so that
#: every reported virtual metric moves by well under its bound from one
#: seed to the next (serving's autoscaled tail needs the most pooling).
MIN_EPISODES = {"serving": 3, "oltp-rf2": 3, "kmeans": 2}

#: Seconds :func:`calibrate` took on the reference host, the 2-vCPU
#: virtual machine this benchmark was sized on.  Host-clock metrics
#: report seconds of that host.
REFERENCE_S = 0.05
#: Handoff rounds in the :func:`calibrate` job.
CALIBRATE_ROUNDS = 1500


def load_metadata() -> tuple[dict, dict]:
    """``BENCHMARK.json`` (what the last line reports) and
    ``metadata.json`` (what the table prints and why)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    with open(os.path.join(HERE, "metadata.json")) as handle:
        metadata = json.load(handle)
    return contract, metadata


def table_units(contract: dict, metadata: dict) -> dict[str, str]:
    """Unit of every end-to-end metric the table prints: the gated ones
    from ``BENCHMARK.json``, the rest from ``metadata.json``."""
    units = {name: spec["unit"]
             for name, spec in metadata["end_to_end"].items()
             if "unit" in spec}
    units.update((m["name"], m["unit"]) for m in contract["end_to_end"])
    return units


def episode_seeds(seed: int):
    """``seed`` itself, then seeds drawn from its own stream."""
    from repro.simulation.rng import RngRegistry

    stream = RngRegistry(seed).stream("perfbench.episodes")
    yield seed
    while True:
        yield int(stream.integers(0, 2**31))


def calibrate() -> float:
    """Host seconds for a fixed reference job.

    The job mixes the interpreter work the simulator does -- heap and
    dict updates -- with ``threading.Event`` handoffs between two
    threads, and is benchmark code, so a change to the program under
    test never changes it.  The host's speed drifts by tens of percent
    over minutes (other tenants of the machine); timing this job around
    every episode lets host-clock metrics be rescaled to a steady
    reference speed.
    """
    ping, pong = threading.Event(), threading.Event()

    def partner() -> None:
        for _ in range(CALIBRATE_ROUNDS):
            ping.wait()
            ping.clear()
            pong.set()

    start = time.perf_counter()
    helper = threading.Thread(target=partner)
    helper.start()
    heap: list[int] = []
    counts: dict[int, int] = {}
    for i in range(CALIBRATE_ROUNDS):
        for j in range(20):
            heapq.heappush(heap, (i * 7919 + j) % 10007)
            counts[j] = counts.get(j, 0) + i
        while len(heap) > 64:
            heapq.heappop(heap)
        ping.set()
        pong.wait()
        pong.clear()
    helper.join()
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float,
            sizes: dict | None = None) -> tuple[list, list, float]:
    """Episodes run, each one's host-speed scale, and the peak RSS in
    MB once the pooled episodes ended.

    An episode's scale is ``REFERENCE_S`` over the mean of the
    calibrations timed just before and just after it.  Reading the RSS
    after the pooled episodes, not at exit, keeps it a function of the
    seed: a faster host runs more episodes after them.
    """
    from workloads import WORKLOADS

    run = WORKLOADS[workload]
    episodes, scales = [], []
    start = time.perf_counter()
    before = calibrate()
    for episode_seed in episode_seeds(seed):
        if (len(episodes) >= MIN_EPISODES[workload]
                and time.perf_counter() - start >= seconds):
            break
        episodes.append(run(episode_seed, **(sizes or {})))
        after = calibrate()
        scales.append(2 * REFERENCE_S / (before + after))
        before = after
        if len(episodes) == MIN_EPISODES[workload]:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return episodes, scales, rss_mb


def end_to_end(workload: str, episodes: list, scales: list,
               rss_mb: float) -> dict[str, float]:
    from workloads import summarize

    virtual = summarize(episodes[:MIN_EPISODES[workload]])
    return dict(
        virtual,
        host_ops_per_s=statistics.median(
            e.attempted / (e.host_s * scale)
            for e, scale in zip(episodes, scales)),
        setup_s=statistics.median(
            e.setup_s * scale for e, scale in zip(episodes, scales)),
        raw_ops_per_s=statistics.median(
            e.attempted / e.host_s for e in episodes),
        raw_setup_s=statistics.median(e.setup_s for e in episodes),
        peak_rss_mb=rss_mb)


def traced(workload: str, reference, sizes: dict | None = None
           ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of episode 0, re-run under the probe."""
    from probes import Probe
    from workloads import WORKLOADS

    probe = Probe()
    with probe.installed():
        episode = WORKLOADS[workload](reference.seed, probe,
                                      **(sizes or {}))
    problems = list(episode.audit)
    if episode.fingerprint() != reference.fingerprint():
        problems.append(f"{workload}: traced run changed the virtual-clock "
                        "outputs of the untraced run")
    metrics = probe.report(ops=episode.attempted)
    metrics["trace.overhead_frac"] = episode.host_s / reference.host_s - 1.0
    return metrics, problems


def collect(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    """Run the benchmark; returns every number the report prints."""
    episodes, scales, rss_mb = measure(workload, seed, seconds, sizes)
    problems = [msg for e in episodes for msg in e.audit]
    result = {
        "episodes": episodes,
        "end_to_end": end_to_end(workload, episodes, scales, rss_mb),
        "per_layer": {},
        "problems": problems,
    }
    if trace:
        result["per_layer"], extra = traced(workload, episodes[0], sizes)
        problems.extend(extra)
    return result


def render(workload: str, result: dict, contract: dict,
           metadata: dict) -> list[str]:
    lines = [f"workload {workload}: {len(result['episodes'])} episodes, "
             f"virtual metrics over the first {MIN_EPISODES[workload]}"]
    values = result["end_to_end"]
    units = table_units(contract, metadata)
    for name, spec in metadata["end_to_end"].items():
        if workload not in spec["workloads"]:
            continue
        note = f"  ({int(values['samples'])} samples)" \
            if name.startswith("p") and name.endswith("_ms") else ""
        lines.append(f"  {name:<16} {values[name]:>14.6g} "
                     f"{units[name]:<9} {spec['clock']}{note}")
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name, value in result["per_layer"].items():
        lines.append(f"  {name:<28} {value:>14.6g} {units[name]}")
    lines.extend(f"AUDIT FAILED: {msg}" for msg in result["problems"])
    return lines


def result_line(result: dict, contract: dict, trace: bool) -> dict:
    """The JSON object the last output line carries."""
    kind = "per_layer" if trace else "end_to_end"
    return {
        "correct": not result["problems"],
        "attempted": sum(e.attempted for e in result["episodes"]),
        "failed": sum(e.failed for e in result["episodes"]),
        "metrics": {m["name"]: {"value": result[kind][m["name"]],
                                "unit": m["unit"]}
                    for m in contract[kind]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MIN_EPISODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    contract, metadata = load_metadata()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    result = collect(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    for line in render(args.workload, result, contract, metadata):
        print(line)
    line = result_line(result, contract, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
