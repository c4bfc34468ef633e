"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Tiny sizes keep each workload to about a second; the serving
reproduction runs the full harness point (a few seconds).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "serving": {"duration": 4.0},
    "oltp-rf2": {"vseconds": 0.05},
    "kmeans": {"workers": 4, "points": 400, "iterations": 2},
}


def test_serving_reproduces_the_harness_autoscaled_point():
    path = os.path.join(ROOT, "benchmarks", "out", "BENCH_serving.json")
    with open(path) as handle:
        bench = json.load(handle)
    row = next(p for p in bench["points"] if p["label"] == "autoscaled")
    assert bench["base_rate"] == workloads.SERVING_BASE_RATE
    assert bench["peak_rate"] == workloads.SERVING_PEAK_RATE
    assert bench["duration"] == workloads.SERVING_SECONDS
    episode = workloads.serving(17)
    assert not episode.audit
    assert episode.attempted == row["requests"] == 5519
    assert workloads.summarize([episode])["p99_ms"] == row["p99_ms"]
    assert episode.dollars == row["dollars"]
    assert round(row["p99_ms"], 2) == 269.07
    assert round(row["dollars"], 6) == 0.010659


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_reports_every_metric_with_its_unit(workload):
    contract, metadata = run.load_metadata()
    result = run.collect(workload, 3, 0.0, True, TINY[workload])
    assert result["problems"] == []
    lines = run.render(workload, result, contract, metadata)
    units = run.table_units(contract, metadata)
    for name, spec in metadata["end_to_end"].items():
        if workload in spec["workloads"]:
            assert any(line.split()[:1] == [name]
                       and units[name] in line for line in lines), name
    for trace in (False, True):
        line = run.result_line(result, contract, trace)
        kind = "per_layer" if trace else "end_to_end"
        assert set(line["metrics"]) == {m["name"] for m in contract[kind]}
        assert line["correct"] and line["attempted"] >= 1
    assert set(metadata["per_layer"]) == {
        m["name"] for m in contract["per_layer"]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_seed_fixes_the_virtual_outputs(workload):
    episode = workloads.WORKLOADS[workload]
    first = episode(5, **TINY[workload])
    again = episode(5, **TINY[workload])
    other = episode(6, **TINY[workload])
    assert first.fingerprint() == again.fingerprint()
    assert first.latencies != other.latencies


def test_oltp_audit_catches_lost_increments(monkeypatch):
    monkeypatch.setattr(workloads.TenantCounter, "incr",
                        lambda self: self.value)
    episode = workloads.oltp(3, **TINY["oltp-rf2"])
    assert any("acknowledged increments" in msg for msg in episode.audit)


def test_kmeans_audit_catches_wrong_centroids(monkeypatch):
    from repro.ml import math as mlmath

    update = mlmath.kmeans_update

    def skewed(sums, counts, previous):
        centroids, delta = update(sums, counts, previous)
        return centroids + 1e-6, delta

    monkeypatch.setattr(mlmath, "kmeans_update", skewed)
    episode = workloads.kmeans(3, **TINY["kmeans"])
    assert any("Lloyd reference" in msg for msg in episode.audit)


def test_run_refuses_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "serving", "--seed", "1",
                     "--seconds", "1"]) == 2
