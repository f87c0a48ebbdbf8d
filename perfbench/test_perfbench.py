"""Tests of the benchmark's own helpers and of its output contract."""

import json
import math
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.metrics import (
    BAIL_REASONS,
    Sample,
    end_to_end,
    engine_rates,
    event_over_lockstep,
    best_per_key,
    macro_metrics,
    merge_parts,
    percentile,
    supported,
    tail_samples,
    windows,
)
from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.workloads import FEATURE_SETS, ClusterUnique, Item, Run, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Percentile rule.
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 1.0) == 3
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_a_hundred_samples():
    assert tail_samples(100, 0.9) == 10
    assert tail_samples(99, 0.9) == 9
    assert tail_samples(0, 0.9) == 0
    assert supported(100, 0.9) and not supported(99, 0.9)
    assert supported(20, 0.5) and not supported(19, 0.5)


def _rounds(count, per_round, latency=0.01):
    return [
        Sample(latency=latency, round=r, key=i, jobs=1, cycles=100, kernel_cycles=10, ideal_cycles=5)
        for r in range(count)
        for i in range(per_round)
    ]


def test_windows_are_whole_rounds_whatever_the_speed():
    # A faster program fits more rounds; each window still holds exactly
    # the same number of whole rounds, and a partial last window is dropped.
    for count in (20, 29, 45):
        parts = windows(_rounds(count, 7), rounds_per_window=10)
        assert len(parts) == count // 10
        assert all(len(part) == 70 for part in parts)
        assert all({s.round for s in part} == set(range(i * 10, i * 10 + 10)) for i, part in enumerate(parts))
    # A run shorter than one window is one window.
    assert [len(part) for part in windows(_rounds(3, 7), rounds_per_window=10)] == [21]


def test_repeated_jobs_count_their_best_run_and_any_failure():
    # Two jobs, ten runs each; every other run of job 1 is slowed 1.5x, as
    # a co-tenant slows a phase of the run.  Job 2 failed once.
    samples = []
    for r in range(10):
        slow = 1.5 if r % 2 else 1.0
        samples.append(Sample(latency=0.010 * slow, round=r, key=1, jobs=1, cycles=100))
        samples.append(Sample(latency=0.030, round=r, key=2, jobs=1, cycles=300, ok=r != 7))
    best = {sample.key: sample for sample in best_per_key(samples)}
    assert best[1].latency == 0.010 and best[1].ok
    assert not best[2].ok
    ok_only = [sample for sample in samples if sample.key == 1]
    metrics = end_to_end(ok_only, 1, [1.0], 1.0, 60.0, best_of_repeats=True)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["jobs_per_s"] == pytest.approx(100.0)
    assert metrics["sim_cycles_per_s"] == pytest.approx(10000.0)
    assert end_to_end(samples, 1, [1.0], 1.0, 60.0, best_of_repeats=True)["latency_p90_ms"] == 60000.0


def test_parts_from_separate_processes_join_with_distinct_rounds():
    # Two processes ran the same two rounds; the second was slow on key 1,
    # the first on key 2.  Each key's best run comes from either process.
    def part(slow_key, rss):
        return {
            "samples": [
                asdict(Sample(latency=0.020 if key == slow_key else 0.010, round=r, key=key, jobs=1, cycles=100))
                for r in range(2)
                for key in (1, 2)
            ],
            "counters": {"executed": 4},
            "peak_rss_mb": rss,
        }

    samples, counters, rss = merge_parts([part(2, 50.0), part(1, 60.0)])
    assert [sample.round for sample in samples] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert counters == {"executed": 8} and rss == 60.0
    metrics = end_to_end(samples, 1, [1.0], rss, 60.0, best_of_repeats=True)
    assert metrics["latency_p90_ms"] == pytest.approx(10.0)
    assert metrics["peak_rss_mb"] == 60.0


def test_failed_requests_miss_every_latency_limit():
    samples = [
        Sample(latency=0.001 * i, jobs=1, cycles=10, kernel_cycles=10, ideal_cycles=5) for i in range(1, 10)
    ]
    samples.append(Sample(latency=0.001, ok=False))
    metrics = end_to_end(samples, 1, [0.2, 0.1, 0.3], peak_rss_mb=50.0, timeout=60.0)
    assert metrics["latency_p90_ms"] == pytest.approx(9.0)
    # Among five requests, the failed one (charged the timeout) is the p90.
    assert end_to_end(samples[-1:] + samples[:4], 1, [1.0], 1.0, 60.0)["latency_p90_ms"] == 60000.0
    assert metrics["jobs_per_s"] == pytest.approx(9 / 0.046)
    assert metrics["sim_cycles_per_s"] == pytest.approx(90 / 0.046)
    assert metrics["gemm_utilization"] == 0.5
    assert metrics["setup_s"] == 0.2


def test_rates_are_medians_over_windows():
    samples = _rounds(30, 2)
    for sample in samples[:20]:  # the first window ran at half speed
        sample.latency *= 2
    metrics = end_to_end(samples, 10, [1.0], 1.0, 60.0)
    assert metrics["jobs_per_s"] == pytest.approx(100.0)
    assert metrics["sim_cycles_per_s"] == pytest.approx(10000.0)


# ----------------------------------------------------------------------
# Spans and self time.
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(id=0, name="job", parent=None, start=0, end=100),
        Span(id=1, name="a", parent=0, start=10, end=40),
        Span(id=2, name="b", parent=0, start=30, end=60),  # overlaps a
        Span(id=3, name="c", parent=1, start=15, end=20),
        Span(id=4, name="d", parent=0, start=90, end=120),  # runs past its parent
    ]
    own = self_times(spans)
    assert own == {0: 100 - 50 - 10, 1: 25, 2: 30, 3: 5, 4: 30}


class _Target:
    def work(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return cls().work(value)


def test_recorder_nests_spans_and_restores_patched_attributes():
    ticks = iter(range(1000))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    original_work, original_build = _Target.work, _Target.__dict__["build"]
    recorder.install(
        [
            ("target.build", _Target, "build", None),
            ("target.work", _Target, "work", lambda result: {"result": result}),
        ]
    )
    try:
        with recorder.context(key=7), recorder.span("job"):
            assert _Target.build(21) == 42
    finally:
        recorder.uninstall()
    assert _Target.work is original_work and _Target.__dict__["build"] is original_build
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["target.work"].parent == by_name["target.build"].id
    assert by_name["target.build"].parent == by_name["job"].id
    assert by_name["target.work"].attrs == {"result": 42}
    assert all(span.context == {"key": 7} for span in recorder.spans)


# ----------------------------------------------------------------------
# The closed loop.
# ----------------------------------------------------------------------
def _outcome(name, match=True):
    return SimpleNamespace(
        functional_match=match,
        workload_name=name,
        job_hash=name,
        result=SimpleNamespace(streaming_cycles=100),
        kernel_cycles=120,
        ideal_compute_cycles=60,
        workload_group="gemm",
        utilization=0.5,
    )


class _Fake(Workload):
    """A fake program: the request key picks what the call does."""

    def call(self, harness, item):
        name = item.jobs[0].workload.name
        if item.key == 1:
            raise RuntimeError("queue full")
        if item.key == 2:
            return [_outcome(name, match=False)], 0.001
        if item.key == 3:
            return [_outcome("someone else")], 0.001
        return [_outcome(name)], 0.001


def test_only_a_matching_outcome_for_the_right_job_counts_as_done():
    run = Run(keep_outcomes=True)
    job = SimpleNamespace(workload=SimpleNamespace(name="k"))
    for key in range(4):
        _Fake(seed=0).send(None, Item(jobs=(job,), group="full", key=key, round=0), run)
    assert [sample.ok for sample in run.samples] == [True, False, False, False]
    done = run.samples[0]
    assert (done.jobs, done.cycles, done.submit) == (1, 100, 0.001)
    assert done.latency > 0
    assert list(run.served) == ["k"]


def test_cluster_counts_requests_served_without_executing_as_failed():
    cluster = ClusterUnique.__new__(ClusterUnique)
    assert cluster.unexpected({"executed": 10, "cache_hits": 0, "journal_hits": 0}) == 0
    assert cluster.unexpected({"executed": 7, "cache_hits": 2, "shard_cache_hits": 1}) == 3


def test_cluster_inputs_never_repeat():
    rounds = ClusterUnique(seed=5).rounds()
    jobs = [item.jobs[0] for _ in range(50) for item in next(rounds)]
    assert len({job.job_hash() for job in jobs}) == len(jobs) == 500


# ----------------------------------------------------------------------
# Metric names: declared once, emitted exactly.
# ----------------------------------------------------------------------
def _declared(section):
    return {entry["name"] for entry in SPEC[section]}


def test_benchmark_json_names_and_units_are_well_formed():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(entry["unit"]) for entry in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert "setup_s" in _declared("end_to_end")


def test_helper_metric_names_are_declared():
    samples = [Sample(latency=0.01, jobs=1, cycles=1, kernel_cycles=1, ideal_cycles=1)]
    assert set(end_to_end(samples, 1, [0.1], 1.0, 60.0)) == _declared("end_to_end")
    groups = tuple(label for label, _ in FEATURE_SETS)
    spans = []
    for index, group in enumerate(groups):
        for engine, start in (("event", 0), ("lockstep", 10)):
            span = Span(id=len(spans), name="system.run", parent=None, start=start, end=start + 5)
            span.context = {"group": group, "key": index}
            span.attrs = {"cycles": 100, "engine": engine}
            spans.append(span)
    per_layer = _declared("per_layer")
    emitted = set(engine_rates(spans)) | set(event_over_lockstep(spans))
    stats = {"attempts": 2, "jumps": 1, "cycles_skipped": 3, "bails": {r: 1 for r in BAIL_REASONS}}
    emitted |= set(macro_metrics([stats, {"bails": {"unknown_reason": 1}}], [10, 10]))
    assert emitted <= per_layer
    assert len(emitted) == 2 * (len(groups) + 1) + 3 + len(BAIL_REASONS)


@pytest.mark.parametrize(
    "workload, trace",
    [("paper_kernels", 0), ("paper_kernels", 1), ("serve_hotkey", 0), ("serve_hotkey", 1), ("cluster_unique", 1)],
)
def test_a_short_run_emits_exactly_the_declared_metrics(workload, trace):
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0.5",
        "--trace", str(trace),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _declared(section)
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
