"""Turning samples and spans into the metrics declared in ``BENCHMARK.json``.

Percentiles use the nearest-rank rule: the q-th percentile of ``n`` sorted
samples is the sample at rank ``ceil(q * n)``, so ``n - ceil(q * n)``
samples lie beyond it.  A percentile is supported when at least ten do,
which for p90 means at least 100 samples.

A run's rates and latency percentiles are medians over windows of a fixed
number of whole rounds (a round is a fixed list of requests), so a burst of
host noise moves one window, not the figure, and how a window is cut does
not depend on how fast the program runs.  Rounds after the last whole
window are not counted.

A workload whose every round sends the same few different jobs is measured
instead by each job's best time over the counted rounds: a percentile taken
across a dozen different jobs falls in the gap between two of them, on one
job's slowest or fastest run, and a co-tenant of a shared host slows whole
phases of a run by up to 1.5x.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import Span, self_times

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

#: Every ``steady_stats()`` bail reason the macro-step planner can report
#: (``repro.engine.steady``); anything else is counted under ``other``.
BAIL_REASONS = (
    "agu_desync",
    "bank_pattern",
    "dataflow_incomplete",
    "foreign_requester",
    "operand_phase",
    "quantizer_cadence",
    "quantizer_window",
    "quiescent_drift",
    "quiescent_traffic",
    "ragged_cadence",
    "read_write_overlap",
    "shared_operand_stream",
    "sink_phase",
    "strobed_write",
    "tile_cadence",
    "too_short",
    "unconsumed_read_stream",
    "unfed_write_stream",
    "window_mismatch",
    "write_collision",
    "other",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_samples(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank q-percentile."""
    return count - max(1, math.ceil(q * count)) if count else 0


def supported(count: int, q: float) -> bool:
    """True when the q-percentile of ``count`` samples has enough tail."""
    return tail_samples(count, q) >= MIN_TAIL_SAMPLES


@dataclass
class Sample:
    """One request as the caller saw it, with the outcomes' modelled cycles."""

    latency: float  # seconds
    ok: bool = True
    #: Seconds in the caller-side submit calls (the rest is settle time).
    submit: float = 0.0
    #: Jobs the request carried and the cycles the engine simulated for
    #: them (``SimulationResult.streaming_cycles``).
    jobs: int = 0
    cycles: int = 0
    #: Modelled kernel cycles (pre-passes included) and their ideal count.
    kernel_cycles: int = 0
    ideal_cycles: int = 0
    #: Counts towards ``gemm_utilization`` (architecture 6 jobs only).
    full_features: bool = True
    #: The round the request belongs to, its content key and its family or
    #: feature set.
    round: int = 0
    key: int = 0
    group: str = ""
    #: The first outcome's workload group and modelled utilization.
    workload_group: str = ""
    utilization: float = 0.0

    def charged_latency(self, timeout: float) -> float:
        """Latency, with a failed request charged at least ``timeout`` so it
        misses every latency limit below the timeout."""
        return self.latency if self.ok else max(timeout, self.latency)


def windows(samples: Sequence[Sample], rounds_per_window: int) -> List[List[Sample]]:
    """Consecutive windows of ``rounds_per_window`` whole rounds; rounds
    after the last whole window are dropped.  A run shorter than one window
    is one window."""
    rounds: Dict[int, List[Sample]] = {}
    for sample in samples:
        rounds.setdefault(sample.round, []).append(sample)
    ordered = [rounds[index] for index in sorted(rounds)]
    count = max(1, len(ordered) // rounds_per_window)
    per = rounds_per_window if len(ordered) >= rounds_per_window else len(ordered)
    return [
        [sample for part in ordered[i * per : (i + 1) * per] for sample in part]
        for i in range(count)
    ]


def merge_parts(parts: Sequence[dict]) -> Tuple[List[Sample], Dict[str, int], float]:
    """Join the shares of a run measured in separate processes, in the order
    they ran.  Each part is ``{"samples": [Sample fields], "counters": {...},
    "peak_rss_mb": float}``.  Returns every sample, each part's rounds
    numbered after the previous part's, the summed counter deltas and the
    largest peak resident set."""
    samples: List[Sample] = []
    counters: Dict[str, int] = {}
    for part in parts:
        offset = 1 + max((sample.round for sample in samples), default=-1)
        samples.extend(
            Sample(**{**fields, "round": fields["round"] + offset}) for fields in part["samples"]
        )
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return samples, counters, max((part["peak_rss_mb"] for part in parts), default=0.0)


def best_per_key(samples: Sequence[Sample]) -> List[Sample]:
    """One sample per request key: its fastest run, or a failed run if any
    run of it failed (so a failure still misses every latency limit)."""
    best: Dict[int, Sample] = {}
    for sample in samples:
        kept = best.get(sample.key)
        if kept is None or (kept.ok and (not sample.ok or sample.latency < kept.latency)):
            best[sample.key] = sample
    return list(best.values())


def end_to_end(
    samples: Sequence[Sample],
    rounds_per_window: int,
    setup_times: Sequence[float],
    peak_rss_mb: float,
    timeout: float,
    best_of_repeats: bool = False,
) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run; ``samples`` are in the
    order the requests were sent.  Rates are over the host seconds the
    caller spent in requests.  With ``best_of_repeats`` the counted rounds
    are reduced to each request key's best run (:func:`best_per_key`)."""
    parts = windows(samples, rounds_per_window)
    if best_of_repeats:
        parts = [best_per_key([sample for part in parts for sample in part])]
    cycle_rates, job_rates = [], []
    for part in parts:
        seconds = sum(sample.latency for sample in part)
        cycle_rates.append(sum(sample.cycles for sample in part if sample.ok) / seconds)
        job_rates.append(sum(sample.jobs for sample in part if sample.ok) / seconds)

    def latency(q: float) -> float:
        return statistics.median(
            percentile([sample.charged_latency(timeout) for sample in part], q) for part in parts
        )

    full = [sample for part in parts for sample in part if sample.ok and sample.full_features]
    return {
        "setup_s": statistics.median(setup_times),
        "sim_cycles_per_s": statistics.median(cycle_rates),
        "jobs_per_s": statistics.median(job_rates),
        "latency_p50_ms": latency(0.50) * 1e3,
        "latency_p90_ms": latency(0.90) * 1e3,
        "gemm_utilization": (
            sum(sample.ideal_cycles for sample in full)
            / max(1, sum(sample.kernel_cycles for sample in full))
        ),
        "peak_rss_mb": peak_rss_mb,
    }


# ----------------------------------------------------------------------
# Per-layer metrics from spans.
# ----------------------------------------------------------------------
def _median_ms(values: Iterable[int]) -> float:
    values = list(values)
    return statistics.median(values) / 1e6 if values else 0.0


def span_medians(spans: List[Span]) -> Dict[str, float]:
    """Median self time per call of each layer entry point, in ms."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(own[span.id])
    return {name: _median_ms(values) for name, values in by_name.items()}


def engine_rates(spans: List[Span]) -> Dict[str, float]:
    """``engine.sim_cycles_per_s`` overall and per group, from event-engine
    ``system.run`` spans carrying their simulated cycles."""
    totals: Dict[str, List[float]] = {}
    own = self_times(spans)
    for span in spans:
        if span.name != "system.run" or span.attrs.get("engine") != "event":
            continue
        for key in {"", span.context.get("group")} - {None}:
            entry = totals.setdefault(key, [0.0, 0.0])
            entry[0] += span.attrs["cycles"]
            entry[1] += own[span.id] / 1e9
    metrics = {}
    for key, (cycles, seconds) in totals.items():
        name = "engine.sim_cycles_per_s" + (f".{key}" if key else "")
        metrics[name] = cycles / seconds if seconds else 0.0
    return metrics


def event_over_lockstep(spans: List[Span]) -> Dict[str, float]:
    """Host-time speed of the event engine relative to lockstep, overall and
    per group: total lockstep ``system.run`` time over total event time, for
    the jobs run on both (matched by the ``key`` context tag)."""
    event: Dict[object, List[int]] = {}
    lockstep: Dict[object, int] = {}
    groups: Dict[object, str] = {}
    for span in spans:
        key = span.context.get("key")
        if span.name != "system.run" or key is None:
            continue
        groups[key] = span.context.get("group", "")
        if span.attrs.get("engine") == "lockstep":
            lockstep[key] = span.duration
        else:
            event.setdefault(key, []).append(span.duration)
    sums: Dict[str, List[float]] = {}
    for key, lock_time in lockstep.items():
        if key not in event:
            continue
        event_time = statistics.mean(event[key])
        for group in {"", groups[key]}:
            entry = sums.setdefault(group, [0.0, 0.0])
            entry[0] += lock_time
            entry[1] += event_time
    return {
        "engine.event_over_lockstep" + (f".{group}" if group else ""): lock / ev
        for group, (lock, ev) in sums.items()
        if ev
    }


def macro_metrics(macro_stats: Sequence[Optional[dict]], cycles: Sequence[int]) -> Dict[str, float]:
    """Macro-step engagement over the unique executed jobs.

    ``macro_stats[i]`` is job i's ``steady_stats()`` (``None`` when the
    planner never ran) and ``cycles[i]`` its simulated cycles.
    """
    jobs = max(1, len(macro_stats))
    attempts = jumps = skipped = 0
    bails = {reason: 0 for reason in BAIL_REASONS}
    for stats in macro_stats:
        if not stats:
            continue
        attempts += int(stats.get("attempts", 0))
        jumps += int(stats.get("jumps", 0))
        skipped += int(stats.get("cycles_skipped", 0))
        for reason, count in stats.get("bails", {}).items():
            bails[reason if reason in bails else "other"] += int(count)
    metrics = {
        "engine.macro_jumps": jumps / jobs,
        "engine.macro_skipped_share": skipped / max(1, sum(cycles)),
        "engine.macro_success": jumps / attempts if attempts else 0.0,
    }
    metrics.update(
        {f"engine.macro_bails.{reason}": count / jobs for reason, count in bails.items()}
    )
    return metrics
