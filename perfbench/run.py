"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload paper_kernels --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One workload: human-readable lines first, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured in fresh processes (one, or for a workload
that asks for it several, one after another, each for an equal share of the
run); ``setup_s`` is the median set-up time of several more fresh processes,
started one at a time after the run.  With ``--trace 1`` they are
the per-layer metrics: a ``Simulator`` loop runs each job twice, plain and
with spans around every layer entry point, in alternating order; a service
workload sends half a run's requests to one fresh service, then the same
requests to another with spans, both starting from an empty result cache.
Every unique job is then re-run on the lockstep engine and compared.  A
per-layer metric the workload does not exercise reads 0.

``--all`` runs every workload of ``BENCHMARK.json`` both ways in child
processes and writes ``perfbench/results.json`` with the run context and
each workload's predicted movers.  The program is imported from ``src/`` of
the checkout that holds this file; without it the run exits with an error
and prints no result.
"""

from __future__ import annotations

import time

#: When this process started, for the set-up time of a fresh process.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_PATH = ROOT / "perfbench" / "results.json"
RUN_DIR = ROOT / ".perfbench_run"

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def load_spec() -> dict:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args: argparse.Namespace, workload) -> Dict[str, object]:
    import numpy

    import repro

    from perfbench.workloads import usable_cpus

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shards": workload.shards,
    }


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics.
# ----------------------------------------------------------------------
def child_command(args: argparse.Namespace, *extra: str) -> List[str]:
    """This file run again in a fresh process for the same workload and seed."""
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]


def setup_only(args: argparse.Namespace) -> int:
    """A fresh process's set-up: import the program, start it and draw the
    first window's inputs.  Prints the seconds since this file started."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    harness = workload.setup(Path(args.setup_only))
    seconds = time.perf_counter() - STARTED
    workload.close(harness)
    print(repr(seconds))
    return 0


def timed_setups(args: argparse.Namespace, run_dir: Path) -> List[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh processes, one at a time."""
    times = []
    for repeat in range(SETUP_REPEATS):
        command = child_command(args, "--setup-only", str(run_dir / f"setup{repeat}"))
        completed = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"set-up process exited {completed.returncode}")
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return times


def measure_part(args: argparse.Namespace) -> int:
    """One share of an untraced run, in this fresh process: start the
    program, warm it up and measure for ``--seconds``.  Prints the samples,
    the counter deltas and the peak resident set as one JSON line."""
    from perfbench.workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload](args.seed)
    harness = workload.setup(Path(args.part_dir))
    try:
        workload.warm(harness)
        run = workload.measure(harness, seconds=args.seconds)
    finally:
        workload.close(harness)
    part = {
        "samples": [asdict(sample) for sample in run.samples],
        "counters": run.counters,
        "peak_rss_mb": peak_rss_mb(workload.shards),
    }
    print(json.dumps(part))
    return 0


def measured_parts(args: argparse.Namespace, workload, run_dir: Path) -> Tuple[list, Dict[str, int], float]:
    """The untraced measurement, split over ``workload.processes`` fresh
    processes run one after another (see :func:`merge_parts`)."""
    from perfbench.metrics import merge_parts

    parts = []
    share = args.seconds / workload.processes
    for index in range(workload.processes):
        command = child_command(
            args, "--seconds", repr(share), "--part-dir", str(run_dir / f"part{index}")
        )
        completed = subprocess.run(command, capture_output=True, text=True, timeout=150, check=False)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"measuring process exited {completed.returncode}")
        parts.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return merge_parts(parts)


def run_untraced(args: argparse.Namespace, workload, run_dir: Path) -> Tuple[dict, dict]:
    from perfbench.metrics import end_to_end, windows
    from perfbench.workloads import TIMEOUT_S

    samples, counters, rss = measured_parts(args, workload, run_dir)
    setup_times = timed_setups(args, run_dir)
    metrics = end_to_end(
        samples, workload.ROUNDS_PER_WINDOW, setup_times, rss, TIMEOUT_S, workload.best_of_repeats
    )
    parts = windows(samples, workload.ROUNDS_PER_WINDOW)
    counted = sum(len(part) for part in parts)
    notes: Dict[str, object] = {
        # Samples behind each metric.
        "samples": {
            "setup_s": len(setup_times),
            "requests": len(samples),
            "requests_in_windows": counted,
            "windows": len(parts),
            "rounds_per_window": workload.ROUNDS_PER_WINDOW,
            "processes": workload.processes,
            "statistic": "best run of each job" if workload.best_of_repeats else "median over windows",
        },
        "setup_times_s": setup_times,
    }
    if counters:
        notes["counters"] = counters
    if workload.name == "paper_kernels":
        notes["figure7"] = figure7_table(samples)
    failed = sum(not sample.ok for sample in samples) + workload.unexpected(counters)
    return metrics, {"attempted": len(samples), "failed": failed, "notes": notes}


def figure7_table(samples) -> Dict[str, Dict[str, float]]:
    """Mean modelled utilization per workload group and feature set, beside
    the paper's Fig. 7(a) architecture-6 reference."""
    from repro.experiments.fig7_ablation import PAPER_FIG7A_FINAL_UTILIZATION

    cells: Dict[str, Dict[str, List[float]]] = {}
    for sample in samples:
        if sample.ok:
            by_set = cells.setdefault(sample.workload_group, {})
            by_set.setdefault(sample.group, []).append(sample.utilization)
    table = {}
    for group, by_set in sorted(cells.items()):
        row = {label: statistics.mean(values) for label, values in sorted(by_set.items())}
        row["paper_full"] = PAPER_FIG7A_FINAL_UTILIZATION.get(group, float("nan"))
        table[group] = row
    return table


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics.
# ----------------------------------------------------------------------
def lockstep_parity(pairs, recorder) -> Tuple[int, int]:
    """Re-run each unique ``(job, served outcome, group, key)`` on the
    lockstep engine and compare every simulated statistic.

    Returns ``(checked, mismatches)``.
    """
    from repro import Simulator

    from perfbench.workloads import parity_mismatch

    simulator = Simulator()
    mismatches = 0
    for job, outcome, group, key in pairs:
        with recorder.context(group=group, key=key), recorder.span("job"):
            try:
                reference = simulator.simulate(job.with_updates(engine="lockstep"))
            except Exception as error:  # noqa: BLE001 — counted as a failure
                print(f"parity: {job.workload.name}: lockstep raised {error!r}")
                mismatches += 1
                continue
        field = parity_mismatch(outcome, reference)
        if field is not None:
            print(f"parity: {job.workload.name}: engines disagree on {field}")
            mismatches += 1
    return len(pairs), mismatches


def service_run(workload, directory: Path, seconds=None, count=None, recorder=None):
    """One run on a fresh service that starts with an empty result cache;
    with ``recorder``, the layer entry points are wrapped once the service
    (and its shards) are up."""
    from perfbench.workloads import layer_patches

    harness = workload.setup(directory)
    try:
        workload.warm(harness, fill_cache=False)
        patches = layer_patches() if recorder is not None else ()
        return workload.measure(harness, seconds=seconds, count=count, recorder=recorder, patches=patches)
    finally:
        workload.close(harness)


def run_traced(args: argparse.Namespace, workload, run_dir: Path) -> Tuple[dict, dict]:
    from perfbench.metrics import (
        event_over_lockstep,
        engine_rates,
        macro_metrics,
        span_medians,
    )
    from perfbench.spans import SpanRecorder, self_times
    from perfbench.workloads import ClusterUnique, SimulatorLoop, layer_patches

    recorder = SpanRecorder()
    simulator_loop = isinstance(workload, SimulatorLoop)
    if simulator_loop:
        harness = workload.setup(run_dir)
        workload.warm(harness)
        run_a, run_b = workload.paired(harness, args.seconds, recorder, layer_patches())
    else:
        # The same requests twice, on two fresh services, the second traced.
        run_a = service_run(workload, run_dir / "a", seconds=args.seconds / 2)
        run_b = service_run(workload, run_dir / "b", count=len(run_a.samples), recorder=recorder)
    spans_b, recorder.spans = recorder.spans, []
    unique = run_b.served
    recorder.install(layer_patches())
    try:
        checked, mismatches = lockstep_parity(list(unique.values()), recorder)
    finally:
        recorder.uninstall()
    spans_parity = recorder.spans

    spec = load_spec()
    metrics: Dict[str, float] = {entry["name"]: 0.0 for entry in spec["per_layer"]}
    medians = span_medians(spans_b)
    for metric, span_name in (
        ("job.hash_ms", "job.hash"),
        ("cache.get_ms", "cache.get"),
        ("cache.put_ms", "cache.put"),
        ("compiler.compile_ms", "compiler.compile"),
        ("system.build_ms", "system.build"),
        ("system.run_ms", "system.run"),
        ("system.verify_ms", "system.verify"),
        ("outcome.wrap_ms", "outcome.wrap"),
    ):
        metrics[metric] = medians.get(span_name, 0.0)
    # A service request can carry several jobs; per-request counts are per job.
    jobs = max(1, sum(sample.jobs for sample in run_b.samples))
    hashes = sum(span.name == "job.hash" for span in spans_b)
    metrics["job.hash_calls_per_request"] = hashes / jobs
    gets = [span for span in spans_b if span.name == "cache.get"]
    if gets:
        metrics["cache.hit_ratio"] = sum(span.attrs["hit"] for span in gets) / len(gets)
    metrics.update(engine_rates(spans_b))
    metrics.update(event_over_lockstep(spans_b + spans_parity))
    metrics.update(
        macro_metrics(
            [outcome.metrics.get("macro_stats") for _, outcome, _, _ in unique.values()],
            [outcome.result.streaming_cycles for _, outcome, _, _ in unique.values()],
        )
    )

    failed = mismatches
    for run in (run_a, run_b):
        failed += sum(not s.ok for s in run.samples) + workload.unexpected(run.counters)
    ok_a = [s.latency for s in run_a.samples if s.ok]
    ok_b = [s.latency for s in run_b.samples if s.ok]
    if ok_a and ok_b:
        metrics["bench.trace_overhead_share"] = sum(ok_b) / sum(ok_a) - 1.0
    if simulator_loop:
        own = self_times(spans_b)
        roots = [span for span in spans_b if span.name == "job"]
        metrics["bench.unattributed_share"] = sum(own[s.id] for s in roots) / max(
            1, sum(s.duration for s in roots)
        )
    else:
        done = [sample for sample in run_b.samples if sample.ok]
        prefix = "cluster" if isinstance(workload, ClusterUnique) else "serve"
        if done:
            metrics[f"{prefix}.submit_ms"] = statistics.median(s.submit for s in done) * 1e3
            metrics[f"{prefix}.settle_ms"] = (
                statistics.median(s.latency - s.submit for s in done) * 1e3
            )
        counters = run_b.counters
        if prefix == "serve":
            metrics["serve.coalesced_share"] = counters.get("coalesced", 0) / jobs
            metrics["serve.cache_hit_share"] = counters.get("cache_hits", 0) / jobs
            metrics["serve.executed"] = counters.get("executed", 0)
        else:
            metrics["cluster.journal_bytes_per_request"] = run_b.journal_bytes / jobs
            for name in ("executed", "requeued", "restarts", "failed"):
                metrics[f"cluster.{name}"] = counters.get(name, 0)
    notes = {
        "samples": {
            "untraced_requests": len(run_a.samples),
            "traced_requests": len(run_b.samples),
            "parity_checked": checked,
            "spans": {name: sum(s.name == name for s in spans_b) for name in sorted({s.name for s in spans_b})},
        },
        "parity_mismatches": mismatches,
        "counters": run_b.counters,
    }
    attempted = len(run_a.samples) + len(run_b.samples)
    return metrics, {"attempted": attempted, "failed": failed, "notes": notes}


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def result_line(metrics: Dict[str, float], declared: List[dict], attempted: int, failed: int) -> str:
    """The final JSON line; every declared metric, and nothing undeclared."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    extra = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if extra or missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: extra={extra} missing={missing}")
    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    return json.dumps(payload, sort_keys=False)


def run_one(args: argparse.Namespace) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    spec = load_spec()
    run_dir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, info = run_traced(args, workload, run_dir)
            declared = spec["per_layer"]
        else:
            metrics, info = run_untraced(args, workload, run_dir)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    units = {entry["name"]: entry["unit"] for entry in declared}
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for name in units:
        print(f"  {name:44s} {metrics[name]:>16.6g} {units[name]}")
    if "figure7" in info["notes"]:
        print("  gemm_utilization per group (modelled): architecture 6 / 1 vs paper Fig. 7(a) 6")
        for group, row in info["notes"]["figure7"].items():
            print(
                f"    {group:16s} full {row.get('full', float('nan')):.4f}"
                f"  baseline {row.get('baseline', float('nan')):.4f}"
                f"  paper {row['paper_full']:.4f}"
            )
        print(
            "  note: utilization and cycles are modelled; host-time speedups come "
            "from a cycle model that has not been validated against silicon"
        )
    print("context " + json.dumps({**run_context(args, workload), **info["notes"]}, default=str))
    print(result_line(metrics, declared, info["attempted"], info["failed"]))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload of ``BENCHMARK.json``, untraced and traced, each in
    its own process."""
    from perfbench.workloads import PREDICTED_MOVERS

    results: Dict[str, object] = {}
    correct = True
    for workload in load_spec()["workloads"]:
        name = workload["name"]
        entry: Dict[str, object] = {"why": workload["why"]}
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, check=False, timeout=900
            )
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                print(f"perfbench: {name} trace={trace} exited {completed.returncode}")
                return completed.returncode
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            section = "per_layer" if trace else "end_to_end"
            entry[section] = {
                "metrics": {key: value["value"] for key, value in result["metrics"].items()},
                "attempted": result["attempted"],
                "failed": result["failed"],
                "context": json.loads(lines[-2][len("context "):]),
            }
        entry["predicted_movers"] = {
            metric: movers
            for metric, movers in PREDICTED_MOVERS.items()
            if any(workload == name for _, workload in movers.get("moves", []))
            or name in movers.get("none", [])
        }
        results[name] = entry
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RESULTS_PATH.relative_to(ROOT)}; all outputs correct: {correct}")
    return 0 if correct else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="one workload named in BENCHMARK.json")
    target.add_argument("--all", action="store_true", help="every workload, both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one fresh-process set-up, or measure one share of an
    # untraced run, in the given directory.
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--part-dir", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench.workloads import WORKLOADS

    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        return setup_only(args)
    if args.part_dir:
        return measure_part(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
