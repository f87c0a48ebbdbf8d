"""The three benchmark workloads and the closed loop that drives them.

Every workload is one caller that sends its next request only once the
previous one has returned, so requests never queue behind each other and a
request's latency is the time the caller waited for it.  Requests come in
rounds: a round is a fixed list of requests, and the metrics are computed
over windows of :attr:`Workload.ROUNDS_PER_WINDOW` whole rounds.

Every workload reaches the program only through a public entry point:
``Simulator.simulate``, ``ServiceClient.submit`` or ``ClusterService.submit``.
Inputs come from ``WorkloadGenerator``, ``default_pool`` and ``build_trace``
and depend only on the seed.  Why each workload exists is stated in
``BENCHMARK.json``; the end-to-end metrics each layer is predicted to move,
and on which workload, are listed in :data:`PREDICTED_MOVERS`.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import FeatureSet, SimJob, Simulator
from repro.cluster import ClusterConfig, ClusterService
from repro.runtime import ResultCache, SimOutcome, backends
from repro.serve import ServiceClient, ServiceConfig, build_trace
from repro.serve.replay import default_pool
from repro.system import AcceleratorSystem
from repro.workloads import ConvWorkload, GemmWorkload, WorkloadGenerator

from .metrics import Sample
from .spans import Patch, SpanRecorder

#: Seconds a request may stay open before it counts as failed.
TIMEOUT_S = 60.0

#: A small job every harness runs before timing starts (untimed), so lazy
#: imports and first-call costs are paid outside the measurement.
WARMUP = GemmWorkload(name="perfbench_warmup", m=8, n=8, k=16)

#: Paper kernels, sized so that no kernel dominates a pass (each takes a
#: similar share of host time under the two feature sets).  The conv is
#: 8x8x16->32 rather than 16x16x32->32, which alone took ~4 s of a ~5 s pass,
#: and the prefill is 128x64x64 because 256x64x64 does not fit the
#: scratchpad with every feature off.
PAPER_KERNELS = (
    GemmWorkload(name="paper_gemm_64x64x256", m=64, n=64, k=256),
    GemmWorkload(name="paper_tgemm_64x64x128", m=64, n=64, k=128, transposed_a=True),
    GemmWorkload(name="paper_qgemm_64x64x128", m=64, n=64, k=128, quantize=True),
    GemmWorkload(name="paper_prefill_128x64x64", m=128, n=64, k=64),
    GemmWorkload(name="paper_decode_2x256x256", m=2, n=256, k=256),
    ConvWorkload(
        name="paper_conv_8x8x16to32_k3",
        in_height=8,
        in_width=8,
        in_channels=16,
        out_channels=32,
        kernel_h=3,
        kernel_w=3,
        padding=1,
    ),
)

#: Architecture 6 (every DataMaestro feature) and architecture 1 (none, the
#: Fig. 7 ablation baseline).
FEATURE_SETS = (("full", FeatureSet.all_enabled()), ("baseline", FeatureSet.all_disabled()))

#: Per-layer metric -> the end-to-end metrics it should move, on which
#: workload.  "none" marks a workload on which the prediction is no change.
#: ``serve_hotkey`` compiles, builds, runs and verifies its misses in
#: process; ``cluster_unique`` does so inside forked shards, where the traced
#: run records no spans, so those layers are predicted and measured on the
#: other two workloads only.  Macro-stepping engages on the paper kernels
#: and never on the small kernels the service workloads simulate.
PREDICTED_MOVERS: Dict[str, Dict[str, object]] = {
    "job.hash_ms": {
        "moves": [["latency_p50_ms", "serve_hotkey"], ["latency_p50_ms", "cluster_unique"]],
        "none": ["paper_kernels"],
    },
    "job.hash_calls_per_request": {
        "moves": [["latency_p50_ms", "serve_hotkey"], ["latency_p50_ms", "cluster_unique"]],
        "none": ["paper_kernels"],
    },
    "cache.get_ms": {"moves": [["latency_p50_ms", "serve_hotkey"]]},
    "cache.hit_ratio": {"moves": [["latency_p50_ms", "serve_hotkey"]]},
    "cache.put_ms": {"moves": [["latency_p50_ms", "serve_hotkey"], ["latency_p50_ms", "cluster_unique"]]},
    "compiler.compile_ms": {"moves": [["latency_p50_ms", "serve_hotkey"], ["latency_p50_ms", "cluster_unique"]]},
    "system.build_ms": {"moves": [["latency_p50_ms", "serve_hotkey"], ["latency_p50_ms", "cluster_unique"]]},
    "system.verify_ms": {"moves": [["latency_p50_ms", "serve_hotkey"]]},
    "outcome.wrap_ms": {"moves": [["latency_p50_ms", "serve_hotkey"]]},
    "system.run_ms": {"moves": [["sim_cycles_per_s", "paper_kernels"], ["jobs_per_s", "serve_hotkey"]]},
    "engine.sim_cycles_per_s": {"moves": [["sim_cycles_per_s", "paper_kernels"], ["jobs_per_s", "serve_hotkey"]]},
    "engine.event_over_lockstep": {"moves": [["sim_cycles_per_s", "paper_kernels"]]},
    "engine.macro_*": {
        "moves": [["sim_cycles_per_s", "paper_kernels"]],
        "none": ["serve_hotkey", "cluster_unique"],
    },
    "serve.submit_ms": {"moves": [["latency_p50_ms", "serve_hotkey"]]},
    "serve.settle_ms": {"moves": [["latency_p90_ms", "serve_hotkey"]]},
    "cluster.submit_ms": {"moves": [["latency_p50_ms", "cluster_unique"]]},
    "cluster.settle_ms": {"moves": [["latency_p90_ms", "cluster_unique"]]},
    "cluster.journal_bytes_per_request": {"moves": [["latency_p50_ms", "cluster_unique"]]},
}


def layer_patches() -> List[Patch]:
    """The public entry points the traced run wraps, one span name each."""
    return [
        ("job.hash", SimJob, "job_hash", None),
        ("cache.get", ResultCache, "get", lambda outcome: {"hit": outcome is not None}),
        ("cache.put", ResultCache, "put", None),
        # The runtime backend calls the compiler through its own module global.
        ("compiler.compile", backends, "compile_workload", None),
        ("system.build", AcceleratorSystem, "__init__", None),
        (
            "system.run",
            AcceleratorSystem,
            "run",
            lambda result: {
                "cycles": result.streaming_cycles,
                "engine": result.metadata["engine"],
            },
        ),
        ("system.verify", AcceleratorSystem, "verify_outputs", None),
        # Not reported on its own; wrapped so its time is not left unattributed.
        ("system.steady_stats", AcceleratorSystem, "steady_stats", None),
        ("outcome.wrap", SimOutcome, "from_result", None),
        ("serve.submit", ServiceClient, "submit", None),
        ("cluster.submit", ClusterService, "submit", None),
    ]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident set of this process, plus ``children`` times the largest
    reaped child's (exact for one child, an upper bound for more)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def outcome_ok(outcome: Optional[SimOutcome], job: SimJob) -> bool:
    """The correctness gate every outcome passes: outputs equal the numpy
    oracle and the outcome belongs to the job that asked for it."""
    return (
        outcome is not None
        and outcome.functional_match is True
        and outcome.workload_name == job.workload.name
        and outcome.result is not None
    )


PARITY_FIELDS = (
    "streaming_cycles",
    "prepass_cycles",
    "bank_conflicts",
    "memory_reads",
    "memory_writes",
    "streamer_stats",
)


def parity_mismatch(event: SimOutcome, lockstep: SimOutcome) -> Optional[str]:
    """First simulated statistic on which the two engines disagree, if any."""
    for name in PARITY_FIELDS:
        if getattr(event.result, name) != getattr(lockstep.result, name):
            return name
    return None


# ----------------------------------------------------------------------
# Requests, runs and the closed loop.
# ----------------------------------------------------------------------
@dataclass
class Item:
    """One request: the jobs sent together, done when all have returned."""

    jobs: Tuple[SimJob, ...]
    #: Family or feature-set tag for the per-group engine metrics.
    group: str
    #: Identifies the request's unique content (repeats of a paper kernel
    #: share a key).
    key: int
    #: Index of the round the request belongs to.
    round: int


@dataclass
class Run:
    """What a run keeps: one sample per request, in the order sent, and,
    when asked for, the first outcome of each unique job (for the lockstep
    check).  Nothing else, so the heap the program collects does not grow
    with the run."""

    samples: List[Sample] = field(default_factory=list)
    #: ``job hash -> (job, outcome, group, key)``, filled when ``keep_outcomes``.
    served: Dict[str, tuple] = field(default_factory=dict)
    keep_outcomes: bool = False
    #: Service counter deltas over the run, and the bytes the journal grew by.
    counters: Dict[str, int] = field(default_factory=dict)
    journal_bytes: int = 0

    def add(self, item: Item, outcomes: Optional[List[SimOutcome]], latency: float, submit: float) -> None:
        tags = dict(
            round=item.round,
            key=item.key,
            group=item.group,
            full_features=item.group != "baseline",
        )
        if outcomes is None or not all(map(outcome_ok, outcomes, item.jobs)):
            self.samples.append(Sample(latency=latency, ok=False, **tags))
            return
        if self.keep_outcomes:
            for job, outcome in zip(item.jobs, outcomes):
                self.served.setdefault(outcome.job_hash, (job, outcome, item.group, item.key))
        self.samples.append(
            Sample(
                latency=latency,
                submit=submit,
                jobs=len(outcomes),
                cycles=sum(outcome.result.streaming_cycles for outcome in outcomes),
                kernel_cycles=sum(outcome.kernel_cycles for outcome in outcomes),
                ideal_cycles=sum(outcome.ideal_compute_cycles for outcome in outcomes),
                workload_group=outcomes[0].workload_group,
                utilization=outcomes[0].utilization,
                **tags,
            )
        )


@dataclass
class Harness:
    """A started program plus the run's inputs."""

    #: ``Simulator``, ``ServiceClient`` or ``ClusterService``.
    program: object
    #: The first window's rounds (drawn during set-up), then the rest, lazily.
    rounds: Iterator[List[Item]]
    journal: Optional[Path] = None


class Workload:
    """A named workload; its inputs depend only on ``seed``.

    ``setup(directory)`` is the set-up ``setup_s`` times: start the program
    and draw the first window's inputs.  ``warm`` then runs the untimed
    warm-up, ``measure`` drives the loop and ``close`` stops the program.
    """

    name = ""
    #: Whole rounds per metric window.
    ROUNDS_PER_WINDOW = 1
    #: Every round sends the same few jobs: metrics come from each job's
    #: best run (see :func:`perfbench.metrics.end_to_end`).
    best_of_repeats = False
    #: Worker processes the workload starts (their memory counts too).
    shards = 0
    #: Fresh processes an untraced run's measurement is split across, one
    #: after another, each measuring an equal share of the run.
    processes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- what each workload defines ------------------------------------
    def rounds(self) -> Iterator[List[Item]]:
        raise NotImplementedError

    def start(self, directory: Path) -> Tuple[object, Optional[Path]]:
        """Start the program; returns it and its journal path, if any."""
        raise NotImplementedError

    def call(self, harness: Harness, item: Item) -> Tuple[List[SimOutcome], float]:
        """Send one request and wait for it; returns its outcomes and the
        seconds spent in the caller-side submit calls."""
        raise NotImplementedError

    def warm(self, harness: Harness, fill_cache: bool = True) -> None:
        """Untimed jobs before the measurement; ``fill_cache=False`` (the
        traced run) leaves a result cache empty."""
        raise NotImplementedError

    def counters(self, harness: Harness) -> Dict[str, object]:
        del harness
        return {}

    def unexpected(self, counters: Dict[str, int]) -> int:
        """Requests the counter deltas show went a way the workload rules out."""
        del counters
        return 0

    def close(self, harness: Harness) -> None:
        del harness

    # -- shared ----------------------------------------------------------
    def setup(self, directory: Path) -> Harness:
        program, journal = self.start(directory)
        harness = Harness(program, iter(()), journal)
        try:
            rounds = self.rounds()
            first = [next(rounds) for _ in range(self.ROUNDS_PER_WINDOW)]
        except BaseException:
            self.close(harness)
            raise
        harness.rounds = itertools.chain(first, rounds)
        return harness

    def measure(
        self,
        harness: Harness,
        seconds: Optional[float] = None,
        count: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
        patches: Sequence[Patch] = (),
    ) -> Run:
        """Send whole rounds until ``seconds`` have passed, or exactly the
        first ``count`` requests.  With ``recorder``, ``patches`` are
        installed around the loop and the run keeps its outcomes."""
        run = Run(keep_outcomes=recorder is not None)
        before = self.counters(harness)
        journal_before = harness.journal.stat().st_size if harness.journal else 0
        if recorder is not None:
            recorder.install(patches)
        try:
            deadline = time.perf_counter() + seconds if seconds is not None else float("inf")
            for batch in harness.rounds:
                if time.perf_counter() >= deadline or len(run.samples) == count:
                    break
                for item in batch:
                    if len(run.samples) == count:
                        break
                    self.send(harness, item, run, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        after = self.counters(harness)
        run.counters = {
            key: int(value) - int(before.get(key, 0))
            for key, value in after.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        if harness.journal:
            run.journal_bytes = harness.journal.stat().st_size - journal_before
        return run

    def send(self, harness: Harness, item: Item, run: Run, recorder: Optional[SpanRecorder] = None) -> None:
        """One timed request; a raising one is a failed request."""
        outcomes, submit = None, 0.0
        start = time.perf_counter()
        try:
            if recorder is None:
                outcomes, submit = self.call(harness, item)
            else:
                with recorder.context(group=item.group, key=item.key), recorder.span("job"):
                    outcomes, submit = self.call(harness, item)
        except Exception:  # noqa: BLE001 — counted as a failed request
            outcomes = None
        run.add(item, outcomes, time.perf_counter() - start, submit)


# ----------------------------------------------------------------------
# Simulator loops: one caller, uncached Simulator.
# ----------------------------------------------------------------------
class SimulatorLoop(Workload):
    """Jobs straight into an uncached ``Simulator``, one at a time."""

    def start(self, directory: Path) -> Tuple[Simulator, None]:
        del directory  # nothing on disk: the simulator is uncached
        return Simulator(), None

    def warm(self, harness: Harness, fill_cache: bool = True) -> None:
        del fill_cache
        for _, features in FEATURE_SETS:
            harness.program.simulate(SimJob(workload=WARMUP, features=features))

    def call(self, harness: Harness, item: Item) -> Tuple[List[SimOutcome], float]:
        start = time.perf_counter()
        outcome = harness.program.simulate(item.jobs[0])
        return [outcome], time.perf_counter() - start

    def paired(self, harness: Harness, seconds: float, recorder: SpanRecorder, patches: Sequence[Patch]) -> Tuple[Run, Run]:
        """Send whole rounds until ``seconds`` have passed, each job twice:
        once plain and once with ``patches`` installed and the job inside a
        ``job`` span.  Which of the two goes first alternates from job to
        job, so warm-cache effects of a repeat cancel out."""
        plain, traced = Run(), Run(keep_outcomes=True)
        deadline = time.perf_counter() + seconds
        traced_first = False
        for batch in harness.rounds:
            if time.perf_counter() >= deadline:
                break
            for item in batch:
                for with_spans in (traced_first, not traced_first):
                    if not with_spans:
                        self.send(harness, item, plain)
                        continue
                    recorder.install(patches)
                    try:
                        self.send(harness, item, traced, recorder)
                    finally:
                        recorder.uninstall()
                traced_first = not traced_first
        return plain, traced


class PaperKernels(SimulatorLoop):
    """Six paper kernels under architecture 6 and architecture 1, repeated."""

    name = "paper_kernels"
    # Twelve different kernels: a percentile across them falls in the gap
    # between two of them, on the slowest or fastest run of one kernel.
    best_of_repeats = True
    # One process can run one kernel 20-45% slower than usual on every
    # repeat (how its memory happened to be laid out), which a best run
    # within that process cannot undo; the best run across four processes
    # can.
    processes = 4

    def rounds(self) -> Iterator[List[Item]]:
        for round_index in itertools.count():
            batch = []
            for set_index, (label, features) in enumerate(FEATURE_SETS):
                for index, workload in enumerate(PAPER_KERNELS):
                    job = SimJob(workload=workload, features=features, seed=self.seed)
                    key = set_index * len(PAPER_KERNELS) + index
                    batch.append(Item((job,), label, key, round_index))
            yield batch


def distinct_kernels(seed: int, exclude: Sequence = (), **box) -> Iterator:
    """Kernels of the replay pool's families from the seeded generator,
    drawn lazily and never the same shape twice (nor one in ``exclude``),
    so none is served from a cache however many a run sends."""
    generator = WorkloadGenerator(seed=seed, families=("gemm", "transposed_gemm", "decode", "prefill"), **box)
    seen = {replace(workload, name="") for workload in exclude}
    for index in itertools.count():
        while True:
            workload = generator.draw(generator.families[index % len(generator.families)])
            shape = replace(workload, name="")
            if shape not in seen:
                break
        seen.add(shape)
        yield workload


# ----------------------------------------------------------------------
# Service loops: requests into ServiceClient or ClusterService.
# ----------------------------------------------------------------------
class ServiceLoop(Workload):
    """Each request's jobs are submitted back to back, then awaited.

    A request's latency is its submit calls plus the wait for the last
    outcome (``submit + settle``).  Its ``SimJob`` objects are built when
    its round is drawn, as if they arrived off the wire.
    """

    #: Requests per round.
    ROUND = 10
    ROUNDS_PER_WINDOW = 10

    def call(self, harness: Harness, item: Item) -> Tuple[List[SimOutcome], float]:
        start = time.perf_counter()
        tickets = [harness.program.submit(job, client_name="perfbench") for job in item.jobs]
        submitted = time.perf_counter()
        return [ticket.result(TIMEOUT_S) for ticket in tickets], submitted - start

    def close(self, harness: Harness) -> None:
        harness.program.close()


class ServeHotkey(ServiceLoop):
    """Sessions into the in-process service: each asks for one kernel no
    one asked for before (a miss, simulated by a worker and written back),
    2 to 6 hot kernels with Zipf-skewed keys (cache hits), and the new
    kernel once more (coalesced onto it while it runs, else a hit).

    A hit alone takes ~1 ms of thread hand-offs, and a shared host can
    alternate between phases about twice apart in speed, so a percentile of
    hit-only sessions jumps between two values from run to run.  The miss in
    each session spreads the latencies out, and with them the percentiles
    move smoothly.
    """

    name = "serve_hotkey"
    #: The replay harness's default 24-workload pool, the same for every
    #: seed, so the hot keys (and the cycles they stand for) do not change
    #: with the seed; the seed draws the new kernels, the session sizes and
    #: the key sequence.
    POOL_SIZE = 24
    HOT_PER_SESSION = (2, 6)

    def pool(self) -> List:
        return default_pool(self.POOL_SIZE, seed=0)

    def rounds(self) -> Iterator[List[Item]]:
        pool = self.pool()
        # The generator's default shape box: a new kernel takes 5-40 ms.
        new = distinct_kernels(self.seed, exclude=pool)
        for round_index in itertools.count():
            round_seed = self.seed * 1_000_003 + round_index
            rng = random.Random(round_seed)
            sizes = [rng.randint(*self.HOT_PER_SESSION) for _ in range(self.ROUND)]
            # The hotkey regime's Zipf key sampler; arrival times are not
            # used by a closed loop.
            hot = iter(build_trace("hotkey", sum(sizes), 1.0, pool, seed=round_seed))
            batch = []
            for size in sizes:
                kernels = [next(new)] + [next(hot).workload for _ in range(size)]
                kernels.append(kernels[0])
                jobs = tuple(SimJob(workload=kernel, seed=self.seed) for kernel in kernels)
                batch.append(Item(jobs, "", round_index * self.ROUND + len(batch), round_index))
            yield batch

    def warm(self, harness: Harness, fill_cache: bool = True) -> None:
        # Filling the fresh cache with the hot pool makes the hot keys hit.
        # The traced run leaves it empty, so their first requests miss.
        for kernel in [WARMUP] + (self.pool() if fill_cache else []):
            self.call(harness, Item((SimJob(workload=kernel, seed=self.seed),), "", -1, -1))

    def start(self, directory: Path) -> Tuple[ServiceClient, None]:
        client = ServiceClient(
            cache=ResultCache(directory / "cache"), config=ServiceConfig(max_workers=2)
        )
        return client, None

    def counters(self, harness: Harness) -> Dict[str, object]:
        return harness.program.stats()


class ClusterUnique(ServiceLoop):
    """Distinct kernels, one at a time, into the sharded cluster with its
    journal on: every request executes in a shard, writes the cache back
    and appends to the journal."""

    name = "cluster_unique"
    #: Counters that show a request was served without executing.
    NOT_EXECUTED = ("coalesced", "cache_hits", "journal_hits", "shard_cache_hits")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Leave the caller a core of its own.
        self.shards = max(1, usable_cpus() - 1)

    def rounds(self) -> Iterator[List[Item]]:
        # The default pool's shape box: a kernel takes a few milliseconds,
        # so routing, pickling and settling are a visible share.
        kernels = distinct_kernels(self.seed, max_gemm_m=16, max_gemm_n=16, max_gemm_k=24)
        for round_index in itertools.count():
            yield [
                Item((SimJob(workload=next(kernels), seed=self.seed),), "", round_index * self.ROUND + i, round_index)
                for i in range(self.ROUND)
            ]

    def start(self, directory: Path) -> Tuple[ClusterService, Path]:
        journal = directory / "journal.jsonl"
        cluster = ClusterService(
            cache=ResultCache(directory / "cache"),
            config=ClusterConfig(shards=self.shards),
            journal=journal,
        )
        return cluster, journal

    def warm(self, harness: Harness, fill_cache: bool = True) -> None:
        # Distinct jobs, several per shard, so that every shard is likely
        # to have run one.
        del fill_cache
        for index in range(4 * self.shards):
            job = SimJob(workload=replace(WARMUP, name=f"perfbench_warmup_{index}", k=16 + 4 * index))
            self.call(harness, Item((job,), "", -1, -1))

    def counters(self, harness: Harness) -> Dict[str, object]:
        return harness.program.stats_dict()

    def unexpected(self, counters: Dict[str, int]) -> int:
        return sum(counters.get(name, 0) for name in self.NOT_EXECUTED)


WORKLOADS = {
    workload.name: workload
    for workload in (PaperKernels, ServeHotkey, ClusterUnique)
}
