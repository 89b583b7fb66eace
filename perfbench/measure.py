"""Measurement helpers shared by the workloads: clocks, percentiles,
host calibration, peak memory, per-layer accounting and the span log of
a traced run.

Nothing here imports the system under test, so the helpers also serve the
steadiness tool and the smoke test.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end times are process CPU time.  The timed calls run on one
#: thread and do no I/O, so on an idle host this equals wall time; on a
#: shared host it leaves out the time the OS gave to other processes,
#: which made wall time far too noisy to bound (a fixed pure-Python loop
#: read 34-85 ms wall against 34-43 ms CPU on the same 2-core host).
CPU_CLOCK = time.process_time
#: Traced passes use wall time, the clock of the program's own spans
#: (``SliceReport`` timings, ``Database.traces()``), so that layer times
#: and op times are comparable.
WALL_CLOCK = time.perf_counter


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``0 <= q <= 1``) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class HostProbe:
    """Samples a fixed pure-Python loop through the run.

    The loop never touches the system under test, so a change in its CPU
    time between runs is the host getting faster or slower, not the
    program; a wall time well above the CPU time shows other processes
    sharing the cores.  The host's speed changes within fractions of a
    second, so besides a burst at the start and end of a run the loop is
    sampled right before and right after every op and every set-up,
    outside their timed calls.
    """

    ITERATIONS = 20_000
    #: CPU ms of one loop on the reference host (the quiet 2-core Xeon VM
    #: this benchmark was built on); end-to-end times are scaled to it.
    REFERENCE_MS = 3.0

    def __init__(self) -> None:
        self.cpu_ms: List[float] = []
        self.wall_ms: List[float] = []

    def sample(self, repeats: int = 1) -> List[float]:
        """Run the loop *repeats* times; return the new CPU ms samples."""
        for _ in range(repeats):
            started, wall_started = CPU_CLOCK(), WALL_CLOCK()
            total = 0
            table: Dict[int, int] = {}
            for i in range(self.ITERATIONS):
                total += (i * i) % 7
                table[i & 1023] = total
            self.cpu_ms.append((CPU_CLOCK() - started) * 1000.0)
            self.wall_ms.append((WALL_CLOCK() - wall_started) * 1000.0)
        return self.cpu_ms[len(self.cpu_ms) - repeats:]

    def median(self) -> Tuple[float, float]:
        """Median (CPU ms, wall ms) over every sample so far."""
        return statistics.median(self.cpu_ms), statistics.median(self.wall_ms)


#: probe samples taken on each side of a set-up.
SETUP_PROBES = 3

T = TypeVar("T")


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class OpMeter:
    """Watches each op of a pass beside the pass's own clock.

    It keeps each op's wall time, so throughput can be read on both
    clocks, and it checks the premise of the CPU clock: that an op's work
    runs on the calling thread.  CPU spent by other threads of the process
    inflates ``time.process_time``; CPU spent by child processes never
    reaches it.  ``problem()`` names either, so a run whose CPU figures
    would not be the program's reports none.

    Call ``start()`` just before an op's first clock read and ``stop()``
    just after its last, so the meter's own work stays outside the op.
    Each samples the host probe once, outside the op; ``calib_ms[-1]`` is
    the mean of the samples taken right before and right after the last op.
    """

    #: share of the ops' CPU time that other threads may take (clock
    #: rounding) before the CPU clock stops measuring the calling thread.
    OFF_THREAD_TOLERANCE = 0.01

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.calib_ms: List[float] = []
        self._probe_before_ms = 0.0
        self.wall_seconds: List[float] = []
        self.process_seconds = 0.0
        self.off_thread_seconds = 0.0
        self.issues: List[str] = []
        self._started: Tuple[float, int, float, float, float] = (0.0, 0, 0.0, 0.0, 0.0)

    def start(self) -> None:
        self._probe_before_ms = self.probe.sample()[0]
        self._started = (
            _children_cpu_seconds(),
            threading.active_count(),
            time.thread_time(),
            CPU_CLOCK(),
            WALL_CLOCK(),
        )

    def stop(self) -> None:
        wall, process, thread = WALL_CLOCK(), CPU_CLOCK(), time.thread_time()
        children, threads, thread0, process0, wall0 = self._started
        self.wall_seconds.append(wall - wall0)
        self.process_seconds += process - process0
        self.off_thread_seconds += (process - process0) - (thread - thread0)
        if len(self.issues) < 5:
            if _children_cpu_seconds() != children:
                self.issues.append("a child process ended during an op")
            if threading.active_count() != threads:
                self.issues.append("the thread count changed during an op")
            if multiprocessing.active_children():
                self.issues.append("child processes were alive during an op")
        self.calib_ms.append((self._probe_before_ms + self.probe.sample()[0]) / 2.0)

    @property
    def wall_ops_per_s(self) -> float:
        busy = sum(self.wall_seconds)
        return len(self.wall_seconds) / busy if busy > 0 else 0.0

    def scaled_wall_ops_per_s(self) -> float:
        """Wall-clock throughput with each op scaled by its host factor,
        as ``run.end_to_end_metrics`` scales CPU times."""
        busy = sum(
            seconds * HostProbe.REFERENCE_MS / calib
            for seconds, calib in zip(self.wall_seconds, self.calib_ms)
        )
        return len(self.wall_seconds) / busy if busy > 0 else 0.0

    def problem(self) -> Optional[str]:
        """Why this pass's CPU times would not be the program's, or None."""
        issues = list(self.issues)
        if self.off_thread_seconds > self.OFF_THREAD_TOLERANCE * self.process_seconds:
            issues.append(
                f"threads other than the caller used {self.off_thread_seconds:.3f} s "
                f"of the ops' {self.process_seconds:.3f} s of process CPU"
            )
        if not issues:
            return None
        return (
            "; ".join(issues)
            + ". The ops no longer run on the calling thread alone, so process CPU "
            "time does not measure them; time them on the wall clock instead "
            "(see 'Run hygiene' in perfbench/README.md)."
        )


def source_digest(paths: Sequence[str]) -> str:
    """Short digest of the files under *paths* (relative to the repository
    root), put in the name of a cache entry made from them so that an entry
    made from other sources is never reused."""
    digest = hashlib.sha1()
    for path in sorted(paths):
        full = os.path.join(ROOT, path)
        files = [full]
        if os.path.isdir(full):
            files = sorted(
                os.path.join(directory, name)
                for directory, _, names in os.walk(full)
                for name in names
                if name.endswith((".py", ".sql", ".json"))
            )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (children excluded), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunSpec:
    """What one pass is asked to do.

    *ops* is fixed before the run (from ``--seconds`` or ``--ops``), never
    by a clock; *expected* holds the oracle's outputs for those ops.
    """

    seed: int
    ops: int
    cache_dir: str
    expected: object = None
    traced: bool = False
    spans: Optional["SpanLog"] = None
    clock: Callable[[], float] = CPU_CLOCK
    probe: HostProbe = field(default_factory=HostProbe)

    def __post_init__(self) -> None:
        self.meter = OpMeter(self.probe)


@dataclass
class PassResult:
    """What one pass over a workload's ops measured.

    ``op_seconds`` holds the time (on the pass's clock) of each completed
    op's timed calls; checks run between ops, outside those calls, so they
    never count.  ``op_calib_ms`` / ``setup_calib_ms`` hold the host
    probe's CPU ms measured right after each op and around each set-up.
    ``layer_seconds`` / ``counts`` are filled only by a traced pass.
    """

    attempted: int = 0
    failed: int = 0
    op_seconds: List[float] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    op_calib_ms: List[float] = field(default_factory=list)
    setup_calib_ms: List[float] = field(default_factory=list)
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: per op that recorded spans: its wall seconds and the part of them
    #: no child span covers.
    span_op_seconds: List[float] = field(default_factory=list)
    unattributed_seconds: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def add_op(self, seconds: float, meter: OpMeter) -> None:
        self.op_seconds.append(seconds)
        self.op_calib_ms.append(meter.calib_ms[-1])

    def timed_setup(self, spec: "RunSpec", build: Callable[[], T]) -> T:
        """Run and time one set-up, with host probe samples either side."""
        before = spec.probe.sample(SETUP_PROBES)
        started = spec.clock()
        built = build()
        self.setup_seconds.append(spec.clock() - started)
        self.setup_calib_ms.append(statistics.median(before + spec.probe.sample(SETUP_PROBES)))
        return built

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def add_layer(self, name: str, seconds: float) -> None:
        self.layer_seconds[name] = self.layer_seconds.get(name, 0.0) + seconds

    def add_count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record_op(
        self,
        spans: "SpanLog",
        op_id: int,
        started: float,
        seconds: float,
        children: List[tuple],
        label: str = "",
    ) -> None:
        """Log one traced op and charge its child spans to their layers."""
        for name, _, child_seconds in children:
            self.add_layer(name, child_seconds)
        self.span_op_seconds.append(seconds)
        self.unattributed_seconds.append(spans.op(op_id, started, seconds, children, label))

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.op_seconds)
        return len(self.op_seconds) / busy if busy > 0 else 0.0


class SpanLog:
    """Spans of a traced run, kept in memory and written once at the end.

    Each op gets one ``op`` span; every call the benchmark timed inside it
    becomes a child span carrying the op's id.  Offsets are milliseconds
    since the log was created, on the traced pass's clock.  Phase spans read from
    ``Database.traces()`` carry durations only (the trace export has no
    start offsets), so their ``start_ms`` is ``null``.
    """

    def __init__(self, clock: Callable[[], float] = WALL_CLOCK) -> None:
        self.origin = clock()
        self.records: List[dict] = []

    def op(
        self,
        op_id: int,
        started: float,
        seconds: float,
        children: List[tuple],
        label: str = "",
    ) -> float:
        """Record one op and its children; return its unattributed seconds.

        *children* holds ``(name, start_or_None, seconds)`` tuples.
        """
        attributed = sum(child[2] for child in children)
        remainder = seconds - attributed
        self.records.append(
            {
                "op": op_id,
                "name": "op",
                "label": label,
                "parent": None,
                "start_ms": (started - self.origin) * 1000.0,
                "ms": seconds * 1000.0,
                "unattributed_ms": remainder * 1000.0,
            }
        )
        for name, start, child_seconds in children:
            self.records.append(
                {
                    "op": op_id,
                    "name": name,
                    "parent": "op",
                    "start_ms": None if start is None else (start - self.origin) * 1000.0,
                    "ms": child_seconds * 1000.0,
                }
            )
        return remainder

    def side(self, op_id: int, name: str, started: float, seconds: float) -> None:
        """Record a call made for op *op_id* but outside its timed calls."""
        self.records.append(
            {
                "op": op_id,
                "name": name,
                "parent": None,
                "start_ms": (started - self.origin) * 1000.0,
                "ms": seconds * 1000.0,
            }
        )

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def write_json_atomic(path: str, payload: object) -> None:
    """Write *payload* as JSON so a reader never sees a half-written file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(partial, path)


def read_json(path: str) -> Optional[object]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
