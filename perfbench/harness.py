"""Measurement plumbing shared by the workloads.

* :class:`Tracer` keeps spans in memory.  Spans are opened by the
  benchmark's own code around calls into the program's public
  functions; nothing inside ``src/`` is instrumented.  A disabled
  tracer turns every span into a no-op, so the untraced runs that give
  the end-to-end metrics pay nothing for it.
* :func:`host_stamp`, :func:`host_probe_ms` and :func:`peak_rss_mb`
  describe the machine a run measured on.
* :class:`Outcome` is what every workload hands back to ``run.py``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Set-ups timed before a workload's loop.
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# tracing
@dataclass
class Span:
    """One timed call.  ``parent`` indexes ``Tracer.spans``; ``op`` is the
    index of the root span (the client operation) the call belongs to."""

    name: str
    parent: int | None
    op: int
    start: float
    seconds: float = 0.0


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.index = -1

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        parent = stack[-1] if stack else None
        op = tracer.spans[stack[0]].op if stack else self.index
        stack.append(self.index)
        tracer.spans.append(Span(self._name, parent, op, time.perf_counter()))
        return self

    def __exit__(self, *exc_info) -> None:
        span = self._tracer.spans[self.index]
        span.seconds = time.perf_counter() - span.start
        self._tracer._stack.pop()


class _NoSpan:
    __slots__ = ()
    index = -1

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span recorder; ``Tracer(False)`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call as a child of the open span."""
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name)

    def add_child(self, parent: int, name: str, seconds: float) -> None:
        """Attach a duration the program measured itself (for example a
        shard-side refresh) as a child of the closed span *parent*."""
        if not self.enabled:
            return
        owner = self.spans[parent]
        self.spans.append(
            Span(name, parent, owner.op, owner.start, float(seconds))
        )

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def ops(self) -> dict[int, dict[str, float]]:
        """Per root span: layer name -> self seconds summed over the op.

        The root's own entry (under its name) is the op's unattributed
        time: the benchmark's glue between layer calls plus the tracer's
        own cost.
        """
        per_op: dict[int, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            layers = per_op.setdefault(span.op, {})
            layers[span.name] = layers.get(span.name, 0.0) + own
        return per_op

    def op_seconds(self) -> dict[int, float]:
        """Wall time of every root span."""
        return {
            index: span.seconds
            for index, span in enumerate(self.spans)
            if span.parent is None
        }

    def span_ms(self, name: str) -> float:
        """Median duration (ms) of the spans called *name*."""
        return statistics.median(
            span.seconds * 1e3 for span in self.spans if span.name == name
        )

    def layer_ms(self, op_name: str | None = None) -> dict[str, float]:
        """Median self time (ms) per layer over the ops that called it.

        With *op_name*, only ops whose root span carries that name count.
        """
        samples: dict[str, list[float]] = {}
        for index, layers in self.ops().items():
            root = self.spans[index].name
            if op_name is not None and root != op_name:
                continue
            for name, seconds in layers.items():
                if name != root:
                    samples.setdefault(name, []).append(seconds * 1e3)
        return {name: statistics.median(v) for name, v in samples.items()}


# ----------------------------------------------------------------------
# statistics
def timing(values_ms: list[float]) -> dict[str, float]:
    """Median, and p90 only where at least ten samples lie beyond it."""
    summary = {"p50": statistics.median(values_ms), "n": len(values_ms)}
    if len(values_ms) * 0.1 >= 10:
        summary["p90"] = float(np.percentile(values_ms, 90))
    return summary


# ----------------------------------------------------------------------
# host
def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy loop; its time tracks host speed.

    Reported beside the metrics so drift between runs is visible; it is
    never used to normalise a metric.
    """
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    values = np.arange(400_000, dtype=np.uint64)
    for _ in range(8):
        values = values * np.uint64(6364136223846793005) + np.uint64(1)
        np.sort(values[:100_000])
    return (time.perf_counter() - started) * 1e3


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp() -> dict[str, object]:
    """Commit, interpreter, numpy, CPU model and usable CPU count."""
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids: list[int] = ()) -> float:
    """Peak RSS of this process plus the VmHWM of each live child.

    ``RUSAGE_CHILDREN`` only covers reaped children, so worker
    processes are read from ``/proc`` while they still run.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = sum(
        _vm_hwm_kb(pid) for pid in set(child_pids) if pid != os.getpid()
    )
    return (own_kb + children_kb) / 1024.0


# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured.

    ``peak_rss_mb`` is read after the timed loop and before the
    reference checks, which may need more memory than the workload.
    ``answer_ms`` holds the untraced answer-operation latencies behind
    ``answer_ms.p50`` and ``traced_ms`` a traced run's traced ones;
    ``detail_ms`` holds finer named timings reported
    on the informational line; ``layers`` holds the per-layer metrics a
    traced run derived.  ``problems`` lists every violated invariant.
    """

    setup_s: list[float] = field(default_factory=list)
    answer_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    detail_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    matched: int = 0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def time_setup(self, build):
        """Call *build*, record its wall time as a set-up sample, and
        return what it built."""
        started = time.perf_counter()
        built = build()
        self.setup_s.append(time.perf_counter() - started)
        return built

    def detail(self, name: str, value_ms: float) -> None:
        self.detail_ms.setdefault(name, []).append(value_ms)

    def check(self, ok: bool, what: str) -> None:
        """Count one reference comparison."""
        self.checked += 1
        if ok:
            self.matched += 1
        else:
            self.problems.append(f"mismatch: {what}")


def run_until(seconds: float, min_ops: int):
    """Yield op indices until *seconds* have passed and *min_ops* ran."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        yield index
        index += 1
