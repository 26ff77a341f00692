"""Workload ``live-stream``: the deployed monitoring loop.

A durable :class:`RiskService` (WAL in a work directory inside the
checkout, default pool mode, one shard per usable CPU) over a fixed
4k-node power-law graph, with four tenants at distinct k.

The graph is smaller than ``oneshot-50k``'s on purpose: a write's cost
follows how many cached worlds its events invalidate, which varies
widely from write to write, so a run needs several hundred writes for
a steady median.  At 10k nodes a 25 s run got ~300 writes and its
median spread 0.21 (IQR/median) over five seeds; at 4k it gets ~580
and spread 0.10 over the same seeds, run interleaved with the 10k
ones on a 2-core Xeon.  Distinct k matters too: tenants with equal parameters
share the cross-tenant result cache, so one warm-up would answer for
all of them and the other initial builds would land inside timed
writes.

One client runs a closed loop.  A *write* is ``submit_updates`` of 8
drift events to one tenant (round-robin), ``flush()``, then
``query_topk`` on that tenant; ``answer_ms`` is its wall time
(update-to-answer).  Each write is followed by three *reads*:
``query_topk`` on the other tenants, which have nothing pending.
A run starts ``SERVICES`` services one after another, each from the
base graph in a fresh WAL directory, and gives each an equal share of
its time; writes draw the next events of one stream across services.

The reference for ``exact_share``: when a service closes, each tenant's
final answer equals a fresh BSR with the tenant's parameters on a copy
of the base graph with the events that service accepted for the tenant
applied.  The checks run between services, outside the timed loop.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial

from repro.algorithms.bsr import BoundedSampleReverseDetector
from repro.serving.service import RiskService
from repro.streaming.events import apply_events

from perfbench import inputs
from perfbench.harness import REPO_ROOT, Outcome, Tracer, peak_rss_mb, run_until

TENANT_KS = (5, 10, 20, 40)
TENANTS = [f"tenant-{k}" for k in TENANT_KS]
EVENTS_PER_WRITE = 8
READS_PER_WRITE = 3
MAX_WRITES = 2000
#: Services a run starts one after another, each serving an equal share
#: of the run's time.  Every start is a set-up sample, so that the
#: set-up median samples the host over the whole run, not only over its
#: first seconds.
SERVICES = 5
#: Writes each service takes even when they take longer than its share.
MIN_WRITES = 16
#: Counts are summed over the first service's first writes, so that they
#: depend on the seed alone and not on how many writes a run completed.
COUNTED_WRITES = MIN_WRITES
#: The pool's default shard count, capped by the CPUs this process may
#: use: the default counts every CPU of the host.
SHARDS = min(len(os.sched_getaffinity(0)), 8)
#: Work directories (WALs, snapshots) live here, inside the checkout.
WORK_ROOT = REPO_ROOT / ".perfbench_work"


@dataclass
class Tally:
    """Writes numbered, and what the traced run counts, across every
    service of a run."""

    written: int = 0
    refreshes: list = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    wal_bytes: int = 0
    events: int = 0


def _tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


def _start(arrays, monitor_seed: int, wal_dir: str) -> RiskService:
    """Set-up: build the graph, start the service, warm every tenant."""
    service = RiskService(
        arrays.build(),
        wal_dir=wal_dir,
        shards=SHARDS,
        monitor_defaults={"seed": monitor_seed},
    )
    for tenant, k in zip(TENANTS, TENANT_KS):
        service.register_tenant(tenant, k)
    # One tenant at a time, like the timed loop: warming the shards in
    # parallel made set-up depend on whether the host gave this process
    # a second CPU (set-up medians of 0.48 and 0.75 s in two sets of the
    # same code, against 0.72-0.83 s one at a time).
    for tenant in TENANTS:
        service.pool.query(tenant).result()
    return service


def run(seed: int, seconds: float, tracer: Tracer, *,
        nodes: int = 4_000) -> Outcome:
    arrays = inputs.powerlaw_arrays(nodes)
    base = arrays.build()
    monitor_seed = inputs.request_seeds(seed, "live-stream", 1)[0]
    events = inputs.drift_events(base, EVENTS_PER_WRITE * MAX_WRITES, seed)
    outcome = Outcome()
    tally = Tally()
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        for number in range(SERVICES):
            wal_dir = os.path.join(work, f"wal-{number}")
            service = outcome.time_setup(
                partial(_start, arrays, monitor_seed, wal_dir)
            )
            try:
                accepted = _loop(service, events, seconds / SERVICES, tracer,
                                 outcome, tally, wal_dir)
                finals = {t: service.query_topk(t) for t in TENANTS}
                outcome.peak_rss_mb = max(
                    outcome.peak_rss_mb,
                    peak_rss_mb(service.pool.worker_pids()),
                )
            finally:
                service.close()
            for tenant, k in zip(TENANTS, TENANT_KS):
                graph = base.copy()
                apply_events(graph, accepted[tenant])
                fresh = BoundedSampleReverseDetector(
                    seed=monitor_seed
                ).detect(graph, k)
                outcome.check(
                    finals[tenant].same_answer(fresh),
                    f"service {number}, {tenant}: served answer vs fresh BSR",
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer.enabled:
        outcome.layers.update(_layers(tracer, tally))
    return outcome


def _loop(service, events, seconds, tracer, outcome, tally,
          wal_dir) -> dict[str, list]:
    """One service's timed writes and reads; returns each tenant's
    accepted events.  Writes are numbered across the run's services, so
    that every service draws fresh events."""
    untraced = Tracer(False)
    accepted: dict[str, list] = {tenant: [] for tenant in TENANTS}
    latest: dict[str, object] = {}
    wal_before = _tree_bytes(wal_dir)
    hits_before = dict(service.cache_stats)
    for _ in run_until(seconds, MIN_WRITES):
        index = tally.written
        if index >= MAX_WRITES:
            break
        tally.written += 1
        tenant = TENANTS[index % len(TENANTS)]
        batch = events[EVENTS_PER_WRITE * index : EVENTS_PER_WRITE * (index + 1)]
        # A traced run traces every other round of writes (one write per
        # tenant), so that it also measures the untraced wall time its
        # tracing overhead is taken against, on the same tenants.
        traced_round = (index // len(TENANTS)) % 2
        trace = tracer if tracer.enabled and traced_round else untraced
        outcome.attempted += 1
        try:
            started = time.perf_counter()
            with trace.span("op.write"):
                with trace.span("serving.submit_updates"):
                    count = service.submit_updates(tenant, batch)
                with trace.span("serving.flush") as flush:
                    reports = service.flush()
                with trace.span("serving.query_topk"):
                    answer = service.query_topk(tenant)
            elapsed_ms = (time.perf_counter() - started) * 1e3
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            outcome.failed += 1
            outcome.problems.append(f"write {index}: {error!r}")
            continue
        accepted[tenant].extend(batch[:count])
        latest[tenant] = answer
        report = reports[tenant]
        trace.add_child(flush.index, "streaming.refresh", report.elapsed_seconds)
        tally.refreshes.append(report)
        if count != len(batch):
            outcome.problems.append(f"write {index}: {count} events accepted")
        if report.mode == "initial":
            outcome.problems.append(f"write {index}: initial build was timed")
        (outcome.traced_ms if trace is tracer else outcome.answer_ms).append(
            elapsed_ms
        )
        outcome.detail("update_to_answer_ms", elapsed_ms)
        for offset in range(1, READS_PER_WRITE + 1):
            other = TENANTS[(index + offset) % len(TENANTS)]
            outcome.attempted += 1
            try:
                started = time.perf_counter()
                with trace.span("op.read"):
                    with trace.span("serving.query_topk"):
                        read = service.query_topk(other)
                read_ms = (time.perf_counter() - started) * 1e3
            except Exception as error:  # noqa: BLE001 - counted
                outcome.failed += 1
                outcome.problems.append(f"read {index}/{offset}: {error!r}")
                continue
            outcome.detail("topk_read_ms", read_ms)
            if other in latest and not read.same_answer(latest[other]):
                outcome.problems.append(f"read {index}/{offset}: stale answer")
    tally.hits += service.cache_stats["hits"] - hits_before["hits"]
    tally.misses += service.cache_stats["misses"] - hits_before["misses"]
    tally.wal_bytes += _tree_bytes(wal_dir) - wal_before
    tally.events += sum(len(v) for v in accepted.values())
    return accepted


def _layers(tracer: Tracer, tally: Tally) -> dict[str, float]:
    refreshes = tally.refreshes
    counted = refreshes[:COUNTED_WRITES]
    fallbacks = sum(
        1 for r in refreshes if r.mode == "full" or r.sampling == "resampled"
    )
    write_layers = tracer.layer_ms("op.write")
    return {
        "serving.submit_updates_ms": write_layers["serving.submit_updates"],
        "serving.flush_ms": tracer.span_ms("serving.flush"),
        "serving.dispatch_ms": write_layers["serving.flush"],
        "streaming.refresh_ms": write_layers["streaming.refresh"],
        "serving.query_topk_ms": tracer.span_ms("serving.query_topk"),
        "serving.cache_hit_share": tally.hits / max(tally.hits + tally.misses, 1),
        "streaming.worlds_repaired": sum(r.worlds_repaired for r in counted),
        "streaming.bounds_recomputed": sum(
            r.bounds_recomputed for r in counted
        ),
        "streaming.fallback_share": fallbacks / max(len(refreshes), 1),
        "persistence.wal_bytes_per_event": tally.wal_bytes
        / max(tally.events, 1),
    }
