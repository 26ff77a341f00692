"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot-50k --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the host stamp, the probe times and every named
timing with its sample count.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import repro  # noqa: E402

# Measure this checkout's program, never an installed copy of it.
if Path(repro.__file__).resolve().parent.parent != _ROOT / "src":
    sys.exit(f"repro imported from {repro.__file__}, not from {_ROOT / 'src'}")

from perfbench import battery, live, oneshot  # noqa: E402
from perfbench.harness import (  # noqa: E402
    Outcome,
    Tracer,
    host_probe_ms,
    host_stamp,
    timing,
)

WORKLOADS = {
    "oneshot-50k": oneshot.run,
    "live-stream": live.run,
    "query-battery": battery.run,
}

with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    _DECLARED = json.load(_handle)
#: name -> unit of every metric an untraced run reports.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
#: name -> unit of every metric a traced run reports.  A layer a
#: workload does not exercise reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def end_to_end(outcome: Outcome) -> dict[str, float]:
    return {
        "answer_ms.p50": statistics.median(outcome.answer_ms),
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": outcome.peak_rss_mb,
        "exact_share": outcome.matched / max(outcome.checked, 1),
    }


def per_layer(
    outcome: Outcome, tracer: Tracer, probes: list[float]
) -> dict[str, float]:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    unknown = set(outcome.layers) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    layers.update(outcome.layers)
    layers["host.probe_ms"] = statistics.median(probes)
    layers["trace.overhead_ms"] = statistics.median(
        outcome.traced_ms
    ) - statistics.median(outcome.answer_ms)
    unattributed = [
        layers_of_op[tracer.spans[index].name] * 1e3
        for index, layers_of_op in tracer.ops().items()
    ]
    layers["trace.unattributed_ms"] = statistics.median(unattributed)
    return layers


def coverage(layers: dict[str, float], tracer: Tracer) -> dict[str, float]:
    """The share of its enclosing call that the dominant layer of each
    exercised path takes, reported on the informational line."""
    shares = {}
    if any(span.name == "op.bsr" for span in tracer.spans):
        shares["sampling.run_ms / op.bsr_ms"] = layers[
            "sampling.run_ms"
        ] / tracer.span_ms("op.bsr")
    if layers["serving.flush_ms"]:
        shares["streaming.refresh_ms / serving.flush_ms"] = (
            layers["streaming.refresh_ms"] / layers["serving.flush_ms"]
        )
    return shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = host_stamp()
    probes = [host_probe_ms()]
    tracer = Tracer(args.trace == 1)
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    probes.append(host_probe_ms())

    shares = {}
    if args.trace:
        values, units = per_layer(outcome, tracer, probes), PER_LAYER
        shares = coverage(values, tracer)
    else:
        values, units = end_to_end(outcome), END_TO_END
    correct = (
        outcome.checked > 0
        and outcome.matched == outcome.checked
        and outcome.failed == 0
        and not outcome.problems
    )
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "stamp": stamp,
                "host.probe_ms": probes,
                "setup_s": outcome.setup_s,
                "timings_ms": {
                    name: timing(values_ms)
                    for name, values_ms in outcome.detail_ms.items()
                },
                "coverage": shares,
                "checked": outcome.checked,
                "problems": outcome.problems[:20],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
