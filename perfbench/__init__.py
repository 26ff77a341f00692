"""End-to-end and per-layer benchmark of the detection system.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
``perfbench/README.md`` maps every metric to its layer and workload.
"""
