"""The benchmark's definition, read from BENCHMARK.json at the checkout root.

BENCHMARK.json is the one place that names the workloads, the metrics, their
units and bounds, and the run length. The workloads' parameters are in
``workloads.py``; which end-to-end metric each per-layer metric should move
is in the README.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

RUN_SECONDS = BENCH["run_seconds"]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}
UNITS = {name: m["unit"] for name, m in (END_TO_END | PER_LAYER).items()}
