"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1|both] [--out FILE]

Every run measures for BENCHMARK.json's run_seconds. For every workload,
trace mode and metric it prints the median, the quartiles and the spread
(q3 - q1) / median, with the end-to-end bound and whether the spread stays
below a third of it. ``--out`` writes the summary
and every run's result line as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import END_TO_END, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOUNDS = {name: m["bound"] for name, m in END_TO_END.items()}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(name, runs) -> dict:
    table = {}
    for metric, m in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = BOUNDS.get(metric)
        table[metric] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound}
        verdict = "" if bound is None else (
            "  ok" if spread < bound / 3 else "  WIDE")
        print(f"  {name:14s} {metric:38s} {med:12.6g} {m['unit']:10s} "
              f"spread {spread:7.3f}" + (f" bound {bound}" if bound else "")
              + verdict)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    summary = {}
    ok = True
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    for name in WORKLOADS:
        for trace in modes:
            runs = []
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                     "--trace", str(trace)],
                    capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= line["correct"]
                runs.append({"seed": seed, **line})
                print(f"{name} trace {trace} seed {seed}: correct={line['correct']} "
                      f"failed {line['failed']}/{line['attempted']}", flush=True)
            summary[f"{name}/trace{trace}"] = {"metrics": spreads(name, runs), "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    print("all runs correct" if ok else "SOME RUNS FAILED A CHECK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
