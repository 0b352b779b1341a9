"""Benchmark entry point: one run of one workload of ``curveflow run``.

    python3 perfbench/run.py --workload gamma_loop --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. ``--trace 0`` reports the end-to-end metrics, measured for
``--seconds``; ``--trace 1`` reports the per-layer metrics of a separate
traced run over a fixed number of inputs. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit, the environment, and any failed check. The full
result is also written to ``.perfbench/``. Exits nonzero, printing no result,
when the checkout has no ``src/curveflow``, the worker fails, or the worker
outlasts ``worker_timeout``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = {0: list(END_TO_END), 1: list(PER_LAYER)}
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 30.0
PROBE = ("import time; t0 = time.perf_counter(); import curveflow.cli; "
         "print(time.perf_counter() - t0)")


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def worker_timeout(seconds: float) -> float:
    """The worker's timed loop ends with the first call that finishes after
    ``seconds``, or after its first pass over the inputs if that takes
    longer; this leaves room for a pass several times slower than now, the
    warm-up run and the checks, and ends a run that hangs. A traced run does
    fixed work, whatever ``seconds`` is."""
    return max(150.0, 5.0 * seconds)


def setup_seconds(env) -> float:
    """Median import time of curveflow.cli over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "curveflow", "cli.py")):
        print(f"no curveflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = child_env()
    out_root = os.path.join(ROOT, ".perfbench")
    work = os.path.join(out_root, f"work-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = None if args.trace else setup_seconds(env)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--work", work],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=worker_timeout(args.seconds))
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics = {n: result["metrics"][n] for n in NAMES[args.trace]}
    with open(os.path.join(out_root, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {tag}  env {json.dumps(result['env'])}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for key, val in result["info"].items():
        print(f"# {key} = {val}")
    print(f"# attempted {result['attempted']} steps, failed (unconverged or "
          f"nonzero exit) {result['failed']}")
    for err in result["errors"]:
        print(f"# CHECK FAILED: {err}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
