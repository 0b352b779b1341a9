"""One run of one workload, in a fresh single-threaded process.

Started by ``run.py``; prints a JSON object as its last stdout line with the
metrics, the operation counts, the failed correctness checks and the
environment. Untraced (``--trace 0``) it runs ``curveflow.cli.main`` on the
workload's first ``timed_inputs`` seeded inputs, pass after pass, until each
has run once and ``--seconds`` have passed, wrapping only
``curveflow.cli.run_flow`` to keep the returned trajectory. Traced
(``--trace 1``) it runs each of the workload's first ``traced_inputs``
inputs once untraced and once with spans around every layer boundary, and
derives the per-layer metrics from the spans.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import curveflow.cli as cli
import curveflow.flow as flow
import curveflow.minimize as minimize
from curveflow.diagnostics import self_intersections
from curveflow.energy import EnergyParams, objective, objective_gradient
from curveflow.io import read_trajectory_jsonl
from curveflow.polyline import ReducedCoords, resample_equal_arclength, to_reduced

import spans
from spec import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS, cli_argv, gamma_dense, make_input, physical_errors, write_input

# Module attributes one layer calls in another, and the span recorded
# around each call when tracing.
LAYER_CALLS = [
    (cli, "make_scenario", "scenarios.make"),
    (cli, "run_flow", "flow.run"),
    (cli, "write_trajectory", "io.write"),
    (cli, "render_svg", "io.svg"),
    (cli, "full_residual_report", "diagnostics.residual"),
    (cli, "self_intersections", "diagnostics.crossings"),
    (flow, "minimize_step", "minimize.step"),
    (flow, "energy", "flow.check"),
    (flow, "dissipation", "flow.check"),
    (flow, "assert_cone_condition", "flow.check"),
    (minimize, "_objective_raw", "energy.eval"),
    (minimize, "to_reduced", "polyline.to_reduced"),
    (minimize, "from_reduced", "polyline.from_reduced"),
]


def cli_run(argv, tracer=None, count_evals=False):
    """One ``curveflow run``: (exit code, wall seconds, trajectory, evals)."""
    kept = {"traj": None, "evals": 0}
    if tracer is not None:
        for module, attr, name in LAYER_CALLS:
            tracer.wrap(module, attr, name)
    run_flow, objective_raw = cli.run_flow, minimize._objective_raw

    def keep_trajectory(*args, **kwargs):
        kept["traj"] = run_flow(*args, **kwargs)
        return kept["traj"]

    def count(*args, **kwargs):
        kept["evals"] += 1
        return objective_raw(*args, **kwargs)

    cli.run_flow = keep_trajectory
    if count_evals:
        minimize._objective_raw = count
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli.main", cli.main, argv)
            wall = time.perf_counter() - t0
    finally:
        cli.run_flow, minimize._objective_raw = run_flow, objective_raw
        if tracer is not None:
            tracer.restore()
    return rc, wall, kept["traj"], kept["evals"]


def snapshot_digest(rows) -> str:
    """sha256 over (t, l, points, E, length, gap) of every snapshot."""
    h = hashlib.sha256()
    for t, ell, pts, e, length, gap in rows:
        h.update(np.array([t, ell, e, length, gap], dtype=float).tobytes())
        h.update(np.ascontiguousarray(pts, dtype=float).tobytes())
    return h.hexdigest()


def memory_rows(traj):
    for k, curve in enumerate(traj.snapshots):
        s = traj.snapshot_steps[k]
        yield (s * traj.tau, curve.edge_len, curve.points, traj.energies[s],
               traj.lengths[s], traj.gaps[s])


def file_rows(path):
    """Snapshot rows parsed back from a JSONL or CSV trajectory file."""
    if path.endswith(".jsonl"):
        for r in read_trajectory_jsonl(path):
            yield r["t"], r["l"], r["points"], r["E"], r["length"], r["gap"]
        return
    points = defaultdict(list)
    with open(path) as fh:
        next(fh)
        for line in fh:
            step, _, x, y = line.split(",")
            points[int(step)].append((float(x), float(y)))
    with open(path + ".scalars.csv") as fh:
        next(fh)
        for line in fh:
            step, t, ell, e, length, gap = line.split(",")
            yield (float(t), float(ell), np.array(points[int(step)]), float(e),
                   float(length), float(gap))


def summarize(index, rc, wall, traj, out_dir, traj_file, evals=0) -> dict:
    """Counts and fingerprints of one CLI run, taken outside its timing."""
    sha = hashlib.sha256()
    nbytes = 0
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in names:
        sha.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            while chunk := fh.read(1 << 16):  # small reads keep peak RSS the program's
                sha.update(chunk)
                nbytes += len(chunk)
    traj_path = os.path.join(out_dir, traj_file)
    rec = {"index": index, "rc": rc, "wall": wall, "sha": sha.hexdigest(),
           "bytes": nbytes, "evals": evals, "out_dir": out_dir,
           "traj_bytes": os.path.getsize(traj_path) if os.path.exists(traj_path) else 0,
           "steps": 1}  # a run that fails before returning counts one step
    if traj is not None:
        reports = traj.reports
        rec.update(
            steps=len(reports),
            iters=sum(r.iterations for r in reports),
            unconverged=sum(not r.converged for r in reports),
            worst_grad=max(r.final_grad_norm for r in reports),
            energy=traj.energies[-1],
            length=traj.final.total_length,
            crossings=self_intersections(traj.final),
            digest=snapshot_digest(memory_rows(traj)),
        )
    return rec


def micro_us(fn, min_chunk=0.02, chunks=7) -> float:
    """Median microseconds per call over ``chunks`` timed batches."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_chunk:
            break
        n *= 2
    samples = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def energy_micro() -> dict:
    """objective / objective_gradient on fixed gamma curves, N = 51/120/480."""
    out = {}
    params = EnergyParams(epsilon=0.1, tau=0.0125)
    rng = np.random.default_rng(0)
    for n in (51, 120, 480):
        prev = resample_equal_arclength(gamma_dense(0.35), n)
        z = to_reduced(prev).as_vector()
        rc = ReducedCoords.from_vector(z + 1e-3 * rng.standard_normal(z.size))
        out[f"energy.obj_grad_us.n{n}"] = micro_us(
            lambda: objective_gradient(rc, prev, params))
        out[f"energy.obj_us.n{n}"] = micro_us(lambda: objective(rc, prev, params))
    return out


def per(num, den) -> float:
    """num / den, or 0.0 when a failed run left nothing to divide by."""
    return num / den if den else 0.0


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return 100.0, float(max(values))


def environment(root) -> dict:
    src = os.path.join(root, "src", "curveflow")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    git = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
        git = proc.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "git_hash": git,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Bench:
    def __init__(self, workload, seed, work):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.inputs = {}   # index -> (path, gamma radius or None)
        self.records = []  # every run, warm-up included
        self.errors = []
        self._runs = 0

    def run(self, index, tracer=None, count_evals=False) -> dict:
        out_dir = os.path.join(self.work, f"out{self._runs}")
        self._runs += 1
        if index not in self.inputs:
            pts, radius = make_input(self.wl, self.seed, index)
            path = os.path.join(self.work, f"input{index}.txt")
            write_input(pts, path)
            self.inputs[index] = (path, radius)
        argv = cli_argv(self.wl, self.inputs[index][0], out_dir)
        rc, wall, traj, evals = cli_run(argv, tracer, count_evals)
        rec = summarize(index, rc, wall, traj, out_dir, self.wl.traj_file, evals)
        if rc != 0 or traj is None:
            self.errors.append(f"input {index}: exit code {rc}")
        self.records.append(rec)
        return rec

    def prune(self) -> None:
        """Delete every output directory except the latest run of each input."""
        latest = {rec["index"]: rec for rec in self.records}
        for rec in self.records:
            if rec is not latest[rec["index"]]:
                shutil.rmtree(rec["out_dir"], ignore_errors=True)

    def check(self) -> float:
        """Correctness checks over all runs; returns the read-back seconds."""
        by_input = defaultdict(list)
        for rec in self.records:
            by_input[rec["index"]].append(rec)
        read_s = 0.0
        for index, recs in sorted(by_input.items()):
            # Input 0 always runs at least twice (the warm-up run).
            if len({r["sha"] for r in recs}) != 1:
                self.errors.append(f"input {index}: outputs differ between "
                                   f"{len(recs)} runs of the same input")
            last = recs[-1]
            if "digest" not in last:
                continue
            t0 = time.perf_counter()
            rows = file_rows(os.path.join(last["out_dir"], self.wl.traj_file))
            digest = snapshot_digest(rows)
            read_s += time.perf_counter() - t0
            if digest != last["digest"]:
                self.errors.append(f"input {index}: trajectory read back "
                                   "differs from the in-memory snapshots")
            for err in physical_errors(self.wl, self.inputs[index][1],
                                       last["energy"], last["length"],
                                       last["crossings"]):
                self.errors.append(f"input {index}: {err}")
        return read_s / max(1, len(by_input))


def untraced(bench, seconds):
    """Run inputs 0 .. timed_inputs-1 in turn, pass after pass, until every
    input has run once and ``seconds`` have passed.

    The first pass is the run's operations: a fixed set for a given seed, so
    the counts of attempted and failed steps do not depend on the machine's
    speed. Later passes only add timings.
    """
    k = bench.wl.timed_inputs
    first_pass, walls = [], defaultdict(list)
    t_start = time.perf_counter()
    n = 0
    while n < k or time.perf_counter() - t_start < seconds:
        rec = bench.run(n % k)
        bench.prune()
        if n < k:
            first_pass.append(rec)
        walls[n % k].append(rec["wall"])
        n += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.check()
    # Inputs differ in cost (the solver's line searches fail on some and not
    # on others), so every input weighs the same, whatever its repeats.
    per_input = [statistics.median(walls[i]) for i in range(k)]
    metrics = {
        "wall_s": statistics.fmean(per_input),
        "steps_per_s": sum(rec["steps"] for rec in first_pass) / sum(per_input),
        "peak_rss_mb": rss_mb,
    }
    return metrics, first_pass, n


def traced(bench, trace_path):
    tracer = spans.Tracer()
    pairs = []
    for i in range(bench.wl.traced_inputs):
        plain = bench.run(i, count_evals=True)
        tracer.trace = i
        first = len(tracer.spans)
        rec = bench.run(i, tracer=tracer)
        rec["evals"] = sum(1 for s in tracer.spans[first:] if s[1] == "energy.eval")
        bench.prune()
        for key in ("steps", "iters", "evals", "unconverged", "bytes"):
            if plain.get(key) != rec.get(key):
                bench.errors.append(f"input {i}: traced {key}={rec.get(key)} "
                                    f"but untraced {key}={plain.get(key)}")
        pairs.append((plain, rec))
    tracer.dump(trace_path)
    read_s = bench.check()

    agg = spans.totals(tracer.spans)

    def tot(name, key="total"):
        return agg.get(name, {}).get(key, 0.0)

    def per_call(name, scale):
        calls = agg.get(name, {}).get("calls", 0)
        return per(scale * tot(name), calls)

    recs = [t for _, t in pairs]
    steps = sum(r["steps"] for r in recs)
    iters = sum(r.get("iters", 0) for r in recs)
    unconverged = sum(r.get("unconverged", 0) for r in recs)
    evals = agg.get("energy.eval", {}).get("calls", 0)
    step_ms = [1e3 * (s[3] - s[2]) for s in tracer.spans if s[1] == "minimize.step"]
    tail_p, tail_ms = tail_percentile(step_ms) if step_ms else (None, 0.0)
    traj_bytes = sum(r["traj_bytes"] for r in recs)
    metrics = {
        "energy.evals": evals,
        "energy.eval_us": per_call("energy.eval", 1e6),
        "energy.self_frac": per(tot("energy.eval", "self"), tot("cli.main")),
        "minimize.iters": iters,
        "minimize.evals_per_iter": per(evals, iters),
        "minimize.self_us_per_iter": per(1e6 * tot("minimize.step", "self"), iters),
        "minimize.step_ms_p50": float(np.median(step_ms)) if step_ms else 0.0,
        "minimize.step_ms_tail": tail_ms,
        "minimize.unconverged": unconverged,
        "unconverged_frac": per(unconverged, steps),
        "worst_grad": max(r.get("worst_grad", 0.0) for r in recs),
        "polyline.from_reduced_us": per_call("polyline.from_reduced", 1e6),
        "polyline.to_reduced_us": per_call("polyline.to_reduced", 1e6),
        "flow.self_ms_per_step": per(1e3 * tot("flow.run", "self"), steps),
        "flow.check_ms_per_step": per(1e3 * tot("flow.check"), steps),
        "scenarios.make_ms": per_call("scenarios.make", 1e3),
        "io.write_s": per(tot("io.write"), len(recs)),
        "io.bytes": per(sum(r["bytes"] for r in recs), len(recs)),
        "io.write_MBps": per(1e-6 * traj_bytes, tot("io.write")),
        "io.svg_s": per_call("io.svg", 1.0),
        "io.read_s": read_s,
        "diagnostics.residual_ms_per_snapshot": per_call("diagnostics.residual", 1e3),
        "diagnostics.crossings_ms": per_call("diagnostics.crossings", 1e3),
        "cli.self_ms": per(1e3 * tot("cli.main", "self"), len(recs)),
        "trace.overhead_frac": statistics.median(
            t["wall"] / p["wall"] - 1.0 for p, t in pairs),
    }
    metrics.update(energy_micro())
    info = {"minimize.step_ms_tail_percentile": tail_p, "steps": steps}
    return metrics, recs, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--work", required=True, help="scratch directory")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)
    bench = Bench(wl, args.seed, args.work)
    bench.run(0)  # lazy set-up and caches; also a determinism witness
    bench.prune()
    if args.trace:
        trace_path = os.path.join(os.path.dirname(args.work),
                                  f"spans-{wl.name}-seed{args.seed}.jsonl")
        metrics, measured, info = traced(bench, trace_path)
        names = list(PER_LAYER)
    else:
        metrics, measured, calls = untraced(bench, args.seconds)
        info = {"inputs_timed": len(measured), "calls_timed": calls}
        names = [n for n in END_TO_END if n != "setup_s"]
    attempted = sum(r["steps"] for r in measured)
    failed = sum(r["steps"] if r["rc"] != 0 else r.get("unconverged", r["steps"])
                 for r in measured)
    result = {
        "correct": not bench.errors,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
        "errors": bench.errors,
        "info": info,
        "inputs": [
            {k: r.get(k) for k in ("index", "wall", "steps", "iters", "unconverged",
                                    "worst_grad", "energy", "bytes", "sha")}
            for r in measured
        ],
        "env": environment(args.root),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
