"""Benchmark of the lmg-otoc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py as a closed loop with one client: fresh
child processes, one after another, until the next one would end after S
seconds. Each child imports the program from src/ with BLAS pinned to one
thread, runs one CLI invocation into its own fresh --out directory, and
that directory is checked and then deleted.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 untraced and traced children
alternate and it holds the per-layer metrics. The lines before it give the
quartiles and sample count of each metric, the failure count and the
numerical environment. Exits 2, printing no result, when the program or
its package cannot be found.
"""

import os

# BLAS reads these once, when numpy loads, so they are set before the
# imports: the DGEMM reference rate is then single-threaded like the children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
REFERENCE_DIR = HERE / "reference"
CHILD = HERE / "child.py"
WORKERS_ENV = "LMG_OTOC_WORKERS"
CHILD_TIMEOUT_S = 100
DGEMM_SHAPE = (401, 4096)   # the N = 400 kernels' operand: D x D times D x (2 x 2048)

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MiB"}
# Other tenants of the shared host only ever slow a child down, so the
# faster quartile of a run's children is a steadier estimate of the
# program's own time than their median: the result carries the lower
# quartile of wall_s and the upper one of work_per_s (an index into
# quartiles()), and the median of every other metric.
FAST_QUARTILE = {"wall_s": 0, "work_per_s": 2}
PER_LAYER = {
    "model.build_calls": "count", "model.build_s": "s",
    "eigensolver.eigh_calls": "count", "eigensolver.eigh_s": "s",
    "otoc.self_s": "s", "otoc.samples": "count",
    "otoc.nominal_gflops": "GFLOP/s", "otoc.gemm_efficiency": "1",
    "otoc.average_s": "s",
    "analysis.self_s": "s", "analysis.cell_s_p50": "s",
    "analysis.cell_s_p90": "s", "analysis.parallel_efficiency": "1",
    "output.write_s": "s", "output.bytes": "B", "output.files": "count",
    "cli.self_s": "s",
    "host.dgemm_gflops": "GFLOP/s", "trace.overhead_frac": "1",
    "check.max_abs_dev": "1",
}


def child_env():
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, out, result_path, trace):
    """Run the CLI on argv + --out in a child process; its CompletedProcess."""
    cmd = [sys.executable, str(CHILD), str(result_path), str(int(trace)), "--",
           *argv, "--out", str(out)]
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def invoke(workload, argv, trace, reference_dir):
    """One checked child run in a fresh directory, deleted afterwards.

    The record holds the child's measurements, the problems found (none
    when the run counts as passed) and the worst checked deviation.
    """
    work = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        out, result_path = work / "out", work / "result.json"
        record = {"traced": trace, "problems": [], "max_abs_dev": 0.0}
        try:
            proc = run_child(argv, out, result_path, trace)
        except subprocess.TimeoutExpired:
            record["problems"].append(f"no result within {CHILD_TIMEOUT_S} s")
            return record
        if proc.returncode != 0:
            record["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        if result_path.is_file():
            record.update(json.loads(result_path.read_text()))
        else:
            record["problems"].append("the child wrote no measurement")
        check = workloads.check_outputs(workload, argv, out, reference_dir)
        record["problems"] += check.problems
        record["max_abs_dev"] = check.max_abs_dev
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, argv, seconds, trace, reference_dir, dgemm_gflops):
    """Closed loop: start the next child unless it would end after `seconds`
    (judged by the median child so far). Traced mode alternates untraced
    and traced children and runs at least one of each."""
    workers = int(workloads.option(argv, "workers")) if "--workers" in argv else 1
    minimum = 2 if trace else 1
    records, durations = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed + statistics.median(durations) > seconds:
            return records
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        record = invoke(workload, argv, traced, reference_dir)
        durations.append(time.perf_counter() - t0)
        if "spans" in record:
            record["layers"] = tracing.layer_metrics(record.pop("spans"), workers, dgemm_gflops)
        records.append(record)


def dgemm_gflops(repeats=15):
    """Single-thread DGEMM rate on the kernels' operand shape (median)."""
    rng = np.random.default_rng(0)
    d, cols = DGEMM_SHAPE
    a, b = rng.standard_normal((d, d)), rng.standard_normal((d, cols))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * d * d * cols / statistics.median(times) / 1e9


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    env = child_env()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": blas,
        "child_threads": {var: env.get(var) for var in (*THREAD_VARS, WORKERS_ENV)},
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
    }


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def end_to_end_samples(workload, records):
    measured = [r for r in records if "wall_s" in r and not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in measured],
        "setup_s": [r["setup_s"] for r in measured],
        "work_per_s": [workloads.WORK_UNITS[workload] / r["wall_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
    }


def per_layer_samples(records, dgemm):
    traced = [r for r in records if "layers" in r]
    samples = {name: [] for name in PER_LAYER}
    for r in traced:
        for name, value in r["layers"].items():
            samples[name].append(value)
    untraced = [r["wall_s"] for r in records if "wall_s" in r and not r["traced"]]
    traced_wall = [r["wall_s"] for r in traced]
    overhead = ([statistics.median(traced_wall) / statistics.median(untraced) - 1]
                if traced_wall and untraced else [])
    samples["host.dgemm_gflops"] = [dgemm]
    samples["trace.overhead_frac"] = overhead
    samples["check.max_abs_dev"] = [max(r["max_abs_dev"] for r in records)]
    return samples


def report(samples, units):
    """Print a line per metric and return the result's metrics object, or
    None when some metric has no sample."""
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            print(f"{name}: no sample", file=sys.stderr)
            return None
        q = quartiles(values)
        print(f"{name} [{unit}]: median {q[1]:.6g}  q1 {q[0]:.6g}  q3 {q[2]:.6g}  n {len(values)}")
        metrics[name] = {"value": q[FAST_QUARTILE.get(name, 1)], "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "lmg_otoc" / "cli.py").is_file():
        print(f"error: no lmg_otoc package under {SRC}", file=sys.stderr)
        return 2
    cli_args = workloads.cli_args(args.workload, args.seed)
    reference_dir = REFERENCE_DIR if args.seed == 0 else None
    env = environment()
    dgemm = dgemm_gflops()
    env["host.dgemm_gflops"] = dgemm

    TMP_ROOT.mkdir(exist_ok=True)
    try:
        records = measure(args.workload, cli_args, args.seconds, bool(args.trace),
                          reference_dir, dgemm)
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:                     # another run still uses it
            pass
    env["loadavg_after"] = loadavg()

    print("workload:", args.workload, "seed:", args.seed, "argv:", " ".join(cli_args))
    print("environment:", json.dumps(env, sort_keys=True))
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print("failed run:", "; ".join(r["problems"]))
    print(f"failed_frac [1]: {len(failed) / len(records):.6g}  "
          f"({len(failed)} of {len(records)} runs)")
    for name in ("wall_s", "setup_s"):
        print(f"{name} of each untraced child, in order:", " ".join(
            f"{r[name]:.4f}" for r in records if name in r and not r["traced"]))
    if args.trace:
        metrics = report(per_layer_samples(records, dgemm), PER_LAYER)
    else:
        metrics = report(end_to_end_samples(args.workload, records), END_TO_END)
    if metrics is None:
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
