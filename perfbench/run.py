"""Benchmark of the preisach-remnant CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src``
there.  The run

1. generates the workload's inputs (configs, grid CSVs, sweep targets,
   amplitude plans) from the seed under ``.perfbench_out/``;
2. times the set-up (import, config, field and initial interface) in
   several fresh processes and keeps the median;
3. runs passes of the workload's CLI commands in process, in a fresh
   process with BLAS pinned to one thread, until the time is up, and checks
   every artifact (for the default seed also against ``reference/``);
4. prints an info line (environment, generator time, sample counts, raw
   medians and tails, failures) and, as the last line, the result JSON: the
   end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
   metrics of traced passes, after untraced passes of the same length that
   give the tracing overhead.

End-to-end metrics (every workload prints all of them):

``setup_s``      median set-up time over fresh processes
``wall_s``       median time of one pass of the workload's CLI commands
``bounds_s``     median time of the ``bounds`` command (the gain cap)
``command_s``    median time of one main operation: a swept control run
                 (butterfly-sweep), ``oracle-check`` (grid-oracle) or
                 ``simulate`` (grid-history)
``peak_rss_mb``  peak resident memory of the workload process

All times but ``peak_rss_mb`` are calibrated seconds: program time with the
host's contention divided out (see ``calibrate.py``).  The raw
medians are in the info line.  Failed operations over attempted ones are the
result's ``failed`` and ``attempted``.

Workloads (see ``workloads.py`` and BENCHMARK.json for why each was chosen):
``butterfly-sweep``, ``grid-oracle`` and ``grid-history``.  ``--size tiny``
shrinks every input for the benchmark's smoke check (``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
#: fresh-process set-up probes per run
SETUP_PROBES = 9
#: a workload process that runs this much longer than asked is killed
WORKER_GRACE_S = 60
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(argv, env, timeout):
    try:
        proc = subprocess.run(
            [sys.executable] + argv, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %d s" % (argv[0], timeout))
    if proc.returncode != 0:
        raise BenchError("%s failed:\n%s" % (" ".join(argv[:1]), proc.stderr[-2000:]))
    return proc.stdout


def _setup_times(config, env, count):
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(count):
        out = _run_child([probe, config], env, 60)
        times.append(json.loads(out.strip().splitlines()[-1]))
    return times


def _worker(spec_path, result_path, seconds, trace, reference, env):
    argv = [os.path.join(HERE, "worker.py"), spec_path, result_path, repr(seconds), str(trace)]
    if reference:
        argv.append(reference)
    _run_child(argv, env, seconds + WORKER_GRACE_S)
    with open(result_path) as fh:
        return json.load(fh)


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"pct": 100.0 * (n - 10) / n, "s": sorted(samples)[n - 11]}


def _environment(root, seed, blas_threads):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "blas_threads": blas_threads,
    }


def measure(args, root):
    src_pkg = os.path.join(root, "src", "preisach_remnant")
    if not os.path.isfile(os.path.join(src_pkg, "__init__.py")):
        raise BenchError("no src/preisach_remnant under %s; run from a checkout root" % root)
    out_root = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_root, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        t0 = time.perf_counter()
        spec = workloads.generate(args.workload, args.seed, args.size, work)
        generator_s = time.perf_counter() - t0
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = _child_env(root)
        reference = None
        if args.seed == DEFAULT_SEED and args.size == "full":
            reference = os.path.join(HERE, "reference", args.workload + ".json")
        # the first probe may compile bytecode and is dropped; the rest are
        # split around the workload so a slow spell of the host hits few
        setup = _setup_times(spec["config"], env, 1 + SETUP_PROBES // 2)[1:]
        result_path = os.path.join(work, "result.json")
        if args.trace:
            half = args.seconds / 2.0
            plain = _worker(spec_path, result_path, half, 0, reference, env)
            traced = _worker(spec_path, os.path.join(work, "traced.json"), half, 1, reference, env)
            shutil.copy(
                os.path.join(work, "traced-spans.json"),
                os.path.join(out_root, "spans-%s-s%d.json" % (args.workload, args.seed)),
            )
        else:
            plain = _worker(spec_path, result_path, args.seconds, 0, reference, env)
            traced = None
        setup += _setup_times(spec["config"], env, SETUP_PROBES - len(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not os.path.realpath(plain["program"]).startswith(os.path.realpath(src_pkg)):
        raise BenchError("imported %s, not the checkout's src" % plain["program"])
    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    main_op = spec["ops"][-1]["name"]
    per_run = main_op == "sweep"
    series = {
        "wall": (plain["passes"], plain["passes_raw"]),
        "bounds": (plain["op_times"]["bounds"], plain["op_times_raw"]["bounds"]),
        "command": (
            plain["run_times"] if per_run else plain["op_times"][main_op],
            plain["run_times_raw"] if per_run else plain["op_times_raw"][main_op],
        ),
    }
    info = {
        "workload": args.workload,
        "size": args.size,
        "environment": _environment(root, args.seed, plain["blas_threads"]),
        "generator_s": generator_s,
        "command": "swept control run" if per_run else main_op,
        "host_slowdown": plain["slowdown"],
        "samples": {
            k: {
                "n": len(cal),
                "median_s": statistics.median(cal),
                "tail": _tail(cal),
                "raw_median_s": statistics.median(raw),
                "raw_tail": _tail(raw),
            }
            for k, (cal, raw) in series.items()
        },
        "setup_raw_median_s": statistics.median(p["setup_s"] for p in setup),
        "failed_ops": failed / attempted,
        "failures": sum((r["failures"] for r in runs), []),
    }
    if traced:
        metrics = dict(traced["per_layer"])
        overhead = statistics.median(traced["passes"]) - statistics.median(plain["passes"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        info["traced_passes"] = len(traced["passes_raw"])
        # per-pass means, the base of the per-layer metrics
        info["traced_per_pass_s"] = {
            name: statistics.mean(times) for name, times in traced["op_times"].items()
        }
        info["traced_per_pass_s"]["wall"] = statistics.mean(traced["passes"])
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(
                    p["setup_s"] * calibrate.KERNEL_REF_S / p["kernel_s"] for p in setup
                ),
                "unit": "s",
            },
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }
        for k, (cal, _) in series.items():
            metrics[k + "_s"] = {"value": statistics.median(cal), "unit": "s"}
    print(json.dumps({"info": info}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = p.parse_args(argv)
    try:
        result = measure(args, os.getcwd())
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
