"""One workload process: runs passes of the workload's CLI commands in
process until the time is up, checks every artifact and writes its
measurements as JSON.  Started by ``run.py`` with BLAS pinned to one thread
and the checkout's ``src`` on the path.

    python3 perfbench/worker.py SPEC.json RESULT.json SECONDS TRACE [REFERENCE.json]

Every time is taken with the calibrated clock of ``calibrate.py``.  With
TRACE 1 the layer modules are wrapped with spans first (see
``tracing.py``), one counting pass follows the timed ones, and the per-layer
metrics and the spans are written too.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
import workloads

CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Outcome:
    """Operation counts and failure messages of a workload process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("; ".join(fails[:3]))

    def check(self, label, ref, fn, *args):
        """One checked operation: ``fn`` returns (failures, numbers); the
        numbers must also match ``ref``, their reference, when there is one."""
        try:
            fails, numbers = fn(*args)
        except CHECK_ERRORS as exc:
            fails, numbers = ["%s: unreadable artifacts (%r)" % (label, exc)], None
        if ref is not None:
            fails = fails + workloads.compare_reference(numbers, ref, "reference " + label)
        self.record(fails)


def run(spec, seconds, trace, reference):
    import preisach_remnant
    from preisach_remnant import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # each swept run is one operation with its own time: a plain timer on
    # the per-run command, not a span
    run_spans = []
    inner = cli.cmd_control

    def timed_control(cfg, args):
        t0 = time.perf_counter()
        try:
            return inner(cfg, args)
        finally:
            run_spans.append((t0, time.perf_counter()))

    cli.cmd_control = timed_control

    outcome = Outcome()
    op_spans = []  # (pass index, op name, start, end)
    pass_spans = []
    artifact_bytes = 0
    devnull = open(os.devnull, "w")

    def run_pass():
        nonlocal artifact_bytes
        for op in spec["ops"]:
            name = op["name"]
            shutil.rmtree(op["out"], ignore_errors=True)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    code = cli.main(op["argv"])
            except Exception:
                code = "raised: " + traceback.format_exc(limit=3)
            op_spans.append((len(pass_spans), name, t0, time.perf_counter()))
            if code != 0:
                outcome.record(["%s exited %r" % (name, code)])
                continue
            ref = reference.get(name) if reference else None
            outcome.check(name, ref, workloads.CHECKS[name], spec, op["out"])
            if name == "sweep":
                dirs = workloads.sweep_run_dirs(spec, op["out"])
                refs = reference["sweep runs"] if reference else [None] * len(dirs)
                for d, target, ref in zip(dirs, spec["targets"], refs):
                    outcome.check("swept run", ref, workloads.check_sweep_run, spec, d, target)
            artifact_bytes += _dir_bytes(op["out"])

    clock = calibrate.Clock()
    clock.sample()
    clock.start()
    t_start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            run_pass()
            pass_spans.append((t0, time.perf_counter()))
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(t1 - t0 for t0, t1 in pass_spans) > seconds:
                break
    finally:
        clock.stop()
    timed = (len(op_spans), len(run_spans))
    if tracer is not None:
        tracer.start_count_pass()
        run_pass()
    devnull.close()

    passes = [[0.0, 0.0] for _ in pass_spans]
    op_times, op_raw = {}, {}
    for k, name, t0, t1 in op_spans[: timed[0]]:
        raw, cal = clock.calibrated(t0, t1)
        op_times.setdefault(name, []).append(cal)
        op_raw.setdefault(name, []).append(raw)
        passes[k][0] += raw
        passes[k][1] += cal
    runs = [clock.calibrated(t0, t1) for t0, t1 in run_spans[: timed[1]]]
    res = {
        "program": preisach_remnant.__file__,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "passes": [p[1] for p in passes],
        "passes_raw": [p[0] for p in passes],
        "op_times": op_times,
        "op_times_raw": op_raw,
        "run_times": [r[1] for r in runs],
        "run_times_raw": [r[0] for r in runs],
        "slowdown": statistics.median(clock.kernel_s) / calibrate.KERNEL_REF_S,
        "blas_threads": _blas_threads(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # a span's time is its busy time scaled by the host speed over its
        # whole pass, so that child spans never exceed their parent
        starts = [t0 for t0, _ in pass_spans]
        factors = [clock.factor(t0, t1) for t0, t1 in pass_spans]

        def span_s(t0, t1):
            return clock.busy(t0, t1) * factors[bisect.bisect_right(starts, t0) - 1]

        passes_run = len(pass_spans) + 1
        res["per_layer"] = tracer.per_layer_metrics(
            span_s, len(pass_spans), artifact_bytes / passes_run
        )
        res["tracer"] = tracer
    return res


def main(argv):
    spec_path, result_path, seconds, trace = argv[:4]
    reference = None
    if len(argv) > 4:
        with open(argv[4]) as fh:
            reference = json.load(fh)
    with open(spec_path) as fh:
        spec = json.load(fh)
    res = run(spec, float(seconds), trace == "1", reference)
    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.dump(os.path.splitext(result_path)[0] + "-spans.json")
    with open(result_path, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
