"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs ``run.py --size tiny`` untraced and traced and checks that the last
line is a result with exactly the declared metric names and units and no
failed operation.  It then runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.  Exits 1 on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = ["perfbench/run.py"]


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_result(result, declared, label):
    problems = []
    if result is None or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["%s: last line is not a result: %r" % (label, result)]
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append("%s: %d of %d operations failed" % (label, result["failed"], result["attempted"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append("%s: missing %s, extra %s, wrong unit %s" % (label, missing, extra, wrong))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool):
            problems.append("%s: %s is not a number" % (label, k))
    return problems


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s --trace %d" % (wl["name"], trace)
            argv = RUN + ["--workload", wl["name"], "--seed", "1", "--seconds", "2",
                          "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
                continue
            found = check_result(_last_json(proc.stdout), declared, label)
            problems += found
            print("%s: %s" % (label, "FAIL" if found else "ok"))

    bare = os.path.join(".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable] + RUN + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                      "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        problems.append("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-300:]))
    print("bare directory: %s" % ("ok" if proc.returncode != 0 else "FAIL"))

    for p in problems:
        print("PROBLEM: " + p)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
