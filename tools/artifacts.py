"""Write every CLI artifact of the benchmark workloads, for a diff of two trees.

Usage: ``python3 tools/artifacts.py TREE OUT``

Generates the inputs of the three workloads of ``perfbench/workloads.py`` at
seeds 1 and 7 (full size) in ``OUT/WORKLOAD-SEED``, runs every command of
one pass of each against ``TREE/src``, which writes its ``--out`` directory
beside them, and writes the exit codes to ``OUT/exit-codes.json``.  The
inputs come from this checkout's generator, whichever tree runs them, and
every path is relative to ``OUT``.  So two trees that give the same answers
leave byte-identical directories::

    python3 tools/artifacts.py ../parent ../artifacts-parent
    python3 tools/artifacts.py . ../artifacts-head
    diff -rq ../artifacts-parent ../artifacts-head
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 7)

#: runs each argv of a JSON list through the CLI under the src directory
#: given second, and prints the exit codes as JSON; the CLI's own printing
#: goes to stderr
CHILD = """
import contextlib, json, os, sys
from preisach_remnant import cli
if not cli.__file__.startswith(os.path.join(sys.argv[2], "")):
    sys.exit("imported %s, not the tree's src" % cli.__file__)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    tree, out = (os.path.abspath(a) for a in argv)
    src = os.path.join(tree, "src")
    if not os.path.isfile(os.path.join(src, "preisach_remnant", "__init__.py")):
        sys.exit("no src/preisach_remnant under %s" % tree)
    os.makedirs(out, exist_ok=True)
    os.chdir(out)  # every path in the inputs and in the commands is relative to OUT
    names, argvs = [], []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            spec = workloads.generate(workload, seed, "full", "%s-%d" % (workload, seed))
            for op in spec["ops"]:
                names.append(op["out"])
                argvs.append(op["argv"])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs), src],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode:
        sys.exit("the CLI of %s failed:\n%s" % (tree, proc.stderr[-2000:]))
    codes = dict(zip(names, json.loads(proc.stdout)))
    with open("exit-codes.json", "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d commands of %s, artifacts under %s" % (len(codes), tree, out))


if __name__ == "__main__":
    main(sys.argv[1:])
