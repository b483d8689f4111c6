"""Write every CLI artifact of the benchmark workloads, and compare two trees of them.

Usage: ``python3 tools/artifacts.py TREE OUT``
       ``python3 tools/artifacts.py --compare OLD NEW LIST``

Generates the inputs of the three workloads of ``perfbench/workloads.py`` at
seeds 1 and 7 (full size) in ``OUT/WORKLOAD-SEED``, one butterfly
``simulate`` of growing pulses in ``OUT/butterfly-wipes``, one seeded-grid
``simulate`` of growing pulses in ``OUT/grid-wipes``, one ``oracle-check``
of negative pulses in ``OUT/oracle-down``, a ``bounds`` and a ``control``
of a density <= 0 on Q in ``OUT/negative-grid``, a ``bounds`` and a
``control`` of the butterfly on a smaller Q in ``OUT/butterfly-small-q``,
two seeded-grid ``simulate`` runs of nested pulses, at 7 and 2.5 samples
per pulse, whose samples miss the peaks, in ``OUT/grid-nested-7`` and
``OUT/grid-nested-2.5``, a
seeded-grid ``control`` from the default ``w0`` of 0 in
``OUT/grid-control-w0``, and a seeded-grid ``simulate`` of a train with a
leading zero pulse and two in a row, at 7 samples per pulse, in
``OUT/grid-zeros``, runs every command of one pass of each against
``TREE/src``, which writes its ``--out`` directory beside them, and
writes the exit codes to ``OUT/exit-codes.json``.  It fails when any JSON
or CSV file under ``OUT`` holds a number that is not finite.  The inputs
come from this checkout's generator, whichever tree runs them, and every
path is relative to ``OUT``.  So two trees that give the same answers leave
byte-identical directories::

    python3 tools/artifacts.py ../parent ../artifacts-parent
    python3 tools/artifacts.py . ../artifacts-head
    diff -rq ../artifacts-parent ../artifacts-head

``--compare`` lists the files that differ between two such directories (in
bytes, or present in one only) and exits 1 unless they are exactly the
files that ``LIST`` names, one path relative to the directories per line
(``#`` starts a comment).  A change that moves answers on purpose lists
the files it moves there; a ``LIST`` that does not exist names none.  A moved file
that is not listed fails, and so does a listed file that did not move, so
a list left from an earlier change fails too.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 7)

#: a butterfly simulate whose pulses grow, so that each pulse wipes every
#: corner once it passes the extreme of the pulse before, and the last two
#: go past the box on both sides
WIPES = "butterfly-wipes"
WIPES_AMPLITUDES = [0.3, -0.35, 0.6, -0.7, 1.2, -1.3]

#: a simulate on a seeded positive 100 x 100 grid over [0, 1] x [-1, 0]
#: whose pulses grow in the same way; the last four go past the box on both
#: sides, so the last two start past it: the rise from below beta_lo wipes
#: every corner at every sample, the fall from above alpha_hi links
GRID_WIPES = "grid-wipes"
GRID_WIPES_AMPLITUDES = WIPES_AMPLITUDES + [1.4, -1.5]

#: an oracle-check on a seeded positive 100 x 100 grid over [0, 1] x [-1, 0]
#: from a history that rose to the top of the box: the target lies below its
#: remnant, so the controller steps down with negative pulses that grow, and
#: each moves columns in every row, so at n = 600 the states of every output
#: block change (5 of the 11 outputs); on the workloads' box a pulse back to 0
#: leaves the rows with alpha < 0 as they were
DOWN = "oracle-down"

#: bounds and control on a seeded negative 100 x 100 grid over
#: [0, 1] x [-1, 0], with the gain cap and the sign of the step that a
#: density <= 0 on Q gives
NEGATIVE = "negative-grid"

#: simulates on a seeded positive 100 x 100 grid over [0, 1] x [-1, 0] of
#: alternating pulses that nest inside the one before, at an odd number of
#: samples per pulse, whose peaks are not sampled, and at a non-integer
#: one, where every other pulse end falls between samples too: they pin
#: ``simulate`` at odd and non-integer samples per pulse
NESTED = "grid-nested"
NESTED_AMPLITUDES = [0.9, -0.85, 0.7, -0.6, 0.55, -0.5, 0.3, -0.25, 0.2, -0.1]
NESTED_SAMPLES = (7, 2.5)

#: control on a seeded positive 100 x 100 grid over [0, 1] x [-1, 0] from
#: the default w0 of 0: a first pulse of zero, whose samples leave the
#: state as it is
CONTROL_W0 = "grid-control-w0"

#: a simulate on a seeded positive 100 x 100 grid over [0, 1] x [-1, 0] of
#: a train that starts with a zero pulse and holds two zero pulses in a
#: row: it pins ``simulate`` at an odd number of samples per pulse, zero
#: pulses included
ZEROS = "grid-zeros"
ZEROS_AMPLITUDES = [0.0, 0.6, 0.0, -0.5, 0.0, 0.0, 0.4]

#: bounds and control of the butterfly on Q = [0, 0.5] x [-0.6, 0], from
#: an interface admissible there: its four distinct sector scans each skip
#: a negative lobe whose box holds none of the Q scans' lines or misses the
#: general scans' cuts
SMALL_Q = "butterfly-small-q"
SMALL_Q_CONFIG = {
    "weighting": {"preset": "butterfly"},
    "q": {"alpha2": 0.5, "beta2": -0.6},
    "initial_interface": {"extrema": [1.0, -0.6]},
    "controller": {"gamma_d": 0.2},
}

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


def files_under(root):
    """Every file under ``root``, as paths relative to it."""
    return {
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root) for name in names
    }


def moved_files(old, new):
    """The files of two artifact directories that differ, or that only one
    of them has."""
    old_files, new_files = files_under(old), files_under(new)
    both = old_files & new_files
    return (old_files ^ new_files) | {
        path for path in both
        if not filecmp.cmp(os.path.join(old, path), os.path.join(new, path), shallow=False)
    }


def listed_files(path):
    """The paths the list at ``path`` names; none when it does not exist."""
    if not os.path.exists(path):
        return set()
    with open(path) as fh:
        lines = (line.split("#", 1)[0].strip() for line in fh)
        return {os.path.normpath(line) for line in lines if line}


def compare(old, new, list_path):
    """Exit status 0 when the moved files are exactly the listed ones."""
    moved, listed = moved_files(old, new), listed_files(list_path)
    for path in sorted(moved):
        print("moved%s: %s" % ("" if path in listed else " (not listed)", path))
    for path in sorted(listed - moved):
        print("listed, did not move: %s" % path)
    ok = moved == listed
    print("%d files moved, %d listed: %s" % (len(moved), len(listed), "ok" if ok else "FAIL"))
    return 0 if ok else 1


def _finite(text):
    """The float of a JSON number or constant, refused unless finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("%s is not finite" % text)
    return x


def non_finite(root):
    """The JSON and CSV files under ``root`` that hold a number that is not
    finite: a JSON ``NaN``, ``Infinity`` or number that overflows (a JSON
    file that does not parse is listed too), or a CSV field that parses as
    a float that is not finite.  Fields are parsed, not searched:
    ``final_remnant`` holds "nan" and is not a number."""
    bad = []
    for path in sorted(files_under(root)):
        if path.endswith(".json"):
            with open(os.path.join(root, path)) as fh:
                try:
                    json.load(fh, parse_float=_finite, parse_constant=_finite)
                except ValueError:
                    bad.append(path)
        elif path.endswith(".csv"):
            with open(os.path.join(root, path)) as fh:
                fields = fh.read().replace("\n", ",").split(",")
            for field in fields:
                try:
                    x = float(field)
                except ValueError:
                    continue
                if not math.isfinite(x):
                    bad.append(path)
                    break
    return bad


def write_grid_case(name, values, config):
    """Write ``name/grid.csv``, the 100 x 100 grid ``values`` over
    [0, 1] x [-1, 0], and ``name/config.json``, ``config`` on that grid
    with q (1, -1)."""
    os.makedirs(name, exist_ok=True)
    grid_csv = os.path.join(name, "grid.csv")
    with open(grid_csv, "w") as fh:
        fh.write("0.0,1.0,-1.0,0.0,100,100\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in values.tolist())
    config = dict({"weighting": {"grid_csv": grid_csv}, "q": {"alpha2": 1.0, "beta2": -1.0}}, **config)
    with open(os.path.join(name, "config.json"), "w") as fh:
        json.dump(config, fh, indent=1)


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 4:
        sys.exit(compare(*argv[1:]))
    if len(argv) != 2 or "--compare" in argv:
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
    os.makedirs(WIPES, exist_ok=True)
    with open(os.path.join(WIPES, "config.json"), "w") as fh:
        json.dump({"weighting": {"preset": "butterfly"}, "amplitudes": WIPES_AMPLITUDES}, fh, indent=1)
    names.append(os.path.join(WIPES, "simulate"))
    argvs.append(["simulate", "--config", os.path.join(WIPES, "config.json"), "--out", names[-1]])
    write_grid_case(
        GRID_WIPES, 1.0 + np.random.default_rng(26).uniform(0.0, 0.5, (100, 100)),
        {"amplitudes": GRID_WIPES_AMPLITUDES},
    )
    names.append(os.path.join(GRID_WIPES, "simulate"))
    argvs.append(["simulate", "--config", os.path.join(GRID_WIPES, "config.json"), "--out", names[-1]])
    config = {
        "initial_interface": {"extrema": [1.0]},
        "controller": {"gamma_d": -0.5, "lambda": 0.3, "w0": 0.0},
        "oracle_samples_per_pulse": 100,
    }
    write_grid_case(DOWN, 1.0 + np.random.default_rng(22).uniform(0.0, 0.5, (100, 100)), config)
    names.append(os.path.join(DOWN, "oracle-check"))
    argvs.append(["oracle-check", "--config", os.path.join(DOWN, "config.json"), "--out", names[-1],
                  "--oracle-n", "600"])
    config = {"controller": {"gamma_d": 0.4}}
    write_grid_case(NEGATIVE, -1.0 - np.random.default_rng(24).uniform(0.0, 0.5, (100, 100)), config)
    values = 1.0 + np.random.default_rng(28).uniform(0.0, 0.5, (100, 100))
    for spp in NESTED_SAMPLES:
        case = "%s-%r" % (NESTED, spp)
        write_grid_case(case, values, {"amplitudes": NESTED_AMPLITUDES, "signal_samples_per_pulse": spp})
        names.append(os.path.join(case, "simulate"))
        argvs.append(["simulate", "--config", os.path.join(case, "config.json"), "--out", names[-1]])
    write_grid_case(CONTROL_W0, values, {"controller": {"gamma_d": 0.3}})
    names.append(os.path.join(CONTROL_W0, "control"))
    argvs.append(["control", "--config", os.path.join(CONTROL_W0, "config.json"), "--out", names[-1]])
    write_grid_case(
        ZEROS, 1.0 + np.random.default_rng(30).uniform(0.0, 0.5, (100, 100)),
        {"amplitudes": ZEROS_AMPLITUDES, "signal_samples_per_pulse": 7},
    )
    names.append(os.path.join(ZEROS, "simulate"))
    argvs.append(["simulate", "--config", os.path.join(ZEROS, "config.json"), "--out", names[-1]])
    os.makedirs(SMALL_Q, exist_ok=True)
    with open(os.path.join(SMALL_Q, "config.json"), "w") as fh:
        json.dump(SMALL_Q_CONFIG, fh, indent=1)
    for case in (NEGATIVE, SMALL_Q):
        for command in ("bounds", "control"):
            names.append(os.path.join(case, command))
            argvs.append([command, "--config", os.path.join(case, "config.json"), "--out", names[-1]])
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
    bad = non_finite(out)
    if bad:
        sys.exit("numbers that are not finite in %d files: %s" % (len(bad), ", ".join(bad)))
    print("%d commands of %s, artifacts under %s" % (len(codes), tree, out))


if __name__ == "__main__":
    main(sys.argv[1:])
