"""Peak memory and wall time of the sector-bound scan on a large grid.

Usage: ``python3 tools/scan_probe.py [N]`` (default N = 2000)

Builds a seeded N x N grid on the benchmark workloads' box, with Q the
quadrant part, and prints the process's peak resident set (``ru_maxrss``)
after the build and after ``sector_bounds``, and the scan's wall time.  The
scan allocates less than the grid's values, so the second peak should not
exceed the first.  Uses this checkout's ``src`` and needs only numpy.
"""

from __future__ import annotations

import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from preisach_remnant import Box, GridWeighting, QRegion, sector_bounds  # noqa: E402


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv):
    n = int(argv[0]) if argv else 2000
    values = np.random.default_rng(2000).normal(size=(n, n))
    mu = GridWeighting(Box(-0.25, 1.0, -1.0, 0.25), values)
    print("grid %d x %d, values %.1f MB" % (n, n, values.nbytes / 1e6))
    print("peak RSS after the build: %.1f MB" % peak_rss_mb())
    start = time.perf_counter()
    sector_bounds(mu, QRegion(1.0, -1.0))
    elapsed = time.perf_counter() - start
    print("peak RSS after sector_bounds: %.1f MB" % peak_rss_mb())
    print("sector_bounds wall time: %.1f ms" % (elapsed * 1e3))


if __name__ == "__main__":
    main(sys.argv[1:])
