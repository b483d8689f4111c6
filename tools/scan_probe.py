"""Peak memory and wall time of the sector-bound scan, Gaussian and grid.

Usage: ``python3 tools/scan_probe.py [N [RESOLUTION]]`` (default N = 2000,
RESOLUTION = 4096)

First scans two Gaussian fields at ``RESOLUTION`` lines and cuts: the
butterfly preset, whose every scan meets one lobe and reads its extrema
off four corner products, and two overlapping lobes on [0, 1] x [-1, 0]
that both meet every scan, which the blocked loop sums.  For each it
prints the scan's wall time, its ``math.exp`` and ``math.erf`` calls
(counted in a second run, array maps and scalar calls alike), the
process's peak resident set (``ru_maxrss``) after it, and the scan's own
traced peak (``tracemalloc``, from a third, traced run).  The blocked
loop takes ``SCAN_BLOCK_ROWS`` lines at a time, so its traced peak stays
far below the whole lines x cuts matrix, which the line also prints.  These run first because the peak RSS
only grows, and the grid's values would hide it.

Then builds a seeded N x N grid on the benchmark workloads' box, with Q the
quadrant part, and prints the peak RSS after the build and after
``sector_bounds``, and the scan's wall time.  The scan allocates less than
the grid's values, so the second peak should not exceed the first.  Uses
this checkout's ``src`` and needs only numpy.
"""

from __future__ import annotations

import collections
import math
import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from preisach_remnant import weighting  # noqa: E402
from preisach_remnant import (  # noqa: E402
    Box,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    QRegion,
    make_butterfly,
    sector_bounds,
)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_ms(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def transcendental_calls(fn, *args):
    """The ``math.exp`` and ``math.erf`` calls that ``weighting`` makes
    while running ``fn(*args)``, as a Counter."""
    calls = collections.Counter()

    class Math:
        def __getattr__(self, name):
            real = getattr(math, name)
            if name not in ("exp", "erf"):
                return real
            return lambda x: calls.update((name,)) or real(x)

    weighting.math = Math()
    try:
        fn(*args)
    finally:
        weighting.math = math
    return calls


def main(argv):
    n = int(argv[0]) if argv else 2000
    resolution = int(argv[1]) if len(argv) > 1 else 4096

    two_lobes = GaussianWeighting([
        GaussianComponent(1.5, 0.1, -0.5, 0.3, 0.4, Box(0.0, 0.6, -1.0, 0.0)),
        GaussianComponent(-0.7, 0.9, -0.2, 0.2, 0.3, Box(0.4, 1.0, -1.0, 0.0)),
    ])
    print("peak RSS before the Gaussian scans: %.1f MB" % peak_rss_mb())
    fields = [("butterfly", make_butterfly()), ("two-lobe", (two_lobes, QRegion(1.0, -1.0)))]
    for name, (mu, q) in fields:
        elapsed = timed_ms(sector_bounds, mu, q, resolution)
        calls = transcendental_calls(sector_bounds, mu, q, resolution)
        print("%s sector_bounds at resolution %d: %.1f ms, %d exp and %d erf calls,"
              " peak RSS %.1f MB"
              % (name, resolution, elapsed, calls["exp"], calls["erf"], peak_rss_mb()))
        tracemalloc.start()
        sector_bounds(mu, q, resolution)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print("%s scan traced peak: %.2f MB (whole lines x cuts matrix: %.1f MB)"
              % (name, peak / 1e6, resolution * (resolution + 2) * 8 / 1e6))

    values = np.random.default_rng(2000).normal(size=(n, n))
    mu = GridWeighting(Box(-0.25, 1.0, -1.0, 0.25), values)
    print("grid %d x %d, values %.1f MB" % (n, n, values.nbytes / 1e6))
    print("peak RSS after the build: %.1f MB" % peak_rss_mb())
    elapsed = timed_ms(sector_bounds, mu, QRegion(1.0, -1.0))
    print("peak RSS after sector_bounds: %.1f MB" % peak_rss_mb())
    print("sector_bounds wall time: %.1f ms" % elapsed)


if __name__ == "__main__":
    main(sys.argv[1:])
