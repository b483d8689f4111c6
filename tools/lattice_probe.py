"""Wall time of each relay-lattice phase and the peak memory it reaches.

Usage: ``python3 tools/lattice_probe.py [N ...]`` (default N = 600 2400)

On a seeded 100 x 100 grid on the benchmark workloads' box, for each
lattice size N, prints the median time to build a ``RelayGrid`` (the
weights), to ``initialize`` it from a nested history, to ``step`` it
through one pulse of 100 samples in one call (per pulse and per sample),
and of one ``output``, then the process's peak resident set (``ru_maxrss``)
so far.  The peak only grows, so give the sizes in ascending order.  Uses
this checkout's ``src`` and needs only numpy.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from preisach_remnant import Box, GridWeighting, MemoryInterface, RelayGrid  # noqa: E402

REPEATS = 7
SAMPLES_PER_PULSE = 100


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median_ms(fn, setup=lambda: None):
    times = []
    for _ in range(REPEATS):
        setup()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(argv):
    sizes = [int(x) for x in argv] or [600, 2400]
    box = Box(-0.25, 1.0, -1.0, 0.25)
    mu = GridWeighting(box, np.random.default_rng(600).normal(size=(100, 100)))
    history = MemoryInterface.virgin(box)
    for k in range(12):
        history = history.push_extremum((-1.0) ** k * 0.9 ** k)
    history = history.push_extremum(0.0)
    # one pulse of amplitude 0.8: up to it and back to zero
    half = SAMPLES_PER_PULSE // 2
    ramp = (0.8 * np.arange(1, half + 1) / half).tolist()
    pulse = ramp + ramp[-2::-1] + [0.0]
    for n in sizes:
        build = median_ms(lambda: RelayGrid(mu, n))
        grid = RelayGrid(mu, n)
        init = median_ms(lambda: grid.initialize(history))
        step = median_ms(lambda: grid.step(*pulse), setup=lambda: grid.initialize(history))
        output = median_ms(grid.output)
        print("n = %d: build %.2f ms, initialize %.3f ms, step %.2f ms per pulse of %d samples "
              "(%.2f us per sample), output %.2f ms"
              % (n, build, init, step, len(pulse), step * 1e3 / len(pulse), output))
        print("peak RSS after n = %d: %.1f MB" % (n, peak_rss_mb()))


if __name__ == "__main__":
    main(sys.argv[1:])
