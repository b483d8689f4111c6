"""Wall time of each relay-lattice phase and the peak memory it reaches.

Usage: ``python3 tools/lattice_probe.py [N ...]`` (default N = 300 600 2400)

On a seeded 100 x 100 grid on the benchmark workloads' box, for each
lattice size N, prints the median time to build a ``RelayGrid`` (the
weights), to ``initialize`` it from a nested history, to ``step`` it
through one pulse of 100 samples in one call (per pulse and per sample),
and of one ``output`` twice: once with the states of every output block
changed (column 0 flipped, which reaches every block of at least N relays),
and once after a pulse to 0.1 that moves only the rows with 0 <= alpha <
0.1.  Then the median time of a whole replay, from the build to the last
output of ``oracle_pulse_remnants`` over 11 pulses of 100 samples from the
same history, with the minor page faults of the first replay (a
steady-state ``output`` hides the first touch of fresh pages): of shrinking
pulses of alternating sign, and of growing negative pulses, each of which
moves columns in every row with alpha >= 0, a worst case for the kept block
sums.  Then the process's peak resident set (``ru_maxrss``) so far.  The
peak only grows, so give the sizes in ascending order.  Uses this
checkout's ``src`` and needs only numpy.
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

from preisach_remnant import (  # noqa: E402
    Box,
    GridWeighting,
    MemoryInterface,
    RelayGrid,
    oracle_pulse_remnants,
)

REPEATS = 7
SAMPLES_PER_PULSE = 100
#: the replayed trains: 11 pulses of shrinking amplitude and alternating
#: sign, and 11 negative pulses of growing amplitude
AMPLITUDES = [0.8 * (-0.7) ** k for k in range(11)]
GROWING = [-0.09 * (k + 1) for k in range(11)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def median_ms(fn, setup=lambda: None):
    times = []
    for _ in range(REPEATS):
        setup()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def pulse(w):
    """The samples of one pulse of amplitude ``w``: up to it and back to zero."""
    half = SAMPLES_PER_PULSE // 2
    ramp = (w * np.arange(1, half + 1) / half).tolist()
    return ramp + ramp[-2::-1] + [0.0]


def main(argv):
    sizes = [int(x) for x in argv] or [300, 600, 2400]
    box = Box(-0.25, 1.0, -1.0, 0.25)
    mu = GridWeighting(box, np.random.default_rng(600).normal(size=(100, 100)))
    history = MemoryInterface.virgin(box)
    for k in range(12):
        history = history.push_extremum((-1.0) ** k * 0.9 ** k)
    history = history.push_extremum(0.0)
    for n in sizes:
        build = median_ms(lambda: RelayGrid(mu, n))
        grid = RelayGrid(mu, n)
        init = median_ms(lambda: grid.initialize(history))
        samples = pulse(0.8)
        step = median_ms(lambda: grid.step(*samples), setup=lambda: grid.initialize(history))
        grid.output()
        changed = median_ms(grid.output, setup=lambda: np.negative(grid.states[:, 0], out=grid.states[:, 0]))

        def one_pulse():
            grid.initialize(history)
            grid.output()
            grid.step(*pulse(0.1))

        moved = median_ms(grid.output, setup=one_pulse)
        print("n = %d: build %.2f ms, initialize %.3f ms, step %.2f ms per pulse of %d samples "
              "(%.2f us per sample), output %.2f ms with every block changed, %.2f ms after a "
              "pulse that moves a few rows"
              % (n, build, init, step, len(samples), step * 1e3 / len(samples), changed, moved))
        for name, train in (("shrinking alternating", AMPLITUDES), ("growing negative", GROWING)):
            faults = minor_faults()
            oracle_pulse_remnants(mu, history, train, n, SAMPLES_PER_PULSE)
            faults = minor_faults() - faults
            replay = median_ms(lambda: oracle_pulse_remnants(mu, history, train, n, SAMPLES_PER_PULSE))
            print("n = %d: replay of %d %s pulses %.2f ms, build to last output (%d minor faults "
                  "in the first)" % (n, len(train), name, replay, faults))
        print("peak RSS after n = %d: %.1f MB" % (n, peak_rss_mb()))


if __name__ == "__main__":
    main(sys.argv[1:])
