"""Set-up time of one fresh process: import the package, load the config and
build the field and the initial interface, i.e. everything before the first
engine call.  Prints the seconds taken as JSON, with the median time of the
calibration kernel run right after it (see ``calibrate.py``): set-up takes
about one timer period, too short for the timer's ticks to average over.

    python3 perfbench/setup_probe.py CONFIG.json
"""

import json
import sys
import time


def main(config_path):
    t0 = time.perf_counter()
    from preisach_remnant import GridWeighting
    from preisach_remnant.presets import butterfly_preset, interface_from_spec

    with open(config_path) as fh:
        cfg = json.load(fh)
    spec = cfg["weighting"]
    if "grid_csv" in spec:
        mu = GridWeighting.load_csv(spec["grid_csv"])
    else:
        mu, _ = butterfly_preset(scale=spec["scale"])
    interface_from_spec(cfg["initial_interface"], mu.support_box)
    setup_s = time.perf_counter() - t0

    import calibrate

    kernel_s = []
    for _ in range(5):
        k0 = time.perf_counter()
        calibrate.kernel()
        kernel_s.append(time.perf_counter() - k0)
    kernel_s.sort()
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s[2]}))


if __name__ == "__main__":
    main(sys.argv[1])
