"""Spans around the public functions of the package, installed from outside.

``Tracer.install`` replaces every public function and public method of the
layer modules with a wrapper, in the defining module and in every package
module that imported it by name, so calls between modules are traced too.
Nothing under ``src/`` changes.

Functions called once per lattice cell or per scan point (``COUNT_ONLY``)
get no span: a span each would cost more than the call and hold millions of
records.  Even a counting wrapper on them costs more than some layers take,
so they are wrapped only by ``start_count_pass``, for a last pass of the
workload that gives every count and no time.  The passes before it carry
span wrappers only, so their layer times carry no counting overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("presets", "weighting", "interface", "control", "oracle", "cli")

#: per-element helpers, counted without a span
COUNT_ONLY = {
    "weighting.GridWeighting.eval",
    "weighting.GridWeighting.integrate_rect",
    "weighting.GridWeighting.line_integral_alpha",
    "weighting.GridWeighting.line_integral_beta",
    "weighting.GridWeighting.total_mass",
    "weighting.GaussianComponent.eval",
    "weighting.GaussianWeighting.eval",
    "weighting.GaussianWeighting.integrate_rect",
    "weighting.GaussianWeighting.line_integral_alpha",
    "weighting.GaussianWeighting.line_integral_beta",
    "weighting.GaussianWeighting.total_mass",
    "interface.Box.contains",
    "interface.MemoryInterface.steps",
    "control.pulse_value",
}

#: dunder methods that are layer boundaries in their own right
EXTRA_METHODS = {"oracle.RelayGrid.__init__"}

PUSH = "interface.MemoryInterface.push_extremum"
EVALUATE = "weighting.evaluate_output"


class Tracer:
    """In-memory span recorder.  Each span is ``[name_id, start, end,
    parent_index, outermost_of_its_name, outermost_of_its_layer]``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._open = Counter()
        self._open_layer = Counter()
        self.calls = Counter()
        self.stats = Counter()
        self.timed_spans = None

    # -- wrappers -------------------------------------------------------------

    def _after(self, name, args, ret):
        if name == PUSH:
            n = len(ret.corners)
            self.stats["corners_sum"] += n
            self.stats["corners_max"] = max(self.stats["corners_max"], n)
        elif name == "control.run_controller":
            self.stats["pulses"] += len(ret.records)
        elif name == "control.render_signal":
            self.stats["signal_samples"] += len(ret[0])
        elif name == "oracle.RelayGrid.step":
            self.stats["relay_updates"] += args[0].n ** 2

    def span(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        spans, stack, opened, opened_layer = self.spans, self._stack, self._open, self._open_layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [nid, 0.0, 0.0, parent, opened[name] == 0, opened_layer[layer] == 0]
            stack.append(len(spans))
            spans.append(rec)
            opened[name] += 1
            opened_layer[layer] += 1
            rec[1] = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                opened[name] -= 1
                opened_layer[layer] -= 1
            self.calls[name] += 1
            self._after(name, args, ret)
            return ret

        return wrapper

    def count(self, name, fn):
        calls, opened, stats = self.calls, self._open, self.stats
        in_output = name.endswith(".integrate_rect")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if in_output and opened[EVALUATE]:
                stats["rects_in_output"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        return (self.count if name in COUNT_ONLY else self.span)(name, fn)

    # -- installation -----------------------------------------------------------

    def install(self, package="preisach_remnant", counted=False):
        """Wrap the public callables of every layer module of ``package``
        with spans, or with ``counted`` the per-element helpers with counts."""
        mods = {layer: importlib.import_module("%s.%s" % (package, layer)) for layer in LAYERS}
        everywhere = [sys.modules[package]] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_methods(layer, obj, counted)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = "%s.%s" % (layer, attr)
                    if (name in COUNT_ONLY) != counted:
                        continue
                    wrapped = self.wrap(name, obj)
                    for other in everywhere:
                        for k, v in list(vars(other).items()):
                            if v is obj:
                                setattr(other, k, wrapped)

    def _install_methods(self, layer, cls, counted):
        for attr, raw in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if attr.startswith("_") and name not in EXTRA_METHODS:
                continue
            if (name in COUNT_ONLY) != counted:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                setattr(cls, attr, self.wrap(name, raw))

    def start_count_pass(self):
        """End the timed passes: later spans are left out of every time, the
        counts start from zero and the per-element helpers are counted."""
        self.timed_spans = len(self.spans)
        self.calls.clear()
        self.stats.clear()
        self.install(counted=True)

    # -- results ----------------------------------------------------------------

    def totals(self, span_s):
        """(inclusive seconds per name, inclusive seconds per layer, self
        seconds per layer), with ``span_s(start, end)`` the seconds of one
        span.  Inclusive times count only the outermost span of a name or
        layer, so recursion is not counted twice.  Only the timed passes
        count."""
        spans = self.spans[: self.timed_spans]
        secs = [span_s(start, end) for _, start, end, _, _, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += secs[i]
        by_name, by_layer, self_layer = Counter(), Counter(), Counter()
        for i, (nid, _, _, _, outer, outer_layer) in enumerate(spans):
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            if outer:
                by_name[name] += secs[i]
            if outer_layer:
                by_layer[layer] += secs[i]
            self_layer[layer] += secs[i] - child[i]
        return by_name, by_layer, self_layer

    def per_layer_metrics(self, span_s, timed_passes, artifact_bytes):
        """The benchmark's per-layer metrics, per pass of the workload: times
        are means over the timed passes, counts come from the counting pass."""
        by_name, by_layer, self_layer = self.totals(span_s)
        c, st = self.calls, self.stats
        times = {
            "weighting.sector_bounds_s": by_name["weighting.sector_bounds"],
            "weighting.evaluate_output_s": by_name[EVALUATE],
            "weighting.load_csv_s": by_name["weighting.GridWeighting.load_csv"],
            "interface.push_extremum_s": by_name[PUSH],
            "control.run_controller_s": by_name["control.run_controller"],
            "control.remnant_extrema_s": by_name["control.remnant_extrema"],
            "control.dense_response_s": by_name["control.dense_response"],
            "control.render_signal_s": by_name["control.render_signal"],
            "oracle.build_s": by_name["oracle.RelayGrid.__init__"],
            "oracle.initialize_s": by_name["oracle.RelayGrid.initialize"],
            "oracle.step_s": by_name["oracle.RelayGrid.step"],
            "presets.build_s": by_layer["presets"],
        }
        for layer in LAYERS:
            times["%s.self_s" % layer] = self_layer[layer]
        out = {k: {"value": v / timed_passes, "unit": "s"} for k, v in times.items()}
        out_calls, pushes = c[EVALUATE], c[PUSH]
        counts = {
            "weighting.sector_bounds_calls": c["weighting.sector_bounds"],
            "weighting.line_integral_calls": sum(
                v for k, v in c.items() if ".line_integral_" in k
            ),
            "weighting.evaluate_output_calls": out_calls,
            "weighting.integrate_rect_calls": sum(
                v for k, v in c.items() if k.endswith(".integrate_rect")
            ),
            "weighting.rects_per_output": st["rects_in_output"] / out_calls if out_calls else 0.0,
            "interface.push_extremum_calls": pushes,
            "interface.corners_max": st["corners_max"],
            "interface.corners_mean": st["corners_sum"] / pushes if pushes else 0.0,
            "control.pulses": st["pulses"],
            "control.remnant_calls": c["control.remnant"],
            "control.signal_samples": st["signal_samples"],
            "oracle.steps": c["oracle.RelayGrid.step"],
            "oracle.relay_updates": st["relay_updates"],
            "cli.artifact_bytes": artifact_bytes,
        }
        out.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
        step_s = out["oracle.step_s"]["value"]
        out["oracle.relay_updates_per_s"] = {
            "value": st["relay_updates"] / step_s if step_s else 0.0,
            "unit": "1/s",
        }
        return out

    def dump(self, path):
        """Write the spans of the timed passes."""
        with open(path, "w") as fh:
            spans = [s[:4] for s in self.spans[: self.timed_spans]]
            json.dump({"names": self.names, "spans": spans}, fh)
