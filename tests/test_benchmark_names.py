"""The names of the package that the benchmark reaches.

``perfbench/tracing.py`` reads its per-layer rows by function name, and a
name the package no longer has reads 0 without an error.
``perfbench/setup_probe.py`` imports names of the package to time set-up,
and ``perfbench/worker.py`` calls ``cli.main`` and patches
``cli.cmd_control``.  So every such name must resolve: a rename or a
deletion then fails here, not silently in the benchmark.  Both files are
only read.
"""

import ast
import importlib
import os

import pytest

from preisach_remnant import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def parse(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def traced_names():
    """The string keys of ``by_name[...]`` and ``c[...]`` in the tracer, the
    names its ``_after`` compares with, and the values of ``PUSH`` and
    ``EVALUATE``, which it uses as keys."""
    names = set()
    for node in ast.walk(parse("tracing.py")):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if getattr(node.targets[0], "id", None) in ("PUSH", "EVALUATE"):
                names.add(node.value.value)
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in ("by_name", "c"):
            if isinstance(node.slice, ast.Constant):
                names.add(node.slice.value)
        elif isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "name":
            if isinstance(node.comparators[0], ast.Constant):
                names.add(node.comparators[0].value)
    return sorted(names)


def probe_imports():
    """(module, name) of every ``from preisach_remnant... import name`` of
    the set-up probe."""
    return [
        (node.module, alias.name)
        for node in ast.walk(parse("setup_probe.py"))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "preisach_remnant"
        for alias in node.names
    ]


def test_the_benchmark_files_name_the_package():
    names = traced_names()
    assert "interface.MemoryInterface.push_extremum" in names
    assert "weighting.evaluate_output" in names
    assert "control.run_controller" in names
    assert len(names) >= 10
    assert ("preisach_remnant.presets", "interface_from_spec") in probe_imports()


@pytest.mark.parametrize("name", traced_names())
def test_every_traced_name_is_a_function_the_tracer_wraps(name):
    """``layer.function`` or ``layer.Class.method``: the tracer wraps the
    callables a layer module defines itself, and the methods of its
    classes from the class's own namespace."""
    layer, first, *rest = name.split(".")
    module = importlib.import_module("preisach_remnant." + layer)
    obj = getattr(module, first, None)
    assert obj is not None, "preisach_remnant.%s has no %s" % (layer, first)
    assert obj.__module__ == module.__name__, "%s is imported into %s" % (first, layer)
    for attr in rest:
        assert attr in vars(obj), "%s.%s is not defined on the class" % (first, attr)
        obj = vars(obj)[attr]
    assert callable(getattr(obj, "__func__", obj))


@pytest.mark.parametrize("module, name", probe_imports())
def test_every_name_the_setup_probe_imports_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_the_worker_entry_points_exist():
    """``cli.cmd_control`` is what the worker times each swept run by;
    ``TestSweep.test_runs_share_one_scan_and_match_single_runs`` in
    ``test_cli.py`` checks that ``cmd_sweep`` calls it through the module."""
    assert callable(cli.main) and callable(cli.cmd_control)
