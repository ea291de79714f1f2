"""The traced benchmark (``perfbench/spans.py``) binds package functions by
name and reads what they return; these checks keep a refactor of the
package from breaking it while the rest of the suite stays green.

``perfbench/spans.py`` is loaded read-only from the checkout.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from octomono.cli import main

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # compiled from source so that no bytecode cache is written there
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def _package_attr(module: str, attr: str):
    return getattr(importlib.import_module(f"octomono.{module}"), attr, None)


def test_every_bound_name_resolves(spans):
    names = [tuple(key.split(".")) for key in spans.LAYER_FUNCTIONS]
    names += [("quadrature", attr) for attr in spans.ESTIMATORS + spans.REGION_FACTORIES]
    names += [("functions", attr) for attr in spans.FUNCTION_FACTORIES]
    missing = [".".join(n) for n in names if not callable(_package_attr(*n))]
    assert missing == []


def test_traced_commands_record_counted_spans(spans, capsys):
    tracer = spans.Tracer()
    tracer.install()
    try:
        main(["trig", "--points", "2"])
        for experiment in ("szego_strip", "bergman_strip"):
            main(["--radius", "2", "reproduce", "--experiment", experiment,
                  "--samples", "1000"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    cols = tracer.take()
    counted = {
        tracer.names[k]: int(cols["n"][cols["name"] == k].sum())
        for k in np.unique(cols["name"])
    }
    for name in (
        "trig_series.periodized_sum",
        "kernels.szego_strip_values",
        "kernels.bergman_strip_values",
        "algebra.mul_many",
    ):
        assert counted.get(name, 0) > 0, name
