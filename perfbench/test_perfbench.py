"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from metrics import END_TO_END, EXACT_UNITS, PER_LAYER
from spans import Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def octomono():
    return run.import_octomono()


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_self_time_subtracts_children_on_the_same_thread_only():
    # span 1 [0, 10] on thread 0 has child 2 [1, 4] on thread 0 and
    # child 3 [2, 9] on thread 1 (a pool task); 4 [2, 3] nests in 3.
    cols = {
        "sid": np.array([2, 4, 3, 1]),
        "parent": np.array([1, 3, 1, 0]),
        "start": np.array([1.0, 2.0, 2.0, 0.0]),
        "end": np.array([4.0, 3.0, 9.0, 10.0]),
        "thread": np.array([0, 1, 1, 0]),
    }
    assert self_times(cols).tolist() == [3.0, 1.0, 6.0, 7.0]


def test_tracer_replaces_every_binding_and_restores_them(octomono):
    import octomono.algebra as algebra
    import octomono.kernels as kernels
    import octomono.quadrature as quadrature

    original = algebra.mul_many
    tracer = Tracer()
    tracer.install()
    try:
        for module in (algebra, kernels, quadrature, octomono.cli):
            assert module.mul_many is not original
            assert module.mul_many.__wrapped__ is original
        assert kernels.periodized_sum is octomono.trig_series.periodized_sum
    finally:
        tracer.uninstall()
    for module in (algebra, kernels, quadrature, octomono.cli):
        assert module.mul_many is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_and_reports_match_across_traced_runs(octomono, name):
    bench = run.Bench(octomono.cli, WORKLOADS[name], seed=42)
    untraced = sum(bench.cycle())
    traced = [bench.traced_cycle(), bench.traced_cycle()]
    values, errors = run.per_layer(bench, traced, [untraced])
    assert errors == [] and bench.tally.errors == []
    assert bench.tally.failed == 0
    first, second = (run.cycle_layers(bench, t)[0] for t in traced)
    exact = [m.name for m in PER_LAYER if m.unit in EXACT_UNITS]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert values["algebra.mul_many.rows"] > 0


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
