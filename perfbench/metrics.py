"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; the benchmark's test keeps the
two in step.

End-to-end metrics (untraced run).  Every workload has two passes (see
``workloads.py``), so the throughputs are named by pass:

- ``primary_per_s``: MC samples/s at ``--threads 1`` on ``mc_ball`` and
  ``mc_strip``; trig points/s on ``suites``.
- ``secondary_per_s``: MC samples/s at ``--threads 2`` on the MC
  workloads; algebra trials/s on ``suites``.

Per-layer metrics (traced run) come from spans, one table row per layer:
work counts repeat exactly for a fixed seed, times are self times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import MUL_FLOPS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("primary_per_s", "1/s", "higher", 0.25),
    Metric("secondary_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
)

SAMPLER_REGIONS = ("sphere", "ball", "strip_boundary", "strip_volume")

# (span name, fields); metrics are named <span>.<field>, except that the
# cli.main span's metrics are named cli.<field>.
LAYERS = (
    ("algebra.mul_many",
     ("calls", "rows", "self_s", "rows_per_s", "flops_computed", "bytes_computed")),
    ("algebra.conj_many", ("self_s",)),
    ("kernels.szego_strip_values", ("rows", "self_s", "rows_per_s")),
    ("kernels.bergman_strip_values", ("rows", "self_s", "rows_per_s")),
    ("kernels.szego_ball_values", ("rows", "self_s")),
    ("kernels.bergman_ball_values", ("rows", "self_s")),
    ("trig_series.periodized_sum", ("calls", "terms", "self_s")),
    ("trig_series.periodized_deriv_sum", ("calls", "terms", "self_s")),
    ("regularity.q0_many", ("calls", "rows", "self_s")),
    ("regularity.dq0_dx0_many", ("calls", "rows", "self_s")),
    ("regularity.apply_D_left", ("calls", "self_s")),
    *((f"quadrature.sampler.{r}", ("rows", "self_s")) for r in SAMPLER_REGIONS),
    ("quadrature.estimate", ("self_s",)),
    ("functions.eval", ("rows", "self_s")),
    ("cli.main", ("self_s",)),
)


def _prefix(span: str) -> str:
    return "cli" if span == "cli.main" else span


@dataclass
class LayerTotals:
    """Sums over the spans of one layer in one traced cycle."""

    calls: int = 0
    n: int = 0
    bytes: int = 0
    self_s: float = 0.0


# field -> (unit, better, value from LayerTotals)
FIELDS: dict[str, tuple[str, str, Callable[[LayerTotals], float]]] = {
    "calls": ("count", "lower", lambda t: t.calls),
    "rows": ("count", "lower", lambda t: t.n),
    "terms": ("count", "lower", lambda t: t.n),
    "self_s": ("s", "lower", lambda t: t.self_s),
    "rows_per_s": ("1/s", "higher", lambda t: t.n / t.self_s if t.self_s > 0 else 0.0),
    "flops_computed": ("flop", "lower", lambda t: MUL_FLOPS * t.n),
    "bytes_computed": ("B", "lower", lambda t: t.bytes),
}

# Counts that must repeat exactly across traced runs of one seed.
EXACT_UNITS = ("count", "flop", "B")

EXTRA_PER_LAYER = (
    Metric("quadrature.pool.busy_frac", "ratio", "higher"),
    Metric("checks.fail_frac", "ratio", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
)

PER_LAYER = tuple(
    Metric(f"{_prefix(span)}.{field}", FIELDS[field][0], FIELDS[field][1])
    for span, fields in LAYERS
    for field in fields
) + EXTRA_PER_LAYER


def layer_totals(
    names: list[str], cols: dict[str, np.ndarray], self_t: np.ndarray
) -> dict[str, LayerTotals]:
    """Sum calls, work counts, bytes and self times per span name."""
    out = {}
    for k, name in enumerate(names):
        mine = cols["name"] == k
        out[name] = LayerTotals(
            calls=int(mine.sum()),
            n=int(cols["n"][mine].sum()),
            bytes=int(cols["bytes"][mine].sum()),
            self_s=float(self_t[mine].sum()),
        )
    return out


def layer_metrics(totals: dict[str, LayerTotals]) -> dict[str, float]:
    """Per-layer metric values of one traced cycle (the table part)."""
    out = {}
    for span, fields in LAYERS:
        t = totals.get(span, LayerTotals())
        for field in fields:
            out[f"{_prefix(span)}.{field}"] = FIELDS[field][2](t)
    return out
