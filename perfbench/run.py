"""Benchmark of the ``octomono`` CLI, run in-process from a source checkout.

Usage (from the root of the checkout)::

    python3 perfbench/run.py --workload mc_ball --seed 42 --seconds 35 --trace 0

The workload's commands (``workloads.py``) are run through
``octomono.cli.main`` with ``--seed <seed>``, one at a time, in cycles
until the time is spent.  Every report is checked: exit code 0 or 1,
a well-formed report, and the same bytes (apart from ``elapsed_ms``) at
both thread counts, in every cycle and with tracing on or off.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles, prints the per-layer metrics from the traced
ones and writes the spans to ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means the run finished; a
missing or broken package exits 1 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from metrics import END_TO_END, EXACT_UNITS, PER_LAYER, layer_metrics, layer_totals
from spans import Tracer, self_times, write_trace
from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120

# Import plus the warm-up commands in a fresh interpreter; prints the
# seconds taken and the peak resident set in MiB.
SETUP_CODE = """
import contextlib, io, json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import octomono.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [octomono.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
sys.exit(max(codes))
"""

ELAPSED = re.compile(r'"elapsed_ms": -?\d+')


def normalize(report: str) -> str:
    """The report without its wall-clock field, for byte comparison."""
    return ELAPSED.sub('"elapsed_ms": null', report)


@dataclass
class Outcome:
    seconds: float
    ok: bool
    report: str
    check_rows: int = 0
    check_failures: int = 0
    error: str = ""


@dataclass
class Tally:
    """Commands attempted and failed, check rows, and the reference
    report of each command group."""

    attempted: int = 0
    failed: int = 0
    check_rows: int = 0
    check_failures: int = 0
    reference: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def record(self, cmd: Command, out: Outcome, compare: bool = True) -> None:
        self.attempted += 1
        error = out.error
        if compare:
            self.check_rows += out.check_rows
            self.check_failures += out.check_failures
        if out.ok and compare:
            expected = self.reference.setdefault(cmd.group, normalize(out.report))
            if normalize(out.report) != expected:
                error = "report differs from the first report of its group"
        if error:
            self.failed += 1
            self.errors.append(f"{' '.join(cmd.argv)}: {error}")


def run_command(cli, cmd: Command, seed: int) -> Outcome:
    """Run one CLI command in-process and validate its report."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--seed", str(seed), *cmd.argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash is a failed operation, not the end of the run
        return Outcome(perf_counter() - t0, False, "", error=traceback.format_exc())
    seconds = perf_counter() - t0
    report = stdout.getvalue()
    if code not in (0, 1):
        return Outcome(seconds, False, report, error=f"exit {code}: {stderr.getvalue()[-500:]}")
    try:
        parsed = json.loads(report)
    except json.JSONDecodeError as exc:
        return Outcome(seconds, False, report, error=f"report is not JSON: {exc}")
    if parsed.get("command") != cmd.subcommand or parsed.get("seed") != seed:
        return Outcome(seconds, False, report, error="report names another command or seed")
    checks = [r["pass"] for r in parsed.get("results", []) if r.get("pass") is not None]
    failures = checks.count(False)
    if not checks or (code == 1) != (failures > 0):
        return Outcome(seconds, False, report, error=f"exit {code} with {failures} failed checks")
    return Outcome(seconds, True, report, len(checks), failures)


@dataclass
class TracedCycle:
    wall: float
    first_cmd: int
    cols: dict[str, np.ndarray]


class Bench:
    """One workload at one seed: runs cycles and keeps what they produced."""

    def __init__(self, cli, workload: Workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.tracer = Tracer()

    def warm_up(self) -> None:
        for cmd in self.workload.warmup:
            self.tally.record(cmd, run_command(self.cli, cmd, self.seed), compare=False)

    def cycle(self) -> list[float]:
        """Run every command once; return each command's wall time."""
        times = []
        for cmd in self.workload.commands:
            self.tracer.cmd += 1
            out = run_command(self.cli, cmd, self.seed)
            self.tally.record(cmd, out)
            times.append(out.seconds)
        return times

    def traced_cycle(self) -> TracedCycle:
        first_cmd = self.tracer.cmd + 1
        self.tracer.install()
        try:
            wall = sum(self.cycle())
        finally:
            self.tracer.uninstall()
        return TracedCycle(wall, first_cmd, self.tracer.take())


def run_until(seconds: float, step) -> list:
    """Call ``step`` until ``seconds`` would be exceeded by one more call
    of average length; always at least once."""
    t0 = perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results


def end_to_end(
    bench: Bench, cycles: list[list[float]], setup: list[tuple[float, float]]
) -> dict[str, float]:
    medians = [statistics.median(ts) for ts in zip(*cycles)]

    def rate(primary: bool) -> float:
        picked = [(c.items, m) for c, m in zip(bench.workload.commands, medians)
                  if c.primary == primary]
        return sum(i for i, _ in picked) / sum(m for _, m in picked)

    return {
        "setup_s": statistics.median(s for s, _ in setup),
        "primary_per_s": rate(True),
        "secondary_per_s": rate(False),
        # Peak of a single-threaded command stream.  The process's own
        # peak is not used: it depends on how the two workers' chunk
        # temporaries overlap in time, and varied by 11% between runs.
        "peak_rss_mb": statistics.median(r for _, r in setup),
    }


def cycle_layers(bench: Bench, traced: TracedCycle) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced cycle, and trace consistency errors."""
    names = bench.tracer.names
    cols = traced.cols
    self_t = self_times(cols)
    values = layer_metrics(layer_totals(names, cols, self_t))

    dur = cols["end"] - cols["start"]
    pool = cols["name"] == names.index("quadrature.pool")
    task = np.isin(cols["parent"], cols["sid"][pool])
    capacity = float((dur[pool] * cols["n"][pool]).sum())
    values["quadrature.pool.busy_frac"] = float(dur[task].sum()) / capacity if capacity else 0.0

    # Single-threaded commands: self times add up to the cli.main span.
    root = cols["name"] == names.index("cli.main")
    errors = []
    for offset, cmd in enumerate(bench.workload.commands):
        if cmd.threads != 1:
            continue
        mine = cols["cmd"] == traced.first_cmd + offset
        total = float(dur[mine & root].sum())
        if not (mine & root).any() or abs(float(self_t[mine].sum()) - total) > 1e-6 * (1 + total):
            errors.append(f"self times of {' '.join(cmd.argv)} do not add up to cli.main")
    return values, errors


def per_layer(
    bench: Bench, traced: list[TracedCycle], untraced: list[float]
) -> tuple[dict[str, float], list[str]]:
    """Medians over traced cycles; counts must repeat exactly."""
    errors: list[str] = []
    cycles = []
    for t in traced:
        values, errs = cycle_layers(bench, t)
        cycles.append(values)
        errors += errs
    out = {}
    for m in PER_LAYER:
        if m.name not in cycles[0]:
            continue
        seen = [c[m.name] for c in cycles]
        if m.unit in EXACT_UNITS:
            if len(set(seen)) != 1:
                errors.append(f"{m.name} differs between traced cycles: {seen}")
            out[m.name] = seen[0]
        else:
            out[m.name] = statistics.median(seen)
    tally = bench.tally
    out["checks.fail_frac"] = tally.check_failures / tally.check_rows if tally.check_rows else 0.0
    out["trace.overhead_s"] = statistics.median(t.wall for t in traced) - statistics.median(untraced)
    return out, errors


def measure_setup(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """Import plus the warm-up commands, each time in a fresh interpreter:
    (seconds, peak resident MiB) per run."""
    argvs = json.dumps([["--seed", str(seed), *c.argv] for c in workload.warmup])
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), argvs],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"set-up run failed:\n{proc.stderr[-2000:]}")
        seconds, rss = proc.stdout.split()[-2:]
        times.append((float(seconds), float(rss)))
    return times


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def machine_record(octomono) -> dict:
    chunk = octomono.quadrature.McConfig().chunk
    operand = chunk * 8 * np.dtype(np.float64).itemsize
    l3 = l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mul_many_operand_bytes": operand,
        # below 4x L3 the product is measured in cache, not at memory bandwidth
        "mul_many_in_cache": None if l3 is None else operand < 4 * l3,
        "cost_model": "computed: 128 flop and 24*itemsize bytes per mul_many product",
    }


def import_octomono():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import octomono.cli
    import octomono.quadrature

    if Path(octomono.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"octomono imported from {octomono.__file__}, not {SRC}")
    return octomono


def measure_untraced(bench: Bench, seconds: float) -> tuple[dict[str, float], int]:
    setup = measure_setup(bench.workload, bench.seed)
    bench.warm_up()
    timed = run_until(seconds, bench.cycle)
    for ts in timed:
        print("cycle:", " ".join(f"{t:.3f}" for t in ts))
    return end_to_end(bench, timed, setup), len(timed)


def measure_traced(bench: Bench, seconds: float, record: dict):
    bench.warm_up()
    pairs = run_until(seconds, lambda: (sum(bench.cycle()), bench.traced_cycle()))
    traced = [t for _, t in pairs]
    values, errors = per_layer(bench, traced, [u for u, _ in pairs])
    cols = {k: np.concatenate([t.cols[k] for t in traced]) for k in traced[0].cols}
    cols["cycle"] = np.concatenate([np.full(t.cols["sid"].size, i) for i, t in enumerate(traced)])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{bench.workload.name}-seed{bench.seed}.npz"
    write_trace(path, bench.tracer.names, cols, record)
    print(f"spans: {cols['sid'].size} written to {path.relative_to(HERE.parent)}")
    return values, len(traced), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    try:
        octomono = import_octomono()
    except ImportError as exc:
        print(f"error: cannot import octomono from {SRC}: {exc}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    record = machine_record(octomono)
    print("machine:", json.dumps(record, sort_keys=True))

    bench = Bench(octomono.cli, workload, args.seed)
    if args.trace:
        values, cycles, errors = measure_traced(bench, args.seconds, record)
        specs = PER_LAYER
        summary = {}
    else:
        values, cycles = measure_untraced(bench, args.seconds)
        errors = []
        specs = END_TO_END
        summary = {
            workload.primary_name: (values["primary_per_s"], "1/s"),
            workload.secondary_name: (values["secondary_per_s"], "1/s"),
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MiB"),
        }
    tally = bench.tally
    summary["ops_failed_frac"] = (tally.failed / tally.attempted, "ratio")
    summary["check_fail_frac"] = (tally.check_failures / max(tally.check_rows, 1), "ratio")
    print(f"workload {workload.name} seed {args.seed}: {cycles} cycle(s), "
          f"{tally.attempted} commands, {tally.failed} failed")
    for name, (value, unit) in summary.items():
        print(f"  {name:22s} {value:14.6g} {unit}")
    errors = tally.errors + errors
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
