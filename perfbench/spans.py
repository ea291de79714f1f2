"""Spans around octomono's layer functions, recorded from outside the package.

A :class:`Tracer` replaces each traced function on every module binding
that refers to it (``octomono.algebra.mul_many`` is also bound as
``octomono.kernels.mul_many``, ``octomono.quadrature.mul_many`` and so
on), so a call is recorded whichever name the caller looks up.  Spans
are kept in memory; :meth:`Tracer.take` hands them over as columns and
:func:`write_trace` stores them when the benchmark ends.

Each span records name, start, end, parent span, thread and command id,
plus one work count ``n`` (rows, terms or samples) and the bytes the
call computes on.  A layer's self time is its duration minus the time
its children on the same thread cover.  Pool tasks run on worker threads
with the pool span as parent, so they do not reduce any self time on
the submitting thread.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Computed costs of one octonion product: 64 multiplies and 64 adds, and
# two 8-coordinate operands read plus one written.
MUL_FLOPS = 128
MUL_WORDS = 24

PACKAGE = "octomono"

REGION_FACTORIES = (
    "sphere_region",
    "ball_region",
    "strip_boundary_region",
    "strip_volume_region",
)
ESTIMATORS = (
    "cauchy_theorem_check",
    "cauchy_formula_reproduce",
    "szego_reproduce_ball",
    "inner_product_hardy_ball",
    "bergman_reproduce_ball",
    "inner_product_bergman_ball",
    "szego_reproduce_strip",
    "bergman_reproduce_strip",
    "inner_product_strip_boundary",
    "inner_product_strip_volume",
    "szego_reproduce_half_space",
)
FUNCTION_FACTORIES = (
    "constant",
    "identity_map",
    "linear_monogenic",
    "right_multiplied",
    "shifted_cauchy_kernel",
    "szego_ball_section",
    "bergman_ball_section",
)


def _rows(out) -> int:
    return int(np.asarray(out).size // 8)


def _first_rows(args, out) -> tuple[int, int]:
    return int(np.asarray(args[0]).size // 8), 0


def _out_rows(args, out) -> tuple[int, int]:
    return _rows(out), 0


def _mul_cost(args, out) -> tuple[int, int]:
    rows = _rows(out)
    return rows, rows * MUL_WORDS * out.dtype.itemsize


def _terms(args, out) -> tuple[int, int]:
    return int(out.terms), 0


def _no_count(args, out) -> tuple[int, int]:
    return 0, 0


# "<module>.<function>" -> count function; the span takes the same name
LAYER_FUNCTIONS = {
    "algebra.mul_many": _mul_cost,
    "algebra.conj_many": _out_rows,
    "kernels.szego_strip_values": _first_rows,
    "kernels.bergman_strip_values": _first_rows,
    "kernels.szego_ball_values": _out_rows,
    "kernels.bergman_ball_values": _out_rows,
    "trig_series.periodized_sum": _terms,
    "trig_series.periodized_deriv_sum": _terms,
    "regularity.q0_many": _out_rows,
    "regularity.dq0_dx0_many": _out_rows,
    "regularity.apply_D_left": _no_count,
    "cli.main": _no_count,
}


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.cmd = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, float]:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def close(self, name_id: int, sid: int, parent: int, t0: float, n=0, nbytes=0):
        t1 = perf_counter()
        self._stack().pop()
        self._spans.append(
            (sid, parent, t0, t1, threading.get_ident(), self.cmd, name_id, n, nbytes)
        )

    def wrap(self, fn, name: str, count=_no_count):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, t0 = tracer.open()
            n = nbytes = 0
            try:
                out = fn(*args, **kwargs)
                n, nbytes = count(args, out)
                return out
            finally:
                tracer.close(name_id, sid, parent, t0, n, nbytes)

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for name, count in LAYER_FUNCTIONS.items():
            mod, attr = name.split(".")
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self.wrap(original, name, count))
        quadrature = mods["quadrature"]
        for attr in ESTIMATORS:
            original = getattr(quadrature, attr)
            self._replace_everywhere(original, self.wrap(original, "quadrature.estimate"))
        for attr in REGION_FACTORIES:
            original = getattr(quadrature, attr)
            self._replace_everywhere(original, self._traced_region_factory(original))
        functions = mods["functions"]
        for attr in FUNCTION_FACTORIES:
            original = getattr(functions, attr)
            self._replace_everywhere(original, self._traced_handle_factory(original))
        self._replace_everywhere(ThreadPoolExecutor, self._traced_pool_class())

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _traced_region_factory(self, factory):
        tracer = self

        def traced_factory(*args, **kwargs):
            region = factory(*args, **kwargs)
            sampler = region.sampler

            def sample_rows(args, out):
                return int(args[1]), 0

            wrapped = tracer.wrap(sampler, f"quadrature.sampler.{region.name}", sample_rows)
            return dataclasses.replace(region, sampler=wrapped)

        return traced_factory

    def _traced_handle_factory(self, factory):
        tracer = self

        def traced_factory(*args, **kwargs):
            handle = factory(*args, **kwargs)
            wrapped = tracer.wrap(handle.eval_batch, "functions.eval", _out_rows)
            return dataclasses.replace(handle, eval_batch=wrapped)

        return traced_factory

    def _traced_pool_class(self):
        """A ThreadPoolExecutor whose lifetime is a ``quadrature.pool`` span
        and whose tasks are ``quadrature.estimate`` spans on the workers."""
        tracer = self
        pool_id = self._name_id("quadrature.pool")
        task_id = self._name_id("quadrature.estimate")

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    sid, parent, t0 = self._span
                    tracer.close(pool_id, sid, parent, t0, self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                pool_sid = self._span[0]

                def task():
                    stack = tracer._stack()
                    stack.append(pool_sid)
                    sid, parent, t0 = tracer.open()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.close(task_id, sid, parent, t0)
                        stack.pop()

                return super().submit(task)

        return TracedPool

    # -- handing over ------------------------------------------------------

    def take(self) -> dict[str, np.ndarray]:
        """Return the spans recorded so far as columns and forget them."""
        spans, self._spans = self._spans, []
        sid, parent, start, end, thread, cmd, name, n, nbytes = (
            zip(*spans) if spans else ((),) * 9
        )
        seen: dict[int, int] = {}
        as_int = lambda xs: np.array(xs, dtype=np.int64)  # noqa: E731
        return {
            "sid": as_int(sid),
            "parent": as_int(parent),
            "start": np.array(start, dtype=np.float64),
            "end": np.array(end, dtype=np.float64),
            # small integer per thread, in order of first appearance
            "thread": as_int([seen.setdefault(t, len(seen)) for t in thread]),
            "cmd": as_int(cmd),
            "name": as_int(name),
            "n": as_int(n),
            "bytes": as_int(nbytes),
        }


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Duration minus the part covered by children on the same thread.

    Spans on one thread nest, so the covered part is the sum of the
    direct children's durations.
    """
    dur = cols["end"] - cols["start"]
    self_t = dur.copy()
    sid, parent, thread = cols["sid"], cols["parent"], cols["thread"]
    order = np.argsort(sid)
    pos = np.minimum(np.searchsorted(sid[order], parent), max(sid.size - 1, 0))
    if sid.size:
        j = order[pos]
        child = (sid[j] == parent) & (thread[j] == thread)
        np.subtract.at(self_t, j[child], dur[child])
    return self_t


def write_trace(path, names: list[str], cols: dict[str, np.ndarray], record: dict) -> None:
    """Store spans as columns, with the span names and the machine record."""
    np.savez_compressed(
        path,
        names=np.array(names),
        record=np.array(json.dumps(record, sort_keys=True)),
        **cols,
    )
