"""Octonion arithmetic over a fixed oriented basis.

The algebra is generated by seven imaginary units ``e1 .. e7`` with
``ei * ei = -1`` and the seven oriented triples

    (1, 2, 4), (1, 3, 5), (2, 3, 6), (1, 7, 6),
    (2, 5, 7), (3, 7, 4), (4, 6, 5)

where each triple ``(a, b, c)`` means ``ea * eb = ec`` cyclically and
products anticommute.  Two independent multiplication routes are
provided: a precomputed 8x8 sign/index table, and Cayley-Dickson
doubling of Hamilton quaternions.  They must agree exactly on all
basis products; tests enforce this.

Cayley-Dickson pairing used by :func:`mul_cayley_dickson`: an octonion
with coordinates ``c0 .. c7`` corresponds to the quaternion pair
``A = (c0, c1, c2, c4)``, ``B = (c3, -c5, -c6, -c7)`` (components in
``1, i, j, k`` order with ``i*j = k``), multiplied by

    (A, B) * (C, D) = (A*C - D*conj(B), conj(A)*D + C*B)

with conjugation ``(conj(A), -B)``.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

# The least normal float64.
_TINY = float(np.finfo(np.float64).tiny)

# Oriented triples (a, b, c): ea*eb = ec, eb*ec = ea, ec*ea = eb.
TRIPLES: tuple[tuple[int, int, int], ...] = (
    (1, 2, 4),
    (1, 3, 5),
    (2, 3, 6),
    (1, 7, 6),
    (2, 5, 7),
    (3, 7, 4),
    (4, 6, 5),
)


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    idx = np.zeros((8, 8), dtype=np.intp)
    sgn = np.zeros((8, 8), dtype=np.float64)
    for j in range(8):
        idx[0, j] = j
        sgn[0, j] = 1.0
        idx[j, 0] = j
        sgn[j, 0] = 1.0
    for i in range(1, 8):
        idx[i, i] = 0
        sgn[i, i] = -1.0
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            idx[x, y] = z
            sgn[x, y] = 1.0
            idx[y, x] = z
            sgn[y, x] = -1.0
    return idx, sgn


MUL_IDX, MUL_SGN = _build_tables()


class Octonion:
    """Immutable octonion with float64 coordinates ``c0 + c1 e1 + ... + c7 e7``."""

    __slots__ = ("_c",)

    def __init__(
        self,
        c0: float = 0.0,
        c1: float = 0.0,
        c2: float = 0.0,
        c3: float = 0.0,
        c4: float = 0.0,
        c5: float = 0.0,
        c6: float = 0.0,
        c7: float = 0.0,
    ) -> None:
        object.__setattr__(
            self,
            "_c",
            (
                float(c0),
                float(c1),
                float(c2),
                float(c3),
                float(c4),
                float(c5),
                float(c6),
                float(c7),
            ),
        )

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        if not 0 <= k <= 7:
            raise DomainError(f"basis index must be in 0..7, got {k}")
        c = [0.0] * 8
        c[k] = 1.0
        return cls(*c)

    @property
    def coords(self) -> tuple[float, ...]:
        return self._c

    @property
    def real(self) -> float:
        return self._c[0]

    def conjugate(self) -> "Octonion":
        c = self._c
        return Octonion(c[0], -c[1], -c[2], -c[3], -c[4], -c[5], -c[6], -c[7])

    def norm_sq(self) -> float:
        # in coordinate order, as norm_sq_many adds a row; the builtin sum
        # compensates a float sum from Python 3.12 on
        s = 0.0
        for x in self._c:
            s += x * x
        return s

    def norm(self) -> float:
        n2 = self.norm_sq()
        if n2 < _TINY or n2 == math.inf:
            # the squares left the normal range; hypot scales them (a
            # NaN makes n2 NaN and takes the square root below)
            return math.hypot(*self._c)
        return n2**0.5

    def inverse(self) -> "Octonion":
        n2 = self.norm_sq()
        if n2 < 1e-300:
            raise DomainError("octonion too close to zero to invert")
        return self.conjugate() * (1.0 / n2)

    def to_array(self) -> np.ndarray:
        return np.array(self._c, dtype=np.float64)

    def __add__(self, other: "Octonion | float") -> "Octonion":
        if isinstance(other, Octonion):
            return Octonion(*(x + y for x, y in zip(self._c, other._c)))
        if isinstance(other, (int, float)):
            c = self._c
            return Octonion(c[0] + other, *c[1:])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "Octonion | float") -> "Octonion":
        if isinstance(other, Octonion):
            return Octonion(*(x - y for x, y in zip(self._c, other._c)))
        if isinstance(other, (int, float)):
            c = self._c
            return Octonion(c[0] - other, *c[1:])
        return NotImplemented

    def __rsub__(self, other: float) -> "Octonion":
        if isinstance(other, (int, float)):
            return (-self) + other
        return NotImplemented

    def __neg__(self) -> "Octonion":
        return Octonion(*(-x for x in self._c))

    def __pos__(self) -> "Octonion":
        return self

    def __mul__(self, other: "Octonion | float") -> "Octonion":
        if isinstance(other, Octonion):
            return mul(self, other)
        if isinstance(other, (int, float)):
            return Octonion(*(x * other for x in self._c))
        return NotImplemented

    def __rmul__(self, other: float) -> "Octonion":
        if isinstance(other, (int, float)):
            return Octonion(*(x * other for x in self._c))
        return NotImplemented

    def __truediv__(self, other: float) -> "Octonion":
        if isinstance(other, (int, float)):
            return Octonion(*(x / other for x in self._c))
        # Octonion division is order-sensitive; spell it out with inverse().
        return NotImplemented

    def __abs__(self) -> float:
        return self.norm()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Octonion):
            return self._c == other._c
        if isinstance(other, (int, float)):
            return self._c == (float(other),) + (0.0,) * 7
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Octonion({', '.join(repr(x) for x in self._c)})"

    def __str__(self) -> str:
        return format_octonion(self)


# A point is an Octonion or a coordinate array; arrays may also hold a batch (..., 8).
PointLike = Union[Octonion, np.ndarray]


def as_coords(z: PointLike) -> np.ndarray:
    """Float64 coordinates (..., 8) of a point or a batch of points."""
    arr = z.to_array() if isinstance(z, Octonion) else np.asarray(z, dtype=np.float64)
    if arr.shape[-1:] != (8,):
        raise DomainError(f"expected coordinates of shape (..., 8), got {arr.shape}")
    return arr


def like(z: PointLike, values: np.ndarray) -> PointLike:
    """``values`` as an Octonion when ``z`` is one, else unchanged."""
    return Octonion(*values) if isinstance(z, Octonion) else values


def mul(a: Octonion, b: Octonion) -> Octonion:
    """Table-driven product."""
    ac = a.coords
    bc = b.coords
    out = [0.0] * 8
    for i in range(8):
        ai = ac[i]
        if ai == 0.0:
            continue
        row_idx = MUL_IDX[i]
        row_sgn = MUL_SGN[i]
        for j in range(8):
            out[row_idx[j]] += row_sgn[j] * ai * bc[j]
    return Octonion(*out)


def _qmul(p: Sequence[float], q: Sequence[float]) -> tuple[float, float, float, float]:
    # Hamilton quaternions, components (1, i, j, k), i*j = k.
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _qconj(p: Sequence[float]) -> tuple[float, float, float, float]:
    return (p[0], -p[1], -p[2], -p[3])


def _to_pair(a: Octonion) -> tuple[tuple[float, ...], tuple[float, ...]]:
    c = a.coords
    return (c[0], c[1], c[2], c[4]), (c[3], -c[5], -c[6], -c[7])


def _from_pair(A: Sequence[float], B: Sequence[float]) -> Octonion:
    return Octonion(A[0], A[1], A[2], B[0], A[3], -B[1], -B[2], -B[3])


def mul_cayley_dickson(a: Octonion, b: Octonion) -> Octonion:
    """Doubled-quaternion product; independent of the table route."""
    A, B = _to_pair(a)
    C, D = _to_pair(b)
    first = tuple(
        x - y for x, y in zip(_qmul(A, C), _qmul(D, _qconj(B)))
    )
    second = tuple(
        x + y for x, y in zip(_qmul(_qconj(A), D), _qmul(C, B))
    )
    return _from_pair(first, second)


def associator(a: Octonion, b: Octonion, c: Octonion) -> Octonion:
    """(a*b)*c - a*(b*c); zero iff the triple associates."""
    return (a * b) * c - a * (b * c)


def commutator(a: Octonion, b: Octonion) -> Octonion:
    return a * b - b * a


# ---------------------------------------------------------------------------
# Text forms


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# One term: an optional sign, then a number with a unit across whitespace
# or '*' (``num``, ``k``), a number alone, or a unit alone (``unit``).
_TERM_RE = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*"
    rf"(?:(?P<num>{_NUMBER})(?:(?:\s*\*\s*|\s+)e(?P<k>[0-7]))?|e(?P<unit>[0-7]))"
)


def parse_octonion(text: str) -> Octonion:
    r"""Parse an octonion literal.

    Accepted forms:
      * a JSON array of exactly 8 numbers: ``[1, 0, 0, 0, 0, 0, 0, 0]``
      * a bare real number: ``1.5`` (so ``3e1`` is the real 30.0)
      * a sum of terms: ``1.5 + 2 e1 - 0.5*e7``.  Each term is a sign
        (optional on the first term only), then a number and a unit
        ``e0``-``e7`` separated by whitespace or ``*``, a number alone
        (a real term) or a unit alone (coefficient 1).  A number is
        ``\d+\.?\d*`` or ``\.\d+`` with an optional ``[eE][+-]?\d+``
        exponent, so ``2 e1`` is a unit term and ``2e1`` the real 20.
        Whitespace may stand around each sign and ``*``.

    A coordinate that is not finite (``nan``, ``inf``, an overflow) is
    rejected in every form.
    """
    value = _parse_literal(text.strip())
    if not all(math.isfinite(c) for c in value.coords):
        raise DomainError(f"octonion literal has a non-finite coordinate: {text!r}")
    return value


def _parse_literal(s: str) -> Octonion:
    if not s:
        raise DomainError("empty octonion literal")
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad octonion array: {exc}") from None
        if (
            not isinstance(data, list)
            or len(data) != 8
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in data)
        ):
            raise DomainError("octonion array must hold exactly 8 numbers")
        return Octonion(*data)
    try:
        return Octonion(float(s))
    except ValueError:
        pass
    return _parse_terms(s)


def _parse_terms(s: str) -> Octonion:
    coords = [0.0] * 8
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or (pos and not m["sign"]):  # every term after the first is signed
            raise DomainError(f"bad octonion literal at position {pos}: {s!r}")
        value = float(m["num"]) if m["num"] else 1.0
        coords[int(m["k"] or m["unit"] or 0)] += -value if m["sign"] == "-" else value
        pos = m.end()
    return Octonion(*coords)


def format_octonion(a: Octonion, precision: int = 12) -> str:
    """Human-readable form, e.g. ``1.5 + 2 e1 - 0.5 e7``."""
    parts: list[str] = []
    c = a.coords
    for k in range(8):
        x = c[k]
        if x == 0.0 and not (k == 0 and not any(c)):
            continue
        mag = f"{abs(x):.{precision}g}"
        unit = "" if k == 0 else f" e{k}"
        if not parts:
            head = "-" if x < 0 else ""
            parts.append(f"{head}{mag}{unit}")
        else:
            op = "-" if x < 0 else "+"
            parts.append(f"{op} {mag}{unit}")
    if not parts:
        return "0"
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Batched coordinate-array operations (shape (..., 8) float64)


def _product_terms() -> tuple[tuple[tuple[int, int, bool], ...], ...]:
    # _TERMS[k] lists, for i = 0..7, the (i, j, negative) with a_i * b_j
    # landing on coordinate k; MUL_IDX[i] is a permutation, so one j per i.
    terms = [[(0, 0, False)] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            terms[MUL_IDX[i, j]][i] = (i, j, bool(MUL_SGN[i, j] < 0.0))
    return tuple(tuple(row) for row in terms)


_TERMS = _product_terms()

# The package's one row block.  mul_many cuts its batches into blocks of
# this many rows, and the MC engine cuts each chunk into blocks of at
# most this many (quadrature._tree_reduce), so each product of an engine
# block is one block here.  The block bounds two costs.  One is the
# working set: a float64 block's (n, 8) arrays take 2 MiB each, below
# numpy's 4 MiB huge-page threshold, and their memory is reused from
# block to block.  The other is the GIL: the term loop makes one ufunc
# call per term and block, and numpy hands the GIL off around each, so
# two threads' small calls queue on it.  Median time per product of
# (32768, 8) float64 coordinate-major operands, on a 2-vCPU Intel Xeon
# KVM guest with 2 MiB of L2 per core, at 8,192 and 32,768 rows per
# block: one thread 3.0 and 3.0 ms, two threads each on its own
# operands 3.7 and 1.8-2.2 ms (wall time over both threads' products).
# A block picked from one-thread timings alone can serialise
# ``--threads 2``; so can an engine block: 1e6-sample reproduce runs at
# 131,072, 32,768 and 8,192 rows per engine block took 0.81, 0.64 and
# 0.60 s (cauchy_ball, one thread) and 0.70, 0.70 and 0.84 s
# (bergman_ball, two threads).  Longdouble products are bound by the
# x87 arithmetic and take about the same time at any block size.
BLOCK_ROWS = 32_768


def _block_plan(ac: np.ndarray, bc: np.ndarray) -> tuple[tuple, bool]:
    # The terms of a block's coordinate-major operands that are not +-0
    # on every element, and whether either operand has a coordinate that
    # is zero on every element.
    ac, bc = ac.reshape(8, -1), bc.reshape(8, -1)
    # a coordinate with a nonzero first element is not zero on every element
    if not ((ac[:, :1] == 0.0).any() or (bc[:, :1] == 0.0).any()):
        return _TERMS, False
    masks = []
    for x in (ac, bc):
        hi = x.max(axis=1, initial=-np.inf)  # max and min keep a NaN
        lo = x.min(axis=1, initial=np.inf)
        masks += [(hi == 0.0) & (lo == 0.0), np.isfinite(hi) & np.isfinite(lo)]
    return _term_plan(np.concatenate(masks).tobytes()), bool(masks[0].any() or masks[2].any())


@functools.lru_cache(maxsize=256)
def _term_plan(masks: bytes) -> tuple[tuple[tuple[int, int, bool], ...], ...]:
    # _TERMS without the terms a_i * b_j that are +-0 on every element:
    # a_i zero and b_j finite, or b_j zero and a_i finite.  ``masks``
    # holds the bytes of a's zero and finite masks, then b's.
    za, fa, zb, fb = (masks[8 * m : 8 * m + 8] for m in range(4))
    return tuple(
        tuple(t for t in terms if not (za[t[0]] and fb[t[1]] or zb[t[1]] and fa[t[0]]))
        for terms in _TERMS
    )


def mul_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise octonion product of (..., 8) coordinate arrays, broadcasting.

    The float dtype is preserved (and promoted across operands; other
    dtypes become float64), so identity checks can run in extended
    precision where the structure constants need to be separated from
    double roundoff.

    Layout and bit-identity contract: the broadcast batch is cut along
    its first axis into blocks of about ``BLOCK_ROWS`` rows, the row
    block the Monte Carlo engine cuts its chunks by, so an engine block's
    product is one block.  The block bounds both the working set of the
    120 passes of the term loop and the number of ufunc calls, around
    each of which numpy hands off the GIL, so the products of two
    threads do not queue on it (the constant records the measurement at
    one and two threads).
    The loop reads each operand in place through its coordinate view
    ``np.moveaxis(x, -1, 0)``, whose eight rows are contiguous for an
    ``f_contiguous`` (n, 8) operand and strided for a row-major one; an
    operand of a lower dtype is cast as the ufuncs read it, which is
    exact.  Each output coordinate ``k`` of the block is one row of the
    result's coordinate view, summing its signed products ``a_i * b_j``
    in the order ``i = 0..7``; the closing ``row += 0.0`` turns a ``-0.0``
    sum into ``+0.0``.

    Zero terms: per block where some coordinate of an operand has a zero
    first element, each operand's per-coordinate ``max`` and ``min``
    (both keep a NaN) mark its coordinates that are zero on every
    element (both 0) and those that are finite on every element.
    A term with ``a_i`` zero and ``b_j`` finite, or ``b_j`` zero and
    ``a_i`` finite, is +-0 on every element and is left out; the
    finiteness keeps the NaN of ``0 * inf``.  Each pattern's plan of
    kept terms is cached.  Leaving out a +-0 term changes a sum only
    where the partial sum is a zero, and then only its sign: ``x +- 0``
    is ``x`` for any other ``x``, and a zero plus a nonzero term is that
    term.  The closing ``row += 0.0`` maps either zero to ``+0.0``, so
    the bits are the same.  The first kept term is the multiply itself,
    written as ``0.0 - t`` when negative (``np.negative`` would flip a
    NaN's sign, the subtraction keeps it as ``row - t`` does); a row with
    no kept term is ``+0.0``.  A coordinate that is zero on every row of
    the batch is zero in block 0, so when block 0 has none in either
    operand the later blocks are not checked; a dense product reads the
    first element of each coordinate of block 0 and nothing more.

    So every element gets the same bits whatever the block size, layout
    and zero pattern, zero signs included, and they match the plain
    row-major table loop.  Only a NaN's sign may differ: the loop adds a
    negated product where this subtracts, and numpy's add of two NaNs
    keeps either one's sign, depending on the shape of a broadcast loop.

    The result is coordinate-major for every input (``order="F"``, each
    coordinate one contiguous row) and owns its data, so numpy can reuse
    it as a temporary.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if b.dtype.kind != "f":
        b = b.astype(np.float64)
    dtype = np.result_type(a, b)
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    batch = shape or (1,)
    # each operand's coordinate view, and whether it spans the batch's
    # first axis (an operand without it, or with it at length 1, broadcasts)
    views = [(np.moveaxis(x, -1, 0), x.ndim == len(batch) + 1 and x.shape[0] != 1) for x in (a, b)]
    step = max(1, BLOCK_ROWS // max(1, math.prod(batch[1:])))
    out = np.empty(shape + (8,), dtype=dtype, order="F")
    rows = np.moveaxis(out.reshape(batch + (8,)), -1, 0)  # a view, with a batch axis to block
    term = np.empty((min(step, batch[0]),) + batch[1:], dtype=dtype)
    check = True
    for lo in range(0, batch[0], step):
        hi = min(lo + step, batch[0])
        ac, bc = (x[:, lo:hi] if spans else x for x, spans in views)
        if check:
            plan, zeros = _block_plan(ac, bc)
            # a coordinate zero on every row of the batch is zero in block 0
            check = lo > 0 or zeros
        block = rows[:, lo:hi]
        tb = term[: hi - lo]
        for k, terms in enumerate(plan):
            row = block[k]
            if not terms:
                row[...] = 0.0
                continue
            # the first kept term; with nothing dropped, the real unit a_0 * b_k
            i, j, negative = terms[0]
            np.multiply(ac[i], bc[j], out=row)
            if negative:
                # not np.negative, which would flip a NaN's sign
                np.subtract(0.0, row, out=row)
            for i, j, negative in terms[1:]:
                np.multiply(ac[i], bc[j], out=tb)
                if negative:
                    np.subtract(row, tb, out=row)
                else:
                    np.add(row, tb, out=row)
            row += 0.0
    return out


def conj_many(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    out = np.array(a, dtype=a.dtype if a.dtype.kind == "f" else np.float64, copy=True)
    out[..., 1:] *= -1.0
    return out


def norm_sq_many(a: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of a (..., k) array: the package's one squared norm.

    Each row's squares are added in coordinate order 0..k-1, whatever the
    operand's layout, dtype or row count, so a row's bits equal
    :meth:`Octonion.norm_sq` and do not depend on the batch it sits in.
    ``einsum`` adds coordinate by coordinate only where each coordinate
    is a contiguous run of at least two rows; a one-row array is both C-
    and F-contiguous and takes its vector kernel, which adds in another
    order.  Every other operand accumulates over the coordinate view.
    """
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if a.ndim == 2 and len(a) > 1 and a.strides[0] == a.itemsize:
        return np.einsum("ij,ij->i", a, a)
    cols = np.moveaxis(a, -1, 0)
    out = cols[0] * cols[0]
    for col in cols[1:]:
        out += col * col
    return out


def norm_many(a: np.ndarray) -> np.ndarray:
    return np.sqrt(norm_sq_many(a))


def divide_by_power(num, n2: np.ndarray, k: int) -> np.ndarray:
    """``num / n2**k`` as ``k`` divisions by ``n2``: finite and nonzero
    where ``n2**k`` overflows but the quotient is in the float range.

    The kernels divide by the power itself, one rounding fewer, and take
    this form only on the rows where that power reads inf.
    """
    for _ in range(k):
        num = num / n2
    return num
