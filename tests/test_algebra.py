import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import octonions, random_octonions
from oracles import (
    MUL_TABLE,
    algebra_suite_reference,
    mul_many_reference,
    norm_sq_reference,
    parse_octonion_reference,
)
from octomono import algebra, quadrature, suites
from octomono.algebra import (
    Octonion,
    associator,
    commutator,
    conj_many,
    format_octonion,
    mul,
    mul_cayley_dickson,
    mul_many,
    norm_many,
    norm_sq_many,
    parse_octonion,
)
from octomono.errors import DomainError


class TestMultiplicationTable:
    def test_every_imaginary_product_matches_transcribed_table(self):
        for (i, j), (sign, k) in MUL_TABLE.items():
            got = mul(Octonion.basis(i), Octonion.basis(j))
            want = Octonion.basis(k) * float(sign)
            assert got == want, f"e{i}*e{j}: got {got}, want {want}"

    def test_identity_rows(self):
        e0 = Octonion.basis(0)
        for k in range(8):
            ek = Octonion.basis(k)
            assert mul(e0, ek) == ek
            assert mul(ek, e0) == ek

    def test_all_64_products_match_doubling_construction(self):
        worst = 0.0
        for i in range(8):
            for j in range(8):
                a, b = Octonion.basis(i), Octonion.basis(j)
                gap = (mul(a, b) - mul_cayley_dickson(a, b)).to_array()
                worst = max(worst, float(np.abs(gap).max()))
        assert worst == 0.0

    def test_random_products_match_doubling_construction(self, rng):
        for _ in range(200):
            a = Octonion(*rng.uniform(-10, 10, 8))
            b = Octonion(*rng.uniform(-10, 10, 8))
            gap = (mul(a, b) - mul_cayley_dickson(a, b)).to_array()
            assert np.abs(gap).max() <= 1e-14 * max(a.norm() * b.norm(), 1.0)

    def test_triple_commutator_value(self):
        # [e1, e2] with e3 composed: commutator of e1 and e2 is 2e4,
        # and the canonical three-unit bracket lands on 2e7
        c = commutator(Octonion.basis(1), Octonion.basis(2))
        assert c == Octonion.basis(4) * 2.0
        a = associator(Octonion.basis(1), Octonion.basis(2), Octonion.basis(3))
        assert a == Octonion.basis(7) * 2.0


class TestAlgebraIdentities:
    @given(octonions(), octonions())
    def test_norm_composition(self, x, y):
        lhs = mul(x, y).norm()
        rhs = x.norm() * y.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)

    @given(octonions(), octonions())
    def test_alternativity(self, x, y):
        scale = max(x.norm() ** 2 * y.norm(), 1.0)
        left = (mul(x, mul(x, y)) - mul(mul(x, x), y)).norm()
        right = (mul(mul(y, x), x) - mul(y, mul(x, x))).norm()
        assert left <= 1e-11 * scale
        assert right <= 1e-11 * scale

    @given(octonions(), octonions())
    def test_flexibility(self, x, y):
        scale = max(x.norm() ** 2 * y.norm(), 1.0)
        gap = (mul(x, mul(y, x)) - mul(mul(x, y), x)).norm()
        assert gap <= 1e-11 * scale

    @given(octonions(), octonions(), octonions())
    def test_moufang(self, x, y, z):
        scale = max(x.norm() ** 2 * y.norm() * z.norm(), 1.0)
        gap = (mul(mul(x, y), mul(z, x)) - mul(mul(x, mul(y, z)), x)).norm()
        assert gap <= 1e-11 * scale

    @given(octonions(), octonions())
    def test_conjugate_cancel(self, x, y):
        scale = max(x.norm() ** 2 * y.norm(), 1.0)
        gap = (mul(x.conjugate(), mul(x, y)) - y * x.norm_sq()).norm()
        assert gap <= 1e-11 * scale

    @given(octonions(), octonions())
    def test_conjugation_antiautomorphism(self, x, y):
        gap = (mul(x, y).conjugate() - mul(y.conjugate(), x.conjugate())).norm()
        assert gap <= 1e-11 * max(x.norm() * y.norm(), 1.0)

    @given(octonions())
    def test_x_times_conj_is_real(self, x):
        sq = mul(x, x.conjugate())
        assert np.abs(np.array(sq.coords[1:])).max() <= 1e-11 * max(x.norm_sq(), 1.0)
        assert abs(sq.real - x.norm_sq()) <= 1e-11 * max(x.norm_sq(), 1.0)

    @given(octonions(), octonions(), octonions())
    def test_associator_alternates(self, x, y, z):
        scale = max(x.norm() * y.norm() * z.norm(), 1.0)
        a = associator(x, y, z)
        assert (a + associator(y, x, z)).norm() <= 1e-11 * scale
        assert (a + associator(x, z, y)).norm() <= 1e-11 * scale

    @given(octonions(min_norm=1e-3))
    def test_inverse(self, x):
        gap = (mul(x, x.inverse()) - Octonion(1.0)).norm()
        assert gap <= 1e-10 / min(x.norm(), 1.0)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(DomainError):
            Octonion().inverse()


class TestBatchHelpers:
    def test_mul_many_matches_scalar_mul(self, rng):
        a = rng.uniform(-5, 5, (64, 8))
        b = rng.uniform(-5, 5, (64, 8))
        batch = mul_many(a, b)
        for i in range(64):
            single = mul(Octonion(*a[i]), Octonion(*b[i])).to_array()
            assert np.array_equal(batch[i], single)

    def test_conj_and_norm_many(self, rng):
        a = rng.uniform(-5, 5, (32, 8))
        assert np.array_equal(conj_many(a)[:, 0], a[:, 0])
        assert np.array_equal(conj_many(a)[:, 1:], -a[:, 1:])
        assert np.allclose(norm_many(a), np.linalg.norm(a, axis=1), rtol=1e-15)

    def test_random_octonions_deterministic(self):
        a = random_octonions(np.random.default_rng(5), 16)
        b = random_octonions(np.random.default_rng(5), 16)
        assert np.array_equal(a, b)


def assert_same_bits(got, want):
    """Equal values, NaNs and zero signs; raw bits where the format has no padding."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    if got.dtype.itemsize in (4, 8) and got.dtype != np.longdouble:
        uint = np.dtype(f"u{got.dtype.itemsize}")
        assert np.array_equal(got.view(uint), want.view(uint))


def assert_coordinate_major(got):
    """Each coordinate is one contiguous row, in an array that owns its
    data, so numpy can reuse it as a temporary."""
    assert got.flags.f_contiguous and got.flags.owndata


def assert_same_bits_but_nan_sign(got, want):
    """assert_same_bits, except that a NaN may have either sign.

    The reference adds a negated product where mul_many subtracts, which
    can give a NaN the other sign; every other bit agrees.
    """
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(got)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


class TestMulManyBitIdentity:
    """mul_many against the original row-major loop in oracles.py."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32])
    def test_batches(self, rng, dtype):
        a = rng.uniform(-5, 5, (300, 8)).astype(dtype)
        b = rng.uniform(-5, 5, (300, 8)).astype(dtype)
        got = mul_many(a, b)
        assert got.dtype == dtype
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((8,), (40, 8)), ((40, 8), (8,)), ((6, 1, 8), (5, 8)), ((8,), (8,)), ((2, 3, 8), (3, 8))],
    )
    def test_broadcast_shapes(self, rng, dtype, a_shape, b_shape):
        a = rng.standard_normal(a_shape).astype(dtype)
        b = rng.standard_normal(b_shape).astype(dtype)
        assert_same_bits(mul_many(a, b), mul_many_reference(a, b))

    def test_non_contiguous_views(self, rng):
        a = rng.standard_normal((60, 8))
        b = rng.standard_normal((120, 8))
        cases = [
            (a[::-1], b[::2]),
            (a[:, ::-1][:, ::-1], np.asfortranarray(b[:60])),
            (b[1::2, :], a),
            (a[7], b[::-3][:40]),
        ]
        for x, y in cases:
            assert_same_bits(mul_many(x, y), mul_many_reference(x, y))

    def test_integer_inputs_promote_to_float64(self, rng):
        a = rng.integers(-4, 5, (30, 8))
        b = rng.integers(-4, 5, (30, 8))
        got = mul_many(a, b)
        assert got.dtype == np.float64
        assert_same_bits(got, mul_many_reference(a, b))
        assert_same_bits(mul_many(a, b.astype(np.float32)), mul_many_reference(a, b.astype(np.float32)))

    def test_signed_zeros(self, rng):
        a = rng.choice([0.0, -0.0, 1.5, -2.0], size=(400, 8))
        b = rng.choice([0.0, -0.0, 3.0, -0.5], size=(400, 8))
        assert_same_bits(mul_many(a, b), mul_many_reference(a, b))
        zeros = np.zeros(8)
        assert_same_bits(mul_many(-zeros, -zeros), mul_many_reference(-zeros, -zeros))
        assert not np.signbit(mul_many(-zeros, zeros)).any()

    def test_basis_by_rows(self, rng):
        rows = rng.choice([0.0, -0.0, 1.0, -3.0], size=(8, 8))
        eye = np.eye(8)
        assert_same_bits(mul_many(eye, rows), mul_many_reference(eye, rows))
        assert_same_bits(mul_many(rows, eye), mul_many_reference(rows, eye))


B = algebra.BLOCK_ROWS


class TestMulManyAcrossBlocks:
    """mul_many against the row-major loop where the batch spans several blocks."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_row_counts_around_the_block(self, rng, n):
        a = rng.uniform(-5, 5, (n, 8))
        b = rng.uniform(-5, 5, (n, 8))
        got = mul_many(a, b)
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize("dtype", [np.longdouble, np.float32])
    def test_other_dtypes(self, rng, dtype):
        a = rng.uniform(-5, 5, (2 * B + 1, 8)).astype(dtype)
        b = rng.uniform(-5, 5, (2 * B + 1, 8)).astype(dtype)
        got = mul_many(a, b)
        assert got.dtype == dtype
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((8,), (2 * B + 3, 8)),
            ((2 * B + 3, 8), (8,)),
            ((1, 8), (B + 1, 8)),
            ((B // 16 + 3, 1, 8), (40, 8)),  # more rows than a block, 40 per leading row
            ((3, 1, 8), (B + 5, 8)),  # one leading row is already more than a block
            ((2, B + 1, 8), (8,)),
        ],
    )
    def test_broadcast_shapes(self, rng, a_shape, b_shape):
        a = rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape)
        got = mul_many(a, b)
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(a, b))

    def test_non_contiguous_views(self, rng):
        a = rng.standard_normal((2 * B + 7, 8))
        b = rng.standard_normal((4 * B + 14, 8))
        cases = [
            (a[::-1], b[::2]),
            (np.asfortranarray(a), b[1::2]),
            (a[:, ::-1][:, ::-1], b[: 2 * B + 7].T.copy().T),
            (a[3], b[::-3]),
            (
                b[: 4 * (B + 3) : 2].reshape(B + 3, 2, 8)[:, ::-1],
                a[: 2 * (B + 3)].reshape(B + 3, 2, 8),
            ),
        ]
        for x, y in cases:
            assert_same_bits(mul_many(x, y), mul_many_reference(x, y))

    def test_special_values_on_block_edges(self, rng, monkeypatch):
        n = 2 * B + 1
        a = rng.uniform(-5, 5, (n, 8))
        b = rng.uniform(-5, 5, (n, 8))
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        for edge in (B - 1, B, 2 * B - 1, 2 * B):
            a[edge] = rng.choice(specials, 8)
            b[edge] = rng.choice(specials, 8)
        a[B + 1] = -0.0  # a zero row times anything finite is +0.0
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
            got = mul_many(a, b)
            want = mul_many_reference(a, b)
            monkeypatch.setattr(algebra, "BLOCK_ROWS", 4 * B)
            whole = mul_many(a, b)
        # blocks change no bit, a NaN's sign included
        assert_same_bits(got, whole)
        assert_same_bits_but_nan_sign(got, want)
        assert np.isnan(got[B - 1 : B + 1]).any()
        assert not np.signbit(got[B + 1]).any()

    def test_an_engine_block_is_one_block(self, rng, term_counts):
        # a sparse operand makes mul_many plan each of its blocks, so the
        # plans count the blocks; the engine cuts its chunks by the same rows
        assert quadrature.BLOCK_ROWS == B
        a = rng.uniform(-5, 5, (2 * B + 1, 8))
        b = np.zeros((2 * B + 1, 8))
        b[:, 0] = rng.uniform(-5, 5, 2 * B + 1)
        for n, blocks in [(B, 1), (B + 1, 2), (2 * B + 1, 3)]:
            term_counts.clear()
            assert_same_bits(mul_many(a[:n], b[:n]), mul_many_reference(a[:n], b[:n]))
            assert term_counts == [8] * blocks


class TestMulManyLayout:
    """Every operand is read in place, and the result is coordinate-major."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_coordinate_major_operands_give_a_coordinate_major_result(self, rng, n):
        a = np.asfortranarray(rng.uniform(-5, 5, (n, 8)))
        b = np.asfortranarray(rng.uniform(-5, 5, (n, 8)))
        got = mul_many(a, b)
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize("row_first", [True, False])
    def test_a_broadcast_row_keeps_the_layout(self, rng, row_first):
        rows = np.asfortranarray(rng.standard_normal((2 * B + 1, 8)))
        row = rng.standard_normal(8)
        a, b = (row, rows) if row_first else (rows, row)
        got = mul_many(a, b)
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [
            ("C", "C"),
            ("F", "C"),
            ("C", "F"),
            ("F rank 3", "F rank 3"),
            ("C rank 3", "point"),
            ("longdouble C", "F"),
            ("float32 C", "F"),
            ("point", "point"),
        ],
    )
    def test_every_input_gives_a_coordinate_major_result(self, rng, a, b):
        def operand(kind):
            x = rng.standard_normal((2 * B + 1, 8))
            if "rank 3" in kind:
                x = rng.standard_normal((B + 1, 2, 8))
            if kind == "point":
                x = rng.standard_normal(8)
            if "longdouble" in kind:
                x = x.astype(np.longdouble)
            if "float32" in kind:
                x = x.astype(np.float32)
            return np.asfortranarray(x) if kind.startswith("F") else x

        x, y = operand(a), operand(b)
        got = mul_many(x, y)
        assert_coordinate_major(got)
        assert_same_bits(got, mul_many_reference(x, y))

    @pytest.mark.parametrize("layout", ["row-major", "coordinate-major", "broadcast row"])
    def test_operands_are_read_in_place(self, rng, layout):
        # the peak is the result and one block's term buffer: no operand
        # is moved or copied, and the result is not transposed at the end
        n = 2 * B + 1
        a = rng.standard_normal((n, 8))
        b = rng.standard_normal((n, 8))
        if layout == "coordinate-major":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        elif layout == "broadcast row":
            a = rng.standard_normal(8)
        mul_many(a, b)  # the plan cache and numpy's first-call state
        tracemalloc.start()
        try:
            got = mul_many(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + B * got.itemsize + 16 * 1024
        assert_same_bits(got, mul_many_reference(a, b))


class TestNormLayout:
    """norm_sq_many adds each row's squares in coordinate order 0..k-1: by
    einsum on coordinate-major blocks of two or more rows, by accumulation
    over the coordinate view elsewhere, with the same bits either way."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 32_768])
    def test_norm_many_does_not_depend_on_layout(self, rng, dtype, n):
        # magnitudes from 1e-8 to 1e8, so that any other order of the
        # additions shows in the last bits
        x = rng.uniform(-1.0, 1.0, (n, 8)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 8))
        x = x.astype(dtype)
        f = np.asfortranarray(x)
        m = -(-n // 16)  # stencil points: 16 rows each, about n rows in all
        steps = 1e-5 * np.eye(8, dtype=dtype)
        layouts = {
            "C": x,
            "F": f,
            "F row slice": np.asfortranarray(np.vstack([x, x]))[::2],
            "C row stride 16": np.hstack([x, x])[:, :8],
            "7-column slice": f[:, 1:],
            "stencil": np.stack((x[:m, None, :] + steps, x[:m, None, :] - steps)),
        }
        for y in layouts.values():
            got = norm_sq_many(y)
            assert_same_bits(got, norm_sq_reference(y))
            if dtype == np.float64 and y.shape[-1] == 8:
                rows = y.reshape(-1, 8)
                scalar = np.array([Octonion(*row).norm_sq() for row in rows])
                assert_same_bits(got.reshape(-1), scalar)


class TestOctonionNorm:
    """Octonion.norm scales by hypot only where the squares leave the
    normal range, and keeps the bits of the square root elsewhere."""

    @pytest.mark.parametrize(
        "x, want",
        [
            (Octonion(3e-200, 0.0, 4e-200), 5e-200),  # the squares underflow to 0
            (Octonion(3e-160, 0.0, 4e-160), 5e-160),  # the squares are subnormal
            (Octonion(0.0, 5e-324), 5e-324),
            (Octonion(3e160, 0.0, 4e160), 5e160),  # the squares overflow
            (Octonion(3e300, 0.0, 4e300), 5e300),
        ],
    )
    def test_norm_out_of_the_normal_squares(self, x, want):
        assert x.norm() == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_keeps_the_square_root_bits_in_the_normal_range(self, rng):
        x = rng.uniform(-1.0, 1.0, (200, 8)) * 10.0 ** rng.uniform(-150.0, 150.0, (200, 1))
        got = np.array([Octonion(*row).norm() for row in x])
        want = np.array([Octonion(*row).norm_sq() ** 0.5 for row in x])
        assert_same_bits(got, want)

    def test_non_finite_coordinates(self):
        assert math.isnan(Octonion(math.nan).norm())
        assert math.isnan(Octonion(math.nan, math.inf).norm())
        assert Octonion(1.0, -math.inf).norm() == math.inf
        assert Octonion().norm() == 0.0


# a small block, so that every example spans several
SMALL_B = 16


@st.composite
def sparse_operands(draw):
    """Two operands with whole-zero coordinates (+0.0, -0.0 or mixed), in
    every block or in some, and NaN and +-inf among the other entries."""
    dtype = draw(st.sampled_from([np.float64, np.longdouble, np.float32]))
    n = draw(st.sampled_from([1, SMALL_B - 1, SMALL_B, SMALL_B + 1, 2 * SMALL_B + 1]))
    r = draw(st.integers(1, 3))
    shapes = draw(
        st.sampled_from(
            [
                ((n, 8), (n, 8)),
                ((8,), (n, 8)),
                ((n, 8), (8,)),
                ((n, r, 8), (n, r, 8)),
                ((n, 1, 8), (r, 8)),
                ((r, 8), (n, 1, 8)),
            ]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operands = []
    for shape in shapes:
        x = rng.uniform(-5.0, 5.0, shape)
        rows = x.reshape(shape[0], -1, 8) if len(shape) > 1 else x.reshape(1, 1, 8)
        every = draw(st.integers(0, 255))  # zero coordinates of every row
        for lo in range(0, len(rows), SMALL_B):
            zero = every | draw(st.sampled_from([0, draw(st.integers(0, 255))]))
            for c in range(8):
                if zero >> c & 1:
                    seg = rows[lo : lo + SMALL_B, :, c]
                    seg[...] = rng.choice([[0.0], [-0.0], [0.0, -0.0]][rng.integers(3)], seg.shape)
        for _ in range(draw(st.integers(0, 3))):
            x.reshape(-1)[rng.integers(x.size)] = rng.choice([np.nan, np.inf, -np.inf])
        if len(shape) == 2 and draw(st.booleans()):
            x = np.asfortranarray(x)  # coordinate-major, read in place
        operands.append(x.astype(dtype, order="K"))
    return operands


class TestMulManyDropsZeroTerms:
    """mul_many leaves out the terms that are +-0 on every element of a block."""

    @given(sparse_operands())
    def test_same_bits_as_the_reference_loop(self, operands):
        a, b = operands
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
            want = mul_many_reference(a, b)
            with mock.patch.object(algebra, "BLOCK_ROWS", SMALL_B):
                got = mul_many(a, b)
            with mock.patch.object(algebra, "BLOCK_ROWS", 64 * SMALL_B):
                whole = mul_many(a, b)
        if max(a.ndim, b.ndim) == 2:
            # blocks change no bit, a NaN's sign included
            assert_same_bits(got, whole)
        else:
            # numpy's add of two NaNs keeps either one's sign, depending on
            # the shape of the broadcast loop, and a block changes that shape
            assert_same_bits_but_nan_sign(got, whole)
        assert_same_bits_but_nan_sign(got, want)

    def test_kept_terms(self, rng, term_counts):
        dense = np.asfortranarray(rng.standard_normal((2 * B + 1, 8)))
        constant = np.zeros_like(dense)
        constant[:, 0] = 1.0
        linear = np.zeros_like(dense)
        linear[:, 0], linear[:, 4] = dense[:, 1], -dense[:, 2]
        real_row = np.array([2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        cases = [
            (dense, constant, [8, 8, 8]),  # one plan per block
            (linear, dense, [16, 16, 16]),
            (real_row, dense, [8, 8, 8]),
            # no zero coordinate in block 0: later blocks are not checked
            (dense, dense, [64]),
        ]
        for a, b, kept in cases:
            term_counts.clear()
            got = mul_many(a, b)
            assert term_counts == kept
            assert_same_bits(got, mul_many_reference(a, b))


BLOCK = suites.ALGEBRA_BLOCK_ROWS
IDENTITIES = (
    "norm_composition_rel",
    "alternativity",
    "flexibility",
    "moufang",
    "conjugate_cancel",
    "conjugation_antiautomorphism",
    "scalar_real",
    "associator_alternation",
)


class TestAlgebraSuite:
    """The suite makes each distinct product once per block of trials and
    keeps the rows of its one-batch, 26-product first formulation."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 10_000])
    def test_rows_equal_the_one_batch_formulation(self, trials, seed):
        got = suites.algebra(trials, seed)
        want = algebra_suite_reference(trials, seed)
        for g, w in zip(got, want):
            assert g.residual.hex() == w.residual.hex(), g.name
        assert got == want

    @pytest.mark.parametrize("trials", [1, BLOCK, BLOCK + 1, 10_000])
    def test_21_products_per_block(self, trials):
        calls = []

        def counted(a, b):
            calls.append(len(a))
            return mul_many(a, b)

        with mock.patch.object(suites, "mul_many", counted):
            suites.algebra(trials, seed=42)
        blocks = math.ceil(trials / BLOCK)
        assert len(calls) == 21 * blocks
        assert sum(calls) == 21 * trials

    @pytest.mark.parametrize(
        "operand,unreached",
        [
            ("x", set()),
            ("y", {"scalar_real"}),
            ("z", set(IDENTITIES) - {"moufang", "associator_alternation"}),
        ],
    )
    def test_a_nan_in_a_later_block_fails_every_identity_it_reaches(self, operand, unreached):
        # the builtin max drops a NaN in its second argument, so combining
        # the blocks with it would lose a NaN from any block after the first
        rng = np.random.default_rng(3)
        ops = dict(zip("xyz", (rng.uniform(-10.0, 10.0, (2 * BLOCK + 3, 8)) for _ in range(3))))
        ops[operand][BLOCK + 5, 3] = np.nan
        worst = suites.identity_residuals(ops["x"], ops["y"], ops["z"])
        assert tuple(worst) == IDENTITIES
        for name, residual in worst.items():
            row = suites.Row(name, residual, 0.0, residual, 1e-11)
            assert row.passed is (name in unreached), name
            assert math.isnan(residual) is (name not in unreached), name

    def test_worst_keeps_a_nan_in_any_argument(self):
        one, nan = np.array([1.0]), np.array([np.nan])
        assert math.isnan(suites._worst(one, nan))
        assert math.isnan(suites._worst(nan, one))


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1.5", Octonion(1.5)),
            ("-2", Octonion(-2.0)),
            ("3e1", Octonion(30.0)),  # plain float wins over unit shorthand
            ("[1,2,3,4,5,6,7,8]", Octonion(1, 2, 3, 4, 5, 6, 7, 8)),
            ("1 + 2 e1", Octonion(1, 2)),
            ("2 e1 - 0.5 e7", Octonion(0, 2, 0, 0, 0, 0, 0, -0.5)),
            ("-e3", Octonion(0, 0, 0, -1)),
            ("1.5 + 2*e2", Octonion(1.5, 0, 2)),
        ],
    )
    def test_literals(self, text, want):
        assert parse_octonion(text) == want

    @pytest.mark.parametrize(
        "text", ["[1,2]", "[1,2,3,4,5,6,7,true]", "e8", "1 +", "2 2 e1", ""]
    )
    def test_bad_literals_raise(self, text):
        with pytest.raises(DomainError):
            parse_octonion(text)

    # the literal alphabet, with e8 and the non-finite words
    TOKENS = [*"0123456789.eE+-*", " ", "\t", *(f"e{k}" for k in range(9)), "nan", "inf", "[", "]"]

    @settings(max_examples=1000, derandomize=True)
    @given(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))
    def test_term_grammar_agrees_with_the_hand_scanner(self, text):
        def outcome(parse):
            try:
                return repr(parse(text).coords)
            except DomainError:
                return "DomainError"

        assert outcome(parse_octonion) == outcome(parse_octonion_reference)

    @given(octonions())
    def test_format_parse_roundtrip(self, x):
        text = format_octonion(x, precision=17)
        back = parse_octonion(text)
        assert (back - x).norm() <= 1e-13 * max(x.norm(), 1.0)
