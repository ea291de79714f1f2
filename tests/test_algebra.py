import numpy as np
import pytest
from hypothesis import given

from conftest import octonions, random_octonions
from oracles import MUL_TABLE, mul_many_reference
from octomono import algebra
from octomono.algebra import (
    Octonion,
    associator,
    commutator,
    conj,
    conj_many,
    dot,
    format_octonion,
    inverse,
    mul,
    mul_cayley_dickson,
    mul_many,
    norm_many,
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
        gap = (mul(conj(x), mul(x, y)) - y * x.norm_sq()).norm()
        assert gap <= 1e-11 * scale

    @given(octonions(), octonions())
    def test_conjugation_antiautomorphism(self, x, y):
        gap = (conj(mul(x, y)) - mul(conj(y), conj(x))).norm()
        assert gap <= 1e-11 * max(x.norm() * y.norm(), 1.0)

    @given(octonions())
    def test_x_times_conj_is_real(self, x):
        sq = mul(x, conj(x))
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
        gap = (mul(x, inverse(x)) - Octonion(1.0)).norm()
        assert gap <= 1e-10 / min(x.norm(), 1.0)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(DomainError):
            inverse(Octonion())

    @given(octonions(), octonions())
    def test_dot_polarization(self, x, y):
        direct = dot(x, y)
        polar = 0.25 * ((x + y).norm_sq() - (x - y).norm_sq())
        assert abs(direct - polar) <= 1e-9 * max(x.norm() * y.norm(), 1.0)


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


class TestMulManyBitIdentity:
    """mul_many against the original row-major loop in oracles.py."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32])
    def test_batches(self, rng, dtype):
        a = rng.uniform(-5, 5, (300, 8)).astype(dtype)
        b = rng.uniform(-5, 5, (300, 8)).astype(dtype)
        got = mul_many(a, b)
        assert got.dtype == dtype and got.flags.c_contiguous
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


B = algebra._BLOCK_ROWS


class TestMulManyAcrossBlocks:
    """mul_many against the row-major loop where the batch spans several blocks."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_row_counts_around_the_block(self, rng, n):
        a = rng.uniform(-5, 5, (n, 8))
        b = rng.uniform(-5, 5, (n, 8))
        got = mul_many(a, b)
        # an array that owns its data, so numpy can reuse it as a temporary
        assert got.flags.c_contiguous and got.flags.owndata
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
        assert got.flags.c_contiguous
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
            monkeypatch.setattr(algebra, "_BLOCK_ROWS", 4 * B)
            whole = mul_many(a, b)
        # blocks change no bit, a NaN's sign included
        assert_same_bits(got, whole)
        # the reference adds a negated product where mul_many subtracts,
        # which can give a NaN the other sign; every other bit agrees
        assert np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(got)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))
        assert np.isnan(got[B - 1 : B + 1]).any()
        assert not np.signbit(got[B + 1]).any()


class TestMulManyLayout:
    """The result's layout follows the operands', like numpy's order="K"."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_coordinate_major_operands_give_a_coordinate_major_result(self, rng, n):
        a = np.asfortranarray(rng.uniform(-5, 5, (n, 8)))
        b = np.asfortranarray(rng.uniform(-5, 5, (n, 8)))
        got = mul_many(a, b)
        # written in place through its coordinate rows, and still an
        # array that owns its data, so numpy can reuse it as a temporary
        assert got.flags.f_contiguous and not got.flags.c_contiguous and got.flags.owndata
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize("row_first", [True, False])
    def test_a_broadcast_row_keeps_the_layout(self, rng, row_first):
        rows = np.asfortranarray(rng.standard_normal((2 * B + 1, 8)))
        row = rng.standard_normal(8)
        a, b = (row, rows) if row_first else (rows, row)
        got = mul_many(a, b)
        assert got.flags.f_contiguous and got.flags.owndata
        assert_same_bits(got, mul_many_reference(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [
            ("C", "C"),
            ("F", "C"),
            ("C", "F"),
            ("F rank 3", "F rank 3"),
            ("longdouble C", "F"),
        ],
    )
    def test_other_inputs_give_a_row_major_result(self, rng, a, b):
        def operand(kind):
            x = rng.standard_normal((2 * B + 1, 8))
            if "rank 3" in kind:
                x = rng.standard_normal((B + 1, 2, 8))
            if "longdouble" in kind:
                x = x.astype(np.longdouble)
            return np.asfortranarray(x) if kind.startswith("F") else x

        x, y = operand(a), operand(b)
        got = mul_many(x, y)
        assert got.flags.c_contiguous and got.flags.owndata
        assert_same_bits(got, mul_many_reference(x, y))

    def test_coordinate_major_product_moves_no_operand(self, rng, monkeypatch):
        a = np.asfortranarray(rng.standard_normal((2 * B + 1, 8)))
        b = np.asfortranarray(rng.standard_normal((2 * B + 1, 8)))

        def refuse(*args):
            raise AssertionError("a coordinate-major operand was moved")

        monkeypatch.setattr(algebra, "_coordinate_major", refuse)
        got = mul_many(a, b)
        monkeypatch.undo()
        assert_same_bits(got, mul_many_reference(a, b))


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

    @given(octonions())
    def test_format_parse_roundtrip(self, x):
        text = format_octonion(x, precision=17)
        back = parse_octonion(text)
        assert (back - x).norm() <= 1e-13 * max(x.norm(), 1.0)
