import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import octonions
from oracles import (
    bergman_half_space_values,
    bergman_strip_reference,
    bergman_strip_values_reference,
    bergman_unit_ball_potential_residual_reference,
    brute_deriv_sum,
    brute_lattice_sum,
    lambda_sum,
    poisson_lattice_sum,
    szego_strip_reference,
    norm_sq_reference,
    szego_strip_values_reference,
)
from octomono.algebra import Octonion, mul
from octomono.errors import DomainError, SingularityError
from octomono.kernels import (
    StripDomain,
    _ball_argument,
    bergman_half_space,
    bergman_strip,
    bergman_strip_values,
    bergman_unit_ball,
    bergman_ball_values,
    strip_relation_residual,
    szego_ball_values,
    szego_half_space,
    szego_strip,
    szego_strip_values,
    szego_unit_ball,
)
from octomono.regularity import central_difference, q0_many
from octomono.trig_series import (
    _BLOCK_ROWS,
    TruncationPolicy,
    csc,
    periodized_deriv_sum,
    periodized_sum,
)

TIGHT = TruncationPolicy(tail_tol=1e-14)


def _arr(x):
    return x.to_array() if isinstance(x, Octonion) else np.asarray(x)


def _strip_pair(rng, d):
    # interior points with combined argument well off the walls
    z = np.zeros(8)
    w = np.zeros(8)
    z[0] = rng.uniform(0.15 * d, 0.85 * d)
    w[0] = rng.uniform(0.15 * d, 0.85 * d)
    z[1:] = rng.normal(size=7) * 0.3 * d
    w[1:] = rng.normal(size=7) * 0.3 * d
    return Octonion(*z), Octonion(*w)


class TestFrozenBallValues:
    def test_szego_at_half_half(self):
        got = szego_unit_ball(Octonion(0.5), Octonion(0.5))
        assert (got - Octonion(0.75**-7)).norm() < 1e-12
        assert abs(got.real - 7.491540923639689) < 1e-12
        # 1 - conj(z) w: the zero imaginary parts are +0.0, as in 0.0 - 0.0
        assert not np.signbit(got.to_array()).any()

    def test_bergman_at_half_half(self):
        got = bergman_unit_ball(Octonion(0.5), Octonion(0.5))
        # (6(1 - 1/16) + 2(3/4)) * (3/4)^-9 = 7.125 * (3/4)^-9
        assert abs(got.real - 7.125 * 0.75**-9) < 1e-11
        assert abs(got.real - 94.89285169943605) < 1e-10
        assert np.abs(got.to_array()[1:]).max() == 0.0

    def test_szego_is_normalized_combined_product(self, rng):
        # S(z, w) = u / |u|^8 with u = 1 - conj(z) w; the numerator is u
        # itself, the conjugation already being absorbed into u's shape
        for _ in range(20):
            z = Octonion(*rng.uniform(-0.5, 0.5, 8))
            w = Octonion(*rng.uniform(-0.5, 0.5, 8))
            u = Octonion(1.0) - mul(z.conjugate(), w)
            want = u.to_array() / u.norm() ** 8
            got = szego_unit_ball(z, w).to_array()
            assert np.abs(got - want).max() < 1e-12


class TestFrozenFlatValues:
    def test_half_space_szego_at_one_one(self):
        got = szego_half_space(Octonion(1.0), Octonion(1.0))
        assert (got - Octonion(1.0 / 128.0)).norm() < 1e-15

    def test_half_space_bergman_at_one_one(self):
        got = bergman_half_space(Octonion(1.0), Octonion(1.0))
        assert (got - Octonion(7.0 / 128.0)).norm() < 1e-15

    def test_half_space_szego_off_axis(self):
        # u = 1 + conj(1 + e1) = 2 - e1, so the kernel is (2 + e1)/625
        got = szego_half_space(Octonion(1.0), Octonion(1.0, 1.0))
        want = Octonion(2.0 / 625.0, 1.0 / 625.0)
        assert (got - want).norm() < 1e-15

    def test_strip_szego_at_half_half(self):
        got = szego_strip(Octonion(0.5), Octonion(0.5), StripDomain(1.0), TIGHT)
        want = 61.0 * math.pi**7 / 92160.0
        assert abs(got.value.real - want) <= got.tail_bound + 1e-13
        assert abs(got.value.real - 1.9991090157810752) < 1e-11

    def test_strip_bergman_at_half_half(self):
        got = bergman_strip(Octonion(0.5), Octonion(0.5), StripDomain(1.0), TIGHT)
        want = 28.0 * lambda_sum(8.0, terms=2000)
        assert abs(got.value.real - want) <= got.tail_bound + 1e-12
        assert abs(got.value.real - 28.004345012707246) < 1e-10

    def test_strip_series_matches_brute_lattice(self, rng):
        d = 0.75
        z, w = _strip_pair(rng, d)
        u = (z + w.conjugate()).to_array()
        got = szego_strip(z, w, StripDomain(d), TIGHT).value
        want = brute_lattice_sum(u, 2.0 * d, 4000, True)
        assert np.abs(_arr(got) - want).max() < 1e-12

    def test_strip_bergman_matches_brute_derivative(self, rng):
        d = 1.5
        z, w = _strip_pair(rng, d)
        u = (z + w.conjugate()).to_array()
        got = bergman_strip(z, w, StripDomain(d), TIGHT).value
        want = -2.0 * brute_deriv_sum(u, 2.0 * d, 3000)
        assert np.abs(_arr(got) - want).max() < 1e-5  # FD oracle floor


# Rounding allowance of the closed-form comparison, in units of
# u = eps/2, one per IEEE operation, relative to |S|.  Near a pole the
# k = 0 term carries |S|; elsewhere |S| is O(1) and the absolute 1e-12
# covers roundoff.
# - The rescaling: fl(u*s) moves each coordinate of u by u, and so a
#   kernel homogeneous of degree -(7 + order) by (7 + order) u; the
#   factor s**(7 + order) is within 2u, and the product with it adds u.
# - Each route's k = 0 term: |Im u|^2 takes 7u, r^2 8u, r^8 35u, the
#   quotients of q0 36u and its Im u factor 37u.  d/dx0 q0 divides by
#   r^10 = r^8 r^2 (44u), its real part 1/r^8 - 8t^2/r^10 is within 47u
#   of |1/r^8| + |8t^2/r^10|, and the parts' sizes add up to at most
#   twice the term's norm: 94u.
# - Each route's accumulation rounds once per term: ``terms`` u.
_TERM_ROUNDING = (37, 94)


def _check_closed_form(order, z, w, d):
    kernel, reference = (
        (szego_strip, szego_strip_reference),
        (bergman_strip, bergman_strip_reference),
    )[order]
    a = kernel(z, w, StripDomain(d), TIGHT)
    b, b_tail = reference(z, w, d, TIGHT, "closed_form")
    scale = math.pi / (2.0 * d)
    u = z + w.conjugate()
    lattice_sum = periodized_deriv_sum if order else periodized_sum
    terms = sum(
        lattice_sum(arg, step, order == 0, TIGHT).terms
        for arg, step in ((u, 2.0 * d), (u * scale, math.pi))
    )
    units = (7 + order) + 2 + 1 + 2 * _TERM_ROUNDING[order] + terms
    rounding = units * 0.5 * np.finfo(np.float64).eps * a.value.norm()
    gap = (a.value - b).norm()
    assert gap <= a.tail_bound + b_tail + 1e-12 + rounding


class TestSeriesVsClosedForm:
    """Both strip kernels against the paper's closed forms, the rescaled
    sums (pi/2d)^(7 + order) at (pi/2d) u and step pi, by the oracles'
    ``closed_form`` branch."""

    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_szego_strip(self, d, rng):
        for _ in range(10):
            _check_closed_form(0, *_strip_pair(rng, d), d)

    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_bergman_strip(self, d, rng):
        for _ in range(10):
            _check_closed_form(1, *_strip_pair(rng, d), d)

    # u = 0.2 and 0.02 near the wall at 0: |S| is 7.8e4 and 7.8e11
    # (Szego), where the rounding term is above the absolute 1e-12
    @pytest.mark.parametrize("x", [0.1, 0.01])
    @pytest.mark.parametrize("order", [0, 1], ids=["szego", "bergman"])
    def test_near_the_wall(self, order, x):
        _check_closed_form(order, Octonion(x), Octonion(x), 1.0)


class TestKernelRelations:
    def test_bergman_is_minus_two_x0_derivative_of_szego_half_space(self, rng):
        for _ in range(10):
            z = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            w = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])

            def szego_u(p, w=w):
                return q0_many(p + w.conjugate().to_array())

            fd = central_difference(szego_u, z.to_array(), np.eye(8)[0], 1e-5)
            got = bergman_half_space(z, w).to_array()
            assert np.abs(got + 2.0 * fd).max() < 1e-6

    def test_strip_relation_analytic(self, rng):
        dom = StripDomain(1.0)
        for _ in range(5):
            z, w = _strip_pair(rng, 1.0)
            assert strip_relation_residual(z, w, dom, TIGHT) < 1e-8

    def test_strip_relation_fd(self, rng):
        # the relation with d/dx0 S as a central difference of the boundary
        # kernel in the first argument's real coordinate
        dom = StripDomain(1.0)
        z, w = _strip_pair(rng, 1.0)
        h = 1e-5
        lhs = (
            bergman_strip(z * 0.5, w * 0.5, dom, TIGHT).value
            - bergman_strip((z + dom.d) * 0.5, (w + dom.d) * 0.5, dom, TIGHT).value
        )
        plus = szego_strip(z + h, w, dom, TIGHT).value
        minus = szego_strip(z - h, w, dom, TIGHT).value
        assert (lhs - (plus - minus) * (-512.0 / (2.0 * h))).norm() < 1e-4

    def test_bergman_ball_solves_potential_equation(self, rng):
        for _ in range(5):
            z = Octonion(*rng.uniform(-0.25, 0.25, 8))
            w = Octonion(*rng.uniform(-0.25, 0.25, 8))
            assert bergman_unit_ball_potential_residual_reference(z, w) < 1e-5


class TestSymmetriesAndScaling:
    @settings(max_examples=25)
    @given(octonions(max_component=0.33), octonions(max_component=0.33))
    def test_ball_kernels_hermitian(self, z, w):
        s_zw = szego_unit_ball(z, w)
        s_wz = szego_unit_ball(w, z)
        assert (s_zw - s_wz.conjugate()).norm() < 1e-9 * max(s_zw.norm(), 1.0)
        b_zw = bergman_unit_ball(z, w)
        b_wz = bergman_unit_ball(w, z)
        assert (b_zw - b_wz.conjugate()).norm() < 1e-9 * max(b_zw.norm(), 1.0)

    def test_flat_kernels_hermitian(self, rng):
        dom = StripDomain(1.0)
        for _ in range(5):
            z, w = _strip_pair(rng, 1.0)
            s = szego_strip(z, w, dom, TIGHT).value
            s_t = szego_strip(w, z, dom, TIGHT).value
            assert (s - s_t.conjugate()).norm() < 1e-11
            b = bergman_strip(z, w, dom, TIGHT).value
            b_t = bergman_strip(w, z, dom, TIGHT).value
            assert (b - b_t.conjugate()).norm() < 1e-11
            zh = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            wh = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            assert (
                szego_half_space(zh, wh) - szego_half_space(wh, zh).conjugate()
            ).norm() < 1e-12
            assert (
                bergman_half_space(zh, wh) - bergman_half_space(wh, zh).conjugate()
            ).norm() < 1e-12

    def test_strip_kernels_scale_covariantly(self, rng):
        # widening the strip by lam rescales the kernels by lam^-7 / lam^-8
        lam = 2.5
        z, w = _strip_pair(rng, 1.0)
        s1 = szego_strip(z, w, StripDomain(1.0), TIGHT).value
        s2 = szego_strip(z * lam, w * lam, StripDomain(lam), TIGHT).value
        assert (s2 - s1 * lam**-7).norm() < 1e-12
        b1 = bergman_strip(z, w, StripDomain(1.0), TIGHT).value
        b2 = bergman_strip(z * lam, w * lam, StripDomain(lam), TIGHT).value
        assert (b2 - b1 * lam**-8).norm() < 1e-12


class TestDomainChecks:
    def test_strip_domain_validation(self):
        with pytest.raises(DomainError):
            StripDomain(0.0)
        with pytest.raises(DomainError):
            StripDomain(-1.0)
        with pytest.raises(DomainError, match="step 2d"):
            StripDomain(1e308)  # finite, but the lattice step 2d is not

    def test_strip_rejects_exterior_points(self):
        dom = StripDomain(1.0)
        with pytest.raises(DomainError):
            szego_strip(Octonion(-0.1), Octonion(0.5), dom)
        with pytest.raises(DomainError):
            szego_strip(Octonion(0.5), Octonion(1.1), dom)
        with pytest.raises(DomainError):
            bergman_strip(Octonion(1.5), Octonion(0.5), dom)

    def test_half_space_rejects_left_points(self):
        with pytest.raises(DomainError):
            szego_half_space(Octonion(-0.5), Octonion(1.0))
        with pytest.raises(DomainError):
            bergman_half_space(Octonion(1.0), Octonion(0.0))

    def test_ball_kernels_raise_only_on_singular_argument(self):
        # exterior arguments are fine as long as 1 - conj(z) w stays away
        # from zero; the singular configuration raises
        assert szego_unit_ball(Octonion(1.3), Octonion(0.2)).norm() > 0
        with pytest.raises(SingularityError):
            szego_unit_ball(Octonion(0.5), Octonion(2.0))
        with pytest.raises(SingularityError):
            bergman_unit_ball(Octonion(0.5), Octonion(2.0))

    def test_ball_kernels_finite_near_boundary(self, rng):
        for _ in range(20):
            zdir = rng.normal(size=8)
            zdir /= np.linalg.norm(zdir)
            wdir = rng.normal(size=8)
            wdir /= np.linalg.norm(wdir)
            z = Octonion(*(zdir * (1.0 - 1e-3)))
            w = Octonion(*(wdir * (1.0 - 1e-3)))
            assert np.isfinite(szego_unit_ball(z, w).norm())
            assert np.isfinite(bergman_unit_ball(z, w).norm())

    def test_strip_bad_method(self):
        # one route, no method keyword: a caller asking for the closed form
        # is refused, not silently given the series
        for kernel in (szego_strip, bergman_strip):
            with pytest.raises(TypeError):
                kernel(
                    Octonion(0.5), Octonion(0.5), StripDomain(1.0), method="closed_form"
                )


def _strip_combined_args(rng, n, d, radius=2.0):
    # u = z + conj(w) for z at mid-strip and w sampled on the truncated
    # walls and inside the strip, as the Monte Carlo estimators form it
    u = np.empty((n, 8))
    u[:, 0] = 0.5 * d + rng.uniform(0.0, d, n)
    dirs = rng.normal(size=(n, 7))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u[:, 1:] = dirs * (radius * rng.uniform(size=n) ** (1.0 / 7.0))[:, None]
    return u


@pytest.mark.usefixtures("direct_route")
class TestStripValuesBitIdentity:
    """The lattice-sum engine's direct route reproduces the per-k loop bit
    for bit at every batch size."""

    @pytest.mark.parametrize(
        "n", [1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 82_496, 131_072]
    )
    @pytest.mark.parametrize(
        "engine, reference",
        [
            (szego_strip_values, szego_strip_values_reference),
            (bergman_strip_values, bergman_strip_values_reference),
        ],
        ids=["szego", "bergman"],
    )
    def test_matches_per_k_loop(self, rng, n, engine, reference):
        for d in (1.0, 0.7):
            u = _strip_combined_args(rng, n, d)
            got = engine(u, d)
            want, want_tail = reference(u, d)
            assert np.array_equal(got.value.view(np.int64), want.view(np.int64))
            tails = np.array([got.tail_bound, want_tail])
            assert tails.view(np.int64)[0] == tails.view(np.int64)[1]


class TestStripKernelsFarFromTheWalls:
    """At large |Im u| the kernels are exponentially small; the closed form
    keeps them to 1e-12 relative, where the direct sum's absolute
    truncation error would swamp them."""

    @pytest.mark.parametrize(
        "y, szego_norm, bergman_norm", [(20.0, 8.31e-19, 9.04e-31), (50.0, 1.67e-40, 6.40e-73)]
    )
    def test_relative_accuracy(self, y, szego_norm, bergman_norm):
        u = np.zeros((1, 8))
        u[0, 0] = 0.5
        u[0, 2], u[0, 6] = 0.6 * y, -0.8 * y
        for values, alternating, order, scale, norm in (
            (szego_strip_values, True, 0, 1.0, szego_norm),
            (bergman_strip_values, False, 1, -2.0, bergman_norm),
        ):
            got = values(u, 1.0).value[0]
            want = scale * poisson_lattice_sum(u[0], 2.0, alternating, order).astype(np.float64)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert np.linalg.norm(want) == pytest.approx(norm, rel=1e-2)


class TestBatchHelpers:
    def test_strip_batches_match_scalar(self, rng):
        dom = StripDomain(1.0)
        pairs = ((szego_strip, szego_strip_values), (bergman_strip, bergman_strip_values))
        for kernel, values in pairs:
            for _ in range(8):
                z, w = _strip_pair(rng, 1.0)
                got = kernel(z, w, dom, TIGHT)
                # the scalar kernel is row 0 of the one-row batch, bit for bit
                want = values((z + w.conjugate()).to_array()[None], dom.d, TIGHT)
                assert np.array_equal(_bits(got.value.coords), _bits(want.value[0]))
                assert _bits(got.tail_bound) == _bits(want.tail_bound)
                assert got.terms == want.terms

    def test_half_space_batches_match_scalar(self, rng):
        zs = np.c_[rng.uniform(0.3, 2.0, 8), rng.normal(size=(8, 7))]
        ws = np.c_[rng.uniform(0.3, 2.0, 8), rng.normal(size=(8, 7))]
        u = np.array(
            [(Octonion(*a) + Octonion(*b).conjugate()).to_array() for a, b in zip(zs, ws)]
        )
        sb = q0_many(u)
        bb = bergman_half_space_values(u)
        for i in range(8):
            s = szego_half_space(Octonion(*zs[i]), Octonion(*ws[i])).to_array()
            b = bergman_half_space(Octonion(*zs[i]), Octonion(*ws[i])).to_array()
            # the scalar kernels are row i of the batch, bit for bit
            assert np.array_equal(sb[i].view(np.int64), s.view(np.int64))
            assert np.array_equal(bb[i].view(np.int64), b.view(np.int64))

    def test_ball_batches_match_scalar(self, rng):
        z = Octonion(*rng.uniform(-0.3, 0.3, 8))
        ws = rng.uniform(-0.3, 0.3, (8, 8))
        sb = szego_ball_values(z, ws)
        bb = bergman_ball_values(z, ws)
        for i in range(8):
            s = szego_unit_ball(z, Octonion(*ws[i])).to_array()
            b = bergman_unit_ball(z, Octonion(*ws[i])).to_array()
            # the scalar kernels are the one-row batch, bit for bit
            one = ws[i : i + 1]
            assert np.array_equal(_bits(szego_ball_values(z, one)[0]), _bits(s))
            assert np.array_equal(_bits(bergman_ball_values(z, one)[0]), _bits(b))
            # and so is a row of a many-row batch: |u|^2 and |w|^2 add their
            # squares in coordinate order whatever the batch's size and layout
            assert np.array_equal(_bits(sb[i]), _bits(s))
            assert np.array_equal(_bits(bb[i]), _bits(b))


    def test_ball_rows_past_the_float_range_read_their_value(self, rng):
        # |u|^8 overflows from |u| = 3.4e38 and |u|^10 from 6.7e30, where the
        # rows read 0 with a numpy warning; longdouble holds both powers.
        # The rows in range keep the bits they have in a batch of their own
        z = Octonion(*rng.uniform(-0.3, 0.3, 8))
        ws = rng.uniform(-0.3, 0.3, (16, 8))
        ws[::2] *= 10.0 ** rng.uniform(32.0, 43.0, (8, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sb = szego_ball_values(z, ws)
            bb = bergman_ball_values(z, ws)
        assert np.array_equal(_bits(sb[1::2]), _bits(szego_ball_values(z, ws[1::2])))
        assert np.array_equal(_bits(bb[1::2]), _bits(bergman_ball_values(z, ws[1::2])))
        u, n2 = (a.astype(np.longdouble) for a in _ball_argument(z, ws[::2]))
        # (6 (1 - |z|^2 |w|^2) + 2u) u: the bracket's imaginary part is 2 Im u
        b0 = 2.0 * u[:, 0] + 6.0 * (1.0 - z.norm_sq() * norm_sq_reference(ws[::2]))
        rows = np.empty_like(u)
        rows[:, 0] = b0 * u[:, 0] - 2.0 * (n2 - u[:, 0] ** 2)
        rows[:, 1:] = (b0 + 2.0 * u[:, 0])[:, None] * u[:, 1:]
        for got, want in ((sb[::2], u / (n2**4)[:, None]), (bb[::2], rows / (n2**5)[:, None])):
            want = want.astype(np.float64)
            gap = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
            assert gap.max() < 1e-12


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestScalarViewsBitIdentity:
    """The scalar strip kernels, row 0 of their batches, and the difference
    stencil keep the bits of the code they replace (copies in
    ``tests/oracles.py``)."""

    # Both on the direct route of the end-corrected sums.
    # "series": the scalar kernels against the old series route.
    # "closed_form": the closed forms the tests compare against, built from
    # the public sums as test_05 and the kernels' docstrings write them,
    # against the old rescaled route.
    @pytest.mark.parametrize("method", ["series", "closed_form"])
    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-6])
    @pytest.mark.parametrize("d", [1.0, 0.7])
    @pytest.mark.parametrize(
        "kernel, reference",
        [(szego_strip, szego_strip_reference), (bergman_strip, bergman_strip_reference)],
        ids=["szego", "bergman"],
    )
    @pytest.mark.usefixtures("direct_route")
    def test_strip_kernels(self, rng, kernel, reference, d, tail_tol, method):
        policy = TruncationPolicy(tail_tol=tail_tol)
        s = math.pi / (2.0 * d)
        for _ in range(4):
            z, w = _strip_pair(rng, d)
            u = (z + w.conjugate()) * s
            if method == "series":
                got = kernel(z, w, StripDomain(d), policy)
                value, tail = got.value, got.tail_bound
            elif kernel is bergman_strip:
                res = periodized_deriv_sum(u, math.pi, policy=policy)
                value, tail = res.value * (-2.0 * s**8), 2.0 * s**8 * res.tail_bound
            else:
                res = csc(u, policy)
                value, tail = res.value * s**7, s**7 * res.tail_bound
            want, want_tail = reference(z, w, d, policy, method)
            assert np.array_equal(_bits(value.coords), _bits(want.coords))
            assert _bits(tail) == _bits(want_tail)
