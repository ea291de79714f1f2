import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import octonions
from oracles import (
    bergman_strip_values_reference,
    brute_deriv_sum,
    brute_lattice_sum,
    lambda_sum,
    szego_strip_values_reference,
)
from octomono.algebra import Octonion, conj, mul
from octomono.errors import DomainError, SingularityError
from octomono.kernels import (
    StripDomain,
    bergman_half_space,
    bergman_half_space_values,
    bergman_strip,
    bergman_strip_closed_form_variants,
    bergman_strip_values,
    bergman_unit_ball,
    bergman_unit_ball_potential_residual,
    bergman_ball_values,
    strip_relation_residual,
    szego_ball_values,
    szego_half_space,
    szego_half_space_values,
    szego_strip,
    szego_strip_values,
    szego_unit_ball,
)
from octomono.regularity import partial_derivative, q0_many
from octomono.trig_series import _BLOCK_ROWS, TruncationPolicy

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
            u = Octonion(1.0) - mul(conj(z), w)
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
        u = (z + conj(w)).to_array()
        got = szego_strip(z, w, StripDomain(d), TIGHT).value
        want = brute_lattice_sum(u, 2.0 * d, 4000, True)
        assert np.abs(_arr(got) - want).max() < 1e-12

    def test_strip_bergman_matches_brute_derivative(self, rng):
        d = 1.5
        z, w = _strip_pair(rng, d)
        u = (z + conj(w)).to_array()
        got = bergman_strip(z, w, StripDomain(d), TIGHT).value
        want = -2.0 * brute_deriv_sum(u, 2.0 * d, 3000)
        assert np.abs(_arr(got) - want).max() < 1e-5  # FD oracle floor


class TestSeriesVsClosedForm:
    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_szego_strip(self, d, rng):
        dom = StripDomain(d)
        for _ in range(10):
            z, w = _strip_pair(rng, d)
            a = szego_strip(z, w, dom, TIGHT, method="series")
            b = szego_strip(z, w, dom, TIGHT, method="closed_form")
            gap = (a.value - b.value).norm()
            assert gap <= a.tail_bound + b.tail_bound + 1e-12

    @pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
    def test_bergman_strip(self, d, rng):
        dom = StripDomain(d)
        for _ in range(10):
            z, w = _strip_pair(rng, d)
            a = bergman_strip(z, w, dom, TIGHT, method="series")
            b = bergman_strip(z, w, dom, TIGHT, method="closed_form")
            gap = (a.value - b.value).norm()
            assert gap <= a.tail_bound + b.tail_bound + 1e-12

    def test_half_step_variant_disagrees(self, rng):
        # the denser lattice is NOT the same function: its residual
        # against the series is large wherever it is finite at all
        dom = StripDomain(1.0)
        v = bergman_strip_closed_form_variants(
            Octonion(0.5, 0.3), Octonion(0.5), dom, TIGHT
        )
        assert v["rescaled"] < 1e-10
        assert v["half_step"] > 1.0

    def test_half_step_variant_singular_where_kernel_is_regular(self):
        # at z = w = 0.5, d = 1 the combined argument is 1.0: a pole of
        # the step-d lattice but a perfectly regular point of the kernel
        dom = StripDomain(1.0)
        assert bergman_strip(Octonion(0.5), Octonion(0.5), dom, TIGHT).value.norm() < 30
        with pytest.raises(SingularityError):
            bergman_strip_closed_form_variants(
                Octonion(0.5), Octonion(0.5), dom, TIGHT
            )


class TestKernelRelations:
    def test_bergman_is_minus_two_x0_derivative_of_szego_half_space(self, rng):
        for _ in range(10):
            z = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            w = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])

            def szego_u(p, w=w):
                return szego_half_space_values(p + conj(w).to_array())

            fd = partial_derivative(szego_u, z.to_array(), axis=0, h=1e-5)
            got = bergman_half_space(z, w).to_array()
            assert np.abs(got + 2.0 * fd).max() < 1e-6

    def test_strip_relation_analytic(self, rng):
        dom = StripDomain(1.0)
        for _ in range(5):
            z, w = _strip_pair(rng, 1.0)
            assert strip_relation_residual(z, w, dom, TIGHT, method="analytic") < 1e-8

    def test_strip_relation_fd(self, rng):
        dom = StripDomain(1.0)
        z, w = _strip_pair(rng, 1.0)
        assert strip_relation_residual(z, w, dom, TIGHT, method="fd") < 1e-4

    def test_strip_relation_bad_method(self):
        with pytest.raises(ValueError):
            strip_relation_residual(
                Octonion(0.5), Octonion(0.4), StripDomain(1.0), method="magic"
            )

    def test_bergman_ball_solves_potential_equation(self, rng):
        for _ in range(5):
            z = Octonion(*rng.uniform(-0.25, 0.25, 8))
            w = Octonion(*rng.uniform(-0.25, 0.25, 8))
            assert bergman_unit_ball_potential_residual(z, w) < 1e-5


class TestSymmetriesAndScaling:
    @settings(max_examples=25)
    @given(octonions(max_component=0.33), octonions(max_component=0.33))
    def test_ball_kernels_hermitian(self, z, w):
        s_zw = szego_unit_ball(z, w)
        s_wz = szego_unit_ball(w, z)
        assert (s_zw - conj(s_wz)).norm() < 1e-9 * max(s_zw.norm(), 1.0)
        b_zw = bergman_unit_ball(z, w)
        b_wz = bergman_unit_ball(w, z)
        assert (b_zw - conj(b_wz)).norm() < 1e-9 * max(b_zw.norm(), 1.0)

    def test_flat_kernels_hermitian(self, rng):
        dom = StripDomain(1.0)
        for _ in range(5):
            z, w = _strip_pair(rng, 1.0)
            s = szego_strip(z, w, dom, TIGHT).value
            s_t = szego_strip(w, z, dom, TIGHT).value
            assert (s - conj(s_t)).norm() < 1e-11
            b = bergman_strip(z, w, dom, TIGHT).value
            b_t = bergman_strip(w, z, dom, TIGHT).value
            assert (b - conj(b_t)).norm() < 1e-11
            zh = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            wh = Octonion(*np.r_[rng.uniform(0.3, 2.0), rng.normal(size=7)])
            assert (
                szego_half_space(zh, wh) - conj(szego_half_space(wh, zh))
            ).norm() < 1e-12
            assert (
                bergman_half_space(zh, wh) - conj(bergman_half_space(wh, zh))
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
        with pytest.raises(ValueError):
            szego_strip(Octonion(0.5), Octonion(0.5), StripDomain(1.0), method="x")


def _strip_combined_args(rng, n, d, radius=2.0):
    # u = z + conj(w) for z at mid-strip and w sampled on the truncated
    # walls and inside the strip, as the Monte Carlo estimators form it
    u = np.empty((n, 8))
    u[:, 0] = 0.5 * d + rng.uniform(0.0, d, n)
    dirs = rng.normal(size=(n, 7))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u[:, 1:] = dirs * (radius * rng.uniform(size=n) ** (1.0 / 7.0))[:, None]
    return u


class TestStripValuesBitIdentity:
    """The lattice-sum engine reproduces the per-k loop bit for bit, so
    Monte Carlo reports keep their bytes at every batch size."""

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
            got, got_tail = engine(u, d)
            want, want_tail = reference(u, d)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            tails = np.array([got_tail, want_tail])
            assert tails.view(np.int64)[0] == tails.view(np.int64)[1]


class TestBatchHelpers:
    def test_strip_batches_match_scalar(self, rng):
        dom = StripDomain(1.0)
        pairs = [_strip_pair(rng, 1.0) for _ in range(8)]
        u = np.array([(z + conj(w)).to_array() for z, w in pairs])
        sb, s_tail = szego_strip_values(u, dom.d, TIGHT)
        bb, b_tail = bergman_strip_values(u, dom.d, TIGHT)
        for i, (z, w) in enumerate(pairs):
            sk = szego_strip(z, w, dom, TIGHT)
            bk = bergman_strip(z, w, dom, TIGHT)
            s_gap = np.abs(sb[i] - _arr(sk.value)).max()
            b_gap = np.abs(bb[i] - _arr(bk.value)).max()
            assert s_gap <= s_tail + sk.tail_bound + 1e-13
            assert b_gap <= b_tail + bk.tail_bound + 1e-13

    def test_half_space_batches_match_scalar(self, rng):
        zs = np.c_[rng.uniform(0.3, 2.0, 8), rng.normal(size=(8, 7))]
        ws = np.c_[rng.uniform(0.3, 2.0, 8), rng.normal(size=(8, 7))]
        u = np.array(
            [(Octonion(*a) + conj(Octonion(*b))).to_array() for a, b in zip(zs, ws)]
        )
        sb = szego_half_space_values(u)
        bb = bergman_half_space_values(u)
        for i in range(8):
            s = szego_half_space(Octonion(*zs[i]), Octonion(*ws[i])).to_array()
            b = bergman_half_space(Octonion(*zs[i]), Octonion(*ws[i])).to_array()
            assert np.allclose(sb[i], s, rtol=1e-13, atol=1e-18)
            assert np.allclose(bb[i], b, rtol=1e-13, atol=1e-18)

    def test_ball_batches_match_scalar(self, rng):
        z = Octonion(*rng.uniform(-0.3, 0.3, 8))
        ws = rng.uniform(-0.3, 0.3, (8, 8))
        sb = szego_ball_values(z, ws)
        bb = bergman_ball_values(z, ws)
        for i in range(8):
            s = szego_unit_ball(z, Octonion(*ws[i])).to_array()
            b = bergman_unit_ball(z, Octonion(*ws[i])).to_array()
            assert np.abs(sb[i] - s).max() < 1e-13
            assert np.abs(bb[i] - b).max() < 1e-12
