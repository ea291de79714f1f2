import warnings

import numpy as np
import pytest

from oracles import mul_many_reference, norm_sq_reference, q0_inline
from octomono.algebra import Octonion, norm_many
from octomono.errors import DomainError, SingularityError
from octomono.functions import (
    linear_monogenic,
    right_multiplied,
    shifted_cauchy_kernel,
)
from octomono.regularity import (
    FiniteDiffConfig,
    apply_D_left,
    apply_D_right,
    cauchy_kernel,
    central_difference,
    dq0_dx0,
    dq0_dx0_many,
    o_regularity_residual,
    q0_many,
)


# the residual checks the left operator; the right one is checked on its image
_RESIDUAL_OR_RIGHT_IMAGE = {"left": o_regularity_residual, "right": apply_D_right}


def _points_away_from_origin(rng, n, lo=1.0, hi=2.0):
    dirs = rng.normal(size=(n, 8))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(lo, hi, (n, 1))


class TestCauchyKernel:
    def test_matches_inline_formula(self, rng):
        pts = _points_away_from_origin(rng, 50, 0.3, 3.0)
        assert np.allclose(q0_many(pts), q0_inline(pts), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_has_the_bits_of_the_negated_quotient(self, rng, order):
        # conj(p)/|p|^8 as -p / |p|^8 with coordinate 0 negated back, on
        # magnitudes from 1e-20 to 1e20 and signed zeros in coordinates 0-6
        pts = _points_away_from_origin(rng, 400) * 10.0 ** rng.integers(-20, 21, (400, 1))
        zeros = rng.random((400, 7))
        pts[:, :7][zeros < 0.2] = 0.0
        pts[:, :7][zeros > 0.8] = -0.0
        p = np.asarray(pts, order=order)
        r2 = norm_sq_reference(p)
        r8 = (r2 * r2) ** 2
        want = -p / r8[:, None]
        want[:, 0] *= -1.0
        got = q0_many(p)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rows_past_the_float_range_follow_the_scaling(self, rng):
        # q0 has degree -7, so q0(p) = q0(p / s) / s^7; s = 2^100 scales
        # exactly.  From |p| = 3.4e38 |p|^8 overflows, where p / |p|^8 read
        # 0 with a numpy warning; the rows in range keep their bits
        far = _points_away_from_origin(rng, 32) * 10.0 ** rng.uniform(38.6, 43.0, (32, 1))
        near = _points_away_from_origin(rng, 32) * 10.0 ** rng.uniform(-5.0, 38.0, (32, 1))
        pts = np.empty((64, 8))
        pts[::2], pts[1::2] = far, near
        scale = 2.0**100
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = q0_many(pts)
            single = cauchy_kernel(Octonion(*far[0])).to_array()
        want = q0_many(far / scale) / scale**7
        gap = np.abs(got[::2] - want).max(axis=1) / np.abs(want).max(axis=1)
        assert gap.max() < 1e-12
        assert np.array_equal(single.view(np.int64), got[0].view(np.int64))
        assert np.array_equal(got[1::2].view(np.int64), q0_many(near).view(np.int64))

    def test_homogeneity_degree_minus_7(self, rng):
        pts = _points_away_from_origin(rng, 20)
        for lam in (0.5, 2.0, 7.0):
            scaled = q0_many(lam * pts)
            assert np.allclose(scaled, q0_many(pts) / lam**7, rtol=1e-13)

    def test_two_sided_monogenic(self, rng):
        pts = _points_away_from_origin(rng, 25)
        left = o_regularity_residual(q0_many, pts)
        right = norm_many(apply_D_right(q0_many, pts)).max()
        assert left < 1e-6
        assert right < 1e-6

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            cauchy_kernel(Octonion())
        with pytest.raises(SingularityError):
            dq0_dx0(Octonion())

    def test_scalar_octonion_route_matches_batch(self, rng):
        p = _points_away_from_origin(rng, 1)[0]
        assert np.array_equal(cauchy_kernel(Octonion(*p)).to_array(), q0_many(p))


class TestDq0Dx0:
    def test_closed_form_matches_finite_difference(self, rng):
        pts = _points_away_from_origin(rng, 30)
        h = 1e-5
        for p in pts:
            fd = central_difference(q0_many, p, np.eye(8)[0], h)
            exact = dq0_dx0_many(p)
            assert np.abs(fd - exact).max() < 1e-7

    def test_batch_matches_scalar(self, rng):
        pts = _points_away_from_origin(rng, 16)
        batch = dq0_dx0_many(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(batch[i], dq0_dx0(Octonion(*p)).to_array())

    def test_rows_in_range_keep_the_closed_form_bits(self, rng):
        # |p| up to 1e30: |p|^10 stays finite, and the rows keep the bits
        # of 1/|p|^8 - 8 p0^2/|p|^10 and 8 p0 p/|p|^10
        pts = _points_away_from_origin(rng, 64) * 10.0 ** rng.uniform(-5.0, 30.0, (64, 1))
        r2 = norm_sq_reference(pts)
        r8 = (r2 * r2) ** 2
        r10 = r8 * r2
        want = pts * (8.0 * pts[:, :1] / r10[:, None])
        want[:, 0] = 1.0 / r8 - 8.0 * pts[:, 0] ** 2 / r10
        assert np.array_equal(dq0_dx0_many(pts), want)

    def test_rows_past_the_float_range_follow_the_scaling(self, rng):
        # the partial has degree -8, so dq0_dx0(p) = dq0_dx0(p / s) / s^8;
        # s = 2^100 scales exactly, and p / s is well inside the range.
        # At |p| from 1e31 to 1e37 |p|^10 overflows, where 8 p0^2/|p|^10
        # read 0 and flipped the real part's sign, with a numpy warning.
        pts = _points_away_from_origin(rng, 64) * 10.0 ** rng.uniform(31.0, 37.0, (64, 1))
        scale = 2.0**100
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = dq0_dx0_many(pts)
        want = dq0_dx0_many(pts / scale) / scale**8
        gap = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert gap.max() < 1e-12
        assert np.all(np.sign(got[:, 0]) == np.sign(want[:, 0]))


class TestModuleCounterexample:
    """The linear monogenic function stays monogenic under translation but
    not under right multiplication by e3: the residual jumps to |2 e5|."""

    def test_residual_near_zero_and_exactly_two_after_right_mul(self, rng):
        f = linear_monogenic()
        g = right_multiplied(f, Octonion.basis(3))
        pts = np.array([rng.uniform(-2, 2, 8) for _ in range(100)])
        assert o_regularity_residual(f.eval_batch, pts) < 1e-10
        for z in pts:
            resid = apply_D_left(g.eval_batch, Octonion(*z))
            assert abs(resid.norm() - 2.0) < 1e-9
            # the image is the constant 2 e5, not merely of norm 2
            assert (resid - Octonion.basis(5) * 2.0).norm() < 1e-9

    def test_translation_preserves_residual(self, rng):
        f = linear_monogenic()
        omega = Octonion(*rng.uniform(-3, 3, 8))

        def translated(p):
            return f.eval_batch(p + omega.to_array())

        pts = np.array([rng.uniform(-2, 2, 8) for _ in range(20)])
        assert o_regularity_residual(translated, pts) < 1e-10


class TestFiniteDifferenceOperator:
    def test_truncation_error_is_second_order(self):
        # residual of a monogenic function ~ C h^2; slope of log residual
        # against log h should be near 2 before roundoff dominates
        z = Octonion(0.3, 0.9, -0.4, 0.2, 0.0, 0.5, -0.1, 0.7)
        hs = np.array([1e-2, 3e-3, 1e-3])
        resids = [o_regularity_residual(q0_many, z, h=h) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(resids), 1)[0]
        assert 1.7 < slope < 2.3

    def test_max_over_points_semantics(self, rng):
        f = shifted_cauchy_kernel(Octonion(5.0))
        pts = _points_away_from_origin(rng, 10)
        singles = [o_regularity_residual(f.eval_batch, z) for z in pts]
        assert o_regularity_residual(f.eval_batch, pts) == max(singles)

    def test_single_point_accepts_octonion_and_array(self):
        z = Octonion(1.0, 1.0)
        a = o_regularity_residual(q0_many, z)
        b = o_regularity_residual(q0_many, z.to_array())
        assert a == b

    def test_left_and_right_operators_differ(self, rng):
        # the linear example is left monogenic only; the right image is
        # the constant 2 e1, and right-multiplying by e3 flips the sign
        # of the (nonzero) image instead of restoring regularity
        f = linear_monogenic()
        g = right_multiplied(f, Octonion.basis(3))
        z = Octonion(*rng.uniform(-2, 2, 8))
        rf = apply_D_right(f.eval_batch, z)
        assert (rf - Octonion.basis(1) * 2.0).norm() < 1e-9
        lg = apply_D_left(g.eval_batch, z)
        rg = apply_D_right(g.eval_batch, z)
        assert (lg - Octonion.basis(5) * 2.0).norm() < 1e-9
        assert (rg + Octonion.basis(5) * 2.0).norm() < 1e-9

    def test_nan_image_is_not_dropped(self):
        # max(0.0, nan) is 0.0; the residual must carry the NaN instead
        z = Octonion(1.0, 1.0).to_array()
        with np.errstate(invalid="ignore"):
            assert np.isnan(o_regularity_residual(q0_many, np.stack([z, z]), h=0.0))

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_config_rejects_a_step_it_cannot_use(self, h):
        with pytest.raises(DomainError):
            FiniteDiffConfig(h)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_step_below_the_coordinate_spacing_raises(self, side):
        # 1e12 + 1e-5 == 1e12: the quotient along e0 would be exactly 0
        z = Octonion(1e12, 1.0)
        with pytest.raises(DomainError, match="unchanged"):
            _RESIDUAL_OR_RIGHT_IMAGE[side](q0_many, z, h=1e-5)

    def test_partial_derivative_refuses_a_step_that_moves_nothing(self, rng):
        # the first two quotients used to come out exactly 0 along e0; the
        # step 6e-17 is lost only upward from 1.0 and only downward from -1.0
        cases = (
            (Octonion(1e12, 1.0), 1e-5),
            (Octonion(1.0, 1.0), 1e-300),
            (Octonion(1.0, 1.0), 6e-17),
            (Octonion(-1.0, 1.0), 6e-17),
        )
        e0 = np.eye(8)[0]
        for z, h in cases:
            with pytest.raises(DomainError, match="unchanged"):
                central_difference(q0_many, z.to_array(), e0, h)
        # a batch still gives one partial per row
        pts = _points_away_from_origin(rng, 5)
        batch = central_difference(q0_many, pts, e0, 1e-5)
        assert batch.shape == (5, 8)
        for p, row in zip(pts, batch):
            assert np.array_equal(row, central_difference(q0_many, p, e0, 1e-5))

    @pytest.mark.parametrize("axis", [0, 3, 7])
    def test_partial_derivative_matches_the_plain_quotient(self, rng, axis):
        h = 1e-5
        pts = _points_away_from_origin(rng, 6)
        unit = np.eye(8)[axis]
        want = (q0_many(pts + h * unit) - q0_many(pts - h * unit)) / (2.0 * h)
        got = central_difference(q0_many, pts, unit, h)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        single = central_difference(q0_many, pts[0], unit, h)
        assert np.array_equal(single.view(np.int64), want[0].view(np.int64))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_operators_match_general_product_form(self, rng, side):
        # the gather tables must give the bits of sum_i e_i * rows[i]
        # (rows[i] * e_i on the right), zero signs included: a signed
        # permutation at the origin has Jacobian rows full of +-0.0
        h = 1e-5
        eye = np.eye(8)
        perm = rng.permutation(8)
        scale = np.array([0.0, -0.0, 1.0, -2.0, -0.0, 3.0, -1.0, 0.0])
        cases = [(q0_many, z) for z in _points_away_from_origin(rng, 10)]
        cases.append((lambda p: p[..., perm] * scale, np.zeros(8)))
        for f, z in cases:
            rows = (f(z + h * eye) - f(z - h * eye)) / (2.0 * h)
            # the row-major reference, whose sum over axis 0 adds i = 0..7 in order
            if side == "left":
                got, want = apply_D_left(f, z, h), mul_many_reference(eye, rows).sum(axis=0)
            else:
                got, want = apply_D_right(f, z, h), mul_many_reference(rows, eye).sum(axis=0)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _q0_nan_at_x0_7(p):
    # q0, but NaN in the stencil around a point with x0 = 7
    return np.where(np.abs(p[..., :1] - 7.0) < 0.1, np.nan, q0_many(p))


class TestBatchedOperators:
    """A batch of points is one stencil, with the bits of one point at a time."""

    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_batch_equals_stacked_points(self, rng, n, side):
        apply = apply_D_left if side == "left" else apply_D_right
        pts = _points_away_from_origin(rng, n)
        for f in (shifted_cauchy_kernel(Octonion(5.0)), linear_monogenic()):
            got = apply(f.eval_batch, pts)
            want = np.stack([apply(f.eval_batch, p) for p in pts])
            assert got.shape == (n, 8)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_unchanged_row_fails_the_batch(self, rng, side):
        pts = _points_away_from_origin(rng, 6)
        pts[3, 0] = 1e12  # 1e12 + 1e-5 == 1e12 in this row only
        with pytest.raises(DomainError, match="unchanged"):
            _RESIDUAL_OR_RIGHT_IMAGE[side](q0_many, pts, h=1e-5)

    def test_nan_image_in_one_row_makes_the_residual_nan(self, rng):
        pts = _points_away_from_origin(rng, 9)
        pts[4, 0] = 7.0
        assert np.isnan(o_regularity_residual(_q0_nan_at_x0_7, pts))
        assert o_regularity_residual(_q0_nan_at_x0_7, np.delete(pts, 4, axis=0)) < 1e-6

    def test_residual_spans_operator_calls(self, rng):
        # more points than one operator call takes: still the max over
        # every point, and a NaN in the last call is kept
        pts = _points_away_from_origin(rng, 1030)
        singles = [o_regularity_residual(q0_many, p) for p in pts]
        assert o_regularity_residual(q0_many, pts) == max(singles)
        pts[-1, 0] = 7.0
        assert np.isnan(o_regularity_residual(_q0_nan_at_x0_7, pts))

    def test_both_ends_in_one_call(self, rng):
        calls = []

        def spy(p):
            calls.append(p.shape)
            return q0_many(p)

        pts = _points_away_from_origin(rng, 5)
        central_difference(spy, pts, np.eye(8)[2], 1e-5)
        assert calls == [(2, 5, 8)]
        calls.clear()
        apply_D_left(spy, pts)
        assert calls == [(2, 5, 8, 8)]
        calls.clear()
        apply_D_right(spy, pts[0])
        assert calls == [(2, 8, 8)]


class TestFunctionHandles:
    def test_handle_call_on_octonion(self):
        f = shifted_cauchy_kernel(Octonion(0.0))
        z = Octonion(2.0)
        assert (f(z) - Octonion(2.0 ** -7)).norm() < 1e-15

    def test_shifted_kernel_is_monogenic(self, rng):
        c = Octonion(0.5, -1.0, 0.25)
        f = shifted_cauchy_kernel(c)
        pts = c.to_array() + _points_away_from_origin(rng, 20, 1.0, 2.5)
        assert o_regularity_residual(f.eval_batch, pts) < 1e-6
