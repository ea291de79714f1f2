import math
import warnings

import numpy as np
import pytest

from conftest import combined_relation_residuals, duplication_residual
from oracles import (
    bergman_strip_values_reference,
    brute_lattice_sum,
    brute_lattice_sum_longdouble,
    end_corrected_count,
    norm_sq_reference,
    plain_lattice_sum_reference,
    szego_strip_values_reference,
)
from octomono import suites, trig_series
from octomono.algebra import Octonion
from octomono.errors import PolicyError, SingularityError
from octomono.kernels import bergman_strip_values, szego_strip_values
from octomono.regularity import FiniteDiffConfig
from octomono.trig_series import (
    CombinedRelationResiduals,
    TruncationPolicy,
    cot,
    csc,
    periodized_deriv_sum,
    periodized_sum,
    sec,
    tan,
)

TIGHT = TruncationPolicy(tail_tol=1e-14)


def _generic_points(rng, n):
    # real parts well inside a period, imaginary norm >= 0.8 keeps every
    # lattice pole at distance >= 0.8
    pts = np.empty((n, 8))
    pts[:, 0] = rng.uniform(-2.0, 2.0, n)
    dirs = rng.normal(size=(n, 7))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts[:, 1:] = dirs * rng.uniform(0.8, 1.6, (n, 1))
    return pts


class TestFrozenValues:
    def test_csc_at_half_pi_is_61_over_720(self):
        # alternating real lattice sum telescopes to a rational multiple
        # of the Dirichlet beta value at 7
        res = csc(Octonion(math.pi / 2.0), TIGHT)
        want = Octonion(61.0 / 720.0)
        assert (res.value - want).norm() <= res.tail_bound + 1e-15
        assert abs(res.value.real - 61.0 / 720.0) < 1e-13

    def test_cot_matches_brute_sum(self, rng):
        for p in _generic_points(rng, 4):
            got = np.asarray(cot(p, TIGHT).value)
            want = brute_lattice_sum(p, math.pi, 2000, False)
            assert np.abs(got - want).max() < 1e-12

    def test_csc_matches_brute_sum(self, rng):
        for p in _generic_points(rng, 4):
            got = np.asarray(csc(p, TIGHT).value)
            want = brute_lattice_sum(p, math.pi, 2000, True)
            assert np.abs(got - want).max() < 1e-12


class TestPeriodizedSum:
    def test_tail_bound_is_sound(self, rng):
        # loose truncation must land within its own reported tail bound
        # of a much tighter evaluation
        loose = TruncationPolicy(tail_tol=1e-6)
        for p in _generic_points(rng, 6):
            a = periodized_sum(p, math.pi, policy=loose)
            b = periodized_sum(p, math.pi, policy=TIGHT)
            gap = np.linalg.norm(np.asarray(a.value) - np.asarray(b.value))
            assert gap <= a.tail_bound + b.tail_bound + 1e-15

    def test_deriv_tail_bound_is_sound(self, rng):
        loose = TruncationPolicy(tail_tol=1e-6)
        for p in _generic_points(rng, 4):
            a = periodized_deriv_sum(p, 2.0, policy=loose)
            b = periodized_deriv_sum(p, 2.0, policy=TIGHT)
            gap = np.linalg.norm(np.asarray(a.value) - np.asarray(b.value))
            assert gap <= a.tail_bound + b.tail_bound + 1e-15

    def test_term_count_grows_as_tolerance_shrinks(self):
        z = Octonion(0.4, 1.0)
        loose = periodized_sum(z, math.pi, policy=TruncationPolicy(tail_tol=1e-6))
        tight = periodized_sum(z, math.pi, policy=TruncationPolicy(tail_tol=1e-12))
        assert tight.terms > loose.terms
        assert tight.tail_bound <= 1e-12

    def test_max_terms_policy_error(self):
        # a tail of 1e-60 needs about 2e9 terms a side, past the fixed cap
        with pytest.raises(PolicyError, match="cap is 1000000"):
            periodized_sum(Octonion(0.3, 1.0), math.pi, policy=TruncationPolicy(tail_tol=1e-60))

    @pytest.mark.parametrize("policy", [TruncationPolicy(1e-320), TruncationPolicy(5e-324)])
    def test_an_infinite_modulus_law_count_is_refused(self, policy):
        # int(math.floor(inf)) raised OverflowError here
        with pytest.raises(PolicyError, match="needs inf one-sided terms"):
            cot(Octonion(0.5, 1.0), policy)

    def test_an_overflowing_squared_norm_is_refused_by_the_modulus_law(self):
        # |u|^2 overflows: the count is infinite, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PolicyError, match="needs inf one-sided terms"):
                cot(Octonion(0.5, 1.4e154))

    @pytest.mark.parametrize(
        "values,d",
        [(szego_strip_values, 1e100), (szego_strip_values, 1e200), (bergman_strip_values, 1e150)],
    )
    def test_a_step_too_wide_for_the_tail_law_is_refused(self, values, d):
        # the law's constants or its term count leave the float range; this
        # used to raise OverflowError from math.ceil or from the power
        with pytest.raises(PolicyError, match="needs inf one-sided terms"):
            values(np.array([[0.5, 0.1, 0, 0, 0, 0, 0, 0]]), d)

    @pytest.mark.parametrize(
        "values,want", [(szego_strip_values, 1.0), (bergman_strip_values, 14.0)]
    )
    def test_far_terms_past_the_float_range_read_zero_without_a_warning(self, values, want):
        # at d = 1e40 every term but n = 0 sits at r >= 2e40, whose r^8
        # overflows: each is below an ulp of the n = 0 term, and no numpy
        # overflow warning is printed
        u = np.array([[1.0, 0, 0, 0, 0, 0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = values(u, 1e40).value
        assert rows.tolist() == [[want, 0, 0, 0, 0, 0, 0, 0]]

    @pytest.mark.parametrize(
        "fn, alternating, order",
        [(periodized_sum, False, 0), (periodized_deriv_sum, True, 1)],
        ids=["plain_q0", "alternating_dq0"],
    )
    def test_terms_past_the_eighth_power_keep_their_value(self, fn, alternating, order):
        # the real row u = 1e38 at step 4e38 takes the direct route, whose
        # terms from |t| = 5e38 overflow r^8 (and r^10): they read 0, so the
        # sum kept only its two or three nearest terms
        u = np.zeros(8)
        u[0] = 1e38
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fn(u, 4e38, alternating, TruncationPolicy(tail_tol=1e-300))
        n_side = (res.terms - 1) // 2
        want, abs_sum = brute_lattice_sum_longdouble(u, 4e38, n_side, alternating, order)
        err = abs(res.value[0] - float(want[0]))
        assert err <= (res.terms + 8) * np.finfo(np.float64).eps * abs_sum
        assert res.value[1:].tolist() == [0.0] * 7

    def test_pole_guard(self):
        with pytest.raises(SingularityError):
            cot(Octonion(math.pi))  # lattice point n = -1
        with pytest.raises(SingularityError):
            periodized_sum(Octonion(2.0), 1.0)

    def test_deriv_sum_matches_fd_of_sum(self, rng):
        for p in _generic_points(rng, 3):
            got = np.asarray(periodized_deriv_sum(p, 2.0, policy=TIGHT).value)
            h = 1e-6
            zp, zm = p.copy(), p.copy()
            zp[0] += h
            zm[0] -= h
            fd = (
                np.asarray(periodized_sum(zp, 2.0, policy=TIGHT).value)
                - np.asarray(periodized_sum(zm, 2.0, policy=TIGHT).value)
            ) / (2.0 * h)
            assert np.abs(got - fd).max() < 1e-6


# (sum, alternating, a, b, p): the end-corrected remainder is at most
# 2 (a s^p rho^-10 + b s^(p-1) rho^-9), rho = s (N + 1/2) - max|Re u|
END_CORRECTED = [
    (periodized_sum, True, 63.0, 3.5, 3),
    (periodized_deriv_sum, False, 21.0, 7.0 / 3.0, 2),
]
END_IDS = ["alternating_q0", "plain_dq0"]


def _rows(rng, re_parts, im_norms):
    rows = np.zeros((len(re_parts), 8))
    rows[:, 0] = re_parts
    dirs = rng.normal(size=(len(re_parts), 7))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rows[:, 1:] = dirs * np.asarray(im_norms)[:, None]
    return rows


class TestEndCorrection:
    """The strip sums (alternating q0, plain d/dx0 q0) add an end correction
    at u +- h e0 and take N from a remainder bound in max|Re u|."""

    @pytest.mark.parametrize("step", [2.0, 1.4, math.pi])
    @pytest.mark.parametrize("tail_tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("fn, alternating, a, b, power", END_CORRECTED, ids=END_IDS)
    def test_bound_holds_against_true_tail(
        self, rng, fn, alternating, a, b, power, tail_tol, step
    ):
        # each row alone, so every row gets the fewest terms its Re u allows
        policy = TruncationPolicy(tail_tol=tail_tol)
        order = 0 if fn is periodized_sum else 1
        eps = np.finfo(np.float64).eps
        grid = [
            (x, y)
            for x in np.linspace(0.0, step, 6, endpoint=False)
            for y in (0.0, 0.5, 3.0, 15.0, 50.0)
            if x > 0.0 or y > 0.0  # (0, 0) is a pole
        ]
        rows = _rows(rng, *zip(*grid))
        for u in rows:
            res = fn(u, step, alternating, policy)
            want, abs_sum = brute_lattice_sum_longdouble(u, step, 4000, alternating, order)
            gap = np.asarray(res.value, dtype=np.longdouble) - want
            err = float(np.linalg.norm(gap.astype(np.float64)))
            # float64 rounding of each term and of the running sum
            rounding = (res.terms + 8) * eps * abs_sum
            assert err <= res.tail_bound + rounding

    @pytest.mark.parametrize("step", [2.0, 1.4, math.pi])
    @pytest.mark.parametrize("fn, alternating, a, b, power", END_CORRECTED, ids=END_IDS)
    def test_count_and_bound_are_the_documented_ones(
        self, rng, fn, alternating, a, b, power, step
    ):
        for tail_tol in (1e-6, 1e-9, 1e-12, 1e-14):
            for max_re in (0.0, 0.3 * step, 0.95 * step, 3.0 * step):
                rows = _rows(rng, [max_re, -0.5 * max_re, 0.1 * max_re], [0.7, 2.0, 9.0])
                res = fn(rows, step, alternating, TruncationPolicy(tail_tol=tail_tol))
                n_side, bound = end_corrected_count(max_re, step, a, b, power, tail_tol)
                assert res.terms == 2 * n_side + 3
                assert res.tail_bound == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("fn, alternating, a, b, power", END_CORRECTED, ids=END_IDS)
    def test_term_count_does_not_grow_with_imaginary_part(
        self, rng, fn, alternating, a, b, power
    ):
        # a radius-2 and a radius-50 batch of strip combined arguments
        # (d = 1) with the same max|Re u| take the same work per row
        re_parts = np.r_[rng.uniform(0.05, 1.9, 999), 1.9]
        counts = {
            fn(_rows(rng, re_parts, rng.uniform(0.0, radius, 1000)), 2.0, alternating).terms
            for radius in (2.0, 50.0)
        }
        n_side, _ = end_corrected_count(1.9, 2.0, a, b, power, TruncationPolicy().tail_tol)
        assert counts == {2 * n_side + 3}

    @pytest.mark.parametrize(
        "fn, alternating, num, den, power",
        [(periodized_sum, False, 1.0, 3.0, 6), (periodized_deriv_sum, True, 18.0, 7.0, 7)],
        ids=["plain_q0", "alternating_dq0"],
    )
    def test_other_sums_keep_the_modulus_law(self, fn, alternating, num, den, power):
        # cot/tan and the alternating derivative sum still take N from max|u|
        z = Octonion(0.4, 30.0)
        res = fn(z, math.pi, alternating)
        margin = (num / (den * math.pi * 1e-12)) ** (1.0 / power)
        n_side = math.floor((z.norm() + margin) / math.pi) + 1
        assert res.terms == 2 * n_side + 1
        bound = num / (den * math.pi) * (math.pi * n_side - z.norm()) ** -power
        assert res.tail_bound == pytest.approx(bound, rel=1e-12)


def _closed_rows(u, step, alternating, order):
    """The closed form's values (n, 8) and rounding bounds on rows of u."""
    s2 = norm_sq_reference(u[:, 1:])
    acc_re, acc_im, bounds = trig_series._closed_form(u[:, 0], s2, step, alternating, order)
    values = np.empty_like(u)
    values[:, 0] = acc_re
    values[:, 1:] = u[:, 1:] * (-acc_im if order == 0 else acc_im)[:, None]
    return values, bounds


STRIP_KERNELS = [
    (szego_strip_values, szego_strip_values_reference),
    (bergman_strip_values, bergman_strip_values_reference),
]

# (order, alternating) of every sum with a closed form
CLOSED = [(0, True), (1, False), (0, False)]
CLOSED_IDS = [*END_IDS, "plain_q0"]


class TestClosedForm:
    """Every sum but the alternating derivative sum takes the complex
    csc/cot closed form on the rows whose derived rounding bound is within
    the tail bound, and the direct route on every other row."""

    @pytest.mark.parametrize("step", [2.0, 1.4, math.pi])
    @pytest.mark.parametrize("order, alternating", CLOSED, ids=CLOSED_IDS)
    def test_within_its_bound_of_the_longdouble_sum(self, rng, order, alternating, step):
        re_parts = np.linspace(-3.1, 2.5 * step, 17)
        n_terms = 4000
        ld_eps = float(np.finfo(np.longdouble).eps)
        # the oracle's truncation: its alternating q0 sum stops within
        # 2 rho^-7 of the limit and its plain dq0 sum within (2/step) rho^-7,
        # rho = n_terms * step - max|t|; the plain q0 sum, whose terms keep
        # one sign, within 2 rho^-7 + rho^-6 / (3 step)
        rho = n_terms * step - 3.1 - 2.5 * step
        oracle_tail = 2.0 * (1.0 + 1.0 / step) * rho**-7
        if (order, alternating) == (0, False):
            oracle_tail += rho**-6 / (3.0 * step)
        for y in (0.5, 1.0, 3.0, 8.0):
            u = _rows(rng, re_parts, np.full(re_parts.size, y))
            values, bounds = _closed_rows(u, step, alternating, order)
            assert np.isfinite(bounds).all()
            for row, value, bound in zip(u, values, bounds):
                want, abs_sum = brute_lattice_sum_longdouble(row, step, n_terms, alternating, order)
                err = float(np.linalg.norm((value - want).astype(np.float64)))
                # plus the oracle's own longdouble rounding
                assert err <= bound + 4.0 * ld_eps * abs_sum + oracle_tail

    @pytest.mark.parametrize("kernel, reference", STRIP_KERNELS, ids=END_IDS)
    def test_real_near_pole_and_underflowing_rows_keep_the_direct_bits(self, kernel, reference):
        # at d = 1, so the lattice step is 2; the per-k loop is the direct
        # route at the batch's N
        u = np.zeros((5, 8))
        u[:, 0] = [0.5, 1e-6, 0.5, 0.3, 1.7]
        u[:, 3] = [0.0, 1e-6, 1e20, 2.0, 1.5]  # real, near the pole at 0, e^-(kappa y) = 0
        res = kernel(u, 1.0)
        got = res.value
        want, want_tail = reference(u, 1.0)
        assert res.tail_bound == want_tail
        assert np.array_equal(got[:3].view(np.int64), want[:3].view(np.int64))
        # the last two rows take the closed form
        assert not np.array_equal(got[3:].view(np.int64), want[3:].view(np.int64))
        assert np.abs(got[3:] - want[3:]).max() <= 1e-12

    def test_real_and_near_pole_cot_rows_keep_the_direct_bits(self):
        # the modulus law's N grows with |Im u|, so a row whose e^-(kappa y)
        # underflows is refused for its term count and has no case here
        u = np.zeros((4, 8))
        u[:, 0] = [0.5, 1e-6, 0.3, 1.7]
        u[:, 3] = [0.0, 1e-6, 2.0, 1.5]  # real, near the pole at 0, then two generic rows
        res = cot(u)
        want, want_tail = plain_lattice_sum_reference(u, math.pi)
        assert res.tail_bound == want_tail
        assert np.array_equal(res.value[:2].view(np.int64), want[:2].view(np.int64))
        assert not np.array_equal(res.value[2:].view(np.int64), want[2:].view(np.int64))
        assert np.abs(res.value[2:] - want[2:]).max() <= 1e-12

    @pytest.mark.parametrize("kernel, reference", STRIP_KERNELS, ids=END_IDS)
    def test_mixed_batch_direct_rows_keep_the_per_k_bits(self, rng, kernel, reference):
        # strip combined arguments at d = 1 with |Im u| in [0, 2]: the rows
        # nearest the real axis take the direct route at the batch's N
        u = _rows(rng, rng.uniform(0.05, 1.95, 3000), rng.uniform(0.0, 2.0, 3000))
        res = kernel(u, 1.0)
        got, tail = res.value, res.tail_bound
        want, want_tail = reference(u, 1.0)
        assert tail == want_tail
        order = 0 if kernel is szego_strip_values else 1
        # the kernels' tail bound is twice the sum's for the Bergman kernel
        _, bounds = _closed_rows(u, 2.0, order == 0, order)
        direct = ~(bounds <= (tail if order == 0 else tail / 2.0))
        assert 0 < direct.sum() < len(u)
        assert np.array_equal(got[direct].view(np.int64), want[direct].view(np.int64))
        assert np.linalg.norm(got - want, axis=1).max() <= 2.0 * tail

    def test_mixed_cot_batch_direct_rows_keep_the_per_k_bits(self, rng):
        # cot's arguments with Re u in (-pi/2, pi/2) and |Im u| in [0, 2]
        u = _rows(rng, rng.uniform(-1.5, 1.5, 3000), rng.uniform(0.0, 2.0, 3000))
        res = cot(u)
        want, want_tail = plain_lattice_sum_reference(u, math.pi)
        assert res.tail_bound == want_tail
        _, bounds = _closed_rows(u, math.pi, False, 0)
        direct = ~(bounds <= res.tail_bound)
        assert 0 < direct.sum() < len(u)
        assert np.array_equal(res.value[direct].view(np.int64), want[direct].view(np.int64))
        assert np.linalg.norm(res.value - want, axis=1).max() <= 2.0 * res.tail_bound

    @pytest.mark.parametrize(
        "fn, alternating",
        [(periodized_sum, True), (periodized_deriv_sum, False), (periodized_sum, False)],
        ids=CLOSED_IDS,
    )
    def test_pole_guard_still_raises(self, fn, alternating):
        u = np.zeros((3, 8))
        u[:, 0] = [0.5, 2.0, 1.0]
        u[:, 1] = [2.0, 1e-13, 1.0]  # the middle row is 1e-13 from the pole at 2
        with pytest.raises(SingularityError):
            fn(u, 2.0, alternating)

    def test_cot_at_pi_still_raises(self):
        u = np.zeros((3, 8))
        u[:, 0] = [0.5, math.pi, 1.0]
        u[:, 1] = [2.0, 0.0, 1.0]  # the middle row is the lattice point pi
        with pytest.raises(SingularityError):
            cot(u)

    def test_trig_suite_sends_only_the_lowest_half_argument_rows_to_the_direct_route(
        self, monkeypatch
    ):
        # the seed-42 `trig --points 1000` sums: cot and tan at z and 2z, at
        # z/2, and on the Cauchy-Riemann stencils, csc and sec at z and on
        # theirs.  Only cot(z/2) and tan(z/2) rows at |Im u| below 0.65,
        # where the rounding bound exceeds the tail bound, take the direct
        # route; a looser bound would send more rows, or the stencils'
        calls = []
        direct = trig_series._direct

        def spy(u0, s2, step, alternating, order, n_side, end_corrected):
            calls.append((alternating, order, u0.size, float(np.sqrt(np.max(s2)))))
            return direct(u0, s2, step, alternating, order, n_side, end_corrected)

        monkeypatch.setattr(trig_series, "_direct", spy)
        suites.trig(1000, 42, TruncationPolicy(), FiniteDiffConfig())
        assert [c[:3] for c in calls] == [(False, 0, 482), (False, 0, 315)]
        assert max(c[3] for c in calls) < 0.65


class TestBatches:
    """A batch (n, 8) gives each row its single-point value within the
    two tail bounds; the batch may sum more terms than a lone point."""

    @pytest.mark.parametrize("fn", [cot, csc, tan, sec])
    def test_trig_rows_match_single_points(self, rng, fn):
        pts = _generic_points(rng, 12)
        batch = fn(pts, TIGHT)
        assert batch.value.shape == pts.shape
        for p, row in zip(pts, batch.value):
            single = fn(p, TIGHT)
            assert single.terms <= batch.terms
            gap = np.abs(row - single.value).max()
            assert gap <= batch.tail_bound + single.tail_bound + 1e-13

    @pytest.mark.parametrize("alternating", [False, True])
    def test_deriv_rows_match_single_points(self, rng, alternating):
        pts = _generic_points(rng, 12)
        batch = periodized_deriv_sum(pts, 2.0, alternating, TIGHT)
        for p, row in zip(pts, batch.value):
            single = periodized_deriv_sum(p, 2.0, alternating, TIGHT)
            gap = np.abs(row - single.value).max()
            assert gap <= batch.tail_bound + single.tail_bound + 1e-13

    def test_identity_residuals_per_row(self, rng):
        pts = _generic_points(rng, 6)
        dup = duplication_residual(pts, TIGHT)
        combined = combined_relation_residuals(pts, TIGHT)
        assert dup.shape == combined.against_two_cot.shape == (6,)
        for i, p in enumerate(pts):
            assert abs(dup[i] - duplication_residual(p, TIGHT)) < 1e-10
            single = combined_relation_residuals(p, TIGHT)
            assert abs(combined.against_two_cot[i] - single.against_two_cot) < 1e-10
            assert abs(
                combined.against_duplication[i] - single.against_duplication
            ) < 1e-9

    def test_octonion_in_octonion_out(self):
        res = cot(Octonion(0.4, 1.0), TIGHT)
        assert isinstance(res.value, Octonion)
        assert isinstance(tan(Octonion(0.4, 1.0), TIGHT).value, Octonion)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tail_tol": 0.0},
            {"tail_tol": -1.0},
            {"tail_tol": math.nan},
            {"tail_tol": math.inf},
        ],
    )
    def test_rejects_values_it_cannot_honour(self, kwargs):
        with pytest.raises(PolicyError):
            TruncationPolicy(**kwargs)


class TestSymmetries:
    def test_cot_periodic_with_pi(self, rng):
        for p in _generic_points(rng, 5):
            shifted = p.copy()
            shifted[0] += math.pi
            gap = np.asarray(cot(p, TIGHT).value) - np.asarray(
                cot(shifted, TIGHT).value
            )
            assert np.linalg.norm(gap) < 1e-12

    def test_csc_periodic_with_two_pi(self, rng):
        for p in _generic_points(rng, 5):
            shifted = p.copy()
            shifted[0] += 2.0 * math.pi
            gap = np.asarray(csc(p, TIGHT).value) - np.asarray(
                csc(shifted, TIGHT).value
            )
            assert np.linalg.norm(gap) < 1e-12

    def test_csc_antiperiodic_with_pi(self, rng):
        for p in _generic_points(rng, 5):
            shifted = p.copy()
            shifted[0] += math.pi
            gap = np.asarray(csc(p, TIGHT).value) + np.asarray(
                csc(shifted, TIGHT).value
            )
            assert np.linalg.norm(gap) < 1e-12

    def test_odd_parity(self, rng):
        for p in _generic_points(rng, 5):
            assert (
                np.linalg.norm(
                    np.asarray(cot(p, TIGHT).value) + np.asarray(cot(-p, TIGHT).value)
                )
                < 1e-12
            )
            assert (
                np.linalg.norm(
                    np.asarray(csc(p, TIGHT).value) + np.asarray(csc(-p, TIGHT).value)
                )
                < 1e-12
            )


class TestIdentities:
    def test_duplication(self, rng):
        for p in _generic_points(rng, 10):
            assert duplication_residual(p, TIGHT) < 1e-9

    def test_duplication_near_pole(self):
        # at distance 0.05 from the pole the individual terms are ~0.05^-7,
        # so only a relative check is meaningful
        z = np.array([0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        scale = np.linalg.norm(128.0 * np.asarray(cot(2.0 * z, TIGHT).value))
        assert duplication_residual(z, TIGHT) < 1e-12 * scale

    def test_tan_from_cot_duplication(self, rng):
        for p in _generic_points(rng, 10):
            t = np.asarray(tan(p, TIGHT).value)
            c = np.asarray(cot(p, TIGHT).value)
            c2 = np.asarray(cot(2.0 * p, TIGHT).value)
            assert np.linalg.norm(t - c + 128.0 * c2) < 1e-9

    def test_csc_from_half_argument(self, rng):
        for p in _generic_points(rng, 10):
            s = np.asarray(csc(p, TIGHT).value)
            ch = np.asarray(cot(0.5 * p, TIGHT).value)
            c = np.asarray(cot(p, TIGHT).value)
            assert np.linalg.norm(s - ch / 64.0 + c) < 1e-9

    def test_sec_is_shifted_csc(self, rng):
        for p in _generic_points(rng, 10):
            shifted = p.copy()
            shifted[0] += math.pi / 2.0
            gap = np.asarray(sec(p, TIGHT).value) - np.asarray(
                csc(shifted, TIGHT).value
            )
            assert np.linalg.norm(gap) < 1e-15

    def test_tan_is_minus_shifted_cot(self, rng):
        for p in _generic_points(rng, 10):
            shifted = p.copy()
            shifted[0] += math.pi / 2.0
            gap = np.asarray(tan(p, TIGHT).value) + np.asarray(
                cot(shifted, TIGHT).value
            )
            assert np.linalg.norm(gap) < 1e-15


class TestCombinedRelation:
    def test_exactly_one_candidate_vanishes(self, rng):
        # measured, not assumed: the two-cot closure is the vanishing one
        for p in _generic_points(rng, 10):
            r = combined_relation_residuals(p, TIGHT)
            assert isinstance(r, CombinedRelationResiduals)
            assert r.against_two_cot < 1e-9
            assert r.against_duplication > 1e-3

    def test_namedtuple_unpacks_in_declared_order(self):
        r = combined_relation_residuals(Octonion(0.4, 1.1), TIGHT)
        r1, r2 = r
        assert r1 == r.against_duplication
        assert r2 == r.against_two_cot
