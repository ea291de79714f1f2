import math

import numpy as np
import pytest

from conftest import combined_relation_residuals, duplication_residual
from oracles import brute_lattice_sum, brute_lattice_sum_longdouble, end_corrected_count
from octomono.algebra import Octonion
from octomono.errors import PolicyError, SingularityError
from octomono.trig_series import (
    CombinedRelationResiduals,
    PeriodizedSumSpec,
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
        spec = PeriodizedSumSpec(step=math.pi)
        for p in _generic_points(rng, 6):
            a = periodized_sum(p, spec, loose)
            b = periodized_sum(p, spec, TIGHT)
            gap = np.linalg.norm(np.asarray(a.value) - np.asarray(b.value))
            assert gap <= a.tail_bound + b.tail_bound + 1e-15

    def test_deriv_tail_bound_is_sound(self, rng):
        loose = TruncationPolicy(tail_tol=1e-6)
        spec = PeriodizedSumSpec(step=2.0)
        for p in _generic_points(rng, 4):
            a = periodized_deriv_sum(p, spec, loose)
            b = periodized_deriv_sum(p, spec, TIGHT)
            gap = np.linalg.norm(np.asarray(a.value) - np.asarray(b.value))
            assert gap <= a.tail_bound + b.tail_bound + 1e-15

    def test_term_count_grows_as_tolerance_shrinks(self):
        z = Octonion(0.4, 1.0)
        spec = PeriodizedSumSpec(step=math.pi)
        loose = periodized_sum(z, spec, TruncationPolicy(tail_tol=1e-6))
        tight = periodized_sum(z, spec, TruncationPolicy(tail_tol=1e-12))
        assert tight.terms > loose.terms
        assert tight.tail_bound <= 1e-12

    def test_max_terms_policy_error(self):
        with pytest.raises(PolicyError):
            periodized_sum(
                Octonion(0.3, 1.0),
                PeriodizedSumSpec(step=math.pi),
                TruncationPolicy(tail_tol=1e-14, max_terms=10),
            )

    def test_pole_guard(self):
        with pytest.raises(SingularityError):
            cot(Octonion(math.pi))  # lattice point n = -1
        with pytest.raises(SingularityError):
            periodized_sum(Octonion(2.0), PeriodizedSumSpec(step=1.0))

    def test_deriv_sum_matches_fd_of_sum(self, rng):
        spec = PeriodizedSumSpec(step=2.0)
        for p in _generic_points(rng, 3):
            got = np.asarray(periodized_deriv_sum(p, spec, TIGHT).value)
            h = 1e-6
            zp, zm = p.copy(), p.copy()
            zp[0] += h
            zm[0] -= h
            fd = (
                np.asarray(periodized_sum(zp, spec, TIGHT).value)
                - np.asarray(periodized_sum(zm, spec, TIGHT).value)
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
        spec = PeriodizedSumSpec(step, alternating)
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
            res = fn(u, spec, policy)
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
        spec = PeriodizedSumSpec(step, alternating)
        for tail_tol in (1e-6, 1e-9, 1e-12, 1e-14):
            for max_re in (0.0, 0.3 * step, 0.95 * step, 3.0 * step):
                rows = _rows(rng, [max_re, -0.5 * max_re, 0.1 * max_re], [0.7, 2.0, 9.0])
                res = fn(rows, spec, TruncationPolicy(tail_tol=tail_tol))
                n_side, bound = end_corrected_count(max_re, step, a, b, power, tail_tol)
                assert res.terms == 2 * n_side + 3
                assert res.tail_bound == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("fn, alternating, a, b, power", END_CORRECTED, ids=END_IDS)
    def test_term_count_does_not_grow_with_imaginary_part(
        self, rng, fn, alternating, a, b, power
    ):
        # a radius-2 and a radius-50 batch of strip combined arguments
        # (d = 1) with the same max|Re u| take the same work per row
        spec = PeriodizedSumSpec(2.0, alternating)
        re_parts = np.r_[rng.uniform(0.05, 1.9, 999), 1.9]
        counts = {
            fn(_rows(rng, re_parts, rng.uniform(0.0, radius, 1000)), spec).terms
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
        res = fn(z, PeriodizedSumSpec(math.pi, alternating))
        margin = (num / (den * math.pi * 1e-12)) ** (1.0 / power)
        n_side = math.floor((z.norm() + margin) / math.pi) + 1
        assert res.terms == 2 * n_side + 1
        bound = num / (den * math.pi) * (math.pi * n_side - z.norm()) ** -power
        assert res.tail_bound == pytest.approx(bound, rel=1e-12)


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
        spec = PeriodizedSumSpec(step=2.0, alternating=alternating)
        pts = _generic_points(rng, 12)
        batch = periodized_deriv_sum(pts, spec, TIGHT)
        for p, row in zip(pts, batch.value):
            single = periodized_deriv_sum(p, spec, TIGHT)
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
            {"max_terms": 0},
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
