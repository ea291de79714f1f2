import math

import numpy as np
import pytest

from oracles import brute_lattice_sum
from octomono.algebra import Octonion
from octomono.errors import PolicyError, SingularityError
from octomono.trig_series import (
    CombinedRelationResiduals,
    PeriodizedSumSpec,
    TruncationPolicy,
    combined_relation_residuals,
    cot,
    csc,
    duplication_residual,
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
