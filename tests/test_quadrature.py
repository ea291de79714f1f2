import math
import warnings

import numpy as np
import pytest

from oracles import (
    half_space_szego_wall_integral,
    strip_szego_wall_integral,
)
from octomono.algebra import Octonion
from octomono.errors import DomainError
from octomono.functions import (
    constant,
    linear_monogenic,
    shifted_cauchy_kernel,
    szego_ball_section,
)
from octomono.kernels import StripDomain, szego_unit_ball
from octomono.quadrature import (
    BALL8_VOLUME,
    SPHERE6_AREA,
    SPHERE7_AREA,
    McConfig,
    ball7_volume,
    ball_region,
    bergman_reproduce_ball,
    bergman_reproduce_strip,
    cauchy_formula_reproduce,
    cauchy_theorem_check,
    half_space_boundary_region,
    inner_product_bergman_ball,
    inner_product_hardy_ball,
    sample,
    sphere_region,
    strip_boundary_region,
    strip_volume_region,
    szego_reproduce_ball,
    szego_reproduce_half_space,
    szego_reproduce_strip,
)

ONE = constant(Octonion(1.0))

# strip_bergman_volume_integral(z=0.5, c=-1.0, d=1.0, radius=2.0) at the
# oracle's default resolution; frozen because the 2-D Simpson grid takes
# ~30 s to evaluate
BERGMAN_STRIP_ORACLE_R2 = 0.058434123642714594


def _gather(region, cfg):
    pts, wts, nrm = [], [], []
    for batch in sample(region, cfg):
        pts.append(batch.points)
        wts.append(batch.weights)
        if batch.normals is not None:
            nrm.append(batch.normals)
    return (
        np.concatenate(pts),
        np.concatenate(wts),
        np.concatenate(nrm) if nrm else None,
    )


class TestConstants:
    def test_measure_constants(self):
        assert SPHERE7_AREA == math.pi**4 / 3.0
        assert BALL8_VOLUME == math.pi**4 / 24.0
        assert SPHERE6_AREA == 16.0 * math.pi**3 / 15.0
        assert ball7_volume(2.0) == 16.0 * math.pi**3 * 2.0**7 / 105.0

    def test_config_defaults_are_the_documented_contract(self):
        cfg = McConfig()
        assert (cfg.seed, cfg.samples, cfg.radius, cfg.chunk, cfg.threads) == (
            42,
            100_000,
            50.0,
            131_072,
            1,
        )


class TestSampling:
    def test_sphere_points_weights_normals(self):
        cfg = McConfig(seed=3, samples=200_000)
        pts, wts, nrm = _gather(sphere_region(1.0), cfg)
        assert pts.shape == (200_000, 8)
        radii = np.linalg.norm(pts, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12
        assert abs(wts.sum() - SPHERE7_AREA) < 1e-9 * SPHERE7_AREA
        assert np.abs(nrm - pts).max() < 1e-12

    def test_sphere_center_and_radius(self):
        c = Octonion(2.0, -1.0)
        cfg = McConfig(seed=3, samples=10_000)
        pts, wts, _ = _gather(sphere_region(0.5, center=c), cfg)
        radii = np.linalg.norm(pts - c.to_array(), axis=1)
        assert np.abs(radii - 0.5).max() < 1e-12
        assert abs(wts.sum() - SPHERE7_AREA * 0.5**7) < 1e-12

    def test_ball_weights_and_support(self):
        cfg = McConfig(seed=5, samples=150_000)
        pts, wts, nrm = _gather(ball_region(1.0), cfg)
        assert nrm is None
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12
        assert abs(wts.sum() - BALL8_VOLUME) < 1e-9
        # radial law r^8 uniform: mean of |w|^8 should be 1/2
        m = (np.linalg.norm(pts, axis=1) ** 8).mean()
        assert abs(m - 0.5) < 0.01

    def test_strip_boundary_parity_and_weights(self):
        dom = StripDomain(1.0)
        cfg = McConfig(seed=9, samples=200_001, radius=2.0)  # odd sample count
        pts, wts, nrm = _gather(strip_boundary_region(dom, cfg.radius), cfg)
        on_bottom = pts[:, 0] == 0.0
        on_top = pts[:, 0] == dom.d
        assert np.all(on_bottom | on_top)
        assert on_bottom[0::2].all() and on_top[1::2].all()
        assert on_bottom.sum() == (cfg.samples + 1) // 2
        # each wall carries the truncated 7-disk measure
        v7 = ball7_volume(cfg.radius)
        assert abs(wts[on_bottom].sum() - v7) < 1e-9
        assert abs(wts[on_top].sum() - v7) < 1e-9
        assert np.all(nrm[on_bottom, 0] == -1.0)
        assert np.all(nrm[on_top, 0] == 1.0)
        assert np.linalg.norm(pts[:, 1:], axis=1).max() <= cfg.radius + 1e-12

    def test_strip_volume_support(self):
        dom = StripDomain(0.7)
        cfg = McConfig(seed=9, samples=100_000, radius=3.0)
        pts, wts, _ = _gather(strip_volume_region(dom, cfg.radius), cfg)
        assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= dom.d
        assert np.linalg.norm(pts[:, 1:], axis=1).max() <= cfg.radius + 1e-12
        assert abs(wts.sum() - dom.d * ball7_volume(cfg.radius)) < 1e-9

    def test_half_space_boundary(self):
        cfg = McConfig(seed=2, samples=50_000, radius=2.0)
        pts, wts, nrm = _gather(half_space_boundary_region(cfg.radius), cfg)
        assert np.all(pts[:, 0] == 0.0)
        assert np.all(nrm[:, 0] == -1.0)
        assert abs(wts.sum() - ball7_volume(cfg.radius)) < 1e-10

    def test_chunks_are_keyed_by_index_not_history(self):
        # chunk i's content must depend only on (seed, i): consuming the
        # generator twice or slicing it differently gives identical draws
        cfg = McConfig(seed=13, samples=300_000)  # 3 chunks
        first = [b.points for b in sample(sphere_region(1.0), cfg)]
        second = [b.points for b in sample(sphere_region(1.0), cfg)]
        assert len(first) == 3
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_sample_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            list(sample(sphere_region(1.0), McConfig(samples=0)))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"chunk": 0},
            {"threads": 0},
            {"threads": -1},
            {"radius": 0.0},
            {"radius": -1.0},
            {"radius": math.nan},
            {"radius": math.inf},
        ],
    )
    def test_rejects_values_it_cannot_honour(self, kwargs):
        with pytest.raises(DomainError):
            McConfig(**kwargs)


class TestEngine:
    def test_hardy_identity_has_zero_variance(self):
        got = inner_product_hardy_ball(ONE, ONE, McConfig(seed=1, samples=100_000))
        assert abs(got.value.real - 1.0) < 1e-10
        assert np.abs(got.value.to_array()[1:]).max() < 1e-15
        assert got.std_err == 0.0

    def test_bergman_identity_has_zero_variance(self):
        got = inner_product_bergman_ball(ONE, ONE, McConfig(seed=1, samples=100_000))
        assert abs(got.value.real - 0.125) < 1e-10
        assert got.std_err == 0.0

    @pytest.mark.parametrize("threads", [2, 4])
    def test_thread_count_invariance(self, threads):
        base = McConfig(seed=6, samples=300_000)
        z = Octonion(0.0, 0.3)
        a = cauchy_formula_reproduce(ONE, z, base)
        b = cauchy_formula_reproduce(
            ONE, z, McConfig(seed=6, samples=300_000, threads=threads)
        )
        assert np.array_equal(a.value.to_array(), b.value.to_array())
        assert a.std_err == b.std_err

    def test_error_shrinks_with_sample_size(self):
        # rms error over seeds must drop clearly when samples grow 4x;
        # the measured ratio sits near the ideal 0.5
        z = Octonion(0.0, 0.3)
        rms = {}
        for n in (50_000, 200_000):
            sq = 0.0
            for s in range(6):
                r = cauchy_formula_reproduce(ONE, z, McConfig(seed=100 + s, samples=n))
                sq += (r.value - Octonion(1.0)).norm() ** 2
            rms[n] = math.sqrt(sq / 6.0)
        assert rms[200_000] / rms[50_000] <= 0.7

    def test_estimators_reject_zero_samples(self):
        with pytest.raises(DomainError):
            cauchy_formula_reproduce(ONE, Octonion(0.0), McConfig(samples=0))


class TestBallReproduction:
    def test_cauchy_constant_interior(self):
        r = cauchy_formula_reproduce(ONE, Octonion(0.0, 0.3), McConfig(seed=42, samples=200_000))
        assert (r.value - Octonion(1.0)).norm() < 0.02

    def test_cauchy_exterior_targets_zero(self):
        r = cauchy_formula_reproduce(ONE, Octonion(0.0, 1.3), McConfig(seed=42, samples=200_000))
        assert r.value.norm() < 0.02

    def test_cauchy_linear_function(self):
        f = linear_monogenic()
        z = Octonion(0.0, 0.2, 0.1)
        r = cauchy_formula_reproduce(f, z, McConfig(seed=42, samples=200_000))
        target = f(z)
        assert (r.value - target).norm() < 0.05 * max(target.norm(), 1.0)

    def test_cauchy_theorem_vanishes_for_monogenic(self):
        r = cauchy_theorem_check(linear_monogenic(), McConfig(seed=8, samples=100_000))
        assert r.value.norm() <= 4.0 * r.std_err + 1e-3

    def test_szego_reproduces_constant(self):
        r = szego_reproduce_ball(ONE, Octonion(0.3), McConfig(seed=42, samples=200_000))
        assert (r.value - Octonion(1.0)).norm() < 0.05

    def test_bergman_reproduces_constant(self):
        r = bergman_reproduce_ball(ONE, Octonion(0.0, 0.4), McConfig(seed=42, samples=400_000))
        assert (r.value - Octonion(1.0)).norm() < 0.05

    def test_bergman_reproduces_linear(self):
        f = linear_monogenic()
        z = Octonion(0.0, 0.2, 0.1)
        r = bergman_reproduce_ball(f, z, McConfig(seed=42, samples=400_000))
        target = f(z)
        assert (r.value - target).norm() < 0.05 * max(target.norm(), 1.0)

    def test_szego_reproduce_equals_inner_product_with_kernel_section(self):
        # (f, S(., z)) must be the same estimator as the direct kernel
        # route, bit for bit: conj(S(w, z)) = S(z, w) cancels exactly
        f = shifted_cauchy_kernel(Octonion(-2.0))
        z = Octonion(0.25, 0.1)
        cfg = McConfig(seed=17, samples=100_000)
        direct = szego_reproduce_ball(f, z, cfg)
        via_ip = inner_product_hardy_ball(f, szego_ball_section(z), cfg)
        assert np.array_equal(direct.value.to_array(), via_ip.value.to_array())
        assert direct.std_err == via_ip.std_err

    def test_grouping_sensitivity_of_cauchy_formula(self):
        # kernel sections have enough curvature for non-associativity to
        # surface; the correct grouping stays within noise of the target
        # and the wrong one sits tens of standard errors away
        w0 = Octonion(0.0, 0.0, 0.6, 0.0, 0.0, 0.3)
        z = Octonion(0.0, 0.5)
        f = szego_ball_section(w0)
        target = szego_unit_ball(z, w0)
        cfg = McConfig(seed=7, samples=200_000)
        good = cauchy_formula_reproduce(f, z, cfg, grouping="normal_first")
        bad = cauchy_formula_reproduce(f, z, cfg, grouping="kernel_first")
        assert (good.value - target).norm() <= 4.0 * good.std_err
        assert (bad.value - target).norm() > 5.0 * bad.std_err

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            cauchy_formula_reproduce(ONE, Octonion(0.0), McConfig(), grouping="both")


class TestFlatReproduction:
    def test_szego_strip_matches_simpson_oracle(self):
        # oracle computes the same truncated integral deterministically,
        # so the gap is pure Monte Carlo noise
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=11, samples=300_000, radius=2.0)
        r = szego_reproduce_strip(f, Octonion(0.5), dom, cfg)
        want = strip_szego_wall_integral(0.5, -1.0, 1.0, 2.0)
        assert abs(r.value.real - want) <= 4.0 * r.std_err
        assert np.abs(r.value.to_array()[1:]).max() <= 4.0 * r.std_err

    def test_bergman_strip_matches_simpson_oracle(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=21, samples=600_000, radius=2.0)
        r = bergman_reproduce_strip(f, Octonion(0.5), dom, cfg)
        assert abs(r.value.real - BERGMAN_STRIP_ORACLE_R2) <= 5.0 * r.std_err

    def test_exterior_strip_point_targets_zero(self):
        # f(z) at z = -0.5 would be q0(0.5) = 128; the estimate must be
        # consistent with 0 instead
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=3, samples=200_000, radius=2.0)
        r = szego_reproduce_strip(f, Octonion(-0.5), dom, cfg)
        assert r.value.norm() <= 5.0 * r.std_err + r.tail_est

    def test_half_space_matches_simpson_oracle(self):
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=19, samples=200_000, radius=2.0)
        r = szego_reproduce_half_space(f, Octonion(1.0), cfg)
        want = half_space_szego_wall_integral(1.0, -1.0, 2.0)
        assert abs(r.value.real - want) <= 4.0 * r.std_err

    def test_half_space_rejects_left_evaluation_point(self):
        with pytest.raises(DomainError):
            szego_reproduce_half_space(ONE, Octonion(-1.0), McConfig())

    def test_small_radius_triggers_truncation_warning(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=5, samples=60_000, radius=1.1)
        with pytest.warns(UserWarning, match="increase radius"):
            szego_reproduce_strip(f, Octonion(0.5), dom, cfg)

    def test_nan_integrand_gives_nan_tail_estimate(self):
        # the shell statistic of a NaN integrand is NaN; the chunk
        # reduction must keep it rather than report a zero tail
        dom = StripDomain(1.0)
        nan_fn = lambda pts: np.full(np.shape(pts), np.nan)  # noqa: E731
        cfg = McConfig(seed=5, samples=2_000, radius=2.0)
        r = szego_reproduce_strip(nan_fn, Octonion(0.5), dom, cfg)
        assert math.isnan(r.tail_est)

    def test_comfortable_radius_is_silent(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=5, samples=60_000, radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            szego_reproduce_strip(f, Octonion(0.5), dom, cfg)
