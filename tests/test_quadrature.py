import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import oracles
from oracles import (
    half_space_szego_wall_integral,
    strip_szego_wall_integral,
)
from octomono import quadrature, suites
from octomono.algebra import Octonion, conj_many
from octomono.errors import DomainError
from octomono.functions import (
    constant,
    linear_monogenic,
    shifted_cauchy_kernel,
    szego_ball_section,
)
from octomono.kernels import (
    StripDomain,
    bergman_ball_values,
    bergman_strip_values,
    szego_ball_values,
    szego_strip_values,
    szego_unit_ball,
)
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
    inner_product_strip_volume,
    sphere_region,
    strip_boundary_region,
    strip_volume_region,
    szego_reproduce_ball,
    szego_reproduce_half_space,
    szego_reproduce_strip,
)
from octomono.regularity import q0_many
from octomono.trig_series import TruncationPolicy

ONE = constant(Octonion(1.0))

# strip_bergman_volume_integral(z=0.5, c=-1.0, d=1.0, radius=2.0) at the
# oracle's default resolution; frozen because the 2-D Simpson grid takes
# ~30 s to evaluate
BERGMAN_STRIP_ORACLE_R2 = 0.058434123642714594


def sample(region, cfg):
    """The sample batches of a run, one per chunk, as the estimators draw them."""
    for i in range(-(-cfg.samples // cfg.chunk)):
        yield quadrature._chunk_batch(region, cfg, i)


def _gather(region, cfg):
    """A run's points and weights, the chunks concatenated."""
    batches = list(sample(region, cfg))
    return (
        np.concatenate([b.points for b in batches]),
        np.concatenate([b.weights for b in batches]),
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

    def test_flat_regions_state_the_width_their_tail_law_integrates_over(self):
        dom = StripDomain(3.0)
        assert strip_boundary_region(dom, 2.0).width == 2.0  # both walls
        assert strip_volume_region(dom, 2.0).width == 3.0  # the strip's width d
        assert half_space_boundary_region(2.0).width == 1.0  # one wall
        assert sphere_region().width == ball_region().width == 0.0


class TestSampling:
    def test_sphere_points_and_weights(self):
        cfg = McConfig(seed=3, samples=200_000)
        pts, wts = _gather(sphere_region(), cfg)
        assert pts.shape == (200_000, 8)
        radii = np.linalg.norm(pts, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12
        assert abs(wts.sum() - SPHERE7_AREA) < 1e-9 * SPHERE7_AREA

    def test_ball_weights_and_support(self):
        cfg = McConfig(seed=5, samples=150_000)
        pts, wts = _gather(ball_region(), cfg)
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12
        assert abs(wts.sum() - BALL8_VOLUME) < 1e-9
        # radial law r^8 uniform: mean of |w|^8 should be 1/2
        m = (np.linalg.norm(pts, axis=1) ** 8).mean()
        assert abs(m - 0.5) < 0.01

    def test_strip_boundary_parity_and_weights(self):
        dom = StripDomain(1.0)
        cfg = McConfig(seed=9, samples=200_001, radius=2.0)  # odd sample count
        pts, wts = _gather(strip_boundary_region(dom, cfg.radius), cfg)
        on_bottom = pts[:, 0] == 0.0
        on_top = pts[:, 0] == dom.d
        assert np.all(on_bottom | on_top)
        assert on_bottom[0::2].all() and on_top[1::2].all()
        assert on_bottom.sum() == (cfg.samples + 1) // 2
        # each wall carries the truncated 7-disk measure
        v7 = ball7_volume(cfg.radius)
        assert abs(wts[on_bottom].sum() - v7) < 1e-9
        assert abs(wts[on_top].sum() - v7) < 1e-9
        assert np.linalg.norm(pts[:, 1:], axis=1).max() <= cfg.radius + 1e-12

    def test_strip_volume_support(self):
        dom = StripDomain(0.7)
        cfg = McConfig(seed=9, samples=100_000, radius=3.0)
        pts, wts = _gather(strip_volume_region(dom, cfg.radius), cfg)
        assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= dom.d
        assert np.linalg.norm(pts[:, 1:], axis=1).max() <= cfg.radius + 1e-12
        assert abs(wts.sum() - dom.d * ball7_volume(cfg.radius)) < 1e-9

    def test_half_space_boundary(self):
        cfg = McConfig(seed=2, samples=50_000, radius=2.0)
        pts, wts = _gather(half_space_boundary_region(cfg.radius), cfg)
        assert np.all(pts[:, 0] == 0.0)
        assert abs(wts.sum() - ball7_volume(cfg.radius)) < 1e-10

    def test_chunks_are_keyed_by_index_not_history(self):
        # chunk i's content must depend only on (seed, i): consuming the
        # generator twice or slicing it differently gives identical draws
        cfg = McConfig(seed=13, samples=300_000)  # 3 chunks
        first = [b.points for b in sample(sphere_region(), cfg)]
        second = [b.points for b in sample(sphere_region(), cfg)]
        assert len(first) == 3
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_sample_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            list(sample(sphere_region(), McConfig(samples=0)))


LAW_R = 2.0
LAW_STRIP = StripDomain(0.7)
# each region, at radius LAW_R where it is unbounded
LAW_REGIONS = {
    "sphere": sphere_region(),
    "ball": ball_region(),
    "strip_boundary": strip_boundary_region(LAW_STRIP, LAW_R),
    "strip_volume": strip_volume_region(LAW_STRIP, LAW_R),
    "half_space_boundary": half_space_boundary_region(LAW_R),
}
ULP = np.finfo(np.float64).eps


def _round_part(name, pts):
    """The coordinates that fill a centred sphere (the sphere region's) or
    ball (the others': the ball, or the flat regions' imaginary parts),
    and its radius."""
    return (pts, 1.0) if name in ("sphere", "ball") else (pts[:, 1:], LAW_R)


def _assert_moments(x, second, fourth):
    """Each column's mean and second moment against a law centred at 0
    with these second and fourth moments, within 5 standard deviations."""
    n = len(x)
    assert np.all(np.abs(x.mean(axis=0)) <= 5.0 * math.sqrt(second / n))
    m2 = (x * x).mean(axis=0)
    assert np.all(np.abs(m2 - second) <= 5.0 * math.sqrt((fourth - second**2) / n))


class TestSamplerLaws:
    """Each region's samples against the uniform law of the region, at 1e5
    samples, not against another draw of the same generator.

    For x uniform in the centred D-ball of radius rho, E x_k^2 =
    rho^2/(D + 2), E x_k^4 = 3 rho^4/((D + 2)(D + 4)), and |x| < rho/2
    with probability 2^-D; on its sphere E x_k^2 = rho^2/D and E x_k^4 =
    3 rho^4/(D (D + 2)).  Every bar is 5 standard deviations of a sample
    mean, so a correct sampler fails one of the 80 such checks with
    probability below 1e-4.
    """

    N = 100_000

    def _draw(self, name):
        return _gather(LAW_REGIONS[name], McConfig(seed=1, samples=self.N, radius=LAW_R))

    @pytest.mark.parametrize("name", sorted(LAW_REGIONS))
    def test_points_lie_in_the_region(self, name):
        pts, _ = self._draw(name)
        x, rho = _round_part(name, pts)
        r = np.sqrt(oracles.norm_sq_reference(x))
        if name == "sphere":
            assert np.abs(r - rho).max() <= 4.0 * ULP
        else:
            assert r.max() <= rho * (1.0 + 4.0 * ULP)
        re = pts[:, 0]
        if name == "strip_boundary":
            assert np.all((re == 0.0) | (re == LAW_STRIP.d))
        elif name == "strip_volume":
            assert re.min() >= 0.0 and re.max() <= LAW_STRIP.d
        elif name == "half_space_boundary":
            assert np.all(re == 0.0)

    @pytest.mark.parametrize("dim", [7, 8])
    def test_direction_rows_are_unit(self, dim):
        dirs = quadrature._directions(np.random.default_rng(dim), self.N, dim)
        assert dirs.shape == (self.N, dim) and _coordinate_major(dirs)
        assert np.abs(np.sqrt(oracles.norm_sq_reference(dirs)) - 1.0).max() <= 4.0 * ULP

    @pytest.mark.parametrize("name", sorted(LAW_REGIONS))
    def test_moments_match_the_uniform_law(self, name):
        pts, _ = self._draw(name)
        x, rho = _round_part(name, pts)
        dim = x.shape[1]
        if name == "sphere":
            _assert_moments(x, rho**2 / dim, 3.0 * rho**4 / (dim * (dim + 2)))
        else:
            _assert_moments(x, rho**2 / (dim + 2), 3.0 * rho**4 / ((dim + 2) * (dim + 4)))
        if name == "strip_volume":  # Re w uniform on [0, d]
            d = LAW_STRIP.d
            _assert_moments(pts[:, :1] - d / 2.0, d**2 / 12.0, d**4 / 80.0)

    @pytest.mark.parametrize("name", sorted(set(LAW_REGIONS) - {"sphere"}))
    def test_fraction_inside_half_the_radius(self, name):
        pts, _ = self._draw(name)
        x, rho = _round_part(name, pts)
        p = 2.0 ** -x.shape[1]
        inside = (np.sqrt(oracles.norm_sq_reference(x)) < rho / 2.0).mean()
        assert abs(inside - p) <= 5.0 * math.sqrt(p * (1.0 - p) / self.N)

    @pytest.mark.parametrize("name", sorted(LAW_REGIONS))
    def test_a_chunk_depends_only_on_the_seed_and_its_index(self, name):
        region = LAW_REGIONS[name]
        cfg = McConfig(seed=5, samples=self.N, chunk=30_000, radius=LAW_R)  # 4 chunks
        forward = list(sample(region, cfg))
        # drawn alone, in reverse order, or in a longer run: the same points
        longer = McConfig(seed=5, samples=2 * self.N, chunk=30_000, radius=LAW_R)
        for i in reversed(range(len(forward))):
            alone = quadrature._chunk_batch(region, cfg, i)
            assert np.array_equal(_bits(alone.points), _bits(forward[i].points))
            if i < 3:  # a full chunk in both runs
                in_longer = quadrature._chunk_batch(region, longer, i)
                assert np.array_equal(_bits(in_longer.points), _bits(forward[i].points))
        # and other points at another seed or another index
        reseeded = McConfig(seed=6, samples=self.N, chunk=30_000, radius=LAW_R)
        other = quadrature._chunk_batch(region, reseeded, 0)
        assert not np.array_equal(other.points, forward[0].points)
        assert not np.array_equal(forward[1].points, forward[0].points)

    def test_strip_wall_slices_follow_the_parity_rule(self):
        # even global sample indices on Re = 0, odd ones on Re = d, with odd
        # chunk lengths so that chunks start at both parities
        region = LAW_REGIONS["strip_boundary"]
        cfg = McConfig(seed=7, samples=5_001, chunk=999, radius=LAW_R)
        v7 = ball7_volume(LAW_R)
        n_bottom, n_top = (cfg.samples + 1) // 2, cfg.samples // 2
        for i, batch in enumerate(sample(region, cfg)):
            on_top = (i * cfg.chunk + np.arange(len(batch.weights))) % 2 == 1
            for got, want in (
                (batch.points[:, 0], np.where(on_top, LAW_STRIP.d, 0.0)),
                (batch.weights, np.where(on_top, v7 / n_top, v7 / n_bottom)),
            ):
                assert np.array_equal(_bits(got), _bits(want))


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
            {"seed": -1},
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
        (a,) = cauchy_formula_reproduce([(ONE, z)], base)
        (b,) = cauchy_formula_reproduce(
            [(ONE, z)], McConfig(seed=6, samples=300_000, threads=threads)
        )
        assert np.array_equal(a.value.to_array(), b.value.to_array())
        assert a.std_err == b.std_err

    def test_error_shrinks_with_sample_size(self):
        # The RMS error over 64 seeds at 200,000 samples must be at most 0.7
        # of that over 64 other seeds at 50,000 (ideal 0.5), and the reported
        # std_err must fall as n^-1/2.  False-failure rates, from 4e6 samples
        # of this integrand (bounded: |w - z| >= 0.7 on the sphere, so each
        # error is close to normal at these n):
        # - n times an error's covariance has eigenvalues 0.792 and
        #   7 x 0.0206, 1.39 degrees of freedom per seed.  The squared
        #   ratio is X/4Y, X and Y independent sums of lambda_i chi^2_64,
        #   which exceeds 0.7^2 with probability 7.6e-4 (2e7 simulated
        #   draws); at 6 seeds it was 0.17.  256 seeds per size measured
        #   n |error|^2 at 1.00 and 0.93 in the mean against the trace
        #   0.94, and a bootstrap of them gave 1.1e-4.
        # - n std_err^2 estimates the trace, with relative variance
        #   11.1 / n per seed, so the pooled std_err ratio has standard
        #   deviation 5.2e-4 and 0.005 is ten of them.
        z = Octonion(0.0, 0.3)
        seeds = iter(range(100, 228))
        sq, se_sq = {}, {}
        for n in (50_000, 200_000):
            results = [
                cauchy_formula_reproduce([(ONE, z)], McConfig(seed=next(seeds), samples=n))[0]
                for _ in range(64)
            ]
            sq[n] = sum((r.value - Octonion(1.0)).norm() ** 2 for r in results)
            se_sq[n] = sum(r.std_err**2 for r in results)
        assert abs(math.sqrt(se_sq[200_000] / se_sq[50_000]) - 0.5) <= 0.005
        assert math.sqrt(sq[200_000] / sq[50_000]) <= 0.7

    def test_chunk_samples_are_freed_without_the_cycle_collector(self, monkeypatch, small_blocks):
        # a reference cycle through the engine's closures would hold every
        # chunk's samples until the cycle collector happens to run
        refs = []
        original = quadrature._chunk_batch

        def recording(region, cfg, i):
            batch = original(region, cfg, i)
            refs.append(weakref.ref(batch.points))
            return batch

        monkeypatch.setattr(quadrature, "_chunk_batch", recording)
        gc.disable()
        try:
            cfg = McConfig(samples=15_000, chunk=5_000)
            cauchy_formula_reproduce([(ONE, Octonion(0.0, 0.3))], cfg)
            alive = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert len(refs) == 3 and alive == []

    def test_estimators_reject_zero_samples(self):
        with pytest.raises(DomainError):
            cauchy_formula_reproduce([(ONE, Octonion(0.0))], McConfig(samples=0))

    def test_unit_rows_match_reference(self, rng):
        pts = rng.standard_normal((1_000, 8)) * np.exp(rng.uniform(-40, 40, (1_000, 1)))
        pts[0] = 0.0
        pts[1] = -0.0
        pts[2] = 1e-13 / math.sqrt(8.0)  # norm below the 1e-12 cut
        pts[3] = np.eye(8)[5] * 1e-12  # norm at the cut
        pts[4, 2] = math.nan
        pts[5, 7] = -math.inf
        pts[6] = [-0.0, 3.0, 0.0, -0.0, 0.0, 0.0, -4.0, -0.0]
        with np.errstate(invalid="ignore"):  # inf / inf in row 5
            got = quadrature._unit_rows(pts)
            want = oracles._unit_rows_reference(pts)
        assert np.array_equal(_bits(got), _bits(want))

    def test_underflowing_squares_warn(self):
        # at radius 1e20 the estimate is about 1e-137 and every squared
        # sample value underflows to 0: std_err and tail_est read exactly 0
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=4, samples=2_000, radius=1e20)
        with pytest.warns(UserWarning, match="underflow to zero"):
            (r,) = szego_reproduce_half_space([(f, Octonion(0.5))], cfg)
        assert r.value.norm() > 0.0
        assert r.std_err == 0.0 and r.tail_est == 0.0

    @pytest.mark.parametrize(
        "estimator,radius",
        [
            (lambda cfg: szego_reproduce_half_space([(ONE, Octonion(0.5))], cfg), 1e25),
            (lambda cfg: szego_reproduce_strip([(ONE, Octonion(0.5))], StripDomain(1.0), cfg), 1e25),
            # radius**15 overflows, the squared measure does not
            (
                lambda cfg: bergman_reproduce_strip([(ONE, Octonion(0.5))], StripDomain(1.0), cfg),
                1e21,
            ),
            # radius**14 is finite, the squared measure of a slab 1e160 wide is not
            (
                lambda cfg: inner_product_strip_volume(ONE, ONE, StripDomain(1e160), cfg),
                2.0,
            ),
            # the tail law's radius**-7 and radius**-8 overflow
            (
                lambda cfg: szego_reproduce_strip([(ONE, Octonion(0.5))], StripDomain(1.0), cfg),
                1e-50,
            ),
            (
                lambda cfg: bergman_reproduce_strip([(ONE, Octonion(0.5))], StripDomain(1.0), cfg),
                1e-50,
            ),
        ],
        ids=[
            "half_space",
            "szego_strip",
            "bergman_strip",
            "wide_strip_volume",
            "szego_strip_small",
            "bergman_strip_small",
        ],
    )
    def test_overflowing_radius_is_refused_before_sampling(self, monkeypatch, estimator, radius):
        # at radius 1e25, std_err and tail_est used to come out NaN
        def no_sampling(*args):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(quadrature, "_chunk_batch", no_sampling)
        with pytest.raises(DomainError, match="too large"):
            estimator(McConfig(samples=2_000, radius=radius))

    def test_bounded_regions_ignore_the_radius(self):
        cfg = McConfig(seed=4, samples=2_000, radius=1e25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (r,) = cauchy_formula_reproduce([(ONE, Octonion(0.0, 0.3))], cfg)
        assert math.isfinite(r.std_err)


class TestBallReproduction:
    def test_cauchy_constant_interior(self):
        (r,) = cauchy_formula_reproduce([(ONE, Octonion(0.0, 0.3))], McConfig(seed=42, samples=200_000))
        assert (r.value - Octonion(1.0)).norm() < 0.02

    def test_cauchy_exterior_targets_zero(self):
        (r,) = cauchy_formula_reproduce([(ONE, Octonion(0.0, 1.3))], McConfig(seed=42, samples=200_000))
        assert r.value.norm() < 0.02

    def test_cauchy_linear_function(self):
        f = linear_monogenic()
        z = Octonion(0.0, 0.2, 0.1)
        (r,) = cauchy_formula_reproduce([(f, z)], McConfig(seed=42, samples=200_000))
        target = f(z)
        assert (r.value - target).norm() < 0.05 * max(target.norm(), 1.0)

    def test_cauchy_theorem_vanishes_for_monogenic(self):
        r = cauchy_theorem_check(linear_monogenic(), McConfig(seed=8, samples=100_000))
        assert r.value.norm() <= 4.0 * r.std_err + 1e-3

    def test_szego_reproduces_constant(self):
        (r,) = szego_reproduce_ball([(ONE, Octonion(0.3))], McConfig(seed=42, samples=200_000))
        assert (r.value - Octonion(1.0)).norm() < 0.05

    def test_bergman_reproduces_constant(self):
        (r,) = bergman_reproduce_ball([(ONE, Octonion(0.0, 0.4))], McConfig(seed=42, samples=400_000))
        assert (r.value - Octonion(1.0)).norm() < 0.05

    def test_bergman_reproduces_linear(self):
        f = linear_monogenic()
        z = Octonion(0.0, 0.2, 0.1)
        (r,) = bergman_reproduce_ball([(f, z)], McConfig(seed=42, samples=400_000))
        target = f(z)
        assert (r.value - target).norm() < 0.05 * max(target.norm(), 1.0)

    def test_szego_reproduce_equals_inner_product_with_kernel_section(self):
        # (f, S(., z)) must be the same estimator as the direct kernel
        # route, bit for bit: conj(S(w, z)) = S(z, w) cancels exactly
        f = shifted_cauchy_kernel(Octonion(-2.0))
        z = Octonion(0.25, 0.1)
        cfg = McConfig(seed=17, samples=100_000)
        (direct,) = szego_reproduce_ball([(f, z)], cfg)
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
        (good,) = cauchy_formula_reproduce([(f, z)], cfg)
        # the package keeps only the correct grouping; the oracle has both
        bad_value, bad_err, _, _ = oracles.cauchy_formula_reproduce_reference(
            f, z, cfg, grouping="kernel_first"
        )
        assert (good.value - target).norm() <= 4.0 * good.std_err
        assert (Octonion(*bad_value) - target).norm() > 5.0 * bad_err


class TestFlatReproduction:
    def test_szego_strip_matches_simpson_oracle(self):
        # oracle computes the same truncated integral deterministically,
        # so the gap is pure Monte Carlo noise
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=11, samples=300_000, radius=2.0)
        (r,) = szego_reproduce_strip([(f, Octonion(0.5))], dom, cfg)
        want = strip_szego_wall_integral(0.5, -1.0, 1.0, 2.0)
        assert abs(r.value.real - want) <= 4.0 * r.std_err
        assert np.abs(r.value.to_array()[1:]).max() <= 4.0 * r.std_err

    def test_bergman_strip_matches_simpson_oracle(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=21, samples=600_000, radius=2.0)
        (r,) = bergman_reproduce_strip([(f, Octonion(0.5))], dom, cfg)
        assert abs(r.value.real - BERGMAN_STRIP_ORACLE_R2) <= 5.0 * r.std_err

    def test_exterior_strip_point_targets_zero(self):
        # f(z) at z = -0.5 would be q0(0.5) = 128; the estimate must be
        # consistent with 0 instead
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=3, samples=200_000, radius=2.0)
        (r,) = szego_reproduce_strip([(f, Octonion(-0.5))], dom, cfg)
        assert r.value.norm() <= 5.0 * r.std_err + r.tail_est

    @pytest.mark.parametrize("estimator", [szego_reproduce_strip, bergman_reproduce_strip])
    def test_radius_50_tail_reads_the_kernel_not_its_truncation(self, estimator):
        # beyond |Im w| = 40 every kernel row takes the closed form, so the
        # shell statistic does not depend on the truncation tolerance
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=42, samples=20_000, radius=50.0)
        tails = [
            estimator([(f, Octonion(0.5))], dom, cfg, TruncationPolicy(tail_tol=tol))[0].tail_est
            for tol in (1e-12, 1e-9)
        ]
        assert _bits(tails[0]) == _bits(tails[1])
        # the direct sum's truncation noise put it near 1e-16
        assert 0.0 < tails[0] < 1e-20

    def test_half_space_matches_simpson_oracle(self):
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=19, samples=200_000, radius=2.0)
        (r,) = szego_reproduce_half_space([(f, Octonion(1.0))], cfg)
        want = half_space_szego_wall_integral(1.0, -1.0, 2.0)
        assert abs(r.value.real - want) <= 4.0 * r.std_err

    def test_half_space_rejects_left_evaluation_point(self):
        with pytest.raises(DomainError):
            szego_reproduce_half_space([(ONE, Octonion(-1.0))], McConfig())

    def test_small_radius_triggers_truncation_warning(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=5, samples=60_000, radius=1.1)
        with pytest.warns(UserWarning, match="increase radius"):
            szego_reproduce_strip([(f, Octonion(0.5))], dom, cfg)

    def test_nan_integrand_gives_nan_tail_estimate(self):
        # the shell statistic of a NaN integrand is NaN; the chunk
        # reduction must keep it rather than report a zero tail, and the
        # estimator must say the estimate is not finite
        dom = StripDomain(1.0)
        nan_fn = lambda pts: np.full(np.shape(pts), np.nan)  # noqa: E731
        cfg = McConfig(seed=5, samples=2_000, radius=2.0)
        with pytest.warns(UserWarning, match="not finite"):
            (r,) = szego_reproduce_strip([(nan_fn, Octonion(0.5))], dom, cfg)
        assert math.isnan(r.tail_est)

    def test_comfortable_radius_is_silent(self):
        dom = StripDomain(1.0)
        f = shifted_cauchy_kernel(Octonion(-1.0))
        cfg = McConfig(seed=5, samples=60_000, radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            szego_reproduce_strip([(f, Octonion(0.5))], dom, cfg)


STRIP = StripDomain(1.0)
BALL_F = shifted_cauchy_kernel(Octonion(-2.0))
STRIP_F = shifted_cauchy_kernel(Octonion(-1.0))
# estimator name -> the arguments before cfg
ESTIMATOR_CASES = {
    "cauchy_theorem_check": (BALL_F,),
    "cauchy_formula_reproduce": (BALL_F, Octonion(0.0, 0.3)),
    "szego_reproduce_ball": (BALL_F, Octonion(0.3, 0.1)),
    "inner_product_hardy_ball": (BALL_F, szego_ball_section(Octonion(0.2, 0.1))),
    "bergman_reproduce_ball": (linear_monogenic(), Octonion(0.0, 0.2, 0.1)),
    "inner_product_bergman_ball": (BALL_F, linear_monogenic()),
    "szego_reproduce_strip": (STRIP_F, Octonion(0.5, 0.2), STRIP),
    "bergman_reproduce_strip": (STRIP_F, Octonion(0.5, 0.2), STRIP),
    "inner_product_strip_boundary": (STRIP_F, shifted_cauchy_kernel(Octonion(2.0, 0.3)), STRIP),
    "inner_product_strip_volume": (STRIP_F, shifted_cauchy_kernel(Octonion(2.0, 0.3)), STRIP),
    "szego_reproduce_half_space": (STRIP_F, Octonion(1.0, 0.2)),
}
ENGINE_CONFIGS = [
    # 20,001 = 4 chunks of 5,000 and a one-row last chunk
    McConfig(seed=3, samples=20_001, chunk=5_000, radius=2.0, threads=1),
    McConfig(seed=3, samples=20_001, chunk=5_000, radius=2.0, threads=2),
    # radius 1.1 makes every flat estimator warn about its tail
    McConfig(seed=5, samples=10_001, chunk=10_000, radius=1.1, threads=2),
    McConfig(seed=8, samples=3_000, radius=50.0),
]


# estimators that take a list of (f, z) cases and return one result per case
REPRODUCERS = {
    "cauchy_formula_reproduce",
    "szego_reproduce_ball",
    "bergman_reproduce_ball",
    "szego_reproduce_strip",
    "bergman_reproduce_strip",
    "szego_reproduce_half_space",
}


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _estimate_one(name, args, cfg):
    """One estimate through the public estimator; a reproduction as a one-case list."""
    fn = getattr(quadrature, name)
    if name in REPRODUCERS:
        (f, z), rest = args[:2], args[2:]
        (result,) = fn([(f, z)], *rest, cfg)
        return result
    return fn(*args, cfg)


def _assert_matches(got, want):
    want_value, want_err, want_tail, _ = want
    assert np.array_equal(_bits(got.value.to_array()), _bits(want_value))
    assert _bits(got.std_err) == _bits(want_err)
    assert _bits(got.tail_est) == _bits(want_tail)


@pytest.fixture
def small_blocks(monkeypatch):
    """Engine blocks of at most 1,000 rows, so every chunk of the engine
    configurations above crosses several blocks."""
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", 1_000)


class TestPairwiseBlocks:
    """The engine's blocks follow numpy's pairwise-summation tree."""

    @pytest.mark.parametrize("block", [quadrature.BLOCK_ROWS, 1_000, 129])
    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 127, 128, 129, 5_000, 10_000, 32_768, 32_769, 82_496, 131_072]
    )
    def test_block_sums_added_up_the_tree_have_the_bits_of_the_whole_sum(
        self, n, block, monkeypatch
    ):
        monkeypatch.setattr(quadrature, "BLOCK_ROWS", block)
        rng = np.random.default_rng(n)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        x[rng.random(n) < 0.1] = 0.0
        x[rng.random(n) < 0.1] = -0.0
        blocks = []

        def leaf(lo, hi):
            blocks.append((lo, hi))
            return x[lo:hi].sum()

        got = quadrature._tree_reduce(n, leaf, lambda a, b: a + b)
        assert _bits(got) == _bits(x.sum())
        # the blocks tile the rows in order, none longer than the bound
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == n
        assert max(hi - lo for lo, hi in blocks) <= block

    @pytest.mark.parametrize("n", [7, 5_000, 82_496])
    def test_a_sum_of_negative_zeros_is_positive_zero_as_numpy_gives_it(self, n, small_blocks):
        x = np.full(n, -0.0)
        got = quadrature._tree_reduce(n, lambda lo, hi: x[lo:hi].sum(), lambda a, b: a + b)
        assert _bits(got) == _bits(x.sum()) == _bits(0.0)

    def test_adding_parts_keeps_a_nan_shell_statistic_from_either_side(self):
        zeros = np.zeros(8)
        for left, right in ((1.0, math.nan), (math.nan, 1.0)):
            ((_, _, shell, _),) = quadrature._add_parts(
                [(zeros, 0.0, left, False)], [(zeros, 0.0, right, False)]
            )
            assert math.isnan(shell)

    def test_a_default_chunk_is_four_blocks_of_32768_rows(self):
        blocks = []
        quadrature._tree_reduce(131_072, lambda lo, hi: blocks.append(hi - lo), lambda a, b: None)
        assert blocks == [32_768] * 4


class TestEngineBitIdentity:
    """Every estimator against its pre-engine form in ``oracles``, bit for bit."""

    @pytest.mark.parametrize(
        "cfg", ENGINE_CONFIGS, ids=lambda c: f"n{c.samples}-c{c.chunk}-R{c.radius}-t{c.threads}"
    )
    @pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
    def test_matches_reference(self, case, cfg):
        args = ESTIMATOR_CASES[case]
        want = getattr(oracles, f"{case}_reference")(*args, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _estimate_one(case, args, cfg)
        _assert_matches(got, want)
        want_msg = want[3]
        assert got.warning == want_msg
        assert [str(w.message) for w in caught] == ([want_msg] if want_msg else [])
        # the warning names the estimator's caller, not the engine
        assert all(w.filename == __file__ for w in caught)

    @pytest.mark.parametrize(
        "cfg", ENGINE_CONFIGS, ids=lambda c: f"n{c.samples}-c{c.chunk}-R{c.radius}-t{c.threads}"
    )
    @pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
    def test_matches_reference_in_small_blocks(self, case, cfg, small_blocks):
        self.test_matches_reference(case, cfg)

    def test_small_radius_config_warns_for_every_flat_estimator(self):
        # guards the configuration above: the warning path is exercised
        cfg = ENGINE_CONFIGS[2]
        flat = [n for n in ESTIMATOR_CASES if "strip" in n or "half_space" in n]
        assert len(flat) == 5
        for name in flat:
            args = ESTIMATOR_CASES[name]
            assert getattr(oracles, f"{name}_reference")(*args, cfg)[3] is not None


# (f, z) lists with z repeated, then changed, then repeated again, for
# each reproduction estimator and the arguments after the cases
MULTI_Z = {
    "ball": (Octonion(0.0, 0.3), Octonion(0.3, 0.1)),
    "strip": (Octonion(0.5, 0.2), Octonion(0.3)),
}
MULTI_CASES = {
    "cauchy_formula_reproduce": ("ball", ()),
    "szego_reproduce_ball": ("ball", ()),
    "bergman_reproduce_ball": ("ball", ()),
    "szego_reproduce_strip": ("strip", (STRIP,)),
    "bergman_reproduce_strip": ("strip", (STRIP,)),
    "szego_reproduce_half_space": ("strip", ()),
}


def _multi_cases(kind):
    f, g = (BALL_F, linear_monogenic()) if kind == "ball" else (STRIP_F, ONE)
    z1, z2 = MULTI_Z[kind]
    return [(f, z1), (g, z1), (f, z2), (g, z2), (f, z2), (g, z1)]


class TestMultiCaseCalls:
    """Every case of one call against the single-case oracle, bit for bit."""

    @pytest.mark.parametrize(
        "cfg", ENGINE_CONFIGS[:3], ids=lambda c: f"n{c.samples}-c{c.chunk}-R{c.radius}-t{c.threads}"
    )
    @pytest.mark.parametrize("case", sorted(MULTI_CASES))
    def test_each_case_matches_its_single_case_oracle(self, case, cfg):
        kind, rest = MULTI_CASES[case]
        cases = _multi_cases(kind)
        oracle = getattr(oracles, f"{case}_reference")
        wants = [oracle(f, z, *rest, cfg) for f, z in cases]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = getattr(quadrature, case)(cases, *rest, cfg)
        assert len(got) == len(cases)
        for result, want in zip(got, wants):
            _assert_matches(result, want)
            assert result.warning == want[3]
        # one warning per case that raises one alone, in case order
        assert [str(w.message) for w in caught] == [w[3] for w in wants if w[3]]
        assert all(w.filename == __file__ for w in caught)

    @pytest.mark.parametrize(
        "cfg", ENGINE_CONFIGS[:3], ids=lambda c: f"n{c.samples}-c{c.chunk}-R{c.radius}-t{c.threads}"
    )
    @pytest.mark.parametrize("case", sorted(MULTI_CASES))
    def test_each_case_matches_its_single_case_oracle_in_small_blocks(
        self, case, cfg, small_blocks
    ):
        self.test_each_case_matches_its_single_case_oracle(case, cfg)

    @pytest.mark.parametrize(
        "case,kernel",
        [
            ("szego_reproduce_strip", "szego_strip_values"),
            ("cauchy_formula_reproduce", "q0_many"),
        ],
    )
    def test_kernel_rows_are_built_once_per_run_of_equal_z(self, monkeypatch, case, kernel):
        built = []
        original = getattr(quadrature, kernel)

        def counting(u, *args):
            built.append(len(u))
            return original(u, *args)

        monkeypatch.setattr(quadrature, kernel, counting)
        kind, rest = MULTI_CASES[case]
        cfg = McConfig(seed=3, samples=10_000, chunk=5_000, radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant cases' tails are not small
            getattr(quadrature, case)(_multi_cases(kind), *rest, cfg)
        # runs z1 z1 | z2 z2 z2 | z1 in each of two chunks
        assert built == [5_000] * 6

    @pytest.mark.parametrize("name", sorted(REPRODUCERS))
    def test_empty_case_list_is_refused_before_sampling(self, monkeypatch, name):
        def no_sampling(*args):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(quadrature, "_chunk_batch", no_sampling)
        rest = (STRIP,) if "strip" in name else ()
        with pytest.raises(DomainError, match="at least one"):
            getattr(quadrature, name)([], *rest, McConfig(samples=2_000, radius=2.0))

    def test_half_space_checks_every_case_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(quadrature, "_chunk_batch", no_sampling)
        cases = [(STRIP_F, Octonion(1.0)), (STRIP_F, Octonion(-1.0))]
        with pytest.raises(DomainError, match="positive real part"):
            szego_reproduce_half_space(cases, McConfig(samples=2_000, radius=2.0))

    def test_a_nan_case_warns_alone(self):
        # the NaN case raises exactly the warning it raises alone; the
        # finite case beside it raises none
        nan_fn = lambda pts: np.full(np.shape(pts), np.nan)  # noqa: E731
        z = Octonion(0.5)
        cfg = McConfig(seed=5, samples=2_000, radius=2.0)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            szego_reproduce_strip([(nan_fn, z)], STRIP, cfg)
        with warnings.catch_warnings(record=True) as finite:
            warnings.simplefilter("always")
            szego_reproduce_strip([(STRIP_F, z)], STRIP, cfg)
        with warnings.catch_warnings(record=True) as both:
            warnings.simplefilter("always")
            nan_res, finite_res = szego_reproduce_strip([(nan_fn, z), (STRIP_F, z)], STRIP, cfg)
        assert len(alone) == 1 and "not finite" in str(alone[0].message)
        assert finite == []
        assert [str(w.message) for w in both] == [str(alone[0].message)]
        assert math.isnan(nan_res.tail_est)
        assert math.isfinite(finite_res.value.norm())


# each region, and its sampler in oracles, at radius 2 where the region is unbounded
LAYOUT_REGIONS = {
    "sphere": (sphere_region(), oracles.sphere_sampler_reference(1.0)),
    "ball": (ball_region(), oracles.ball_sampler_reference(1.0)),
    "strip_boundary": (
        strip_boundary_region(STRIP, 2.0),
        oracles.strip_boundary_sampler_reference(STRIP.d, 2.0),
    ),
    "strip_volume": (
        strip_volume_region(STRIP, 2.0),
        oracles.strip_volume_sampler_reference(STRIP.d, 2.0),
    ),
    "half_space_boundary": (
        half_space_boundary_region(2.0),
        oracles.half_space_sampler_reference(2.0),
    ),
}


def _coordinate_major(x):
    return x.flags.f_contiguous and not x.flags.c_contiguous


class TestCoordinateMajorLayout:
    """Samples are coordinate-major from the sampler to the engine, so the
    products of the hot path move no operand."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_REGIONS))
    def test_samplers_draw_the_reference_samples_coordinate_major(self, name):
        region, reference = LAYOUT_REGIONS[name]
        cfg = McConfig(seed=5, samples=2_501, chunk=1_000, radius=2.0)
        for i, batch in enumerate(sample(region, cfg)):
            start = i * cfg.chunk
            rng = oracles.chunk_rng_reference(cfg.seed, i)
            want = reference(rng, min(cfg.chunk, cfg.samples - start), start, cfg.samples)
            assert np.array_equal(batch.weights, want.weights)
            assert _coordinate_major(batch.points)
            assert np.array_equal(batch.points, want.points)

    def test_hot_path_steps_keep_coordinate_major_input(self):
        rng = np.random.default_rng(11)
        ball = rng.uniform(-0.5, 0.5, (300, 8))
        z = Octonion(0.1, 0.2)

        def strip_u(p):
            return z.to_array() + conj_many(p + np.eye(8)[0])  # 0.6 < Re u < 1.6

        steps = {
            "q0_many": q0_many,
            "conj_many": conj_many,
            "szego_ball_values": lambda p: szego_ball_values(z, p),
            "bergman_ball_values": lambda p: bergman_ball_values(z, p),
            "szego_strip_values": lambda p: szego_strip_values(strip_u(p), 1.0).value,
            "bergman_strip_values": lambda p: bergman_strip_values(strip_u(p), 1.0).value,
            "_unit_rows": quadrature._unit_rows,
            "constant": constant(1.5).eval_batch,
            "linear_monogenic": linear_monogenic().eval_batch,
        }

        for name, step in steps.items():
            got = step(np.asfortranarray(ball))
            want = step(ball)
            assert _coordinate_major(got), name
            if name.endswith("_ball_values"):
                # they end in a mul_many product, coordinate-major for any input
                assert _coordinate_major(want), name
            else:
                assert want.flags.c_contiguous, name
            # the norms over the coordinate axis may sum in another order
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_row_major_test_function_changes_no_bit(self, threads):
        # every integrand ends in a mul_many product, coordinate-major for
        # any operand, so the engine reduces one layout
        cfg = McConfig(seed=6, samples=5_000, chunk=2_000, threads=threads)
        f, g = linear_monogenic(), shifted_cauchy_kernel(Octonion(2.0))

        def row_major(h):
            return lambda p: np.ascontiguousarray(h.eval_batch(p))

        def estimates(f, g):
            (repro,) = szego_reproduce_ball([(f, Octonion(0.1, 0.2))], cfg)
            return repro, inner_product_hardy_ball(f, g, cfg)

        for got, want in zip(estimates(row_major(f), row_major(g)), estimates(f, g)):
            _assert_matches(got, (want.value.to_array(), want.std_err, want.tail_est, None))

    def test_ball_products_drop_zero_terms(self, term_counts):
        # one chunk of 3,000 rows is one block, so one plan per product
        for experiment in ("cauchy_ball", "bergman_ball"):
            suites.reproduce(experiment, McConfig(seed=4, samples=3_000))
        # sparse: n * constant(1) and n * linear (cauchy_ball), nu * f and
        # conj(z) * w at z = 0.4 e1 and 0.2 e1 + 0.1 e2 (bergman_ball)
        assert len(term_counts) == 16
        assert sorted(term_counts) == [8] * 4 + [16] * 3 + [64] * 9

    def test_a_product_of_an_engine_block_is_one_block_of_mul_many(self, term_counts):
        # a default chunk is four engine blocks; mul_many plans each of its
        # own blocks of a sparse product (nu * f and conj(z) * w at both z)
        # and block 0 of a dense one, so one block per product gives
        # 4 * (4 sparse + 6 dense) plans
        suites.reproduce("bergman_ball", McConfig(seed=4, samples=131_072))
        assert len(term_counts) == 40
        assert sorted(term_counts) == [8] * 8 + [16] * 8 + [64] * 24
