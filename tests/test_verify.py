import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from arrayvariate import densities as dn
from arrayvariate import multilinear as ml
from arrayvariate import verify as vf
from arrayvariate.sampling import RandomStream, sample_elliptical_rvecs
from support import random_model


def identity_model(dims, kernel=None):
    kernel = kernel or dn.Kernel.normal()
    return dn.KroneckerModel(np.zeros(dims), [np.eye(d) for d in dims], kernel)


class TestNormalization:
    def test_normal_identity_m2(self):
        report = vf.check_normalization(identity_model((2,)), 200_000, RandomStream(201))
        assert report.passed
        assert abs(report.estimate - 1.0) <= 0.01

    def test_t5_m2(self):
        gen = np.random.default_rng(202)
        model = random_model(gen, (2,), dn.Kernel.student_t(5.0))
        report = vf.check_normalization(model, 200_000, RandomStream(203))
        assert report.passed
        assert abs(report.estimate - 1.0) <= 0.02

    def test_t5_identity_integrates_to_one(self):
        report = vf.check_normalization(identity_model((2,), dn.Kernel.student_t(5.0)),
                                        200_000, RandomStream(218))
        assert report.passed
        assert abs(report.estimate - 1.0) <= 0.01

    def test_degenerate_shape_by_quadrature(self):
        # independent one-dimensional check of the same integral
        gen = np.random.default_rng(204)
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(5.0)):
            model = random_model(gen, (1, 1), kernel)
            total, _ = integrate.quad(
                lambda x: math.exp(dn.logpdf_elliptical(model, np.array([[x]]))), -np.inf, np.inf
            )
            assert total == pytest.approx(1.0, abs=1e-8)
        report = vf.check_normalization(model, 50_000, RandomStream(205))
        assert report.passed

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            vf.check_normalization(identity_model((7,)), 10_000, RandomStream(1))

    def test_cauchy_kernel_supported(self):
        report = vf.check_normalization(identity_model((2,), dn.Kernel.cauchy()),
                                        100_000, RandomStream(206))
        assert report.passed

    def test_non_finite_estimate_fails(self):
        report = vf.check_normalization(identity_model((1,), dn.Kernel.student_t(0.01)),
                                        10_000, RandomStream(1))
        assert not math.isfinite(report.estimate)
        assert not report.passed
        assert report.line().split()[:6] == ["normalization-t0.01-1", "nan", "nan", "1", "0", "fail"]

    def test_reproducible_from_seed(self):
        model = identity_model((2, 2))
        a = vf.check_normalization(model, 20_000, RandomStream(207))
        b = vf.check_normalization(model, 20_000, RandomStream(207))
        assert a == b
        assert a.line() == b.line()


class TestCovariance:
    def test_identity_model(self):
        report = vf.check_covariance(identity_model((2, 2)), 100_000, RandomStream(208))
        assert report.passed

    def test_diagonal_example_target(self):
        model = dn.KroneckerModel(
            np.zeros((2, 1)), [np.diag([1.0, 2.0]), np.diag([3.0])], dn.Kernel.normal()
        )
        np.testing.assert_allclose(vf.implied_covariance(model), np.diag([9.0, 36.0]))
        report = vf.check_covariance(model, 100_000, RandomStream(209))
        assert report.passed

    def test_t_kernel_scaled_target(self):
        gen = np.random.default_rng(210)
        v = 8.0
        model = random_model(gen, (2,), dn.Kernel.student_t(v))
        report = vf.check_covariance(model, 200_000, RandomStream(211))
        assert report.passed

    def test_t2_has_no_covariance(self):
        model = identity_model((2,), dn.Kernel.student_t(2.0))
        with pytest.raises(ValueError, match="covariance"):
            vf.check_covariance(model, 10_000, RandomStream(1))

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            vf.check_covariance(identity_model((5, 4)), 10_000, RandomStream(1))


class TestRadial:
    def test_normal_m2(self):
        model = random_model(np.random.default_rng(212), (2,), dn.Kernel.normal())
        report = vf.check_radial(model, 20_000, RandomStream(212))
        assert report.passed
        # the radial CDF must match the Rayleigh law
        grid = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(dn.radial_cdf(model.kernel, grid, 2), stats.rayleigh.cdf(grid), atol=1e-7)

    def test_t4_m1_matches_folded_t(self):
        model = random_model(np.random.default_rng(213), (1,), dn.Kernel.student_t(4.0))
        report = vf.check_radial(model, 20_000, RandomStream(213))
        assert report.passed
        grid = np.linspace(0.0, 5.0, 9)
        np.testing.assert_allclose(dn.radial_cdf(model.kernel, grid, 1), 2 * stats.t.cdf(grid, 4.0) - 1, atol=1e-7)

    def test_normal_m1_matches_half_normal(self):
        model = random_model(np.random.default_rng(214), (1,), dn.Kernel.normal())
        report = vf.check_radial(model, 20_000, RandomStream(214))
        assert report.passed
        grid = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(dn.radial_cdf(model.kernel, grid, 1), 2 * stats.norm.cdf(grid) - 1, atol=1e-7)

    def test_zero_t_divisor_raises_overflow(self):
        # at df = 0.001 most chi-square divisors underflow to 0: the check
        # raises instead of testing inf radii
        with pytest.raises(OverflowError, match=r"^t kernel with df 0\.001: draw \d+ .* radius divisor is 0\)$"):
            vf.check_radial(identity_model((1,), dn.Kernel.student_t(0.001)), 10_000, RandomStream(1))

    def test_memory_is_bounded_by_the_block(self):
        # the 5,000 draws alone would take 164 MB
        model = identity_model((16, 16, 16))
        tracemalloc.start()
        try:
            vf.check_radial(model, 5_000, RandomStream(223))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 12), df=st.floats(1.0, 30.0), r=st.floats(0.0, 25.0))
    def test_closed_form_cdf_matches_quadrature(self, m, df, r):
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(df)):
            oracle, _ = integrate.quad(lambda s: dn.radial_pdf(kernel, s, m), 0.0, r,
                                       epsabs=1e-11, epsrel=1e-9, limit=200)
            assert float(dn.radial_cdf(kernel, np.array(r), m)) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(1.0), dn.Kernel.student_t(4.0)])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_radial_quadrature_normalizes(self, kernel, m):
        total, _ = integrate.quad(lambda r: dn.radial_pdf(kernel, r, m), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestRadialRadii:
    """The radii check_radial tests are the draws' own ``||z_k|| / d_k``, regenerated
    from a second stream with the same seed: the sampler draws a call's divisors
    (t only), then each draw's m normals."""

    KERNELS = [dn.Kernel.normal(), dn.Kernel.student_t(5.0)]
    DIMS = [(7,), (3, 4), (2, 3, 5)]
    RTOL = 1e-12  # rounding through well-conditioned factors; measured <= 7e-16

    @staticmethod
    def expected(kernel, m, calls, seed):
        gen = RandomStream(seed).generator
        out = []
        for n in calls:
            d = np.sqrt(gen.chisquare(kernel.df, size=n) / kernel.df) if kernel.df else 1.0
            out.append(np.linalg.norm(gen.standard_normal((n, m)), axis=1) / d)
        return np.concatenate(out)

    @staticmethod
    def tile_rows(m):
        return max(8, ml.TILE_BYTES // (8 * m))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("dims", DIMS)
    def test_squared_norms_of_draws(self, kernel, dims):
        model = random_model(np.random.default_rng(219), dims, kernel)
        rows = self.tile_rows(model.m)
        for n in (rows + 7, rows + 8):  # one row tile, then two
            got = np.sqrt(dn.squared_norms(model, sample_elliptical_rvecs(model, n, RandomStream(220))))
            np.testing.assert_allclose(got, self.expected(kernel, model.m, [n], 220), rtol=self.RTOL)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("dims", DIMS)
    def test_check_radial_tests_those_radii(self, kernel, dims, monkeypatch):
        model = random_model(np.random.default_rng(221), dims, kernel)
        seen, ks_1samp = [], stats.ks_1samp

        def recording_ks_1samp(radii, cdf):
            seen.append(radii.copy())
            return ks_1samp(radii, cdf)

        monkeypatch.setattr(stats, "ks_1samp", recording_ks_1samp)
        n = self.tile_rows(model.m) + 8
        vf.check_radial(model, n, RandomStream(222))
        np.testing.assert_allclose(seen.pop(), self.expected(kernel, model.m, [n], 222), rtol=self.RTOL)
        # blocks of 1,000 draws: each block is one sampler call
        monkeypatch.setattr(vf, "RADIAL_BLOCK_VALUES", 1000 * model.m)
        vf.check_radial(model, n, RandomStream(222))
        calls = [1000] * (n // 1000) + [n % 1000]
        np.testing.assert_allclose(seen.pop(), self.expected(kernel, model.m, calls, 222), rtol=self.RTOL)


class TestModelFaults:
    def test_one_percent_factor_error_fails_at_8x8x8(self):
        # the radial check is the only check run_suite makes at m = 512
        model = random_model(np.random.default_rng(224), (8, 8, 8), dn.Kernel.normal())
        [report] = vf.run_suite(model, 10_000, RandomStream(225))
        assert (report.name, report.passed) == ("radial-normal-m512", True)
        # one inverse factor off by 1%, in the density path only: the sampler reads model.factors
        model.inv_factors = (model.inv_factors[0] / 1.01, *model.inv_factors[1:])
        [report] = vf.run_suite(model, 10_000, RandomStream(225))
        assert (report.name, report.passed) == ("radial-normal-m512", False)


class TestSuite:
    def test_runs_applicable_checks(self):
        model = identity_model((2, 2))
        reports = vf.run_suite(model, 20_000, RandomStream(215))
        names = [r.name.split("-")[0] for r in reports]
        assert names == ["normalization", "covariance", "radial"]
        assert all(r.passed for r in reports)

    def test_m_too_large_for_normalization_still_runs_others(self):
        model = identity_model((3, 3))
        reports = vf.run_suite(model, 20_000, RandomStream(216))
        names = [r.name.split("-")[0] for r in reports]
        assert names == ["covariance", "radial"]

    def test_reports_reproducible(self):
        model = identity_model((2,))
        a = vf.run_suite(model, 20_000, RandomStream(217))
        b = vf.run_suite(model, 20_000, RandomStream(217))
        assert [r.line() for r in a] == [r.line() for r in b]

    def test_line_format(self):
        report = vf.McReport("radial-normal-m2", 0.5, 0.0, 0.01, 0.003, True, 1000, 42)
        fields = report.line().split()
        assert fields[0] == "radial-normal-m2"
        assert fields[5] == "pass"
        assert fields[6] == "1000"
        assert fields[7] == "42"
