import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from arrayvariate import densities as dn
from arrayvariate import verify as vf
from arrayvariate.sampling import RandomStream
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
        report = vf.check_radial(dn.Kernel.normal(), 2, 20_000, RandomStream(212))
        assert report.passed
        # the radial CDF must match the Rayleigh law
        grid = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            vf.radial_cdf(dn.Kernel.normal(), 2)(grid), stats.rayleigh.cdf(grid), atol=1e-7
        )

    def test_t4_m1_matches_folded_t(self):
        report = vf.check_radial(dn.Kernel.student_t(4.0), 1, 20_000, RandomStream(213))
        assert report.passed
        grid = np.linspace(0.0, 5.0, 9)
        np.testing.assert_allclose(
            vf.radial_cdf(dn.Kernel.student_t(4.0), 1)(grid),
            2 * stats.t.cdf(grid, 4.0) - 1,
            atol=1e-7,
        )

    def test_normal_m1_matches_half_normal(self):
        report = vf.check_radial(dn.Kernel.normal(), 1, 20_000, RandomStream(214))
        assert report.passed
        grid = np.linspace(0.0, 4.0, 9)
        np.testing.assert_allclose(
            vf.radial_cdf(dn.Kernel.normal(), 1)(grid), 2 * stats.norm.cdf(grid) - 1, atol=1e-7
        )

    def test_zero_t_divisor_raises_overflow(self):
        # at df = 0.001 most chi-square divisors underflow to 0: the check
        # raises instead of testing inf radii
        with pytest.raises(OverflowError, match=r"^t kernel with df 0\.001: draw \d+ .* radius divisor is 0\)$"):
            vf.check_radial(dn.Kernel.student_t(0.001), 1, 10_000, RandomStream(1))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 12), df=st.floats(1.0, 30.0), r=st.floats(0.0, 25.0))
    def test_closed_form_cdf_matches_quadrature(self, m, df, r):
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(df)):
            oracle, _ = integrate.quad(lambda s: dn.radial_pdf(kernel, s, m), 0.0, r,
                                       epsabs=1e-11, epsrel=1e-9, limit=200)
            assert vf.radial_cdf(kernel, m)(r) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(1.0), dn.Kernel.student_t(4.0)])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_radial_quadrature_normalizes(self, kernel, m):
        total, _ = integrate.quad(lambda r: dn.radial_pdf(kernel, r, m), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)


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
