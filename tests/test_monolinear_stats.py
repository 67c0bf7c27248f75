import math

import numpy as np
import pytest
from scipy import stats

from arrayvariate import densities as dn
from arrayvariate import monolinear_stats as ms
from arrayvariate.array_core import rvec
from arrayvariate.errors import SingularMatrixError
from arrayvariate.sampling import RandomStream, sample_elliptical_rvecs
from support import random_model, random_shape


class TestToMonolinear:
    def test_identity_factors(self):
        model = dn.KroneckerModel(np.zeros((2, 3)), [np.eye(2), np.eye(3)], dn.Kernel.normal())
        dist = ms.to_monolinear(model)
        np.testing.assert_allclose(dist.cov, np.eye(6), atol=1e-14)
        np.testing.assert_array_equal(dist.mean, np.zeros(6))

    def test_single_mode(self):
        gen = np.random.default_rng(81)
        a = np.eye(3) + 0.2 * gen.standard_normal((3, 3))
        model = dn.KroneckerModel(np.zeros(3), [a], dn.Kernel.normal())
        np.testing.assert_allclose(ms.to_monolinear(model).cov, a @ a.T, atol=1e-13)

    def test_two_mode_diagonal_example(self):
        model = dn.KroneckerModel(
            np.zeros((2, 1)), [np.diag([1.0, 2.0]), np.diag([3.0])], dn.Kernel.normal()
        )
        np.testing.assert_allclose(ms.to_monolinear(model).cov, np.diag([9.0, 36.0]), atol=1e-13)

    def test_capacity_guard(self):
        model = dn.KroneckerModel(np.zeros((65, 65)), [np.eye(65), np.eye(65)], dn.Kernel.normal())
        with pytest.raises(ValueError, match="guard"):
            ms.to_monolinear(model)

    def test_covariance_is_spd(self):
        gen = np.random.default_rng(82)
        for _ in range(25):
            dims = random_shape(gen, max_order=3, max_dim=3, max_cells=27)
            model = random_model(gen, dims, dn.Kernel.normal())
            dist = ms.to_monolinear(model)  # construction runs the Cholesky
            assert np.max(np.abs(dist.cov - dist.cov.T)) <= 1e-12


class TestDensityConsistency:
    def test_structured_density_matches_monolinear(self):
        gen = np.random.default_rng(83)
        for _ in range(50):
            dims = random_shape(gen, max_order=3, max_dim=3, max_cells=24)
            model = random_model(gen, dims, dn.Kernel.normal())
            dist = ms.to_monolinear(model)
            x = model.mean + gen.standard_normal(dims)
            rel_gap = abs(math.expm1(dn.logpdf_elliptical(model, x) - dist.logpdf(rvec(x))))
            assert rel_gap <= 1e-10

    def test_against_scipy_reference(self):
        gen = np.random.default_rng(84)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        dist = ms.to_monolinear(model)
        x = gen.standard_normal(4)
        reference = stats.multivariate_normal(mean=dist.mean, cov=dist.cov).logpdf(x)
        assert dist.logpdf(x) == pytest.approx(reference, abs=1e-10)


class TestValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ms.MonolinearNormal(np.zeros(2), cov)

    def test_indefinite_covariance_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="positive definite"):
            ms.MonolinearNormal(np.zeros(2), cov)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="covariance shape"):
            ms.MonolinearNormal(np.zeros(3), np.eye(2))


class TestMarginal:
    def test_keep_all_is_identity(self):
        dist = ms.MonolinearNormal(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        out = ms.marginal(dist, (1, 2))
        np.testing.assert_array_equal(out.mean, dist.mean)
        np.testing.assert_array_equal(out.cov, dist.cov)

    def test_diagonal_covariance(self):
        dist = ms.MonolinearNormal(np.array([0.0, 1.0, 2.0]), np.diag([1.0, 4.0, 9.0]))
        out = ms.marginal(dist, (3, 1))
        np.testing.assert_array_equal(out.mean, [2.0, 0.0])
        np.testing.assert_array_equal(out.cov, np.diag([9.0, 1.0]))

    def test_empty_or_out_of_range(self):
        dist = ms.MonolinearNormal(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="non-empty"):
            ms.marginal(dist, ())
        with pytest.raises(ValueError, match="out of range"):
            ms.marginal(dist, (3,))
        with pytest.raises(ValueError, match="duplicate"):
            ms.marginal(dist, (1, 1))

    def test_matches_empirical_moments(self):
        gen = np.random.default_rng(85)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        dist = ms.to_monolinear(model)
        part = ms.marginal(dist, (1, 4))
        n = 100_000
        rows = sample_elliptical_rvecs(model, n, RandomStream(86))[:, [0, 3]]
        mean_se = rows.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.max(np.abs(rows.mean(axis=0) - part.mean) / mean_se) <= 3.0
        var_gap = rows.var(axis=0, ddof=1) - np.diag(part.cov)
        var_se = np.diag(part.cov) * math.sqrt(2.0 / n)
        assert np.max(np.abs(var_gap) / var_se) <= 3.0


class TestConditional:
    def test_bivariate_textbook_case(self):
        rho = 0.6
        dist = ms.MonolinearNormal(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        y = 0.8
        out = ms.conditional(dist, (2,), (y,))
        assert out.mean[0] == pytest.approx(rho * y, rel=1e-12)
        assert out.cov[0, 0] == pytest.approx(1 - rho**2, rel=1e-12)

    def test_bivariate_against_rejection_window(self):
        rho, y = 0.6, 0.8
        dist = ms.MonolinearNormal(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        out = ms.conditional(dist, (2,), (y,))
        gen = np.random.default_rng(87)
        draws = gen.multivariate_normal(np.zeros(2), dist.cov, size=400_000)
        window = draws[np.abs(draws[:, 1] - y) < 0.02, 0]
        se = window.std(ddof=1) / math.sqrt(window.size)
        assert abs(window.mean() - out.mean[0]) <= 4 * se

    def test_diagonal_independence(self):
        dist = ms.MonolinearNormal(np.array([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0]))
        out = ms.conditional(dist, (2,), (10.0,))
        np.testing.assert_allclose(out.mean, [1.0, 3.0])
        np.testing.assert_allclose(out.cov, np.diag([1.0, 3.0]))

    def test_covariance_independent_of_values(self):
        gen = np.random.default_rng(88)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        dist = ms.to_monolinear(model)
        a = ms.conditional(dist, (1, 3), (0.0, 0.0))
        b = ms.conditional(dist, (1, 3), (5.0, -2.0))
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_conditioning_then_marginalizing_consistent(self):
        gen = np.random.default_rng(89)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        dist = ms.to_monolinear(model)
        values = gen.standard_normal(3)
        direct = ms.conditional(dist, (1, 2, 4), values)
        partial = ms.conditional(dist, (1, 2), values[:2])
        # condition the remaining two coordinates (original 3 and 4) on the last one
        chained = ms.conditional(partial, (2,), values[2:])
        assert chained.mean[0] == pytest.approx(direct.mean[0], abs=1e-10)
        assert chained.cov[0, 0] == pytest.approx(direct.cov[0, 0], abs=1e-10)

    def test_proper_subset_required(self):
        dist = ms.MonolinearNormal(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="proper subset"):
            ms.conditional(dist, (1, 2), (0.0, 0.0))

    def test_value_count_mismatch(self):
        dist = ms.MonolinearNormal(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="values"):
            ms.conditional(dist, (1,), (0.0, 1.0))
