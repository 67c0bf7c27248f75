import math

import numpy as np
import pytest
from scipy import stats

from arrayvariate import densities as dn
from arrayvariate import sampling as sp
from arrayvariate.array_core import rvec, sq_norm
from arrayvariate.kronecker import inv_kron_chain
from support import random_model


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = sp.RandomStream(123).generator.standard_normal(16)
        b = sp.RandomStream(123).generator.standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_split_is_deterministic(self):
        s = sp.RandomStream(9)
        seeds = [s.split(i).seed for i in range(8)]
        assert seeds == [sp.RandomStream(9).split(i).seed for i in range(8)]
        assert len(set(seeds)) == len(seeds)
        assert all(child != 9 for child in seeds)

    def test_split_rejects_negative(self):
        with pytest.raises(ValueError):
            sp.RandomStream(1).split(-1)


class TestStdNormalArray:
    def test_entry_means(self):
        n = 100_000
        stream = sp.RandomStream(100)
        total = np.zeros((2, 2))
        for _ in range(n):
            total += sp.sample_std_normal_array((2, 2), stream)
        bound = 3.0 / math.sqrt(n)
        assert np.max(np.abs(total / n)) <= bound

    def test_sq_norm_is_chi_square(self):
        stream = sp.RandomStream(101)
        m = 6
        values = np.array([sq_norm(sp.sample_std_normal_array((2, 3), stream)) for _ in range(20_000)])
        assert stats.kstest(values, stats.chi2(m).cdf).pvalue >= 0.01

    def test_reproducible_first_draw(self):
        first = sp.sample_std_normal_array((2, 2), sp.RandomStream(7))
        again = sp.sample_std_normal_array((2, 2), sp.RandomStream(7))
        np.testing.assert_array_equal(first, again)


def directions(kernel, dims, n, stream):
    """Unit directions u of n draws of the identity model: x = r * u."""
    model = dn.KroneckerModel(np.zeros(dims), [np.eye(d) for d in dims], kernel)
    rows = sp.sample_elliptical_rvecs(model, n, stream)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestSphere:
    def test_sign_balance_1d(self):
        n = 10_000
        draws = directions(dn.Kernel.student_t(3.0), (1,), n, sp.RandomStream(103))[:, 0]
        assert set(np.unique(draws)) <= {-1.0, 1.0}
        freq = np.mean(draws > 0)
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(n)

    def test_coordinate_means(self):
        m, n = 4, 20_000
        draws = directions(dn.Kernel.normal(), (2, 2), n, sp.RandomStream(104))
        # each coordinate has variance 1/m on the sphere
        assert np.max(np.abs(draws.mean(axis=0))) <= 3 / math.sqrt(m * n)


class TestRadius:
    def test_normal_m2_is_rayleigh(self):
        radii = sp.sample_radii(dn.Kernel.normal(), 2, 50_000, sp.RandomStream(105))
        assert stats.kstest(radii, stats.rayleigh.cdf).pvalue >= 0.01

    def test_t4_m1_is_folded_t(self):
        radii = sp.sample_radii(dn.Kernel.student_t(4.0), 1, 50_000, sp.RandomStream(106))
        assert stats.kstest(radii, lambda r: 2 * stats.t.cdf(r, 4.0) - 1).pvalue >= 0.01

    @pytest.mark.parametrize("seed", [0, 108])
    @pytest.mark.parametrize("m", [1, 6, 512])
    def test_t_radius_is_chi_over_scaled_chi(self, seed, m):
        df = 5.0
        gen = np.random.default_rng(seed)
        chi = np.sqrt(gen.chisquare(m, size=300))
        expected = chi / np.sqrt(gen.chisquare(df, size=300) / df)
        radii = sp.sample_radii(dn.Kernel.student_t(df), m, 300, sp.RandomStream(seed))
        np.testing.assert_array_equal(radii, expected)

    def test_nonnegative(self):
        stream = sp.RandomStream(107)
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(2.5), dn.Kernel.cauchy()):
            assert np.all(sp.sample_radii(kernel, 3, 200, stream) >= 0.0)

    def test_custom_kernel_unsupported(self):
        kernel = dn.Kernel.custom(lambda t: np.exp(-t), lambda k: 0.0)
        with pytest.raises(NotImplementedError):
            sp.sample_radii(kernel, 2, 3, sp.RandomStream(1))
        with pytest.raises(NotImplementedError):
            kernel.radial_cdf(1.0, 2)


class TestElliptical:
    def test_identity_normal_matches_std_normal_law(self):
        gen_model = dn.KroneckerModel(np.zeros((2, 2)), [np.eye(2), np.eye(2)], dn.Kernel.normal())
        rows = sp.sample_elliptical_rvecs(gen_model, 20_000, sp.RandomStream(110))
        norms = np.einsum("ij,ij->i", rows, rows)
        assert stats.kstest(norms, stats.chi2(4).cdf).pvalue >= 0.01

    def test_covariance_recovery_normal(self):
        gen = np.random.default_rng(111)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        n = 100_000
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(112))
        k = inv_kron_chain(model.factors)
        target = k @ k.T
        centered = rows - rows.mean(axis=0)
        sample_cov = centered.T @ centered / (n - 1)
        sq = centered * centered
        se = np.sqrt((sq.T @ sq / n - (centered.T @ centered / n) ** 2) / n)
        assert np.max(np.abs(sample_cov - target) / se) <= 5.0

    def test_mean_recovery(self):
        gen = np.random.default_rng(113)
        model = random_model(gen, (2, 3), dn.Kernel.normal())
        n = 100_000
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(114))
        se = rows.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.max(np.abs(rows.mean(axis=0) - rvec(model.mean)) / se) <= 5.0

    def test_standardized_sq_norm_is_chi_square(self):
        gen = np.random.default_rng(115)
        model = random_model(gen, (2, 2, 2), dn.Kernel.normal())
        draws = sp.sample_elliptical(model, 20_000, sp.RandomStream(116))
        values = np.array([sq_norm(dn.standardize(model, x)) for x in draws])
        assert stats.kstest(values, stats.chi2(8).cdf).pvalue >= 0.01

    def test_student_t_covariance_scaling(self):
        gen = np.random.default_rng(117)
        v = 8.0
        model = random_model(gen, (2, 2), dn.Kernel.student_t(v))
        n = 500_000
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(118))
        k = inv_kron_chain(model.factors)
        target = (v / (v - 2.0)) * (k @ k.T)
        centered = rows - rows.mean(axis=0)
        sample_cov = centered.T @ centered / (n - 1)
        sq = centered * centered
        se = np.sqrt((sq.T @ sq / n - (centered.T @ centered / n) ** 2) / n)
        assert np.max(np.abs(sample_cov - target) / se) <= 5.0

    def test_bitwise_determinism(self):
        gen = np.random.default_rng(119)
        model = random_model(gen, (2, 3), dn.Kernel.student_t(3.0))
        a = sp.sample_elliptical_rvecs(model, 64, sp.RandomStream(120))
        b = sp.sample_elliptical_rvecs(model, 64, sp.RandomStream(120))
        np.testing.assert_array_equal(a, b)
        draws_a = sp.sample_elliptical(model, 5, sp.RandomStream(121))
        draws_b = sp.sample_elliptical(model, 5, sp.RandomStream(121))
        for x, y in zip(draws_a, draws_b):
            np.testing.assert_array_equal(x, y)

    def test_zero_draws(self):
        model = dn.KroneckerModel(np.zeros(3), [np.eye(3)], dn.Kernel.normal())
        assert sp.sample_elliptical(model, 0, sp.RandomStream(1)) == []

    def test_affine_consistency_entropy(self):
        # mean log-density under the model equals the negated differential entropy
        gen = np.random.default_rng(122)
        model = random_model(gen, (2, 3), dn.Kernel.normal())
        n = 10_000
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(123))
        values = dn.logpdf_elliptical_rvecs(model, rows)
        m = model.m
        expected = -(m / 2) * (1 + math.log(2 * math.pi)) - model.log_jac
        se = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - expected) <= 3 * se

    def test_custom_kernel_unsupported(self):
        kernel = dn.Kernel.custom(lambda t: np.exp(-t), lambda k: 0.0)
        model = dn.KroneckerModel(np.zeros(2), [np.eye(2)], kernel)
        with pytest.raises(NotImplementedError):
            sp.sample_elliptical(model, 3, sp.RandomStream(1))
