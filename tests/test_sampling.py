import math

import numpy as np
import pytest
from scipy import stats

from arrayvariate import densities as dn
from arrayvariate import sampling as sp
from arrayvariate.array_core import rvec
from arrayvariate.kronecker import inv_kron_chain
from support import model_radii, random_model, sq_norm


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

    @pytest.mark.parametrize("seed", [0, 7, -1, -(2**63), 2**64 + 5, np.int64(-5)])
    def test_whole_seed_is_taken_modulo_2_64(self, seed):
        # negative and oversized whole seeds keep the 64-bit seed they always had
        assert sp.RandomStream(seed).seed == int(seed) % 2**64


class TestStdNormalArray:
    """Identity normal model: every draw's cells are i.i.d. standard normal."""

    @staticmethod
    def draws(shape, n, seed):
        model = dn.KroneckerModel(np.zeros(shape), [np.eye(d) for d in shape], dn.Kernel.normal())
        return sp.sample_elliptical_rvecs(model, n, sp.RandomStream(seed))

    def test_entry_means(self):
        n = 100_000
        rows = self.draws((2, 2), n, 100)
        bound = 3.0 / math.sqrt(n)
        assert np.max(np.abs(rows.mean(axis=0))) <= bound

    def test_sq_norm_is_chi_square(self):
        m = 6
        rows = self.draws((2, 3), 20_000, 101)
        values = np.einsum("ij,ij->i", rows, rows)
        assert stats.kstest(values, stats.chi2(m).cdf).pvalue >= 0.01

    def test_reproducible_first_draw(self):
        first = self.draws((2, 2), 1, 7)
        again = self.draws((2, 2), 1, 7)
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


def radii(kernel, dims, n, stream):
    """Radii of n draws of the identity model, standardized by the density's path."""
    model = dn.KroneckerModel(np.zeros(dims), [np.eye(d) for d in dims], kernel)
    return model_radii(model, n, stream)


class TestRadius:
    DIMS = {1: (1,), 6: (2, 3), 512: (8, 8, 8)}

    def test_normal_m2_is_rayleigh(self):
        r = radii(dn.Kernel.normal(), (2,), 50_000, sp.RandomStream(105))
        assert stats.kstest(r, stats.rayleigh.cdf).pvalue >= 0.01

    def test_t4_m1_is_folded_t(self):
        r = radii(dn.Kernel.student_t(4.0), (1,), 50_000, sp.RandomStream(106))
        assert stats.kstest(r, lambda x: 2 * stats.t.cdf(x, 4.0) - 1).pvalue >= 0.01

    @pytest.mark.parametrize("seed", [0, 108])
    @pytest.mark.parametrize("m", [1, 6, 512])
    def test_t_radius_is_chi_over_scaled_chi(self, seed, m):
        df = 5.0
        gen = np.random.default_rng(seed)
        # the sampler draws the n divisors first, then each draw's m normals
        d = np.sqrt(gen.chisquare(df, size=300) / df)
        expected = np.linalg.norm(gen.standard_normal((300, m)), axis=1) / d
        r = radii(dn.Kernel.student_t(df), self.DIMS[m], 300, sp.RandomStream(seed))
        # identity factors: only the division and the two sums of squares round
        np.testing.assert_allclose(r, expected, rtol=m * np.finfo(float).eps, atol=0.0)

    def test_nonnegative(self):
        stream = sp.RandomStream(107)
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(2.5), dn.Kernel.cauchy()):
            assert np.all(radii(kernel, (3,), 200, stream) >= 0.0)

    def test_zero_t_divisor_raises_overflow(self):
        # the kernel rejects a chi-square draw that underflowed to 0 before
        # the normals are divided by it; a RuntimeWarning would fail this test
        with pytest.raises(OverflowError, match=r"^t kernel with df 0\.001: draw \d+ .* radius divisor is 0\)$"):
            radii(dn.Kernel.student_t(0.001), (1,), 2000, sp.RandomStream(1))

    def test_custom_kernel_unsupported(self):
        kernel = dn.Kernel.custom(lambda t: -t, lambda k: 0.0)
        with pytest.raises(NotImplementedError):
            radii(kernel, (2,), 3, sp.RandomStream(1))
        with pytest.raises(NotImplementedError):
            dn.radial_cdf(kernel, 1.0, 2)


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
        kernel = dn.Kernel.custom(lambda t: -t, lambda k: 0.0)
        model = dn.KroneckerModel(np.zeros(2), [np.eye(2)], kernel)
        with pytest.raises(NotImplementedError):
            sp.sample_elliptical(model, 3, sp.RandomStream(1))

    def test_zero_t_divisor_raises_overflow(self):
        # at df = 0.001 most chi-square draws underflow to exactly 0, so z / d
        # would be inf; the suite's filter makes a RuntimeWarning fail this test
        model = dn.KroneckerModel(np.zeros(1), [np.eye(1)], dn.Kernel.student_t(0.001))
        with pytest.raises(OverflowError, match=r"^t kernel with df 0\.001: draw \d+ .* radius divisor is 0\)$"):
            sp.sample_elliptical_rvecs(model, 2000, sp.RandomStream(1))

    @pytest.mark.parametrize("divisor, factor, mean", [
        pytest.param(1e-310, 1.0, 0.0, id="subnormal-divisor"),
        pytest.param(1.0, 1e308, 0.0, id="factor-overflow"),
        pytest.param(1.0, 1e307, 1.7e308, id="mean-overflow"),
    ])
    def test_overflowing_draw_raises(self, monkeypatch, divisor, factor, mean):
        # each case overflows at a different step of a tile: z / d, the
        # per-mode map, or the location shift
        monkeypatch.setattr(dn.NormalKernel, "_radius_divisor", lambda self, n, gen: np.full(n, divisor))
        model = dn.KroneckerModel(np.full((2, 3), mean), [factor * np.eye(2), np.eye(3)], dn.Kernel.normal())
        with pytest.raises(OverflowError, match=r"^normal kernel: draw \d+ is not representable in floating point \(it overflows\)$"):
            sp.sample_elliptical_rvecs(model, 200, sp.RandomStream(5))

    def test_finite_draws_pass_the_check(self):
        # the largest draws that still fit are returned, not rejected
        model = dn.KroneckerModel(np.zeros((2, 3)), [1e300 * np.eye(2), np.eye(3)], dn.Kernel.normal())
        rows = sp.sample_elliptical_rvecs(model, 200, sp.RandomStream(5))
        assert np.isfinite(rows).all()
        assert np.abs(rows).max() > 1e300
