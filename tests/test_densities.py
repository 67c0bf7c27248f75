import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from arrayvariate import densities as dn
from arrayvariate import kronecker, linalg
from arrayvariate.array_core import rvec, unrvec
from arrayvariate.errors import SingularMatrixError
from arrayvariate.multilinear import r_multiply
from support import model_log_jac, random_model, random_shape, to_monolinear, well_conditioned, with_kernel


def identity_model(dims, kernel=None):
    kernel = kernel or dn.Kernel.normal()
    return dn.KroneckerModel(np.zeros(dims), [np.eye(d) for d in dims], kernel)


class TestKernelPdf:
    def test_normal_at_origin_1d(self):
        assert np.exp(dn.log_kernel_pdf(dn.Kernel.normal(), 0.0, 1)) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_cauchy_at_origin_1d(self):
        # Gamma(1) / (Gamma(1/2) sqrt(pi)) = 1/pi
        assert np.exp(dn.log_kernel_pdf(dn.Kernel.student_t(1.0), 0.0, 1)) == pytest.approx(1 / math.pi)

    def test_normal_2d_value(self):
        expected = math.exp(-1.0) / (2 * math.pi)
        assert np.exp(dn.log_kernel_pdf(dn.Kernel.normal(), 2.0, 2)) == pytest.approx(expected, rel=1e-14)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            dn.log_kernel_pdf(dn.Kernel.normal(), -0.5, 1)

    def test_bad_df_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            dn.Kernel.student_t(0.0)
        with pytest.raises(ValueError):
            dn.Kernel.student_t(-2)

    def test_cauchy_equals_t1(self):
        ts = np.linspace(0.0, 30.0, 13)
        for k in (1, 3, 6):
            np.testing.assert_allclose(
                dn.log_kernel_pdf(dn.Kernel.cauchy(), ts, k),
                dn.log_kernel_pdf(dn.Kernel.student_t(1.0), ts, k),
                rtol=0,
                atol=0,
            )

    def test_custom_kernel_uses_supplied_normalizer(self):
        # a custom kernel built from the normal profile must reproduce it exactly
        custom = dn.Kernel.custom(
            log_profile=lambda t: -0.5 * t,
            log_normalizer=lambda k: -0.5 * k * math.log(2 * math.pi),
        )
        # at t = 2,025 the profile exp(-t/2) underflows to 0, but its log is finite
        for t in (0.0, 1.3, 9.0, 2025.0):
            for k in (1, 4):
                got, expected = dn.log_kernel_pdf(custom, t, k), dn.log_kernel_pdf(dn.Kernel.normal(), t, k)
                assert np.exp(got) == pytest.approx(np.exp(expected), rel=1e-14)
                assert got == pytest.approx(expected, rel=1e-14)


class TestRadialPdf:
    def test_normal_k2_is_rayleigh(self):
        rs = np.linspace(0.0, 4.0, 33)
        np.testing.assert_allclose(
            dn.radial_pdf(dn.Kernel.normal(), rs, 2), rs * np.exp(-(rs**2) / 2), rtol=1e-13
        )

    def test_normal_k1_is_half_normal(self):
        rs = np.linspace(0.0, 4.0, 33)
        np.testing.assert_allclose(
            dn.radial_pdf(dn.Kernel.normal(), rs, 1), 2 * stats.norm.pdf(rs), rtol=1e-13
        )

    def test_zero_radius_vanishes_for_k_ge_2(self):
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(3), dn.Kernel.cauchy()):
            for k in (2, 3, 7):
                assert dn.radial_pdf(kernel, 0.0, k) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            dn.radial_pdf(dn.Kernel.normal(), -1.0, 2)

    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(1), dn.Kernel.student_t(4)])
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_integrates_to_one(self, kernel, k):
        total, _ = integrate.quad(lambda r: dn.radial_pdf(kernel, r, k), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(5)])
    @pytest.mark.parametrize("k", [400, 2000, 5000])
    def test_large_dimension_finite_and_normalized(self, kernel, k):
        # r^(k-1) and f(r^2) each leave the float range here; their product does not
        rs = np.linspace(0.0, 3000.0, 200_001)
        pdf = dn.radial_pdf(kernel, rs, k)
        assert np.all(np.isfinite(pdf))
        assert np.trapezoid(pdf, rs) == pytest.approx(1.0, abs=1e-6)


class TestRadialCdf:
    # references from mpmath at 40 digits: 1 - I_(df/(t+df))(df/2, k/2) with t = r^2
    @pytest.mark.parametrize("df, k, r, expected", [
        (0.2, 1, 1e8, 0.98111407953799959),  # x = t/(t+df) rounds to 1 here
        (0.01, 6, 1e200, 0.99015421284421759),  # 1 - x underflows: the series term
        (0.01, 1, 1e300, 0.99902947342848826),
        (0.001, 2, 1e300, 0.50054081979175169),
    ])
    def test_upper_tail_at_small_df(self, df, k, r, expected):
        assert dn.radial_cdf(dn.Kernel.student_t(df), np.array(r), k) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(0.01),
                                        dn.Kernel.student_t(0.2), dn.Kernel.student_t(5)])
    @pytest.mark.parametrize("k", [1, 3, 512])
    def test_finite_and_monotone_up_to_1e300(self, kernel, k):
        # RuntimeWarning is an error in this suite, so an overflowing r * r fails here
        rs = np.concatenate(([0.0], np.logspace(-300, 300, 6001)))
        cdf = dn.radial_cdf(kernel, rs, k)
        assert np.all(np.isfinite(cdf))
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0 and 0.0 <= cdf.min() and cdf.max() <= 1.0


    @pytest.mark.parametrize("df", [1e200, 1e300])
    @pytest.mark.parametrize("k", [1, 3, 512])
    def test_finite_and_monotone_at_huge_df(self, df, k):
        rs = np.logspace(-5, 300, 6001)
        cdf = dn.radial_cdf(dn.Kernel.student_t(df), rs, k)
        assert np.all(np.isfinite(cdf))
        assert np.all(np.diff(cdf) >= 0.0)
        assert 0.0 <= cdf.min() and cdf.max() <= 1.0

    @pytest.mark.parametrize("k", [1, 3, 512])
    def test_normal_limit_at_large_df(self, k):
        # past df = k^2 / eps the t CDF is the normal one; just below, the
        # betainc path agrees with it to its own accuracy (1.2e-12 at k = 512)
        rs = np.linspace(0.0, 3.0 * math.sqrt(k), 301)
        limit = k * k / np.finfo(float).eps
        normal = dn.radial_cdf(dn.Kernel.normal(), rs, k)
        np.testing.assert_array_equal(dn.radial_cdf(dn.Kernel.student_t(limit), rs, k), normal)
        np.testing.assert_allclose(dn.radial_cdf(dn.Kernel.student_t(limit / 2), rs, k), normal, rtol=1e-11,
                                   atol=np.finfo(float).tiny)  # gammainc flushes subnormals to 0


class TestLogJacobian:
    def test_identity_factors(self):
        assert model_log_jac([np.eye(2), np.eye(3)]) == 0.0

    def test_hand_value_and_expansion(self):
        fs = [np.diag([1.0, 2.0]), np.diag([1.0, 1.0, 3.0])]
        expected = 3 * math.log(2.0) + 2 * math.log(3.0)  # log 72
        assert model_log_jac(fs) == pytest.approx(expected, rel=1e-14)
        expanded = kronecker.inv_kron_chain(fs)
        assert np.linalg.slogdet(expanded)[1] == pytest.approx(expected, rel=1e-12)

    def test_single_mode(self):
        a = np.array([[2.0, 1.0], [0.5, 2.0]])
        assert model_log_jac([a]) == pytest.approx(math.log(3.5), rel=1e-14)  # det 4 - 0.5

    def test_singular_factor_raises(self):
        with pytest.raises(SingularMatrixError, match="mode 1"):
            model_log_jac([np.zeros((2, 2))])

    def test_matches_expanded_chain(self):
        gen = np.random.default_rng(61)
        for _ in range(50):
            dims = random_shape(gen, max_order=3, max_dim=4, max_cells=64)
            fs = [well_conditioned(gen, d) for d in dims]
            expanded = kronecker.inv_kron_chain(fs)
            assert model_log_jac(fs) == pytest.approx(np.linalg.slogdet(expanded)[1], abs=1e-9)

    def test_negative_determinants_use_absolute_value(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # det -1
        assert model_log_jac([flip, np.eye(3)]) == pytest.approx(0.0, abs=1e-14)


class TestStandardize:
    def test_at_location(self):
        gen = np.random.default_rng(62)
        model = random_model(gen, (2, 3), dn.Kernel.normal())
        z = dn.standardize(model, model.mean)
        assert np.max(np.abs(z)) <= 1e-14

    def test_identity_factors_shift_only(self):
        model = identity_model((2, 2))
        x = np.arange(4.0).reshape(2, 2)
        np.testing.assert_allclose(dn.standardize(model, x), x, atol=1e-15)

    def test_round_trip(self):
        gen = np.random.default_rng(63)
        for _ in range(20):
            dims = random_shape(gen, max_order=3, max_dim=4, max_cells=64)
            model = random_model(gen, dims, dn.Kernel.normal())
            x = gen.standard_normal(dims)
            z = dn.standardize(model, x)
            back = r_multiply(model.factors, z) + model.mean
            assert np.max(np.abs(back - x)) <= 1e-9

    def test_shape_mismatch(self):
        model = identity_model((2, 2))
        with pytest.raises(ValueError, match="shape"):
            dn.standardize(model, np.zeros((2, 3)))


class TestLogpdfNormal:
    def test_identity_center_value(self):
        model = identity_model((2, 2))
        assert dn.logpdf_elliptical(model, np.zeros((2, 2))) == pytest.approx(
            math.log((2 * math.pi) ** -2), rel=1e-14
        )

    def test_single_mode_matches_monolinear_density(self):
        gen = np.random.default_rng(64)
        for _ in range(25):
            a = well_conditioned(gen, 3)
            mean = gen.standard_normal(3)
            model = dn.KroneckerModel(mean, [a], dn.Kernel.normal())
            x = gen.standard_normal(3)
            direct = stats.multivariate_normal(mean=mean, cov=a @ a.T).logpdf(x)
            assert dn.logpdf_elliptical(model, x) == pytest.approx(direct, abs=1e-10)

    def test_factor_scaling_shifts_logpdf(self):
        gen = np.random.default_rng(65)
        dims = (2, 3)
        factors = [well_conditioned(gen, d) for d in dims]
        mean = np.zeros(dims)
        base = dn.logpdf_elliptical(dn.KroneckerModel(mean, factors, dn.Kernel.normal()), mean)
        scaled = dn.logpdf_elliptical(
            dn.KroneckerModel(mean, [2.0 * factors[0], factors[1]], dn.Kernel.normal()), mean
        )
        # det(2 A1) multiplies the jacobian by 2^(m1 * prod_{k != 1} mk)
        assert scaled - base == pytest.approx(-(3 * 2) * math.log(2.0), rel=1e-12)


@st.composite
def density_cases(draw):
    """A shape of order 1-4 with at most 24 cells, a batch of 1-6 arrays, the
    batch position of the array evaluated alone, a t df and a model seed."""
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)
                .filter(lambda d: math.prod(d) <= 24))
    n = draw(st.integers(1, 6))
    return tuple(dims), n, draw(st.integers(0, n - 1)), draw(st.floats(0.5, 50.0)), draw(st.integers(0, 2**32 - 1))


class TestLogpdfElliptical:
    @settings(max_examples=100)
    @given(density_cases())
    def test_single_array_matches_batch_row(self, case):
        dims, n, pick, df, seed = case
        gen = np.random.default_rng(seed)
        normal = random_model(gen, dims, dn.Kernel.normal())
        rows = rvec(normal.mean) + gen.standard_normal((n, normal.m))
        x = unrvec(rows[pick], dims)
        for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(df), dn.Kernel.cauchy()):
            model = with_kernel(normal, kernel)
            assert dn.logpdf_elliptical(model, x) == pytest.approx(
                dn.logpdf_elliptical_rvecs(model, rows)[pick], rel=1e-13, abs=1e-13
            )
        oracle = to_monolinear(normal).logpdf(rvec(x))
        assert dn.logpdf_elliptical(normal, x) == pytest.approx(oracle, abs=1e-10)

    def test_cauchy_center_1d(self):
        model = identity_model((1,), dn.Kernel.student_t(1.0))
        assert dn.logpdf_elliptical(model, np.zeros(1)) == pytest.approx(math.log(1 / math.pi))

    def test_cauchy_alias(self):
        gen = np.random.default_rng(67)
        model_c = random_model(gen, (2, 2), dn.Kernel.cauchy())
        model_t = dn.KroneckerModel(model_c.mean, model_c.factors, dn.Kernel.student_t(1.0))
        for _ in range(20):
            x = gen.standard_normal((2, 2))
            assert dn.logpdf_elliptical(model_c, x) == dn.logpdf_elliptical(model_t, x)

    def test_contours_depend_only_on_standardized_norm(self):
        gen = np.random.default_rng(68)
        for _ in range(25):
            dims = random_shape(gen, max_order=3, max_dim=3, max_cells=27)
            model = random_model(gen, dims, dn.Kernel.student_t(3.0))
            x = gen.standard_normal(dims)
            z = rvec(dn.standardize(model, x))
            q = stats.ortho_group.rvs(z.size, random_state=gen) if z.size > 1 else np.array([[-1.0]])
            z_rot = unrvec(q @ z, dims)
            x_rot = r_multiply(model.factors, z_rot) + model.mean
            assert dn.logpdf_elliptical(model, x_rot) == pytest.approx(
                dn.logpdf_elliptical(model, x), abs=1e-10
            )

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(69)
        model = random_model(gen, (2, 3, 2), dn.Kernel.student_t(5.0))
        rows = gen.standard_normal((40, model.m))
        batch = dn.logpdf_elliptical_rvecs(model, rows)
        for row, value in zip(rows, batch):
            assert value == pytest.approx(dn.logpdf_elliptical(model, unrvec(row, model.shape)),
                                          rel=1e-12, abs=1e-12)


class TestLogpdfT:
    def test_cauchy_center(self):
        model = identity_model((1,), dn.Kernel.student_t(1.0))
        assert dn.logpdf_elliptical(model, np.zeros(1)) == pytest.approx(math.log(1 / math.pi))

    def test_univariate_grid_matches_reference(self):
        grid = np.linspace(-6.0, 6.0, 101)
        for v in (1.0, 4.0):
            model = identity_model((1,), dn.Kernel.student_t(v))
            for x in grid:
                mine = dn.logpdf_elliptical(model, np.array([x]))
                assert mine == pytest.approx(stats.t.logpdf(x, v), abs=1e-12)

    def test_limits_to_normal(self):
        gen = np.random.default_rng(70)
        model = random_model(gen, (2, 2), dn.Kernel.normal())
        big_v = with_kernel(model, dn.Kernel.student_t(1e6))
        for _ in range(100):
            x = model.mean + gen.standard_normal((2, 2))
            gap = dn.logpdf_elliptical(big_v, x) - dn.logpdf_elliptical(model, x)
            assert abs(gap) <= 1e-3

    @pytest.mark.parametrize("df", [1e12, 1e300, 1e308])
    @pytest.mark.parametrize("m", [1, 6, 512])
    def test_normal_limit_at_huge_df(self, df, m):
        # at x = ones the standardized squared norm is m, where the t and normal
        # log-densities differ by about m / (2 df) only
        normal = identity_model((m,))
        x = np.ones(m)
        gap = dn.logpdf_elliptical(with_kernel(normal, dn.Kernel.student_t(df)), x) - dn.logpdf_elliptical(normal, x)
        assert abs(gap) <= 1e-9

    def test_bad_df(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            identity_model((2,), dn.Kernel.student_t(0.0))


class TestModelValidation:
    def test_wrong_factor_count(self):
        with pytest.raises(ValueError, match="factors"):
            dn.KroneckerModel(np.zeros((2, 2)), [np.eye(2)], dn.Kernel.normal())

    def test_wrong_factor_size_names_mode(self):
        with pytest.raises(ValueError, match="mode 2"):
            dn.KroneckerModel(np.zeros((2, 3)), [np.eye(2), np.eye(2)], dn.Kernel.normal())

    def test_singular_factor_names_mode(self):
        with pytest.raises(SingularMatrixError, match="mode 1"):
            dn.KroneckerModel(np.zeros((2, 2)), [np.zeros((2, 2)), np.eye(2)], dn.Kernel.normal())

    def test_subnormal_factor_names_mode(self):
        # the pivot test is relative, so 1e-310 * I factors; its inverse is not finite
        with pytest.raises(SingularMatrixError, match="mode 2: .*not finite"):
            dn.KroneckerModel(np.zeros((2, 2)), [np.eye(2), 1e-310 * np.eye(2)], dn.Kernel.normal())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_names_first_cell(self, bad):
        mean = np.zeros((2, 3))
        mean[1, 2] = np.nan  # stacked position 6
        mean[0, 2] = bad  # stacked position 5: the first bad cell
        with pytest.raises(ValueError, match=rf"^mean cell \(1, 3\) is not finite \({bad!r}\)$"):
            dn.KroneckerModel(mean, [np.eye(2), np.eye(3)], dn.Kernel.normal())

    @pytest.mark.parametrize("dims", [(2, 3), (8, 8, 8), (32, 32, 16)])
    def test_one_pivot_check_per_factor(self, monkeypatch, dims):
        calls = []
        checked_lu = linalg._checked_lu
        monkeypatch.setattr(linalg, "_checked_lu", lambda a: calls.append(a) or checked_lu(a))
        model = random_model(np.random.default_rng(320), dims, dn.Kernel.normal())
        assert len(calls) == model.order
