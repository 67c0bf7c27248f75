import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayvariate import array_core as ac
from arrayvariate import densities as dn
from arrayvariate import linalg
from arrayvariate import multilinear as ml
from arrayvariate import sampling as sp
from arrayvariate.errors import SingularMatrixError
from arrayvariate.linalg import inv_kron_chain
from support import (
    composition_check,
    lstsq_residual,
    monolinear_equiv_check,
    r_multiply_oracle,
    random_model,
    random_shape,
    sq_norm,
    well_conditioned,
)


class TestRMultiply:
    def test_single_mode_is_matrix_product(self):
        a = np.diag([2.0, 3.0])
        b = np.ones((2, 2))
        out = ml.r_multiply([a, np.eye(2)], b)
        np.testing.assert_array_equal(out, np.array([[2.0, 2.0], [3.0, 3.0]]))

    def test_two_modes_is_a_x_bt(self):
        a1 = np.eye(2)
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ml.r_multiply([a1, a2], c)
        np.testing.assert_array_equal(out, np.array([[2.0, 1.0], [4.0, 3.0]]))
        np.testing.assert_array_equal(out, a1 @ c @ a2.T)

    def test_identity_maps_noop(self):
        gen = np.random.default_rng(41)
        x = gen.standard_normal((2, 3, 2))
        out = ml.r_multiply([np.eye(2), np.eye(3), np.eye(2)], x)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_shape_errors(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="mode maps"):
            ml.r_multiply([np.eye(2)], x)
        with pytest.raises(ValueError, match="mode 2"):
            ml.r_multiply([np.eye(2), np.eye(2)], x)


@st.composite
def engine_cases(draw):
    """Mode maps, stacked rows and their shape: orders 1-4, dimensions 1-4
    (unit ones included), rectangular maps, and 0, 1 or several rows."""
    order = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    qs = draw(st.lists(st.integers(1, 4), min_size=order, max_size=order))
    n = draw(st.integers(0, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = [gen.standard_normal((q, m)) for q, m in zip(qs, dims)]
    return maps, gen.standard_normal((n, int(np.prod(dims)))), dims


def assert_close_to_largest_cell(out, expected):
    assert out.shape == expected.shape
    if expected.size:
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestApplyModes:
    @settings(max_examples=200)
    @given(engine_cases())
    def test_matches_nested_sum_oracle(self, case):
        maps, rows, dims = case
        out = ml.apply_modes(maps, rows, dims)
        expected = [ac.rvec(r_multiply_oracle(maps, ac.unrvec(row, dims))) for row in rows]
        q = int(np.prod([a.shape[0] for a in maps]))
        assert_close_to_largest_cell(out, np.array(expected).reshape(len(rows), q))

    @settings(max_examples=200)
    @given(engine_cases())
    def test_matches_expanded_chain(self, case):
        maps, rows, dims = case
        out = ml.apply_modes(maps, rows, dims)
        assert_close_to_largest_cell(out, (inv_kron_chain(maps) @ rows.T).T)

    def test_row_width_error(self):
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            ml.apply_modes([np.eye(2), np.eye(3)], np.zeros((4, 5)), (2, 3))


class TestMapChecks:
    @pytest.mark.parametrize("dims", [(2, 3), (8, 8, 8), (32, 32, 16)])
    def test_maps_are_checked_once_where_they_enter(self, monkeypatch, dims):
        # a built model's factors were checked when it was built; a public map entry checks each map once
        model = random_model(np.random.default_rng(323), dims, dn.Kernel.student_t(5.0))
        rows = sp.sample_elliptical_rvecs(model, 3, sp.RandomStream(324))
        x = ac.unrvec(rows[0], dims)
        calls = []
        as_matrix = linalg.as_matrix
        monkeypatch.setattr(linalg, "as_matrix", lambda a: calls.append(a) or as_matrix(a))

        def count(call):
            calls.clear()
            call()
            return len(calls)

        assert count(lambda: dn.KroneckerModel(model.mean, model.factors, model.kernel)) == model.order
        assert count(lambda: dn.logpdf_elliptical_rvecs(model, rows)) == 0
        assert count(lambda: dn.logpdf_elliptical(model, x)) == 0
        assert count(lambda: sp.sample_elliptical_rvecs(model, 3, sp.RandomStream(325))) == 0
        assert count(lambda: dn.standardize(model, x)) == 0
        assert count(lambda: ml.r_multiply(model.factors, x)) == model.order
        assert count(lambda: ml.apply_modes(model.factors, rows, dims)) == model.order
        assert count(lambda: ml.multilinear_lstsq(model.factors, x)) <= 2 * model.order


class TestOracle:
    def test_agrees_with_fast_path(self):
        gen = np.random.default_rng(42)
        for _ in range(500):
            order = int(gen.integers(1, 5))
            dims = tuple(int(d) for d in gen.integers(1, 5, size=order))
            qs = tuple(int(d) for d in gen.integers(1, 5, size=order))
            maps = [gen.standard_normal((q, m)) for q, m in zip(qs, dims)]
            x = gen.standard_normal(dims)
            np.testing.assert_allclose(
                ml.r_multiply(maps, x), r_multiply_oracle(maps, x), atol=1e-11
            )

    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(r_multiply_oracle([np.eye(2), np.eye(3)], x), x)

    def test_zero(self):
        maps = [np.ones((2, 2)), np.ones((4, 3))]
        assert not r_multiply_oracle(maps, np.zeros((2, 3))).any()


class TestMonolinearEquiv:
    def test_identity_maps_zero_gap(self):
        x = np.arange(12.0).reshape(2, 3, 2)
        maps = [np.eye(2), np.eye(3), np.eye(2)]
        assert monolinear_equiv_check(maps, x) == 0.0

    def test_random_2x3x2(self):
        gen = np.random.default_rng(43)
        maps = [gen.standard_normal((q, m)) for q, m in zip((3, 2, 2), (2, 3, 2))]
        x = gen.standard_normal((2, 3, 2))
        assert monolinear_equiv_check(maps, x) <= 1e-10

    def test_two_mode_classical_identity(self):
        gen = np.random.default_rng(44)
        a1, a2 = gen.standard_normal((3, 2)), gen.standard_normal((4, 5))
        x = gen.standard_normal((2, 5))
        # independent classical route: vec(A1 X A2') with column-major vec
        lhs = (a1 @ x @ a2.T).reshape(-1, order="F")
        rhs = np.kron(a2, a1) @ x.reshape(-1, order="F")
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert monolinear_equiv_check([a1, a2], x) <= 1e-12

    def test_randomized_up_to_order_5(self):
        gen = np.random.default_rng(45)
        for _ in range(200):
            dims = random_shape(gen, max_order=5, max_dim=4, max_cells=512)
            maps = [gen.standard_normal((int(gen.integers(1, 5)), m)) for m in dims]
            x = gen.standard_normal(dims)
            assert monolinear_equiv_check(maps, x) <= 1e-10


class TestComposition:
    def test_identity_chains(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        eye = [np.eye(2)] * 3
        assert composition_check(eye, eye, x) == 0.0

    def test_random_2x2x2(self):
        gen = np.random.default_rng(46)
        maps_a = [gen.standard_normal((2, 2)) for _ in range(3)]
        maps_b = [gen.standard_normal((2, 2)) for _ in range(3)]
        x = gen.standard_normal((2, 2, 2))
        assert composition_check(maps_a, maps_b, x) <= 1e-10

    def test_scalar_modes_exact(self):
        maps_a = [np.array([[2.0]]), np.array([[3.0]])]
        maps_b = [np.array([[5.0]]), np.array([[7.0]])]
        x = np.full((1, 1), 1.25)
        assert composition_check(maps_a, maps_b, x) == 0.0

    def test_mode_order_independence(self):
        # square maps applied one mode at a time (identity elsewhere), in any order, agree
        gen = np.random.default_rng(47)
        dims = (2, 3, 2)
        maps = [gen.standard_normal((m, m)) for m in dims]
        x = gen.standard_normal(dims)
        expected = ml.r_multiply(maps, x)
        for order in ((2, 0, 1), (1, 2, 0), (2, 1, 0)):
            rows = ac.rvec(x)[None, :]
            for j in order:
                one_mode = [maps[k] if k == j else np.eye(m) for k, m in enumerate(dims)]
                rows = ml.apply_modes(one_mode, rows, dims)
            np.testing.assert_allclose(ac.unrvec(rows[0], dims), expected, atol=1e-12)


class TestLstsq:
    def test_identity_maps_echo(self):
        y = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(ml.multilinear_lstsq([np.eye(2), np.eye(3)], y), y)

    def test_scalar_normal_equations(self):
        # single mode, map (1, 1)', observations (1, 3): normal equations give 2
        a = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        out = ml.multilinear_lstsq([a], y)
        np.testing.assert_allclose(out, np.array([2.0]))

    def test_square_invertible_recovery(self):
        gen = np.random.default_rng(48)
        for _ in range(30):
            dims = random_shape(gen, max_order=3, max_dim=4, max_cells=64)
            maps = [well_conditioned(gen, m) for m in dims]
            x0 = gen.standard_normal(dims)
            y = ml.r_multiply(maps, x0)
            np.testing.assert_allclose(ml.multilinear_lstsq(maps, y), x0, atol=1e-9)

    def test_rank_deficient_names_mode(self):
        maps = [np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])]
        y = np.zeros((2, 3))
        with pytest.raises(SingularMatrixError, match="mode 2"):
            ml.multilinear_lstsq(maps, y)

    def test_residual_optimality(self):
        gen = np.random.default_rng(49)
        for _ in range(10):
            order = int(gen.integers(1, 4))
            dims = tuple(int(d) for d in gen.integers(1, 4, size=order))
            qs = tuple(int(gen.integers(m, 5)) for m in dims)
            maps = [well_conditioned(gen, q, m) for q, m in zip(qs, dims)]
            y = gen.standard_normal(qs)
            xhat = ml.multilinear_lstsq(maps, y)
            base = lstsq_residual(maps, y, xhat)
            for _ in range(100):
                delta = gen.standard_normal(xhat.shape)
                for scale in (1e-3, 1e-1):
                    step = delta * (scale / np.sqrt(sq_norm(delta)))
                    assert base <= lstsq_residual(maps, y, xhat + step) + 1e-15

    def test_gradient_vanishes_at_solution(self):
        gen = np.random.default_rng(50)
        dims = (2, 2)
        qs = (4, 3)
        maps = [well_conditioned(gen, q, m) for q, m in zip(qs, dims)]
        y = gen.standard_normal(qs)
        xhat = ml.multilinear_lstsq(maps, y)
        step = 1e-6
        worst = 0.0
        for idx in np.ndindex(xhat.shape):
            bump = np.zeros(xhat.shape)
            bump[idx] = step
            grad = (
                lstsq_residual(maps, y, xhat + bump) - lstsq_residual(maps, y, xhat - bump)
            ) / (2 * step)
            worst = max(worst, abs(grad))
        assert worst <= 1e-5
