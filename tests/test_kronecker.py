import math

import numpy as np
import pytest

from arrayvariate import kronecker as kr
from arrayvariate import linalg
from support import chain_trace, model_log_jac, well_conditioned


def commutation(m, n):
    """Permutation matrix sending the stacked m x n matrix to its stacked transpose."""
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            k[j + i * n, i + j * m] = 1.0
    return k


class TestInvKron:
    def test_hand_expanded_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 2.0],
                [0.0, 0.0, 3.0, 4.0],
                [1.0, 2.0, 0.0, 0.0],
                [3.0, 4.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(kr.inv_kron_chain([a, b]), expected)

    def test_zero_annihilates(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = np.zeros((2, 2))
        assert not kr.inv_kron_chain([z, a]).any()
        assert not kr.inv_kron_chain([a, z]).any()

    def test_identity(self):
        np.testing.assert_array_equal(kr.inv_kron_chain([np.eye(2), np.eye(3)]), np.eye(6))

    def test_reversed_of_ordinary_kron(self):
        gen = np.random.default_rng(31)
        a = gen.standard_normal((2, 3))
        b = gen.standard_normal((4, 2))
        np.testing.assert_array_equal(kr.inv_kron_chain([a, b]), np.kron(b, a))


class TestChain:
    def test_single_factor(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kr.inv_kron_chain([a]), a)

    def test_identity_chain(self):
        np.testing.assert_array_equal(kr.inv_kron_chain([np.eye(2), np.eye(3)]), np.eye(6))

    def test_scalar_chain(self):
        out = kr.inv_kron_chain([np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]])])
        np.testing.assert_array_equal(out, np.array([[24.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            kr.inv_kron_chain([])


class TestChainDet:
    def test_two_factor_example(self):
        fs = [np.diag([2.0, 3.0]), np.diag([1.0, 2.0])]
        assert model_log_jac(fs) == pytest.approx(math.log(144.0), rel=1e-14)
        assert np.linalg.slogdet(kr.inv_kron_chain(fs))[1] == pytest.approx(math.log(144.0), rel=1e-12)

    def test_identities(self):
        assert model_log_jac([np.eye(2), np.eye(3), np.eye(2)]) == 0.0

    def test_three_factor_example(self):
        # dets 2, 3, 5 on sizes 2, 3, 2 -> 2^6 * 3^4 * 5^6
        fs = [np.diag([1.0, 2.0]), np.diag([1.0, 1.0, 3.0]), np.diag([1.0, 5.0])]
        expected = 6 * math.log(2.0) + 4 * math.log(3.0) + 6 * math.log(5.0)
        assert model_log_jac(fs) == pytest.approx(expected, rel=1e-14)
        assert np.linalg.slogdet(kr.inv_kron_chain(fs))[1] == pytest.approx(expected, rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^mode 1: factor must be 2x2, got 2x3$"):
            model_log_jac([np.zeros((2, 3))])


class TestChainTrace:
    def test_identities(self):
        assert chain_trace([np.eye(2), np.eye(3)]) == 6.0

    def test_diagonal_example(self):
        fs = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]
        assert chain_trace(fs) == pytest.approx(21.0)
        assert np.trace(kr.inv_kron_chain(fs)) == pytest.approx(21.0)

    def test_zero_trace_factor(self):
        fs = [np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(3)]
        assert chain_trace(fs) == 0.0


class TestIdentitySuite:
    """Randomized spot checks; the acceptance suite runs the full 200-trial versions."""

    def test_mixed_product(self):
        gen = np.random.default_rng(32)
        for _ in range(40):
            n = int(gen.integers(2, 5))
            p = int(gen.integers(2, 5))
            a1, a2 = gen.standard_normal((2, n, n))
            b1, b2 = gen.standard_normal((2, p, p))
            lhs = kr.inv_kron_chain([a1, b1]) @ kr.inv_kron_chain([a2, b2])
            rhs = kr.inv_kron_chain([a1 @ a2, b1 @ b2])
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_inverse_law(self):
        gen = np.random.default_rng(33)
        for _ in range(40):
            a = well_conditioned(gen, int(gen.integers(2, 5)))
            b = well_conditioned(gen, int(gen.integers(2, 5)))
            lhs = linalg.inverse(kr.inv_kron_chain([a, b]))
            rhs = kr.inv_kron_chain([linalg.inverse(a), linalg.inverse(b)])
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_l_inverse_law(self):
        gen = np.random.default_rng(34)
        for _ in range(40):
            a = well_conditioned(gen, 4, int(gen.integers(1, 4)))
            b = well_conditioned(gen, 3, int(gen.integers(1, 4)))
            lhs = linalg.l_inverse(kr.inv_kron_chain([a, b]))
            rhs = kr.inv_kron_chain([linalg.l_inverse(a), linalg.l_inverse(b)])
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_bilinearity(self):
        gen = np.random.default_rng(35)
        for _ in range(40):
            a1, a2 = gen.standard_normal((2, 3, 2))
            b = gen.standard_normal((2, 4))
            np.testing.assert_allclose(
                kr.inv_kron_chain([a1 + a2, b]), kr.inv_kron_chain([a1, b]) + kr.inv_kron_chain([a2, b]), atol=1e-12
            )
            np.testing.assert_allclose(
                kr.inv_kron_chain([b, a1 + a2]), kr.inv_kron_chain([b, a1]) + kr.inv_kron_chain([b, a2]), atol=1e-12
            )
            alpha, beta = gen.standard_normal(2)
            np.testing.assert_allclose(
                kr.inv_kron_chain([alpha * a1, beta * b]), alpha * beta * kr.inv_kron_chain([a1, b]), atol=1e-12
            )

    def test_eigenvalue_products(self):
        gen = np.random.default_rng(36)
        for _ in range(40):
            na, nb = int(gen.integers(2, 4)), int(gen.integers(2, 4))
            a = gen.standard_normal((na, na))
            a = 0.5 * (a + a.T)
            b = gen.standard_normal((nb, nb))
            b = 0.5 * (b + b.T)
            got = np.sort(np.linalg.eigvalsh(0.5 * (kr.inv_kron_chain([a, b]) + kr.inv_kron_chain([a, b]).T)))
            expected = np.sort(np.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_perfect_shuffle_permutation(self):
        gen = np.random.default_rng(37)
        for _ in range(20):
            m, n = int(gen.integers(1, 4)), int(gen.integers(1, 4))
            p, q = int(gen.integers(1, 4)), int(gen.integers(1, 4))
            a = gen.standard_normal((m, n))
            b = gen.standard_normal((p, q))
            u1 = commutation(p, m)
            u2 = commutation(n, q)
            np.testing.assert_allclose(u1 @ np.kron(a, b) @ u2, kr.inv_kron_chain([a, b]), atol=1e-14)
            # entry multisets agree as well (permutations move, never mix, entries)
            assert np.allclose(
                np.sort(np.kron(a, b).ravel()), np.sort(kr.inv_kron_chain([a, b]).ravel()), atol=1e-14
            )
