import numpy as np
import pytest

from arrayvariate import linalg
from arrayvariate.errors import FormatError, SingularMatrixError
from support import well_conditioned


class TestLuDet:
    """log |det A| read off the pivots of the LU factorization."""

    def test_identity(self):
        for n in (1, 2, 5):
            assert linalg.logabsdet(np.eye(n)) == 0.0

    def test_diagonal(self):
        assert linalg.logabsdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.logabsdet(np.zeros((2, 3)))

    def test_multiplicative(self):
        gen = np.random.default_rng(21)
        for _ in range(100):
            n = int(gen.integers(2, 7))
            a = gen.standard_normal((n, n))
            b = gen.standard_normal((n, n))
            lhs = linalg.logabsdet(a @ b)
            rhs = linalg.logabsdet(a) + linalg.logabsdet(b)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_hand_2x2(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(linalg.inverse(a), np.array([[1.0, -1.0], [0.0, 1.0]]))

    def test_residual_bound(self):
        gen = np.random.default_rng(22)
        for _ in range(50):
            n = int(gen.integers(2, 7))
            a = well_conditioned(gen, n)
            residual = np.max(np.abs(a @ linalg.inverse(a) - np.eye(n)))
            assert residual <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.zeros((2, 2)))


class TestLogAbsDet:
    def test_matches_lu_det(self):
        gen = np.random.default_rng(23)
        for _ in range(50):
            a = well_conditioned(gen, int(gen.integers(1, 6)))
            assert linalg.logabsdet(a) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-11)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.logabsdet(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestLInverse:
    def test_identity(self):
        np.testing.assert_allclose(linalg.l_inverse(np.eye(3)), np.eye(3))

    def test_square_agrees_with_inverse(self):
        gen = np.random.default_rng(24)
        for _ in range(30):
            a = well_conditioned(gen, 4)
            np.testing.assert_allclose(linalg.l_inverse(a), linalg.inverse(a), atol=1e-10)

    def test_ones_column(self):
        a = np.array([[1.0], [1.0]])
        np.testing.assert_allclose(linalg.l_inverse(a), np.array([[0.5, 0.5]]))

    def test_left_inverse_property(self):
        gen = np.random.default_rng(25)
        for _ in range(100):
            rows = int(gen.integers(2, 9))
            cols = int(gen.integers(1, min(rows, 4) + 1))
            a = well_conditioned(gen, rows, cols)
            np.testing.assert_allclose(linalg.l_inverse(a) @ a, np.eye(cols), atol=1e-9)

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError):
            linalg.l_inverse(a)

    def test_wide_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            linalg.l_inverse(np.ones((2, 3)))


class TestPlumbing:
    def test_solve_diagonal(self):
        x = linalg.solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.solve(np.zeros((2, 2)), np.zeros(2))

    def test_solve_size_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve(np.eye(2), np.zeros(3))


class TestMatv1:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(26)
        a = gen.standard_normal((3, 4))
        path = tmp_path / "m.mat"
        linalg.write_matrix(a, path)
        np.testing.assert_array_equal(linalg.read_matrix(path), a)

    def test_layout(self):
        text = linalg.dump_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = text.splitlines()
        assert lines[0] == "MATV1"
        assert lines[1] == "dims 2 2"
        assert lines[2].split() == ["1", "2"]

    def test_bad_header(self):
        with pytest.raises(FormatError, match=r"f\.mat:1"):
            linalg.parse_matrix("nope\n", source="f.mat")

    def test_bad_token(self):
        with pytest.raises(FormatError, match=r":3"):
            linalg.parse_matrix("MATV1\ndims 1 2\n1 oops\n", source="f.mat")

    def test_non_finite_token(self):
        with pytest.raises(FormatError, match=r"f\.mat:4:.*'nan'"):
            linalg.parse_matrix("MATV1\ndims 2 2\n1 2\nnan 4\n", source="f.mat")

    def test_truncated(self):
        with pytest.raises(FormatError, match="2 of 4"):
            linalg.parse_matrix("MATV1\ndims 2 2\n1 2\n")

    def test_extra_token(self):
        with pytest.raises(FormatError, match="extra token"):
            linalg.parse_matrix("MATV1\ndims 1 2\n1 2 3\n")


# MATV1 is the ARRV1 record grammar under its own header. Each case parses to
# the given values or fails with (line, message) under the source name f.mat.
MATV1_CASES = [
    pytest.param("MATV1\ndims 2 2\n1 2\n3 4\n", [[1, 2], [3, 4]], id="canonical"),
    pytest.param("\n\nMATV1\ndims 1 2\n1 2\n", [[1, 2]], id="leading-blank-lines"),
    pytest.param("MATV1\ndims 1 1\n5\n\n\n", [[5]], id="trailing-blank-lines"),
    pytest.param("MATV1\ndims 1 1\n7", [[7]], id="no-final-newline"),
    pytest.param("  MATV1 \ndims\t2 3\n 1\t2 3 4 5\n6 \n", [[1, 2, 3], [4, 5, 6]], id="free-whitespace"),
    pytest.param("MATV1\ndims 2 1\n1\n\n2\n", [[1], [2]], id="blank-line-inside-data"),
    pytest.param("MATV1\ndims 1 2\n-1e-3 +2.5E+2\n", [[-1e-3, 250.0]], id="exponent-forms"),
    pytest.param("", (1, "exactly one matrix, found 0"), id="empty"),
    pytest.param("\n \n", (1, "exactly one matrix, found 0"), id="blank-only"),
    pytest.param("ARRV1\ndims 1 1\n1\n", (1, "expected MATV1 header"), id="arrv1-header"),
    pytest.param("MATV1\n", (1, "missing dims line"), id="missing-dims"),
    pytest.param("MATV1\nsize 2 2\n1 2 3 4\n", (2, "dims"), id="bad-dims-keyword"),
    pytest.param("MATV1\ndims 4\n1 2 3 4\n", (2, "expected 2 dims, got 1"), id="one-dim"),
    pytest.param("MATV1\ndims 1 2 2\n1 2 3 4\n", (2, "expected 2 dims, got 3"), id="three-dims"),
    pytest.param("MATV1\ndims 2 x\n", (2, "non-integer"), id="non-integer-dim"),
    pytest.param("MATV1\ndims 0 2\n", (2, "invalid dims"), id="zero-dim"),
    pytest.param("MATV1\ndims 2 2\n1 2\ninf 4\n", (4, "non-finite value 'inf'"), id="inf-value"),
    pytest.param("MATV1\ndims 2 2\n1 2\n3 4\n5\n", (5, "expected MATV1 header, got '5'"), id="value-after-matrix"),
    pytest.param("MATV1\ndims 1 2\n\n1 2\n", (3, "blank line before any data"), id="blank-line-before-data"),
    pytest.param("MATV1\ndims 1 1\n1\nMATV1\ndims 1 1\n2\n", (1, "exactly one matrix, found 2"), id="two-records"),
]


@pytest.mark.parametrize("text, expected", MATV1_CASES)
def test_matv1_corner_cases(text, expected):
    if isinstance(expected, tuple):
        line, message = expected
        with pytest.raises(FormatError, match=rf"^f\.mat:{line}: .*{message}"):
            linalg.parse_matrix(text, source="f.mat")
    else:
        np.testing.assert_array_equal(linalg.parse_matrix(text, source="f.mat"), np.array(expected, float))
