import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayvariate import linalg
from arrayvariate.densities import Kernel, KroneckerModel
from arrayvariate.errors import FormatError, SingularMatrixError
from arrayvariate.multilinear import r_multiply
from support import SCIPY_LINALG, model_log_jac, solve, well_conditioned


def logabsdet(a) -> float:
    """log |det A| as ``KroneckerModel`` takes it for a one-mode model with factor A.

    The model runs the pivot test and re-raises its failure as ``mode 1:
    factor is singular``; this raises the pivot test's own error, the one
    the scipy reference raises.
    """
    try:
        return model_log_jac([a])
    except SingularMatrixError as exc:
        raise exc.__cause__ or exc from None


# the numpy kernel under each name of its scipy reference; solve, which only
# the monolinear oracle uses, lives in the test support beside that oracle
NUMPY_LINALG = {"inverse": linalg.inverse, "solve": solve, "logabsdet": logabsdet,
                "l_inverse": linalg.l_inverse}


class TestLuDet:
    """log |det A| read off the pivots of the LU factorization."""

    def test_identity(self):
        for n in (1, 2, 5):
            assert logabsdet(np.eye(n)) == 0.0

    def test_diagonal(self):
        assert logabsdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_non_square(self):
        with pytest.raises(ValueError, match=r"^mode 1: factor must be 2x2, got 2x3$"):
            logabsdet(np.zeros((2, 3)))

    def test_multiplicative(self):
        gen = np.random.default_rng(21)
        for _ in range(100):
            n = int(gen.integers(2, 7))
            a = gen.standard_normal((n, n))
            b = gen.standard_normal((n, n))
            lhs = logabsdet(a @ b)
            rhs = logabsdet(a) + logabsdet(b)
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
            assert logabsdet(a) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-11)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            logabsdet(np.array([[1.0, 1.0], [1.0, 1.0]]))


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
        x = solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((2, 2)), np.zeros(2))

    def test_solve_size_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.zeros(3))


def with_condition(gen, rows, cols, cond):
    """Random ``rows x cols`` matrix whose singular values run log-evenly from 1 down to 1/cond."""
    q1, _ = np.linalg.qr(gen.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(gen.standard_normal((cols, cols)))
    s = np.logspace(0.0, -np.log10(cond), cols)
    return (q1[:, :cols] * gen.permutation(s)) @ q2


def outcome(f, *args):
    """The value of ``f(*args)``, or the SingularMatrixError message it raises."""
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return str(exc)


def assert_relative(out, ref, tol):
    out, ref = np.asarray(out), np.asarray(ref)
    assert out.shape == ref.shape
    assert np.linalg.norm(out - ref) <= tol * np.linalg.norm(ref)


class TestAgainstScipy:
    """The numpy kernel against the scipy.linalg routines it replaced (tests/support.py)."""

    @settings(max_examples=80)
    @given(st.integers(1, 32), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    def test_square_functions(self, n, log_cond, seed):
        cond = 10.0 ** log_cond
        gen = np.random.default_rng(seed)
        a = with_condition(gen, n, n, cond) * 10.0 ** gen.uniform(-100, 100)
        b = gen.standard_normal((n, 3))
        assert_relative(linalg.inverse(a), SCIPY_LINALG["inverse"](a), 1e-12 * cond)
        assert_relative(solve(a, b), SCIPY_LINALG["solve"](a, b), 1e-12 * cond)
        ref = SCIPY_LINALG["logabsdet"](a)
        assert abs(logabsdet(a) - ref) <= 1e-12 * cond * max(1.0, abs(ref))

    @settings(max_examples=80)
    @given(st.integers(1, 32), st.integers(0, 31), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    def test_l_inverse(self, cols, extra, log_cond, seed):
        # l_inverse solves the normal equations, so its condition number is that of A'A
        cond = 10.0 ** log_cond
        gen = np.random.default_rng(seed)
        a = with_condition(gen, cols + extra, cols, cond ** 0.5)
        assert_relative(linalg.l_inverse(a), SCIPY_LINALG["l_inverse"](a), 1e-12 * cond)

    def test_256(self):
        cond = 1e6
        gen = np.random.default_rng(256)
        a = with_condition(gen, 256, 256, cond)
        b = gen.standard_normal(256)
        assert_relative(linalg.inverse(a), SCIPY_LINALG["inverse"](a), 1e-12 * cond)
        assert_relative(solve(a, b), SCIPY_LINALG["solve"](a, b), 1e-12 * cond)
        assert logabsdet(a) == pytest.approx(SCIPY_LINALG["logabsdet"](a), rel=1e-12 * cond)
        tall = with_condition(gen, 256, 200, cond ** 0.5)
        assert_relative(linalg.l_inverse(tall), SCIPY_LINALG["l_inverse"](tall), 1e-12 * cond)

    @pytest.mark.parametrize("name", sorted(SCIPY_LINALG))
    @pytest.mark.parametrize("k", range(10, 15))
    def test_pivot_ratio_decisions(self, name, k):
        # diag(1, 10^-k) sits on either side of PIVOT_RTOL = 1e-12 as k passes 12
        a = np.diag([1.0, 10.0 ** -k])
        args = (a, np.ones(2)) if name == "solve" else (a,)
        got, ref = outcome(NUMPY_LINALG[name], *args), outcome(SCIPY_LINALG[name], *args)
        assert isinstance(got, str) == isinstance(ref, str)
        if isinstance(ref, str):
            assert got == ref
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-15)

    @pytest.mark.parametrize("name", sorted(SCIPY_LINALG))
    @pytest.mark.parametrize("a", [
        pytest.param(np.array([[0.0, 1.0], [1.0, 0.0]]), id="zero-leading-entry"),
        pytest.param(np.array([[1e-13, 1.0], [1.0, 1.0]]), id="tiny-leading-entry"),
        pytest.param(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]), id="3x3-needs-swaps"),
    ])
    def test_pivoting_decisions(self, name, a):
        # without row swaps the first pivot is 0 or 1e-13 and the ratio test would reject these
        args = (a, np.ones(a.shape[0])) if name == "solve" else (a,)
        assert_relative(NUMPY_LINALG[name](*args), SCIPY_LINALG[name](*args), 1e-12 * np.linalg.cond(a))

    RANK_DEFICIENT = [
        pytest.param(np.array([[1.0, 2.0], [2.0, 4.0]]), id="2x2-rank-1"),
        pytest.param(np.zeros((3, 3)), id="zero"),
        pytest.param(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), id="3x2-repeated-column"),
        pytest.param(np.outer(np.arange(1.0, 5.0), [1.0, -2.0, 0.5]), id="4x3-rank-1"),
        pytest.param(np.random.default_rng(7).standard_normal((6, 2)) @ np.random.default_rng(8).standard_normal((2, 4)),
                     id="6x4-rank-2"),
        pytest.param(np.random.default_rng(9).standard_normal((5, 3)) @ np.random.default_rng(10).standard_normal((3, 5)),
                     id="5x5-rank-3"),
    ]

    # l_inverse's two rejections: the Cholesky factorization of A'A fails, or
    # its pivots fail the ratio test.  Which one a rank-deficient A meets
    # depends on the rounding of a last pivot near zero, so either is accepted.
    RANK_MESSAGES = (
        "matrix is rank deficient",
        "matrix is rank deficient to working precision (pivot ratio below 1e-12)",
    )

    @pytest.mark.parametrize("a", RANK_DEFICIENT)
    def test_rank_deficient_decisions(self, a):
        assert outcome(SCIPY_LINALG["l_inverse"], a) in self.RANK_MESSAGES
        assert outcome(linalg.l_inverse, a) in self.RANK_MESSAGES
        if a.shape[0] == a.shape[1]:
            for name in ("inverse", "solve", "logabsdet"):
                args = (a, np.ones(a.shape[0])) if name == "solve" else (a,)
                ref = outcome(SCIPY_LINALG[name], *args)
                assert isinstance(ref, str), name
                assert outcome(NUMPY_LINALG[name], *args) == ref, name

    def test_messages(self):
        singular = "matrix is singular to working precision (pivot ratio below 1e-12)"
        assert outcome(linalg.inverse, np.zeros((2, 2))) == singular
        assert outcome(logabsdet, np.ones((2, 2))) == singular
        assert outcome(solve, np.diag([1.0, 1e-13]), np.ones(2)) == singular
        assert outcome(linalg.l_inverse, np.ones((2, 3))) == "a 2x3 matrix cannot have full column rank"
        assert outcome(linalg.l_inverse, np.ones((3, 2))) in self.RANK_MESSAGES


EXTREME = [
    pytest.param(np.array([[1e300, 1e300], [1e-300, 1.0]]), id="huge-and-tiny"),
    pytest.param(np.array([[1e308, 1e308], [1e308, -1e308]]), id="overflowing-update"),
    pytest.param(1e200 * np.eye(2), id="1e200-identity"),
    pytest.param(1e-200 * np.eye(2), id="1e-200-identity"),
    pytest.param(np.array([[1e-300, 1.0], [1.0, 1e300]]), id="tiny-pivot-first"),
]


class TestExtremeEntries:
    """Finite answers or a SingularMatrixError (an ArithmeticError), never a RuntimeWarning."""

    @pytest.mark.parametrize("a", EXTREME)
    @pytest.mark.parametrize("name", ["inverse", "solve", "logabsdet", "l_inverse"])
    def test_finite_or_arithmetic_error(self, a, name):
        args = (a, np.ones(2)) if name == "solve" else (a,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = NUMPY_LINALG[name](*args)
            except ArithmeticError:
                return
        assert np.isfinite(out).all()

    def test_subnormal_identity_inverse_overflows(self):
        # the pivot test is relative, so 1e-310 * I passes it; its inverse is beyond the float range
        a = 1e-310 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^matrix inverse overflows"):
                linalg.inverse(a)
            with pytest.raises(ArithmeticError):
                linalg.l_inverse(a)

    def test_scaled_identity_left_inverse(self):
        # A'A would underflow or overflow; the power-of-two scaling keeps it in range
        for scale in (1e-300, 1e-200, 1e200, 1e300):
            np.testing.assert_allclose(linalg.l_inverse(scale * np.eye(3)), np.eye(3) / scale, rtol=1e-15)


def matv1_file(tmp_path, text):
    path = tmp_path / "f.mat"
    path.write_text(text, encoding="utf-8")
    return path


class TestMatv1:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_creates_no_file(self, tmp_path, bad):
        path = tmp_path / "bad.mat"
        with pytest.raises(ValueError, match=r"^matrix entry \(1, 2\) is not finite"):
            linalg.write_matrix(np.array([[1.0, bad], [0.0, 1.0]]), path)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(26)
        a = gen.standard_normal((3, 4))
        path = tmp_path / "m.mat"
        linalg.write_matrix(a, path)
        np.testing.assert_array_equal(linalg.read_matrix(path), a)

    def test_layout(self, tmp_path):
        path = tmp_path / "m.mat"
        linalg.write_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "MATV1"
        assert lines[1] == "dims 2 2"
        assert lines[2].split() == ["1", "2"]

    def test_bad_header(self, tmp_path):
        with pytest.raises(FormatError, match=r"f\.mat:1"):
            linalg.read_matrix(matv1_file(tmp_path, "nope\n"))

    def test_bad_token(self, tmp_path):
        with pytest.raises(FormatError, match=r":3"):
            linalg.read_matrix(matv1_file(tmp_path, "MATV1\ndims 1 2\n1 oops\n"))

    def test_non_finite_token(self, tmp_path):
        with pytest.raises(FormatError, match=r"f\.mat:4:.*'nan'"):
            linalg.read_matrix(matv1_file(tmp_path, "MATV1\ndims 2 2\n1 2\nnan 4\n"))

    def test_truncated(self, tmp_path):
        with pytest.raises(FormatError, match="2 of 4"):
            linalg.read_matrix(matv1_file(tmp_path, "MATV1\ndims 2 2\n1 2\n"))

    def test_extra_token(self, tmp_path):
        with pytest.raises(FormatError, match="extra token"):
            linalg.read_matrix(matv1_file(tmp_path, "MATV1\ndims 1 2\n1 2 3\n"))


# MATV1 is the ARRV1 record grammar under its own header. Each case parses to
# the given values or fails with (line, message) when read from the file f.mat.
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
def test_matv1_corner_cases(tmp_path, text, expected):
    path = matv1_file(tmp_path, text)
    if isinstance(expected, tuple):
        line, message = expected
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{line}: .*{message}"):
            linalg.read_matrix(path)
    else:
        np.testing.assert_array_equal(linalg.read_matrix(path), np.array(expected, float))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: linalg.inverse(np.zeros((0, 0))), id="inverse"),
    pytest.param(lambda: linalg.l_inverse(np.zeros((3, 0))), id="l_inverse"),
    pytest.param(lambda: KroneckerModel(np.zeros((0,)), [np.zeros((0, 0))], Kernel.normal()), id="model"),
    pytest.param(lambda: r_multiply([np.zeros((0, 2))], np.ones(2)), id="r_multiply"),
])
def test_zero_size_matrices_get_the_writers_message(call):
    # as_matrix rejects a zero dimension, with the message write_matrix and write_arrays give
    with pytest.raises(ValueError, match=r"^array dimension must be a whole number >= 1, got 0$"):
        call()
