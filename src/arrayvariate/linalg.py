"""Small dense matrix kernel: pivot-checked inverses, the left inverse
``(A'A)^{-1}A'`` used by least squares, and the reversed Kronecker chain.

Everything here targets the tiny per-mode factors of a Kronecker model.  A
square matrix is accepted when its LU factorization with partial pivoting
passes a scale-invariant pivot-ratio test; the pivots come from a short numpy
elimination (one row swap and one rank-1 update per column), and the inverse
then comes from ``numpy.linalg``.  The left inverse applies the same ratio
test to the pivots of the Cholesky factor of ``A'A``.
Only numpy is used, so importing this module loads no scipy.  Matrices are
2-D float64 ndarrays with at least one row and column and finite entries:
``as_matrix`` rejects any other with a ``ValueError``, naming a zero
dimension as the array writers do, or the first non-finite entry.
"""

from functools import reduce

import numpy as np

from .array_core import only_record, read_records, shape_size, write_records
from .errors import SingularMatrixError

# Reject a factorization when min |pivot| < PIVOT_RTOL * max |pivot|.
PIVOT_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of order {a.ndim}")
    shape_size(a.shape)  # no zero dimension
    finite = np.isfinite(a)
    if not finite.all():  # name the first bad entry in reading order
        i, j = np.unravel_index(int(finite.argmin()), a.shape)
        raise ValueError(f"matrix entry ({i + 1}, {j + 1}) is not finite ({float(a[i, j])!r})")
    return a


def _square(a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return a


def _singular():
    return SingularMatrixError(
        f"matrix is singular to working precision (pivot ratio below {PIVOT_RTOL:g})"
    )


def _checked_lu(a):
    """Raise :class:`SingularMatrixError` unless the pivots of A's LU factorization pass the ratio test.

    Partial pivoting picks the first entry of largest magnitude in each
    column, as LAPACK's ``getrf`` does.  A zero or non-finite pivot fails at
    once: it fails the ratio test whatever the other pivots are.
    """
    lu = np.array(a, dtype=float)
    pivots = []
    with np.errstate(all="ignore"):  # an overflow or nan reaches a pivot and is rejected there
        for k in range(lu.shape[0]):
            col = np.abs(lu[k:, k])
            p = int(col.argmax())
            pivot = float(col[p])
            if not 0.0 < pivot < np.inf:
                raise _singular()
            pivots.append(pivot)
            if p:
                lu[[k, k + p]] = lu[[k + p, k]]
            lu[k + 1:, k + 1:] -= np.multiply.outer(lu[k + 1:, k] / lu[k, k], lu[k, k + 1:])
    if min(pivots) < PIVOT_RTOL * max(pivots):
        raise _singular()


def inverse(a) -> np.ndarray:
    """Matrix inverse of a matrix that passes the pivot test, in Fortran order; ``OverflowError`` if it overflows."""
    return _inverse(_square(a))


def _inverse(a) -> np.ndarray:
    # inverse of a square matrix that as_matrix has already checked
    _checked_lu(a)
    try:
        # Fortran order, the layout LAPACK writes: the per-mode engine's
        # matmul with a 32x32 inverse factor runs 6-10% faster in it
        inv = np.asfortranarray(np.linalg.inv(a))
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc
    if not np.isfinite(inv).all():  # the pivot test is relative: 1e-310 * I passes it
        raise OverflowError("matrix inverse overflows in floating point")
    return inv


def l_inverse(a) -> np.ndarray:
    """Left inverse ``(A'A)^{-1} A'`` of a full-column-rank matrix.

    Checked through the Cholesky factor of A'A (the matrices here are tiny);
    satisfies ``l_inverse(A) @ A == I`` and reduces to the ordinary inverse
    for square A.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise SingularMatrixError(f"a {a.shape[0]}x{a.shape[1]} matrix cannot have full column rank")
    # A = B * 2^e with max |B| in [0.5, 1): the power-of-two scale is exact, and
    # B'B neither overflows nor underflows where A'A would
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    b = np.ldexp(a, -e)
    gram = b.T @ b
    try:
        c = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is rank deficient") from exc
    d = np.diag(c) ** 2  # pivots of B'B, the pivots of A'A scaled by 4^-e
    if d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is rank deficient to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    with np.errstate(over="raise"):  # a left inverse beyond the float range is an ArithmeticError
        return np.ldexp(np.linalg.solve(gram, b.T), -e)


def inv_kron_chain(factors) -> np.ndarray:
    """Left-associated fold of the reversed Kronecker product ``A (x)' B = np.kron(B, A)`` over ordered factors.

    The reversal makes chained per-mode maps act directly on the first-index-fastest stacked vector: the
    classical ``vec(A X B') = (B (x) A) vec(X)`` reads ``rvec(A X B') = (A (x)' B) rvec(X)``, so the fold over
    ``(A1, ..., Ai)`` is the matrix of the whole multilinear map, factors in mode order, with log-determinant
    ``KroneckerModel.log_jac``.  Factors of sizes ``mj x nj`` give a dense ``prod(mj) x prod(nj)`` matrix,
    meant for small verification problems and oracles, not for density or sampling hot paths."""
    fs = [as_matrix(f) for f in factors]
    if not fs:
        raise ValueError("factor list must be non-empty")
    return reduce(lambda a, b: np.kron(b, a), fs)


# ---------------------------------------------------------------------------
# MATV1 text format: the ARRV1 record grammar (see arrayvariate.array_core)
# with exactly one record per file
#
#   line 1:  MATV1
#   line 2:  dims r c
#   then:    r*c whitespace-separated reals in row-major reading order
# ---------------------------------------------------------------------------

def write_matrix(a, path) -> None:
    a = as_matrix(a)  # checked before the file is opened: a rejected call creates no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_records("MATV1", a.shape, a.reshape(1, -1), a.shape[1], fh.write)


def read_matrix(path) -> np.ndarray:
    dims, values = only_record(read_records(path, "MATV1", order=2), str(path), "matrix")
    return values.reshape(dims)
