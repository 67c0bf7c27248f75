"""Small dense matrix kernel: pivot-checked inverses, solves and log-determinants,
and the left inverse ``(A'A)^{-1}A'`` used by least squares.

Everything here targets the tiny per-mode factors of a Kronecker model.  A
square matrix is accepted when its LU factorization with partial pivoting
passes a scale-invariant pivot-ratio test; the pivots come from a short numpy
elimination (one row swap and one rank-1 update per column), and the inverse,
solve and log-determinant then come from ``numpy.linalg``.  The left inverse
applies the same ratio test to the pivots of the Cholesky factor of ``A'A``.
Only numpy is used, so importing this module loads no scipy.  Matrices are
2-D float64 ndarrays.
"""

import numpy as np

from .array_core import only_record, parse_records, write_records
from .errors import SingularMatrixError

# Reject a factorization when min |pivot| < PIVOT_RTOL * max |pivot|.
PIVOT_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of order {a.ndim}")
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


def logabsdet(a) -> float:
    """log |det A|; raises :class:`SingularMatrixError` when A fails the pivot test."""
    a = _square(a)
    _checked_lu(a)
    return float(np.linalg.slogdet(a)[1])


def inverse(a) -> np.ndarray:
    """Matrix inverse of a matrix that passes the pivot test, in Fortran order."""
    a = _square(a)
    _checked_lu(a)
    try:
        # Fortran order, the layout LAPACK writes: the per-mode engine's
        # matmul with a 32x32 inverse factor runs 6-10% faster in it
        return np.asfortranarray(np.linalg.inv(a))
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc


def solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` for non-singular A."""
    a = _square(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side of length {b.shape[0]} does not match {a.shape[0]}x{a.shape[1]} matrix")
    _checked_lu(a)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc


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


# ---------------------------------------------------------------------------
# MATV1 text format: the ARRV1 record grammar (see arrayvariate.array_core)
# with exactly one record per file
#
#   line 1:  MATV1
#   line 2:  dims r c
#   then:    r*c whitespace-separated reals in row-major reading order
# ---------------------------------------------------------------------------

def dump_matrix(a) -> str:
    a = as_matrix(a)
    out = []
    write_records("MATV1", a.shape, a.reshape(1, -1), a.shape[1], out.append)
    return "".join(out)


def write_matrix(a, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_matrix(a))


def parse_matrix(text, source="<string>") -> np.ndarray:
    """Parse one MATV1 matrix; :class:`FormatError` names source and line."""
    dims, values = only_record(parse_records(text, source, "MATV1", order=2), source, "matrix")
    return values.reshape(dims)


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    return parse_matrix(text, source=str(path))
