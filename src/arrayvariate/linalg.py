"""Small dense matrix kernel: LU/Cholesky factorizations, log-determinants,
inverses and the left inverse ``(A'A)^{-1}A'`` used by least squares.

Everything here targets the tiny per-mode factors of a Kronecker model, so
plain LU with partial pivoting plus a scale-invariant pivot-ratio test covers
all needs.  Matrices are 2-D float64 ndarrays.
"""

import warnings

import numpy as np
import scipy.linalg

from .array_core import parse_records, write_records
from .errors import FormatError, SingularMatrixError

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


def _checked_lu(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exact-zero pivot warning; the pivot test below rejects it
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.max() == 0.0 or d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    return lu, piv


def logabsdet(a) -> float:
    """log |det A|; raises :class:`SingularMatrixError` when A fails the pivot test."""
    lu, _ = _checked_lu(_square(a))
    return float(np.sum(np.log(np.abs(np.diag(lu)))))


def inverse(a) -> np.ndarray:
    """Matrix inverse via the pivot-checked LU factorization."""
    a = _square(a)
    lu, piv = _checked_lu(a)
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]), check_finite=False)


def solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` for non-singular A."""
    a = _square(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side of length {b.shape[0]} does not match {a.shape[0]}x{a.shape[1]} matrix")
    lu, piv = _checked_lu(a)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def l_inverse(a) -> np.ndarray:
    """Left inverse ``(A'A)^{-1} A'`` of a full-column-rank matrix.

    Computed through the Cholesky factor of A'A (the matrices here are tiny);
    satisfies ``l_inverse(A) @ A == I`` and reduces to the ordinary inverse
    for square A.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise SingularMatrixError(f"a {a.shape[0]}x{a.shape[1]} matrix cannot have full column rank")
    gram = a.T @ a
    try:
        c, low = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is rank deficient") from exc
    d = np.diag(c) ** 2  # pivots of A'A
    if d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is rank deficient to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    return scipy.linalg.cho_solve((c, low), a.T, check_finite=False)


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
    records = parse_records(text, source, "MATV1", order=2)
    if len(records) != 1:
        raise FormatError(f"{source}:1: expected exactly one matrix, found {len(records)}")
    dims, values = records[0]
    return values.reshape(dims)


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    return parse_matrix(text, source=str(path))
