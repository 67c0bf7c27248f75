"""Small dense matrix kernel: LU/Cholesky factorizations, determinants,
inverses and the left inverse ``(A'A)^{-1}A'`` used by least squares.

Everything here targets the tiny per-mode factors of a Kronecker model, so
plain LU with partial pivoting plus a scale-invariant pivot-ratio test covers
all needs.  Matrices are 2-D float64 ndarrays.
"""

import warnings

import numpy as np
import scipy.linalg

from .array_core import reject_nonfinite
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


def _lu_factor(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exact-zero pivot warning; handled by callers
        return scipy.linalg.lu_factor(a, check_finite=False)


def _checked_lu(a):
    lu, piv = _lu_factor(a)
    d = np.abs(np.diag(lu))
    if d.max() == 0.0 or d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    return lu, piv


def lu_det(a) -> float:
    """Determinant via LU with partial pivoting; sign taken from the permutation."""
    a = _square(a)
    lu, piv = _lu_factor(a)
    sign = -1.0 if np.count_nonzero(piv != np.arange(a.shape[0])) % 2 else 1.0
    return float(sign * np.prod(np.diag(lu)))


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
# MATV1 text format
#
#   line 1:  MATV1
#   line 2:  dims r c
#   then:    r*c whitespace-separated reals in row-major reading order
# ---------------------------------------------------------------------------

def dump_matrix(a) -> str:
    a = as_matrix(a)
    lines = ["MATV1", f"dims {a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(a, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_matrix(a))


def parse_matrix(text, source="<string>") -> np.ndarray:
    """Parse one MATV1 matrix; :class:`FormatError` names source and line."""
    lines = text.splitlines()

    def fail(ln, msg):
        raise FormatError(f"{source}:{ln}: {msg}")

    lineno = 0
    while lineno < len(lines) and not lines[lineno].strip():
        lineno += 1
    if lineno >= len(lines) or lines[lineno].strip() != "MATV1":
        got = lines[lineno].strip() if lineno < len(lines) else "<end of input>"
        fail(lineno + 1, f"expected MATV1 header, got {got!r}")
    lineno += 1
    if lineno >= len(lines):
        fail(lineno, "missing dims line")
    parts = lines[lineno].split()
    if len(parts) != 3 or parts[0] != "dims":
        fail(lineno + 1, "expected 'dims r c' line")
    try:
        r, c = int(parts[1]), int(parts[2])
    except ValueError:
        fail(lineno + 1, f"non-integer dimensions in {lines[lineno].strip()!r}")
    if r < 1 or c < 1:
        fail(lineno + 1, f"invalid dimensions {r}x{c}")
    lineno += 1
    data_start = lineno
    values = []
    total = r * c
    while lineno < len(lines):
        for t in lines[lineno].split():
            if len(values) == total:
                fail(lineno + 1, f"extra token {t!r} after {total} values")
            try:
                values.append(float(t))
            except ValueError:
                fail(lineno + 1, f"bad numeric token {t!r}")
        lineno += 1
    if len(values) != total:
        fail(len(lines), f"unexpected end of input: got {len(values)} of {total} values")
    values = np.array(values)
    reject_nonfinite(values, lines, data_start, fail)
    return values.reshape(r, c)


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    return parse_matrix(text, source=str(path))
