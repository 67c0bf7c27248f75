"""The reversed Kronecker product ``A (x)' B = B (x) A`` and the chain trace shortcut.

The reversal is what makes chained per-mode maps act directly on the
first-index-fastest stacked vector: the classical identity
``vec(A X B') = (B (x) A) vec(X)`` reads ``rvec(A X B') = (A (x)' B) rvec(X)``,
and folding the product left to right over an ordered factor list
``(A1, ..., Ai)`` yields the single matrix representing the whole multilinear
map on stacked vectors, with the factor order matching the mode order.
The chain's log-determinant is :func:`arrayvariate.densities.log_jacobian`.
"""

from functools import reduce

import numpy as np

from . import linalg


def inv_kron(a, b) -> np.ndarray:
    """Reversed Kronecker product of two matrices: block (j, k) is ``A * B[j, k]``."""
    return np.kron(linalg.as_matrix(b), linalg.as_matrix(a))


def _factor_list(factors):
    fs = [linalg.as_matrix(f) for f in factors]
    if not fs:
        raise ValueError("factor list must be non-empty")
    return fs


def _square_factors(factors):
    fs = _factor_list(factors)
    for j, f in enumerate(fs, start=1):
        if f.shape[0] != f.shape[1]:
            raise ValueError(f"factor {j} must be square, got {f.shape[0]}x{f.shape[1]}")
    return fs


def inv_kron_chain(factors) -> np.ndarray:
    """Left-associated fold of :func:`inv_kron` over an ordered factor list.

    For factors of sizes ``mj x nj`` the result is ``prod(mj) x prod(nj)``.
    Materializes the full dense matrix: meant for small verification problems
    and oracles, not for density or sampling hot paths.
    """
    return reduce(inv_kron, _factor_list(factors))


def chain_trace(factors) -> float:
    """Trace of the expanded chain: the product of the factor traces."""
    fs = _square_factors(factors)
    out = 1.0
    for f in fs:
        out *= float(np.trace(f))
    return out
