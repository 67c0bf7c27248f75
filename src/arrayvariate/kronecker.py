"""The chain of reversed Kronecker products ``A (x)' B = B (x) A`` over ordered factors.

The reversal is what makes chained per-mode maps act directly on the
first-index-fastest stacked vector: the classical identity
``vec(A X B') = (B (x) A) vec(X)`` reads ``rvec(A X B') = (A (x)' B) rvec(X)``,
and folding the product left to right over an ordered factor list
``(A1, ..., Ai)`` yields the single matrix representing the whole multilinear
map on stacked vectors, with the factor order matching the mode order.
The chain's log-determinant is ``KroneckerModel.log_jac``
(:class:`arrayvariate.densities.KroneckerModel`).
"""

from functools import reduce

import numpy as np

from . import linalg


def inv_kron_chain(factors) -> np.ndarray:
    """Left-associated fold of ``A (x)' B = np.kron(B, A)`` over an ordered factor list.

    For factors of sizes ``mj x nj`` the result is ``prod(mj) x prod(nj)``.
    Materializes the full dense matrix: meant for small verification problems
    and oracles, not for density or sampling hot paths.
    """
    fs = [linalg.as_matrix(f) for f in factors]
    if not fs:
        raise ValueError("factor list must be non-empty")
    return reduce(lambda a, b: np.kron(b, a), fs)
