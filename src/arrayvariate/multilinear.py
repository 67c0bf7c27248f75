"""Simultaneous per-mode matrix application and multilinear least squares.

``r_multiply`` applies one matrix per mode of a multiway array, generalizing
``A X B'`` from matrices to arrays of any order.  Single arrays and batches
run through one engine, :func:`apply_modes`: with the batch on the trailing
axis of a C-contiguous block, each mode is one ``np.matmul`` and no copy
comes between modes.  That costs ``O(m * sum(qj))`` per array instead of the
``O(m * prod(qj))`` of the defining nested sum; the nested sum survives as
:func:`r_multiply_oracle` for verification.
"""

import math

import numpy as np

from . import linalg
from .array_core import as_array, rvec, sq_norm
from .errors import SingularMatrixError
from .kronecker import inv_kron_chain


def _checked_maps(maps, shape, side=1):
    # map j is qj x mj; shape holds the mj (side 1, the input) or the qj (side 0, the output)
    ms = [linalg.as_matrix(a) for a in maps]
    if len(ms) != len(shape):
        raise ValueError(f"{len(ms)} mode maps for an array of order {len(shape)}")
    what = ("columns", "array dimension") if side else ("rows", "observed array dimension")
    for j, (a, d) in enumerate(zip(ms, shape), start=1):
        if a.shape[side] != d:
            raise ValueError(f"mode {j}: map has {a.shape[side]} {what[0]}, {what[1]} is {d}")
    return ms


def apply_modes(maps, rows, shape) -> np.ndarray:
    """Apply the mode maps ``(A1, ..., Ai)``, ``Aj`` of size ``qj x mj``, to each row.

    Row k of the ``(n, m)`` matrix ``rows`` is the ``rvec`` of an array of
    ``shape``.  The ``(n, q)`` result is the transpose of a C-contiguous
    ``(q, n)`` block, and ``rows`` given that way is used without a copy, so
    callers fold the change of layout into work they do anyway.
    """
    shape = tuple(int(d) for d in shape)
    ms = _checked_maps(maps, shape)
    rows = np.asarray(rows, dtype=float)
    m = math.prod(shape)
    if rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError(f"expected an (n, {m}) matrix of stacked arrays, got {rows.shape}")
    n = rows.shape[0]
    block = np.ascontiguousarray(rows.T)  # (mi, ..., m1, n) in C order
    dims = list(shape)
    for j, a in enumerate(ms):
        # mode j is the middle axis; sizes spelled out, as -1 is ambiguous when n is 0
        block = np.matmul(a, block.reshape(math.prod(dims[j + 1:]), dims[j], n * math.prod(dims[:j])))
        dims[j] = a.shape[0]
    return block.reshape(math.prod(dims), n).T


def r_multiply(maps, x) -> np.ndarray:
    """Apply the ordered mode maps ``(A1, ..., Ai)`` to the array ``x``.

    ``Aj`` must be ``qj x mj`` with ``mj`` the j-th dimension of ``x``; the
    result has shape ``(q1, ..., qi)``.  With a single mode this is the
    ordinary matrix-vector product; with two modes it is ``A1 @ X @ A2.T``.
    """
    x = as_array(x)
    ms = _checked_maps(maps, x.shape)
    return apply_modes(ms, rvec(x)[None, :], x.shape).reshape(tuple(a.shape[0] for a in ms), order="F")


def r_multiply_oracle(maps, x) -> np.ndarray:
    """Reference evaluation of :func:`r_multiply` straight from the nested sum.

    Exponential in the order; use only to verify the fast path on tiny inputs.
    """
    x = as_array(x)
    ms = _checked_maps(maps, x.shape)
    out_shape = tuple(a.shape[0] for a in ms)
    out = np.zeros(out_shape)
    for q in np.ndindex(out_shape):
        acc = 0.0
        for r in np.ndindex(x.shape):
            coeff = 1.0
            for a, qj, rj in zip(ms, q, r):
                coeff *= a[qj, rj]
            acc += coeff * x[r]
        out[q] = acc
    return out


def monolinear_equiv_check(maps, x) -> float:
    """Max-abs gap between the mode-wise product and its monolinear form.

    Compares ``rvec(r_multiply(maps, x))`` against the expanded chain matrix
    applied to ``rvec(x)``; on well-scaled inputs the gap stays below 1e-10.
    """
    x = as_array(x)
    ms = _checked_maps(maps, x.shape)
    lhs = rvec(r_multiply(ms, x))
    rhs = inv_kron_chain(ms) @ rvec(x)
    return float(np.max(np.abs(lhs - rhs)))


def composition_check(maps_a, maps_b, x) -> float:
    """Max-abs gap between sequential application and product-map application.

    Applies ``maps_b`` then ``maps_a`` and compares with applying the per-mode
    products ``Aj @ Bj`` once.
    """
    x = as_array(x)
    lhs = r_multiply(maps_a, r_multiply(maps_b, x))
    prod_maps = [linalg.as_matrix(a) @ linalg.as_matrix(b) for a, b in zip(maps_a, maps_b)]
    rhs = r_multiply(prod_maps, x)
    return float(np.max(np.abs(lhs - rhs)))


def multilinear_lstsq(maps, y) -> np.ndarray:
    """Least-squares recovery of ``x`` from ``y ~ r_multiply(maps, x)``.

    Applies the left inverse ``(Aj'Aj)^{-1}Aj'`` of every mode map to ``y``,
    which minimizes the squared residual norm over all arrays ``x``.  Each
    map must have full column rank (``qj >= mj``); for square non-singular
    maps the recovery is exact.
    """
    y = as_array(y)
    ms = _checked_maps(maps, y.shape, side=0)
    inv_maps = []
    for j, a in enumerate(ms, start=1):
        try:
            inv_maps.append(linalg.l_inverse(a))
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"mode {j}: map is rank deficient") from exc
    return r_multiply(inv_maps, y)


def lstsq_residual(maps, y, x) -> float:
    """Squared residual norm ``||y - r_multiply(maps, x)||^2``."""
    return sq_norm(as_array(y) - r_multiply(maps, x))
