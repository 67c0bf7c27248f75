"""Simultaneous per-mode matrix application and multilinear least squares.

``r_multiply`` applies one matrix per mode of a multiway array, generalizing
``A X B'`` from matrices to arrays of any order.  Single arrays and batches
run through one engine, :func:`map_tiles`: it cuts the stacked rows into
tiles of about ``TILE_BYTES``, has the caller move each tile into the
batch-trailing layout (batch on the last axis of a C-contiguous block) while
the tile is in cache, runs every mode on it as one ``np.matmul`` with no
copy between modes, and hands the mapped tile back to the caller.  That
costs ``O(m * sum(qj))`` per array instead of the ``O(m * prod(qj))`` of the
defining nested sum, and no layout move or product touches more than one
tile at a time.
"""

import math

import numpy as np

from . import linalg
from .array_core import as_array, rvec
from .errors import SingularMatrixError

# Input bytes per row tile, sized to stay in a core's L2 cache.  A tile holds
# max(8, TILE_BYTES // (8 * m)) rows: below 8 rows a mode's GEMM can take
# another BLAS path, which would make a draw's bytes depend on the tiling.
TILE_BYTES = 1 << 18


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


def _tiles(n, m):
    # row slices covering range(n); a remainder shorter than 8 rows joins the last tile
    rows = max(8, TILE_BYTES // (8 * max(m, 1)))
    start = 0
    while start < n:
        stop = n if n - start < rows + 8 else start + rows
        yield slice(start, stop)
        start = stop


def map_tiles(maps, shape, n, enter):
    """Apply the mode maps ``(A1, ..., Ai)`` to n stacked arrays of ``shape``, one row tile at a time.

    For each row tile ``t`` (a slice of ``range(n)``), ``enter(t)`` returns the
    tile's arrays as the C-contiguous ``(m, len(t))`` block whose column k is
    the ``rvec`` of array k.  Every mode runs on that block, and the generator
    yields ``(t, block)`` with the C-contiguous ``(q, len(t))`` result, which
    the caller finishes before the next tile is entered.
    """
    shape = tuple(int(d) for d in shape)
    ms = _checked_maps(maps, shape)
    for tile in _tiles(n, math.prod(shape)):
        block = enter(tile)
        width = tile.stop - tile.start
        dims = list(shape)
        for j, a in enumerate(ms):
            # mode j is the middle axis; sizes spelled out, as -1 is ambiguous for empty blocks
            block = np.matmul(a, block.reshape(math.prod(dims[j + 1:]), dims[j], width * math.prod(dims[:j])))
            dims[j] = a.shape[0]
        yield tile, block.reshape(math.prod(dims), width)


def apply_modes(maps, rows, shape) -> np.ndarray:
    """Apply the mode maps ``(A1, ..., Ai)``, ``Aj`` of size ``qj x mj``, to each row.

    Row k of the ``(n, m)`` matrix ``rows`` is the ``rvec`` of an array of
    ``shape``; row k of the ``(n, q)`` result is the ``rvec`` of its image.
    """
    shape = tuple(int(d) for d in shape)
    ms = _checked_maps(maps, shape)
    rows = np.asarray(rows, dtype=float)
    m = math.prod(shape)
    if rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError(f"expected an (n, {m}) matrix of stacked arrays, got {rows.shape}")
    out = np.empty((rows.shape[0], math.prod(a.shape[0] for a in ms)))
    for tile, block in map_tiles(ms, shape, len(rows), lambda t: np.ascontiguousarray(rows[t].T)):
        out[tile] = block.T
    return out


def r_multiply(maps, x) -> np.ndarray:
    """Apply the ordered mode maps ``(A1, ..., Ai)`` to the array ``x``.

    ``Aj`` must be ``qj x mj`` with ``mj`` the j-th dimension of ``x``; the
    result has shape ``(q1, ..., qi)``.  With a single mode this is the
    ordinary matrix-vector product; with two modes it is ``A1 @ X @ A2.T``.
    """
    x = as_array(x)
    ms = _checked_maps(maps, x.shape)
    return apply_modes(ms, rvec(x)[None, :], x.shape).reshape(tuple(a.shape[0] for a in ms), order="F")


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
