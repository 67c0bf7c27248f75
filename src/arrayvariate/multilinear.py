"""Simultaneous per-mode matrix application and multilinear least squares.

``r_multiply`` applies one matrix per mode of a multiway array, generalizing
``A X B'`` from matrices to arrays of any order.  Single arrays and batches
run through one engine, :func:`map_tiles`: it cuts the stacked rows into
tiles of about ``TILE_BYTES``, runs every mode on a tile while it is in
cache, and hands the mapped tile back to the caller in the batch-trailing
layout (batch on the last axis of a C-contiguous block).  That costs
``O(m * sum(qj))`` per array instead of the ``O(m * prod(qj))`` of the
defining nested sum, and no layout move or product touches more than one
tile at a time.

A tile enters in one of two layouts, chosen by :func:`reads_rows` from the
cell count m alone.  Long rows (m >= 12) enter as the caller's own
C-contiguous ``(w, m)`` rows: mode 1 reads them in place through a
transposed view, one GEMM per ``(m1, w)`` slab, so no layout copy precedes
it.  Short rows enter already moved into the batch-trailing ``(m, w)``
block, which the caller fuses with its own entry step (centering,
division).  On the density path, reading rows in place ran 9-43% slower at
m = 6 to 11 and 6-44% faster at m = 12 to 16,384; CHANGES.md has the table.
Later modes and the yielded block are the same in both layouts.  The
engine's maps should be Fortran-ordered, as ``linalg.inverse`` and
``KroneckerModel`` give them: the transposed-view GEMM then rounds as the
batch-trailing one does.
"""

import math

import numpy as np

from . import linalg
from .array_core import as_array, check_finite, rvec
from .errors import SingularMatrixError

# Input bytes per row tile, sized to stay in a core's L2 cache.  A tile holds
# max(8, TILE_BYTES // (8 * m)) rows: below 8 rows a mode's GEMM can take
# another BLAS path, which would make a draw's bytes depend on the tiling.
TILE_BYTES = 1 << 18


def reads_rows(m) -> bool:
    """Whether :func:`map_tiles` takes a tile of m-cell arrays as ``(w, m)`` rows, not as an ``(m, w)`` block.

    Below 12 cells, the GEMMs of a strided row read cost more than the
    transposing copy they save (see the module docstring).
    """
    return m >= 12


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

    For each row tile ``t`` (a slice of ``range(n)``), ``enter(t)`` returns
    the tile's arrays.  When :func:`reads_rows` holds for their cell count m,
    it returns them as C-contiguous ``(len(t), m)`` rows, row k the ``rvec``
    of array k.  Otherwise it returns the C-contiguous ``(m, len(t))`` block
    whose column k is that ``rvec``.  Every mode runs on the tile, and the
    generator yields ``(t, block)`` with the C-contiguous ``(q, len(t))``
    result, which the caller finishes before the next tile is entered.
    """
    shape = tuple(int(d) for d in shape)
    ms = _checked_maps(maps, shape)
    m = math.prod(shape)
    rows_in = reads_rows(m)
    for tile in _tiles(n, m):
        block = enter(tile)
        width = tile.stop - tile.start
        if rows_in:
            # the (m/m1, m1, w) view of the rows: mode 1 runs one GEMM per slab, on the rows in place
            block = block.reshape(width, m // shape[0], shape[0]).transpose(1, 2, 0)
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
    if reads_rows(m):
        enter = lambda t: np.ascontiguousarray(rows[t])  # C-ordered rows go in without a copy
    else:
        enter = lambda t: np.ascontiguousarray(rows[t].T)
    for tile, block in map_tiles(ms, shape, len(rows), enter):
        out[tile] = block.T
    return out


def map_array(maps, x, name, result, shift=None) -> np.ndarray:
    """Apply the mode maps to the array ``x`` (less ``shift``, if given); the image must be finite.

    A non-finite image raises as :func:`~arrayvariate.array_core.check_finite`
    does, with the cells of ``x`` called ``name`` and the image ``result``.
    No floating-point warning is emitted on the way.
    """
    ms = _checked_maps(maps, x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_modes(ms, rvec(x if shift is None else x - shift)[None, :], x.shape)
    check_finite(out, rvec(x)[None, :], x.shape, name, result)
    return out[0].reshape(tuple(a.shape[0] for a in ms), order="F")


def r_multiply(maps, x) -> np.ndarray:
    """Apply the ordered mode maps ``(A1, ..., Ai)`` to the array ``x``.

    ``Aj`` must be ``qj x mj`` with ``mj`` the j-th dimension of ``x``; the
    result has shape ``(q1, ..., qi)``.  With a single mode this is the
    ordinary matrix-vector product; with two modes it is ``A1 @ X @ A2.T``.
    Raises ``ValueError`` for a non-finite cell of ``x`` and
    ``OverflowError`` when the image of a finite ``x`` overflows.
    """
    return map_array(maps, as_array(x), "array", "image")


def multilinear_lstsq(maps, y) -> np.ndarray:
    """Least-squares recovery of ``x`` from ``y ~ r_multiply(maps, x)``.

    Applies the left inverse ``(Aj'Aj)^{-1}Aj'`` of every mode map to ``y``,
    which minimizes the squared residual norm over all arrays ``x``.  Each
    map must have full column rank (``qj >= mj``); for square non-singular
    maps the recovery is exact.  A non-finite cell of ``y`` raises
    ``ValueError``, and an estimate that overflows ``OverflowError``.
    """
    y = as_array(y)
    ms = _checked_maps(maps, y.shape, side=0)
    inv_maps = []
    for j, a in enumerate(ms, start=1):
        try:
            inv_maps.append(linalg.l_inverse(a))
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"mode {j}: map is rank deficient") from exc
    return map_array(inv_maps, y, "observation", "estimate")
