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

A caller names a tile's elementwise entry step (centering, division) and the
engine evaluates it into the tile's first block, in a layout chosen by
:func:`reads_rows` from the cell count m alone.  Long rows (m >= 12) land in
C-contiguous ``(w, m)`` rows: mode 1 reads them through a transposed view,
one GEMM per ``(m1, w)`` slab, so no layout copy precedes it.  Short rows
land in the batch-trailing ``(m, w)`` block.  On the density path, reading
rows in place ran 9-43% slower at m = 6 to 11 and 6-44% faster at m = 12 to
16,384; CHANGES.md has the table.  Later modes and the yielded block are the
same in both layouts.  The engine's maps should be Fortran-ordered, as
``linalg.inverse`` and ``KroneckerModel`` give them: the transposed-view
GEMM then rounds as the batch-trailing one does.  Maps are checked where
they enter the library (:func:`apply_modes`, :func:`r_multiply`,
:func:`multilinear_lstsq` and ``KroneckerModel``); :func:`map_tiles` and
:func:`map_rows` trust them.
"""

import math

import numpy as np

from . import linalg
from .array_core import as_array, check_finite, rvec, shape_size
from .errors import SingularMatrixError

# Input bytes per row tile, sized to stay in a core's L2 cache.  A tile holds
# max(8, TILE_BYTES // (8 * m)) rows: below 8 rows a mode's GEMM can take
# another BLAS path, which would make a draw's bytes depend on the tiling.
TILE_BYTES = 1 << 18


def reads_rows(m) -> bool:
    """Whether :func:`map_tiles` lays a tile of m-cell arrays out as ``(w, m)`` rows, not as an ``(m, w)`` block.

    Below 12 cells, the GEMMs of a strided row read cost more than the
    transposing entry they save (see the module docstring).
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


def row_tiles(n, m):
    """Row slices covering range(n); a remainder shorter than 8 rows joins the last tile."""
    rows = max(8, TILE_BYTES // (8 * max(m, 1)))
    start = 0
    while start < n:
        stop = n if n - start < rows + 8 else start + rows
        yield slice(start, stop)
        start = stop


def map_tiles(maps, shape, n, enter):
    """Apply the mode maps ``(A1, ..., Ai)`` to n stacked arrays of ``shape``, one row tile at a time.

    For each row tile ``t`` (a slice of ``range(n)``), ``enter(t)`` names the
    tile's entry step as ``(ufunc, a, b)``: the binary ufunc whose value
    ``ufunc(a, b)`` is the ``(len(t), m)`` matrix of the tile's arrays, row k
    the ``rvec`` of array k.  The engine evaluates it into a fresh block in
    the layout :func:`reads_rows` picks, runs every mode on the tile, and
    yields ``(t, block)`` with the C-contiguous ``(q, len(t))`` result, which
    the caller finishes before the next tile is entered.  The maps are not
    checked here.
    """
    shape = tuple(int(d) for d in shape)
    m = math.prod(shape)
    rows_in = reads_rows(m)
    for tile in row_tiles(n, m):
        ufunc, *operands = enter(tile)
        width = tile.stop - tile.start
        block = ufunc(*operands, order="C" if rows_in else "F")
        if rows_in:
            # the (m/m1, m1, w) view of the rows: mode 1 runs one GEMM per slab, on the rows in place
            block = block.reshape(width, m // shape[0], shape[0]).transpose(1, 2, 0)
        else:
            block = block.T  # Fortran-ordered rows, written in their own order: the batch-trailing block
        dims = list(shape)
        for j, a in enumerate(maps):
            # mode j is the middle axis; sizes spelled out, as -1 is ambiguous for empty blocks
            block = np.matmul(a, block.reshape(math.prod(dims[j + 1:]), dims[j], width * math.prod(dims[:j])))
            dims[j] = a.shape[0]
        yield tile, block.reshape(math.prod(dims), width)


def map_rows(maps, rows, shape, name, result, shift=0.0) -> np.ndarray:
    """Apply the checked mode maps to each stacked row less ``shift``; the images must be finite.

    Row k of the ``(n, m)`` matrix ``rows`` is the ``rvec`` of an array of
    ``shape``; row k of the ``(n, q)`` result is the ``rvec`` of its image.  A
    non-finite image raises as :func:`~arrayvariate.array_core.check_finite`
    does, with the rows called ``name`` and an image ``result``.  No
    floating-point warning is emitted on the way.
    """
    out = np.empty((len(rows), math.prod(a.shape[0] for a in maps)))
    with np.errstate(over="ignore", invalid="ignore"):
        for tile, block in map_tiles(maps, shape, len(rows), lambda t: (np.subtract, rows[t], shift)):
            out[tile] = block.T
    check_finite(out, rows, shape, name, result)
    return out


def apply_modes(maps, rows, shape) -> np.ndarray:
    """Apply the mode maps ``(A1, ..., Ai)``, ``Aj`` of size ``qj x mj``, to each row.

    Row k of the ``(n, m)`` matrix ``rows`` is the ``rvec`` of an array of
    ``shape``; row k of the ``(n, q)`` result is the ``rvec`` of its image.
    Raises ``ValueError`` naming the first row with a non-finite cell, and
    ``OverflowError`` when the image of a finite row overflows.
    """
    m = shape_size(shape)
    shape = tuple(int(d) for d in shape)  # whole numbers, as shape_size has checked
    ms = _checked_maps(maps, shape)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError(f"expected an (n, {m}) matrix of stacked arrays, got {rows.shape}")
    return map_rows(ms, rows, shape, "row {k}", "image")


def r_multiply(maps, x) -> np.ndarray:
    """Apply the ordered mode maps ``(A1, ..., Ai)`` to the array ``x``.

    ``Aj`` must be ``qj x mj`` with ``mj`` the j-th dimension of ``x``; the
    result has shape ``(q1, ..., qi)``.  With a single mode this is the
    ordinary matrix-vector product; with two modes it is ``A1 @ X @ A2.T``.
    Raises ``ValueError`` for a non-finite cell of ``x`` and
    ``OverflowError`` when the image of a finite ``x`` overflows.
    """
    x = as_array(x)
    ms = _checked_maps(maps, x.shape)
    out = map_rows(ms, rvec(x)[None, :], x.shape, "array", "image")
    return out.reshape(tuple(a.shape[0] for a in ms), order="F")


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
    out = map_rows(inv_maps, rvec(y)[None, :], y.shape, "observation", "estimate")
    return out.reshape(tuple(a.shape[0] for a in inv_maps), order="F")
