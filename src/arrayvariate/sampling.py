"""Exact samplers built on the spherical representation ``x = r * u``.

A spherical draw splits into an independent radius ``r`` (kernel-specific
law) and a direction ``u`` uniform on the unit sphere.  With ``z`` a standard
Gaussian vector, ``u = z / ||z||`` and ``r = ||z|| / d`` for the kernel's
radius divisor ``d`` (1 for the normal kernel, ``sqrt(w / df)`` with w a
chi-square draw for the t kernel), so ``r * u = z / d`` exactly and no norm
is formed.  Draw k of the elliptical array sampler is ``M + K (z_k / d_k)``:
the n divisors come first from the stream (the normal kernel draws none),
then ``z_k`` is normals ``k*m ... (k+1)*m - 1``.  The rest runs through
:func:`~arrayvariate.multilinear.map_tiles` one row tile at a time: a tile's
normals are drawn into the output's own rows, and division by their divisors
is the tile's entry step.  The engine pushes them through the model's
per-mode factors, held in Fortran order, and hands back the ``(m, w)`` block,
which is shifted by the location and written back over the same rows.
Nothing is computed by quadrature or inversion.  ``sample_elliptical`` views those rows as arrays.
"""

import numpy as np

from .array_core import rvec, unrvec_rows, whole
from .multilinear import map_tiles

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic random source: a whole-number seed, taken modulo 2**64, plus opaque counter state.

    The same seed reproduces the same sample sequence bitwise (single
    threaded).  A stream has a single owner; parallel tasks each get their own
    child via :meth:`split`, never a shared stream.
    """

    def __init__(self, seed: int):
        self.seed = whole(seed, -np.inf, "seed") & _MASK64
        self.generator = np.random.default_rng(self.seed)

    def split(self, task_index: int) -> "RandomStream":
        """Independent child stream for task ``task_index``.

        Child seed is ``splitmix64(seed + (task_index + 1) * 0x9E3779B97F4A7C15)``:
        a fixed 64-bit mix, so (seed, task index) always maps to the same child.
        """
        task_index = whole(task_index, 0, "task index")
        return RandomStream(_splitmix64(self.seed + (task_index + 1) * _GOLDEN))

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


def sample_elliptical_rvecs(model, n, stream) -> np.ndarray:
    """n draws from the model, stacked: row k is ``rvec`` of the k-th array.

    Row k is ``M + K (z_k / d_k)`` with ``d`` the kernel's n radius divisors,
    drawn first, and ``z_k`` the k-th run of m standard normals drawn after
    them; a prefix of the draws therefore does not depend on n for the
    normal kernel.  Raises ``OverflowError`` when a draw is not finite in
    floating point: the kernel rejects a divisor of 0 (a t chi-square draw
    that underflowed at small df) before any division, and every other
    overflow is caught when its tile is finished.
    """
    n = whole(n, 0, "draw count")
    gen = stream.generator
    divisors = np.broadcast_to(model.kernel._radius_divisor(n, gen), n)
    rows = np.empty((n, model.m))
    mean = rvec(model.mean)

    # the tile's normals, in stream order, land in its own output rows
    enter = lambda t: (np.divide, gen.standard_normal(out=rows[t]), divisors[t, None])
    # an overflow leaves an inf or nan in its tile, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for tile, block in map_tiles(model.factors, model.shape, n, enter):
            done = rows[tile]
            np.add(block.T, mean, out=done)  # the tile's draws replace its normals
            if not np.isfinite(done).all():
                k = tile.start + int(np.argmin(np.isfinite(done).all(axis=1)))
                raise model.kernel._unrepresentable(k, "it overflows")
    return rows


def sample_elliptical(model, n, stream) -> list:
    """n draws from the model as a list of arrays of the model's shape."""
    return list(unrvec_rows(sample_elliptical_rvecs(model, n, stream), model.shape))
