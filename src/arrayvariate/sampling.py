"""Exact samplers built on the spherical representation ``x = r * u``.

A spherical draw splits into an independent radius ``r`` (kernel-specific
law) and a direction ``u`` uniform on the unit sphere.  The elliptical array
sampler draws every Gaussian vector and then every radius divisor, and runs
the rest through :func:`~arrayvariate.multilinear.map_tiles` one row tile at
a time: a tile's ``r * u`` is formed straight in the engine's batch-trailing
layout, pushed through the model's per-mode factors, shifted by the location
and written back over the tile's own Gaussian vectors.  The kernel supplies
the radius law: for the normal kernel the radius is a chi draw; for the t
kernel it is a Gaussian norm over a scaled chi, which is exact (no quadrature
or inversion anywhere).
"""

import numpy as np

from .array_core import rvec, unrvec
from .multilinear import map_tiles

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic random source: a 64-bit seed plus opaque counter state.

    The same seed reproduces the same sample sequence bitwise (single
    threaded).  A stream has a single owner; parallel tasks each get their own
    child via :meth:`split`, never a shared stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.generator = np.random.default_rng(self.seed)

    def split(self, task_index: int) -> "RandomStream":
        """Independent child stream for task ``task_index``.

        Child seed is ``splitmix64(seed + (task_index + 1) * 0x9E3779B97F4A7C15)``:
        a fixed 64-bit mix, so (seed, task index) always maps to the same child.
        """
        if task_index < 0:
            raise ValueError("task index must be >= 0")
        return RandomStream(_splitmix64(self.seed + (task_index + 1) * _GOLDEN))

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


def sample_radii(kernel, m, n, stream) -> np.ndarray:
    """n radius draws of the kernel's spherical law in dimension m.

    Normal kernel: ``sqrt(chi2_m)``.  t kernel with df v: ``sqrt(chi2_m) / sqrt(w/v)``
    with w a chi2_v draw, the two chi-square draws made in that order.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    gen = stream.generator
    return np.sqrt(gen.chisquare(m, size=n)) / kernel.radius_divisor(n, gen)


def sample_elliptical_rvecs(model, n, stream) -> np.ndarray:
    """n draws from the model, stacked: row j is ``rvec`` of the j-th array.

    Each row realizes ``r * u`` from one Gaussian vector (direction = the
    normalized vector, radius = its norm rescaled for the kernel), then gets
    the per-mode factors applied and the location added.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"draw count must be >= 0, got {n}")
    gen = stream.generator
    z = gen.standard_normal((n, model.m))
    divisors = np.broadcast_to(model.kernel.radius_divisor(n, gen), n)
    mean = rvec(model.mean)

    def enter(tile):
        norms = np.linalg.norm(z[tile], axis=1)
        norms[norms == 0.0] = 1.0  # measure-zero guard
        # u = z / ||z||, then r * u, written as the tile's batch-trailing block
        spherical = np.divide(z[tile].T, norms, order="C")
        spherical *= norms / divisors[tile]
        return spherical

    for tile, block in map_tiles(model.factors, model.shape, n, enter):
        np.add(block.T, mean, out=z[tile])  # the tile's draws replace its Gaussian vectors
    return z


def sample_elliptical(model, n, stream) -> list:
    """n draws from the model as a list of arrays of the model's shape."""
    rows = sample_elliptical_rvecs(model, n, stream)
    return [unrvec(row, model.shape) for row in rows]
