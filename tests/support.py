"""Shared helpers for the test suite."""

import numpy as np


def well_conditioned(gen, rows, cols=None):
    """Random matrix with singular values in [0.6, 1.6] (condition <= ~2.7)."""
    cols = rows if cols is None else cols
    q1, _ = np.linalg.qr(gen.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(gen.standard_normal((cols, cols)))
    s = gen.uniform(0.6, 1.6, size=cols)
    return (q1[:, :cols] * s) @ q2


def random_shape(gen, max_order=4, max_dim=4, max_cells=512):
    while True:
        order = int(gen.integers(1, max_order + 1))
        dims = tuple(int(d) for d in gen.integers(1, max_dim + 1, size=order))
        if np.prod(dims) <= max_cells:
            return dims


def with_kernel(model, kernel):
    """The model's location and factors under another kernel."""
    from arrayvariate import KroneckerModel

    return KroneckerModel(model.mean, model.factors, kernel)


def random_model(gen, dims, kernel):
    from arrayvariate import KroneckerModel, unrvec

    factors = [well_conditioned(gen, d) for d in dims]
    mean = unrvec(gen.standard_normal(int(np.prod(dims))), dims)
    return KroneckerModel(mean, factors, kernel)
