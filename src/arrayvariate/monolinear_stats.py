"""The monolinear bridge: materialized mean/covariance of the stacked vector.

A Kronecker normal model implies an ordinary multivariate normal for the
stacked vector, with covariance ``K K'`` where ``K`` is the expanded factor
chain.  Materializing that covariance is how marginals and conditionals are
obtained (Kronecker structure does not survive conditioning), and its density
is the independent oracle against which the structured log-density is
checked.
"""

import math

import numpy as np

from .array_core import rvec
from .errors import SingularMatrixError
from .kronecker import inv_kron_chain
from .linalg import solve

LOG_2PI = math.log(2.0 * math.pi)

# materialization guard: the covariance is m x m
MAX_MONOLINEAR_CELLS = 4096

SYMMETRY_ATOL = 1e-10


class MonolinearNormal:
    """Multivariate normal for a stacked array: mean vector and full covariance."""

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        m = mean.size
        if cov.shape != (m, m):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {m}")
        gap = float(np.max(np.abs(cov - cov.T))) if m else 0.0
        if gap > SYMMETRY_ATOL * max(1.0, float(np.max(np.abs(cov)))):
            raise ValueError(f"covariance is not symmetric (max asymmetry {gap:.3g})")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("covariance is not positive definite") from exc
        self.mean = mean
        self.cov = cov
        self._chol = chol

    @property
    def dim(self) -> int:
        return self.mean.size

    def logpdf(self, x) -> float:
        """Gaussian log-density at x, via the cached Cholesky factor."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError(f"point of length {x.size} for a {self.dim}-variate law")
        w = np.linalg.solve(self._chol, x - self.mean)
        log_det_half = float(np.sum(np.log(np.diag(self._chol))))
        return -0.5 * float(w @ w) - 0.5 * self.dim * LOG_2PI - log_det_half

    def __repr__(self):
        return f"MonolinearNormal(dim={self.dim})"


def to_monolinear(model) -> MonolinearNormal:
    """Materialize the stacked-vector normal implied by a Kronecker model.

    Mean is ``rvec`` of the location; covariance is ``K K'`` with ``K`` the
    expanded factor chain.  Guarded at ``m <= 4096`` since the covariance is
    dense.
    """
    if model.m > MAX_MONOLINEAR_CELLS:
        raise ValueError(
            f"cell count {model.m} exceeds the materialization guard ({MAX_MONOLINEAR_CELLS})"
        )
    k = inv_kron_chain(model.factors)
    return MonolinearNormal(rvec(model.mean), k @ k.T)


def _index_set(indices, m, what):
    out = []
    seen = set()
    for j in indices:
        j = int(j)
        if not 1 <= j <= m:
            raise ValueError(f"{what} index {j} out of range 1..{m}")
        if j in seen:
            raise ValueError(f"duplicate {what} index {j}")
        seen.add(j)
        out.append(j - 1)
    if not out:
        raise ValueError(f"{what} index set must be non-empty")
    return np.array(out, dtype=int)


def marginal(dist, keep) -> MonolinearNormal:
    """Marginal law of the kept coordinates (1-based indices, order preserved)."""
    s = _index_set(keep, dist.dim, "keep")
    return MonolinearNormal(dist.mean[s], dist.cov[np.ix_(s, s)])


def conditional(dist, given, values) -> MonolinearNormal:
    """Law of the remaining coordinates given observed values of ``given``.

    Standard Gaussian conditioning; the conditioned-on block must be
    invertible.  Kept coordinates come out in increasing original index
    order, and the conditional covariance does not depend on ``values``.
    """
    g = _index_set(given, dist.dim, "given")
    if len(g) >= dist.dim:
        raise ValueError("given index set must be a proper subset of the coordinates")
    y = np.asarray(values, dtype=float).reshape(-1)
    if y.size != len(g):
        raise ValueError(f"{len(g)} given indices but {y.size} values")
    s = np.setdiff1d(np.arange(dist.dim), g)
    cov_gg = dist.cov[np.ix_(g, g)]
    cov_sg = dist.cov[np.ix_(s, g)]
    mean = dist.mean[s] + cov_sg @ solve(cov_gg, y - dist.mean[g])
    cov = dist.cov[np.ix_(s, s)] - cov_sg @ solve(cov_gg, np.ascontiguousarray(cov_sg.T))
    cov = 0.5 * (cov + cov.T)  # keep exact symmetry under roundoff
    return MonolinearNormal(mean, cov)
