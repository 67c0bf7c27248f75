"""Exact log-densities for multiway normal, elliptical and t laws.

A Kronecker model couples a location array ``M`` with one non-singular
``mj x mj`` factor per mode.  Densities are evaluated by standardizing
(undoing the shift and the per-mode maps), feeding the squared norm of the
standardized array to a spherical kernel pdf, and subtracting the log volume
change of the multilinear transform.  A batch runs through
:func:`~arrayvariate.multilinear.map_tiles` one row tile at a time, with
centering (``rows - M``) as each tile's entry step; the engine hands back the
standardized ``(m, w)`` block, and its squared norms are taken while it is in
cache.  ``KroneckerModel`` holds its factors and their inverses in Fortran
order, the layout in which both entries round alike.  A non-finite squared
norm raises: ``ValueError`` when its array holds a non-finite cell,
``OverflowError`` when the array is finite and the norm overflowed.  A single
array is evaluated as a batch of one.  Everything is computed and exposed in
log space.
The normal kernel's density needs no special function; ``scipy.special`` is
imported inside the kernel methods that do (t profiles, radial densities and
CDFs), on first use.
"""

import math

import numpy as np

from . import linalg
from .array_core import as_array, check_finite, rvec, whole
from .errors import SingularMatrixError
from .multilinear import map_rows, map_tiles

LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)
LOG_TINY = math.log(np.finfo(float).tiny)
EPS = np.finfo(float).eps


class Kernel:
    """Spherical kernel pdf family: the scalar profile f(t) with t = x'x.

    A kernel owns all family-specific math: profile, radial law, covariance
    scale, importance proposal and report tag.  Build one with a constructor:

    ``Kernel.normal()``
        ``f(t) = (2 pi)^(-k/2) exp(-t/2)`` in dimension k.
    ``Kernel.student_t(df)``
        ``f(t) = Gamma((df+k)/2) / (Gamma(df/2) (df pi)^(k/2)) (1 + t/df)^(-(df+k)/2)``.
    ``Kernel.cauchy()``
        Alias for ``student_t(1)``.
    ``Kernel.custom(log_profile, log_normalizer)``
        ``log f(t) = log_normalizer(k) + log_profile(t)``.  The profile is
        given in log space, so it stays finite where ``f`` underflows to 0.
        The caller supplies the dimension-dependent normalizer; nothing is
        normalized numerically, and custom kernels have no sampler and no
        closed-form radial CDF.
    """

    df = None
    tag = None  # the kernel's part of a verification record name, such as "t5"
    has_sampler = True
    covariance_scale = None  # Cov(rvec X) = covariance_scale * K K'; None when infinite

    @staticmethod
    def normal():
        return NormalKernel()

    @staticmethod
    def student_t(df):
        return StudentKernel(df)

    @staticmethod
    def cauchy():
        return StudentKernel(1.0, name="cauchy")

    @staticmethod
    def custom(log_profile, log_normalizer):
        return CustomKernel(log_profile, log_normalizer)

    def __repr__(self):
        return f"Kernel.{self.name}()"

    def log_profile(self, t, k):
        """``log f(t)`` in dimension k, elementwise over an ndarray ``t >= 0``."""
        raise NotImplementedError

    def log_radial_pdf(self, r, k):
        """Log density of the radius ``r = sqrt(x'x)``: log sphere surface + log f(r^2).

        ``xlogy`` keeps ``k = 1, r = 0`` finite; r = +inf takes the limit 0, not ``inf - inf``.
        """
        from scipy.special import gammaln, xlogy

        log_surface = math.log(2.0) + 0.5 * k * math.log(math.pi) - gammaln(0.5 * k)
        at_inf = np.isposinf(r)
        r = np.where(at_inf, 1.0, r)
        return np.where(at_inf, -np.inf, log_surface + xlogy(k - 1, r) + self.log_profile(r * r, k))

    def radial_cdf(self, r, k):
        """``P(radius <= r)`` in dimension k, elementwise."""
        raise NotImplementedError(f"no closed-form radial law for {self.name!r} kernels")

    def radius_divisor(self, n, gen):
        """n divisors d of the Gaussian radius: a draw's radius is ``||z|| / d``.

        Every divisor is > 0: a kernel raises :meth:`unrepresentable` for the
        first one that is not, before anything is divided by it.
        """
        raise NotImplementedError(f"no sampler for {self.name!r} kernels")

    def unrepresentable(self, k, reason):
        """The ``OverflowError`` for draw k, which is not finite in floating point."""
        df = "" if self.df is None else f" with df {self.df:g}"
        return OverflowError(f"{self.name} kernel{df}: draw {k} is not representable in floating point ({reason})")

    def importance_proposal(self, mu, k, n, gen):
        """n draws from a proposal centered at ``mu`` with scale ``2 K``, and their log-densities."""
        raise ValueError(f"no importance proposal for {self.name!r} kernels")


class NormalKernel(Kernel):
    """Normal kernel: the radius is chi with k degrees of freedom."""

    name = tag = "normal"
    covariance_scale = 1.0

    def log_profile(self, t, k):
        return -0.5 * k * LOG_2PI - 0.5 * t

    def radial_cdf(self, r, k):
        from scipy.special import gammainc

        # the CDF is 1 at r = 1e150 in any dimension a float can hold, so
        # clipping there keeps r * r from overflowing without moving a value
        r = np.minimum(r, 1e150)
        return gammainc(0.5 * k, 0.5 * r * r)

    def radius_divisor(self, n, gen):
        return 1.0

    def importance_proposal(self, mu, k, n, gen):
        m = mu.size
        z = gen.standard_normal((n, m))
        draws = mu[None, :] + 2.0 * (z @ k.T)
        # proposal density evaluated through z: (2K)^{-1}(y - mu) is z itself
        _, logdet_k = np.linalg.slogdet(k)
        log_q = -0.5 * np.einsum("ij,ij->i", z, z) - 0.5 * m * LOG_2PI - (m * math.log(2.0) + logdet_k)
        return draws, log_q


class StudentKernel(Kernel):
    """Student t kernel with ``df`` degrees of freedom; ``r^2 / k`` is F(k, df).

    Draws are normal scale mixtures: the radius is ``||z|| / sqrt(w / df)`` with
    w a chi-square draw with df degrees of freedom.
    """

    def __init__(self, df, name="t"):
        if df is None or not (math.isfinite(df) and df > 0):
            raise ValueError(f"t kernel needs finite degrees of freedom > 0, got {df!r}")
        self.name = name
        self.df = float(df)
        self.tag = name if name == "cauchy" else f"t{self.df:g}"
        self.covariance_scale = self.df / (self.df - 2.0) if self.df > 2 else None

    def __repr__(self):
        return super().__repr__() if self.name == "cauchy" else f"Kernel.student_t({self.df})"

    def log_profile(self, t, k):
        # Gamma((v+k)/2) / Gamma(v/2) as Gamma(k/2) / B(v/2, k/2): the gammaln
        # difference cancels catastrophically at large df, and v * pi overflows
        from scipy.special import betaln, gammaln

        v = self.df
        return (
            gammaln(0.5 * k)
            - betaln(0.5 * v, 0.5 * k)
            - 0.5 * k * (math.log(v) + LOG_PI)
            - 0.5 * (v + k) * np.log1p(t / v)
        )

    def radial_cdf(self, r, k):
        # The CDF is I_x(k/2, df/2) with x = t / (t + df) and t = r^2.  Past
        # x = 1/2 it is 1 - I_(1-x)(df/2, k/2), which keeps the upper tail that
        # x itself rounds away at small df.  That difference loses digits where
        # it is small, so below 0.01 betaincc gives it directly (betaincc is
        # about eight times slower than betainc).  x and 1 - x come from
        # log(df / t), so t is never formed, and where one of them underflows
        # the first term of its series is exact to double precision.
        from scipy.special import betainc, betaincc, betaln

        if self.df * EPS >= k * k:
            # the normal limit: the two CDFs differ by about k^2 / (4 df) of
            # their value, below half an ulp here, and betainc returns nan once
            # df/2 is huge (from df near 1e160 at k = 3)
            return NormalKernel().radial_cdf(r, k)
        a, b = 0.5 * self.df, 0.5 * k
        with np.errstate(divide="ignore"):
            log_s = math.log(self.df) - 2.0 * np.log(np.asarray(r, dtype=float))  # +inf at r = 0
        lower = log_s >= 0.0  # x <= 1/2
        s = np.exp(-np.abs(log_s))  # t / df or df / t, whichever is <= 1
        z = s / (1.0 + s)  # x or 1 - x, whichever is <= 1/2
        out = np.empty(z.shape)
        out[lower] = betainc(b, a, z[lower])
        out[~lower] = 1.0 - betainc(a, b, z[~lower])
        small = ~lower & (out < 0.01)
        out[small] = betaincc(a, b, z[small])
        far = np.abs(log_s) > -LOG_TINY
        if far.any():
            log_s, lower = log_s[far], lower[far]
            lead = np.where(lower, -b * log_s - math.log(b), a * log_s - math.log(a)) - betaln(a, b)
            out[far] = np.where(lower, np.exp(lead), -np.expm1(lead))
        return out

    def radius_divisor(self, n, gen):
        d = np.sqrt(gen.chisquare(self.df, size=n) / self.df)
        if n and not d.min() > 0.0:  # at small df chi-square draws underflow to 0
            k = int(np.argmin(d))
            raise self.unrepresentable(k, f"its radius divisor is {d[k]:g}")
        return d

    def importance_proposal(self, mu, k, n, gen):
        from scipy import stats  # deferred: importing scipy.stats takes most of a cold start

        proposal = stats.multivariate_t(loc=mu, shape=4.0 * (k @ k.T), df=self.df)
        draws = np.atleast_1d(proposal.rvs(size=n, random_state=gen)).reshape(n, mu.size)
        return draws, proposal.logpdf(draws)


class CustomKernel(Kernel):
    """User-supplied log profile and normalizer; density only."""

    name = tag = "custom"
    has_sampler = False

    def __init__(self, log_profile, log_normalizer):
        if log_profile is None or log_normalizer is None:
            raise ValueError("custom kernel needs a log_profile and a log_normalizer")
        self.user_log_profile = log_profile
        self.log_normalizer = log_normalizer

    def log_profile(self, t, k):
        return self.log_normalizer(k) + np.asarray(self.user_log_profile(t), dtype=float)


def log_kernel_pdf(kernel, t, k):
    """Log of the spherical kernel density at squared radius ``t`` in dimension ``k``.

    ``t`` may be a scalar or an ndarray; the value is the density of the
    k-variate spherical law at any point x with ``x'x == t``.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # nan fails this test too
        raise ValueError("squared radius t must be >= 0")
    out = kernel.log_profile(t, whole(k, 1, "dimension k"))
    return out if out.ndim else float(out)


def radial_pdf(kernel, r, k):
    """Density of the radius ``r = sqrt(x'x)`` of a k-variate spherical draw.

    Equals ``2 pi^(k/2) / Gamma(k/2) * r^(k-1) * f(r^2)``: the kernel value on
    the sphere of radius r times the sphere's surface area.  Evaluated in log
    space (:meth:`Kernel.log_radial_pdf`), so it stays finite in any dimension.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):  # nan fails this test too
        raise ValueError("radius r must be >= 0")
    out = np.exp(kernel.log_radial_pdf(r, whole(k, 1, "dimension k")))
    return out if out.ndim else float(out)


class KroneckerModel:
    """Location array plus one non-singular square factor per mode plus a kernel.

    Validates shapes and non-singularity up front and caches the factor
    inverses and the log Jacobian ``log_jac``, which every density evaluation
    needs.
    """

    def __init__(self, mean, factors, kernel):
        mean = as_array(mean)
        check_finite(rvec(mean), rvec(mean)[None, :], mean.shape, "mean", "")
        # Fortran order, the layout of the inverses: the engine's GEMMs then
        # round alike whichever way a tile enters (see multilinear)
        factors = [np.asfortranarray(linalg.as_matrix(f)) for f in factors]
        if len(factors) != mean.ndim:
            raise ValueError(f"{len(factors)} factors for a mean array of order {mean.ndim}")
        inv_factors = []
        # the log volume change of the per-mode transform, sum_j (m/mj) log |det Aj|:
        # the log-determinant of the expanded factor chain, accumulated factor by
        # factor in mode order so the multiplicative exponents never overflow
        log_jac = 0.0
        for j, f in enumerate(factors, start=1):
            mj = mean.shape[j - 1]
            if f.shape != (mj, mj):
                raise ValueError(f"mode {j}: factor must be {mj}x{mj}, got {f.shape[0]}x{f.shape[1]}")
            try:
                inv = linalg._inverse(f)  # as_matrix checked f above
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"mode {j}: factor is singular") from exc
            except OverflowError as exc:
                raise SingularMatrixError(f"mode {j}: factor's inverse is not finite") from exc
            inv_factors.append(inv)
            # _inverse has run the pivot test on f, so slogdet needs no test of its own
            log_jac += (mean.size // mj) * float(np.linalg.slogdet(f)[1])
        self.mean = mean
        self.factors = tuple(factors)
        self.kernel = kernel
        self.inv_factors = tuple(inv_factors)
        self.log_jac = log_jac

    @property
    def shape(self):
        return self.mean.shape

    @property
    def order(self):
        return self.mean.ndim

    @property
    def m(self):
        return self.mean.size

    def __repr__(self):
        return f"KroneckerModel(shape={self.shape}, kernel={self.kernel!r})"


def _checked_array(model, x) -> np.ndarray:
    x = as_array(x)
    if x.shape != model.shape:
        raise ValueError(f"array shape {x.shape} does not match model shape {model.shape}")
    return x


def standardize(model, x) -> np.ndarray:
    """Undo the model's shift and per-mode maps: ``(A1^-1, ...) applied to (x - M)``.

    Inverted exactly by ``r_multiply(model.factors, z) + model.mean``.  Raises
    ``ValueError`` for a non-finite cell of ``x`` and ``OverflowError`` when
    the standardized array of a finite ``x`` overflows.
    """
    x = _checked_array(model, x)
    out = map_rows(model.inv_factors, rvec(x)[None, :], x.shape, "array", "standardized array", rvec(model.mean))
    return out.reshape(x.shape, order="F")


def logpdf_elliptical(model, x) -> float:
    """Log-density of the elliptically contoured law driven by the model's kernel.

    The value depends on ``x`` only through the squared norm of the
    standardized array, evaluated by the kernel at dimension ``m``; build the
    model with ``Kernel.normal()`` or ``Kernel.student_t(df)`` for the
    multiway normal or t law.
    """
    return float(logpdf_elliptical_rvecs(model, rvec(_checked_array(model, x))[None, :])[0])


def squared_norms(model, rows) -> np.ndarray:
    """Squared norms of the standardized stacked draws: ``||standardize(model, x_k)||^2``.

    ``rows`` is an ``(n, m)`` matrix whose rows are rvec'd arrays; returns the
    n squared norms that the density feeds to its kernel.  A norm that is not
    finite raises ``ValueError`` naming the first row with a non-finite cell,
    or ``OverflowError`` when every row is finite.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.m:
        raise ValueError(f"expected an (n, {model.m}) matrix of stacked arrays, got {rows.shape}")
    mean = rvec(model.mean)
    q = np.empty(len(rows))
    # a non-finite or overflowing cell leaves a non-finite norm, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for tile, z in map_tiles(model.inv_factors, model.shape, len(q), lambda t: (np.subtract, rows[t], mean)):
            np.einsum("ij,ij->j", z, z, out=q[tile])
    check_finite(q, rows, model.shape, "row {k}", "squared norm")
    return q


def logpdf_elliptical_rvecs(model, rows) -> np.ndarray:
    """Vectorized :func:`logpdf_elliptical` over stacked draws.

    ``rows`` is an ``(n, m)`` matrix whose rows are rvec'd arrays; returns the
    n log-densities.  A non-finite row raises as :func:`squared_norms` does.
    """
    return np.asarray(log_kernel_pdf(model.kernel, squared_norms(model, rows), model.m)) - model.log_jac
