"""Output checks, written with numpy and scipy only.

Nothing here calls arrayvariate: each check recomputes the expected answer
from the generated inputs, and raises CheckFailed with a one-line reason when
the output is wrong.
"""

import math
from functools import reduce

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.special import gammaln

# Tolerances: about 1000 times the largest gap seen between the program and
# the oracle (1e-14 for logpdf, 1e-15 for lstsq, relative).
DENSITY_RTOL = 1e-11
LSTSQ_RTOL = 1e-12
SAMPLE_LAW_ALPHA = 1e-6  # KS level for the law of the sampled radii
RADIAL_VALUE_RTOL = 1e-8
RADIAL_MASS_TOL = 1e-3


class CheckFailed(Exception):
    pass


def parse_arrv1(text, shape):
    """ARRV1 text -> (n, m) matrix of stacked arrays, each of `shape`."""
    m = math.prod(shape)
    dims = "dims " + " ".join(str(d) for d in shape)
    bodies = []
    for k, block in enumerate(b for b in text.split("\n\n") if b.strip()):
        head, dims_line, body = (block.strip("\n").split("\n", 2) + ["", ""])[:3]
        if head != "ARRV1" or dims_line.strip() != dims:
            raise CheckFailed(f"array {k + 1}: header {head!r} / {dims_line!r}, expected ARRV1 / {dims!r}")
        bodies.append(body)
    try:
        values = np.array(" ".join(bodies).split(), dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"bad numeric token: {exc}") from None
    if values.size != m * len(bodies):
        raise CheckFailed(f"{values.size} values for {len(bodies)} arrays of {m} cells")
    if not np.all(np.isfinite(values)):
        raise CheckFailed("non-finite value in ARRV1 output")
    return values.reshape(len(bodies), m)


def parse_numbers(text, columns=1):
    try:
        values = np.array(text.split(), dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"bad numeric token: {exc}") from None
    if values.size % columns:
        raise CheckFailed(f"{values.size} numbers do not fill {columns} columns")
    return values.reshape(-1, columns) if columns > 1 else values


class Reference:
    """Expected answers for one workload's generated inputs."""

    def __init__(self, inputs):
        w = inputs.workload
        self.shape = w.shape
        self.m = w.m
        self.kernel = w.kernel
        self.df = w.df
        self.factors = inputs.factors
        self.mean_rvec = inputs.mean.reshape(-1, order="F")
        self.planted = inputs.planted
        self.log_jac = sum(
            (self.m // a.shape[0]) * np.linalg.slogdet(a)[1] for a in self.factors
        )
        self._lu = [scipy.linalg.lu_factor(a) for a in self.factors]
        self._last_q = None
        self.dense_k = None
        if self.m <= 64:
            # small enough to build K = A1 (x)' A2 (x)' ... = ... (x) A2 (x) A1
            self.dense_k = reduce(lambda k, a: np.kron(a, k), self.factors)

    def standardized_sq_norms(self, rows):
        """|A^-1 (x - M)|^2 per stacked row, by one LU solve per mode."""
        if self._last_q is not None and self._last_q[0] is rows:
            return self._last_q[1]
        n = rows.shape[0]
        # rvec is first-index-fastest, so a C-order view is (n, m_i, ..., m_1)
        z = (rows - self.mean_rvec).reshape(n, *reversed(self.shape))
        order = len(self.shape)
        for j, a in enumerate(self.factors):
            axis = order - j
            moved = np.moveaxis(z, axis, 0)
            solved = scipy.linalg.lu_solve(self._lu[j], moved.reshape(a.shape[0], -1), check_finite=False)
            z = np.moveaxis(solved.reshape(moved.shape), 0, axis)
        z = z.reshape(n, -1)
        q = np.einsum("ij,ij->i", z, z)
        self._last_q = (rows, q)  # the draws and density checks share their rows
        return q

    def logpdf(self, rows):
        if self.dense_k is not None:
            cov = self.dense_k @ self.dense_k.T
            if self.kernel == "normal":
                return stats.multivariate_normal(self.mean_rvec, cov).logpdf(rows).reshape(-1)
            return stats.multivariate_t(self.mean_rvec, cov, df=self.df).logpdf(rows).reshape(-1)
        q = self.standardized_sq_norms(rows)
        m = self.m
        if self.kernel == "normal":
            return -0.5 * q - 0.5 * m * math.log(2 * math.pi) - self.log_jac
        v = self.df
        return (gammaln(0.5 * (v + m)) - gammaln(0.5 * v) - 0.5 * m * math.log(v * math.pi)
                - 0.5 * (v + m) * np.log1p(q / v) - self.log_jac)

    def radius_sq_cdf(self):
        """CDF of |A^-1 (x - M)|^2 under the model."""
        if self.kernel == "normal":
            return stats.chi2(self.m).cdf
        law = stats.f(self.m, self.df)
        return lambda q: law.cdf(q / self.m)

    # --- checks ------------------------------------------------------------

    def check_draws(self, rows, n):
        """Stacked draws: right count, finite, and radii following the model's law."""
        if rows.shape != (n, self.m):
            raise CheckFailed(f"draws have shape {rows.shape}, expected {(n, self.m)}")
        if not np.all(np.isfinite(rows)):
            raise CheckFailed("non-finite draw")
        p = stats.kstest(self.standardized_sq_norms(rows), self.radius_sq_cdf()).pvalue
        if p < SAMPLE_LAW_ALPHA:
            raise CheckFailed(f"standardized radii do not follow the model's law (KS p={p:.3g})")

    def check_logpdf(self, rows, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != rows.shape[0]:
            raise CheckFailed(f"{values.size} log-densities for {rows.shape[0]} arrays")
        if not np.all(np.isfinite(values)):
            raise CheckFailed("non-finite log-density")
        ref = self.logpdf(rows)
        err = np.abs(values - ref) / np.maximum(1.0, np.abs(ref))
        worst = int(np.argmax(err))
        if err[worst] > DENSITY_RTOL:
            raise CheckFailed(f"array {worst + 1}: logpdf {float(values[worst])!r}, oracle {float(ref[worst])!r}")

    def check_lstsq(self, text):
        est = parse_arrv1(text, self.shape)
        if est.shape[0] != 1:
            raise CheckFailed(f"lstsq wrote {est.shape[0]} arrays, expected 1")
        truth = self.planted.reshape(-1, order="F")
        gap = float(np.max(np.abs(est[0] - truth)))
        if gap > LSTSQ_RTOL * (1.0 + float(np.max(np.abs(truth)))):
            raise CheckFailed(f"lstsq misses the planted array by {gap:.3g}")

    def applicable_checks(self):
        """verify's documented guards: normalization m<=6, covariance m<=16 with finite covariance."""
        names = []
        if self.m <= 6:
            names.append("normalization")
        if self.m <= 16 and (self.kernel == "normal" or self.df > 2):
            names.append("covariance")
        return names + ["radial"]

    def check_verify(self, code, text):
        if code != 0:
            raise CheckFailed(f"verify exited with {code}")
        records = [line.split() for line in text.splitlines()]
        names = [r[0].split("-", 1)[0] for r in records if r]
        if names != self.applicable_checks():
            raise CheckFailed(f"verify ran {names}, expected {self.applicable_checks()}")
        for r in records:
            if len(r) != 8 or r[5] != "pass":
                raise CheckFailed(f"verify record {' '.join(r)!r} is not a pass record")


def check_radial(text, kernel, df, k, rmax, steps):
    """Radial density table: the grid, finite values matching the closed form, mass ~ 1."""
    table = parse_numbers(text, columns=2)
    if table.shape[0] != steps + 1:
        raise CheckFailed(f"{table.shape[0]} radial rows, expected {steps + 1}")
    r, pdf = table[:, 0], table[:, 1]
    if not np.allclose(r, rmax * np.arange(steps + 1) / steps, rtol=1e-15, atol=0):
        raise CheckFailed("radial grid differs from rmax * j / steps")
    bad = int(np.count_nonzero(~np.isfinite(pdf)))
    if bad:
        raise CheckFailed(f"{bad} of {pdf.size} radial values are non-finite")
    if kernel == "normal":
        ref = stats.chi(k).pdf(r)
    else:
        ref = stats.f(k, df).pdf(r * r / k) * 2.0 * r / k
    err = np.abs(pdf - ref) / np.maximum(np.abs(ref), 1e-300)
    worst = int(np.argmax(np.where(ref > 1e-250, err, 0.0)))
    if ref[worst] > 1e-250 and err[worst] > RADIAL_VALUE_RTOL:
        raise CheckFailed(f"radial pdf at r={float(r[worst])!r} is {float(pdf[worst])!r}, closed form {float(ref[worst])!r}")
    mass = float(np.trapezoid(pdf, r))
    if abs(mass - 1.0) > RADIAL_MASS_TOL:
        raise CheckFailed(f"radial density integrates to {mass:.6g} over [0, {rmax:g}]")
