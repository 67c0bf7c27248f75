"""Shared helpers for the test suite."""

import math
import os
import tempfile

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


def model_radii(model, n, stream):
    """Radii of n draws of the model's sampler, standardized by the density's path."""
    from arrayvariate.densities import squared_norms
    from arrayvariate.sampling import sample_elliptical_rvecs

    return np.sqrt(squared_norms(model, sample_elliptical_rvecs(model, n, stream)))


def model_log_jac(factors) -> float:
    """``KroneckerModel.log_jac`` of square factors: the log-determinant of their expanded chain."""
    from arrayvariate.densities import Kernel, KroneckerModel

    return KroneckerModel(np.zeros([len(f) for f in factors]), factors, Kernel.normal()).log_jac


# ---------------------------------------------------------------------------
# Reference dense linear algebra: the scipy.linalg LU and Cholesky routines
# that arrayvariate.linalg ran on before its numpy-only kernel replaced them,
# kept with the same pivot tests and messages as oracles for the differential
# tests.
# ---------------------------------------------------------------------------

def _checked_lu_scipy(a):
    import warnings

    import scipy.linalg
    from arrayvariate.errors import SingularMatrixError
    from arrayvariate.linalg import PIVOT_RTOL

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exact-zero pivot warning; the pivot test below rejects it
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.max() == 0.0 or d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    return lu, piv


def logabsdet_scipy(a) -> float:
    from arrayvariate.linalg import _square

    lu, _ = _checked_lu_scipy(_square(a))
    return float(np.sum(np.log(np.abs(np.diag(lu)))))


def inverse_scipy(a) -> np.ndarray:
    import scipy.linalg
    from arrayvariate.linalg import _square

    a = _square(a)
    lu, piv = _checked_lu_scipy(a)
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]), check_finite=False)


def solve_scipy(a, b) -> np.ndarray:
    import scipy.linalg
    from arrayvariate.linalg import _square

    a = _square(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side of length {b.shape[0]} does not match {a.shape[0]}x{a.shape[1]} matrix")
    lu, piv = _checked_lu_scipy(a)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def l_inverse_scipy(a) -> np.ndarray:
    import scipy.linalg
    from arrayvariate.errors import SingularMatrixError
    from arrayvariate.linalg import PIVOT_RTOL, as_matrix

    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise SingularMatrixError(f"a {a.shape[0]}x{a.shape[1]} matrix cannot have full column rank")
    gram = a.T @ a
    try:
        c, low = scipy.linalg.cho_factor(gram, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is rank deficient") from exc
    d = np.diag(c) ** 2  # pivots of A'A
    if d.min() < PIVOT_RTOL * d.max():
        raise SingularMatrixError(
            f"matrix is rank deficient to working precision (pivot ratio below {PIVOT_RTOL:g})"
        )
    return scipy.linalg.cho_solve((c, low), a.T, check_finite=False)


SCIPY_LINALG = {"inverse": inverse_scipy, "solve": solve_scipy, "logabsdet": logabsdet_scipy,
                "l_inverse": l_inverse_scipy}


# ---------------------------------------------------------------------------
# Reference monolinear normal: a Kronecker normal model implies an ordinary
# multivariate normal for the stacked vector, with covariance ``K K'`` where
# ``K`` is the expanded factor chain.  Materializing that covariance is how
# marginals and conditionals are obtained (Kronecker structure does not
# survive conditioning), and its density is the independent oracle against
# which the structured log-density is checked.  ``solve`` is the
# pivot-checked solve that conditioning runs on.
# ---------------------------------------------------------------------------

def solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` for a matrix A that passes ``arrayvariate.linalg``'s pivot test."""
    from arrayvariate.linalg import _checked_lu, _singular, _square

    a = _square(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side of length {b.shape[0]} does not match {a.shape[0]}x{a.shape[1]} matrix")
    _checked_lu(a)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _singular() from exc


# materialization guard: the covariance is m x m
MAX_MONOLINEAR_CELLS = 4096

SYMMETRY_ATOL = 1e-10


class MonolinearNormal:
    """Multivariate normal for a stacked array: mean vector and full covariance."""

    def __init__(self, mean, cov):
        from arrayvariate.errors import SingularMatrixError

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
        return -0.5 * float(w @ w) - 0.5 * self.dim * math.log(2.0 * math.pi) - log_det_half

    def __repr__(self):
        return f"MonolinearNormal(dim={self.dim})"


def to_monolinear(model) -> MonolinearNormal:
    """Materialize the stacked-vector normal implied by a Kronecker model.

    Mean is ``rvec`` of the location; covariance is ``K K'`` with ``K`` the
    expanded factor chain.  Guarded at ``m <= 4096`` since the covariance is
    dense.
    """
    from arrayvariate.array_core import rvec
    from arrayvariate.linalg import inv_kron_chain

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


# ---------------------------------------------------------------------------
# Reference per-mode engine: the nested sum that defines r_multiply, the
# monolinear and composition checks built on r_multiply, the chain trace and
# the least-squares residual that the identity and optimality checks use, and
# the untiled
# engine (one whole-batch layout move, one matmul per mode over the whole
# batch) with the density and sampler that ran on it before the tiled engine
# in arrayvariate.multilinear replaced it, kept as oracles for the
# differential tests.
# ---------------------------------------------------------------------------

def r_multiply_oracle(maps, x) -> np.ndarray:
    """Reference evaluation of ``r_multiply`` straight from the nested sum.

    Exponential in the order; use only to verify the fast path on tiny inputs.
    """
    from arrayvariate.array_core import as_array
    from arrayvariate.linalg import as_matrix

    x = as_array(x)
    ms = [as_matrix(a) for a in maps]
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
    from arrayvariate.array_core import as_array, rvec
    from arrayvariate.linalg import inv_kron_chain
    from arrayvariate.multilinear import r_multiply

    x = as_array(x)
    lhs = rvec(r_multiply(maps, x))
    rhs = inv_kron_chain(maps) @ rvec(x)
    return float(np.max(np.abs(lhs - rhs)))


def composition_check(maps_a, maps_b, x) -> float:
    """Max-abs gap between sequential application and product-map application.

    Applies ``maps_b`` then ``maps_a`` and compares with applying the per-mode
    products ``Aj @ Bj`` once.
    """
    from arrayvariate.array_core import as_array
    from arrayvariate.linalg import as_matrix
    from arrayvariate.multilinear import r_multiply

    x = as_array(x)
    lhs = r_multiply(maps_a, r_multiply(maps_b, x))
    prod_maps = [as_matrix(a) @ as_matrix(b) for a, b in zip(maps_a, maps_b)]
    rhs = r_multiply(prod_maps, x)
    return float(np.max(np.abs(lhs - rhs)))


def chain_trace(factors) -> float:
    """Trace of the expanded chain ``inv_kron_chain(factors)``: the product of the factor traces."""
    from arrayvariate.linalg import as_matrix

    out = 1.0
    for j, f in enumerate((as_matrix(f) for f in factors), start=1):
        if f.shape[0] != f.shape[1]:
            raise ValueError(f"factor {j} must be square, got {f.shape[0]}x{f.shape[1]}")
        out *= float(np.trace(f))
    return out


def sq_norm(x) -> float:
    """Sum of squared cells; equals ``dot(rvec(x), rvec(x))``."""
    from arrayvariate.array_core import rvec

    v = rvec(x)
    return float(v @ v)


def lstsq_residual(maps, y, x) -> float:
    """Squared residual norm ``||y - r_multiply(maps, x)||^2``."""
    from arrayvariate.array_core import as_array
    from arrayvariate.multilinear import r_multiply

    return sq_norm(as_array(y) - r_multiply(maps, x))


def written(write, value) -> str:
    """The text that ``write(value, path)`` writes to a file, such as ``write_arrays`` or ``write_matrix``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "written")
        write(value, path)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")


def dump_array(x) -> str:
    """One array in ARRV1 text form, as ``write_arrays`` writes it."""
    from arrayvariate.array_core import write_arrays

    return written(write_arrays, [x])


def read_arrays(path) -> list:
    """Every ARRV1 array in the file at ``path``."""
    from arrayvariate.array_core import read_records, unrvec_rows

    return [a for dims, rows in read_records(path, "ARRV1") for a in unrvec_rows(rows, dims)]


def arrays_in(text) -> list:
    """Every ARRV1 array in ``text`` (a command's output, say), read by the reference reader."""
    from arrayvariate.array_core import unrvec

    return [unrvec(values, dims) for dims, values in parse_records_oracle(text, "<text>", "ARRV1")]


def apply_modes_untiled(maps, rows, shape) -> np.ndarray:
    from arrayvariate.linalg import as_matrix

    ms = [as_matrix(a) for a in maps]
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    block = np.ascontiguousarray(rows.T)  # (mi, ..., m1, n) in C order
    dims = list(shape)
    for j, a in enumerate(ms):
        block = np.matmul(a, block.reshape(math.prod(dims[j + 1:]), dims[j], n * math.prod(dims[:j])))
        dims[j] = a.shape[0]
    return block.reshape(math.prod(dims), n).T


def logpdf_elliptical_rvecs_untiled(model, rows) -> np.ndarray:
    from arrayvariate.array_core import rvec
    from arrayvariate.densities import log_kernel_pdf

    rows = np.asarray(rows, dtype=float)
    centered = np.subtract(rows.T, rvec(model.mean)[:, None], order="C")
    z = apply_modes_untiled(model.inv_factors, centered.T, model.shape)
    q = np.einsum("ij,ij->i", z, z)
    return np.asarray(log_kernel_pdf(model.kernel, q, model.m)) - model.log_jac


def sample_elliptical_rvecs_untiled(model, n, stream) -> np.ndarray:
    """The sampler's definition on one whole batch: the n radius divisors,
    then the n x m normals, then ``M + K (z / d)``."""
    from arrayvariate.array_core import rvec

    gen = stream.generator
    divisors = np.broadcast_to(model.kernel._radius_divisor(n, gen), n)
    z = gen.standard_normal((n, model.m))
    rows = apply_modes_untiled(model.factors, np.divide(z.T, divisors, order="C").T, model.shape)
    return np.add(rows, rvec(model.mean), order="C")


def sample_elliptical_rvecs_spherical(model, n, stream) -> np.ndarray:
    """The sampler the tiled one replaced: the normals first, then the divisors,
    and ``r * u`` formed as ``(||z|| / d) * (z / ||z||)``.  For the normal
    kernel it equals the current sampler up to rounding."""
    from arrayvariate.array_core import rvec

    gen = stream.generator
    z = gen.standard_normal((n, model.m))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    radii = norms / model.kernel._radius_divisor(n, gen)
    spherical = np.divide(z.T, norms, order="C")
    spherical *= radii
    rows = apply_modes_untiled(model.factors, spherical.T, model.shape)
    return np.add(rows, rvec(model.mean), order="C")


# ---------------------------------------------------------------------------
# Reference ARRV1/MATV1 codec: the per-value writer and the per-token reader
# that the chunked codec in arrayvariate.array_core replaced, kept verbatim as
# oracles for the differential tests.
# ---------------------------------------------------------------------------

def format_float_oracle(v) -> str:
    return f"{float(v):.17g}"


def dump_record_oracle(header, dims, values, per_line) -> str:
    lines = [header, "dims " + " ".join(str(d) for d in dims)]
    for start in range(0, values.size, per_line):
        lines.append(" ".join(format_float_oracle(t) for t in values[start:start + per_line]))
    return "\n".join(lines) + "\n"


def dump_arrays_oracle(arrays) -> str:
    from arrayvariate.array_core import as_array, rvec

    return "\n".join(dump_record_oracle("ARRV1", a.shape, rvec(a), a.shape[0]) for a in map(as_array, arrays))


def dump_matrix_oracle(a) -> str:
    a = np.asarray(a, dtype=float)
    return dump_record_oracle("MATV1", a.shape, a.ravel(), a.shape[1])


def parse_records_oracle(text, source, header, order=None) -> list:
    from arrayvariate.array_core import shape_size
    from arrayvariate.errors import FormatError

    lines = text.splitlines()
    records = []
    lineno = 0
    n_lines = len(lines)

    def fail(ln, msg):
        raise FormatError(f"{source}:{ln}: {msg}")

    while True:
        while lineno < n_lines and not lines[lineno].strip():
            lineno += 1
        if lineno >= n_lines:
            return records
        got = lines[lineno].strip()
        if got != header:
            fail(lineno + 1, f"expected {header} header, got {got!r}")
        lineno += 1
        if lineno >= n_lines:
            fail(lineno, "missing dims line")
        dims_line = lines[lineno].split()
        if not dims_line or dims_line[0] != "dims":
            fail(lineno + 1, "expected 'dims m1 m2 ...' line")
        try:
            dims = tuple(int(t) for t in dims_line[1:])
        except ValueError:
            fail(lineno + 1, f"non-integer dimension in {lines[lineno].strip()!r}")
        if len(dims) < 1 or any(d < 1 for d in dims):
            fail(lineno + 1, f"invalid dims {dims}")
        if order is not None and len(dims) != order:
            fail(lineno + 1, f"expected {order} dims, got {len(dims)}")
        lineno += 1
        m = shape_size(dims)
        data_start = lineno
        values = []
        while len(values) < m:
            if lineno >= n_lines:
                fail(n_lines, f"unexpected end of input: got {len(values)} of {m} values")
            tokens = lines[lineno].split()
            if not tokens and not values:
                fail(lineno + 1, "blank line before any data values")
            for t in tokens:
                if len(values) == m:
                    fail(lineno + 1, f"extra token {t!r} after {m} values")
                try:
                    values.append(float(t))
                except ValueError:
                    fail(lineno + 1, f"bad numeric token {t!r}")
            lineno += 1
        values = np.array(values)
        if not np.isfinite(values).all():
            index = int(np.argmin(np.isfinite(values)))
            for ln in range(data_start, lineno):
                tokens = lines[ln].split()
                if index < len(tokens):
                    fail(ln + 1, f"non-finite value {tokens[index]!r}")
                index -= len(tokens)
        records.append((dims, values))
