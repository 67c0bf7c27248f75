"""Monte Carlo verification harness.

Three checks, each yielding a :class:`McReport`:

* normalization — importance-sample the density integral; pass when the
  estimate sits within 3 standard errors of 1;
* covariance — compare the sample covariance of stacked draws against the
  model's implied covariance entrywise; pass when the worst entry stays
  within 5 standard errors;
* radial — Kolmogorov-Smirnov test of the radii of the model's own draws,
  standardized by the density's path, against the closed-form CDF of the
  radial law, ``densities.radial_cdf`` (``r^2 ~ chi2_m`` for the normal kernel,
  ``r^2 / m ~ F(m, df)`` for t), taken from the kernel at the model's m; pass when p >= 0.01.

Thresholds are loose enough that a fixed-seed suite false-fails rarely;
every report reproduces exactly from (name, seed, n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .array_core import rvec, whole
from .densities import logpdf_elliptical_rvecs, squared_norms
from .kronecker import inv_kron_chain
from .sampling import sample_elliptical_rvecs

MAX_NORMALIZATION_CELLS = 6
MAX_COVARIANCE_CELLS = 16
KS_ALPHA = 0.01
MOMENT_Z_LIMIT = 3.0
COVARIANCE_Z_LIMIT = 5.0
RADIAL_BLOCK_VALUES = 1 << 21  # values per block of radial-check draws: 16 MiB


@dataclass
class McReport:
    """One verification result, serializable as a single text record."""

    name: str
    estimate: float
    stderr: float
    target: float
    statistic: float
    passed: bool
    n: int
    seed: int

    def line(self) -> str:
        """``name estimate stderr target statistic passed n seed``"""
        return (
            f"{self.name} {self.estimate:.17g} {self.stderr:.17g} {self.target:.17g} "
            f"{self.statistic:.17g} {'pass' if self.passed else 'fail'} {self.n} {self.seed}"
        )


def _model_tag(model) -> str:
    return f"{model.kernel.tag}-{'x'.join(str(d) for d in model.shape)}"


def check_normalization(model, n, stream) -> McReport:
    """Importance-sampling estimate of the density integral (target 1).

    Proposal: for the normal kernel a Gaussian centered at the location with
    covariance ``4 K K'`` (twice the scale, so weights stay bounded); for t
    kernels a multivariate t with the same degrees of freedom and the doubled
    scale.  Guarded at m <= 6 where the estimate is reliable at moderate n.
    """
    m = model.m
    if m > MAX_NORMALIZATION_CELLS:
        raise ValueError(f"cell count {m} exceeds the normalization guard ({MAX_NORMALIZATION_CELLS})")
    n = whole(n, 2, "sample count")
    gen = stream.generator
    k = inv_kron_chain(model.factors)
    mu = rvec(model.mean)
    # at tiny t df the proposal's draws and densities overflow or divide by
    # zero; a weight that is not finite fails the check below, so the
    # floating-point warnings on the way there say nothing more
    with np.errstate(all="ignore"):
        draws, log_q = model.kernel._importance_proposal(mu, k, n, gen)
        try:
            log_w = logpdf_elliptical_rvecs(model, draws) - log_q
        except (ValueError, OverflowError):
            # a proposal draw that is not finite, or whose norm overflows (t at
            # tiny df), leaves no finite estimate: the weights are nan, and the check fails
            log_w = np.full(n, np.nan)
        w = np.exp(log_w)
    estimate = float(np.mean(w))
    stderr = float(np.std(w, ddof=1) / math.sqrt(n))
    z_score = (estimate - 1.0) / stderr if stderr > 0 else 0.0
    return McReport(
        name=f"normalization-{_model_tag(model)}",
        estimate=estimate,
        stderr=stderr,
        target=1.0,
        statistic=z_score,
        # a nan weight makes stderr > 0 false and z_score 0, so z_score alone cannot fail it
        passed=all(map(math.isfinite, (estimate, stderr, z_score))) and abs(z_score) <= MOMENT_Z_LIMIT,
        n=n,
        seed=stream.seed,
    )


def implied_covariance(model) -> np.ndarray:
    """Covariance of the stacked draw implied by the model's kernel and factors."""
    scale = model.kernel.covariance_scale
    if scale is None:
        raise ValueError(f"{model.kernel!r} has no finite covariance")
    k = inv_kron_chain(model.factors)
    return scale * (k @ k.T)


def check_covariance(model, n, stream) -> McReport:
    """Entrywise sample-covariance check against the implied covariance.

    The statistic is the worst entrywise deviation in units of its own
    empirical standard error; the reported estimate/target pair is that
    worst entry.  Guarded at m <= 16.
    """
    m = model.m
    if m > MAX_COVARIANCE_CELLS:
        raise ValueError(f"cell count {m} exceeds the covariance guard ({MAX_COVARIANCE_CELLS})")
    n = whole(n, 2, "sample count")
    target = implied_covariance(model)
    rows = sample_elliptical_rvecs(model, n, stream)
    centered = rows - rows.mean(axis=0)[None, :]
    sample_cov = centered.T @ centered / (n - 1)
    # empirical stderr of each covariance entry: std of the products c_i c_j
    sq = centered * centered
    second = sq.T @ sq / n
    var_prod = second - (centered.T @ centered / n) ** 2
    se = np.sqrt(np.maximum(var_prod, 1e-300) / n)
    ratios = np.abs(sample_cov - target) / se
    worst = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    statistic = float(ratios[worst])
    return McReport(
        name=f"covariance-{_model_tag(model)}",
        estimate=float(sample_cov[worst]),
        stderr=float(se[worst]),
        target=float(target[worst]),
        statistic=statistic,
        passed=statistic <= COVARIANCE_Z_LIMIT,
        n=n,
        seed=stream.seed,
    )


def check_radial(model, n, stream) -> McReport:
    """KS test of the radii of the model's draws against the closed-form CDF of its radial law.

    The paper's ``x = M + K r u`` read backwards: n draws of the sampler, made
    in blocks of at most ``RADIAL_BLOCK_VALUES`` values, are standardized by the
    density's :func:`~arrayvariate.densities.squared_norms`, so a fault in
    either path moves the radii off the law.  estimate = p-value, target = the
    rejection level, statistic = KS distance.
    """
    n = whole(n, 2, "sample count")
    from scipy import stats  # deferred: importing scipy.stats takes most of a cold start

    radii = np.empty(n)
    block = max(1, RADIAL_BLOCK_VALUES // model.m)
    for start in range(0, n, block):
        stop = min(n, start + block)  # one block of draws is alive at a time
        radii[start:stop] = squared_norms(model, sample_elliptical_rvecs(model, stop - start, stream))
    result = stats.ks_1samp(np.sqrt(radii, out=radii), lambda r: model.kernel._radial_cdf(r, model.m))
    return McReport(
        name=f"radial-{model.kernel.tag}-m{model.m}",
        estimate=float(result.pvalue),
        stderr=0.0,
        target=KS_ALPHA,
        statistic=float(result.statistic),
        passed=bool(result.pvalue >= KS_ALPHA),
        n=n,
        seed=stream.seed,
    )


def skipped_checks(model) -> dict:
    """Checks that :func:`run_suite`'s guards drop for the model: record name -> reason."""
    tag = _model_tag(model)
    skipped = {}
    if model.m > MAX_NORMALIZATION_CELLS:
        skipped[f"normalization-{tag}"] = f"m={model.m} > {MAX_NORMALIZATION_CELLS}"
    if model.kernel.covariance_scale is None:
        skipped[f"covariance-{tag}"] = "df <= 2"
    elif model.m > MAX_COVARIANCE_CELLS:
        skipped[f"covariance-{tag}"] = f"m={model.m} > {MAX_COVARIANCE_CELLS}"
    return skipped


def run_suite(model, n, stream) -> list:
    """All applicable checks for the model, on independent child streams.

    Check order is fixed (normalization, covariance, radial) and each runs on
    ``stream.split(i)``, so the suite reproduces exactly from the master seed.
    The checks :func:`skipped_checks` names are left out.
    """
    if not model.kernel.has_sampler:
        raise ValueError("no verification check applies to this model")
    skipped, tag = skipped_checks(model), _model_tag(model)
    checks = {"normalization": check_normalization, "covariance": check_covariance}
    reports = [check(model, n, stream.split(i)) for i, (kind, check) in enumerate(checks.items())
               if f"{kind}-{tag}" not in skipped]
    reports.append(check_radial(model, n, stream.split(2)))
    return reports
