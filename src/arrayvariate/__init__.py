"""Array-variate distributions with Kronecker-structured covariance.

Multiway arrays with one scale factor per mode: exact log-densities and
samplers for the normal, elliptical and t families, the array algebra they
rest on (stacking, reversed Kronecker products, per-mode multiplication,
multilinear least squares), the monolinear bridge to ordinary multivariate
laws, and a Monte Carlo verification harness.
"""

from .array_core import (
    distance,
    dump_arrays,
    fiber,
    linear_index,
    parse_arrays,
    read_array,
    rvec,
    shape_size,
    sq_norm,
    unrvec,
    write_arrays,
)
from .densities import (
    Kernel,
    KroneckerModel,
    log_jacobian,
    log_kernel_pdf,
    logpdf_elliptical,
    logpdf_elliptical_rvecs,
    radial_pdf,
    standardize,
)
from .errors import FormatError, SingularMatrixError
from .kronecker import inv_kron, inv_kron_chain
from .linalg import (
    dump_matrix,
    inverse,
    l_inverse,
    logabsdet,
    parse_matrix,
    read_matrix,
    solve,
    write_matrix,
)
from .monolinear_stats import MonolinearNormal, conditional, marginal, to_monolinear
from .multilinear import multilinear_lstsq, r_multiply
from .sampling import (
    RandomStream,
    sample_elliptical,
    sample_elliptical_rvecs,
    sample_radii,
)
from .verify import (
    McReport,
    check_covariance,
    check_normalization,
    check_radial,
    implied_covariance,
    radial_cdf,
    run_suite,
)

__version__ = "0.1.0"
