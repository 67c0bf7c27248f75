"""Array-variate distributions with Kronecker-structured covariance.

Multiway arrays with one scale factor per mode: exact log-densities and
samplers for the normal, elliptical and t families, the array algebra they
rest on (stacking, reversed Kronecker products, per-mode multiplication,
multilinear least squares), and a Monte Carlo verification harness.
"""

from .array_core import (
    read_array,
    rvec,
    shape_size,
    unrvec,
    write_arrays,
)
from .densities import (
    Kernel,
    KroneckerModel,
    log_kernel_pdf,
    logpdf_elliptical,
    logpdf_elliptical_rvecs,
    radial_cdf,
    radial_pdf,
    standardize,
)
from .errors import FormatError, SingularMatrixError
from .linalg import (
    inv_kron_chain,
    inverse,
    l_inverse,
    read_matrix,
    write_matrix,
)
from .multilinear import multilinear_lstsq, r_multiply
from .sampling import (
    RandomStream,
    sample_elliptical,
    sample_elliptical_rvecs,
)
from .verify import (
    McReport,
    check_covariance,
    check_normalization,
    check_radial,
    implied_covariance,
    run_suite,
)

__version__ = "0.1.0"
