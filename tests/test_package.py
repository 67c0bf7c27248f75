"""The package's public surface, pinned: an export added or removed, or a
kernel method made public, shows up in this file's diff."""

import types

import pytest

import arrayvariate
from arrayvariate import Kernel

PUBLIC = {
    # array_core
    "dump_arrays", "parse_arrays", "read_array", "rvec", "shape_size", "unrvec", "write_arrays",
    # densities
    "Kernel", "KroneckerModel", "log_kernel_pdf", "logpdf_elliptical", "logpdf_elliptical_rvecs",
    "radial_cdf", "radial_pdf", "standardize",
    # errors
    "FormatError", "SingularMatrixError",
    # kronecker
    "inv_kron_chain",
    # linalg
    "dump_matrix", "inverse", "l_inverse", "parse_matrix", "read_matrix", "write_matrix",
    # multilinear
    "multilinear_lstsq", "r_multiply",
    # sampling
    "RandomStream", "sample_elliptical", "sample_elliptical_rvecs",
    # verify
    "McReport", "check_covariance", "check_normalization", "check_radial", "implied_covariance", "run_suite",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(arrayvariate).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 35
    assert exported == PUBLIC


# a kernel's math is private: it is reached through log_kernel_pdf, radial_pdf
# and radial_cdf, which check their arguments
KERNEL_PUBLIC = {
    # constructors
    "normal", "student_t", "cauchy", "custom",
    # descriptive attributes
    "df", "name", "tag", "covariance_scale", "has_sampler",
}


@pytest.mark.parametrize("kernel", [Kernel.normal(), Kernel.student_t(5.0), Kernel.cauchy(),
                                    Kernel.custom(lambda t: -0.5 * t, lambda k: 0.0)],
                         ids=["normal", "t5", "cauchy", "custom"])
def test_kernel_public_names_are_pinned(kernel):
    assert {name for name in dir(kernel) if not name.startswith("_")} == KERNEL_PUBLIC
