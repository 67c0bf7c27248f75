"""The package's public surface, pinned: an export or a submodule added or
removed, or a kernel method made public, shows up in this file's diff."""

import pkgutil
import types

import pytest

import arrayvariate
from arrayvariate import Kernel

PUBLIC = {
    # array_core
    "read_array", "rvec", "shape_size", "unrvec", "write_arrays",
    # densities
    "Kernel", "KroneckerModel", "log_kernel_pdf", "logpdf_elliptical", "logpdf_elliptical_rvecs",
    "radial_cdf", "radial_pdf", "standardize",
    # errors
    "FormatError", "SingularMatrixError",
    # linalg
    "inv_kron_chain", "inverse", "l_inverse", "read_matrix", "write_matrix",
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
    assert len(PUBLIC) == 31
    assert exported == PUBLIC


MODULES = {"array_core", "cli", "densities", "errors", "linalg", "multilinear", "sampling", "verify"}


def test_submodules_are_pinned():
    assert {module.name for module in pkgutil.iter_modules(arrayvariate.__path__)} == MODULES


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
