"""The package's public surface, pinned: an export added or removed shows up
in this file's diff."""

import types

import arrayvariate

PUBLIC = {
    # array_core
    "dump_arrays", "parse_arrays", "read_array", "rvec", "shape_size", "unrvec", "write_arrays",
    # densities
    "Kernel", "KroneckerModel", "log_kernel_pdf", "logpdf_elliptical", "logpdf_elliptical_rvecs",
    "radial_pdf", "standardize",
    # errors
    "FormatError", "SingularMatrixError",
    # kronecker
    "inv_kron", "inv_kron_chain",
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
