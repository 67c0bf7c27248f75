"""Finite in, finite out at the library boundary.

Every library entry that takes an array, an observation or a mode map either
returns a finite answer or raises: ``ValueError`` naming the first
non-finite input cell or matrix entry, ``OverflowError`` when the inputs are
finite and the result overflowed.  None of them emits a floating-point
warning on the way.
"""

import re
import warnings

import numpy as np
import pytest

from arrayvariate import array_core as ac
from arrayvariate import densities as dn
from arrayvariate import linalg
from arrayvariate import multilinear as ml
from arrayvariate import sampling as sp
from arrayvariate import verify as vf
from arrayvariate.array_core import rvec

BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
SHAPE = (2, 3)


def model(factor=None):
    factors = [np.array([[2.0, 0.5], [0.0, 1.0]]), np.eye(3) if factor is None else factor]
    return dn.KroneckerModel(np.zeros(SHAPE), factors, dn.Kernel.student_t(5.0))


def long_model():
    # 3 x 4 = 12 cells: the engine reads these rows in place (multilinear.reads_rows)
    return dn.KroneckerModel(np.zeros((3, 4)), [np.eye(3), np.full((4, 4), 0.5) + np.eye(4)], dn.Kernel.normal())


def array_with(bad, value=1.0):
    x = np.full(SHAPE, value)
    x[1, 2] = bad  # stacked position 6, the last cell
    x[0, 2] = bad  # stacked position 5: the first bad cell
    return x


def map_with(bad):
    a = np.eye(3)
    a[1, 2] = bad  # entry (2, 3) in reading order
    a[2, 0] = bad
    return a


def rows_with(bad):
    rows = np.ones((4, 6))
    rows[2, 4] = bad  # row 2, cell (1, 3)
    rows[3, 0] = bad
    return rows


def long_rows_with(bad):
    rows = np.ones((5, 12))
    rows[3, 8] = bad  # row 3, cell (3, 3) of a 3 x 4 array
    rows[4, 0] = bad
    return rows


MAPS = [np.eye(2), np.eye(3)]

# entry, where the bad value sits, the call, the exception and its message prefix
CASES = [
    ("logpdf_elliptical", "array", lambda b: dn.logpdf_elliptical(model(), array_with(b)),
     ValueError, "row 0 cell (1, 3) is not finite"),
    ("logpdf_elliptical_rvecs", "array", lambda b: dn.logpdf_elliptical_rvecs(model(), rows_with(b)),
     ValueError, "row 2 cell (1, 3) is not finite"),
    ("logpdf_elliptical_rvecs", "long-rows", lambda b: dn.logpdf_elliptical_rvecs(long_model(), long_rows_with(b)),
     ValueError, "row 3 cell (3, 3) is not finite"),
    ("logpdf_elliptical", "map", lambda b: dn.logpdf_elliptical(model(map_with(b)), np.ones(SHAPE)),
     ValueError, "matrix entry (2, 3) is not finite"),
    ("standardize", "array", lambda b: dn.standardize(model(), array_with(b)),
     ValueError, "array cell (1, 3) is not finite"),
    ("standardize", "map", lambda b: dn.standardize(model(map_with(b)), np.ones(SHAPE)),
     ValueError, "matrix entry (2, 3) is not finite"),
    ("apply_modes", "array", lambda b: ml.apply_modes(MAPS, rows_with(b), SHAPE),
     ValueError, "row 2 cell (1, 3) is not finite"),
    ("apply_modes", "long-rows", lambda b: ml.apply_modes(long_model().factors, long_rows_with(b), (3, 4)),
     ValueError, "row 3 cell (3, 3) is not finite"),
    ("apply_modes", "map", lambda b: ml.apply_modes([np.eye(2), map_with(b)], np.ones((4, 6)), SHAPE),
     ValueError, "matrix entry (2, 3) is not finite"),
    ("r_multiply", "array", lambda b: ml.r_multiply(MAPS, array_with(b)),
     ValueError, "array cell (1, 3) is not finite"),
    ("r_multiply", "map", lambda b: ml.r_multiply([np.eye(2), map_with(b)], np.ones(SHAPE)),
     ValueError, "matrix entry (2, 3) is not finite"),
    ("multilinear_lstsq", "observation", lambda b: ml.multilinear_lstsq(MAPS, array_with(b)),
     ValueError, "observation cell (1, 3) is not finite"),
    ("multilinear_lstsq", "map", lambda b: ml.multilinear_lstsq([np.eye(2), map_with(b)], np.ones(SHAPE)),
     ValueError, "matrix entry (2, 3) is not finite"),
    ("l_inverse", "map", lambda b: linalg.l_inverse(map_with(b)),
     ValueError, "matrix entry (2, 3) is not finite"),
]


def raises_without_warning(call, exc, prefix):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(exc, match="^" + re.escape(prefix)) as info:
            call()
    assert [str(w.message) for w in caught] == []
    return info.value


class TestNonFiniteInputs:
    def test_long_rows_are_read_in_place(self):
        assert ml.reads_rows(long_model().m) and not ml.reads_rows(model().m)

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("entry, where, call, exc, prefix", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_raises_naming_the_first_bad_cell(self, entry, where, call, exc, prefix, bad):
        err = raises_without_warning(lambda: call(BAD[bad]), exc, prefix)
        assert str(err).endswith(f"({BAD[bad]!r})")


# finite inputs whose result is beyond the float range
OVERFLOWS = [
    ("logpdf_elliptical_rvecs",
     lambda: dn.logpdf_elliptical_rvecs(model(), np.vstack([np.ones(6), np.full(6, 1e200)])),
     "row 1: its squared norm overflows"),
    ("logpdf_elliptical", lambda: dn.logpdf_elliptical(model(), array_with(1e300, 1e300)),
     "row 0: its squared norm overflows"),
    ("standardize", lambda: dn.standardize(model(1e-10 * np.eye(3)), np.full(SHAPE, 1e300)),
     "array: its standardized array overflows"),
    ("r_multiply", lambda: ml.r_multiply([np.full((2, 2), 1e200), np.eye(3)], np.full(SHAPE, 1e200)),
     "array: its image overflows"),
    ("apply_modes",
     lambda: ml.apply_modes([np.full((2, 2), 1e200), np.eye(3)], np.vstack([np.ones(6), np.full(6, 1e200)]), SHAPE),
     "row 1: its image overflows"),
    ("multilinear_lstsq", lambda: ml.multilinear_lstsq([1e-200 * np.eye(2), np.eye(3)], np.full(SHAPE, 1e200)),
     "observation: its estimate overflows"),
]


class TestOverflow:
    @pytest.mark.parametrize("entry, call, prefix", OVERFLOWS, ids=[c[0] for c in OVERFLOWS])
    def test_finite_input_whose_result_overflows(self, entry, call, prefix):
        raises_without_warning(call, OverflowError, prefix)

    def test_shifted_overflow_is_not_blamed_on_the_array(self):
        # x - M overflows while both are finite: standardize reports an overflow, not a bad cell
        m = dn.KroneckerModel(np.full(SHAPE, -1e308), [np.eye(2), np.eye(3)], dn.Kernel.normal())
        raises_without_warning(lambda: dn.standardize(m, np.full(SHAPE, 1e308)), OverflowError, "array: its")


# the kernel entries that take a squared radius or a radius, and the message
# prefix for an argument that is nan or negative
KERNELS = {"normal": dn.Kernel.normal(), "t5": dn.Kernel.student_t(5.0)}
SCALARS = {
    "log_kernel_pdf": (dn.log_kernel_pdf, "squared radius t must be >= 0"),
    "radial_pdf": (dn.radial_pdf, "radius r must be >= 0"),
}


ROWS = np.arange(12.0).reshape(2, 6)


def written(per_line) -> str:
    out = []
    ac.write_records("ARRV1", (6,), ROWS, per_line, out.append)
    return "".join(out)


# each entry that takes a count, a dimension or an index, called with it as v, and the
# start of its message for a v that is not a whole number at or above its least value
WHOLE = {
    "sample_elliptical_rvecs": (lambda v: sp.sample_elliptical_rvecs(model(), v, sp.RandomStream(1)),
                                "draw count must be a whole number >= 0"),
    "check_normalization": (lambda v: vf.check_normalization(model(), v, sp.RandomStream(1)),
                            "sample count must be a whole number >= 2"),
    "check_covariance": (lambda v: vf.check_covariance(model(), v, sp.RandomStream(1)),
                         "sample count must be a whole number >= 2"),
    "check_radial": (lambda v: vf.check_radial(model(), v, sp.RandomStream(1)),
                     "sample count must be a whole number >= 2"),
    "unrvec": (lambda v: ac.unrvec(ROWS[1], (v, 2)), "array dimension must be a whole number >= 1"),
    "shape_size": (lambda v: ac.shape_size((2, v)), "array dimension must be a whole number >= 1"),
    "apply_modes": (lambda v: ml.apply_modes([np.diag([1.0, 2.0, 3.0]), np.eye(2)], ROWS, (v, 2)),
                    "array dimension must be a whole number >= 1"),
    "split": (lambda v: sp.RandomStream(1).split(v).seed, "task index must be a whole number >= 0"),
    "write_records": (written, "values per line must be a whole number >= 1"),
}


def same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestScalarArguments:
    @pytest.mark.parametrize("value", [np.nan, -1.0, [1.0, np.nan]], ids=["nan", "-1", "array-with-nan"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_raises_value_error(self, entry, kernel, value):
        call, prefix = SCALARS[entry]
        raises_without_warning(lambda: call(KERNELS[kernel], value, 3), ValueError, prefix)

    @pytest.mark.parametrize("k", [2.5, 0.5, np.inf, np.nan, "3"], ids=["2.5", "0.5", "inf", "nan", "str-3"])
    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_dimension_that_is_not_a_whole_number_raises(self, entry, k):
        # a truncating int(k) would take 2.5 as 2 and "3" as 3, and raise OverflowError on inf
        call, _ = SCALARS[entry]
        raises_without_warning(lambda: call(KERNELS["t5"], 1.0, k), ValueError,
                               f"dimension k must be a whole number >= 1, got {k!r}")

    @pytest.mark.parametrize("k", [3.0, np.int64(3), np.float64(3.0)], ids=["3.0", "int64", "float64"])
    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_whole_dimension_of_any_real_type(self, entry, k):
        call, _ = SCALARS[entry]
        assert call(KERNELS["t5"], 1.0, k) == call(KERNELS["t5"], 1.0, 3)

    @pytest.mark.parametrize("v", [2.5, -0.5, np.inf, np.nan, "3"], ids=["2.5", "-0.5", "inf", "nan", "str-3"])
    @pytest.mark.parametrize("entry", sorted(WHOLE))
    def test_count_that_is_not_a_whole_number_raises(self, entry, v):
        # a truncating int(v) would take 2.5 as 2 and -0.5 as 0, and raise OverflowError on inf
        call, what = WHOLE[entry]
        raises_without_warning(lambda: call(v), ValueError, f"{what}, got {v!r}")

    @pytest.mark.parametrize("v", [3.0, np.int64(3)], ids=["3.0", "int64"])
    @pytest.mark.parametrize("entry", sorted(WHOLE))
    def test_whole_count_of_any_real_type(self, entry, v):
        call, _ = WHOLE[entry]
        assert same(call(v), call(3))


class TestFiniteAnswers:
    def test_finite_inputs_still_give_finite_answers(self):
        x = np.arange(6.0).reshape(SHAPE)
        assert np.isfinite(dn.logpdf_elliptical(model(), x))
        np.testing.assert_array_equal(ml.r_multiply(MAPS, x), x)
        np.testing.assert_array_equal(ml.multilinear_lstsq(MAPS, x), x)
        np.testing.assert_allclose(rvec(dn.standardize(model(), x)), rvec(ml.r_multiply(model().inv_factors, x)))

    @pytest.mark.parametrize("k", [1, 2, 3, 512])
    @pytest.mark.parametrize("kernel", [dn.Kernel.normal(), dn.Kernel.student_t(5.0), dn.Kernel.cauchy()],
                             ids=["normal", "t5", "cauchy"])
    def test_radial_density_at_infinite_radius_is_zero(self, kernel, k):
        # (k - 1) log r + log f(r^2) is inf - inf at r = +inf; the density's limit there is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dn.radial_pdf(kernel, np.array([1.0, np.inf]), k)
            assert out[1] == 0.0 and dn.radial_pdf(kernel, np.inf, k) == 0.0
            assert out[0] == dn.radial_pdf(kernel, 1.0, k) and np.isfinite(out[0])
