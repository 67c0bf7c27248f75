import re

import numpy as np
import pytest

from arrayvariate import array_core as ac
from arrayvariate.errors import FormatError
from support import dump_array, read_arrays

# (X)11=1, (X)21=3, (X)12=2, (X)22=4
X22 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestRvec:
    def test_2x2_example(self):
        assert ac.rvec(X22).tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_one_mode_identity(self):
        v = np.array([5.0, -1.0, 2.0])
        assert ac.rvec(v).tolist() == v.tolist()

    def test_zero_array(self):
        assert ac.rvec(np.zeros((2, 3, 2))).tolist() == [0.0] * 12

    def test_linearity(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            x = gen.standard_normal((2, 3))
            y = gen.standard_normal((2, 3))
            a, b = gen.standard_normal(2)
            np.testing.assert_allclose(
                ac.rvec(a * x + b * y), a * ac.rvec(x) + b * ac.rvec(y), rtol=0, atol=1e-15
            )

    def test_matches_linear_index(self):
        # the 1-based stacked position of a cell, first index fastest: its Fortran-order flat index + 1
        v = ac.rvec(X22)
        for idx in np.ndindex(2, 2):
            position = np.ravel_multi_index(idx, (2, 2), order="F") + 1
            assert v[position - 1] == X22[idx]


class TestUnrvec:
    def test_inverse_of_example(self):
        np.testing.assert_array_equal(ac.unrvec(np.array([1.0, 3.0, 2.0, 4.0]), (2, 2)), X22)

    def test_scalar_shape(self):
        a = ac.unrvec(np.array([4.5]), (1, 1, 1))
        assert a.shape == (1, 1, 1)
        assert a[0, 0, 0] == 4.5

    def test_round_trip_2x3x2(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((2, 3, 2))
        np.testing.assert_array_equal(ac.unrvec(ac.rvec(x), (2, 3, 2)), x)

    def test_round_trip_randomized(self):
        gen = np.random.default_rng(11)
        for _ in range(1000):
            order = int(gen.integers(1, 5))
            dims = tuple(int(d) for d in gen.integers(1, 5, size=order))
            x = gen.standard_normal(dims)
            np.testing.assert_array_equal(ac.unrvec(ac.rvec(x), dims), x)
            v = gen.standard_normal(int(np.prod(dims)))
            np.testing.assert_array_equal(ac.rvec(ac.unrvec(v, dims)), v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length 3"):
            ac.unrvec(np.zeros(3), (2, 2))


def arrv1_file(tmp_path, text):
    path = tmp_path / "in.arr"
    path.write_text(text, encoding="utf-8")
    return path


class TestArrv1:
    def test_round_trip_single(self, tmp_path):
        text = dump_array(X22)
        assert text.splitlines()[0] == "ARRV1"
        assert text.splitlines()[1] == "dims 2 2"
        np.testing.assert_array_equal(ac.read_array(arrv1_file(tmp_path, text)), X22)

    def test_round_trip_precision(self, tmp_path):
        gen = np.random.default_rng(9)
        x = gen.standard_normal((3, 2, 4)) * 1e-7
        np.testing.assert_array_equal(ac.read_array(arrv1_file(tmp_path, dump_array(x))), x)

    def test_multiple_arrays_blank_separated(self, tmp_path):
        xs = [X22, np.ones((3,)), np.zeros((1, 2))]
        path = tmp_path / "many.arr"
        ac.write_arrays(xs, path)
        back = read_arrays(path)
        assert len(back) == 3
        for a, b in zip(xs, back):
            np.testing.assert_array_equal(a, b)

    def test_empty_input(self, tmp_path):
        assert read_arrays(arrv1_file(tmp_path, "")) == []
        assert read_arrays(arrv1_file(tmp_path, "\n \n")) == []

    def test_bad_header_names_line(self, tmp_path):
        with pytest.raises(FormatError, match=r"in\.arr:1"):
            read_arrays(arrv1_file(tmp_path, "ARRV9\ndims 2\n1 2\n"))

    def test_bad_token_names_line(self, tmp_path):
        with pytest.raises(FormatError, match=r"in\.arr:3.*'x'"):
            read_arrays(arrv1_file(tmp_path, "ARRV1\ndims 2\n1 x\n"))

    def test_non_finite_token_names_line(self, tmp_path):
        # the bad value sits in the second array of the file
        with pytest.raises(FormatError, match=r"in\.arr:8:.*'-inf'"):
            read_arrays(arrv1_file(tmp_path, "ARRV1\ndims 2\n1 2\n\nARRV1\ndims 2 2\n1 2\n3 -inf\n"))

    def test_truncated_data(self, tmp_path):
        with pytest.raises(FormatError, match="2 of 4"):
            read_arrays(arrv1_file(tmp_path, "ARRV1\ndims 2 2\n1 2\n"))

    def test_bad_dims(self, tmp_path):
        with pytest.raises(FormatError, match="dims"):
            read_arrays(arrv1_file(tmp_path, "ARRV1\nshape 2 2\n1 2 3 4\n"))
        with pytest.raises(FormatError):
            read_arrays(arrv1_file(tmp_path, "ARRV1\ndims 0\n\n"))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "a.arr"
        ac.write_arrays([X22, X22 * 2], path)
        back = read_arrays(path)
        assert len(back) == 2
        np.testing.assert_array_equal(back[1], X22 * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at, cell, named", [(0, (1, 0), "array 1 cell (2, 1)"),
                                                 (2, (1, 2, 0), "array 3 cell (2, 3, 1)")], ids=["first", "later"])
    def test_writers_reject_a_non_finite_cell(self, tmp_path, bad, at, cell, named):
        # the reader rejects a nan or inf, so no writer writes one: write_arrays creates no file
        arrays = [X22.copy(), X22 * 2, np.ones((2, 3, 2))]
        arrays[at][cell] = bad
        arrays[2][0, 0, 1] = np.nan  # stacked after cell (2, 3, 1)
        message = rf"^{re.escape(named)} is not finite \({re.escape(repr(bad))}\)$"
        path = tmp_path / "bad.arr"
        with pytest.raises(ValueError, match=message):
            ac.write_arrays(arrays, path)
        assert not path.exists()

    def test_read_array_rejects_many(self, tmp_path):
        path = tmp_path / "two.arr"
        ac.write_arrays([X22, X22], path)
        with pytest.raises(FormatError, match="exactly one"):
            ac.read_array(path)
