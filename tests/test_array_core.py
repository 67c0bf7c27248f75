import itertools

import numpy as np
import pytest

from arrayvariate import array_core as ac
from arrayvariate.errors import FormatError
from support import dump_array, read_arrays

# (X)11=1, (X)21=3, (X)12=2, (X)22=4
X22 = np.array([[1.0, 2.0], [3.0, 4.0]])


class TestLinearIndex:
    def test_hand_enumerated_2x2(self):
        assert ac.linear_index((2, 1), (2, 2)) == 2
        assert ac.linear_index((1, 2), (2, 2)) == 3
        assert ac.linear_index((1, 1), (2, 2)) == 1
        assert ac.linear_index((2, 2), (2, 2)) == 4

    def test_one_mode_identity(self):
        for k in range(1, 8):
            assert ac.linear_index((k,), (7,)) == k

    def test_out_of_range_names_mode(self):
        with pytest.raises(IndexError, match="mode 2"):
            ac.linear_index((1, 3), (2, 2))
        with pytest.raises(IndexError, match="mode 1"):
            ac.linear_index((0, 1), (2, 2))

    def test_wrong_arity(self):
        with pytest.raises(IndexError):
            ac.linear_index((1, 1), (2, 2, 2))

    def test_exhaustive_bijection_small_shapes(self):
        # every shape with order <= 4 and dims <= 6, plus orders 5..6 with
        # dims <= 3, filtered to m <= 720
        families = [(order, 7) for order in range(1, 5)] + [(5, 4), (6, 4)]
        for order, dim_stop in families:
            for dims in itertools.product(range(1, dim_stop), repeat=order):
                m = int(np.prod(dims))
                if m > 720:
                    continue
                seen = sorted(
                    ac.linear_index(tuple(j + 1 for j in idx), dims)
                    for idx in np.ndindex(dims)
                )
                assert seen == list(range(1, m + 1))


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
        v = ac.rvec(X22)
        for idx in np.ndindex(2, 2):
            one_based = tuple(j + 1 for j in idx)
            assert v[ac.linear_index(one_based, (2, 2)) - 1] == X22[idx]


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


class TestNorms:
    def test_all_ones(self):
        assert ac.sq_norm(np.ones((2, 2))) == 4.0

    def test_zero(self):
        assert ac.sq_norm(np.zeros((3, 2))) == 0.0

    def test_hand_value(self):
        assert ac.sq_norm(ac.unrvec(np.array([1.0, 2.0, 3.0]), (3,))) == 14.0

    def test_equals_dot_of_rvec(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            x = gen.standard_normal((2, 2, 3))
            v = ac.rvec(x)
            assert ac.sq_norm(x) == float(v @ v)

    def test_distance_self(self):
        assert ac.distance(X22, X22) == 0.0

    def test_distance_hand_value(self):
        assert ac.distance(np.ones((2, 2)), np.zeros((2, 2))) == 2.0

    def test_distance_symmetric(self):
        gen = np.random.default_rng(4)
        x, y = gen.standard_normal((2, 3, 2)), gen.standard_normal((2, 3, 2))
        assert ac.distance(x, y) == ac.distance(y, x)

    def test_distance_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ac.distance(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_triangle_inequality(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            x, y, z = (gen.standard_normal((2, 2, 2)) for _ in range(3))
            lhs = ac.distance(x, z)
            rhs = ac.distance(x, y) + ac.distance(y, z)
            assert lhs <= rhs * (1 + 1e-12)


class TestFiber:
    def test_mode1_fixed_second(self):
        assert ac.fiber(X22, 1, (2,)).tolist() == [2.0, 4.0]

    def test_mode2_fixed_first(self):
        assert ac.fiber(X22, 2, (2,)).tolist() == [3.0, 4.0]

    def test_one_mode_whole_data(self):
        v = np.array([1.0, 2.0, 3.0])
        assert ac.fiber(v, 1, ()).tolist() == v.tolist()

    def test_zero_array(self):
        assert ac.fiber(np.zeros((2, 3)), 2, (1,)).tolist() == [0.0, 0.0, 0.0]

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="mode 2"):
            ac.fiber(X22, 1, (3,))
        with pytest.raises(IndexError, match="mode"):
            ac.fiber(X22, 3, (1,))


class TestArrv1:
    def test_round_trip_single(self):
        text = dump_array(X22)
        assert text.splitlines()[0] == "ARRV1"
        assert text.splitlines()[1] == "dims 2 2"
        (back,) = ac.parse_arrays(text)
        np.testing.assert_array_equal(back, X22)

    def test_round_trip_precision(self):
        gen = np.random.default_rng(9)
        x = gen.standard_normal((3, 2, 4)) * 1e-7
        (back,) = ac.parse_arrays(dump_array(x))
        np.testing.assert_array_equal(back, x)

    def test_multiple_arrays_blank_separated(self):
        xs = [X22, np.ones((3,)), np.zeros((1, 2))]
        back = ac.parse_arrays(ac.dump_arrays(xs))
        assert len(back) == 3
        for a, b in zip(xs, back):
            np.testing.assert_array_equal(a, b)

    def test_empty_input(self):
        assert ac.parse_arrays("") == []
        assert ac.parse_arrays("\n \n") == []

    def test_bad_header_names_line(self):
        with pytest.raises(FormatError, match=r"in\.arr:1"):
            ac.parse_arrays("ARRV9\ndims 2\n1 2\n", source="in.arr")

    def test_bad_token_names_line(self):
        with pytest.raises(FormatError, match=r"in\.arr:3.*'x'"):
            ac.parse_arrays("ARRV1\ndims 2\n1 x\n", source="in.arr")

    def test_non_finite_token_names_line(self):
        # the bad value sits in the second array of the file
        with pytest.raises(FormatError, match=r"in\.arr:8:.*'-inf'"):
            ac.parse_arrays("ARRV1\ndims 2\n1 2\n\nARRV1\ndims 2 2\n1 2\n3 -inf\n", source="in.arr")

    def test_truncated_data(self):
        with pytest.raises(FormatError, match="2 of 4"):
            ac.parse_arrays("ARRV1\ndims 2 2\n1 2\n")

    def test_bad_dims(self):
        with pytest.raises(FormatError, match="dims"):
            ac.parse_arrays("ARRV1\nshape 2 2\n1 2 3 4\n")
        with pytest.raises(FormatError):
            ac.parse_arrays("ARRV1\ndims 0\n\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "a.arr"
        ac.write_arrays([X22, X22 * 2], path)
        back = read_arrays(path)
        assert len(back) == 2
        np.testing.assert_array_equal(back[1], X22 * 2)

    def test_read_array_rejects_many(self, tmp_path):
        path = tmp_path / "two.arr"
        ac.write_arrays([X22, X22], path)
        with pytest.raises(FormatError, match="exactly one"):
            ac.read_array(path)
