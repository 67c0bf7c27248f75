import math
import subprocess
import sys

import numpy as np
import pytest

from arrayvariate import cli
from arrayvariate.array_core import parse_arrays, write_arrays
from arrayvariate.linalg import write_matrix


@pytest.fixture
def model_files(tmp_path):
    """Identity 2x2 model files: two factor matrices and a mean array."""
    f1 = tmp_path / "a1.mat"
    f2 = tmp_path / "a2.mat"
    write_matrix(np.eye(2), f1)
    write_matrix(np.eye(2), f2)
    mean = tmp_path / "mean.arr"
    write_arrays([np.zeros((2, 2))], mean)
    return f1, f2, mean


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSample:
    def test_deterministic_bytes(self, tmp_path, model_files):
        f1, f2, _ = model_files
        out1, out2 = tmp_path / "o1.arr", tmp_path / "o2.arr"
        for out in (out1, out2):
            code = run_cli("sample", "--factor", f1, "--factor", f2,
                           "--n", 5, "--seed", 42, "--out", out)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path, model_files):
        f1, f2, _ = model_files
        out1, out2 = tmp_path / "o1.arr", tmp_path / "o2.arr"
        run_cli("sample", "--factor", f1, "--factor", f2, "--n", 5, "--seed", 1, "--out", out1)
        run_cli("sample", "--factor", f1, "--factor", f2, "--n", 5, "--seed", 2, "--out", out2)
        assert out1.read_bytes() != out2.read_bytes()

    def test_n_zero_empty_output(self, tmp_path, model_files):
        f1, f2, _ = model_files
        out = tmp_path / "empty.arr"
        assert run_cli("sample", "--factor", f1, "--factor", f2,
                       "--n", 0, "--seed", 1, "--out", out) == 0
        assert out.read_text() == ""

    def test_missing_df_with_t_kernel(self, model_files, capsys):
        f1, f2, _ = model_files
        code = run_cli("sample", "--kernel", "t", "--factor", f1, "--factor", f2, "--n", 1)
        assert code == 2
        assert "--df" in capsys.readouterr().err

    def test_df_with_normal_kernel_rejected(self, model_files, capsys):
        f1, f2, _ = model_files
        code = run_cli("sample", "--kernel", "normal", "--df", 3, "--factor", f1,
                       "--factor", f2, "--n", 1)
        assert code == 2

    def test_nonpositive_df_rejected(self, model_files, capsys):
        f1, f2, _ = model_files
        for df in (-1, "inf"):
            code = run_cli("sample", "--kernel", "t", "--df", df, "--factor", f1,
                           "--factor", f2, "--n", 1)
            assert code == 2
        assert capsys.readouterr().out == ""

    def test_matches_library_sampler(self, tmp_path, model_files, capsys):
        # the CLI is a thin wrapper: same seed gives the library's exact draws
        f1, f2, mean = model_files
        out = tmp_path / "draws.arr"
        assert run_cli("sample", "--factor", f1, "--factor", f2, "--mean", mean,
                       "--n", 6, "--seed", 17, "--out", out) == 0
        from arrayvariate import Kernel, KroneckerModel, RandomStream, read_arrays, sample_elliptical

        model = KroneckerModel(np.zeros((2, 2)), [np.eye(2), np.eye(2)], Kernel.normal())
        expected = sample_elliptical(model, 6, RandomStream(17))
        got = read_arrays(out)
        assert len(got) == 6
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)  # 17-digit output round-trips losslessly

    def test_singular_factor_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        write_matrix(np.zeros((2, 2)), bad)
        code = run_cli("sample", "--factor", bad, "--n", 1)
        assert code == 3
        assert "singular" in capsys.readouterr().err

    def test_malformed_factor_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.mat"
        bad.write_text("MATV1\ndims 2 2\n1 2\n3 oops\n")
        code = run_cli("sample", "--factor", bad, "--n", 1)
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.mat" in err
        assert ":4" in err

    def test_non_finite_factor_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.mat"
        bad.write_text("MATV1\ndims 2 2\n1 0\n0 nan\n")
        code = run_cli("sample", "--factor", bad, "--n", 1)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan.mat:4:" in captured.err

    def test_mean_shape_mismatch(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        wrong = tmp_path / "wrong.arr"
        write_arrays([np.zeros((2, 3))], wrong)
        assert run_cli("sample", "--factor", f1, "--factor", f2,
                       "--mean", wrong, "--n", 1) == 2


class TestDensity:
    def test_center_value_identity_normal(self, tmp_path, model_files, capsys):
        f1, f2, mean = model_files
        inp = tmp_path / "x.arr"
        write_arrays([np.zeros((2, 2))], inp)
        code = run_cli("density", "--factor", f1, "--factor", f2, "--mean", mean, "--input", inp)
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(-2 * math.log(2 * math.pi), rel=1e-15)

    def test_cauchy_center_1d(self, tmp_path, capsys):
        f = tmp_path / "one.mat"
        write_matrix(np.eye(1), f)
        inp = tmp_path / "x.arr"
        write_arrays([np.zeros(1)], inp)
        code = run_cli("density", "--kernel", "cauchy", "--factor", f, "--input", inp)
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.log(1 / math.pi), rel=1e-15)

    def test_two_inputs_two_lines_in_order(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        inp = tmp_path / "xs.arr"
        write_arrays([np.zeros((2, 2)), np.ones((2, 2))], inp)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", inp) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert float(lines[0]) > float(lines[1])  # center beats the off-center point

    def test_shape_mismatch_names_array_index(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        inp = tmp_path / "xs.arr"
        write_arrays([np.zeros((2, 2)), np.zeros((3, 2))], inp)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", inp) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "array 2" in captured.err

    def test_input_without_arrays_prints_nothing(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        empty, blank = tmp_path / "empty.arr", tmp_path / "blank.arr"
        empty.write_text("")
        blank.write_text("\n\n")
        for inp in (empty, blank):
            assert run_cli("density", "--factor", f1, "--factor", f2, "--input", inp) == 0
            assert capsys.readouterr().out == ""

    def test_batched_values_match_single_array_logpdf(self, tmp_path, capsys):
        from arrayvariate.densities import Kernel, KroneckerModel, logpdf_elliptical

        gen = np.random.default_rng(302)
        a1 = np.eye(2) + 0.3 * gen.standard_normal((2, 2))
        a2 = np.eye(3) + 0.3 * gen.standard_normal((3, 3))
        xs = [gen.standard_normal((2, 3)) for _ in range(9)]
        p1, p2, inp = tmp_path / "a1.mat", tmp_path / "a2.mat", tmp_path / "xs.arr"
        write_matrix(a1, p1)
        write_matrix(a2, p2)
        write_arrays(xs, inp)
        assert run_cli("density", "--kernel", "t", "--df", 3, "--factor", p1, "--factor", p2,
                       "--input", inp, "--input", inp) == 0
        values = [float(v) for v in capsys.readouterr().out.splitlines()]
        model = KroneckerModel(np.zeros((2, 3)), [a1, a2], Kernel.student_t(3.0))
        expected = [logpdf_elliptical(model, x) for x in xs] * 2
        np.testing.assert_allclose(values, expected, rtol=1e-13)

    def test_non_finite_array_exits_2(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        inp = tmp_path / "x.arr"
        inp.write_text("ARRV1\ndims 2 2\n0 inf\n0 0\n")
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", inp) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "x.arr:3:" in captured.err

    def test_round_trip_all_kernels(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        for extra in (("--kernel", "normal"), ("--kernel", "t", "--df", "4"), ("--kernel", "cauchy")):
            out = tmp_path / "draws.arr"
            assert run_cli("sample", *extra, "--factor", f1, "--factor", f2,
                           "--n", 7, "--seed", 3, "--out", out) == 0
            assert run_cli("density", *extra, "--factor", f1, "--factor", f2,
                           "--input", out) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 7
            assert all(np.isfinite(float(v)) for v in lines)


class TestLstsq:
    def test_identity_echo(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        inp = tmp_path / "y.arr"
        y = np.arange(4.0).reshape(2, 2)
        write_arrays([y], inp)
        assert run_cli("lstsq", "--factor", f1, "--factor", f2, "--input", inp) == 0
        (xhat,) = parse_arrays(capsys.readouterr().out)
        np.testing.assert_allclose(xhat, y, atol=1e-12)

    def test_scalar_normal_equations(self, tmp_path, capsys):
        a = tmp_path / "map.mat"
        write_matrix(np.array([[1.0], [1.0]]), a)
        inp = tmp_path / "y.arr"
        write_arrays([np.array([1.0, 3.0])], inp)
        assert run_cli("lstsq", "--factor", a, "--input", inp) == 0
        (xhat,) = parse_arrays(capsys.readouterr().out)
        np.testing.assert_allclose(xhat, [2.0])

    def test_square_invertible_recovery(self, tmp_path, capsys):
        gen = np.random.default_rng(301)
        a1 = np.eye(2) + 0.3 * gen.standard_normal((2, 2))
        a2 = np.eye(3) + 0.3 * gen.standard_normal((3, 3))
        x0 = gen.standard_normal((2, 3))
        from arrayvariate.multilinear import r_multiply

        y = r_multiply([a1, a2], x0)
        p1, p2, py = tmp_path / "m1.mat", tmp_path / "m2.mat", tmp_path / "y.arr"
        write_matrix(a1, p1)
        write_matrix(a2, p2)
        write_arrays([y], py)
        assert run_cli("lstsq", "--factor", p1, "--factor", p2, "--input", py) == 0
        (xhat,) = parse_arrays(capsys.readouterr().out)
        np.testing.assert_allclose(xhat, x0, atol=1e-9)

    def test_rank_deficient_exits_3(self, tmp_path, capsys):
        a = tmp_path / "map.mat"
        write_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]), a)
        inp = tmp_path / "y.arr"
        write_arrays([np.zeros(3)], inp)
        assert run_cli("lstsq", "--factor", a, "--input", inp) == 3
        assert "mode 1" in capsys.readouterr().err


class TestVerify:
    def test_identity_model_passes(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        code = run_cli("verify", "--factor", f1, "--factor", f2, "--n", 20_000, "--seed", 5)
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""  # every check applies: no skip notes
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert all(line.split()[5] == "pass" for line in lines)

    def test_n_below_minimum(self, model_files, capsys):
        f1, f2, _ = model_files
        assert run_cli("verify", "--factor", f1, "--factor", f2, "--n", 9_999) == 2

    def test_corrupted_factor_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("garbage\n")
        assert run_cli("verify", "--factor", bad, "--n", 20_000) == 2

    def test_m512_radial_check_passes(self, tmp_path, capsys):
        # quadrature of the radial density overflowed here before the closed-form CDF
        f = tmp_path / "eye8.mat"
        write_matrix(np.eye(8), f)
        assert run_cli("verify", "--factor", f, "--factor", f, "--factor", f,
                       "--n", 10_000, "--seed", 3) == 0
        captured = capsys.readouterr()
        (record,) = captured.out.splitlines()
        fields = record.split()
        assert fields[0] == "radial-normal-m512"
        assert fields[5] == "pass"
        assert captured.err.splitlines() == [
            "note: skipped normalization-normal-8x8x8: m=512 > 6",
            "note: skipped covariance-normal-8x8x8: m=512 > 16",
        ]

    def test_infinite_covariance_check_skipped_with_note(self, model_files, capsys):
        f1, f2, _ = model_files
        assert run_cli("verify", "--kernel", "t", "--df", 2, "--factor", f1, "--factor", f2,
                       "--n", 10_000, "--seed", 4) == 0
        captured = capsys.readouterr()
        names = [line.split()[0] for line in captured.out.splitlines()]
        assert names == ["normalization-t2-2x2", "radial-t2-m4"]
        assert captured.err.splitlines() == ["note: skipped covariance-t2-2x2: df <= 2"]

    def test_deterministic_output(self, tmp_path, model_files):
        f1, f2, _ = model_files
        o1, o2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for out in (o1, o2):
            assert run_cli("verify", "--factor", f1, "--n", 20_000, "--seed", 5, "--out", out) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestRadial:
    def test_grid_values(self, capsys):
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", 2, "--steps", 4) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        rs = [float(line.split()[0]) for line in lines]
        assert rs == [0.0, 0.5, 1.0, 1.5, 2.0]
        values = {r: float(line.split()[1]) for r, line in zip(rs, lines)}
        assert values[0.0] == 0.0
        assert values[1.0] == pytest.approx(math.exp(-0.5), rel=1e-14)  # Rayleigh at r=1

    def test_invalid_grid(self, capsys):
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", 0, "--steps", 4) == 2
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", 1, "--steps", 0) == 2
        assert run_cli("radial", "--kernel", "normal", "--n", 0, "--rmax", 1, "--steps", 2) == 2
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", "inf", "--steps", 4) == 2
        assert run_cli("radial", "--kernel", "t", "--df", "inf", "--n", 2, "--rmax", 1, "--steps", 4) == 2
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", "1e308", "--steps", 2) == 2
        assert capsys.readouterr().out == ""

    def test_t_kernel_grid(self, capsys):
        assert run_cli("radial", "--kernel", "t", "--df", 4, "--n", 1, "--rmax", 3, "--steps", 3) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        f = tmp_path / "a.mat"
        write_matrix(np.eye(2), f)
        result = subprocess.run(
            [sys.executable, "-m", "arrayvariate.cli", "sample",
             "--factor", str(f), "--n", "2", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        (first, second) = parse_arrays(result.stdout)
        assert first.shape == (2,)
        assert second.shape == (2,)

    def test_unknown_command_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "arrayvariate.cli", "nonsense"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
