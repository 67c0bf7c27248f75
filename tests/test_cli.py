import argparse
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from arrayvariate import cli, linalg
from arrayvariate.array_core import parse_arrays, write_arrays
from arrayvariate.densities import Kernel, radial_pdf
from arrayvariate.linalg import write_matrix
from support import SCIPY_LINALG, dump_array, read_arrays, well_conditioned


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
        from arrayvariate import Kernel, KroneckerModel, RandomStream, sample_elliptical

        model = KroneckerModel(np.zeros((2, 2)), [np.eye(2), np.eye(2)], Kernel.normal())
        expected = sample_elliptical(model, 6, RandomStream(17))
        got = read_arrays(out)
        assert len(got) == 6
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)  # 17-digit output round-trips losslessly

    def test_zero_t_divisor_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # at df = 0.001 most chi-square divisors underflow to 0; RuntimeWarning
        # is an error under the suite's filter, so a warning fails this test too
        f, out = tmp_path / "a.mat", tmp_path / "draws.arr"
        write_matrix(np.eye(1), f)
        code = run_cli("sample", "--kernel", "t", "--df", 0.001, "--factor", f,
                       "--n", 2000, "--seed", 1, "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical error: t kernel with df 0.001: draw ")
        assert not out.exists()

    def test_singular_factor_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        write_matrix(np.zeros((2, 2)), bad)
        code = run_cli("sample", "--factor", bad, "--n", 1)
        assert code == 3
        assert "singular" in capsys.readouterr().err

    def test_subnormal_factor_exits_3(self, tmp_path):
        tiny, draws = tmp_path / "tiny.mat", tmp_path / "x.arr"
        write_matrix(1e-310 * np.eye(2), tiny)
        write_arrays([np.zeros(2)], draws)
        result = subprocess.run(
            [sys.executable, "-m", "arrayvariate.cli", "density", "--factor", str(tiny), "--input", str(draws)],
            capture_output=True, text=True,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("numerical error: mode 1:")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["sample", "density", "lstsq"])
    @pytest.mark.parametrize("factor", [
        pytest.param([[1e300, 1e300], [1e-300, 1.0]], id="huge-and-tiny"),
        pytest.param([[1e308, 1e308], [1e308, -1e308]], id="overflowing-update"),
        pytest.param([[1e200, 0.0], [0.0, 1e200]], id="1e200-identity"),
    ])
    def test_extreme_factor_finite_or_exits_3(self, tmp_path, capsys, command, factor):
        # RuntimeWarning is an error under the suite's filter, so any warning fails here
        f, draws = tmp_path / "f.mat", tmp_path / "x.arr"
        write_matrix(np.array(factor), f)
        write_arrays([np.ones(2)], draws)
        extra = {"sample": ["--n", 3], "density": ["--input", draws], "lstsq": ["--input", draws]}[command]
        code = run_cli(command, "--factor", f, *extra)
        captured = capsys.readouterr()
        assert code in (0, 3)
        if code == 3:
            assert captured.out == ""
            assert captured.err.startswith("numerical error: mode 1:")
        else:
            values = (np.array(captured.out.split(), float) if command == "density"
                      else np.concatenate([x.ravel() for x in parse_arrays(captured.out)]))
            assert values.size and np.isfinite(values).all()

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

    def test_shape_mismatch_index_counts_every_earlier_run_and_file(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        first, second = tmp_path / "a.arr", tmp_path / "b.arr"
        write_arrays([np.zeros((2, 2))] * 3 + [np.zeros(4)] * 2 + [np.zeros((2, 2))] * 2, first)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", first) == 2
        assert capsys.readouterr().err.splitlines()[0] == \
            "error: array 4: shape (4,) does not match model shape (2, 2)"
        write_arrays([np.zeros((2, 2))] * 4 + [np.zeros((1, 4))], second)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", second, "--input", second) == 2
        assert capsys.readouterr().err.splitlines()[0] == \
            "error: array 5: shape (1, 4) does not match model shape (2, 2)"
        write_arrays([np.zeros((2, 2))] * 6, second)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", second, "--input", first) == 2
        assert capsys.readouterr().err.splitlines()[0] == \
            "error: array 10: shape (4,) does not match model shape (2, 2)"

    def test_runs_and_files_evaluated_in_order(self, tmp_path, capsys):
        from arrayvariate.densities import Kernel, KroneckerModel, logpdf_elliptical_rvecs

        gen = np.random.default_rng(303)
        f1, f2 = tmp_path / "a1.mat", tmp_path / "a2.mat"
        write_matrix(well_conditioned(gen, 2), f1)
        write_matrix(well_conditioned(gen, 3), f2)
        rows = gen.standard_normal((40, 6))
        one, two = tmp_path / "one.arr", tmp_path / "two.arr"
        write_arrays([r.reshape((2, 3), order="F") for r in rows[:25]], one)
        # dims lines spelled two ways: the reader's run steps break, its block does not
        text = "".join(dump_array(r.reshape((2, 3), order="F")) + "\n" for r in rows[25:])
        two.write_text(text.replace("\nARRV1\ndims 2 3\n", "\nARRV1\ndims 2  3\n", 3))
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", one, "--input", two) == 0
        values = np.array(capsys.readouterr().out.split(), float)
        model = KroneckerModel(np.zeros((2, 3)), [linalg.read_matrix(f1), linalg.read_matrix(f2)], Kernel.normal())
        np.testing.assert_array_equal(values, logpdf_elliptical_rvecs(model, rows))

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

    def test_t_small_df_radial_check_passes(self, tmp_path, capsys):
        # x = t/(t+df) rounds to 1 in the upper tail at df 0.2; the CDF keeps that tail
        f = tmp_path / "one.mat"
        write_matrix(np.eye(1), f)
        assert run_cli("verify", "--kernel", "t", "--df", 0.2, "--factor", f,
                       "--n", 10_000, "--seed", 1) == 0
        records = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [(r[0], r[5]) for r in records] == [("normalization-t0.2-1", "pass"), ("radial-t0.2-m1", "pass")]

    def test_t5_2x3_prints_pass_records(self, tmp_path, capsys):
        gen = np.random.default_rng(306)
        paths = [tmp_path / "a1.mat", tmp_path / "a2.mat"]
        for path, d in zip(paths, (2, 3)):
            write_matrix(well_conditioned(gen, d), path)
        assert run_cli("verify", "--kernel", "t", "--df", 5, "--factor", paths[0], "--factor", paths[1],
                       "--n", 20_000, "--seed", 1) == 0
        records = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [(r[0], r[5]) for r in records] == [
            ("normalization-t5-2x3", "pass"), ("covariance-t5-2x3", "pass"), ("radial-t5-m6", "pass")]

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
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", 1, "--steps", 10**400) == 2
        assert capsys.readouterr().out == ""

    def test_t_kernel_grid(self, capsys):
        assert run_cli("radial", "--kernel", "t", "--df", 4, "--n", 1, "--rmax", 3, "--steps", 3) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("kernel, n, rmax", [
        (["--kernel", "t", "--df", "5"], 6, 10.0),
        (["--kernel", "normal"], 512, 40.0),
        (["--kernel", "normal"], 1, 3.0),
        (["--kernel", "cauchy"], 1, 50.0),
        (["--kernel", "t", "--df", "1e15"], 4, 7.0),
    ])
    def test_table_equals_per_point_values(self, capsys, kernel, n, rmax):
        # the table is one vectorized radial_pdf call; each line must carry the scalar call's value
        steps = 200
        assert run_cli("radial", *kernel, "--n", n, "--rmax", rmax, "--steps", steps) == 0
        k = Kernel.from_name(kernel[1], float(kernel[3]) if len(kernel) > 2 else None)
        expected = "".join(
            f"{r:.17g} {radial_pdf(k, r, n):.17g}\n" for r in (rmax * j / steps for j in range(steps + 1))
        )
        assert capsys.readouterr().out == expected


class TestParserReuse:
    """main() builds its parser on the first call and reuses it; every call
    still starts from the parser's defaults."""

    def test_factor_list_is_not_shared_between_calls(self, tmp_path, model_files, capsys):
        f1, f2, _ = model_files
        draws = tmp_path / "draws.arr"
        write_arrays([np.zeros((2, 2))], draws)
        assert run_cli("density", "--factor", f1, "--factor", f2, "--input", draws) == 0
        capsys.readouterr()
        assert run_cli("density", "--input", draws) == 2
        assert "error: at least one --factor file is required" in capsys.readouterr().err

    def test_df_does_not_carry_into_the_next_call(self, model_files, capsys):
        f1, f2, _ = model_files
        model = ["--factor", f1, "--factor", f2, "--n", 1]
        assert run_cli("sample", "--kernel", "t", "--df", 5, *model) == 0
        assert run_cli("sample", *model) == 0  # a carried --df would be rejected with the normal kernel
        capsys.readouterr()
        assert run_cli("sample", "--kernel", "t", *model) == 2
        assert "error: --kernel t requires --df" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["sample", "--help"], ["density", "--help"], ["lstsq", "--help"],
        ["verify", "--help"], ["radial", "--help"],
        [], ["nonsense"], ["sample"], ["radial", "--n", "x"], ["density", "--kernel", "gauss"],
    ])
    def test_help_and_usage_errors_match_a_fresh_parser(self, capsys, argv):
        def output(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        assert run_cli("radial", "--n", 2, "--rmax", 1, "--steps", 2) == 0
        capsys.readouterr()
        first, again = output(cli.main), output(cli.main)
        fresh = output(cli._parser.__wrapped__().parse_args)
        assert first == again == fresh
        assert fresh[1] or fresh[2]

    def test_many_calls_build_one_parser(self, monkeypatch, capsys):
        built = []  # prog of every parser built, the subcommand parsers included
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        try:
            assert run_cli("radial", "--n", 2, "--rmax", 1, "--steps", 2) == 0
            one_build = len(built)
            for _ in range(9):
                assert run_cli("radial", "--n", 2, "--rmax", 1, "--steps", 2) == 0
        finally:
            cli._parser.cache_clear()  # later calls build with the real constructor again
        assert built.count("arrayvariate") == 1
        assert len(built) == one_build > 1


class TestGoldenBytes:
    """CLI output bytes against SHA-256 digests recorded with the per-value
    ARRV1/MATV1 writer and per-token reader (tests/support.py keeps both), on
    inputs the test writes from a fixed seed."""

    # case -> (kernel flags, shape, sample --n, {command: digest})
    GOLDEN = {
        # lstsq (both cases) and the normal-8x8x8 density were re-pinned when
        # arrayvariate.linalg moved from scipy.linalg to numpy.linalg, whose
        # LAPACK build rounds differently; test_numpy_values_match_scipy_path
        # bounds the moved values against the scipy path.  sample and density
        # (both cases) were re-pinned when draws became M + K (z / d) with the
        # divisors drawn first: normal draws moved by rounding (no norm round
        # trip), t draws moved because the stream order changed;
        # tests/test_tiles.py bounds the normal draws against the old formula
        "t5-2x3": (["--kernel", "t", "--df", "5"], (2, 3), 400, {
            "sample": "012c2bd0fe03c097e7e362db8f9cee782296fe44bcc10bb159b1827901f9ad19",
            "density": "97e7b2e264ee5f17c7708b15f451e7d6ead07f367a8fd3e3a7ec224148334864",
            "lstsq": "5f26240cfa37dc39668f3b83619b3e551a7c2702395b97cb9e370616e90e61c2",
        }),
        "normal-8x8x8": (["--kernel", "normal"], (8, 8, 8), 20, {
            "sample": "f894baae0182a740d2d7d9bfd78470518e2d4f9614924bfdbe4f3da92c5b8670",
            "density": "520cda2e7b14ef64d1c0eeb181006be13f03f94f9cea2d43e9763b819b50f235",
            "lstsq": "43e30fa5b516e1561ceb93626bfe0920ad37f97231d0ea66600679fe765d9a63",
        }),
    }

    @staticmethod
    def outputs(tmp_path, kernel, shape, n):
        gen = np.random.default_rng(20240)
        factors, maps = [], []
        for j, d in enumerate(shape, start=1):
            factors += ["--factor", tmp_path / f"a{j}.mat"]
            write_matrix(well_conditioned(gen, d), factors[-1])
            maps += ["--factor", tmp_path / f"map{j}.mat"]
            write_matrix(well_conditioned(gen, d + 1, d), maps[-1])
        mean, observed = tmp_path / "mean.arr", tmp_path / "observed.arr"
        write_arrays([gen.standard_normal(shape)], mean)
        write_arrays([gen.standard_normal(tuple(d + 1 for d in shape))], observed)
        out = {name: tmp_path / f"{name}.out" for name in ("sample", "density", "lstsq")}
        model = [*kernel, *factors, "--mean", mean]
        assert run_cli("sample", *model, "--n", n, "--seed", 99, "--out", out["sample"]) == 0
        assert run_cli("density", *model, "--input", out["sample"], "--out", out["density"]) == 0
        assert run_cli("lstsq", *maps, "--input", observed, "--out", out["lstsq"]) == 0
        return {name: path.read_bytes() for name, path in out.items()}

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_outputs_match_recorded_digests(self, tmp_path, case):
        kernel, shape, n, digests = self.GOLDEN[case]
        outputs = self.outputs(tmp_path, kernel, shape, n)
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == digests

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_numpy_values_match_scipy_path(self, tmp_path, monkeypatch, case):
        kernel, shape, n, _ = self.GOLDEN[case]
        (tmp_path / "numpy").mkdir()
        (tmp_path / "scipy").mkdir()
        got = self.outputs(tmp_path / "numpy", kernel, shape, n)
        for name, f in SCIPY_LINALG.items():
            monkeypatch.setattr(linalg, name, f)
        ref = self.outputs(tmp_path / "scipy", kernel, shape, n)
        assert got["sample"] == ref["sample"]
        density = [np.array(data.decode().split(), float) for data in (got["density"], ref["density"])]
        np.testing.assert_allclose(*density, rtol=1e-13, atol=0)
        # an estimate cell is a sum with cancellation, so its error is relative to the largest cell
        (estimate,), (expected,) = parse_arrays(got["lstsq"].decode()), parse_arrays(ref["lstsq"].decode())
        assert np.max(np.abs(estimate - expected)) <= 1e-13 * np.max(np.abs(expected))


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

    # Runs cli.main on each argv list in a fresh interpreter, then prints the
    # exit codes and the scipy modules loaded.
    SCIPY_PROBE = (
        "import json, sys\n"
        "from arrayvariate import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )

    def scipy_probe(self, *argvs):
        result = subprocess.run(
            [sys.executable, "-c", self.SCIPY_PROBE, json.dumps([[str(a) for a in argv] for argv in argvs])],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_import_leaves_scipy_stats_unloaded(self):
        # importing the CLI loads no scipy module at all, scipy.stats included
        assert self.scipy_probe() == [[], []]

    # Counts the ArgumentParser objects built by importing the CLI, then by one
    # main() call, in a fresh interpreter.
    PARSER_PROBE = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from arrayvariate import cli\n"
        "on_import = len(built)\n"
        "code = cli.main(['radial', '--n', '2', '--rmax', '1', '--steps', '2', '--out', sys.argv[1]])\n"
        "print(on_import, code, len(built))\n"
    )

    def test_import_builds_no_parser(self, tmp_path):
        # the parser is built by the first main() call, so a cold start does not pay for it
        result = subprocess.run(
            [sys.executable, "-c", self.PARSER_PROBE, str(tmp_path / "radial.txt")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        on_import, code, after_main = map(int, result.stdout.split())
        assert on_import == 0
        assert code == 0
        assert after_main > 0

    def test_normal_sample_density_and_lstsq_load_no_scipy(self, tmp_path, model_files):
        f1, f2, mean = model_files
        draws, observed = tmp_path / "draws.arr", tmp_path / "observed.arr"
        write_arrays([np.arange(4.0).reshape(2, 2)], observed)
        model = ["--factor", f1, "--factor", f2, "--mean", mean]
        codes, loaded = self.scipy_probe(
            ["sample", *model, "--n", 50, "--seed", 3, "--out", draws],
            ["density", *model, "--input", draws, "--out", tmp_path / "density.txt"],
            ["lstsq", "--factor", f1, "--factor", f2, "--input", observed, "--out", tmp_path / "estimate.arr"],
        )
        assert codes == [0, 0, 0]
        assert loaded == []
        assert len((tmp_path / "density.txt").read_text().split()) == 50

    def test_t_density_loads_scipy_special(self, tmp_path, model_files):
        f1, f2, mean = model_files
        draws = tmp_path / "draws.arr"
        model = ["--kernel", "t", "--df", 5, "--factor", f1, "--factor", f2, "--mean", mean]
        codes, loaded = self.scipy_probe(
            ["sample", *model, "--n", 5, "--seed", 3, "--out", draws],
            ["density", *model, "--input", draws, "--out", tmp_path / "density.txt"],
        )
        assert codes == [0, 0]
        assert "scipy.special" in loaded
        assert "scipy.stats" not in loaded
        assert len((tmp_path / "density.txt").read_text().split()) == 5

    def test_arithmetic_error_exits_3(self, monkeypatch, capsys):
        def overflow(kernel, r, k):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "radial_pdf", overflow)
        assert run_cli("radial", "--kernel", "normal", "--n", 2, "--rmax", 1, "--steps", 2) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical error: math range error" in captured.err

    def test_unknown_command_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "arrayvariate.cli", "nonsense"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
