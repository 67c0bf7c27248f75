"""Command-line surface over sampling, density evaluation, least squares and
Monte Carlo verification.

Factor matrices travel as MATV1 files (repeated ``--factor`` flags, one per
mode, in mode order); arrays as ARRV1 files.  Every command is a pure
function of its arguments, input files and seed, so identical invocations
produce byte-identical outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or format error,
3 numerical error (singular factor, rank-deficient mode, arithmetic overflow).

Examples::

    arrayvariate sample --factor a1.mat --factor a2.mat --n 100 --seed 7 --out draws.arr
    arrayvariate density --kernel t --df 4 --factor a1.mat --factor a2.mat --input draws.arr
    arrayvariate lstsq --factor map1.mat --factor map2.mat --input observed.arr
    arrayvariate verify --factor a1.mat --n 100000 --seed 1
    arrayvariate radial --kernel normal --n 2 --rmax 5 --steps 100
"""

import argparse
import contextlib
import functools
import math
import sys

import numpy as np

from .array_core import FLOAT_FORMAT, dump_arrays, read_array, read_records, unrvec, write_records
from .densities import Kernel, KroneckerModel, logpdf_elliptical_rvecs, radial_pdf
from .errors import FormatError
from .linalg import read_matrix
from .multilinear import multilinear_lstsq
from .sampling import RandomStream, sample_elliptical_rvecs
from .verify import run_suite, skipped_checks

VERIFY_MIN_SAMPLES = 10_000


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _output(out_path):
    """The write function of ``--out``, or of stdout when it is not given."""
    if out_path is None:
        yield sys.stdout.write
    else:
        with open(out_path, "w", newline="\n") as fh:
            yield fh.write


def _build_kernel(args) -> Kernel:
    if args.kernel == "t":
        if args.df is None:
            raise UsageError("--kernel t requires --df")
    elif args.df is not None:
        raise UsageError(f"--df is only valid with --kernel t, not {args.kernel}")
    return Kernel.from_name(args.kernel, args.df)


def _build_model(args) -> KroneckerModel:
    if not args.factor:
        raise UsageError("at least one --factor file is required")
    factors = [read_matrix(p) for p in args.factor]
    for j, f in enumerate(factors, start=1):
        if f.shape[0] != f.shape[1]:
            raise UsageError(f"mode {j}: factor file {args.factor[j - 1]} is not square")
    shape = tuple(f.shape[0] for f in factors)
    if args.mean is not None:
        mean = read_array(args.mean)
        if mean.shape != shape:
            raise UsageError(
                f"mean file {args.mean} has shape {mean.shape}, factors imply {shape}"
            )
    else:
        mean = unrvec(np.zeros(int(np.prod(shape))), shape)
    return KroneckerModel(mean, factors, _build_kernel(args))


def cmd_sample(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    model = _build_model(args)
    rows = sample_elliptical_rvecs(model, args.n, RandomStream(args.seed))
    with _output(args.out) as write:
        write_records("ARRV1", model.shape, rows, model.shape[0], write)
    return 0


def cmd_density(args) -> int:
    model = _build_model(args)
    # a run of same-shape ARRV1 records is a block of rvec'd arrays, one per row
    runs = [run for path in args.input for run in read_records(path, "ARRV1")]
    count = 0
    for dims, block in runs:
        if dims != model.shape:
            raise UsageError(f"array {count + 1}: shape {dims} does not match model shape {model.shape}")
        count += len(block)
    rows = runs[0][1] if len(runs) == 1 else np.concatenate([block for _, block in runs] or [np.empty((0, model.m))])
    values = logpdf_elliptical_rvecs(model, rows)
    with _output(args.out) as write:
        write(f"{FLOAT_FORMAT}\n" * values.size % tuple(values.tolist()))
    return 0


def cmd_lstsq(args) -> int:
    if not args.factor:
        raise UsageError("at least one --factor file is required")
    if len(args.input) != 1:
        raise UsageError("lstsq takes exactly one --input array file")
    maps = [read_matrix(p) for p in args.factor]
    observed = read_array(args.input[0])
    estimate = multilinear_lstsq(maps, observed)
    with _output(args.out) as write:
        write(dump_arrays([estimate]))
    return 0


def cmd_verify(args) -> int:
    if args.n < VERIFY_MIN_SAMPLES:
        raise UsageError(f"--n must be at least {VERIFY_MIN_SAMPLES} for verification")
    model = _build_model(args)
    for name, reason in skipped_checks(model).items():
        print(f"note: skipped {name}: {reason}", file=sys.stderr)
    reports = run_suite(model, args.n, RandomStream(args.seed))
    with _output(args.out) as write:
        write("".join(r.line() + "\n" for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_radial(args) -> int:
    if args.rmax is None or args.steps is None:
        raise UsageError("radial requires --rmax and --steps")
    if not (math.isfinite(args.rmax) and args.rmax > 0):
        raise UsageError(f"--rmax must be finite and > 0, got {args.rmax:g}")
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if args.steps > sys.float_info.max or not math.isfinite(args.rmax * args.steps):
        # the grid point rmax * j / steps would overflow before the division
        raise UsageError(f"--rmax times --steps must be finite, got {args.rmax:g} * {args.steps}")
    if args.n < 1:
        raise UsageError("--n (the dimension of the radial law) must be >= 1")
    kernel = _build_kernel(args)
    grid = args.rmax * np.arange(args.steps + 1) / args.steps
    table = np.column_stack((grid, radial_pdf(kernel, grid, args.n)))
    with _output(args.out) as write:
        write(f"{FLOAT_FORMAT} {FLOAT_FORMAT}\n" * len(grid) % tuple(table.ravel().tolist()))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused by every later
    # call in the process: parse_args leaves the parser unchanged, and an
    # append flag's default list is copied before it is appended to.
    parser = argparse.ArgumentParser(
        prog="arrayvariate",
        description="Sample, evaluate and verify multiway distributions with Kronecker-structured covariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model=True):
        p.add_argument("--kernel", choices=("normal", "t", "cauchy"), default="normal",
                       help="spherical kernel family (default: normal)")
        p.add_argument("--df", type=float, default=None, help="degrees of freedom; required iff --kernel t")
        if needs_model:
            p.add_argument("--factor", action="append", default=[], metavar="PATH",
                           help="MATV1 factor file, one per mode, in mode order")
            p.add_argument("--mean", default=None, metavar="PATH",
                           help="ARRV1 location array (default: zero array of the implied shape)")
        p.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")

    p = sub.add_parser("sample", help="draw arrays from a model")
    common(p)
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("density", help="log-density of each input array under a model")
    common(p)
    p.add_argument("--input", action="append", required=True, metavar="PATH",
                   help="ARRV1 file of arrays to evaluate (repeatable)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("lstsq", help="multilinear least-squares recovery")
    p.add_argument("--factor", action="append", default=[], metavar="PATH",
                   help="MATV1 mode map, one per mode, in mode order (may be rectangular)")
    p.add_argument("--input", action="append", required=True, metavar="PATH",
                   help="ARRV1 file holding the observed array")
    p.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")
    p.set_defaults(func=cmd_lstsq)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite for a model")
    common(p)
    p.add_argument("--n", type=int, default=100_000,
                   help=f"samples per check (min {VERIFY_MIN_SAMPLES}, default 100000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radial", help="tabulate the radial density on a grid")
    common(p, needs_model=False)
    p.add_argument("--n", type=int, required=True, help="dimension of the underlying vector law")
    p.add_argument("--rmax", type=float, required=True, help="grid upper end")
    p.add_argument("--steps", type=int, required=True, help="number of grid intervals")
    p.set_defaults(func=cmd_radial)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'arrayvariate {args.command} --help' for usage", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # SingularMatrixError among them
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
