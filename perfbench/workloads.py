"""Workload definitions and the input generator.

Each workload is one shape regime of the arrayvariate shape grid. The
generator turns a workload name and a seed into the MATV1/ARRV1 files the CLI
reads and the in-memory arrays the library calls take; the program under test
sees nothing else. The same (workload, seed) always yields the same inputs.

Run on its own to inspect a workload's inputs::

    python3 perfbench/workloads.py --workload small --seed 1 --out inputs/
"""

import argparse
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# verify's checks are hypothesis tests with a designed false-failure rate
# (radial KS at alpha=0.01, normalization at 3 sigma). Their outcome depends
# on the verify seed and not on the factors (the radii and the importance
# weights are invariant under the model's per-mode maps), so a per-run verify
# seed would make more than one run in a hundred fail by design. The verify seed is
# therefore fixed; the factors, the mean and every other seed follow --seed.
VERIFY_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: tuple
    kernel: str  # normal or t
    df: float | None
    cli_n: int  # CLI sample --n; CLI density reads those draws back
    lib_n: int  # library sample_elliptical_rvecs / logpdf_elliptical_rvecs
    lstsq_out: tuple  # rows of the lstsq mode maps; columns are `shape`
    verify_n: int | None  # CLI verify --n; None: verify is not part of the workload
    radial: tuple | None  # CLI radial (--n, --rmax, --steps), or None
    # runs per pass of the ops that take milliseconds, so that their medians
    # rest on enough samples; every other op runs once per pass
    reps: dict = field(default_factory=dict)
    # op -> calibration kernel whose speed its timings are scaled by (see
    # run.py): "python" (interpreted and other compute-bound work) or "numpy"
    # (memory-bound array work). Chosen per op as the one that gave the
    # smallest run-to-run spread of the op's median on sets of runs of each
    # workload; see the README.
    speed_kernel: dict = field(default_factory=dict)
    # ops that fail at the commit the benchmark was written against, from a
    # known defect. They run once per run, after the warm-up pass and outside
    # the timed passes, and their outcome goes to the report's `known_defects`;
    # they are not in `attempted` or `failed`, so that every counted operation
    # succeeds and the result line is the same from run to run.
    defect_probes: tuple = ()

    @property
    def m(self) -> int:
        return math.prod(self.shape)

    def ops(self) -> list:
        """Operations of one pass, in the order they run."""
        ops = ["cli_sample", "cli_density", "cli_lstsq"]
        if self.verify_n is not None:
            ops.append("cli_verify")
        if self.radial is not None:
            ops.append("cli_radial")
        return [op for op in ops + ["lib_sample", "lib_density"] if op not in self.defect_probes]


WORKLOADS = {
    w.name: w
    for w in (
        # Paper scale with many tiny arrays. Per-call Python overhead
        # dominates: the per-array logpdf loop in `cmd_density`, per-line
        # %.17g formatting, and the quadrature in `verify`; the per-mode apply
        # does almost nothing.
        Workload(
            name="small",
            why="2x3 Student t, thousands of tiny arrays: per-call Python overhead, text I/O and verify quadrature dominate",
            shape=(2, 3), kernel="t", df=5.0,
            cli_n=5_000, lib_n=20_000, lstsq_out=(3, 4),
            verify_n=20_000, radial=(6, 30.0, 2000),
            reps={"cli_lstsq": 20, "cli_radial": 3, "lib_sample": 20, "lib_density": 50},
            speed_kernel={"cli_sample": "python", "cli_density": "python", "cli_lstsq": "python",
                          "cli_verify": "python", "cli_radial": "python",
                          "lib_sample": "numpy", "lib_density": "numpy"},
        ),
        # The batched per-mode apply and the RNG do most of the work. The CLI
        # sample/density/lstsq runs are kept small so ARRV1 text stays a minor
        # share. Also probes the m=512 cases once per run: at the commit the
        # benchmark was written against `verify` raises OverflowError and 1800
        # of the 2001 `radial` values are non-finite.
        Workload(
            name="deep",
            why="8x8x8 normal, 10k library draws: batched per-mode apply and RNG dominate; the failing m=512 verify and radial are probed once, uncounted",
            shape=(8, 8, 8), kernel="normal", df=None,
            cli_n=200, lib_n=10_000, lstsq_out=(12, 10, 9),
            verify_n=10_000, radial=(512, 40.0, 2000),
            reps={"cli_lstsq": 20, "lib_sample": 3, "lib_density": 2},
            speed_kernel={"cli_sample": "python", "cli_density": "python", "cli_lstsq": "python",
                          "lib_sample": "numpy", "lib_density": "numpy"},
            defect_probes=("cli_verify", "cli_radial"),
        ),
        # Few huge arrays: ARRV1 text volume dominates the CLI operations
        # (about 8 MB per sample file). The n=200 library calls cover the
        # case where the batched path lost to the per-array loop, so a batched
        # engine that wins on `deep` but loses here shows.
        Workload(
            name="wide",
            why="32x32x16 normal, tens of huge arrays: ARRV1 text volume dominates; batched library path at small n",
            shape=(32, 32, 16), kernel="normal", df=None,
            cli_n=25, lib_n=200, lstsq_out=(40, 40, 20),
            verify_n=None, radial=None,
            reps={"cli_lstsq": 3, "lib_sample": 3, "lib_density": 5},
            speed_kernel={"cli_sample": "python", "cli_density": "python", "cli_lstsq": "python",
                          "lib_sample": "numpy", "lib_density": "numpy"},
        ),
    )
}


# --- writers for the two text formats, independent of arrayvariate --------

def _fmt(v) -> str:
    return f"{float(v):.17g}"


def matv1_text(a) -> str:
    rows = "\n".join(" ".join(_fmt(v) for v in row) for row in a)
    return f"MATV1\ndims {a.shape[0]} {a.shape[1]}\n{rows}\n"


def arrv1_text(x) -> str:
    v = x.reshape(-1, order="F")
    m1 = x.shape[0]
    body = "\n".join(" ".join(_fmt(t) for t in v[i:i + m1]) for i in range(0, v.size, m1))
    return "ARRV1\ndims " + " ".join(str(d) for d in x.shape) + "\n" + body + "\n"


def well_conditioned(rng, rows, cols):
    """rows x cols matrix with singular values in [0.6, 1.6]."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    return (u * rng.uniform(0.6, 1.6, size=cols)) @ v.T


def apply_modes(maps, x):
    """Apply one matrix per mode of `x` (the oracle's own per-mode product)."""
    for j, a in enumerate(maps):
        x = np.moveaxis(np.tensordot(a, x, axes=(1, j)), 0, j)
    return x


@dataclass
class Inputs:
    """Everything one run of a workload feeds the program, plus the planted truth."""

    workload: Workload
    factors: list
    mean: np.ndarray
    planted: np.ndarray
    cli_seed: int
    lib_seed: int
    files: dict  # role -> path (factor1.., mean, map1.., observed, planted)


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Draw a workload's inputs from `seed` and write the CLI's files to `out_dir`."""
    rng = np.random.default_rng(seed)
    shape = workload.shape
    factors = [well_conditioned(rng, d, d) for d in shape]
    mean = 0.5 * rng.standard_normal(shape)
    maps = [well_conditioned(rng, q, d) for q, d in zip(workload.lstsq_out, shape)]
    planted = rng.standard_normal(shape)
    observed = apply_modes(maps, planted)
    cli_seed, lib_seed = (int(s) for s in rng.integers(0, 2**31, size=2))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}

    def write(role, text):
        path = out_dir / role
        path.write_text(text)
        files[role] = path

    for j, a in enumerate(factors, start=1):
        write(f"factor{j}.mat", matv1_text(a))
    write("mean.arr", arrv1_text(mean))
    for j, a in enumerate(maps, start=1):
        write(f"map{j}.mat", matv1_text(a))
    write("observed.arr", arrv1_text(observed))
    write("planted.arr", arrv1_text(planted))
    return Inputs(workload, factors, mean, planted, cli_seed, lib_seed, files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for the generated files")
    args = parser.parse_args(argv)
    inputs = generate(WORKLOADS[args.workload], args.seed, args.out)
    for role, path in inputs.files.items():
        print(f"{role}\t{path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
