"""End-to-end and per-layer benchmark of the arrayvariate CLI and batched library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small --seed 1 --seconds 36 --trace 0

One run generates the workload's inputs from --seed, runs one warm-up pass of
the workload's operations, then runs timed passes until --seconds have
passed, with cold imports of `arrayvariate.cli` timed between them. Every
operation's output is checked against perfbench/oracles.py. Timings are scaled
to a reference machine speed (see "Machine-speed calibration" below). With --trace 0 the result holds the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and holds the per-layer metrics. The last stdout line is the JSON result; a
fuller report (environment, raw and scaled per-operation timings with sample
counts, failures) goes to .bench_out/ together with the spans of the first
traced pass.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pin BLAS threads before numpy loads OpenBLAS, the same count on every run.
# One thread: the per-mode apply calls are small, and on a 2-core machine a
# second thread made them no faster but widened their run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import VERIFY_SEED, WORKLOADS, generate  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 6  # cold imports per run, spread over the run between timed passes
# Calibration kernel that setup_s is scaled by. Cold imports tracked neither
# kernel closely; over the tuning runs the python kernel gave the smaller
# run-to-run spread on average, and both beat leaving them unscaled.
SETUP_KERNEL = "python"
MIN_PASSES = 3  # timed passes per run, even when --seconds is short
MIN_TRACED_PASSES = 2  # of each kind with --trace 1
SRC = ROOT / "src"

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "sample_arrays_per_s": ("arrays/s", "higher"),
    "density_arrays_per_s": ("arrays/s", "higher"),
    "lib_sample_arrays_per_s": ("arrays/s", "higher"),
    "lib_density_arrays_per_s": ("arrays/s", "higher"),
    "lstsq_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok_fraction": ("fraction", "higher"),
}


def import_program():
    """Import arrayvariate from this checkout's src/, never from site-packages."""
    if not (SRC / "arrayvariate" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'arrayvariate'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import arrayvariate
    if SRC.resolve() not in Path(arrayvariate.__file__).resolve().parents:
        sys.exit(f"error: imported arrayvariate from {arrayvariate.__file__}, not from {SRC}")
    mods = {}
    for name in ("array_core", "cli", "densities", "kronecker", "linalg", "multilinear", "sampling", "verify"):
        try:
            mods[name] = importlib.import_module(f"arrayvariate.{name}")
        except ModuleNotFoundError as exc:
            # the operations call cli, densities and sampling; a module missing
            # elsewhere only leaves its trace boundaries absent
            if exc.name != f"arrayvariate.{name}" or name in ("cli", "densities", "sampling"):
                raise
    return mods


def cold_import_seconds():
    """Wall time of a fresh interpreter importing arrayvariate.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, arrayvariate.cli as c; "
            f"sys.exit(0 if c.__file__.startswith({str(SRC.resolve())!r}) else 3)")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=120,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"error: cold import failed ({done.returncode}): {done.stderr.strip()}")
    return seconds


def _openblas():
    """(config, thread count) of the OpenBLAS bundled with numpy, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def environment():
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas_config, blas_threads = _openblas()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Runs and checks the operations of one workload on generated inputs."""

    def __init__(self, workload, inputs, mods, work):
        self.w = workload
        self.inputs = inputs
        self.mods = mods
        self.work = work
        self.ref = oracles.Reference(inputs)
        self.tracer = None
        files = inputs.files
        kernel = ["--kernel", workload.kernel] + (["--df", f"{workload.df:g}"] if workload.df else [])
        factors = [a for j in range(1, len(workload.shape) + 1) for a in ("--factor", str(files[f"factor{j}.mat"]))]
        self.model_args = kernel + factors + ["--mean", str(files["mean.arr"])]
        self.kernel_args = kernel
        d = mods["densities"]
        kernel_obj = d.Kernel.normal() if workload.kernel == "normal" else d.Kernel.student_t(workload.df)
        self.model = d.KroneckerModel(inputs.mean, inputs.factors, kernel_obj)
        self.first_outputs = {}  # op -> digest of its output in the first pass
        self.verdicts = {}  # digest of (op, outputs) -> None or the failure reason

    def path(self, name):
        return self.work / name

    def cli(self, argv):
        main = self.mods["cli"].main
        argv = [str(a) for a in argv]
        if self.tracer is not None:
            return self.tracer.call("cli.main", main, (argv,), {})
        return main(argv)

    # Each op runs the program and returns a check closure, called after the
    # pass so that neither the checks nor their memory fall into the timings.
    # The oracles are deterministic in the bytes they read, so each distinct
    # output is checked once and its verdict reused for identical outputs.

    def op_cli_sample(self, rep):
        out = self.path("sample.arr")
        code = self.cli(["sample", *self.model_args, "--n", self.w.cli_n,
                         "--seed", self.inputs.cli_seed, "--out", out])

        def check():
            self._check_code("sample", code)
            data = out.read_bytes()
            self._check_same("cli_sample", data)
            self._verdict("cli_sample", [data], lambda: self.ref.check_draws(
                oracles.parse_arrv1(data.decode(), self.w.shape), self.w.cli_n))
        return check

    def op_cli_density(self, rep):
        draws, out = self.path("sample.arr"), self.path("density.txt")
        code = self.cli(["density", *self.model_args, "--input", draws, "--out", out])

        def check():
            self._check_code("density", code)
            data, text = draws.read_bytes(), out.read_text()
            self._verdict("cli_density", [data, text.encode()], lambda: self.ref.check_logpdf(
                oracles.parse_arrv1(data.decode(), self.w.shape), oracles.parse_numbers(text)))
        return check

    def op_cli_lstsq(self, rep):
        out = self.path(f"lstsq-{rep}.arr")
        maps = [a for j in range(1, len(self.w.shape) + 1) for a in ("--factor", self.inputs.files[f"map{j}.mat"])]
        code = self.cli(["lstsq", *maps, "--input", self.inputs.files["observed.arr"], "--out", out])

        def check():
            self._check_code("lstsq", code)
            text = out.read_text()
            self._verdict("cli_lstsq", [text.encode()], lambda: self.ref.check_lstsq(text))
        return check

    def op_cli_verify(self, rep):
        out = self.path(f"verify-{rep}.txt")
        code = self.cli(["verify", *self.model_args, "--n", self.w.verify_n,
                         "--seed", VERIFY_SEED, "--out", out])

        def check():
            self.ref.check_verify(code, out.read_text() if out.exists() else "")
        return check

    def op_cli_radial(self, rep):
        k, rmax, steps = self.w.radial
        out = self.path(f"radial-{rep}.txt")
        code = self.cli(["radial", *self.kernel_args, "--n", k, "--rmax", f"{rmax:g}",
                         "--steps", steps, "--out", out])

        def check():
            self._check_code("radial", code)
            text = out.read_text()
            self._verdict("cli_radial", [text.encode()], lambda: oracles.check_radial(
                text, self.w.kernel, self.w.df, k, rmax, steps))
        return check

    def op_lib_sample(self, rep):
        s = self.mods["sampling"]
        rows = s.sample_elliptical_rvecs(self.model, self.w.lib_n, s.RandomStream(self.inputs.lib_seed))
        self.lib_rows = rows

        def check():
            data = np.ascontiguousarray(rows).tobytes()
            self._check_same("lib_sample", data)
            self._verdict("lib_sample", [data], lambda: self.ref.check_draws(rows, self.w.lib_n))
        return check

    def op_lib_density(self, rep):
        rows = self.lib_rows
        if rows is None:
            raise RuntimeError("no library draws to evaluate")
        values = self.mods["densities"].logpdf_elliptical_rvecs(self.model, rows)

        def check():
            data = [np.ascontiguousarray(rows).tobytes(), np.asarray(values, dtype=float).tobytes()]
            self._verdict("lib_density", data, lambda: self.ref.check_logpdf(rows, values))
        return check

    def probe(self, op):
        """Run and check `op` once outside the timed passes; the failure reason or None."""
        try:
            getattr(self, "op_" + op)(0)()
        except Exception as exc:  # the known defect, or its fix
            return f"{type(exc).__name__}: {exc}"
        return None

    def _check_code(self, command, code):
        if code != 0:
            raise oracles.CheckFailed(f"{command} exited with {code}")

    def _check_same(self, key, data):
        digest = hashlib.sha256(data).hexdigest()
        first = self.first_outputs.setdefault(key, digest)
        if digest != first:
            raise oracles.CheckFailed(f"{key}: output differs from the first pass under the same seed")

    def _verdict(self, op, chunks, full_check):
        """Run `full_check` on outputs not seen before; reuse the verdict otherwise."""
        digest = hashlib.sha256(op.encode())
        for chunk in chunks:
            digest.update(hashlib.sha256(chunk).digest())
        key = digest.hexdigest()
        if key not in self.verdicts:
            try:
                full_check()
                self.verdicts[key] = None
            except oracles.CheckFailed as exc:
                self.verdicts[key] = str(exc)
        if self.verdicts[key] is not None:
            raise oracles.CheckFailed(self.verdicts[key])

    def run_pass(self, tracer=None, reps=True, after_ops=None):
        """Run every op (`reps` times where given, if `reps`), call `after_ops`,
        then check the outputs.

        Returns (timings, failures, spans by op): timings is a list of
        [op, seconds, ok, python kernel seconds around the op's runs] and
        failures a list of (op, reason).
        """
        self.tracer = tracer
        self.lib_rows = None
        timings, checks, failures, op_spans = [], [], [], []
        # The interpreted speed changes within a pass, so each op's runs are
        # bracketed by the python kernel right before and after them.
        kernel_before = kernel_seconds("python", OP_CAL_REPEATS)
        try:
            for op in self.w.ops():
                fn = getattr(self, "op_" + op)
                first = len(timings)
                for rep in range(self.w.reps.get(op, 1) if reps else 1):
                    args = (rep,)
                    first_span = len(tracer.spans) if tracer else 0
                    t0 = time.perf_counter()
                    try:
                        if tracer is not None:
                            check = tracer.call("op." + op, fn, args, {})
                        else:
                            check = fn(*args)
                        ok = True
                    except Exception as exc:  # the op failed: record it and keep running
                        check, ok = None, False
                        failures.append((op, f"{type(exc).__name__}: {exc}"))
                    seconds = time.perf_counter() - t0
                    timings.append([op, seconds, ok, None])
                    checks.append((len(timings) - 1, op, check))
                    if tracer is not None:
                        op_spans.append((op, first_span, len(tracer.spans)))
                kernel_after = kernel_seconds("python", OP_CAL_REPEATS)
                for t in timings[first:]:
                    t[3] = (kernel_before + kernel_after) / 2
                kernel_before = kernel_after
        finally:
            self.tracer = None
        if after_ops is not None:
            after_ops()
        for index, op, check in checks:
            if check is None:
                continue
            try:
                check()
            except (oracles.CheckFailed, OSError, ValueError) as exc:
                timings[index][2] = False
                failures.append((op, f"check: {exc}"))
        self.lib_rows = None
        return timings, failures, op_spans


# Machine-speed calibration. On a shared machine the CPU runs at different
# speeds (interpreted code up to 75% slower for tens of seconds on the 2-core
# machine this was tuned on, and +-10% from one tenth of a second to the next;
# memory-bound numpy less), so raw timings of runs made a minute apart differ
# more than any useful bound. Two fixed kernels measure the speed: one of
# interpreted float formatting and parsing, as in the ARRV1 paths, and one
# per-mode tensordot over 16 MB, as in the library paths. The python kernel
# runs between the ops of a pass, 3 times, so each op's runs are bracketed
# closely; there it tracked the interpreted ops to a correlation of about 0.9.
# Both kernels run between passes and around each cold import. The numpy
# kernel brackets whole passes only: around single ops its own noise
# outweighed what it tracked. Each op is reported at the reference speed of
# the kernel named for it in its workload's `speed_kernel`:
#     reported seconds = measured seconds * reference seconds / kernel seconds
# The reference seconds are the kernels' typical times on the 2-core machine
# this was tuned on, so that both factors stay near 1 there and an op whose
# work changes kind is not shifted by the gap between the references. The
# report keeps the raw timings and the kernel times next to them.
CAL_REFERENCE_S = {"python": 0.003, "numpy": 0.02}
OP_CAL_REPEATS = 3  # python kernel runs between two ops
_CAL_VALUES = [math.sin(i) * 10.0 ** (i % 9 - 4) for i in range(1500)]
_CAL_FACTOR = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def _python_kernel():
    text = " ".join(f"{v:.17g}" for v in _CAL_VALUES)
    return math.fsum(float(t) for t in text.split())


@functools.cache
def _cal_block():
    return np.linspace(-1.0, 1.0, 64 * 32 * 1024).reshape(64, 32, 1024)


def _numpy_kernel():
    return float((np.moveaxis(np.tensordot(_CAL_FACTOR, _cal_block(), axes=(1, 1)), 0, 1) * 2.0)[0, 0, 0])


def kernel_seconds(name, repeats):
    """Median seconds of one calibration kernel right now."""
    kernel = {"python": _python_kernel, "numpy": _numpy_kernel}[name]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate():
    """Median seconds of each calibration kernel right now."""
    return {"python": kernel_seconds("python", 9), "numpy": kernel_seconds("numpy", 3)}


def speed(before, after):
    """Per kernel: reference seconds over the mean of the kernel seconds around
    a measurement."""
    return {k: CAL_REFERENCE_S[k] / ((before[k] + after[k]) / 2) for k in CAL_REFERENCE_S}


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    if len(values) < 2:
        return values * 2
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def op_stats(timings_by_pass):
    """Per op: median and quartile seconds over successful runs (over all runs
    when none succeeded), the count of successful runs, and attempts."""
    per_op = {}
    for timings in timings_by_pass:
        for op, seconds, ok, *_ in timings:
            entry = per_op.setdefault(op, {"ok": [], "all": []})
            entry["all"].append(seconds)
            if ok:
                entry["ok"].append(seconds)
    return {
        op: {"median_s": median(e["ok"] or e["all"]), "quartiles_s": quartiles(e["ok"] or e["all"]),
             "samples": len(e["ok"]), "attempted": len(e["all"]), "median_s_all_attempts": median(e["all"])}
        for op, e in per_op.items()
    }


def end_to_end(w, stats, pass_seconds, setup, peak_rss_mb, attempted, failed):
    def rate(op, n):
        return n / stats[op]["median_s"]

    values = {
        "setup_s": setup,
        "pass_s": median(pass_seconds),
        "sample_arrays_per_s": rate("cli_sample", w.cli_n),
        "density_arrays_per_s": rate("cli_density", w.cli_n),
        "lib_sample_arrays_per_s": rate("lib_sample", w.lib_n),
        "lib_density_arrays_per_s": rate("lib_density", w.lib_n),
        "lstsq_s": stats["cli_lstsq"]["median_s"],
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_fraction": (attempted - failed) / attempted,
    }
    # Reported for the workloads that run these commands. BENCHMARK.json
    # lists only metrics that every workload reports, and `wide` runs neither.
    extra = {}
    if "cli_verify" in stats:
        extra["verify_s"] = (stats["cli_verify"]["median_s_all_attempts"], "s")
    if "cli_radial" in stats:
        extra["radial_points_per_s"] = ((w.radial[2] + 1) / stats["cli_radial"]["median_s_all_attempts"], "1/s")
    extra["ops_failed"] = (failed / attempted, "fraction")
    return values, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description="arrayvariate end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    mods = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    try:
        inputs = generate(w, args.seed, work / "inputs")
        return measure(w, args, mods, inputs, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(w, args, mods, inputs, work, tag):
    runner = Runner(w, inputs, mods, work)
    # Peak RSS of one pass: the high-water mark right after the warm-up pass,
    # which runs each operation once, before any check or calibration allocates.
    rss = {}
    warm_timings, failures, _ = runner.run_pass(reps=False, after_ops=lambda: rss.setdefault(
        "mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    attempted = len(warm_timings)
    known_defects = {op: runner.probe(op) for op in w.defect_probes}

    setup_raw, setup, setup_kernel_s = [], [], []
    cal = calibrate()

    # --trace 1 alternates untraced and traced passes, so both see the same
    # machine state and their difference is the tracing overhead.
    min_passes = MIN_PASSES if not args.trace else MIN_TRACED_PASSES
    passes = {False: [], True: []}  # traced? -> timings of each pass, at the reference speed
    raw_passes, kernel_seconds = {False: [], True: []}, []
    layers, density_shares, first_spans, absent = [], [], None, []
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes[True]) < len(passes[False])
        pass_start = time.perf_counter()
        undo = None
        if traced:
            undo, absent = tracing.install(tracer, mods)
        try:
            timings, pass_failures, op_spans = runner.run_pass(tracer if traced else None)
        finally:
            if undo is not None:
                undo()
        before, cal = cal, calibrate()
        kernel_seconds.append({k: (before[k] + cal[k]) / 2 for k in before})
        factor = speed(before, cal)

        def op_factor(op, python_kernel_s):
            kernel = w.speed_kernel.get(op)
            return CAL_REFERENCE_S[kernel] / python_kernel_s if kernel == "python" else factor[kernel]

        if traced:
            spans = tracer.take()
            # each span is scaled by the factor of the op it ran in
            op_kernel_s = {t[0]: t[3] for t in timings}
            scale = [1.0] * len(spans)
            for op, a, b in op_spans:
                scale[a:b] = [op_factor(op, op_kernel_s[op])] * (b - a)
            layers.append(tracing.layer_metrics(spans, scale))
            density_shares += cli_density_shares(spans, op_spans)
            first_spans = spans if first_spans is None else first_spans
        raw_passes[traced].append(timings)
        passes[traced].append([[op, seconds * op_factor(op, k), ok] for op, seconds, ok, k in timings])
        attempted += len(timings)
        failures += pass_failures
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * (time.perf_counter() - t0) / args.seconds))
        while len(setup_raw) < due:
            # Cold imports are spread evenly over the run, so that they meet
            # the same machine states as the passes; the run's time covers both.
            # After a pass longer than --seconds / SETUP_REPEATS they catch up,
            # so that the run still ends after about --seconds.
            setup_raw.append(cold_import_seconds())
            before, cal = cal, calibrate()
            setup_kernel_s.append({k: (before[k] + cal[k]) / 2 for k in before})
            setup.append(setup_raw[-1] * speed(before, cal)[SETUP_KERNEL])
        now = time.perf_counter()
        enough = all(len(passes[kind]) >= min_passes for kind in ((False, True) if args.trace else (False,)))
        if enough and len(setup_raw) >= SETUP_REPEATS and now - t0 + (now - pass_start) > args.seconds:
            break

    untraced = op_stats(passes[False])
    pass_seconds = [sum(t[1] for t in timings) for timings in passes[False]]
    e2e, extra = end_to_end(w, untraced, pass_seconds, median(setup), rss["mb"], attempted, len(failures))
    raw = op_stats(raw_passes[False])
    raw_pass_seconds = [sum(t[1] for t in timings) for timings in raw_passes[False]]
    e2e_raw = end_to_end(w, raw, raw_pass_seconds, median(setup_raw), rss["mb"], attempted, len(failures))[0]

    report = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "blas_threads_pinned": BLAS_THREADS,
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True]), "warm_up": 1},
        "calibration": {"reference_s": CAL_REFERENCE_S, "speed_kernel": w.speed_kernel,
                        "setup_kernel": SETUP_KERNEL, "kernel_s_per_pass": kernel_seconds,
                        "kernel_s_per_setup": setup_kernel_s},
        "setup_raw_s": setup_raw,
        "raw_timings_per_pass": raw_passes[False],
        "ops": untraced,
        "ops_raw": raw,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()},
        "end_to_end_raw": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e_raw.items()},
        "informational": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted({f"{op}: {reason}" for op, reason in failures}),
        # op -> failure reason (None: the op now passes), outside attempted/failed
        "known_defects": known_defects,
    }
    if args.trace:
        report["per_layer"] = per_layer(passes, layers, density_shares, absent)
        spans_path = OUT_DIR / f"{tag}-spans.jsonl.gz"
        tracing.write_spans(spans_path, first_spans)
        report["spans_file"] = spans_path.name
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in report["per_layer"]["metrics"].items() if k not in tracing.REPORT_ONLY}
    else:
        metrics = report["end_to_end"]
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print_summary(report)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def cli_density_shares(spans, op_spans):
    """Share of each CLI density run spent in ARRV1 parse, logpdf self time and per-mode apply."""
    shares = []
    for op, a, b in op_spans:
        if op == "cli_density" and b > a:
            sub = [[s[0], s[1], s[2], s[3] - a if s[3] >= a else -1, s[4], s[5]] for s in spans[a:b]]
            m = tracing.layer_metrics(sub)
            part = m["array_core.parse_s"] + m["densities.logpdf_s"] + m["multilinear.apply_s"]
            shares.append(part / (sub[0][2] - sub[0][1]))
    return shares


def per_layer(passes, layers, density_shares, absent):
    """Median over traced passes of each per-layer metric, plus the tracing overhead."""
    values = {name: median([p[name] for p in layers]) for name in layers[0]}
    pass_time = {traced: median([sum(t[1] for t in timings) for timings in passes[traced]])
                 for traced in (False, True)}
    values["trace.overhead_frac"] = pass_time[True] / pass_time[False] - 1.0
    values["trace.absent_boundaries"] = len(absent)
    untraced, traced = op_stats(passes[False]), op_stats(passes[True])
    return {
        "metrics": {name: {"value": values[name], "unit": unit, "source": source}
                    for name, (unit, _, source) in tracing.LAYER_METRICS.items()},
        "tracing_overhead_by_op": {
            op: traced[op]["median_s"] / untraced[op]["median_s"] - 1.0 for op in untraced if op in traced
        },
        "cli_density_share_parse_logpdf_apply": median(density_shares),
        "absent_boundaries": absent,
        "samples": len(layers),
    }


def print_summary(report):
    env = report["environment"]
    print(f"# workload {report['workload']} seed {report['seed']}: {report['why']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    passes = report["passes"]
    print(f"# passes: {passes['untraced']} untraced, {passes['traced']} traced, after {passes['warm_up']} warm-up")
    for op, s in report["ops"].items():
        q = s["quartiles_s"]
        q_text = f"[{q[0]:.6g}, {q[1]:.6g}]"
        print(f"# op {op:12s} median {s['median_s']:.6g} s  quartiles {q_text}  "
              f"samples {s['samples']}/{s['attempted']}")
    for name, m in report["end_to_end"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in report["informational"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}  (informational)")
    if "per_layer" in report:
        for name, m in report["per_layer"]["metrics"].items():
            print(f"{name:28s} {m['value']:.6g} {m['unit']}  ({m['source']})")
        print(f"# cli_density share parse+logpdf+apply: {report['per_layer']['cli_density_share_parse_logpdf_apply']:.3f}")
        print("# tracing overhead by op: " + json.dumps(
            {k: round(v, 4) for k, v in report["per_layer"]["tracing_overhead_by_op"].items()}))
    print(f"# attempted {report['attempted']} failed {report['failed']}")
    for line in report["failures"]:
        print(f"# failed {line}")
    for op, reason in report["known_defects"].items():
        print(f"# known-defect probe {op} (not counted): {reason or 'passes now'}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
