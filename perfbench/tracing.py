"""Spans around the calls into each arrayvariate module, recorded from outside.

`install` replaces module attributes that the program looks up at call time
(such as `cli.dump_arrays` or `sampling.apply_mode`) with wrappers that
record a span: name, start, end, parent and optional computed counts. Spans
stay in memory; `layer_metrics` folds one pass of them into the per-layer
metrics. A boundary whose attribute no longer exists is listed as absent
instead of failing the run, so the benchmark survives refactors.
"""

import functools
import gzip
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts dict or None, ok]
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None, False]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
            span[5] = True
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            try:
                span[4] = count(args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                pass  # the boundary's signature changed: the span stays, its count is missing
        return result

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def _normals_rvecs(args, kwargs, result):
    # sample_elliptical_rvecs(model, n, stream) draws one n x m Gaussian matrix
    return {"normals": int(result.size)}


def _normals_radii(args, kwargs, result):
    # sample_radii(kernel, m, n, stream): t kernels draw n x m normals, normal draws chi-square
    kernel, m, n = args[0], args[1], args[2]
    return {"normals": int(m) * int(n) if kernel.name in ("t", "cauchy") else 0}


def _flop(args, kwargs, result):
    # apply_mode(a, mode, x): a is q x m_mode, 2 * q * x.size flops
    a, x = args[0], args[2]
    return {"flop": 2 * int(a.shape[0]) * int(x.size)}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _cells(args, kwargs, result):
    return {"cells": int(result.size)}


# (module, attribute, span name, counter). Several attributes may share a span
# name: the same layer is reached through different importers.
BOUNDARIES = [
    ("cli", "read_matrix", "linalg.read_matrix", None),
    ("cli", "read_array", "array_core.read", None),
    ("cli", "read_arrays", "array_core.read", None),
    ("array_core", "parse_arrays", "array_core.parse", _bytes_in),
    ("cli", "dump_arrays", "array_core.format", _bytes_out),
    ("cli", "KroneckerModel", "densities.model_build", None),
    ("linalg", "inverse", "linalg.factorize", None),
    ("linalg", "logabsdet", "linalg.factorize", None),
    ("linalg", "l_inverse", "linalg.factorize", None),
    ("verify", "inv_kron_chain", "kronecker.chain", _cells),
    ("sampling", "apply_mode", "multilinear.apply", _flop),
    ("densities", "apply_mode", "multilinear.apply", _flop),
    ("multilinear", "apply_mode", "multilinear.apply", _flop),
    ("densities", "r_multiply", "multilinear.r_multiply", None),
    ("cli", "multilinear_lstsq", "multilinear.lstsq", None),
    ("cli", "logpdf_elliptical", "densities.logpdf", None),
    ("densities", "logpdf_elliptical_rvecs", "densities.logpdf", None),
    ("verify", "logpdf_elliptical_rvecs", "densities.logpdf", None),
    ("densities", "log_kernel_pdf", "densities.kernel_eval", None),
    ("cli", "radial_pdf", "densities.radial_pdf", None),
    ("cli", "sample_elliptical", "sampling.sample", None),
    ("sampling", "sample_elliptical_rvecs", "sampling.sample", _normals_rvecs),
    ("verify", "sample_elliptical_rvecs", "sampling.sample", _normals_rvecs),
    ("verify", "sample_radii", "sampling.radii", _normals_radii),
    ("cli", "run_suite", "verify.run_suite", None),
    ("verify", "check_normalization", "verify.normalization", None),
    ("verify", "check_covariance", "verify.covariance", None),
    ("verify", "check_radial", "verify.radial", None),
    ("verify", "radial_cdf", "verify.radial_cdf_build", None),
]
VERIFY_CHECKS = ("verify.normalization", "verify.covariance", "verify.radial")


def _wrapper(tracer, name, fn, count):
    if name == "verify.radial_cdf_build":
        # radial_cdf returns the CDF callable; the quadrature runs when it is called
        @functools.wraps(fn)
        def build(*args, **kwargs):
            cdf = tracer.call(name, fn, args, kwargs)
            return functools.wraps(cdf)(lambda *a, **k: tracer.call("verify.radial_cdf", cdf, a, k))
        return build

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    return traced


def install(tracer, modules):
    """Wrap every boundary found in `modules` (name -> module).

    Returns (undo, absent): `undo()` restores the originals, `absent` lists
    the boundaries that do not exist in this version of the program.
    """
    saved, absent = [], []
    for mod_name, attr, span, count in BOUNDARIES:
        module = modules.get(mod_name)
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            absent.append(f"{mod_name}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrapper(tracer, span, fn, count))

    def undo():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
    return undo, absent


def _durations(spans, scale=None):
    """Per-span total and self time (total minus the time its children cover),
    each multiplied by the span's entry in `scale` if given."""
    total = [s[2] - s[1] for s in spans]
    if scale is not None:
        total = [t * f for t, f in zip(total, scale)]
    self_time = list(total)
    for s, t in zip(spans, total):
        if s[3] >= 0:
            self_time[s[3]] -= t
    return total, self_time


# per-layer metric -> (unit, better, "measured" or "computed")
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "measured"),
    "array_core.format_s": ("s", "lower", "measured"),
    "array_core.format_mb_per_s": ("MB/s", "higher", "computed"),
    "array_core.bytes_out": ("bytes", "lower", "computed"),
    "array_core.parse_s": ("s", "lower", "measured"),
    "array_core.parse_mb_per_s": ("MB/s", "higher", "computed"),
    "array_core.bytes_in": ("bytes", "lower", "computed"),
    "linalg.read_matrix_s": ("s", "lower", "measured"),
    "linalg.factorize_s": ("s", "lower", "measured"),
    "linalg.factorize_calls": ("count", "lower", "measured"),
    "kronecker.chain_s": ("s", "lower", "measured"),
    "kronecker.dense_cells": ("count", "lower", "computed"),
    "multilinear.apply_s": ("s", "lower", "measured"),
    "multilinear.apply_calls": ("count", "lower", "measured"),
    "multilinear.flop": ("flop", "lower", "computed"),
    "multilinear.gflop_per_s": ("GFLOP/s", "higher", "computed"),
    "multilinear.lstsq_s": ("s", "lower", "measured"),
    "densities.model_build_s": ("s", "lower", "measured"),
    "densities.logpdf_s": ("s", "lower", "measured"),
    "densities.logpdf_calls": ("count", "lower", "measured"),
    "densities.kernel_eval_s": ("s", "lower", "measured"),
    "densities.radial_pdf_s": ("s", "lower", "measured"),
    "densities.radial_pdf_calls": ("count", "lower", "measured"),
    "sampling.sample_s": ("s", "lower", "measured"),
    "sampling.radii_s": ("s", "lower", "measured"),
    "sampling.normals_drawn": ("count", "lower", "computed"),
    "verify.normalization_s": ("s", "lower", "measured"),
    "verify.covariance_s": ("s", "lower", "measured"),
    "verify.radial_s": ("s", "lower", "measured"),
    "verify.radial_cdf_s": ("s", "lower", "measured"),
    "verify.checks_run": ("count", "higher", "measured"),
    "verify.checks_skipped": ("count", "lower", "computed"),
    "trace.overhead_frac": ("fraction", "lower", "computed"),
    "trace.absent_boundaries": ("count", "lower", "measured"),
}
# Metrics that read 0 on at least one workload: the layers that only some
# workloads reach (verify and its guarded checks, radial), and the count of
# absent boundaries, 0 while every boundary exists. The report carries them for
# every workload; the result line and BENCHMARK.json keep only metrics that
# are nonzero on every workload.
#   kronecker.*: 0 on deep and wide (K is built only in the m <= 16 checks)
#   densities.radial_pdf_*: 0 on deep and wide (no radial command in a pass)
#   sampling.radii_s, verify.*_s, verify.checks_run: 0 on deep and wide (no verify in a pass)
#   verify.checks_skipped: 0 on every workload (all checks apply on small)
#   trace.absent_boundaries: 0 on every workload at this version
REPORT_ONLY = {
    "kronecker.chain_s", "kronecker.dense_cells", "densities.radial_pdf_s", "densities.radial_pdf_calls",
    "sampling.radii_s", "verify.normalization_s", "verify.covariance_s", "verify.radial_s",
    "verify.radial_cdf_s", "verify.checks_run", "verify.checks_skipped", "trace.absent_boundaries",
}


def layer_metrics(spans, scale=None):
    """Fold one traced pass into the per-layer metrics (without the trace.* ones).

    `scale` holds one time factor per span (see run.py's calibration)."""
    total, self_time = _durations(spans, scale)
    tot, own, calls, counts = {}, {}, {}, {}
    for s, t, st in zip(spans, total, self_time):
        name = s[0]
        tot[name] = tot.get(name, 0.0) + t
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        if s[4]:
            for key, v in s[4].items():
                counts[key, name] = counts.get((key, name), 0) + v
    checks_started = sum(calls.get(n, 0) for n in VERIFY_CHECKS)
    checks_run = sum(1 for s in spans if s[0] in VERIFY_CHECKS and s[5])
    bytes_out = counts.get(("bytes", "array_core.format"), 0)
    bytes_in = counts.get(("bytes", "array_core.parse"), 0)
    flop = counts.get(("flop", "multilinear.apply"), 0)
    apply_time = tot.get("multilinear.apply", 0.0)

    def rate(amount, seconds, scale):
        return amount / scale / seconds if seconds > 0 else 0.0

    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "array_core.format_s": tot.get("array_core.format", 0.0),
        "array_core.format_mb_per_s": rate(bytes_out, tot.get("array_core.format", 0.0), 1e6),
        "array_core.bytes_out": bytes_out,
        "array_core.parse_s": tot.get("array_core.parse", 0.0),
        "array_core.parse_mb_per_s": rate(bytes_in, tot.get("array_core.parse", 0.0), 1e6),
        "array_core.bytes_in": bytes_in,
        "linalg.read_matrix_s": tot.get("linalg.read_matrix", 0.0),
        "linalg.factorize_s": tot.get("linalg.factorize", 0.0),
        "linalg.factorize_calls": calls.get("linalg.factorize", 0),
        "kronecker.chain_s": tot.get("kronecker.chain", 0.0),
        "kronecker.dense_cells": counts.get(("cells", "kronecker.chain"), 0),
        "multilinear.apply_s": own.get("multilinear.apply", 0.0) + own.get("multilinear.r_multiply", 0.0),
        "multilinear.apply_calls": calls.get("multilinear.apply", 0),
        "multilinear.flop": flop,
        "multilinear.gflop_per_s": rate(flop, apply_time, 1e9),
        "multilinear.lstsq_s": tot.get("multilinear.lstsq", 0.0),
        "densities.model_build_s": tot.get("densities.model_build", 0.0),
        "densities.logpdf_s": own.get("densities.logpdf", 0.0),
        "densities.logpdf_calls": calls.get("densities.logpdf", 0),
        "densities.kernel_eval_s": tot.get("densities.kernel_eval", 0.0),
        "densities.radial_pdf_s": tot.get("densities.radial_pdf", 0.0),
        "densities.radial_pdf_calls": calls.get("densities.radial_pdf", 0),
        "sampling.sample_s": own.get("sampling.sample", 0.0),
        "sampling.radii_s": tot.get("sampling.radii", 0.0),
        "sampling.normals_drawn": counts.get(("normals", "sampling.sample"), 0)
        + counts.get(("normals", "sampling.radii"), 0),
        "verify.normalization_s": tot.get("verify.normalization", 0.0),
        "verify.covariance_s": tot.get("verify.covariance", 0.0),
        "verify.radial_s": tot.get("verify.radial", 0.0),
        "verify.radial_cdf_s": tot.get("verify.radial_cdf", 0.0),
        "verify.checks_run": checks_run,
        "verify.checks_skipped": len(VERIFY_CHECKS) * calls.get("verify.run_suite", 0) - checks_started,
    }


def write_spans(path, spans):
    """Write spans as gzipped JSON lines, times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for i, (name, start, end, parent, counts, ok) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": name, "parent": parent, "ok": ok,
                "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                **({"counts": counts} if counts else {}),
            }) + "\n")
