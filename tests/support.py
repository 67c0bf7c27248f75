"""Shared helpers for the test suite."""

import numpy as np


def well_conditioned(gen, rows, cols=None):
    """Random matrix with singular values in [0.6, 1.6] (condition <= ~2.7)."""
    cols = rows if cols is None else cols
    q1, _ = np.linalg.qr(gen.standard_normal((rows, rows)))
    q2, _ = np.linalg.qr(gen.standard_normal((cols, cols)))
    s = gen.uniform(0.6, 1.6, size=cols)
    return (q1[:, :cols] * s) @ q2


def random_shape(gen, max_order=4, max_dim=4, max_cells=512):
    while True:
        order = int(gen.integers(1, max_order + 1))
        dims = tuple(int(d) for d in gen.integers(1, max_dim + 1, size=order))
        if np.prod(dims) <= max_cells:
            return dims


def with_kernel(model, kernel):
    """The model's location and factors under another kernel."""
    from arrayvariate import KroneckerModel

    return KroneckerModel(model.mean, model.factors, kernel)


def random_model(gen, dims, kernel):
    from arrayvariate import KroneckerModel, unrvec

    factors = [well_conditioned(gen, d) for d in dims]
    mean = unrvec(gen.standard_normal(int(np.prod(dims))), dims)
    return KroneckerModel(mean, factors, kernel)


# ---------------------------------------------------------------------------
# Reference ARRV1/MATV1 codec: the per-value writer and the per-token reader
# that the chunked codec in arrayvariate.array_core replaced, kept verbatim as
# oracles for the differential tests.
# ---------------------------------------------------------------------------

def format_float_oracle(v) -> str:
    return f"{float(v):.17g}"


def dump_record_oracle(header, dims, values, per_line) -> str:
    lines = [header, "dims " + " ".join(str(d) for d in dims)]
    for start in range(0, values.size, per_line):
        lines.append(" ".join(format_float_oracle(t) for t in values[start:start + per_line]))
    return "\n".join(lines) + "\n"


def dump_arrays_oracle(arrays) -> str:
    from arrayvariate.array_core import as_array, rvec

    return "\n".join(dump_record_oracle("ARRV1", a.shape, rvec(a), a.shape[0]) for a in map(as_array, arrays))


def dump_matrix_oracle(a) -> str:
    a = np.asarray(a, dtype=float)
    return dump_record_oracle("MATV1", a.shape, a.ravel(), a.shape[1])


def parse_records_oracle(text, source, header, order=None) -> list:
    from arrayvariate.array_core import shape_size
    from arrayvariate.errors import FormatError

    lines = text.splitlines()
    records = []
    lineno = 0
    n_lines = len(lines)

    def fail(ln, msg):
        raise FormatError(f"{source}:{ln}: {msg}")

    while True:
        while lineno < n_lines and not lines[lineno].strip():
            lineno += 1
        if lineno >= n_lines:
            return records
        got = lines[lineno].strip()
        if got != header:
            fail(lineno + 1, f"expected {header} header, got {got!r}")
        lineno += 1
        if lineno >= n_lines:
            fail(lineno, "missing dims line")
        dims_line = lines[lineno].split()
        if not dims_line or dims_line[0] != "dims":
            fail(lineno + 1, "expected 'dims m1 m2 ...' line")
        try:
            dims = tuple(int(t) for t in dims_line[1:])
        except ValueError:
            fail(lineno + 1, f"non-integer dimension in {lines[lineno].strip()!r}")
        if len(dims) < 1 or any(d < 1 for d in dims):
            fail(lineno + 1, f"invalid dims {dims}")
        if order is not None and len(dims) != order:
            fail(lineno + 1, f"expected {order} dims, got {len(dims)}")
        lineno += 1
        m = shape_size(dims)
        data_start = lineno
        values = []
        while len(values) < m:
            if lineno >= n_lines:
                fail(n_lines, f"unexpected end of input: got {len(values)} of {m} values")
            tokens = lines[lineno].split()
            if not tokens and not values:
                fail(lineno + 1, "blank line before any data values")
            for t in tokens:
                if len(values) == m:
                    fail(lineno + 1, f"extra token {t!r} after {m} values")
                try:
                    values.append(float(t))
                except ValueError:
                    fail(lineno + 1, f"bad numeric token {t!r}")
            lineno += 1
        values = np.array(values)
        if not np.isfinite(values).all():
            index = int(np.argmin(np.isfinite(values)))
            for ln in range(data_start, lineno):
                tokens = lines[ln].split()
                if index < len(tokens):
                    fail(ln + 1, f"non-finite value {tokens[index]!r}")
                index -= len(tokens)
        records.append((dims, values))
