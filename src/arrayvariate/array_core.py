"""Dense multiway arrays and their monolinear (stacked vector) form.

Arrays are plain float64 ndarrays of shape ``(m1, ..., mi)``.  The one
flattening convention used throughout the package is *first index varies
fastest*: cell ``(j1, ..., ji)`` (1-based) of an array lands at 1-based
position

    j1 + (j2 - 1) * m1 + (j3 - 1) * m1 * m2 + ...

of its stacked vector, which is exactly numpy's Fortran order.  Every
multi-index in the public API is 1-based; internal numpy indexing stays
0-based.
"""

import math

import numpy as np

from .errors import FormatError


def as_array(x) -> np.ndarray:
    """Coerce to a float64 ndarray of order >= 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    return a


def shape_size(shape) -> int:
    """Total cell count ``m = m1 * m2 * ... * mi``."""
    dims = tuple(int(d) for d in shape)
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ValueError(f"invalid shape {tuple(shape)!r}: order >= 1 and every dimension >= 1 required")
    return math.prod(dims)


def linear_index(idx, shape) -> int:
    """1-based stacked position of the 1-based multi-index ``idx``.

    Bijective from the index box ``1..m1 x ... x 1..mi`` onto ``1..m``,
    with the first index varying fastest.
    """
    dims = tuple(int(d) for d in shape)
    idx = tuple(int(j) for j in idx)
    if len(idx) != len(dims):
        raise IndexError(f"multi-index {idx} has {len(idx)} components, shape {dims} has {len(dims)} modes")
    pos = 0
    stride = 1
    for k, (j, mk) in enumerate(zip(idx, dims), start=1):
        if not 1 <= j <= mk:
            raise IndexError(f"mode {k}: index {j} out of range 1..{mk}")
        pos += (j - 1) * stride
        stride *= mk
    return pos + 1


def rvec(x) -> np.ndarray:
    """Stack an array into its length-m vector, first index fastest."""
    return as_array(x).reshape(-1, order="F")


def unrvec(vec, shape) -> np.ndarray:
    """Inverse of :func:`rvec`: rebuild the array of ``shape`` from a vector."""
    v = np.asarray(vec, dtype=float).reshape(-1)
    m = shape_size(shape)
    if v.size != m:
        raise ValueError(f"vector of length {v.size} cannot fill shape {tuple(shape)} (size {m})")
    return v.reshape(tuple(int(d) for d in shape), order="F")


def sq_norm(x) -> float:
    """Sum of squared cells; equals ``dot(rvec(x), rvec(x))``."""
    v = rvec(x)
    return float(v @ v)


def distance(x1, x2) -> float:
    """Euclidean distance ``sqrt(sq_norm(x1 - x2))``; requires equal shapes."""
    a1, a2 = as_array(x1), as_array(x2)
    if a1.shape != a2.shape:
        raise ValueError(f"shape mismatch: {a1.shape} vs {a2.shape}")
    return math.sqrt(sq_norm(a1 - a2))


def fiber(x, mode, fixed) -> np.ndarray:
    """Extract the mode-``mode`` fiber of ``x`` at the given fixed indices.

    ``mode`` is 1-based; ``fixed`` lists the 1-based indices of the other
    modes in increasing mode order.  The result has length ``m_mode``.
    """
    a = as_array(x)
    if not 1 <= mode <= a.ndim:
        raise IndexError(f"mode {mode} out of range 1..{a.ndim}")
    fixed = tuple(int(j) for j in fixed)
    if len(fixed) != a.ndim - 1:
        raise IndexError(f"expected {a.ndim - 1} fixed indices for a {a.ndim}-way array, got {len(fixed)}")
    key = []
    it = iter(fixed)
    for k in range(1, a.ndim + 1):
        if k == mode:
            key.append(slice(None))
            continue
        j = next(it)
        if not 1 <= j <= a.shape[k - 1]:
            raise IndexError(f"mode {k}: index {j} out of range 1..{a.shape[k - 1]}")
        key.append(j - 1)
    return a[tuple(key)].copy()


# ---------------------------------------------------------------------------
# ARRV1 text format
#
#   line 1:  ARRV1
#   line 2:  dims m1 m2 ... mi
#   then:    m whitespace-separated reals in stacked (first index fastest) order
#
# Several arrays may follow one another in a file, separated by blank lines.
# MATV1 (:mod:`arrayvariate.linalg`) is the same record grammar under its own
# header, so both formats are written by :func:`dump_record` and read by
# :func:`parse_records`.
# ---------------------------------------------------------------------------

def format_float(v: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return f"{float(v):.17g}"


def dump_record(header, dims, values, per_line) -> str:
    """Render one record: the header, the dims line, then ``per_line`` values to a line."""
    lines = [header, "dims " + " ".join(str(d) for d in dims)]
    for start in range(0, values.size, per_line):
        lines.append(" ".join(format_float(t) for t in values[start:start + per_line]))
    return "\n".join(lines) + "\n"


def dump_array(x) -> str:
    """Render one array in ARRV1 text form (one mode-1 fiber per line)."""
    a = as_array(x)
    return dump_record("ARRV1", a.shape, rvec(a), a.shape[0])


def dump_arrays(arrays) -> str:
    """Render a sequence of arrays, blank-line separated."""
    return "\n".join(dump_array(a) for a in arrays)


def write_arrays(arrays, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_arrays(arrays))


def parse_records(text, source, header, order=None) -> list:
    """Parse zero or more ``header`` records from ``text`` into ``(dims, values)`` pairs.

    ``values`` holds a record's reals in file order.  With ``order`` set, every
    dims line must list exactly that many dimensions.  Raises
    :class:`FormatError` with ``source:line:`` on any malformed input,
    including a nan or inf value.
    """
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
            # name the line of the first nan/inf; looked up only on failure
            index = int(np.argmin(np.isfinite(values)))
            for ln in range(data_start, lineno):
                tokens = lines[ln].split()
                if index < len(tokens):
                    fail(ln + 1, f"non-finite value {tokens[index]!r}")
                index -= len(tokens)
        records.append((dims, values))


def parse_arrays(text, source="<string>") -> list:
    """Parse zero or more ARRV1 arrays from ``text``.

    Raises :class:`FormatError` with ``source:line:`` on any malformed input.
    """
    return [unrvec(values, dims) for dims, values in parse_records(text, source, "ARRV1")]


def read_arrays(path) -> list:
    with open(path) as fh:
        text = fh.read()
    return parse_arrays(text, source=str(path))


def read_array(path) -> np.ndarray:
    """Read a file expected to hold exactly one ARRV1 array."""
    arrays = read_arrays(path)
    if len(arrays) != 1:
        raise FormatError(f"{path}:1: expected exactly one array, found {len(arrays)}")
    return arrays[0]
