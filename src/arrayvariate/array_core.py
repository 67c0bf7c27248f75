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

import bisect
import math
from itertools import chain, groupby

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
# A record's values are its array's rvec, so n arrays of one shape are an
# (n, m) stack of rows.  MATV1 (:mod:`arrayvariate.linalg`) is the same record
# grammar under its own header, so both formats are written by
# :func:`write_records` and read by :func:`parse_records`.  Both handle values
# a chunk of at most CHUNK at a time: the writer fills one FLOAT_FORMAT
# template per chunk, and the reader converts a chunk's tokens with one
# ``map(float, ...)``, so a value token is anything ``float()`` accepts.  When
# m <= CHUNK, the reader takes the records that repeat the previous record's
# lines (a writer's run of one shape) up to CHUNK // m at a time, and returns
# each run of same-shape records as one (k, m) block of rows.
# ---------------------------------------------------------------------------

# Values per `%` template when writing and tokens per bulk conversion when
# reading.  4,096 formats and parses as fast as 65,536 did, and keeps the
# reader's list of pending token strings near 0.25 MB.
CHUNK = 4096
FLOAT_FORMAT = "%.17g"  # 17 significant digits: lossless float64 round trip


def write_records(header, dims, rows, per_line, write) -> None:
    """Write each row of the ``(n, m)`` stack ``rows`` as one ``header`` record.

    Every record has the dims line ``dims`` and ``per_line`` values to a line;
    records are blank-line separated.  ``write`` receives the text in pieces
    of at most CHUNK values each.
    """
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    if per_line < 1:
        raise ValueError(f"cannot write {per_line} values to a line")
    full, rest = divmod(m, per_line)
    body = (" ".join([FLOAT_FORMAT] * per_line) + "\n") * full
    if rest:
        body += " ".join([FLOAT_FORMAT] * rest) + "\n"
    # every record but the first opens with the blank separator line
    head = f"\n{header}\ndims {' '.join(str(d) for d in dims)}\n"
    if m <= CHUNK:
        per_chunk = CHUNK // max(m, 1)
        for start in range(0, n, per_chunk):
            chunk = rows[start:start + per_chunk]
            template = (head + body) * len(chunk)
            write((template[1:] if start == 0 else template) % tuple(chunk.ravel().tolist()))
        return
    width = len(FLOAT_FORMAT) + 1  # a placeholder and the separator after it
    for i, row in enumerate(rows):
        for start in range(0, m, CHUNK):
            template = body[width * start:width * (start + CHUNK)]
            if start == 0:
                template = (head if i else head[1:]) + template
            write(template % tuple(row[start:start + CHUNK].tolist()))


def dump_arrays(arrays) -> str:
    """Render a sequence of arrays, blank-line separated, one mode-1 fiber per line."""
    out = []
    for shape, group in groupby(map(as_array, arrays), key=np.shape):
        if out:
            out.append("\n")
        write_records("ARRV1", shape, [rvec(a) for a in group], shape[0], out.append)
    return "".join(out)


def write_arrays(arrays, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_arrays(arrays))


def parse_records(text, source, header, order=None) -> list:
    """Parse zero or more ``header`` records from ``text`` into ``(dims, rows)`` pairs.

    Each run of consecutive records of one shape gives one pair: ``rows`` is
    the ``(k, m)`` block of their values, one record per row, in file order.
    With ``order`` set, every dims line must list exactly that many
    dimensions.  Raises :class:`FormatError` with ``source:line:`` at the
    first fault in file order, including a nan or inf value, which counts as
    found once its record has been read in full.
    """
    lines = text.splitlines()
    n_lines = len(lines)
    runs = []  # [dims, record count] of every run of same-shape records read in full
    ends = []  # value-stream end of every record read in full
    first_lines = []  # first data line of every record begun; records are contiguous in the stream
    pieces, pending = [], []  # converted chunks of the value stream; tokens not yet converted
    converted = 0
    nonfinite = None  # value-stream position of the first nan/inf

    def locate(at):
        # (line number, token) of the value at stream position `at`; used
        # only on failure
        k = bisect.bisect_right(ends, at)
        index, ln = at - (ends[k - 1] if k else 0), first_lines[k]
        while True:
            tokens = lines[ln].split()
            if index < len(tokens):
                return ln + 1, tokens[index]
            index -= len(tokens)
            ln += 1

    def flush():
        # Convert the pending tokens CHUNK at a time and report the first fault
        # among them that comes before the walk's current line: a bad token,
        # or a nan/inf in a record read in full.
        nonlocal converted, nonfinite
        bad = None
        for a in range(0, len(pending), CHUNK):
            chunk = pending[a:a + CHUNK]
            try:
                values = np.fromiter(map(float, chunk), float, len(chunk))
            except ValueError:
                values = []
                for t in chunk:
                    try:
                        values.append(float(t))
                    except ValueError:
                        break
                bad, values = converted + len(values), np.array(values, dtype=float)
            finite = np.isfinite(values)
            if nonfinite is None and not finite.all():
                nonfinite = converted + int(np.argmin(finite))
            pieces.append(values)
            converted += len(values)
            if bad is not None:
                break
        pending.clear()
        if nonfinite is not None:
            k = bisect.bisect_right(ends, nonfinite)
            if k < len(ends) and (bad is None or ends[k] <= bad):
                ln, token = locate(nonfinite)
                raise FormatError(f"{source}:{ln}: non-finite value {token!r}")
        if bad is not None:
            ln, token = locate(bad)
            raise FormatError(f"{source}:{ln}: bad numeric token {token!r}")

    def fail(ln, msg):
        flush()  # a value fault earlier in the file is reported first
        raise FormatError(f"{source}:{ln}: {msg}")

    lineno = 0
    dims_text = None  # the last dims line read: a run of same-shape records repeats it
    # Run step: the header line of the last record read (None when m > CHUNK),
    # the token count of each of its data lines, and the number of records the
    # next step tries to take, which doubles after each step up to CHUNK // m
    # and drops to 1 after the line walk.
    last, counts, take = None, [], 1
    while True:
        while lineno < n_lines and not lines[lineno].strip():
            lineno += 1
        if lineno >= n_lines:
            break
        if last is not None and lineno + 1 < n_lines and lines[lineno + 1] == dims_text:
            # Take the next records in one step when each repeats the last
            # record's lines: its header, dims and separator lines verbatim,
            # and its token count on every data line.  Anything else is left
            # to the line walk below, which reports the fault.  A next record
            # whose dims line differs (another shape, or other spacing) skips
            # the attempt, which costs more than walking a small record.
            period = lineno - last
            fixed = [(j, lines[last + j]) for j in (0, 1, *range(2 + len(counts), period))]
            k = min(take, (n_lines - lineno) // period)
            seg = lines[lineno:lineno + k * period]
            if k and all(seg[j::period] == [line] * k for j, line in fixed):
                columns = [seg[j::period] for j in range(2, 2 + len(counts))]
                tokens = list(map(str.split, chain.from_iterable(zip(*columns))))
                if list(map(len, tokens)) == counts * k:
                    start = converted + len(pending)
                    first_lines += range(lineno + 2, lineno + k * period, period)
                    ends += range(start + m, start + k * m + 1, m)
                    pending += chain.from_iterable(tokens)
                    runs[-1][1] += k
                    last = lineno + (k - 1) * period
                    lineno += k * period
                    take = min(2 * take, CHUNK // m)
                    if len(pending) >= CHUNK:
                        flush()
                    continue
        head = lineno
        got = lines[lineno].strip()
        if got != header:
            fail(lineno + 1, f"expected {header} header, got {got!r}")
        lineno += 1
        if lineno >= n_lines:
            fail(lineno, "missing dims line")
        if lines[lineno] != dims_text:
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
            dims_text, m = lines[lineno], shape_size(dims)
        lineno += 1
        first_lines.append(lineno)
        counts = []
        read = 0
        while read < m:
            if lineno >= n_lines:
                fail(n_lines, f"unexpected end of input: got {read} of {m} values")
            tokens = lines[lineno].split()
            if not tokens and not read:
                fail(lineno + 1, "blank line before any data values")
            if len(tokens) > m - read:
                pending += tokens[:m - read]
                fail(lineno + 1, f"extra token {tokens[m - read]!r} after {m} values")
            pending += tokens
            counts.append(len(tokens))
            read += len(tokens)
            lineno += 1
            if len(pending) >= CHUNK:
                flush()
        if runs and runs[-1][0] == dims:
            runs[-1][1] += 1
        else:
            runs.append([dims, 1])
        ends.append(converted + len(pending))
        last, take = (head if m <= CHUNK else None), 1
    flush()
    lines.clear()  # free the text's lines before the value stream is joined
    stream = pieces[0] if len(pieces) == 1 else np.concatenate(pieces or [np.empty(0)])
    blocks, start = [], 0
    for dims, k in runs:
        end = start + k * math.prod(dims)
        blocks.append((dims, stream[start:end].reshape(k, -1)))
        start = end
    return blocks


def parse_arrays(text, source="<string>") -> list:
    """Parse zero or more ARRV1 arrays from ``text``.

    Raises :class:`FormatError` with ``source:line:`` on any malformed input.
    """
    # k arrays of shape dims, stacked in rvec order, are a (k, *reversed dims)
    # C array with its last axes reversed
    return [a for dims, rows in parse_records(text, source, "ARRV1")
            for a in rows.reshape(-1, *dims[::-1]).transpose(0, *range(len(dims), 0, -1))]


def read_records(path, header, order=None) -> list:
    """:func:`parse_records` on the text of the file at ``path``."""
    with open(path) as fh:
        text = fh.read()
    return parse_records(text, str(path), header, order)


def only_record(runs, source, noun) -> tuple:
    """The ``(dims, values)`` of the one record in :func:`parse_records`' ``runs``.

    Raises :class:`FormatError` when ``runs`` holds any other number of records.
    """
    count = sum(len(rows) for _, rows in runs)
    if count != 1:
        raise FormatError(f"{source}:1: expected exactly one {noun}, found {count}")
    ((dims, rows),) = runs
    return dims, rows[0]


def read_array(path) -> np.ndarray:
    """Read a file expected to hold exactly one ARRV1 array."""
    dims, values = only_record(read_records(path, "ARRV1"), path, "array")
    return unrvec(values, dims)
