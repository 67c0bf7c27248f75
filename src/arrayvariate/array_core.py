"""Dense multiway arrays and their monolinear (stacked vector) form.

Arrays are plain float64 ndarrays of shape ``(m1, ..., mi)``.  The one
flattening convention used throughout the package is *first index varies
fastest*: cell ``(j1, ..., ji)`` (1-based) of an array lands at 1-based
position

    j1 + (j2 - 1) * m1 + (j3 - 1) * m1 * m2 + ...

of its stacked vector, which is exactly numpy's Fortran order.  An error
message names a cell by its 1-based multi-index; internal numpy indexing
stays 0-based.
"""

import math
import numbers
from itertools import chain, groupby, islice

import numpy as np

from .errors import FormatError


def as_array(x) -> np.ndarray:
    """Coerce to a float64 ndarray of order >= 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    return a


def whole(x, low, what) -> int:
    """``x`` as an int: a real whole number >= ``low`` (3, 3.0, ``np.int64(3)``), else ``ValueError``."""
    if not (isinstance(x, numbers.Real) and low <= x < math.inf and x == int(x)):  # nan fails low <= x
        raise ValueError(f"{what} must be a whole number >= {low}, got {x!r}")
    return int(x)


def shape_size(shape) -> int:
    """Total cell count ``m = m1 * m2 * ... * mi``."""
    dims = [whole(d, 1, "array dimension") for d in shape]
    whole(len(dims), 1, "array order")
    return math.prod(dims)


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


def unrvec_rows(rows, dims) -> np.ndarray:
    """The ``(n, m)`` stacked ``rows`` as n arrays of shape ``dims``, one Fortran-ordered view each:
    rows stacked in rvec order are an ``(n, *reversed dims)`` C array with its last axes reversed."""
    return rows.reshape(-1, *dims[::-1]).transpose(0, *range(len(dims), 0, -1))


def check_finite(out, rows, shape, name, result) -> None:
    """Raise unless ``out`` is finite; its row k was computed from row k of ``rows``.

    ``rows`` holds stacked arrays of ``shape``, one ``rvec`` per row.  A
    ``ValueError`` names the first row holding a non-finite cell, and the
    cell by its 1-based multi-index.  When every row is finite, an
    ``OverflowError`` names the first row whose ``result`` overflowed.
    ``name`` is how a message calls row k: ``"row {k}"``, or ``"array"``
    for a single array.
    """
    if np.isfinite(out).all():
        return
    finite = np.isfinite(rows)
    bad = ~finite.all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        at = int(finite[k].argmin())
        idx = tuple(int(j) + 1 for j in np.unravel_index(at, shape, order="F"))
        raise ValueError(f"{name.format(k=k)} cell {idx} is not finite ({float(rows[k, at])!r})")
    k = int(np.isfinite(out.reshape(len(rows), -1)).all(axis=1).argmin())
    raise OverflowError(f"{name.format(k=k)}: its {result} overflows in floating point")


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
# a chunk of at most CHUNK at a time: the writer computes a chunk's digits
# exactly in numpy, and writes 0, inf, nan, |x| < 1e-4 or >= 1e16 and chunks
# too short to pay numpy's per-call cost through one FLOAT_FORMAT template, to
# the same bytes (:func:`_format`).  The reader converts a step's tokens at once
# with one ``map(float, ...)``, so a value token is anything ``float()`` accepts.
# When m <= CHUNK, a step takes the records that repeat the previous record's
# lines (a writer's run of one shape), up to CHUNK // m at a time, reading lines
# as it goes, and hands them on as one (k, m) block of rows.  A step holding a
# fault (a line out of place, a token float() rejects, a nan or inf) is read
# again token by token, which names the first fault in file order.
# ---------------------------------------------------------------------------

# Values per chunk when writing, and per run step of the reader, which
# converts a step's tokens at once.  4,096 formats and parses as fast as 65,536
# did, and keeps the reader's list of pending token strings near 0.25 MB.
CHUNK = 4096
FLOAT_FORMAT = "%.17g"  # 17 significant digits: lossless float64 round trip
# Chunks with fewer values in the numpy formatter's range use the template: on normal draws (2 shared
# cores) both took about 0.2 ms at 256 values (188 against 211 us), and at 512 numpy took 276 against 483 us.
SHORT_CHUNK = 256

_U = np.uint64
_POW10 = np.array([float(10 ** j) for j in range(23)])  # exact: 5**22 < 2**53
# column j: the first j bytes of a 24-byte string, as three little-endian words
_LOW = np.array([[(1 << 8 * min(max(j - 8 * w, 0), 8)) - 1 for j in range(26)] for w in range(3)], _U)
_POINT = (_LOW[:, 1:] ^ _LOW[:, :-1]) & _U(0x2E2E_2E2E_2E2E_2E2E)  # column j: a point at byte j, none at 24
# index k + 4 + 20 * (x < 0): the sign and, for decimal exponent k < 0, "0." and -k - 1 zeros
_PREFIX = np.frombuffer(b"".join((sign + b"0." + b"0" * (-k - 1) if k < 0 else sign).ljust(8, b"\0")
                                 for sign in (b"\0", b"-") for k in range(-4, 16)), "<u8").astype(_U)


def _scaled(a, k):
    """``a * 10**(16 - k)`` rounded half to even, exactly, for 1e-4 <= a < 1e16: Dekker's two-product
    ``hi + lo`` is the product, and ``hi`` is an even integer where it is at least 10**16 > 2**53."""
    b = _POW10.take(16 - k)
    ca, cb = 134217729.0 * a, 134217729.0 * b  # Veltkamp's split at 2**27 + 1 into halves of 26 bits
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format(rows, seps, head=""):
    """The text of the ``(c, m)`` float ``rows``: each row is ``head``, then each value as FLOAT_FORMAT
    writes it followed by its character of ``seps``.  Values are laid out in fixed-width rows of bytes,
    and the 0 bytes that pad them are deleted at the end."""
    c, m = rows.shape
    x = rows.ravel()
    if x.size >= SHORT_CHUNK:  # a shorter chunk makes no numpy call
        a = np.abs(x)
        fixed = (a >= 1e-4) & (a < 1e16)  # FLOAT_FORMAT's fixed notation, up to 16 digits before the point
    if x.size < SHORT_CHUNK or np.count_nonzero(fixed) < SHORT_CHUNK:
        return (head + "".join(FLOAT_FORMAT + s for s in seps)) * c % tuple(x.tolist())
    a = np.where(fixed, a, 1.0)  # the others are written by the template below
    k = np.floor(np.log10(a)).astype(np.intp)  # decimal exponent
    d = _scaled(a, k)  # the 17 digits
    while (off := np.flatnonzero((d - 10 ** 16).view(_U) >= _U(9 * 10 ** 16))).size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)  # log10 is off by one next to a power of ten
        d[off] = _scaled(a[off], k[off])
    d = d.view(_U)
    q = d // _U(10 ** 8)
    lead = q // _U(10 ** 8)  # the first digit
    raw = np.stack((q - lead * _U(10 ** 8), d - q * _U(10 ** 8)))
    # digits 2-9 and 10-17, one a byte of each word, first digit in the low byte
    q = raw // _U(10_000)
    raw = q | (raw - q * _U(10_000)) << _U(32)
    q = (raw * _U(10_486)) >> _U(20) & _U(0x7F_0000_007F)  # // 100 in each 32-bit half
    raw = q | (raw - q * _U(100)) << _U(16)
    q = (raw * _U(103)) >> _U(10) & _U(0xF_000F_000F_000F)  # // 10 in each 16-bit quarter
    raw = q | (raw - q * _U(10)) << _U(8)
    top = (np.frexp(raw.astype(float))[1] - 1) >> 3  # each word's last nonzero byte, -1 if none
    sig = np.where(top[1] >= 0, top[1] + 10, np.maximum(top[0] + 2, 1))  # digits but the trailing zeros
    raw |= _U(0x3030_3030_3030_3030)
    # the 17 digits as a 24-byte string
    s = np.stack((lead + _U(48) | raw[0] << _U(8), raw[0] >> _U(56) | raw[1] << _U(8), raw[1] >> _U(56)))
    s &= _LOW.take(np.maximum(sig, k + 1), axis=1)  # trailing zeros after the point dropped
    cut = np.where((k >= 0) & (sig > k + 1), k + 1, 24)  # the point goes before digit k + 2
    low = s & _LOW.take(cut, axis=1)
    s ^= low
    low |= _POINT.take(cut, axis=1)
    low |= s << _U(8)  # the digits after the point move on a byte
    low[1:] |= s[:2] >> _U(56)
    # 32 bytes a value: sign and "0.000" prefix, digits and point, then 0 bytes up to the separator's byte 31
    frame = np.vstack((_PREFIX.take(k + 4 + 20 * np.signbit(x)), low)).T.astype("<u8", order="C").view(np.uint8)
    other = np.flatnonzero(~fixed)
    if other.size:
        padded = np.frombuffer((f"%-31{FLOAT_FORMAT[1:]}" * other.size % tuple(x[other].tolist())).encode(), np.uint8)
        frame[other, :31] = (padded * (padded != 32)).reshape(-1, 31)  # padded to 31 bytes with 0s, not spaces
    frame.reshape(c, m, 32)[:, :, 31] = np.frombuffer(seps.encode(), np.uint8)
    text = frame.reshape(c, -1)
    if head:
        text = np.concatenate((np.broadcast_to(np.frombuffer(head.encode(), np.uint8), (c, len(head))), text), axis=1)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(rows, seps, head=""):
    """Yield the text of the ``(n, m)`` float ``rows``, in pieces of at most CHUNK values: each row is
    ``head``, then each value as FLOAT_FORMAT writes it and its character of the length-m ``seps``."""
    n, m = rows.shape
    step = max(CHUNK // max(m, 1), 1)  # whole rows a piece, or one row in pieces of CHUNK values
    for start in range(0, n, step):
        for col in range(0, max(m, 1), CHUNK):
            yield _format(rows[start:start + step, col:col + CHUNK], seps[col:col + CHUNK], "" if col else head)


def write_records(header, dims, rows, per_line, write) -> None:
    """Write each row of the ``(n, m)`` stack ``rows`` as one ``header`` record.

    Every record has the dims line ``dims`` and ``per_line`` values to a line;
    records are blank-line separated.  ``write`` receives the text in pieces
    of at most CHUNK values each.
    """
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    per_line = whole(per_line, 1, "values per line")
    full, rest = divmod(m, per_line)
    seps = (" " * (per_line - 1) + "\n") * full + (" " * (rest - 1) + "\n") * bool(rest)
    # every record but the first opens with the blank separator line
    head = f"\n{header}\ndims {' '.join(str(d) for d in dims)}\n"
    for i, piece in enumerate(format_rows(rows, seps, head)):
        write(piece if i else piece[1:])


def _finite_arrays(arrays) -> list:
    arrays = list(map(as_array, arrays))
    for i, a in enumerate(arrays, start=1):
        if not np.isfinite(a).all():
            check_finite(a, rvec(a)[None, :], a.shape, f"array {i}", "")
    return arrays


def _write_arrays(arrays, write) -> None:
    for i, (shape, group) in enumerate(groupby(arrays, key=np.shape)):
        if i:
            write("\n")
        write_records("ARRV1", shape, [rvec(a) for a in group], shape[0], write)


def dump_arrays(arrays) -> str:
    """Render a sequence of arrays, blank-line separated, one mode-1 fiber per line; a nan or inf is a ValueError."""
    out = []
    _write_arrays(_finite_arrays(arrays), out.append)
    return "".join(out)


def write_arrays(arrays, path) -> None:
    arrays = _finite_arrays(arrays)  # checked before the file is opened: a rejected call creates no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_arrays(arrays, fh.write)


class _Replay(Exception):
    """A sign of a fault in the step being read: the step is read again in exact mode."""


def _records(lines, source, header, order):
    # parse_records' records in the iterator `lines`, a (dims, rows) block per step once converted; a sign of a
    # fault sends the walk back to `mark` in exact mode, which converts each token as it passes
    window, base = [], 0  # the lines, from line `base` (0-based) on, that the parse may still need
    pieces, pending = [], []  # converted values of the current step; tokens not yet converted
    exact, nonfinite = False, None  # exact mode; in it, (line number, message) of the record's first nan/inf

    def have(ln):  # whether line ln exists; lines are read into the window a few beyond it
        if ln >= base + len(window):
            window.extend(islice(lines, ln + 32 - base - len(window)))
        return ln < base + len(window)

    def fail(ln, msg):
        raise FormatError(f"{source}:{ln}: {msg}") if exact else _Replay

    def convert():
        try:
            values = np.fromiter(map(float, pending), float, len(pending))
        except ValueError:
            raise _Replay from None
        if not (exact or np.isfinite(values).all()):
            raise _Replay
        pieces.append(values)
        pending.clear()

    # Where a replay starts: the line, the record's dims and size m, the values of it read (m between
    # records), and the last dims line read, whose text a run of same-shape records repeats.
    lineno, m, read, dims, dims_text = mark = (0, 0, 0, None, None)
    # Run step: the header line of the last record read (None when m > CHUNK),
    # the token count of each of its data lines, and the number of records the
    # next step tries to take, which doubles after each step up to CHUNK // m
    # and drops to 1 after the line walk.
    last, counts, take = None, [], 1
    while True:
        try:
            if read == m:  # between records, not replaying from inside a long one
                if pending or pieces:
                    # the last step's records are read in full
                    convert()
                    yield dims, (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)).reshape(-1, m)
                    cut = lineno if last is None else last
                    del window[:cut - base]
                    base, pieces, mark = cut, [], (lineno, m, read, dims, dims_text)
                while have(lineno) and not window[lineno - base].strip():
                    lineno += 1
                if lineno >= base + len(window):
                    break
                if not exact and last is not None and have(lineno + 1) and window[lineno + 1 - base] == dims_text:
                    # Take the next records in one step when each repeats the last
                    # record's lines: its header, dims and separator lines verbatim,
                    # and its token count on every data line.  Anything else is left
                    # to the line walk below, which reports the fault.  A next record
                    # whose dims line differs (another shape, or other spacing) skips
                    # the attempt, which costs more than walking a small record.
                    period = lineno - last
                    fixed = [(j, window[last + j - base]) for j in (0, 1, *range(2 + len(counts), period))]
                    have(lineno + take * period - 1)
                    k = min(take, (base + len(window) - lineno) // period)
                    seg = window[lineno - base:lineno - base + k * period]
                    if k and all(seg[j::period] == [line] * k for j, line in fixed):
                        columns = [seg[j::period] for j in range(2, 2 + len(counts))]
                        tokens = list(map(str.split, chain.from_iterable(zip(*columns))))
                        if list(map(len, tokens)) == counts * k:
                            pending += chain.from_iterable(tokens)
                            last = lineno + (k - 1) * period
                            lineno += k * period
                            take = min(2 * take, CHUNK // m)
                            continue
                head = lineno
                got = window[lineno - base].strip()
                if got != header:
                    fail(lineno + 1, f"expected {header} header, got {got!r}")
                lineno += 1
                if not have(lineno):
                    fail(lineno, "missing dims line")
                if window[lineno - base] != dims_text:
                    dims_line = window[lineno - base].split()
                    if not dims_line or dims_line[0] != "dims":
                        fail(lineno + 1, "expected 'dims m1 m2 ...' line")
                    try:
                        dims = tuple(int(t) for t in dims_line[1:])
                    except ValueError:
                        fail(lineno + 1, f"non-integer dimension in {window[lineno - base].strip()!r}")
                    if len(dims) < 1 or any(d < 1 for d in dims):
                        fail(lineno + 1, f"invalid dims {dims}")
                    if order is not None and len(dims) != order:
                        fail(lineno + 1, f"expected {order} dims, got {len(dims)}")
                    dims_text, m = window[lineno - base], shape_size(dims)
                lineno += 1
                counts, read, nonfinite = [], 0, None
            while read < m:
                if not have(lineno):
                    fail(base + len(window), f"unexpected end of input: got {read} of {m} values")
                tokens = window[lineno - base].split()
                if not tokens and not read:
                    fail(lineno + 1, "blank line before any data values")
                for t in tokens[:m - read] if exact else ():
                    try:
                        value = float(t)
                    except ValueError:
                        fail(lineno + 1, f"bad numeric token {t!r}")
                    if nonfinite is None and not math.isfinite(value):
                        nonfinite = (lineno + 1, f"non-finite value {t!r}")
                if len(tokens) > m - read:
                    fail(lineno + 1, f"extra token {tokens[m - read]!r} after {m} values")
                pending += tokens
                counts.append(len(tokens))
                read += len(tokens)
                lineno += 1
                if len(pending) >= CHUNK and read < m:
                    # a record of more than CHUNK values: convert what it has so far, let its lines go, and
                    # replay from here should a later chunk hold a fault
                    convert()
                    del window[:lineno - base]
                    base, mark = lineno, (lineno, m, read, dims, dims_text)
            if nonfinite:
                fail(*nonfinite)
            last, take = (head if m <= CHUNK else None), 1
        except _Replay:
            exact = True
            pending.clear()  # `pieces` holds the values converted before the mark
            lineno, m, read, dims, dims_text = mark


def parse_records(text, source, header, order=None) -> list:
    """Parse zero or more ``header`` records from ``text`` into ``(dims, rows)`` pairs.

    Each run of consecutive records of one shape gives one pair: ``rows`` is
    the ``(k, m)`` block of their values, one record per row, in file order.
    With ``order`` set, every dims line must list exactly that many
    dimensions.  Raises :class:`FormatError` with ``source:line:`` at the
    first fault in file order, including a nan or inf value, which counts as
    found once its record has been read in full.
    """
    blocks = _records(iter(text.splitlines()), source, header, order)
    return [(dims, np.concatenate([rows for _, rows in run])) for dims, run in groupby(blocks, key=lambda b: b[0])]


def parse_arrays(text, source="<string>") -> list:
    """Parse zero or more ARRV1 arrays from ``text``.

    Raises :class:`FormatError` with ``source:line:`` on any malformed input.
    """
    return [a for dims, rows in parse_records(text, source, "ARRV1") for a in unrvec_rows(rows, dims)]


def read_records(path, header, order=None):
    """Yield the records of the file at ``path`` in ``(dims, rows)`` blocks of one step each, as they are read."""
    with open(path, "rb") as fh:  # decoded a block of whole lines at a time: no "\r\n" or UTF-8 sequence is split
        blocks = (b if b.endswith(b"\n") else b + fh.readline() for b in iter(lambda: fh.read(1 << 16), b""))
        texts = (b.decode("utf-8", "surrogateescape") for b in blocks)  # a byte that is not UTF-8 makes a bad token
        yield from _records(chain.from_iterable(map(str.splitlines, texts)), str(path), header, order)


def only_record(blocks, source, noun) -> tuple:
    """The ``(dims, values)`` of the one record in the ``(dims, rows)`` ``blocks``.

    The blocks are read to the end, and only the first is kept.  Raises
    :class:`FormatError` when they hold any other number of records.
    """
    count, first = 0, None
    for dims, rows in blocks:
        count, first = count + len(rows), first or (dims, rows[0])
    if count != 1:
        raise FormatError(f"{source}:1: expected exactly one {noun}, found {count}")
    return first


def read_array(path) -> np.ndarray:
    """Read a file expected to hold exactly one ARRV1 array."""
    dims, values = only_record(read_records(path, "ARRV1"), path, "array")
    return unrvec(values, dims)
