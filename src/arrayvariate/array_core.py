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
import re
import sys
from itertools import groupby, islice

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
# Several arrays may follow one another in a file, separated by blank lines.  A
# record's values are its array's rvec, so n arrays of one shape are an (n, m)
# stack of rows.  MATV1 (:mod:`arrayvariate.linalg`) is the same record
# grammar under its own header, so both formats are written by
# :func:`write_records` and read by :func:`read_records`.  The writer handles
# values a chunk of at most CHUNK at a time, and the reader a step of about
# STEP.  The writer computes a chunk's digits exactly in numpy, and writes 0,
# inf, nan, |x| < 1e-4 or >= 1e16 and chunks too short to pay numpy's per-call
# cost through one FLOAT_FORMAT template, to the same bytes (:func:`_format`).
# A reader step converts the value tokens of the writer's grammar
# [-]digits[.digits][e(+|-)d{1,3}] from the step's bytes in numpy, exactly as
# float() would (:func:`_values`), and sends float() the tokens out of that
# grammar one at a time, so a value token is anything float() accepts.  A step
# holding anything else is read again by the token-by-token walk
# (:func:`_walk`), which names the first fault in file order and reads the
# rest of the file: a byte out of "0-9.-+eE", space, "\n" and a "\r" right
# before "\n" among its values (a tab, another "\r" or another str.splitlines
# break, a byte that is not UTF-8), a header or dims line that is not
# printable ASCII, a line out of place, a token float() rejects, a nan or inf.
# When m <= STEP, a step takes the records that repeat its first record's
# lines (a writer's run of one shape), up to STEP // m, and hands them on as
# one (k, m) block of rows; a longer record is read in steps of about STEP
# values of whole lines.  The first values of a run of short records are read
# token by token (SHORT_STEP).
# ---------------------------------------------------------------------------

# Values per chunk when writing: 4,096 formats as fast as 65,536 did, and faster than 8,192 (141 against 181 ns a
# value on 8x8x8 normal draws, 2 shared cores).
CHUNK = 4096
# Values per reader step, about 0.2 MB of text.  Whole-file reads of the benchmark's sample files (2 shared cores)
# took 59.8, 51.9 and 50.9 ms (32x32x16), 18.0, 15.1 and 15.4 ms (8x8x8) and 8.1, 7.0 and 8.1 ms (2x3) in steps of
# 4,096, 8,192 and 16,384 values, peaking at 0.9-1.2, 1.6-2.2 and 3.3-4.3 MB traced.
STEP = 8192
FLOAT_FORMAT = "%.17g"  # 17 significant digits: lossless float64 round trip
# Chunks with fewer values in the numpy formatter's range use the template: on normal draws (2 shared
# cores) both took about 0.2 ms at 256 values (188 against 211 us), and at 512 numpy took 276 against 483 us.
SHORT_CHUNK = 256
# The first SHORT_STEP values of a run of records with fewer values each are read token by token, so that a run
# too short to pay a byte step's numpy calls takes none: read alone (2 shared cores), 512 values took 229 us so
# against 357 us in a byte step, and 1,024 values 433 against 429 us.  Read so, a record's header, dims and line
# ends cost about as much as RECORD_VALUES values (10.7 against 0.385 us), and count as that many.
SHORT_STEP = 1024
RECORD_VALUES = 28
_VALUE_BYTES = b"0123456789.-+eE"
_BLANK = re.compile(rb"(?:[ \n]|\r\n)*(?:\r\Z)?")  # blank lines; a last "\r" may be one of "\r\n"

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


def write_arrays(arrays, path) -> None:
    """Write arrays to ``path`` as ARRV1, one mode-1 fiber per line; an empty or non-finite array is a ValueError."""
    arrays = list(map(as_array, arrays))
    for i, a in enumerate(arrays, start=1):  # checked before the file is opened: a rejected call creates no file
        try:
            shape_size(a.shape)
        except ValueError as exc:
            raise ValueError(f"array {i}: {exc}") from None
        if not np.isfinite(a).all():
            check_finite(a, rvec(a)[None, :], a.shape, f"array {i}", "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (shape, group) in enumerate(groupby(arrays, key=np.shape)):
            if i:
                fh.write("\n")
            write_records("ARRV1", shape, [rvec(a) for a in group], shape[0], fh.write)


class _Replay(Exception):
    """A sign of a fault, or of a byte the byte step leaves alone, in the step being read."""


# --- the reader's converter ------------------------------------------------
#
# _values converts the value tokens of a step's bytes that match the grammar
# [-]digits[.digits][e(+|-)d{1,3}] in numpy, exactly, as float() would.  A token
# is gathered as the 24 bytes that end at its last byte, three little-endian
# words, with the bytes before it cleared.  Its digits, read 8 to a word as the
# writer builds them, give D < 10**19, every digit of the token in order, and
# the decimal exponent e: the value is D * 10**e.  Where np.longdouble is the
# x87 80-bit format (_X87), a value whose exponent lies in [-27, 27] is rounded
# with one long-double multiply or divide; every other value, and every value
# elsewhere, with Clinger's case or a double-double product (_rounded).  The
# (n, 3) words are computed in place, so a step holds about 120 bytes a value
# beyond its text.

# row n: the last n of 24 bytes, as three little-endian words
_LAST = np.array([[sum(0xFF << 8 * (j - 8 * w) for j in range(8 * w, 8 * w + 8) if j >= 24 - n) for w in range(3)]
                  for n in range(25)], _U)
_GATHER = _U(0x0102_0408_1020_4080)  # a word of bits 8j times this holds bit j in its top byte
_P10 = np.array([10 ** j for j in range(20)], _U)
# the non-digit bytes 19-23 of a token past its sign (bit j: byte 19 + j) -> the byte of its 'e', 24 for none
_E_AT = np.full(32, -1)
_E_AT[[0, 1, 2, 4, 8, 16]] = 24
_E_AT[[3, 6, 12]] = [19, 20, 21]
_E_LOW = -342  # powers of ten 10**_E_LOW to 10**308: a value out of them is not a normal double


def _powers_of_ten(high=308):
    """``(hi, lo, s, hi's high half, hi's low half)`` for e from _E_LOW to ``high``, with hi in [1, 2): ``hi + lo``
    is 10**e / 2**s cut after 105 bits, so 0 <= 10**e / 2**s - (hi + lo) < 2**-105 and 0 <= lo < 2**-52; the
    halves of hi have 26 and 27 bits, for Dekker's product."""
    tens = [1]
    while len(tens) <= max(-_E_LOW, high):
        tens.append(tens[-1] * 10)
    cuts, scales = [], []
    for e in range(_E_LOW, high + 1):
        bits = tens[abs(e)].bit_length()
        scales.append(bits - 1 if e >= 0 else -bits)
        cuts.append(tens[e] << 105 >> bits - 1 if e >= 0 else (1 << 105 + bits) // tens[-e])  # 10**e * 2**(105 - s)
    hi = np.array([t >> 53 for t in cuts], np.float64) / 2.0 ** 52
    c = 134217729.0 * hi
    return (hi, np.array([t & (1 << 53) - 1 for t in cuts], np.float64) / 2.0 ** 105, np.array(scales),
            c - (c - hi), hi - (c - (c - hi)))


_PH, _PL, _PS, _PH_HI, _PH_LO = _powers_of_ten()


def _x87():
    """Whether ``np.longdouble`` is the x87 80-bit format, 16 bytes little-endian with its 64-bit significand in
    the first 8: of the long doubles numpy has, only it holds 2**63 + 1 and not 2**64 + 1 (np.finfo may warn)."""
    one, top = np.longdouble(1), np.longdouble(2.0 ** 63)
    return bool(np.dtype(np.longdouble).itemsize == 16 and sys.byteorder == "little" and top + one - top == one
                and 2 * top + one - 2 * top == 0)


_X87 = _x87()
_LD10 = np.cumprod(np.r_[np.longdouble(1), np.full(27, np.longdouble(10))])  # 10**j, exact where _X87 holds


def _rounded(d, e):
    """The doubles nearest D * 10**e for the integers ``d`` below 10**19 and the exponents ``e``, and whether each
    is certain: by Clinger's case, else by the double-double product, which is not certain too near the midpoint of
    two doubles or for a value that is not a normal double below 2**1023."""
    df = d.astype(np.float64)
    fast = (d < _U(1 << 53)) & (np.abs(e) <= 22)
    # Clinger's case: D and 10**|e| are exact doubles, so one multiply or divide rounds correctly
    val = df * _POW10.take(e, mode="clip")
    val /= _POW10.take(-e, mode="clip")
    if fast.all():
        return val, fast
    # The error bound.  Y = D * p with p = 10**e / 2**s in [1, 2), and P = hi + lo from the table:
    # 0 <= p - P < 2**-105 and 0 <= lo < 2**-52.  D = df + dl exactly, |dl| <= 2**-52 * df however
    # the conversion to float rounds.  h + l = df * hi exactly (Dekker's product), and with
    # lo' = l + (df * lo + dl * hi) summed in floating point,
    #   Y - (h + lo') = df (p - P) + dl (p - hi) + (l + df * lo + dl * hi - lo').
    # The first term is below 2**-105 Y and the second below 2**-52 * 2**-51.9 Y.  The roundings in
    # lo' are of two products below 2**-52 Y and 2**-51 Y, their sum and a total below 2**-50 Y:
    # 2**-105 + 2**-104 + 1.5 * 2**-104 + 2**-103 in units of Y.  So |Y - (h + lo')| < 6.5 * 2**-104 Y
    # < 2**-101 Y.  r = h + lo' rounded and res = h + lo' - r exactly (Fast2Sum), so r is Y correctly
    # rounded when |res| + 2**-101 Y is below half the gap from r to its neighbour on res's side:
    # 2**-53 * t with t = 2**floor(log2 r), or 2**-54 * t below r = t.  Y < 2t (1 + 2**-52), so
    # 2**-98 * t bounds the error with room to spare.
    k = np.clip(e - _E_LOW, 0, len(_PH) - 1)
    hi, b_hi, b_lo = _PH.take(k), _PH_HI.take(k), _PH_LO.take(k)
    dl = (d - df.astype(_U)).view(np.int64).astype(np.float64)
    h = df * hi
    a_hi = df * 134217729.0
    a_lo = a_hi - df
    a_hi -= a_lo  # Veltkamp's split of df at 2**27 + 1
    np.subtract(df, a_hi, out=a_lo)
    # lo' = (((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo) + (df * lo + dl * hi), each product
    # written over an operand it uses last
    lo = a_hi * b_hi
    lo -= h
    a_hi *= b_lo
    lo += a_hi
    b_hi *= a_lo
    lo += b_hi
    a_lo *= b_lo
    lo += a_lo
    df *= _PL.take(k)
    dl *= hi
    df += dl
    lo += df
    r = np.add(h, lo, out=hi)
    h -= r
    lo += h
    res = np.abs(lo, out=lo)  # |lo' - (r - h)|
    t = (r.view(np.int64) & 0x7FF0_0000_0000_0000).view(np.float64)
    y = np.ldexp(r, _PS.take(k))  # exact where y is a normal double; a clipped e puts y out of them
    sure = (res < t * (2.0 ** -53 - 2.0 ** -98)) & ((res < t * (2.0 ** -54 - 2.0 ** -98)) | (r != t))
    sure &= (y >= 2.0 ** -1022) & (y < 2.0 ** 1023)
    return np.where(fast, val, y), fast | sure


def _values(buf, ends, sizes):
    """The values of the tokens ``buf[e - n:e]`` for e, n in ``ends`` and ``sizes``; every token ends 24 or
    more bytes into ``buf``.  Where _X87 holds, a value whose |e| <= 27 is rounded in the x87 long double; the
    others, and every value elsewhere, by :func:`_rounded`.  A token out of the grammar, or whose value lands on
    the midpoint of two doubles in the long double, or that :func:`_rounded` is not certain of, goes to
    ``float()``; one that ``float()`` rejects, holds a byte out of "0-9.+-eE" or is not finite raises _Replay."""
    with np.errstate(all="ignore"):  # a token out of the grammar may overflow; its value is not used
        n = len(ends)
        b = np.frombuffer(buf, np.uint8)
        at = ends - 24
        short = np.minimum(sizes, 24)
        # the (n, 3) words, computed in place: bytes, then digits, then each word's digits as one number
        v = np.ndarray((len(buf) - 23,), "V24", buf, 0, (1,))[at].view("<u8").reshape(n, 3)
        v &= _LAST.take(short, axis=0)
        value = v.view(np.uint8)
        value -= np.uint8(0x30)
        digit = value < 10
        value *= digit
        g = digit.view("<u8")
        g *= _GATHER
        g >>= _U(56)
        digits = g[:, 0] | g[:, 1] << _U(8)
        digits |= g[:, 2] << _U(16)
        digits = digits.view(np.int64)  # bit j: byte j is a digit
        del digit, g
        start = 24 - short
        first = np.left_shift(1, start)
        other = (digits ^ 0xFF_FFFF) & -first  # bit j: byte j, no digit
        neg = (other & first) != 0  # a sign byte; it must be '-'
        rest = other & ~first
        pe = _E_AT.take(rest >> 19)  # bytes pe and pe + 1 are 'e' and the exponent's sign
        rest &= ~np.left_shift(3, pe)
        q = np.frexp(rest.astype(np.float64))[1] - 1  # the point's byte, -1 for none
        point = q >= 0
        sign = b.take(at + pe + 1, mode="clip")
        ok = (pe >= 0) & (rest & (rest - 1) == 0) & (sizes <= 24) & (digits & (first << neg) != 0)
        ok &= ~point | (np.right_shift(digits << 1, q) & 5 == 5) & (b.take(at + q, mode="clip") == 0x2E)
        ok &= ~neg | (b.take(at + start) == 0x2D)
        ok &= (pe == 24) | (b.take(at + pe, mode="clip") == 0x65) & ((sign == 0x2B) | (sign == 0x2D))
        del other, rest, digits, first, start, short
        # the digits of each word as one number, first digit most significant, the others 0
        v *= _U(2561)
        v >>= _U(8)
        v &= _U(0x00FF_00FF_00FF_00FF)
        v *= _U(6553601)
        v >>= _U(16)
        v &= _U(0x0000_FFFF_0000_FFFF)
        v *= _U(42949672960001)
        v >>= _U(32)
        tail = 24 - pe
        np.minimum(tail, 5, out=tail)  # bytes of "e+dd", the last of them the exponent's digits
        ten = _POW10.take(tail)
        power = v[:, 2].astype(np.float64)
        cut = power / ten
        np.floor(cut, out=cut)  # exact: v[:, 2] < 10**8
        ten *= cut
        power -= ten
        # the mantissa's digits with a 0 for its point, below 10**19 if v[:, 0] < 10**(3 + tail)
        mant = v[:, 0] * _U(10 ** 8)
        mant += v[:, 1]
        mant *= _P10.take(8 - tail)
        mant += cut.astype(_U)
        ok &= v[:, 0] < _P10.take(3 + tail)
        del v, value, ten, cut
        frac = pe - q
        frac -= 1
        frac *= point  # digits after the point
        f = np.where(point, frac, 18)
        np.minimum(f, 18, out=f)
        d = mant // _P10.take(f + 1, mode="clip")
        d *= _P10.take(f, mode="clip")
        d *= _U(9)
        np.subtract(mant, d, out=d)  # the point's 0 out
        del mant, f
        e = power.astype(np.int64)
        e *= 1 - 2 * ((pe < 24) & (sign == 0x2D))
        e -= frac
        if _X87:
            # D < 10**19 < 2**64 and 10**|e| = 5**|e| * 2**|e| with 5**27 < 2**63 are exact in the 64-bit
            # significand, so one multiply or divide rounds Y = D * 10**e once, to Y', where |e| <= 27.  Every
            # midpoint of two doubles is exact in 64 bits, so Y' is on Y's side of each one, and rounding Y' to a
            # double rounds Y correctly unless Y' is a midpoint: its last 11 bits are then 0x400.  Y is 0 or in
            # [1e-27, 1e46), where every double is normal, so no cast overflows or goes subnormal.  A value
            # whose |e| > 27 is rounded by _rounded instead; its long double is not used.
            y = d.astype(np.longdouble)
            if e.max() > 0:
                y *= _LD10.take(e, mode="clip")
            if e.min() < 0:
                y /= _LD10.take(-e, mode="clip")
            sure = y.view(_U)[::2] & _U(0x7FF) != _U(0x400)
            val = y.astype(np.float64)
            del y
            far = np.flatnonzero((e < -27) | (e > 27))
            if far.size:
                val[far], sure[far] = _rounded(d[far], e[far])
        else:
            val, sure = _rounded(d, e)
        ok &= sure
        val *= 1.0 - 2.0 * neg
        for i in np.flatnonzero(~ok).tolist():
            token = buf[ends[i] - sizes[i]:ends[i]]
            if token.translate(None, _VALUE_BYTES):
                raise _Replay
            try:
                val[i] = float(token)
            except ValueError:
                raise _Replay from None
        if not np.isfinite(val).all():
            raise _Replay
    return val


def _scan(buf, a, z):
    """Token and line bounds of ``buf[a:z]``, whole lines from a line start, the last ending at z: each
    token's end and size, each line's token count and end (its "\\n", or z).  A byte below 0x20 other than
    "\\n", and "\\r" right before one, raises _Replay; that "\\r" separates as a space does."""
    b = np.frombuffer(buf, np.uint8, z - a, a)
    ws = np.flatnonzero(b <= 32)
    ch = b.take(ws)
    other = ws[(ch != 32) & (ch != 10)]
    if other.size and ((b.take(other) != 13) | (b.take(other + 1, mode="clip") != 10)).any():
        raise _Replay
    brk = ch == 10
    if not brk.size or ws[-1] != z - a - 1 or not brk[-1]:  # the file's last line, with no "\n"
        ws, brk = np.append(ws, z - a), np.append(brk, True)
    gap = np.diff(ws, prepend=-1)
    token = gap > 1  # a token ends at this space or line end
    return ws[token] + a, gap[token] - 1, np.diff(np.cumsum(token)[brk], prepend=0), ws[brk] + a


def _lines_of(head, blocks):
    """The lines of the bytes ``head`` and then ``blocks``, as ``str.splitlines`` reads their UTF-8 text, a byte
    that is not UTF-8 as a lone surrogate: decoded a run of whole lines at a time, so that no "\\r\\n" or UTF-8
    sequence is split."""
    for block in blocks:
        head += block
        cut = head.rfind(b"\n") + 1
        yield from head[:cut].decode("utf-8", "surrogateescape").splitlines()
        head = head[cut:]
    yield from head.decode("utf-8", "surrogateescape").splitlines()


def _walk(lines, source, header, order, lineno, record):
    """The records in ``lines``, the text from line ``lineno`` (0-based) of ``source`` on, token by token: one
    ``(dims, rows)`` block a record.  ``record`` is ``(dims, m, rows read before line lineno, their count)`` of a
    record whose data lines ``lines`` go on with, or None.  A FormatError names the first fault in file order."""
    window, base = [], lineno  # the lines from line `base` on that are read but not passed

    def line():  # the text of line `lineno`, or None past the last
        nonlocal base
        if lineno == base + len(window):
            base, window[:] = lineno, islice(lines, 64)
        return window[lineno - base] if window else None

    def fail(ln, msg):
        raise FormatError(f"{source}:{ln}: {msg}")

    dims, m, head, read = record or (None, 0, [], 0)
    while True:
        if read == m:  # between records
            if m:
                yield dims, np.concatenate(head).reshape(1, m)
            while (text := line()) is not None and not text.strip():
                lineno += 1
            if text is None:
                return
            if text.strip() != header:
                fail(lineno + 1, f"expected {header} header, got {text.strip()!r}")
            lineno += 1
            if (text := line()) is None:
                fail(lineno, "missing dims line")
            if isinstance(dims := _dims_of(text, order), str):
                fail(lineno + 1, dims)
            m, head, read = shape_size(dims), [], 0
            lineno += 1
        values, nonfinite = [], None  # the record's first nan or inf: (line number, message)
        while read < m:
            if (text := line()) is None:
                fail(base + len(window), f"unexpected end of input: got {read} of {m} values")
            tokens = text.split()
            if not tokens and not read:
                fail(lineno + 1, "blank line before any data values")
            try:
                line_values = list(map(float, tokens[:m - read]))
            except ValueError:
                fail(lineno + 1, f"bad numeric token {next(t for t in tokens if _float_or_none(t) is None)!r}")
            if nonfinite is None and not all(map(math.isfinite, line_values)):
                t = tokens[[math.isfinite(v) for v in line_values].index(False)]
                nonfinite = (lineno + 1, f"non-finite value {t!r}")
            values += line_values
            if len(tokens) > m - read:
                fail(lineno + 1, f"extra token {tokens[m - read]!r} after {m} values")
            read += len(tokens)
            lineno += 1
        if nonfinite:
            fail(*nonfinite)
        head.append(values)


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


def _dims_of(text, order):
    """The dims of a dims line's ``text``, or the message that names its fault."""
    words = text.split()
    if not words or words[0] != "dims":
        return "expected 'dims m1 m2 ...' line"
    try:
        dims = tuple(int(t) for t in words[1:])
    except ValueError:
        return f"non-integer dimension in {text.strip()!r}"
    if len(dims) < 1 or any(d < 1 for d in dims):
        return f"invalid dims {dims}"
    if order is not None and len(dims) != order:
        return f"expected {order} dims, got {len(dims)}"
    return dims


def _records(blocks, source, header, order):
    # read_records' records in the byte blocks, a (dims, rows) block per step; see the ARRV1 notes above
    head_line = header.encode()
    buf, at, lineno = b" " * 24, 24, 0  # bytes read; the next line starts at buf[at], line `lineno` (0-based)
    ended = False  # whether buf holds the rest of the file
    per_value = 24.0  # bytes a value took in the last byte step, with its share of the other lines

    def more():  # add a block to buf; False at the end of the file
        nonlocal buf, ended
        block = next(blocks, b"")
        buf += block
        ended = not block
        return not ended

    def line_end(i):  # the end of the line from buf[i]: its "\n", or the end of the file
        while (j := buf.find(b"\n", i)) < 0 and more():
            pass
        return j if j >= 0 else len(buf)

    def line_text(i, j):  # the line buf[i:j] that ends at j, less the "\r" of its "\r\n"
        return buf[i:j - 1] if j < len(buf) and buf.endswith(b"\r", i, j) else buf[i:j]

    def window(size):  # the end of about `size` bytes of whole lines from `at`, at least one line
        while len(buf) - at < size and more():
            pass
        if ended and len(buf) - at <= size:
            return len(buf)
        return buf.rfind(b"\n", at, at + size) + 1 or min(line_end(at) + 1, len(buf))

    dims_text, dims, m, run = None, None, 0, 0  # the last dims line parsed, its dims and size, and its run's values
    try:
        while True:
            if at > 1 << 17:
                buf, at = buf[at - 24:], 24
            while (end := _BLANK.match(buf, at).end()) == len(buf) and more():
                pass
            cut = buf.rfind(b"\n", at, end) + 1
            if cut:
                lineno, at = lineno + buf.count(b"\n", at, cut), cut
            if end == len(buf):
                return
            mark = (at, lineno, None)
            h = line_end(at)
            d = line_end(h + 1)
            if line_text(at, h).strip(b" ") != head_line or h + 1 >= len(buf):
                raise _Replay
            if (line := line_text(h + 1, d)) != dims_text:
                dims_text = line
                if not (dims_text.isascii() and dims_text.decode().isprintable()):
                    raise _Replay
                if isinstance(dims := _dims_of(dims_text.decode(), order), str):
                    raise _Replay
                m, run = shape_size(dims), 0
            if m < SHORT_STEP and run < SHORT_STEP:
                # the first values of a run of short records: token by token
                run, at, lineno, values = run + m + RECORD_VALUES, d + 1, lineno + 2, []
                while len(values) < m:
                    j = line_end(at)
                    text = line_text(at, j)
                    if at >= len(buf) or text.translate(None, _VALUE_BYTES + b" ") or not (values or text.split()):
                        raise _Replay
                    try:
                        values += map(float, text.split())
                    except ValueError:
                        raise _Replay from None
                    at, lineno = j + 1, lineno + 1
                rows = np.array(values)
                if len(values) > m or not np.isfinite(rows).all():
                    raise _Replay
                yield dims, rows.reshape(1, m)
                continue
            take = STEP // m  # records a step may take; 0: the record is read in steps of about STEP values
            pieces, read, skip = [], 0, 2  # the record's values so far; lines before its data in the step
            while read < m:
                if read:  # the next chunk of a long record: a replay starts here
                    if at > 1 << 17:
                        buf, at = buf[at - 24:], 24
                    mark = (at, lineno, (dims, m, pieces, read))
                start, size = at, int(per_value * (take * m or STEP)) + 256
                while True:
                    z = window(size)
                    ends, sizes, counts, breaks = _scan(buf, at, z)
                    total = np.cumsum(counts[skip:])
                    j = int(np.searchsorted(total, m - read))  # the record's last data line
                    if j < len(total) or ended or take == 0 and len(total) and total[-1]:
                        break
                    size *= 2
                if not len(total) or skip and not total[0] or (total[j] != m - read if j < len(total) else ended):
                    raise _Replay  # no data, a blank first data line, a token after the m-th, or the end of the file
                first = int(counts[:skip].sum())  # tokens of the header and dims lines
                if take == 0:
                    lines, n = skip + min(j + 1, len(total)), int(total[min(j, len(total) - 1)])
                    pieces.append(_values(buf, ends[first:first + n], sizes[first:first + n]))
                    read += n
                else:
                    # the records that repeat this one's lines: header and dims lines verbatim, as many
                    # tokens on each data line, and the same blank lines between records
                    lines = skip + j + 1
                    gap = np.flatnonzero(counts[lines:])
                    period = lines + (int(gap[0]) if gap.size else len(counts) - lines)
                    k = max(1, min(take, len(counts) // period))
                    if k > 1:
                        starts = np.concatenate(([at], breaks[:-1] + 1))
                        size_of = breaks - starts
                        tail = period * np.arange(1, k)
                        same = (counts[period:k * period].reshape(k - 1, period) == counts[:period]).all(1)
                        same &= (size_of[period:k * period].reshape(k - 1, period)[:, [0, 1, *range(lines, period)]]
                                 == size_of[[0, 1, *range(lines, period)]]).all(1)
                        text = np.frombuffer(buf, np.uint8)
                        for row in (0, 1):
                            n = int(size_of[row])
                            pos = starts[tail + row, None] + np.arange(n)
                            same &= (text.take(pos, mode="clip") == text[starts[row]:starts[row] + n]).all(1)
                        k = int(np.argmin(same)) + 1 if not same.all() else k
                        lines += (k - 1) * period
                    per_record = int(counts[:skip + j + 1].sum())
                    pick = (np.arange(k)[:, None] * per_record + np.arange(first, per_record)).ravel()
                    pieces.append(_values(buf, ends[pick], sizes[pick]))
                    read = m
                at, lineno = int(breaks[lines - 1]) + 1, lineno + lines
                per_value = (at - start) / max(len(pieces[-1]), 1)
                skip = 0
            yield dims, (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)).reshape(-1, m)
    except _Replay:
        at, lineno, record = mark
        yield from _walk(_lines_of(buf[at:], blocks), source, header, order, lineno, record)


def read_records(path, header, order=None):
    """Yield the records of the file at ``path`` in ``(dims, rows)`` blocks of one step each, as they are read.

    ``rows`` holds the step's records, one per row; with ``order`` set, each dims line must list that many dims.
    A :class:`FormatError` names ``path:line:`` of the first fault in file order, a nan or inf once its record ends."""
    with open(path, "rb") as fh:
        yield from _records(iter(lambda: fh.read(1 << 16), b""), str(path), header, order)


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
