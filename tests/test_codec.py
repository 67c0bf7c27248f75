"""Differential tests of the chunked ARRV1/MATV1 codec against the per-value
writer and per-token reader kept in tests/support.py.  The writers and the
reader are tested through files, each format's one way in and out.

The property tests run under several writer chunk and reader step sizes,
down to one value per chunk and step, so that records and lines split across
chunks and steps are covered by small inputs.
"""

import math
import os
import platform
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from itertools import cycle, groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayvariate import array_core, linalg
from arrayvariate.array_core import FLOAT_FORMAT, unrvec
from arrayvariate.errors import FormatError
from support import (dump_array, dump_arrays_oracle, dump_matrix_oracle, dump_record_oracle, format_float_oracle,
                     parse_records_oracle, read_arrays, written)

CHUNKS = st.sampled_from([1, 2, 3, 5, array_core.CHUNK])
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.5, 0.1, 1e-7, 123456789.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
# a small pool, so that consecutive arrays often share a shape; several have m1 = 1
SHAPES = st.sampled_from([(1,), (3,), (1, 1), (1, 3), (2, 3), (3, 2), (2, 1, 2), (1, 2, 2)])


def examples(n):
    """``n`` examples, and ten times as many under the thorough profile (``tests/conftest.py``)."""
    return n * settings().max_examples // settings.get_profile("deterministic").max_examples


DEFAULT_CHUNK, DEFAULT_STEP = array_core.CHUNK, array_core.STEP


@contextmanager
def chunk_size(chunk):
    """Writer chunks of ``chunk`` values and reader steps of as many; at the writer's default CHUNK, the reader
    keeps its default STEP."""
    saved = array_core.CHUNK, array_core.STEP
    array_core.CHUNK, array_core.STEP = chunk, DEFAULT_STEP if chunk == DEFAULT_CHUNK else chunk
    try:
        yield
    finally:
        array_core.CHUNK, array_core.STEP = saved


@st.composite
def arrays_of(draw, shape):
    return unrvec(draw(st.lists(VALUES, min_size=math.prod(shape), max_size=math.prod(shape))), shape)


@st.composite
def array_lists(draw, max_size=5):
    return [draw(arrays_of(draw(SHAPES))) for _ in range(draw(st.integers(0, max_size)))]


def values_per_piece(piece, header):
    return sum(len(line.split()) for line in piece.split("\n")
               if line.strip() != header and not line.startswith("dims"))


class TestWriter:
    @settings(max_examples=examples(200))
    @given(array_lists(), CHUNKS)
    def test_write_arrays_matches_oracle(self, arrays, chunk):
        with chunk_size(chunk):
            assert written(array_core.write_arrays, arrays) == dump_arrays_oracle(arrays)
            for a in arrays:
                assert dump_array(a) == dump_arrays_oracle([a])

    @settings(max_examples=examples(200))
    @given(SHAPES, st.integers(0, 6), st.data(), CHUNKS)
    def test_write_records_matches_oracle_in_bounded_pieces(self, shape, n, data, chunk):
        rows = np.array([array_core.rvec(data.draw(arrays_of(shape))) for _ in range(n)]).reshape(n, math.prod(shape))
        pieces = []
        with chunk_size(chunk):
            array_core.write_records("ARRV1", shape, rows, shape[0], pieces.append)
        assert "".join(pieces) == dump_arrays_oracle([unrvec(r, shape) for r in rows])
        assert all(values_per_piece(p, "ARRV1") <= chunk for p in pieces)

    @settings(max_examples=examples(200))
    @given(st.integers(1, 4), st.integers(1, 4), st.data(), CHUNKS)
    def test_write_matrix_matches_oracle(self, r, c, data, chunk):
        a = np.array(data.draw(st.lists(VALUES, min_size=r * c, max_size=r * c))).reshape(r, c)
        with chunk_size(chunk):
            assert written(linalg.write_matrix, a) == dump_matrix_oracle(a)

    def test_special_values_and_empty_inputs(self):
        x = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [-1.7976931348623157e308, 2.225073858507201e-308, 1.0]])
        assert dump_array(x) == dump_arrays_oracle([x])
        assert written(linalg.write_matrix, x) == dump_matrix_oracle(x)
        assert written(array_core.write_arrays, []) == dump_arrays_oracle([]) == ""
        pieces = []
        array_core.write_records("ARRV1", (2, 3), np.empty((0, 6)), 2, pieces.append)
        assert pieces == []

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0,), (2, 0, 2)])
    def test_zero_size_shapes_are_rejected_before_writing(self, file_dir, shape):
        # the readers accept no zero dimension, so a file written with one could not be read back
        path = file_dir / "empty.txt"
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match=r"^array 2: array dimension must be a whole number >= 1, got 0$"):
            array_core.write_arrays([np.ones(2), np.zeros(shape)], path)
        assert not path.exists()
        if len(shape) == 2:
            with pytest.raises(ValueError, match=r"^array dimension must be a whole number >= 1, got 0$"):
                linalg.write_matrix(np.zeros(shape), path)
            assert not path.exists()


# --- the numpy formatter ---------------------------------------------------
#
# array_core._format computes the digits of the values in FLOAT_FORMAT's fixed
# notation (1e-4 <= |x| < 1e16) in numpy and splices in the template's text
# for the rest.  These tests hold it to the per-value oracle byte for byte.

def floats_of_bits(bits):
    return np.array(bits, dtype=np.uint64).view(float)


def formatter_oracle(values, seps):
    return "".join(format_float_oracle(v) + sep for v, sep in zip(values.ravel(), cycle(seps)))


@contextmanager
def short_chunk(n):
    saved = array_core.SHORT_CHUNK
    array_core.SHORT_CHUNK = n
    try:
        yield
    finally:
        array_core.SHORT_CHUNK = saved


def neighbours(x, ulps=3):
    """x and its ``ulps`` nearest doubles on each side, with their negatives."""
    near = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            near.append(y)
    return near + [-v for v in near]


FORMATTER_TABLE = np.array(
    neighbours(1e-4) + neighbours(1e16)  # the range edges
    + [v for e in range(-6, 19) for v in neighbours(10.0 ** e)]  # next to every power of ten
    + [1e15 + j / 8 for j in range(64)] + [1e14 + j / 64 for j in range(64)]  # exact ties at the 17th digit
    + [2.0 ** 53 + 2 * j for j in range(8)] + [0.5 + j * 2.0 ** -53 for j in range(8)]
    + [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
       -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, -1.5, 0.1, 123456789.0, 9999999999999998.0])


def with_significant_digits(k, sig):
    """The first double from 10**k up whose 17 digits in FLOAT_FORMAT end in exactly 17 - sig zeros: the double
    nearest a decimal of sig digits, 10**(sig - 1) + t times 10**(k - sig + 1), that rounds back to it."""
    for t in range(9 * 10 ** (sig - 1)):
        v = float(f"{10 ** (sig - 1) + t}e{k - sig + 1}")
        if len(("%.16e" % v).split("e")[0].replace(".", "").rstrip("0")) == sig:
            return v


# one value for each decimal exponent of the fixed notation, count of trailing zeros of the 17 digits and sign,
# so that for each exponent the last group of 4 digits is 0000 while an earlier one is not; then whole numbers
EXPONENTS_AND_ZEROS = [(k, zeros, sign) for k in range(-4, 16) for zeros in range(17) for sign in (1, -1)]
DIGIT_TABLE = np.array(
    [sign * with_significant_digits(k, 17 - zeros) for k, zeros, sign in EXPONENTS_AND_ZEROS]
    + [float(v) for j in range(17) for v in (10 ** j, 10 ** j - 1, 2 * 10 ** j, 10 ** j + 1) if v < 10 ** 16]
    + [2.0 ** 53, 2.0 ** 53 + 2, 9999999999999998.0, 1e16 - 2, 123456789012345.0, -7.0])


class TestFormatter:
    @settings(max_examples=examples(500))
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
    def test_any_bit_pattern_matches_oracle(self, bits):
        values = floats_of_bits(bits).reshape(-1, 1)
        with short_chunk(1):  # the numpy path whenever one value is in its range
            assert array_core._format(values, "\n") == formatter_oracle(values, "\n")

    @settings(max_examples=examples(500))
    @given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1).map(lambda b: float(floats_of_bits(b))),
                              st.floats(-1e17, 1e17), st.floats(-1e-3, 1e-3)), min_size=1, max_size=40))
    def test_values_in_and_next_to_the_range_match_oracle(self, values):
        values = np.array(values).reshape(-1, 1)
        with short_chunk(1):
            assert array_core._format(values, "\n") == formatter_oracle(values, "\n")

    def test_edges_powers_of_ten_ties_and_specials_match_oracle(self):
        values = FORMATTER_TABLE.reshape(-1, 1)
        with short_chunk(1):
            assert array_core._format(values, "\n").split("\n") == formatter_oracle(values, "\n").split("\n")

    def test_digit_table_covers_each_exponent_and_count_of_trailing_zeros(self):
        cases = []
        for v in DIGIT_TABLE[:len(EXPONENTS_AND_ZEROS)]:
            digits, exponent = ("%.16e" % abs(v)).split("e")
            digits = digits.replace(".", "")
            cases.append((int(exponent), len(digits) - len(digits.rstrip("0")), 1 if v > 0 else -1))
        assert cases == EXPONENTS_AND_ZEROS

    def test_digit_table_matches_oracle_one_value_a_chunk(self):
        with short_chunk(1):
            for v in DIGIT_TABLE:
                assert array_core._format(np.array([[v]]), "\n") == format_float_oracle(v) + "\n"

    @pytest.mark.parametrize("m", [1, 7, 32])
    def test_digit_table_matches_oracle_in_rows_with_a_head(self, m):
        rows = np.resize(DIGIT_TABLE, (-(-DIGIT_TABLE.size // m), m))  # repeated from the start to fill the last row
        seps = " " * (m - 1) + "\n"
        assert rows.size >= array_core.SHORT_CHUNK
        for head in ("", "ARRV1\ndims 7\n", "\nh\n"):
            assert array_core._format(rows, seps, head) == "".join(head + formatter_oracle(r, seps) for r in rows)

    def test_many_values_match_oracle(self):
        gen = np.random.default_rng(18)
        values = np.concatenate([gen.standard_normal(20_000),
                                 np.exp(gen.uniform(math.log(1e-7), math.log(1e18), 20_000)) * gen.choice([-1, 1], 20_000),
                                 gen.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(float)])
        for rows in np.array_split(values.reshape(-1, 3), 15):  # about 4,000 values each
            assert array_core._format(rows, " \n\n", "h\n") == "".join("h\n" + formatter_oracle(r, " \n\n") for r in rows)

    @pytest.mark.parametrize("n", [0, 1, array_core.SHORT_CHUNK - 1, array_core.SHORT_CHUNK, array_core.SHORT_CHUNK + 1])
    def test_chunk_lengths_around_the_cutoff(self, n):
        # n values in the numpy formatter's range and one value outside it after every 7th
        gen = np.random.default_rng(n)
        inside = gen.uniform(1, 10, n) * 10.0 ** gen.integers(-4, 16, n) * gen.choice([-1, 1], n)
        outside = gen.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-5, -3e20], n // 7)
        values = np.insert(inside, np.arange(1, n // 7 + 1) * 7, outside).reshape(-1, 1)
        with mock.patch.object(array_core, "_scaled", wraps=array_core._scaled) as scaled:
            text = array_core._format(values, "\n")
        assert text == formatter_oracle(values, "\n")
        assert scaled.called == (n >= array_core.SHORT_CHUNK)

    @pytest.mark.parametrize("shape", [(2, 3), (70, 70)])
    def test_records_at_full_chunk_size_match_oracle(self, shape):
        # whole records in a chunk, and a record longer than a chunk, with their heads
        gen = np.random.default_rng(math.prod(shape))
        arrays = [gen.standard_normal(shape) for _ in range(2 * array_core.CHUNK // math.prod(shape) + 1)]
        arrays[0].flat[::5] = 0.0
        assert written(array_core.write_arrays, arrays) == dump_arrays_oracle(arrays)


# --- reader ---------------------------------------------------------------

TOKENS = st.one_of(st.sampled_from(["nan", "NaN", "-inf", "inf", "Infinity", "1e999", "-1e400"]),
                   st.sampled_from(["x", "1..2", "1_0", "0x10", "+5", ".5e-3", "1,5", "ARRV1", "MATV1", "dims", "0", "-0.0"]))
HEADER_LINES = st.sampled_from(["ARRV1", "MATV1", "ARRV2", "arrv1", " ARRV1 ", "MATV1 x", ""])
DIMS_LINES = st.sampled_from(["dims", "dims 0 2", "dims 2 x", "dims 2", "dims 3 2", "dims 2 3",
                              "dims 1 1 1", "shape 2 2", "dims -1", "dims 2 2"])
# value edits are listed twice: they make most of the faults worth comparing
MUTATIONS = st.sampled_from(["drop", "extra", "replace", "drop", "extra", "replace", "blank", "truncate",
                             "header", "dims", "swap_dims", "delete", "join", "crlf"])


@st.composite
def record_texts(draw, header, runs=False):
    """A text written by the oracle writer, then 0-3 edits: dropped or extra
    tokens, bad, nan or inf tokens, blank lines, truncation, wrong headers and
    wrong or reordered dims.  With ``runs``, 2-10 records, each of the previous
    record's shape four times in five, so that most are read in run steps."""
    if header == "MATV1":
        shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))
        per_line = 1
    else:
        shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
        per_line = 0
    parts = []
    for _ in range(draw(st.integers(2, 10) if runs else st.integers(0, 3))):
        if not (runs and parts and draw(st.integers(0, 4))):
            shape = draw(shapes)
        values = np.array(draw(st.lists(VALUES, min_size=math.prod(shape), max_size=math.prod(shape))))
        parts.append(dump_record_oracle(header, shape, values, shape[per_line]))
    lines = "\n".join(parts).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(MUTATIONS)
        if not lines:
            lines = [draw(TOKENS)]
            continue
        data = [j for j, line in enumerate(lines) if line.split()[:1] not in (["ARRV1"], ["MATV1"], ["dims"])]
        if op in ("drop", "extra", "replace") and data:
            i = draw(st.sampled_from(data))
        else:
            i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if op == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[i] = " ".join(tokens)
        elif op == "extra":
            lines[i] += " " + draw(st.one_of(TOKENS, VALUES.map(repr)))
        elif op == "replace" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif op == "truncate":
            lines = lines[:i]
        elif op == "header":
            lines[i] = draw(HEADER_LINES)
        elif op == "dims":
            lines[i] = draw(DIMS_LINES)
        elif op == "swap_dims" and tokens[:1] == ["dims"]:
            lines[i] = " ".join(["dims"] + tokens[:0:-1])
        elif op == "delete":
            del lines[i]
        elif op == "join" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
        elif op == "crlf":
            lines[i] += "\r"
    return "\n".join(lines)


def outcome(read, *args):
    """One ``(dims, value bytes)`` pair per record of ``read(*args)``, or the FormatError message.

    The reader yields a ``(k, m)`` block per step and the oracle one vector per
    record, so both are flattened to records here.
    """
    try:
        runs = list(read(*args))
    except FormatError as exc:
        return f"FormatError: {exc}"
    return [(dims, row.tobytes()) for dims, rows in runs for row in np.reshape(rows, (-1, math.prod(dims)))]


def file_outcome(path, header, order):
    """``outcome`` of ``read_records`` on ``path``, each of whose blocks is one step: a run step of at most
    STEP // m records, or one record."""
    def read():
        for dims, rows in array_core.read_records(path, header, order):
            assert 1 <= len(rows) <= max(1, array_core.STEP // math.prod(dims))
            yield dims, rows
    return outcome(read)


def oracle_outcome(path, header, order):
    """``outcome`` of the reference reader on the text of the file at ``path``."""
    return outcome(parse_records_oracle, path.read_bytes().decode("utf-8"), str(path), header, order)


def merged(blocks):
    """``(dims, rows)`` per run of same-shape records, from blocks in file order: ``rows`` is the run's
    ``(k, m)`` block of values, one record per row."""
    return [(dims, np.concatenate([rows for _, rows in run])) for dims, run in groupby(blocks, key=lambda block: block[0])]


def assert_maximal_runs(runs):
    """Each pair is a (k, m) block of one shape, and neighbouring pairs differ in shape."""
    for i, (dims, rows) in enumerate(runs):
        assert rows.ndim == 2 and rows.shape[0] >= 1 and rows.shape[1] == math.prod(dims)
        assert i == 0 or runs[i - 1][0] != dims


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def text_file(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestReader:
    @settings(max_examples=1000)
    @given(st.sampled_from(["ARRV1", "MATV1"]), st.booleans(), st.data(), CHUNKS)
    def test_same_records_or_same_message_as_oracle(self, file_dir, header, runs, data, chunk):
        path = text_file(file_dir / "f.txt", data.draw(record_texts(header, runs)))
        order = 2 if header == "MATV1" else None
        with chunk_size(chunk):
            expected = oracle_outcome(path, header, order)
            assert file_outcome(path, header, order) == expected
            if not isinstance(expected, str):
                assert_maximal_runs(merged(array_core.read_records(path, header, order)))

    @pytest.mark.parametrize("text", [
        # a bad token in the first record comes before a bad header later on
        "ARRV1\ndims 3\n1 x 3\nARRV2\n",
        # a nan in a finished record comes before a bad token in the next one
        "ARRV1\ndims 2\n1 nan\n\nARRV1\ndims 2\n1 x\n",
        # a bad token in a record comes before a nan earlier in that record
        "ARRV1\ndims 4\nnan 1\n2 x\n",
        # the extra token and the end of input each come before the record's nan
        "ARRV1\ndims 2 2\ninf 1\n2 3 4\n",
        "ARRV1\ndims 2 2\ninf 1\n2\n",
        # a nan before a bad header in the next record
        "ARRV1\ndims 2\n1 -inf\nMATV1\n",
        # float() semantics: underscores, signs, bare fractions, upper-case exponents
        "ARRV1\ndims 5\n1_0 +5 .5e-3 -0.0 1E3\n",
        # records longer than a step at STEP 1, 2 and 3: the fault comes after
        # an earlier step of its record was converted and its lines let go
        "ARRV1\ndims 8\n1 2\nnan 3\n4 5\n6 x\n",  # a nan in an early chunk, then a bad token
        "ARRV1\ndims 6\n1 2\nnan 3\n4 5 6\n",  # a nan, then an extra token
        "ARRV1\ndims 6\n1 2\nnan 3\n4\n",  # a nan, then the end of input
        "ARRV1\ndims 6\n1 2\n3 4\n5 x\n",  # a bad token in the last chunk only
        "ARRV1\ndims 3\n1 2\nx 4\n",  # a bad token before an extra token on its line
        "ARRV1\ndims 6\n1 2\n3 4\n5 inf\n\nARRV1\ndims 2\n1 x\n",  # a nan in the last chunk, then a fault
    ])
    def test_fault_order_cases(self, tmp_path, text):
        path = text_file(tmp_path / "f.txt", text)
        for chunk in (1, 2, 3, array_core.CHUNK):
            with chunk_size(chunk):
                assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)

    @settings(max_examples=100)
    @given(array_lists(max_size=4), CHUNKS)
    def test_round_trip(self, file_dir, arrays, chunk):
        path = file_dir / "round_trip.arr"
        with chunk_size(chunk):
            array_core.write_arrays(arrays, path)
            back = read_arrays(path)
        assert [a.shape for a in back] == [a.shape for a in arrays]
        for a, b in zip(arrays, back):
            assert a.tobytes() == b.tobytes()


# A run of identical records in the writer's layout: 2x3 arrays, three data
# lines of two values each, one blank line between records.
RUN_SHAPE, RUN_LENGTH = (2, 3), 9
RECORD_LINES = 6  # header, dims, three data lines, separator


def run_lines():
    arrays = [np.arange(6.0).reshape(RUN_SHAPE) + 10 * i for i in range(RUN_LENGTH)]
    return written(array_core.write_arrays, arrays).split("\n")


def edit_record(lines, i, fault):
    """Apply ``fault`` to record ``i`` of :func:`run_lines`."""
    at = i * RECORD_LINES  # its header line
    data = at + 2
    if fault == "bad_token":
        lines[data + 1] = lines[data + 1].split()[0] + " x"
    elif fault == "nan":
        lines[data + 1] = "nan " + lines[data + 1].split()[1]
    elif fault == "extra_token":
        lines[data + 2] += " 7"
    elif fault == "blank_first_data_line":
        lines.insert(data, "")
    elif fault == "blank_first_data_line_same_lines":
        lines[data:data + 3] = ["", " ".join(lines[data:data + 2]), lines[data + 2]]
    elif fault == "extra_then_missing":
        # the next record gives the token back, so the run's token total is unchanged
        lines[data + 2] += " 7"
        nxt = (i + 1) % RUN_LENGTH * RECORD_LINES + 4
        lines[nxt] = lines[nxt].split()[0]
    elif fault == "missing_value":
        lines[data + 2] = lines[data + 2].split()[0]
    elif fault == "truncated":
        del lines[data + 2:]
    elif fault == "dims_other_shape":
        lines[at + 1] = "dims 3 2"
    elif fault == "dims_other_order":
        lines[at + 1] = "dims 6"
    elif fault == "dims_spacing":
        lines[at + 1] = "dims 2  3"
    elif fault == "dims_invalid":
        lines[at + 1] = "dims 2 x"
    elif fault == "header_spaces":
        lines[at] = " ARRV1 "
    elif fault == "header_wrong":
        lines[at] = "ARRV2"
    elif fault == "separator_spaces":
        lines[at + 5] = "  "
    elif fault == "separator_doubled":
        lines.insert(at + 5, "")
    elif fault == "line_split":
        first, second = lines[data].split()
        lines[data:data + 1] = [first, second]
    elif fault == "blank_mid_data_line":
        lines.insert(data + 1, "\t")
    elif fault == "crlf":
        lines[data] += "\r"
    return lines


RUN_FAULTS = ["bad_token", "nan", "extra_token", "blank_first_data_line", "blank_first_data_line_same_lines",
              "extra_then_missing", "missing_value", "truncated",
              "dims_other_shape", "dims_other_order", "dims_spacing", "dims_invalid", "header_spaces",
              "header_wrong", "separator_spaces", "separator_doubled", "line_split", "blank_mid_data_line",
              "crlf"]


class TestRuns:
    """The reader takes runs of records that repeat the last record's lines in
    one step; every other layout goes through the line walk.  These edit one
    record of a run (at every position, so the first, second and last of each
    run step) and compare the records or the message with the oracle's."""

    @pytest.mark.parametrize("fault", RUN_FAULTS)
    def test_one_edited_record_matches_oracle(self, tmp_path, fault):
        for i in range(RUN_LENGTH):
            path = text_file(tmp_path / "f.txt", "\n".join(edit_record(run_lines(), i, fault)))
            expected = oracle_outcome(path, "ARRV1", None)
            for chunk in (1, 2, 3, array_core.CHUNK):
                with chunk_size(chunk):
                    assert file_outcome(path, "ARRV1", None) == expected, (i, chunk)
                    if not isinstance(expected, str):
                        assert_maximal_runs(merged(array_core.read_records(path, "ARRV1")))

    def test_two_faults_report_the_first(self, tmp_path):
        # a nan in record 3 comes before an extra token in record 7, which comes before a bad header
        lines = edit_record(edit_record(run_lines(), 7, "extra_token"), 3, "nan")
        lines[-1:] = ["", "ARRV2"]
        path = text_file(tmp_path / "f.txt", "\n".join(lines))
        for chunk in (1, 2, 3, array_core.CHUNK):
            with chunk_size(chunk):
                assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None) == \
                    f"FormatError: {path}:22: non-finite value 'nan'"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 6, 7, 4096])
    def test_identical_records_are_one_block(self, tmp_path, chunk):
        # m = 6: runs are taken from STEP = 6 up, records walked one by one below it
        arrays = [np.arange(6.0).reshape(RUN_SHAPE) * (i + 1) for i in range(50)]
        path = tmp_path / "f.txt"
        with chunk_size(chunk):
            array_core.write_arrays(arrays, path)
            ((dims, rows),) = merged(array_core.read_records(path, "ARRV1"))
        assert dims == RUN_SHAPE
        assert rows.shape == (50, 6)
        assert rows.tobytes() == np.stack([a.ravel(order="F") for a in arrays]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_alternating_shapes_are_one_block_each(self, tmp_path, chunk):
        shapes = [(2, 3), (3, 2), (6,), (2, 3)] * 4
        arrays = [np.full(shape, float(i)) for i, shape in enumerate(shapes)]
        path = tmp_path / "f.txt"
        array_core.write_arrays(arrays, path)
        with chunk_size(chunk):
            runs = merged(array_core.read_records(path, "ARRV1"))
            assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)
        # the writer's (2, 3) at the end of one group and the start of the next are one run
        assert [(dims, len(rows)) for dims, rows in runs] == \
            [((2, 3), 1), ((3, 2), 1), ((6,), 1)] + [((2, 3), 2), ((3, 2), 1), ((6,), 1)] * 3 + [((2, 3), 1)]

    def test_chunk_size_sets_the_reader_s_step(self, tmp_path):
        # three 8x8x8 records: a step takes more than one at the default STEP, and in steps of 64 values each is
        # read alone, in several steps
        path = tmp_path / "f.arr"
        array_core.write_arrays([np.ones((8, 8, 8))] * 3, path)
        with short_step(1):
            assert max(len(rows) for _, rows in array_core.read_records(path, "ARRV1")) > 1
            with chunk_size(64):
                assert [len(rows) for _, rows in array_core.read_records(path, "ARRV1")] == [1, 1, 1]
                assert len(step_sizes(path)) > 3

    def test_runs_of_runs_keep_file_order(self, tmp_path):
        shapes = [(2, 3)] * 5 + [(3, 2)] * 4 + [(2, 3)] * 6
        arrays = [np.full(shape, float(i)) for i, shape in enumerate(shapes)]
        path = tmp_path / "f.txt"
        array_core.write_arrays(arrays, path)
        runs = merged(array_core.read_records(path, "ARRV1"))
        assert [(dims, len(rows)) for dims, rows in runs] == [((2, 3), 5), ((3, 2), 4), ((2, 3), 6)]
        assert np.concatenate([rows[:, 0] for _, rows in runs]).tolist() == list(range(15))

    def test_matrix_count_counts_records_in_a_run(self, tmp_path):
        text = written(linalg.write_matrix, np.eye(2))
        path = text_file(tmp_path / "m.mat", text + "\n" + text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:1: expected exactly one matrix, found 2$"):
            linalg.read_matrix(path)


# --- file reader ----------------------------------------------------------

# every line break that str.splitlines knows, "\r\n" as one
SEPARATORS = ["\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n", "\r"]


class TestFileReader:
    """``read_records`` reads a file a block of lines at a time; it must give
    what the reference reader gives on the file's text, under any line break."""

    @settings(max_examples=500)
    @given(st.sampled_from(["ARRV1", "MATV1"]), st.booleans(), st.data(), CHUNKS)
    def test_file_and_text_agree(self, file_dir, header, runs, data, chunk):
        lines = data.draw(record_texts(header, runs)).split("\n")
        breaks = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(lines), max_size=len(lines)))
        text = "".join(line + sep for line, sep in zip(lines, breaks))[:data.draw(st.sampled_from([None, -1]))]
        path = text_file(file_dir / "records.txt", text)
        order = 2 if header == "MATV1" else None
        with chunk_size(chunk):
            expected = outcome(parse_records_oracle, text, str(path), header, order)
            assert file_outcome(path, header, order) == expected
            if not isinstance(expected, str):
                assert_maximal_runs(merged(array_core.read_records(path, header, order)))

    def test_large_file_matches_text(self, file_dir):
        # long enough that the reader reads the file in several blocks of lines
        gen = np.random.default_rng(40)
        arrays = [gen.standard_normal((2, 3)) for _ in range(3000)] + [gen.standard_normal((40, 30))] * 3
        path = file_dir / "large.arr"
        array_core.write_arrays(arrays, path)
        assert path.read_bytes() == dump_arrays_oracle(arrays).encode("utf-8")
        assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)

    @pytest.mark.parametrize("data, message", [
        (b"ARRV1\ndims 2\n1 \xff\n", "3: bad numeric token '\\udcff'"),
        (b"ARRV1\ndims 2\n1 2\xc3\n", "3: bad numeric token '2\\udcc3'"),
        (b"ARRV1\ndims \xe9\n1 2\n", "2: non-integer dimension in 'dims \\udce9'"),
        (b"\xfeARRV1\ndims 2\n1 2\n", "1: expected ARRV1 header, got '\\udcfeARRV1'"),
    ])
    def test_byte_that_is_not_utf8_is_a_format_error(self, file_dir, data, message):
        path = file_dir / "bad.arr"
        path.write_bytes(data)
        with pytest.raises(FormatError) as info:
            list(array_core.read_records(path, "ARRV1"))
        assert str(info.value) == f"{path}:{message}"

    def test_next_line_separator_parses_under_any_locale(self, file_dir):
        path = file_dir / "nel.arr"
        path.write_bytes(b"ARRV1\ndims 2\n1\xc2\x852\n")
        probe = ("import sys\nfrom arrayvariate.array_core import read_records\n"
                 "print([rows.tolist() for _, rows in read_records(sys.argv[1], 'ARRV1')])\n")
        outputs = []
        for env in ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}):
            result = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True,
                                    env={**os.environ, **env})
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs == ["[[[1.0, 2.0]]]\n"] * 2


@contextmanager
def recording_writes(module, pieces):
    """``open`` in ``module`` returns files whose writes are also appended to ``pieces``."""
    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, piece):
            pieces.append(piece)
            return self.fh.write(piece)

    module.open = lambda *args, **kwargs: Recording(open(*args, **kwargs))
    try:
        yield
    finally:
        del module.open


class TestWriters:
    @settings(max_examples=examples(100))
    @given(array_lists(), CHUNKS)
    def test_write_arrays_writes_the_oracle_bytes_in_bounded_pieces(self, file_dir, arrays, chunk):
        path = file_dir / "written.arr"
        pieces = []
        with recording_writes(array_core, pieces), chunk_size(chunk):
            array_core.write_arrays(arrays, path)
        expected = dump_arrays_oracle(arrays)
        assert path.read_bytes() == expected.encode("utf-8")
        assert "".join(pieces) == expected
        assert all(values_per_piece(p, "ARRV1") <= chunk for p in pieces)

    @settings(max_examples=examples(100))
    @given(st.integers(1, 4), st.integers(1, 4), st.data(), CHUNKS)
    def test_write_matrix_writes_the_oracle_bytes_in_bounded_pieces(self, file_dir, r, c, data, chunk):
        a = np.array(data.draw(st.lists(VALUES, min_size=r * c, max_size=r * c))).reshape(r, c)
        path = file_dir / "written.mat"
        pieces = []
        with recording_writes(linalg, pieces), chunk_size(chunk):
            linalg.write_matrix(a, path)
        expected = dump_matrix_oracle(a)
        assert path.read_bytes() == expected.encode("utf-8")
        assert "".join(pieces) == expected
        assert all(values_per_piece(p, "MATV1") <= chunk for p in pieces)


# --- the reader's byte step ---------------------------------------------------
#
# array_core._values converts the value tokens of a step's bytes in numpy.
# These tests hold it, and the byte step that feeds it, to float() and to the
# token-by-token oracle reader bit for bit.  Their property tests take the
# profile's example count, so the thorough profile runs more of them.

@contextmanager
def short_step(n):
    saved = array_core.SHORT_STEP
    array_core.SHORT_STEP = n
    try:
        yield
    finally:
        array_core.SHORT_STEP = saved


def values_of(tokens):
    """``_values`` of the str ``tokens``, laid out one to a line after 24 bytes, as int64 bits."""
    buf = b" " * 24 + "".join(t + "\n" for t in tokens).encode()
    sizes = np.array([len(t) for t in tokens])
    return array_core._values(buf, np.cumsum(sizes + 1) + 23, sizes).view(np.int64)


def float_bits(tokens):
    return np.array([float(t) for t in tokens]).view(np.int64)


def tokens_file(path, tokens, per_line=7):
    """An ARRV1 file of one record holding ``tokens``, ``per_line`` to a line."""
    rows = [" ".join(tokens[i:i + per_line]) for i in range(0, len(tokens), per_line)]
    return text_file(path, f"ARRV1\ndims {len(tokens)}\n" + "\n".join(rows) + "\n")


def midpoints():
    """Exact midpoints of two adjacent doubles, written in full with 16 to 21 significant digits: odd multiples
    of 2**-s for s from 1 to 6 (e < 0, so the double-double product is not exact), and integers."""
    odd = [2 ** 53 + 2 * k + 1 for k in range(6)] + [2 ** 54 - 1 - 2 * k for k in range(6)]
    exact = [Fraction(n, 2 ** s) for n in odd for s in range(1, 7)] + [Fraction(n * 2 ** s) for n in odd for s in range(5)]
    texts = []
    for x in exact:
        d = Decimal(x.numerator) / Decimal(x.denominator)  # exact: the denominator is a power of two
        texts += [str(d), format(d, "e"), "-" + str(d)]
    return texts


CONVERTER_EDGES = (
    [f"1e{e:+03d}" for e in range(-307, 309)] + ["1" + "0" * k for k in range(30)] + ["0." + "0" * k + "1" for k in range(30)]
    + midpoints()
    + [str(2 ** b + d) for b in (53, 63, 64) for d in range(-3, 4)] + ["9007199254740993", str(10 ** 19 - 1), str(10 ** 19)]
    + ["0", "-0", "0.0", "-0.000", "0.00000000000000000000", "000", "0e+00", "-0e-05", "00.5", "007", "-0.0001",
       "0.00012345678901234567", "-0.00012345678901234567", "2.2250738585072014e-308", "1.7976931348623157e+307"]
    + ["+5", ".5", "5.", "1e5", "1E+005", "-.5", "5.e+5", "1e+5000", "--5", "1.2.3", "1e+-5", "-", "e+05"]
)
# values that are not normal doubles below 2**1023: the double-double path leaves them to float()
FALLBACK_EDGES = ["4.9406564584124654e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308", "1e-310",
                  "1.7976931348623157e+308", "-1.7976931348623157e+308", "8.9884656743115795e+307"]


def x87_midpoints():
    """Tokens of 17, 18 and 19 digits, D * 10**e with 0 < |e| <= 27, whose value is not the midpoint of two
    doubles but rounds onto one in the x87 format's 64 bits, from below and from above, e < 0 and e > 0: found by
    exact search over random midpoints, in exponent form and with a point, both signs.  Rounded to a double
    from 64 bits, half of them come out wrong."""
    gen, found = random.Random(24), {}
    while len(found) < 12:
        digits, s = gen.choice([17, 18, 19]), gen.randrange(-60, 100)
        mid = Fraction(2 * gen.randrange(2 ** 52, 2 ** 53) + 1) * Fraction(2) ** (s - 53)  # in [2**s, 2**(s + 1))
        e = math.floor(math.log10(mid)) + 1 - digits
        d = round(mid / Fraction(10) ** e)
        y = d * Fraction(10) ** e
        if 0 < abs(e) <= 27 and y != mid and abs(y - mid) <= Fraction(2) ** (s - 64):  # half a 64-bit ulp
            found.setdefault((len(str(d)), e < 0, y < mid), (str(d), e))
    tokens = []
    for d, e in sorted(found.values()):
        tokens += [f"{d}e{e:+03d}", f"{d[0]}.{d[1:]}e{e + len(d) - 1:+03d}"]
    return tokens + ["-" + t for t in tokens]


X87_MIDPOINTS = x87_midpoints()


@st.composite
def x87_range_tokens(draw):
    """A token of the grammar whose value D * 10**e has D < 10**19 and |e| <= 27, so that a step of them all
    takes the x87 path: 1 to 19 digits, a point anywhere or none, an exponent or none."""
    digits = str(draw(st.integers(0, 10 ** 19 - 1))).zfill(draw(st.integers(1, 19)))
    point = draw(st.none() | st.integers(0, len(digits)))
    mantissa, after = (digits, 0) if point is None else (digits[:point] + "." + digits[point:], len(digits) - point)
    written = draw(st.integers(-27, 27)) + after  # the exponent as written: e = written - after
    exponent = f"e{written:+03d}" if written or draw(st.booleans()) else ""
    return draw(st.sampled_from(["", "-"])) + mantissa + exponent


@pytest.mark.usefixtures("rounding")
class TestConverter:
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern_written_with_17_digits_matches_float(self, bits):
        values = floats_of_bits(bits)
        tokens = [FLOAT_FORMAT % v for v in values[np.isfinite(values)]] or ["0"]
        assert values_of(tokens).tolist() == float_bits(tokens).tolist()

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40), st.integers(1, 17))
    def test_any_bit_pattern_written_with_p_digits_matches_float(self, bits, p):
        tokens = [t for t in (f"%.{p}g" % v for v in floats_of_bits(bits)) if math.isfinite(float(t))] or ["0"]
        assert values_of(tokens).tolist() == float_bits(tokens).tolist()

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40), st.integers(1, 17), CHUNKS)
    def test_written_bit_patterns_read_as_the_oracle_reads_them(self, file_dir, bits, p, chunk):
        # nan, inf and tokens that overflow included: the step holding them replays
        path = tokens_file(file_dir / "tokens.arr", [f"%.{p}g" % v for v in floats_of_bits(bits)])
        with chunk_size(chunk), short_step(1):
            assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)

    @given(st.lists(x87_range_tokens(), min_size=1, max_size=40))
    def test_tokens_of_up_to_19_digits_and_exponents_up_to_27_match_float(self, tokens):
        assert values_of(tokens).tolist() == float_bits(tokens).tolist()

    def test_edges_match_float(self):
        # all in one step, and each in a step of its own, which takes the x87 path where its exponent allows
        tokens = [t for t in CONVERTER_EDGES + FALLBACK_EDGES + X87_MIDPOINTS if _float_or_none(t) is not None]
        assert values_of(tokens).tolist() == float_bits(tokens).tolist()
        assert [values_of([t])[0] for t in tokens] == float_bits(tokens).tolist()

    def test_subnormals_and_the_largest_doubles_go_to_float(self):
        with mock.patch.object(array_core, "float", wraps=float, create=True) as to_float:
            assert values_of(FALLBACK_EDGES).tolist() == float_bits(FALLBACK_EDGES).tolist()
        assert [c.args[0].decode() for c in to_float.call_args_list] == FALLBACK_EDGES

    @pytest.mark.parametrize("token", ["1_0", "infinity", "nan", "-inf", "1,5", "0x10", "1\t", "1\r", "\xe9"])
    def test_a_byte_out_of_the_grammar_s_alphabet_replays(self, token):
        with pytest.raises(array_core._Replay):
            values_of(["1.5", token])

    @pytest.mark.parametrize("token", ["1e+400", "--5", "1.2.3", "-", "e+05", "1e+-5"])
    def test_a_token_float_rejects_or_that_overflows_replays(self, token):
        with pytest.raises(array_core._Replay):
            values_of(["1.5", token])

    def test_edges_read_as_the_oracle_reads_them(self, file_dir):
        edges = CONVERTER_EDGES + FALLBACK_EDGES + X87_MIDPOINTS
        path = tokens_file(file_dir / "edges.arr", [t for t in edges if _float_or_none(t)])
        for chunk in (1, 3, array_core.CHUNK):
            with chunk_size(chunk), short_step(1):
                assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
                    reason="the x87 long double is asserted on x86-64 Linux only")
def test_the_x87_probe_holds_on_x86_64_linux():
    assert array_core._X87 is True


@pytest.mark.skipif(not array_core._X87, reason="np.longdouble is not the x87 format")
class TestX87Path:
    def test_midpoints_in_64_bits_go_to_float(self):
        for token in X87_MIDPOINTS + ["9007199254740993", "-9007199254740993", "2251799813685248.75"]:
            with mock.patch.object(array_core, "float", wraps=float, create=True) as to_float:
                assert values_of([token]).tolist() == float_bits([token]).tolist()
            assert [c.args[0].decode() for c in to_float.call_args_list] == [token]

    def test_written_draws_take_the_x87_path(self):
        # without the double-double path's power table: a step that reached for it would fail
        tokens = [FLOAT_FORMAT % v for v in np.random.default_rng(24).standard_normal(array_core.STEP)]
        with mock.patch.object(array_core, "_PH", None):
            assert values_of(tokens).tolist() == float_bits(tokens).tolist()

    def test_a_step_of_both_kinds_rounds_each_value_on_its_own_path(self):
        # draws at scale 1e-8 hold values below 1e-11, whose e < -27, and a few scaled up past e = 27: those,
        # and only those, go to the fallback, and the step converts as float() does
        values = 1e-8 * np.random.default_rng(25).standard_normal(array_core.STEP)
        values[::101] *= 1e60
        tokens = [FLOAT_FORMAT % v for v in values]
        far = [exponent(t) for t in tokens if abs(exponent(t)) > 27]
        assert min(far) < -27 and max(far) > 27 and len(far) < len(tokens) // 2
        with mock.patch.object(array_core, "_rounded", wraps=array_core._rounded) as rounded:
            assert values_of(tokens).tolist() == float_bits(tokens).tolist()
        (call,) = rounded.call_args_list
        assert call.args[1].tolist() == far


def exponent(token):
    """The e of a token's value D * 10**e, D its digits."""
    mantissa, _, written = token.lower().partition("e")
    return int(written or 0) - len(mantissa.partition(".")[2])


def _float_or_none(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def plant(lines, fault, at, data, sep, nxt, dims):
    """Apply ``fault`` of RUN_FAULTS to the text ``lines``: at the record whose header is line ``at``, the data
    lines from ``data`` on, the separator line ``sep`` and the data line ``nxt`` of the next record."""
    tokens = lines[data + 1].split()
    if fault == "bad_token":
        lines[data + 1] = " ".join(tokens[:-1] + ["x"])
    elif fault == "nan":
        lines[data + 1] = " ".join(["nan"] + tokens[1:])
    elif fault == "extra_token":
        lines[data + 2] += " 7"
    elif fault == "blank_first_data_line":
        lines.insert(data, "")
    elif fault == "blank_first_data_line_same_lines":
        lines[data:data + 3] = ["", lines[data] + " " + lines[data + 1], lines[data + 2]]
    elif fault == "extra_then_missing":
        lines[data + 2] += " 7"
        lines[nxt] = " ".join(lines[nxt].split()[1:])
    elif fault == "missing_value":
        lines[data + 2] = " ".join(lines[data + 2].split()[1:])
    elif fault == "truncated":
        del lines[data + 2:]
    elif fault == "dims_other_shape":
        lines[at + 1] = "dims " + " ".join(map(str, dims[::-1])) + " 1"
    elif fault == "dims_other_order":
        lines[at + 1] = f"dims {math.prod(dims)}"
    elif fault == "dims_spacing":
        lines[at + 1] = "dims  " + " ".join(map(str, dims))
    elif fault == "dims_invalid":
        lines[at + 1] = "dims 2 x"
    elif fault == "header_spaces":
        lines[at] = " ARRV1 "
    elif fault == "header_wrong":
        lines[at] = "ARRV2"
    elif fault == "separator_spaces":
        lines[sep] = "  "
    elif fault == "separator_doubled":
        lines.insert(sep, "")
    elif fault == "line_split":
        first, rest = lines[data].split(" ", 1)
        lines[data:data + 1] = [first, rest]
    elif fault == "blank_mid_data_line":
        lines.insert(data + 1, "\t")
    elif fault == "crlf":
        lines[data] += "\r"
    return lines


SCALES = [1e-8, 1.0, 1e12]  # exponent notation everywhere, mixed, and fixed notation with 13 digits before the point


@pytest.mark.usefixtures("rounding")
class TestByteStep:
    """The reader's byte step against the oracle on the writer's files: records longer than STEP, read in
    several steps, and runs of records that fill a step, of values written in both notations."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shapes", [[(32, 32, 16)] * 2, [(8, 8, 8)] * 20, [(2, 3)] * 1500 + [(3, 2)] * 3],
                             ids=["32x32x16", "8x8x8", "2x3"])
    def test_written_files_read_as_the_oracle_reads_them(self, file_dir, shapes, scale):
        gen = np.random.default_rng(len(shapes))
        path = file_dir / "written.arr"
        array_core.write_arrays([scale * gen.standard_normal(shape) for shape in shapes], path)
        assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)

    @pytest.mark.parametrize("fault", RUN_FAULTS)
    def test_a_fault_in_a_run_step_matches_the_oracle(self, tmp_path, fault):
        # 8x8x8 records: the first, a middle and the last record of the first byte step, and the first of the
        # second, each after the records read token by token
        base, first, per = run_of_steps(tmp_path, 23)
        for i in (first, first + per // 2, first + per - 1, first + per):
            path = text_file(tmp_path / "f.arr", "\n".join(plant_in_record(base.copy(), fault, i)))
            assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None), i

    @pytest.mark.parametrize("fault", RUN_FAULTS)
    def test_a_fault_in_a_later_chunk_of_a_long_record_matches_the_oracle(self, tmp_path, fault):
        # 32x32x16 records of 512 lines: data faults on the first three data lines of the first record's second
        # step, and header, dims and separator faults at the second record
        gen = np.random.default_rng(24)
        shape, period = (32, 32, 16), 2 + 512 + 1
        path = tmp_path / "f.arr"
        array_core.write_arrays([gen.standard_normal(shape) for _ in range(2)], path)
        base = path.read_text().split("\n")
        steps = step_sizes(path)
        line, rest = divmod(steps[0], 32)  # the second step's first data line
        assert rest == 0 and array_core.STEP // 2 < steps[0] < 2 * array_core.STEP and 32 * (line + 3) <= sum(steps[:2])
        lines = plant(base, fault, period, 2 + line, period - 1, period + 2, shape)
        path = text_file(tmp_path / "f.arr", "\n".join(lines))
        assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)


RUN_SHAPE_8, RUN_PERIOD_8 = (8, 8, 8), 2 + 64 + 1  # an 8x8x8 record: header, dims, 64 data lines, blank line


def run_of_steps(tmp_path, seed):
    """The lines of a written run of 8x8x8 records that fills one byte step and opens the next, the first record of
    that step, and the records it takes: the run's first records are read token by token until their values and
    RECORD_VALUES each reach SHORT_STEP, and a byte step takes STEP // m records."""
    m = math.prod(RUN_SHAPE_8)
    first = -(-array_core.SHORT_STEP // (m + array_core.RECORD_VALUES))
    per = array_core.STEP // m
    gen = np.random.default_rng(seed)
    path = tmp_path / "run.arr"
    array_core.write_arrays([gen.standard_normal(RUN_SHAPE_8) for _ in range(first + per + 2)], path)
    # the positions straddle a step's bounds: records read alone, then a step of `per`, then the next
    blocks = [len(rows) for _, rows in array_core.read_records(path, "ARRV1")]
    assert blocks[:first + 1] == [1] * first + [per] and sum(blocks) == first + per + 2
    return path.read_text().split("\n"), first, per


def plant_in_record(lines, fault, i):
    """``plant`` a fault in record ``i`` of the 8x8x8 run ``lines``."""
    at = i * RUN_PERIOD_8
    return plant(lines, fault, at, at + 2, at + RUN_PERIOD_8 - 1, at + RUN_PERIOD_8 + 2, RUN_SHAPE_8)


def step_sizes(path):
    """The number of values each byte step of the reader converts, reading the file at ``path``."""
    with mock.patch.object(array_core, "_values", wraps=array_core._values) as values:
        for _ in array_core.read_records(path, "ARRV1"):
            pass
    return [len(c.args[1]) for c in values.call_args_list]


def crlf(text):
    return text.replace("\n", "\r\n")


@contextmanager
def no_replay():
    """Fail if the reader falls back to its token-by-token walk."""
    with mock.patch.object(array_core, "_walk", side_effect=AssertionError("replayed")):
        yield


class TestCRLF:
    """A file whose lines end in "\\r\\n" takes the byte steps of its "\\n" copy, to the same records and, when
    faulty, the same message; a "\\r" before anything but "\\n" is a line break of its own, and replays."""

    @pytest.mark.parametrize("shapes", [[(32, 32, 16)] * 2, [(8, 8, 8)] * 20, [(2, 3)] * 1500 + [(3, 2)] * 3],
                             ids=["32x32x16", "8x8x8", "2x3"])
    def test_crlf_copies_of_written_files_read_to_the_same_rows(self, file_dir, shapes):
        gen = np.random.default_rng(len(shapes))
        path = file_dir / "written.arr"
        array_core.write_arrays([gen.standard_normal(shape) for shape in shapes], path)
        expected = file_outcome(path, "ARRV1", None)
        text_file(path, crlf(path.read_text()))
        with no_replay():
            assert file_outcome(path, "ARRV1", None) == expected

    def test_a_block_may_end_anywhere(self):
        # every split of the bytes into two blocks, one of them between a "\r" and its "\n"
        gen = np.random.default_rng(25)
        data = crlf(written(array_core.write_arrays, [gen.standard_normal((2, 3)) for _ in range(3)])).encode()
        for step in (1, array_core.SHORT_STEP):  # byte steps, and records read token by token
            with no_replay(), short_step(step):
                expected = [rows.tobytes() for _, rows in array_core._records(iter([data]), "f", "ARRV1", None)]
                for cut in range(1, len(data)):
                    blocks = array_core._records(iter([data[:cut], data[cut:]]), "f", "ARRV1", None)
                    assert [rows.tobytes() for _, rows in blocks] == expected, (step, cut)

    @pytest.mark.parametrize("fault", RUN_FAULTS)
    def test_a_fault_in_a_crlf_file_gives_the_lf_oracle_s_message(self, tmp_path, fault):
        # a record read token by token, the first and last of the first byte step, and the first of the next
        base, first, per = run_of_steps(tmp_path, 23)
        for i in (0, first, first + per - 1, first + per):
            text = "\n".join(plant_in_record(base.copy(), fault, i))
            path = text_file(tmp_path / "f.arr", text)
            expected = oracle_outcome(path, "ARRV1", None)
            text_file(path, crlf(text))
            got = file_outcome(path, "ARRV1", None)
            assert got == oracle_outcome(path, "ARRV1", None), i
            if fault != "crlf":  # a "\r" added before "\r\n" is one more line break
                assert got == expected, i

    @pytest.mark.parametrize("text", ["ARRV1\r\ndims 2\r\n1\r2\r\n", "ARRV1\r\ndims 2\r\n1 2\r\r\n",
                                      "ARRV1\rdims 2\r\n1 2\r\n", "ARRV1\r\ndims 2\r\r\n1 2\r\n",
                                      "ARRV1\r\ndims 2\r\n1\t2\r\n", "ARRV1\r\ndims 2\r\n1 2\r",
                                      "ARRV1\r\ndims 2\r\n1 2\r\n\r\r\n"])
    def test_a_lone_r_or_a_tab_replays_to_the_oracle_s_outcome(self, tmp_path, text):
        path = text_file(tmp_path / "f.arr", text)
        for step in (1, array_core.SHORT_STEP):
            with short_step(step), mock.patch.object(array_core, "_walk", wraps=array_core._walk) as walk:
                assert file_outcome(path, "ARRV1", None) == oracle_outcome(path, "ARRV1", None)
            assert walk.called
