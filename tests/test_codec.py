"""Differential tests of the chunked ARRV1/MATV1 codec against the per-value
writer and per-token reader kept in tests/support.py.

The property tests run under several chunk sizes, down to one value per
chunk, so that records and lines split across chunks are covered by small
inputs.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayvariate import array_core, linalg
from arrayvariate.array_core import unrvec
from arrayvariate.errors import FormatError
from support import dump_arrays_oracle, dump_matrix_oracle, dump_record_oracle, parse_records_oracle

CHUNKS = st.sampled_from([1, 2, 3, 5, array_core.CHUNK])
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.5, 0.1, 1e-7, 123456789.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
# a small pool, so that consecutive arrays often share a shape; several have m1 = 1
SHAPES = st.sampled_from([(1,), (3,), (1, 1), (1, 3), (2, 3), (3, 2), (2, 1, 2), (1, 2, 2)])


@contextmanager
def chunk_size(chunk):
    saved = array_core.CHUNK
    array_core.CHUNK = chunk
    try:
        yield
    finally:
        array_core.CHUNK = saved


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
    @settings(max_examples=200)
    @given(array_lists(), CHUNKS)
    def test_dump_arrays_matches_oracle(self, arrays, chunk):
        with chunk_size(chunk):
            assert array_core.dump_arrays(arrays) == dump_arrays_oracle(arrays)
            for a in arrays:
                assert array_core.dump_array(a) == dump_arrays_oracle([a])

    @settings(max_examples=200)
    @given(SHAPES, st.integers(0, 6), st.data(), CHUNKS)
    def test_write_records_matches_oracle_in_bounded_pieces(self, shape, n, data, chunk):
        rows = np.array([array_core.rvec(data.draw(arrays_of(shape))) for _ in range(n)]).reshape(n, math.prod(shape))
        pieces = []
        with chunk_size(chunk):
            array_core.write_records("ARRV1", shape, rows, shape[0], pieces.append)
        assert "".join(pieces) == dump_arrays_oracle([unrvec(r, shape) for r in rows])
        assert all(values_per_piece(p, "ARRV1") <= chunk for p in pieces)

    @settings(max_examples=200)
    @given(st.integers(1, 4), st.integers(1, 4), st.data(), CHUNKS)
    def test_dump_matrix_matches_oracle(self, r, c, data, chunk):
        a = np.array(data.draw(st.lists(VALUES, min_size=r * c, max_size=r * c))).reshape(r, c)
        with chunk_size(chunk):
            assert linalg.dump_matrix(a) == dump_matrix_oracle(a)

    def test_special_values_and_empty_inputs(self):
        x = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [-1.7976931348623157e308, 2.225073858507201e-308, 1.0]])
        assert array_core.dump_array(x) == dump_arrays_oracle([x])
        assert linalg.dump_matrix(x) == dump_matrix_oracle(x)
        assert array_core.dump_arrays([]) == dump_arrays_oracle([]) == ""
        pieces = []
        array_core.write_records("ARRV1", (2, 3), np.empty((0, 6)), 2, pieces.append)
        assert pieces == []
        # zero-size shapes: written as the reference writer writes them, or rejected as it rejects them
        assert array_core.dump_array(np.zeros((3, 0))) == dump_arrays_oracle([np.zeros((3, 0))])
        assert linalg.dump_matrix(np.zeros((0, 3))) == dump_matrix_oracle(np.zeros((0, 3)))
        for rejects in (lambda: dump_arrays_oracle([np.zeros((0, 3))]), lambda: array_core.dump_array(np.zeros((0, 3))),
                        lambda: dump_matrix_oracle(np.zeros((3, 0))), lambda: linalg.dump_matrix(np.zeros((3, 0)))):
            with pytest.raises(ValueError):
                rejects()


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
def record_texts(draw, header):
    """A text written by the oracle writer, then 0-3 edits: dropped or extra
    tokens, bad, nan or inf tokens, blank lines, truncation, wrong headers and
    wrong or reordered dims."""
    if header == "MATV1":
        shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))
        per_line = 1
    else:
        shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
        per_line = 0
    parts = []
    for _ in range(draw(st.integers(0, 3))):
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


def outcome(parse, text, header, order):
    try:
        return [(dims, values.tobytes()) for dims, values in parse(text, "f.txt", header, order)]
    except FormatError as exc:
        return f"FormatError: {exc}"


class TestReader:
    @settings(max_examples=600)
    @given(st.sampled_from(["ARRV1", "MATV1"]).flatmap(lambda h: st.tuples(st.just(h), record_texts(h))), CHUNKS)
    def test_same_records_or_same_message_as_oracle(self, case, chunk):
        header, text = case
        order = 2 if header == "MATV1" else None
        with chunk_size(chunk):
            assert outcome(array_core.parse_records, text, header, order) == \
                outcome(parse_records_oracle, text, header, order)

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
    ])
    def test_fault_order_cases(self, text):
        for chunk in (1, 2, 3, array_core.CHUNK):
            with chunk_size(chunk):
                assert outcome(array_core.parse_records, text, "ARRV1", None) == \
                    outcome(parse_records_oracle, text, "ARRV1", None)

    @settings(max_examples=100)
    @given(array_lists(max_size=4), CHUNKS)
    def test_round_trip(self, arrays, chunk):
        with chunk_size(chunk):
            back = array_core.parse_arrays(array_core.dump_arrays(arrays))
        assert [a.shape for a in back] == [a.shape for a in arrays]
        for a, b in zip(arrays, back):
            assert a.tobytes() == b.tobytes()
