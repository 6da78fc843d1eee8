"""Differential test: reading a document against a dense in-test oracle.

``Operator`` skips the string "0" without parsing it and keeps only nonzero
cells.  The oracle parses every cell with ``Fraction`` into a dense list of
lists and lives only here.  Cells mix every spelling
of zero a document may hold with nonzero strings and integers; a few are
invalid, and some documents miss their last row.  The operator must equal
the oracle, or raise the oracle's first error: cells are parsed row by row
before the shape is checked.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rimealg.cli import MatrixDocument

ZEROS = ("0", "-0", "0/7", "00", " 0", 0)
NONZEROS = ("-3/4", "5", "1/2", "-7", "12/8")
INVALID = ("1/0", "abc")


def oracle(entries):
    """Every cell parsed with ``Fraction``, as a plain dense reader would."""
    return [[Fraction(v) for v in row] for row in entries]


def document(n, arity, entries) -> str:
    return json.dumps({"n": n, "arity": arity, "entries": entries})


cells = st.one_of(
    st.sampled_from(ZEROS),
    st.sampled_from(NONZEROS),
    st.integers(-5, 5),
)


@st.composite
def documents(draw):
    n = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 2))
    size = n**arity
    entries = draw(st.lists(st.lists(cells, min_size=size, max_size=size),
                            min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:  # one invalid cell
        row, col = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        entries[row][col] = draw(st.sampled_from(INVALID))
    if draw(st.booleans()):
        entries = entries[:-1]
    return n, arity, entries


@settings(max_examples=200)
@given(documents())
def test_document_reading_matches_dense_oracle(case):
    n, arity, entries = case
    doc = MatrixDocument.from_json(document(n, arity, entries))
    try:
        dense = oracle(entries)
    except (ValueError, ZeroDivisionError) as exc:  # the first bad cell, row by row
        with pytest.raises(type(exc)) as info:
            doc.to_operator()
        assert str(info.value) == str(exc)
        return
    if len(dense) != n**arity:  # every drawn row is full; only the last may be missing
        with pytest.raises(ValueError, match="expected a"):
            doc.to_operator()
        return
    op = doc.to_operator()
    assert op.dense_rows() == dense
    assert all(v for row in op._rows for v in row.values())  # no stored zero


def test_short_document_reports_the_parse_error_first():
    entries = [["1", "0", "0", "0"], ["0", "abc", "0", "0"], ["0", "0", "0", "1"]]
    doc = MatrixDocument.from_json(document(2, 2, entries))
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'abc'"):
        doc.to_operator()
    with pytest.raises(ValueError, match="expected a 4x4 array"):
        MatrixDocument.from_json(document(2, 2, entries[:1] + entries[2:])).to_operator()
