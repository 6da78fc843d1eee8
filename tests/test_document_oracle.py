"""Differential tests: reading and writing documents against in-test oracles.

``Operator`` skips the string "0" without parsing it, parses each other
distinct string once and keeps only nonzero cells.  The oracle parses every
cell with ``Fraction`` into a dense list of lists and lives only here.
Cells mix every spelling of zero a document may hold with nonzero strings
and integers; a few are invalid, and some documents miss their last row.
The operator must equal the oracle, or raise the oracle's first error:
cells are parsed row by row before the shape is checked.

Writing has two oracles: ``from_operator`` must give the dense ``str(v)``
grid, and ``to_json`` must give ``json.dumps(payload, indent=2) + "\\n"``.

The exit-code contract of ``verify --input`` is fuzzed last: any document,
with any field replaced by arbitrary JSON, exits 0, 1 or 2 and raises
nothing, and a document whose arity is not 2 always exits 2.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rimealg.cli import ORDER, MatrixDocument, main
from rimealg.core import Operator
from rimealg.families import FAMILY_TAGS

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


def test_repeated_bad_string_raises_the_first_parse_error():
    # "abc" is met again after "1/0"; each distinct string is parsed once, at its first cell
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'abc'"):
        Operator(2, 1, [["5", "abc"], ["abc", "1/0"]])
    with pytest.raises(ZeroDivisionError):
        Operator(2, 1, [["1/0", "abc"], ["1/0", "abc"]])


def test_bool_cells_stay_rejected_next_to_equal_values():
    # True == 1 and hash(True) == hash(1): no cell may borrow another cell's parse
    for cells in (["1", True], [1, True], [True, "1"], ["1", 1, True]):
        with pytest.raises(TypeError, match="got bool"):
            Operator(len(cells), 1, [cells] * len(cells))
    op = Operator(2, 1, [["1", 1], [1, "1"]])
    assert op.dense_rows() == [[1, 1], [1, 1]]


# -- writing -------------------------------------------------------------------------


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 2))
    size = n**arity
    values = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
    dense = draw(st.lists(st.lists(values, min_size=size, max_size=size),
                          min_size=size, max_size=size))
    return Operator(n, arity, dense), dense


@settings(max_examples=200)
@given(operators())
def test_from_operator_matches_dense_str_grid(case):
    op, dense = case
    doc = MatrixDocument.from_operator(op)
    assert doc.entries == tuple(tuple(str(v) for v in row) for row in dense)


# cell text that JSON must escape: quotes, backslashes, control and non-ASCII
# characters, a lone surrogate, next to the usual rational strings
texts = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u00e9\u2028\ud800\U0001f600 0-1/2')),
    st.sampled_from(("0", "-3/4", "5")),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(
    st.integers(-3, 9),
    st.integers(-3, 9),
    st.one_of(st.just(ORDER), texts),
    st.one_of(st.none(), texts),
    st.dictionaries(texts, json_values, max_size=4),
    st.lists(st.lists(texts, max_size=4).map(tuple), max_size=4).map(tuple),
)
def test_to_json_matches_json_dumps(n, arity, order, family, params, entries):
    doc = MatrixDocument(n, arity, order, family, params, entries)
    payload = {"n": n, "arity": arity, "order": order, "family": family, "params": params,
               "entries": [list(row) for row in entries]}
    assert doc.to_json() == json.dumps(payload, indent=2) + "\n"


# -- the verify --input exit-code contract -------------------------------------------

CHECK_NAMES = ("ybe", "hecke", "multiplicities", "classify", "cybe", "acybe", "tilde",
               "idempotent", "nilpotent", "braid")
FIELDS = ("n", "arity", "family", "params", "params.beta", "entries")


@st.composite
def contract_cases(draw):
    n = draw(st.integers(1, 2))
    arity = draw(st.sampled_from((1, 2, 2, 3)))  # checks run on arity 2 only
    size = n**arity
    payload = {
        "n": n,
        "arity": arity,
        "family": draw(st.sampled_from((None, *FAMILY_TAGS))),
        "params": {"beta": draw(st.sampled_from(("3", "2", "0", "-1/2")))},
        "entries": draw(st.lists(st.lists(cells, min_size=size, max_size=size),
                                 min_size=size, max_size=size)),
    }
    field = draw(st.none() | st.sampled_from(FIELDS))  # sometimes one field is arbitrary JSON
    if field == "params.beta":
        payload["params"]["beta"] = draw(json_values)
    elif field is not None:
        payload[field] = draw(json_values)
    argv = []
    checks = draw(st.lists(st.sampled_from(CHECK_NAMES + ("bogus",)), max_size=3))
    if checks:
        argv += ["--checks", ",".join(checks)]
    beta = draw(st.sampled_from((None, "3", "2", "0", "-1/2", "1/0", "abc")))
    if beta is not None:
        argv.append(f"--beta={beta}")  # "--beta -1/2" would read -1/2 as an option
    return payload, argv


@settings(max_examples=300, deadline=None)
@given(contract_cases())
def test_verify_document_exit_code_contract(tmp_path_factory, case):
    payload, argv = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--input", str(path), *argv])
    assert code in (0, 1, 2)
    if payload["arity"] != 2:
        assert code == 2
