"""Command-line contract: documents, subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rimealg.cli import MatrixDocument, format_report, main
from rimealg.core import permutation
from rimealg.families import FAMILY_TAGS, FamilySpec, build
from rimealg.verify import VerificationReport, check_ybe

RIME_ENTRIES = [
    ["1", "0", "0", "0"],
    ["-6", "6", "4", "-3"],
    ["6", "-5", "-3", "3"],
    ["0", "0", "0", "1"],
]


# -- document format -------------------------------------------------------------


def test_document_round_trip_over_families():
    specs = [
        FamilySpec("rime-quantum", 3, beta="1/2", phi=(3, 2, 1)),
        FamilySpec("rime-unitary", 2, mu=(0, 1)),
        FamilySpec("cg", 3, q2inv="-1/2", p=2),
        FamilySpec("classical-rime", 2, phi=(2, 1)),
        FamilySpec("boundary", 3),
    ]
    for spec in specs:
        op = build(spec)
        doc = MatrixDocument.from_operator(op, spec)
        again = MatrixDocument.from_json(doc.to_json())
        assert again == doc
        assert again.to_operator() == op


def test_document_of_untagged_operator():
    doc = MatrixDocument.from_operator(permutation(2))
    assert doc.family is None
    assert doc.params == {}
    assert MatrixDocument.from_json(doc.to_json()) == doc


def test_document_json_field_layout():
    spec = FamilySpec("rime-quantum", 2, beta=3, phi=(2, 1))
    doc = MatrixDocument.from_operator(build(spec), spec)
    payload = json.loads(doc.to_json())
    assert list(payload) == ["n", "arity", "order", "family", "params", "entries"]
    assert payload["order"] == "lexicographic (i,j) rows/cols"
    assert payload["params"] == {"beta": "3", "phi": "2,1"}
    assert payload["entries"] == RIME_ENTRIES


def test_document_parse_rejections():
    with pytest.raises(ValueError):
        MatrixDocument.from_json("[1, 2]")
    with pytest.raises(ValueError):
        MatrixDocument.from_json('{"n": 2, "arity": 2}')
    with pytest.raises(ValueError):
        MatrixDocument.from_json(
            '{"n": 1, "arity": 1, "order": "column-major", "entries": [["1"]]}'
        )


def test_document_tsv():
    doc = MatrixDocument.from_operator(permutation(2))
    assert doc.to_tsv() == "1\t0\t0\t0\n0\t0\t1\t0\n0\t1\t0\t0\n0\t0\t0\t1\n"


def test_format_report_failure_line():
    rep = VerificationReport(
        "ybe",
        False,
        Fraction(5),
        ((1, 1, 2), (1, 1, 1), Fraction(-36)),
        {"failed_part": "ybe", "observed": "rime", "expected": "ice"},
    )
    line = format_report(rep)
    assert line.startswith("ybe FAIL witness=(1,1,2)(1,1,1) value=-36")
    assert "observed=rime" in line and "expected=ice" in line


# -- generate ------------------------------------------------------------------------


def test_generate_rime_document(capsys):
    assert main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "rime-quantum"
    assert payload["entries"] == RIME_ENTRIES


def test_generate_degenerate_cg_is_permutation(capsys):
    assert main(["generate", "cg", "--n", "2", "--q2inv", "1", "--p", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == [
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "0", "1"],
    ]


def test_generate_boundary_document(capsys):
    assert main(["generate", "boundary", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == [
        ["0", "0", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "0", "-1"],
        ["0", "0", "0", "0"],
    ]


def test_generate_tsv_format(capsys):
    assert main(["generate", "unitary", "--n", "2", "--mu", "0,1", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1\t0\t0\t0"


def test_generate_invalid_parameters_exit_2(capsys):
    assert main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "1,1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "distinct" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--beta", ["verify", "--family", "rime", "--n", "3", "--beta", "-7/3", "--phi", "3,1,4"]),
        ("--phi", ["generate", "rime", "--n", "3", "--beta", "1/2", "--phi", "-1/2,3,4"]),
        ("--mu", ["verify", "--family", "unitary", "--n", "3", "--mu", "-1/2,0,2"]),
        ("--q2inv", ["generate", "cg", "--n", "3", "--q2inv", "-1/2", "--p", "2"]),
        ("--p", ["generate", "cg", "--n", "3", "--q2inv", "1/2", "--p", "-3/2"]),
        # abbreviations that argparse resolves to one rational flag
        ("--bet", ["verify", "--family", "rime", "--n", "3", "--bet", "-7/3", "--phi", "3,1,4",
                   "--checks", "ybe"]),
        ("--m", ["verify", "--family", "unitary", "--n", "3", "--m", "-1,0,2", "--checks", "cybe"]),
    ],
)
def test_negative_rational_as_a_separate_flag_value(capsys, flag, argv):
    i = argv.index(flag)
    assert main([*argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2:]]) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "rime", "--n", "3", "--bogus", "-7/3"],
    ["generate", "rime", "--n", "3", "--beta", "--phi", "-1/2,3,4"],
    ["generate", "cg", "--n", "3", "--q2inv", "1/2", "--ps", "-3/2"],
    ["report", "--seed", "-1/2"],
])
def test_unknown_or_valueless_flag_still_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    capsys.readouterr()


def test_generate_above_cap_exit_2(capsys):
    assert main(["generate", "boundary", "--n", "9"]) == 2
    assert "n above supported cap" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["3", "abc"])
def test_dimension_limit_ignores_rime_max_n(value, monkeypatch, capsys):
    # the limit n <= 8 is a constant: no environment variable moves it
    monkeypatch.setenv("RIME_MAX_N", value)
    assert main(["generate", "boundary", "--n", "8"]) == 0
    capsys.readouterr()
    assert main(["generate", "boundary", "--n", "9"]) == 2
    assert capsys.readouterr().err == "error: n above supported cap: 9 > 8\n"


def test_dimension_limit_admits_n_8(capsys):
    assert main(["verify", "--family", "rime", "--n", "8", "--beta", "-7/3", "--phi", "3,1,4,-2,5,7,9,-6",
                 "--checks", "equivalence-quantum,equivalence-classical,quantization"]) == 0
    assert capsys.readouterr().out == "equivalence-quantum PASS\nequivalence-classical PASS\nquantization PASS\n"
    assert main(["report", "--n-max", "8", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total 317/317 checks passed"


# -- entry size ---------------------------------------------------------------------


# Python's int-to-str digit limit (4300 by default) is the entry-size limit: a
# longer decimal number in a document cell or a rational flag exits 2
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _document_argv(tmp_path, big, json_integer):
    grid = [["0"] * 4 for _ in range(4)]
    grid[1][2] = big  # big times the unit at row (1,2), column (2,1) squares to 0
    text = json.dumps({"n": 2, "arity": 2, "entries": grid})
    if json_integer:
        text = text.replace(f'"{big}"', big)
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    return ["verify", "--input", str(path), "--checks", "nilpotent"], "nilpotent PASS\n"


_ENTRY_ROUTES = {
    "document-string-cell": lambda tmp_path, big: _document_argv(tmp_path, big, False),
    "document-json-integer-cell": lambda tmp_path, big: _document_argv(tmp_path, big, True),
    "beta-flag": lambda tmp_path, big: (
        ["verify", "--family", "rime", "--n", "2", "--beta", big, "--phi", "2,1", "--checks", "ybe"],
        "ybe PASS\n",
    ),
}


@pytest.mark.skipif(not _MAX_DIGITS, reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("route", sorted(_ENTRY_ROUTES))
def test_entry_digit_limit(route, tmp_path, capsys):
    argv, passed = _ENTRY_ROUTES[route](tmp_path, "9" * _MAX_DIGITS)
    assert main(argv) == 0
    assert capsys.readouterr() == (passed, "")
    argv, _ = _ENTRY_ROUTES[route](tmp_path, "9" * (_MAX_DIGITS + 1))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: Exceeds the limit ({_MAX_DIGITS} digits)")


@pytest.mark.skipif(not _MAX_DIGITS, reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_generate_refuses_an_entry_over_the_digit_limit(fmt, tmp_path, capsys):
    # beta = 10^k - 1 at phi = (2, 1) puts 2 beta and 1 + beta, each one digit
    # longer than beta, in row (1,2): at k = 4300 no document is written, since
    # verify --input could not read it back, and at k = 4299 it round-trips
    argv = ["generate", "rime", "--n", "2", "--beta", "9" * _MAX_DIGITS, "--phi", "2,1", "--format", fmt]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: entry at row (1,2), column (1,1) exceeds the "
                                       f"{_MAX_DIGITS}-digit limit of a document entry\n")
    argv[5] = "9" * (_MAX_DIGITS - 1)
    assert main(argv) == 0
    text = capsys.readouterr().out
    if fmt == "json":
        assert MatrixDocument.from_json(text).to_json() == text
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", "--input", str(path), "--checks", "hecke,classify"]) == 0
        assert capsys.readouterr() == ("hecke PASS\nclassify PASS\n", "")
    else:
        cells = [cell.lstrip("-") for line in text.splitlines() for cell in line.split("\t")]
        assert max(map(len, cells)) == _MAX_DIGITS


# -- verify ---------------------------------------------------------------------------


def test_verify_family_selected_checks(capsys):
    code = main(
        ["verify", "--family", "rime", "--n", "3", "--beta", "1/2",
         "--phi", "3,2,1", "--checks", "ybe,hecke,multiplicities"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["ybe PASS", "hecke PASS", "multiplicities PASS"]


def test_verify_boundary_full_names(capsys):
    assert main(["verify", "--family", "boundary", "--n", "3",
                 "--checks", "acybe,nilpotent,cybe"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["acybe PASS", "nilpotent PASS", "cybe PASS"]


def test_verify_unknown_check_exit_2(capsys):
    assert main(["verify", "--family", "boundary", "--n", "3", "--checks", "ybe"]) == 2
    assert "not applicable" in capsys.readouterr().err


@pytest.mark.parametrize("checks", ["", "ybe,", "ybe,,hecke", " , "])
def test_verify_empty_check_name_exit_2(checks, tmp_path, capsys):
    main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"])
    path = tmp_path / "rime.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    for source in (["--family", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"], ["--input", str(path)]):
        assert main(["verify", *source, f"--checks={checks}"]) == 2
        assert capsys.readouterr() == ("", f"error: empty check name in --checks {checks!r}\n")


def test_verify_without_inputs_exit_2(capsys):
    assert main(["verify"]) == 2
    assert "needs either" in capsys.readouterr().err


def test_verify_document_default_checks(tmp_path, capsys):
    main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"])
    doc_text = capsys.readouterr().out
    path = tmp_path / "rime.json"
    path.write_text(doc_text, encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ybe PASS"

    main(["generate", "classical-cg", "--n", "3"])
    cpath = tmp_path / "ccg.json"
    cpath.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify", "--input", str(cpath)]) == 0
    assert capsys.readouterr().out.strip() == "cybe PASS"


@pytest.mark.parametrize("argv", [
    ["cg", "--n", "3", "--q2inv=-1/2", "--p", "2"],  # beta = 1 - q2inv
    ["unitary", "--n", "3", "--mu", "0,1,3"],  # beta = 0 for rime-unitary
])
def test_verify_document_reads_beta_from_family(argv, tmp_path, capsys):
    main(["generate", *argv])
    path = tmp_path / "doc.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "hecke,multiplicities"]) == 0
    assert capsys.readouterr().out == "hecke PASS\nmultiplicities PASS\n"


def test_verify_tampered_document_exit_1(tmp_path, capsys):
    main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"])
    payload = json.loads(capsys.readouterr().out)
    payload["entries"][1][2] = "5"  # row (1,2), column (2,1): 4 -> 5
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ybe FAIL witness=(")


def test_verify_untagged_document_needs_checks(tmp_path, capsys):
    doc = MatrixDocument.from_operator(permutation(2))
    path = tmp_path / "p.json"
    path.write_text(doc.to_json(), encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 2
    assert "untagged" in capsys.readouterr().err
    assert main(["verify", "--input", str(path), "--checks", "ybe,braid"]) == 0
    capsys.readouterr()


def test_verify_document_beta_override(tmp_path, capsys):
    doc = MatrixDocument.from_operator(permutation(2))
    path = tmp_path / "p.json"
    path.write_text(doc.to_json(), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "hecke", "--beta", "0"]) == 0
    capsys.readouterr()
    # no recorded parameters and no flag: beta cannot be inferred
    assert main(["verify", "--input", str(path), "--checks", "hecke"]) == 2
    assert "needs beta" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--family", "cg"],
    ["--n", "5"],
    ["--phi", "2,1"],
    ["--mu", "0,1"],
    ["--q2inv", "2"],
    ["--p", "1"],
    ["--family", "cg", "--n", "5", "--q2inv", "2", "--p", "1"],
])
def test_verify_input_refuses_family_flags(flags, tmp_path, capsys):
    # the document names its operator; a family flag beside it would be ignored
    path = tmp_path / "p.json"
    path.write_text(MatrixDocument.from_operator(permutation(2)).to_json(), encoding="utf-8")
    assert main(["verify", "--input", str(path), *flags, "--checks", "ybe"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --input excludes the family flags")
    for flag in flags[::2]:
        assert flag in err


def test_verify_skew_document_routes_to_homogeneous_variant(tmp_path, capsys):
    main(["generate", "unitary", "--n", "2", "--mu", "0,1"])
    capsys.readouterr()
    main(["generate", "classical-unitary", "--n", "2", "--mu", "0,1"])
    path = tmp_path / "r0.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "acybe,nilpotent"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["acybe PASS", "nilpotent PASS"]


def test_verify_family_runs_only_requested_checks(monkeypatch, capsys):
    def boom(_r):
        raise AssertionError("check_cybe ran although only ybe was requested")

    monkeypatch.setattr("rimealg.verify.check_cybe", boom)
    assert main(["verify", "--family", "rime", "--n", "3", "--beta", "1/2",
                 "--phi", "3,2,1", "--checks", "ybe"]) == 0
    assert capsys.readouterr().out == "ybe PASS\n"


def test_verify_division_by_zero_exit_2(tmp_path, capsys):
    assert main(["verify", "--family", "rime", "--n", "2", "--beta", "1/0", "--phi", "2,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    payload = json.loads(MatrixDocument.from_operator(permutation(2)).to_json())
    payload["entries"][0][0] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_document_rejects_json_floats(tmp_path, capsys):
    payload = json.loads(MatrixDocument.from_operator(permutation(2)).to_json())
    payload["entries"][1][1] = 0.5
    text = json.dumps(payload)
    with pytest.raises(ValueError, match="non-integer JSON number 0.5"):
        MatrixDocument.from_json(text)
    path = tmp_path / "float.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe"]) == 2
    assert "non-integer JSON number" in capsys.readouterr().err
    payload["entries"][1][1] = 0  # integer JSON numbers stay accepted
    assert MatrixDocument.from_json(json.dumps(payload)).entries[1][1] == "0"


def _rime_document(capsys) -> dict:
    main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"])
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", ["bogus", 5, ["x"]])
def test_verify_document_unknown_family_exit_2(family, tmp_path, capsys):
    payload = _rime_document(capsys)
    payload["family"] = family
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown family {family!r}")


def test_verify_document_bool_beta_exit_2(tmp_path, capsys):
    payload = _rime_document(capsys)
    assert payload["params"]["beta"] == "3"
    payload["params"]["beta"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "hecke"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "got bool" in captured.err


def test_verify_document_multiplicities_at_beta_2_exit_2(tmp_path, capsys):
    # undefined at beta = 2 for every operator: a usage error, as with --family
    main(["generate", "rime", "--n", "2", "--beta", "2", "--phi", "2,1"])
    path = tmp_path / "b2.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "hecke,multiplicities"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multiplicities are undefined at beta = 2 (coincident eigenvalues)\n"
    # a non-Hecke operator, whose projector trace is not an integer, still fails
    payload = _rime_document(capsys)
    payload["entries"][0][0] = "3/2"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "multiplicities"]) == 1
    assert "is not an integer" in capsys.readouterr().out


@pytest.mark.parametrize("params", [[["beta", "3"]], "", [], 0, False])
def test_verify_document_params_not_an_object_exit_2(params, tmp_path, capsys):
    payload = _rime_document(capsys)
    payload["params"] = params
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "hecke"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: document field 'params' must be a JSON object or null")
    payload["params"] = None  # null, or no field at all, reads as no parameters
    assert MatrixDocument.from_json(json.dumps(payload)).params == {}
    del payload["params"]
    assert MatrixDocument.from_json(json.dumps(payload)).params == {}


def test_verify_document_of_arity_other_than_2_exit_2(tmp_path, capsys):
    # every check is defined on arity-2 operators; none may run on another arity
    names = ("ybe", "hecke", "multiplicities", "classify", "cybe", "acybe", "tilde",
             "idempotent", "nilpotent", "braid")
    for n, arity in ((1, 3), (2, 1), (2, 3)):
        size = n**arity
        entries = [["1" if r == c else "0" for c in range(size)] for r in range(size)]
        path = tmp_path / f"doc{n}{arity}.json"
        path.write_text(json.dumps({"n": n, "arity": arity, "family": "classical-rime",
                                    "params": {"beta": "3"}, "entries": entries}))
        for name in names:
            assert main(["verify", "--input", str(path), "--checks", name]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: every check needs an arity-2 operator, got arity {arity}\n"


def test_verify_missing_file_exit_2(capsys):
    assert main(["verify", "--input", "/nonexistent/doc.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 1, "arity": 2, "entries": ["5"]},
        {"n": 1, "arity": 2, "entries": {"7": 0}},
        {"n": True, "arity": 2, "entries": [["5"]]},
    ],
    ids=["row-as-string", "entries-object", "n-bool"],
)
def test_verify_malformed_document_shape_exit_2(payload, tmp_path, capsys):
    text = json.dumps(payload)
    with pytest.raises(ValueError):
        MatrixDocument.from_json(text)
    path = tmp_path / "shape.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe,hecke", "--beta", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: document ")


def test_verify_huge_witness_prints_exactly_in_hex(tmp_path, capsys):
    # 4000-digit entries parse, but the YBE residual passes the int-to-str digit limit
    big = "1" * 4000
    grid = [[big if (i + j) % 3 == 0 else "1" for j in range(4)] for i in range(4)]
    text = json.dumps({"n": 2, "arity": 2, "entries": grid})
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--input", str(path), "--checks", "ybe"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ybe FAIL witness=(") and out.count("\n") == 1
    num, _, den = out.strip().split(" value=")[1].partition("/")
    assert num.lstrip("-").startswith("0x")
    expected = check_ybe(MatrixDocument.from_json(text).to_operator()).witness[2]
    assert Fraction(int(num, 16), int(den, 16) if den else 1) == expected


# -- report ------------------------------------------------------------------------------


def test_report_small_sweep_passes(capsys):
    assert main(["report", "--n-max", "2", "--seeds", "1", "--seed-value", "42"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("n=2 seed=0 rime-quantum")
    assert any(line.startswith("limit mu=0,1 ") for line in lines)
    assert lines[-1].startswith("total ")
    assert "FAIL" not in out


def test_report_prints_a_reproduce_block_per_failing_family(monkeypatch, capsys):
    failing = VerificationReport("ybe", False, Fraction(3, 2), ((1, 2), (2, 1), Fraction(-3, 2)),
                                 {"failed_part": "ybe"})
    passing = VerificationReport("ybe", True, Fraction(0), None, {})
    monkeypatch.setattr("rimealg.cli.run_suite",
                        lambda spec: [failing if spec.family == "cg" else passing])
    assert main(["report", "--n-max", "2", "--seeds", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "n=2 seed=0 rime-quantum 1/1 PASS",
        "n=2 seed=0 rime-unitary 1/1 PASS",
        "n=2 seed=0 cg 0/1 FAIL",
        "  reproduce: seed-value=0 params={'family': 'cg', 'n': '2', 'q2inv': '-13/2', 'p': '4'}",
        "  ybe FAIL witness=(1,2)(2,1) value=-3/2 part[ybe]",
        "n=2 seed=0 classical-rime 1/1 PASS",
        "n=2 seed=0 classical-cg 1/1 PASS",
        "n=2 seed=0 classical-unitary 1/1 PASS",
        "n=2 seed=0 boundary 1/1 PASS",
        "limit mu=0,1 slope=1.0000 dev@1e-04=1.000e-04 PASS",
        "limit mu=0,1,3 slope=1.0000 dev@1e-04=1.500e-04 PASS",
        "total 8/9 checks passed",
    ]


def test_report_is_deterministic(capsys):
    main(["report", "--n-max", "2", "--seeds", "2", "--seed-value", "7"])
    first = capsys.readouterr().out
    main(["report", "--n-max", "2", "--seeds", "2", "--seed-value", "7"])
    second = capsys.readouterr().out
    assert first == second
    main(["report", "--n-max", "2", "--seeds", "2", "--seed-value", "8"])
    assert capsys.readouterr().out != first  # the seed actually matters


def test_report_above_cap_exit_2(capsys):
    assert main(["report", "--n-max", "9"]) == 2
    assert "n above supported cap" in capsys.readouterr().err


def test_report_argument_validation(capsys):
    assert main(["report", "--n-max", "1"]) == 2
    capsys.readouterr()
    assert main(["report", "--n-max", "2", "--seeds", "0"]) == 2
    capsys.readouterr()


def test_entrypoint_exits_with_main_code(monkeypatch, capsys):
    import rimealg.cli as cli

    monkeypatch.setattr("sys.argv", ["rimealg", "generate", "boundary", "--n", "2"])
    with pytest.raises(SystemExit) as info:
        cli.entrypoint()
    assert info.value.code == 0
    capsys.readouterr()


def test_main_builds_the_parser_once(capsys):
    import rimealg.cli as cli

    cli._build_parser.cache_clear()
    assert main(["generate", "boundary", "--n", "2"]) == 0
    assert main(["verify", "--family", "boundary", "--n", "2", "--checks", "nilpotent"]) == 0
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_import_builds_no_parser_and_loads_no_numpy():
    import rimealg

    code = ("import sys, rimealg.cli as c; "
            "print(c._build_parser.cache_info().currsize, 'numpy' in sys.modules)")
    src = str(Path(rimealg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 False\n"


def test_package_reexports_exactly_each_module_all():
    import rimealg
    from rimealg import core, families, limits, verify

    modules = (core, families, limits, verify)
    names = [*(name for m in modules for name in m.__all__), "__version__"]
    assert sorted(rimealg.__all__) == sorted(names)
    assert len(set(names)) == len(names) == 55
    for m in modules:
        for name in m.__all__:
            assert getattr(rimealg, name) is getattr(m, name)
    namespace = {}
    exec("from rimealg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rimealg.__all__)


def test_package_runs_without_numpy(tmp_path):
    # with every "import numpy" failing, the CLI, the report and all five demos run
    import rimealg

    code = textwrap.dedent("""
        import contextlib, io, runpy, sys
        sys.modules["numpy"] = None
        from rimealg.cli import main

        doc, demos = sys.argv[1], sys.argv[2:]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [main(["generate", "classical-rime", "--n", "3", "--phi", "3,2,1"])]
        with open(doc, "w") as handle:
            handle.write(out.getvalue())
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(["verify", "--input", doc]))
            codes.append(main(["report", "--n-max", "3", "--seeds", "1"]))
            for demo in demos:
                runpy.run_path(demo, run_name="__main__")
        print(codes, len(demos))
    """)
    src = str(Path(rimealg.__file__).resolve().parents[1])
    demos = sorted(str(p) for p in (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "doc.json"), *demos],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[0, 0, 0] 5\n"


def test_patched_command_is_honoured_after_first_call(monkeypatch, capsys):
    import rimealg.cli as cli

    assert main(["generate", "boundary", "--n", "2"]) == 0
    capsys.readouterr()
    seen = []

    def fake(args):
        seen.append(args.input)
        return 7

    monkeypatch.setattr(cli, "cmd_verify", fake)
    assert main(["verify", "--input", "doc.json"]) == 7
    assert seen == ["doc.json"]


# -- flag parser fuzz ------------------------------------------------------------------

_FAMILY_WORDS = (*FAMILY_TAGS, "rime", "unitary", "rime-classical", "")
_CHECK_WORDS = ("ybe", "hecke", "multiplicities", "classify", "cybe", "acybe", "tilde",
                "idempotent", "nilpotent", "braid", "quantization", "beta-constancy",
                "equivalence-quantum", "equivalence-classical", "ybe,braid", "hecke,ybe,ybe",
                "bogus", "", ",")
_RATIONAL_WORDS = ("0", "1", "2", "3", "-1/2", "1/0", "", "x", "1.5")
_VECTOR_WORDS = ("1,2,3", "3,2", "1,1", "0,1", "1/0,2", "", ",", "x,1")
# --n and --n-max stay at most 3, so every run that gets past the parser is quick
_SMALL_INT_WORDS = ("-1", "0", "1", "2", "3", "x", "")
_FLAG_WORDS = {
    "--n": _SMALL_INT_WORDS,
    "--family": _FAMILY_WORDS,
    "--checks": _CHECK_WORDS,
    "--beta": _RATIONAL_WORDS,
    "--q2inv": _RATIONAL_WORDS,
    "--p": _RATIONAL_WORDS,
    "--phi": _VECTOR_WORDS,
    "--mu": _VECTOR_WORDS,
    "--format": ("json", "tsv", "xml"),
    "--input": ("/nonexistent/doc.json", "."),
    "--n-max": _SMALL_INT_WORDS,
    "--seeds": ("0", "1", "x", ""),
    "--seed-value": ("0", "7", "x"),
    "--bogus": ("1",),
}


_SUBCOMMAND_FLAGS = {
    "generate": ("--n", "--beta", "--phi", "--mu", "--q2inv", "--p", "--format"),
    "verify": ("--input", "--family", "--n", "--beta", "--phi", "--mu", "--q2inv", "--p",
               "--checks"),
    "report": ("--n-max", "--seeds", "--seed-value"),
    "bogus": (),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command]
    if draw(st.integers(0, 3)) == 0 or (command == "generate" and draw(st.integers(0, 9))):
        argv.append(draw(st.sampled_from(_FAMILY_WORDS)))  # generate's family, or a stray word
    # mostly the subcommand's own flags, now and then any flag
    own = st.sampled_from(_SUBCOMMAND_FLAGS[command] or sorted(_FLAG_WORDS))
    flags = st.one_of(own, own, own, st.sampled_from(sorted(_FLAG_WORDS)))
    for flag in draw(st.lists(flags, max_size=5)):
        argv.append(flag)
        if draw(st.integers(0, 9)):  # now and then a flag without its value
            argv.append(draw(st.sampled_from(_FLAG_WORDS[flag])))
    return argv


@given(cli_argv())
def test_main_keeps_the_exit_code_contract_on_fuzzed_flags(argv):
    # 0 pass, 1 a check failed, 2 a usage or input error; argparse exits 2 itself
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2), argv
