"""Command-line contract: documents, subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rimealg.cli import MatrixDocument, _n_cap, format_report, main
from rimealg.core import permutation
from rimealg.families import FamilySpec, build
from rimealg.verify import VerificationReport, check_ybe

RIME_ENTRIES = [
    ["1", "0", "0", "0"],
    ["-6", "6", "4", "-3"],
    ["6", "-5", "-3", "3"],
    ["0", "0", "0", "1"],
]


# -- dimension cap -------------------------------------------------------------


def test_n_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("RIME_MAX_N", raising=False)
    assert _n_cap() == 6
    monkeypatch.setenv("RIME_MAX_N", "8")
    assert _n_cap() == 8
    monkeypatch.setenv("RIME_MAX_N", "3")
    assert _n_cap() == 3


def test_n_cap_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("RIME_MAX_N", "abc")
    with pytest.raises(ValueError):
        _n_cap()
    monkeypatch.setenv("RIME_MAX_N", "9")
    with pytest.raises(ValueError):
        _n_cap()
    monkeypatch.setenv("RIME_MAX_N", "0")
    with pytest.raises(ValueError):
        _n_cap()


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
        doc = MatrixDocument.from_operator(op)
        again = MatrixDocument.from_json(doc.to_json())
        assert again == doc
        assert again.to_operator() == op


def test_document_of_untagged_operator():
    doc = MatrixDocument.from_operator(permutation(2))
    assert doc.family is None
    assert doc.params == {}
    assert MatrixDocument.from_json(doc.to_json()) == doc


def test_document_json_field_layout():
    doc = MatrixDocument.from_operator(build(FamilySpec("rime-quantum", 2, beta=3, phi=(2, 1))))
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


def test_generate_above_cap_exit_2(capsys):
    assert main(["generate", "boundary", "--n", "7"]) == 2
    assert "n above supported cap" in capsys.readouterr().err


def test_generate_respects_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("RIME_MAX_N", "3")
    assert main(["generate", "boundary", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["generate", "boundary", "--n", "4"]) == 2


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
