"""Seeded inputs, item runners and expected verdicts of the two workloads.

A workload is a sequence of *rounds*; round ``r`` of seed ``s`` is a fixed
list of items drawn from ``random.Random(f"{s}:{workload}:{r}:...")``, so the
same seed always gives the same inputs.  An item is the unit of latency:

* ``sweep``: one ``run_suite`` call (n = 2..4, all seven families, drawn like
  ``rimealg report`` with its default ``--n-max 4``), one tampered ``check_ybe``/``check_cybe`` call, or one
  ``unitary_limit_curve`` call;
* ``documents``: one ``generate`` -> round trip -> write -> ``verify --input``
  cycle through ``rimealg.cli.main``.

Every item returns its verdicts and a list of mismatches against the verdict
the mathematics predicts; an empty list means the program answered right.
The package is reached through module attributes at call time (never
``from rimealg... import f``) so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

FAMILIES = (
    "rime-quantum",
    "rime-unitary",
    "cg",
    "classical-rime",
    "classical-cg",
    "classical-unitary",
    "boundary",
)

_QUANTUM = ("rime-quantum", "rime-unitary", "cg")
_NILPOTENT = ("classical-unitary", "boundary")
# n = 5 is left out: its suites take seconds each, so too few fit in a run
# for per-run medians to hold steady against this machine's speed drift
_SWEEP_DIMENSIONS = range(2, 5)
_LIMIT_MU_SETS = ((0, 1), (0, 1, 3))
_LIMIT_BETAS = (1e-2, 1e-3, 1e-4)


class Program:
    """Handles on the package modules; attributes are looked up per call."""

    def __init__(self):
        import rimealg
        import rimealg.cli
        import rimealg.core
        import rimealg.families
        import rimealg.limits
        import rimealg.verify

        self.package = rimealg
        self.core = rimealg.core
        self.families = rimealg.families
        self.verify = rimealg.verify
        self.cli = rimealg.cli
        self.limits = rimealg.limits


@dataclass
class Item:
    kind: str  # suite | tamper | limit | document
    family: str
    n: int
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    latency_s: float
    verdicts: list  # [name, passed, witness-or-None] per report
    mismatches: list


# -- input generation -----------------------------------------------------------


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    # the same draw as `rimealg report`: numerators -20..20, denominators 1..3
    while True:
        value = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        if value or not nonzero:
            return value


def _distinct(rng: random.Random, count: int, nonzero: bool) -> tuple:
    out: list = []
    while len(out) < count:
        value = _rational(rng, nonzero)
        if value not in out:
            out.append(value)
    return tuple(out)


def _shared_params(rng: random.Random, n: int, avoid_beta2: bool = False) -> dict:
    """One draw shared by all seven families, in the order `rimealg report` uses."""
    phi = _distinct(rng, n, nonzero=True)
    mu = _distinct(rng, n, nonzero=False)
    beta = _rational(rng)
    q2inv = _rational(rng, nonzero=True)
    p = _rational(rng, nonzero=True)
    if avoid_beta2:
        # the multiplicity check is undefined at beta = 2 (exit 2, not a verdict)
        while beta == 2:
            beta = _rational(rng)
        while q2inv == -1:
            q2inv = _rational(rng, nonzero=True)
    return {
        "rime-quantum": {"beta": beta, "phi": phi},
        "rime-unitary": {"mu": mu},
        "cg": {"q2inv": q2inv, "p": p},
        "classical-rime": {"phi": phi},
        "classical-cg": {},
        "classical-unitary": {"mu": mu},
        "boundary": {},
    }


def _tamper_position(rng: random.Random, n: int, inside: bool) -> tuple:
    """Row and column multi-indices inside, or outside, the rime zero pattern.

    Row (i, j) of a rime operator may be nonzero only in columns whose indices
    are drawn from {i, j}.
    """
    i, j = rng.randint(1, n), rng.randint(1, n)
    if not inside and len({i, j}) == n:
        j = i  # at n = 2, row (1, 2) admits every column
    row = {i, j}
    while True:
        k, l = rng.randint(1, n), rng.randint(1, n)
        if ({k, l} <= row) == inside:
            return (i, j), (k, l)


def sweep_round(seed: int, r: int) -> list:
    items = []
    for n in _SWEEP_DIMENSIONS:
        rng = random.Random(f"{seed}:sweep:{r}:{n}")
        params = _shared_params(rng, n)
        items += [Item("suite", fam, n, params[fam]) for fam in FAMILIES]
        # at beta = 0 the rime solution is the flip P, and some shifted copies
        # of P still solve the YBE, so the tampered copies need beta != 0
        tamper_params = dict(params["rime-quantum"])
        if not tamper_params["beta"]:
            tamper_params["beta"] = _rational(rng, nonzero=True)
        for fam, base in (("rime-quantum", tamper_params),
                          ("classical-rime", params["classical-rime"])):
            for inside in (True, False):
                row, col = _tamper_position(rng, n, inside)
                delta = _rational(rng, nonzero=True)
                where = "in-pattern" if inside else "off-pattern"
                items.append(Item("tamper", fam, n, base,
                                  {"row": row, "col": col, "delta": delta, "where": where}))
    for mu in _LIMIT_MU_SETS:
        items.append(Item("limit", "rime-unitary", len(mu), {"mu": mu}))
    return items


def documents_round(seed: int, r: int) -> list:
    items = []
    for n in range(2, 7):
        for fam in FAMILIES:
            for tampered in (False, True):
                rng = random.Random(f"{seed}:documents:{r}:{n}:{fam}:{int(tampered)}")
                params = _shared_params(rng, n, avoid_beta2=True)[fam]
                extra = {"tamper_at": rng.randrange(n * n) if tampered else None}
                items.append(Item("document", fam, n, params, extra))
    return items


ROUNDS = {"sweep": sweep_round, "documents": documents_round}


# -- item runners -------------------------------------------------------------------


def _report_verdicts(reports) -> list:
    out = []
    for rep in reports:
        witness = None
        if rep.witness is not None:
            row, col, value = rep.witness
            witness = [list(row), list(col), str(value)]
        out.append([rep.name, bool(rep.passed), witness])
    return out


def _witness_in_range(witness, n: int, arity: int) -> bool:
    row, col = witness[0], witness[1]
    return all(
        len(multi) == arity and all(1 <= int(i) <= n for i in multi) for multi in (row, col)
    )


def _spec(prog: Program, item: Item):
    return prog.families.FamilySpec(item.family, item.n, **item.params)


def run_suite_item(prog: Program, item: Item) -> Outcome:
    t0 = time.perf_counter()
    reports = prog.verify.run_suite(_spec(prog, item))
    dt = time.perf_counter() - t0
    verdicts = _report_verdicts(reports)
    mismatches = [f"{v[0]} FAIL on valid input" for v in verdicts if not v[1]]
    if not verdicts:
        mismatches.append("empty suite")
    return Outcome(dt, verdicts, mismatches)


def run_tamper_item(prog: Program, item: Item) -> Outcome:
    x = item.extra
    t0 = time.perf_counter()
    op = prog.families.build(_spec(prog, item))
    # from_items adds repeated positions, so this shifts one entry by delta
    triples = list(op.nonzero_items()) + [(x["row"], x["col"], x["delta"])]
    tampered = prog.core.Operator.from_items(item.n, 2, triples)
    check = prog.verify.check_ybe if item.family == "rime-quantum" else prog.verify.check_cybe
    report = check(tampered)
    dt = time.perf_counter() - t0
    verdicts = _report_verdicts([report])
    name, passed, witness = verdicts[0]
    mismatches = []
    if passed:
        mismatches.append(f"{name} PASS on {x['where']} tampered input")
    elif witness is None or not _witness_in_range(witness, item.n, 3):
        mismatches.append(f"{name} witness {witness} outside 1..{item.n} at arity 3")
    return Outcome(dt, verdicts, mismatches)


def run_limit_item(prog: Program, item: Item) -> Outcome:
    t0 = time.perf_counter()
    mu = prog.families.MuVector(tuple(Fraction(m) for m in item.params["mu"]))
    curve = prog.limits.unitary_limit_curve(mu, list(_LIMIT_BETAS))
    dt = time.perf_counter() - t0
    # the acceptance rule `rimealg report` applies to the same two curves
    ok = abs(curve.slope - 1.0) <= 0.1 and curve.deviations[-1] <= 10 * curve.betas[-1]
    mismatches = [] if ok else [f"limit curve slope={curve.slope} outside 1 +- 0.1"]
    return Outcome(dt, [["limit", bool(ok), None]], mismatches)


def _generate_argv(item: Item) -> list:
    argv = ["generate", item.family, "--n", str(item.n)]
    for key, value in item.params.items():
        text = ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)
        argv.append(f"--{key}={text}")  # '=' keeps values such as -3/2 from reading as flags
    return argv


def _call_main(prog: Program, argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = prog.cli.main(argv)
    return code, buf.getvalue()


def _tamper_document(text: str, item: Item) -> str:
    """Shift one diagonal entry so that a requested check must fail.

    Quantum documents: the trace moves by c, so the eigenvalue-1 multiplicity
    (tr R - (beta - 1) N) / (2 - beta) moves by c / (2 - beta) != 0.
    Classical documents with r^2 = -r (or r^2 = 0): the (k, k) entry of the
    residual becomes c (2 r_kk + c + 1) (or c (2 r_kk + c)); c is chosen so it
    is nonzero.
    """
    raw = json.loads(text)
    k = item.extra["tamper_at"]
    value = Fraction(raw["entries"][k][k])
    if item.family in _QUANTUM:
        c = Fraction(1)
    elif item.family in _NILPOTENT:
        c = Fraction(2) if 2 * value + 1 == 0 else Fraction(1)
    else:
        c = Fraction(2) if 2 * value + 2 == 0 else Fraction(1)
    raw["entries"][k][k] = str(value + c)
    return json.dumps(raw, indent=2) + "\n"


def _document_checks(family: str) -> str:
    if family in _QUANTUM:
        return "hecke,multiplicities,classify"
    return "classify," + ("nilpotent" if family in _NILPOTENT else "idempotent")


def _parse_report_line(line: str) -> list:
    """``name PASS`` or ``name FAIL witness=(i,j)(k,l) value=v ...``."""
    parts = line.split()
    name, verdict = parts[0], parts[1]
    witness = None
    for part in parts[2:]:
        if part.startswith("witness=("):
            row_s, col_s = part[len("witness=("):-1].split(")(")
            witness = [[int(i) for i in row_s.split(",")], [int(i) for i in col_s.split(",")], None]
    return [name, verdict == "PASS", witness]


def run_document_item(prog: Program, item: Item, workdir: str) -> Outcome:
    tampered = item.extra["tamper_at"] is not None
    path = os.path.join(workdir, "document.json")
    mismatches = []
    t0 = time.perf_counter()
    code, text = _call_main(prog, _generate_argv(item))
    again = prog.cli.MatrixDocument.from_json(text).to_json()
    dt = time.perf_counter() - t0
    if code != 0:
        mismatches.append(f"generate exited {code}")
    if again != text:
        mismatches.append("document did not round-trip byte for byte")
    body = _tamper_document(text, item) if tampered else text
    t0 = time.perf_counter()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)
    code, out = _call_main(
        prog, ["verify", "--input", path, "--checks", _document_checks(item.family)]
    )
    dt += time.perf_counter() - t0
    verdicts = [_parse_report_line(line) for line in out.splitlines() if line.strip()]
    expected_code = 1 if tampered else 0
    if code != expected_code:
        mismatches.append(f"verify exited {code}, expected {expected_code}")
    if not verdicts:
        mismatches.append("verify printed no verdicts")
    if not tampered and not all(v[1] for v in verdicts):
        mismatches.append("a check FAILed on a valid document")
    if tampered and all(v[1] for v in verdicts):
        mismatches.append("every check PASSed on a tampered document")
    for v in verdicts:
        if v[2] is not None and not _witness_in_range(v[2], item.n, 2):
            mismatches.append(f"{v[0]} witness {v[2]} outside 1..{item.n} at arity 2")
    return Outcome(dt, verdicts, mismatches)


def run_item(prog: Program, item: Item, workdir: str) -> Outcome:
    if item.kind == "suite":
        return run_suite_item(prog, item)
    if item.kind == "tamper":
        return run_tamper_item(prog, item)
    if item.kind == "limit":
        return run_limit_item(prog, item)
    return run_document_item(prog, item, workdir)
