"""Command-line front end.

Three subcommands: ``generate`` builds any family and prints it as a
machine-readable document, ``verify`` runs named exact checks on a family
or on a matrix document, and ``report`` sweeps randomized parameters over
every family and summarizes the outcome.

Exit codes are a stable contract: 0 when everything passes, 1 when some
check fails, 2 on usage or input errors.  The environment variable
RIME_MAX_N overrides the default dimension cap (6), up to a hard limit of 8
set by the cost of exact arity-3 products.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .core import Operator, as_rational
from .families import FAMILY_TAGS, FamilySpec, MuVector, build, describe
from .limits import unitary_limit_curve
# check_ybe is unused here, but perfbench/selftest.py checks that its tracer
# patches rimealg.cli.check_ybe
from .verify import VerificationReport, check_ybe, run_checks, run_suite  # noqa: F401

__all__ = ["MatrixDocument", "cmd_generate", "cmd_verify", "cmd_report", "main", "entrypoint"]

#: Index convention recorded inside every document.
ORDER = "lexicographic (i,j) rows/cols"

_DEFAULT_CAP = 6
_HARD_CAP = 8

# short CLI names for the long family tags
_ALIASES = {"rime": "rime-quantum", "unitary": "rime-unitary"}

_QUANTUM_TAGS = ("rime-quantum", "rime-unitary", "cg")


def _reject_float(text: str):
    raise ValueError(f'non-integer JSON number {text}; write exact values as strings like "1/2"')


@dataclass(frozen=True)
class MatrixDocument:
    """Serialized operator: entries as canonical rational strings.

    Strings are "a/b" in lowest terms with positive denominator, or just
    "a" for integers, so serialization round-trips exactly and documents
    diff cleanly.
    """

    n: int
    arity: int
    order: str
    family: Optional[str]
    params: dict
    entries: tuple[tuple[str, ...], ...]

    @classmethod
    def from_operator(cls, op: Operator) -> "MatrixDocument":
        spec = op.family if isinstance(op.family, FamilySpec) else None
        if spec is not None:
            family = spec.family
            params = {k: v for k, v in describe(spec).items() if k not in ("family", "n")}
        else:
            family = None
            params = {}
        size = op.size
        entries = []
        for row in op.rows:  # only the stored, nonzero entries are formatted
            cells = ["0"] * size
            for c, v in row.items():
                cells[c] = str(v)
            entries.append(tuple(cells))
        return cls(op.n, op.arity, ORDER, family, params, tuple(entries))

    def to_operator(self) -> Operator:
        return Operator(self.n, self.arity, self.entries)

    def to_json(self) -> str:
        """``json.dumps(payload, indent=2) + "\\n"``, with the entry grid laid out directly."""
        header = {
            "n": self.n,
            "arity": self.arity,
            "order": self.order,
            "family": self.family,
            "params": self.params,
        }
        rows = [
            "[\n      " + ",\n      ".join(map(encode_basestring_ascii, row)) + "\n    ]"
            if row else "[]"
            for row in self.entries
        ]
        grid = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
        # json.dumps ends the header with "\n}": the entries go in before that brace
        return json.dumps(header, indent=2)[:-2] + ',\n  "entries": ' + grid + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "MatrixDocument":
        raw = json.loads(text, parse_float=_reject_float)
        if not isinstance(raw, dict):
            raise ValueError("document must be a JSON object")
        for key in ("n", "arity", "entries"):
            if key not in raw:
                raise ValueError(f"document is missing the {key!r} field")
        order = raw.get("order", ORDER)
        if order != ORDER:
            raise ValueError(f"unsupported index order {order!r}; expected {ORDER!r}")
        for key in ("n", "arity"):
            if type(raw[key]) is not int:  # bool is an int subclass
                raise ValueError(f"document field {key!r} must be an integer, got {raw[key]!r}")
        rows = raw["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("document entries must be a JSON array of arrays")
        entries = []
        for row in rows:
            kinds = set(map(type, row))  # exact types: a JSON true is a bool, not an int
            if not kinds <= {str, int}:
                raise ValueError('document entries must be strings like "-3/4" or integers')
            entries.append(tuple(map(str, row)) if int in kinds else tuple(row))
        params = raw.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError(f"document field 'params' must be a JSON object or null, got {params!r}")
        return cls(raw["n"], raw["arity"], order, raw.get("family"), params or {}, tuple(entries))

    def to_tsv(self) -> str:
        return "\n".join("\t".join(row) for row in self.entries) + "\n"


def _n_cap() -> int:
    raw = os.environ.get("RIME_MAX_N")
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"RIME_MAX_N must be an integer, got {raw!r}") from None
    if not 1 <= cap <= _HARD_CAP:
        raise ValueError(f"RIME_MAX_N must be between 1 and {_HARD_CAP}, got {cap}")
    return cap


def _check_cap(n: int) -> None:
    cap = _n_cap()
    if n > cap:
        raise ValueError(f"n above supported cap: {n} > {cap} (raise RIME_MAX_N, hard limit {_HARD_CAP})")


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(as_rational(part.strip()) for part in text.split(","))


def _spec_from_flags(args) -> FamilySpec:
    tag = _ALIASES.get(args.family, args.family)
    if args.n is None:
        raise ValueError("--n is required")
    kwargs = {}
    if args.beta is not None:
        kwargs["beta"] = as_rational(args.beta)
    if args.q2inv is not None:
        kwargs["q2inv"] = as_rational(args.q2inv)
    if args.p is not None:
        kwargs["p"] = as_rational(args.p)
    if args.phi is not None:
        kwargs["phi"] = _parse_vector(args.phi)
    if args.mu is not None:
        kwargs["mu"] = _parse_vector(args.mu)
    return FamilySpec(tag, args.n, **kwargs)


def _exact_str(value: Fraction) -> str:
    """``str(value)``, or hex numerator/denominator where ``str`` refuses a huge integer."""
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        num = hex(value.numerator)
        return num if value.denominator == 1 else f"{num}/{hex(value.denominator)}"


def format_report(rep: VerificationReport) -> str:
    """One stable line per check: name, verdict, witness details on failure."""
    line = f"{rep.name} {'PASS' if rep.passed else 'FAIL'}"
    if not rep.passed:
        if rep.witness is not None:
            row, col, value = rep.witness
            row_s = ",".join(str(i) for i in row)
            col_s = ",".join(str(i) for i in col)
            line += f" witness=({row_s})({col_s}) value={_exact_str(value)}"
        part = rep.metadata.get("failed_part")
        if part:
            line += f" part[{part}]"
        for key in ("observed", "expected", "error"):
            if key in rep.metadata:
                line += f" {key}={rep.metadata[key]}"
    return line


# -- verify on a raw operator (document input) ------------------------------


def _doc_beta(doc: MatrixDocument, override) -> Fraction:
    if override is not None:
        return as_rational(override)
    if "beta" in doc.params:
        return as_rational(doc.params["beta"])
    if "q2inv" in doc.params:
        return 1 - as_rational(doc.params["q2inv"])
    if doc.family == "rime-unitary":
        return Fraction(0)
    raise ValueError("this check needs beta; pass --beta or use a document that records it")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = _spec_from_flags(args)
    _check_cap(spec.n)
    doc = MatrixDocument.from_operator(build(spec))
    sys.stdout.write(doc.to_json() if args.format == "json" else doc.to_tsv())
    return 0


def cmd_verify(args) -> int:
    requested = [part.strip() for part in args.checks.split(",")] if args.checks else None
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = MatrixDocument.from_json(handle.read())
        _check_cap(doc.n)
        op = doc.to_operator()
        if requested is None:
            if doc.family in _QUANTUM_TAGS:
                requested = ["ybe"]
            elif doc.family is not None:
                requested = ["cybe"]
            else:
                raise ValueError("untagged document: name the checks to run with --checks")
        reports = run_checks(op, requested, lambda: _doc_beta(doc, args.beta), doc.family)
    elif args.family:
        spec = _spec_from_flags(args)
        _check_cap(spec.n)
        reports = run_suite(spec, requested)
    else:
        raise ValueError("verify needs either --input FILE or --family flags")
    for rep in reports:
        print(format_report(rep))
    return 0 if all(rep.passed for rep in reports) else 1


def _random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    # small numerators keep exact arithmetic bounded through arity-3 products
    while True:
        value = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        if value or not nonzero:
            return value


def _random_distinct(rng: random.Random, count: int, nonzero: bool) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    while len(out) < count:
        value = _random_rational(rng, nonzero)
        if value not in out:
            out.append(value)
    return tuple(out)


def cmd_report(args) -> int:
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    _check_cap(args.n_max)
    lines = []
    total = passed = 0
    for n in range(2, args.n_max + 1):
        for k in range(args.seeds):
            # string seeding is deterministic across runs and platforms
            rng = random.Random(f"{args.seed_value}:{n}:{k}")
            phi = _random_distinct(rng, n, nonzero=True)
            mu = _random_distinct(rng, n, nonzero=False)
            beta = _random_rational(rng)
            q2inv = _random_rational(rng, nonzero=True)
            p = _random_rational(rng, nonzero=True)
            specs = [
                FamilySpec("rime-quantum", n, beta=beta, phi=phi),
                FamilySpec("rime-unitary", n, mu=mu),
                FamilySpec("cg", n, q2inv=q2inv, p=p),
                FamilySpec("classical-rime", n, phi=phi),
                FamilySpec("classical-cg", n),
                FamilySpec("classical-unitary", n, mu=mu),
                FamilySpec("boundary", n),
            ]
            for spec in specs:
                reports = run_suite(spec)
                ok = sum(1 for rep in reports if rep.passed)
                total += len(reports)
                passed += ok
                verdict = "PASS" if ok == len(reports) else "FAIL"
                lines.append(f"n={n} seed={k} {spec.family} {ok}/{len(reports)} {verdict}")
                if ok != len(reports):
                    lines.append(f"  reproduce: seed-value={args.seed_value} params={describe(spec)}")
                    for rep in reports:
                        if not rep.passed:
                            lines.append("  " + format_report(rep))
    for mu_set in ((0, 1), (0, 1, 3)):
        curve = unitary_limit_curve(
            MuVector(tuple(Fraction(m) for m in mu_set)), [1e-2, 1e-3, 1e-4]
        )
        ok = abs(curve.slope - 1.0) <= 0.1 and curve.deviations[-1] <= 10 * curve.betas[-1]
        total += 1
        passed += ok
        mu_s = ",".join(str(m) for m in mu_set)
        lines.append(
            f"limit mu={mu_s} slope={curve.slope:.4f} dev@{curve.betas[-1]:.0e}="
            f"{curve.deviations[-1]:.3e} {'PASS' if ok else 'FAIL'}"
        )
    lines.append(f"total {passed}/{total} checks passed")
    print("\n".join(lines))
    return 0 if passed == total else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once, on the first main() call; each subcommand looks its command up
    # by module global at call time, so a patched cmd_* is still the one that runs
    parser = argparse.ArgumentParser(
        prog="rimealg",
        description="Build and exactly verify rime, Cremmer-Gervais and classical "
        "Yang-Baxter matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_choices = sorted(set(FAMILY_TAGS) | set(_ALIASES))

    gen = sub.add_parser("generate", help="build a family and print its document")
    gen.add_argument("family", choices=family_choices)
    gen.add_argument("--n", type=int, required=True, help="base dimension")
    gen.add_argument("--beta", help="rational scalar, e.g. 3 or -1/2")
    gen.add_argument("--phi", help="comma-separated rationals, e.g. 2,1")
    gen.add_argument("--mu", help="comma-separated rationals")
    gen.add_argument("--q2inv", help="rational value of q^-2")
    gen.add_argument("--p", help="rational twist parameter")
    gen.add_argument("--format", choices=("json", "tsv"), default="json")
    gen.set_defaults(func=lambda args: cmd_generate(args))

    ver = sub.add_parser("verify", help="run exact checks on a family or a document")
    ver.add_argument("--input", help="matrix document to check (JSON)")
    ver.add_argument("--family", choices=family_choices)
    ver.add_argument("--n", type=int)
    ver.add_argument("--beta")
    ver.add_argument("--phi")
    ver.add_argument("--mu")
    ver.add_argument("--q2inv")
    ver.add_argument("--p")
    ver.add_argument("--checks", help="comma-separated check names; default: all applicable")
    ver.set_defaults(func=lambda args: cmd_verify(args))

    rep = sub.add_parser("report", help="randomized sweep over every family")
    rep.add_argument("--n-max", type=int, default=4)
    rep.add_argument("--seeds", type=int, default=3, help="random draws per dimension")
    rep.add_argument("--seed-value", type=int, default=0)
    rep.set_defaults(func=lambda args: cmd_report(args))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
