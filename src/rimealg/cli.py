"""Command-line front end.

Three subcommands: ``generate`` builds any family and prints it as a
machine-readable document, ``verify`` runs named exact checks on a family
or on a matrix document, and ``report`` sweeps randomized parameters over
every family and summarizes the outcome.

Exit codes are a stable contract: 0 when everything passes, 1 when some
check fails, 2 on usage or input errors.  The base dimension n is at most
8, a limit set by the cost of exact arity-3 products on dense documents.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .core import Operator, as_rational
from .families import _REQUIRED, FAMILY_TAGS, FamilySpec, MuVector, build, describe
from .limits import unitary_limit_curve
# check_ybe is unused here, but perfbench/selftest.py checks that its tracer
# patches rimealg.cli.check_ybe
from .verify import VerificationReport, check_ybe, run_checks, run_suite  # noqa: F401

__all__ = ["MatrixDocument", "cmd_generate", "cmd_verify", "cmd_report", "main", "entrypoint"]

#: Index convention recorded inside every document.
ORDER = "lexicographic (i,j) rows/cols"

_MAX_N = 8

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
    def from_operator(cls, op: Operator, spec: Optional[FamilySpec] = None) -> "MatrixDocument":
        """The document of ``op``; ``spec``, the recipe ``op`` was built from, fills family and params."""
        family, params = None, {}
        if spec is not None:
            family = spec.family
            params = {k: v for k, v in describe(spec).items() if k not in ("family", "n")}
        size = op.size
        entries = []
        try:
            for row in op.rows:  # only the stored, nonzero entries are formatted
                cells = ["0"] * size
                for c, v in row.items():
                    cells[c] = str(v)
                entries.append(tuple(cells))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise _entry_too_long(op) from None
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


def _entry_too_long(op: Operator) -> ValueError:
    """The error for an operator whose first entry, in row-major order, str() refuses.

    A cell of more digits than sys.get_int_max_str_digits() could not be read
    back by verify --input, so no document is written.
    """
    for row, col, value in op.nonzero_items():
        try:
            str(value)
        except ValueError:
            break
    return ValueError(f"entry at row ({','.join(map(str, row))}), column ({','.join(map(str, col))}) "
                      f"exceeds the {sys.get_int_max_str_digits()}-digit limit of a document entry")


def _check_cap(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n above supported cap: {n} > {_MAX_N}")


# the flags whose value is a rational (phi, mu: a comma-separated list of them)
_RATIONAL_FLAGS = ("--beta", "--q2inv", "--p", "--phi", "--mu")

# the flags that name a family for verify; a document names its own
_FAMILY_FLAGS = ("--family", "--n", "--phi", "--mu", "--q2inv", "--p")


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(as_rational(part.strip()) for part in text.split(","))


def _spec_from_flags(args) -> FamilySpec:
    tag = _ALIASES.get(args.family, args.family)
    if args.n is None:
        raise ValueError("--n is required")
    kwargs = {}
    for flag in _RATIONAL_FLAGS:
        name = flag[2:]
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = _parse_vector(value) if name in ("phi", "mu") else as_rational(value)
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
    doc = MatrixDocument.from_operator(build(spec), spec)
    sys.stdout.write(doc.to_json() if args.format == "json" else doc.to_tsv())
    return 0


def cmd_verify(args) -> int:
    requested = None if args.checks is None else [part.strip() for part in args.checks.split(",")]
    if requested is not None and "" in requested:
        raise ValueError(f"empty check name in --checks {args.checks!r}")
    if args.input:
        given = [flag for flag in _FAMILY_FLAGS if getattr(args, flag[2:]) is not None]
        if given:
            raise ValueError(f"--input excludes the family flags, got {', '.join(given)}")
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
            # drawn in this order; each family takes the parameters it requires
            drawn = {
                "phi": _random_distinct(rng, n, nonzero=True),
                "mu": _random_distinct(rng, n, nonzero=False),
                "beta": _random_rational(rng),
                "q2inv": _random_rational(rng, nonzero=True),
                "p": _random_rational(rng, nonzero=True),
            }
            for tag in FAMILY_TAGS:
                spec = FamilySpec(tag, n, **{k: drawn[k] for k in _REQUIRED[tag]})
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


def _is_rational_flag(token: str) -> bool:
    """Whether argparse reads ``token`` as one of _RATIONAL_FLAGS, abbreviations included.

    An exact name wins over a longer one (--p is --p, not --phi); no other
    option of generate or verify begins like a rational flag.
    """
    return token in _RATIONAL_FLAGS or sum(flag.startswith(token) for flag in _RATIONAL_FLAGS) == 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as -7/3 or -1,0,2 as an option, since
    # only -<digits> and decimals pass for negative numbers: attach it with "="
    for i in reversed(range(1, len(argv))):
        if _is_rational_flag(argv[i - 1]) and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
