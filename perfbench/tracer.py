"""Span tracer that wraps the package's public functions from outside it.

Installing the tracer replaces each traced function by a wrapper *wherever
callers look it up*: every ``rimealg`` module attribute that is the original
object (so ``rimealg.verify.embed``, ``rimealg.cli.run_suite`` and the
package re-exports all change together), plus methods on ``Operator`` and
``MatrixDocument``.  ``uninstall`` puts every original back and checks it.

A span is ``[name, start, end, dur, parent, item]`` (in memory also its own
index): ``dur`` is the time the call was running (for a generator, only the
time spent inside it), ``parent`` the index of the enclosing span or -1,
``item`` the workload item being run.
Spans stay in memory and are written out by :meth:`Tracer.write`.

Counts (calls, multiply-adds, density, bit sizes, document bytes) are taken
at the same boundaries with the untraced originals; the time spent counting
is recorded as a ``trace.count`` child span so it is excluded from the self
time of the span that contains it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Operator methods and the span each maps to.
_OPERATOR_METHODS = {
    "__matmul__": None,  # core.matmul_a2 or core.matmul_a3, by operand arity
    "__add__": "core.linear",
    "__sub__": "core.linear",
    "__neg__": "core.linear",
    "__mul__": "core.linear",
    "__rmul__": "core.linear",
    "__eq__": "core.eq",
    "max_abs": "core.reduce",
    "first_nonzero": "core.reduce",
    "is_zero": "core.reduce",
    "nonzero_items": "core.reduce",
    "inverse": "core.inverse",
    "__init__": "core.construct",
    "from_items": "core.construct",
    "zero": "core.construct",
    "identity": "core.construct",
}
_CORE_FUNCTIONS = {
    "kron": "core.kron",
    "embed": "core.embed",
    "identity": "core.construct",
    "zero": "core.construct",
    "inverse": "core.inverse",
}
FAMILY_CONSTRUCTORS = (
    "rime_from_beta",
    "cremmer_gervais",
    "classical_rime_r",
    "classical_cg_r",
    "classical_unitary_r0",
    "boundary_b",
    "x_matrix",
    "build",
)
VERIFY_CHECKS = (
    "check_ybe",
    "check_hecke",
    "check_cybe",
    "check_nonhomogeneous_acybe",
    "check_homogeneous_acybe",
    "check_tilde_relations",
    "check_braid_identities",
    "check_idempotent_exponential",
    "check_nilpotent_exponential",
    "check_quantization",
    "check_equivalence_quantum",
    "check_equivalence_classical",
    "check_beta_constancy",
    "classify_structure",
    "run_suite",
)
# traced for attribution only: their time is not charged to the calling check;
# the CLI calls _multiplicity_report directly, so it is a verify-layer entry too
_VERIFY_HELPERS = ("assoc_A", "assoc_Aprime", "hecke_multiplicities", "_multiplicity_report")
_CLI_FUNCTIONS = {"cmd_generate": "cli.generate", "cmd_verify": "cli.verify",
                  "format_report": "cli.format_report"}
_DOCUMENT_METHODS = ("from_operator", "to_json", "from_json", "to_operator")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.item = -1
        self._patches: list = []  # (owner, attribute, original object)
        self.madds = 0
        self.a3_nnz = 0
        self.a3_cells = 0
        self.max_bits = 0
        self.doc_bytes = 0
        self.reports = 0
        self.reports_failed = 0

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, 0.0,
                self._stack[-1][6] if self._stack else -1, self.item, len(self.spans)]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        span[2] = end
        span[3] += end - span[1]
        self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        """Trace ``fn`` as span ``name``.

        ``before(args)``, when given, takes counts inside a ``trace.count`` span
        and returns the span name; ``after(result)`` takes counts afterwards.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                span = tracer._open("trace.count")
                label = before(args)
                tracer._close(span)
            else:
                label = name
            span = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        """Trace a generator function: the span accumulates only its running time."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer._close(span)
            span[3] = 0.0
            inner = fn(*args, **kwargs)

            def run():
                while True:
                    tracer._stack.append(span)
                    start = time.perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = time.perf_counter()
                        span[2] = end
                        span[3] += end - start
                        tracer._stack.pop()
                    yield value

            return run()

        traced.__wrapped__ = fn
        return traced

    # -- counts ----------------------------------------------------------------

    def _count_matmul(self, args) -> str:
        a, b = args[0], args[1]
        if type(b) is not type(a):
            return "core.matmul_a2"
        cols_a = defaultdict(int)
        rows_b = defaultdict(int)
        bits = self.max_bits
        for _row, col, v in self._nonzero_items(a):
            cols_a[col] += 1
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        for row, _col, v in self._nonzero_items(b):
            rows_b[row] += 1
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        self.max_bits = bits
        if a.arity != 3:
            return "core.matmul_a2"
        self.madds += sum(count * rows_b.get(k, 0) for k, count in cols_a.items())
        self.a3_nnz += sum(cols_a.values()) + sum(rows_b.values())
        self.a3_cells += a.size * a.size + b.size * b.size
        return "core.matmul_a3"

    def _count_reports(self, result) -> None:
        # only the outermost verify-layer call delivers reports to its caller
        if any(span[0].startswith("verify.") for span in self._stack):
            return
        reports = result if isinstance(result, list) else [result]
        for rep in reports:
            if hasattr(rep, "passed"):
                self.reports += 1
                self.reports_failed += not rep.passed

    def _count_document(self, text) -> None:
        if not any(span[0] == "cli.to_json" for span in self._stack):
            self.doc_bytes += len(text.encode("utf-8"))

    # -- install / uninstall ------------------------------------------------------

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper_of) -> None:
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_of(raw))

    def install(self, prog) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [prog.core, prog.families, prog.verify, prog.cli, prog.limits, prog.package]
        core, verify, cli = prog.core, prog.verify, prog.cli
        operator = core.Operator
        self._nonzero_items = operator.nonzero_items  # untraced, for counting

        for attr, name in _OPERATOR_METHODS.items():
            if attr == "__matmul__":
                self._patch_method(operator, attr,
                                   lambda fn: self._wrap(None, fn, before=self._count_matmul))
            elif attr == "nonzero_items":
                self._patch_method(operator, attr, lambda fn, n=name: self._wrap_generator(n, fn))
            else:
                self._patch_method(operator, attr, lambda fn, n=name: self._wrap(n, fn))
        for attr, name in _CORE_FUNCTIONS.items():
            original = getattr(core, attr)
            self._patch_everywhere(modules, original, self._wrap(name, original))
        for attr in FAMILY_CONSTRUCTORS:
            original = getattr(prog.families, attr)
            self._patch_everywhere(modules, original, self._wrap(f"families.{attr}", original))
        for attr in VERIFY_CHECKS + _VERIFY_HELPERS:
            original = getattr(verify, attr)
            wrapper = self._wrap(f"verify.{attr}", original, after=self._count_reports)
            self._patch_everywhere(modules, original, wrapper)
        for attr, name in _CLI_FUNCTIONS.items():
            original = getattr(cli, attr)
            self._patch_everywhere(modules, original, self._wrap(name, original))
        for attr in _DOCUMENT_METHODS:
            after = self._count_document if attr == "to_json" else None
            self._patch_method(cli.MatrixDocument, attr,
                               lambda fn, n=f"cli.{attr}", a=after: self._wrap(n, fn, after=a))
        original = prog.limits.unitary_limit_curve
        self._patch_everywhere(modules, original,
                               self._wrap("limits.unitary_limit_curve", original))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first, and check each one."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals.

        ``<name>.s`` and ``<name>.calls`` count only spans with no enclosing span
        of the same name (``identity()`` calling ``Operator.identity`` is one
        construct call); ``<name>.self_s`` is each span's time minus the time
        of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3]
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span in spans:
            name = span[0]
            self_s[name] += span[3] - child_time[span[6]]
            parent = span[4]
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][4]
            if not nested:
                incl[name] += span[3]
                calls[name] += 1

        out = {}
        for name in ("core.matmul_a3", "core.matmul_a2", "core.embed", "core.kron",
                     "core.linear", "core.reduce", "core.eq", "core.inverse",
                     "core.construct"):
            out[f"{name}.s"] = incl[name]
            out[f"{name}.calls"] = calls[name]
        out["core.matmul_a3.madds"] = self.madds
        out["core.a3_density"] = self.a3_nnz / self.a3_cells if self.a3_cells else 0.0
        out["core.max_bits"] = self.max_bits
        for attr in FAMILY_CONSTRUCTORS:
            out[f"families.{attr}.s"] = incl[f"families.{attr}"]
            out[f"families.{attr}.calls"] = calls[f"families.{attr}"]
        for attr in VERIFY_CHECKS:
            out[f"verify.{attr}.s"] = incl[f"verify.{attr}"]
            out[f"verify.{attr}.self_s"] = self_s[f"verify.{attr}"]
        out["verify.reports"] = self.reports
        out["verify.reports_failed"] = self.reports_failed
        for attr in ("generate", "verify", "from_operator", "to_json", "from_json",
                     "to_operator", "format_report"):
            out[f"cli.{attr}.s"] = incl[f"cli.{attr}"]
        out["cli.doc_bytes"] = self.doc_bytes
        out["limits.unitary_limit_curve.s"] = incl["limits.unitary_limit_curve"]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 9), round(s[2], 9), round(s[3], 9), s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "dur", "parent", "item"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))
