"""Acceptance suite: one test and one printed verdict line per criterion.

Every algebraic criterion is exact (zero residual over the rationals); the
float criterion carries explicit tolerances; two criteria carry runtime
budgets that are asserted, not just observed.
"""

import json
import random
import time
from fractions import Fraction

from conftest import random_distinct, random_rational
from rimealg.cli import MatrixDocument, main
from rimealg.core import flip21, identity, permutation
from rimealg.families import (
    FamilySpec,
    GeneralRimeData,
    MuVector,
    PhiVector,
    beta_from_phi,
    boundary_b,
    build,
    classical_rime_r,
    classical_unitary_r0,
    cremmer_gervais,
    rime_from_beta,
    rime_general,
    unitary_beta,
    x_matrix,
)
from rimealg.limits import unitary_limit_curve
from rimealg.verify import (
    assoc_A,
    assoc_Aprime,
    check_braid_identities,
    check_cybe,
    check_equivalence_classical,
    check_equivalence_quantum,
    check_hecke,
    check_quantization,
    check_tilde_relations,
    check_ybe,
    classify_structure,
    hecke_multiplicities,
)
from rimealg.core import embed

F = Fraction

BETA_SET = (F(1, 2), F(1), F(3), F(-2))  # beta = 1 is the non-invertible case


def _emit(capsys, num, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    line = f"[acceptance] criterion {num:02d} {label}: {verdict}"
    if failures:
        line += f" ({failures[0]}{'; +%d more' % (len(failures) - 1) if len(failures) > 1 else ''})"
    with capsys.disabled():
        print(line)
    assert not failures, line


def _sweep_phis(seed_prefix, n, count):
    for k in range(count):
        rng = random.Random(f"{seed_prefix}:{n}:{k}")
        yield k, random_distinct(rng, n, nonzero=True), rng


def test_criterion_01_ybe_sweep(capsys):
    failures = []
    start = time.perf_counter()
    for n in range(2, 6):
        for k, phi, _rng in _sweep_phis("acc1", n, 20):
            vec = PhiVector(phi)
            for beta in BETA_SET:
                rhat = rime_from_beta(beta_from_phi(beta, vec))
                if not check_ybe(rhat).passed:
                    failures.append(f"ybe residual n={n} seed={k} beta={beta}")
                if beta == 1 and rhat.det() != 0:
                    failures.append(f"beta=1 matrix unexpectedly invertible n={n} seed={k}")
    elapsed = time.perf_counter() - start
    if elapsed > 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 30s budget")
    _emit(capsys, 1, f"exact YBE sweep n=2..5 ({elapsed:.1f}s)", failures)


def test_criterion_02_hecke_and_multiplicities(capsys):
    failures = []
    for n in range(2, 6):
        expected = (n * (n + 1) // 2, n * (n - 1) // 2)
        for k, phi, _rng in _sweep_phis("acc1", n, 20):
            vec = PhiVector(phi)
            for beta in BETA_SET:
                rhat = rime_from_beta(beta_from_phi(beta, vec))
                if not check_hecke(rhat, beta).passed:
                    failures.append(f"hecke residual n={n} seed={k} beta={beta}")
                if hecke_multiplicities(rhat, beta) != expected:
                    failures.append(f"multiplicities n={n} seed={k} beta={beta}")
    _emit(capsys, 2, "Hecke relation and eigenvalue multiplicities", failures)


def test_criterion_03_cremmer_gervais_ybe(capsys):
    failures = []
    for k in range(10):
        rng = random.Random(f"acc3:{k}")
        q2inv = random_rational(rng, nonzero=True)
        p = random_rational(rng, nonzero=True)
        for n in (2, 3, 4):
            if not check_ybe(cremmer_gervais(n, q2inv, p)).passed:
                failures.append(f"cg ybe n={n} q2inv={q2inv} p={p}")
    _emit(capsys, 3, "two-parameter solution satisfies the YBE", failures)


def _criterion4_draws(n, k):
    rng = random.Random(f"acc4:{n}:{k}")
    phi = random_distinct(rng, n, nonzero=True)
    beta = random_rational(rng)
    while beta == 1:
        beta = random_rational(rng)
    return PhiVector(phi), beta


def test_criterion_04_quantum_equivalence(capsys):
    failures = []
    for n in range(2, 6):
        for k in range(10):
            vec, beta = _criterion4_draws(n, k)
            if not check_equivalence_quantum(vec, beta).passed:
                failures.append(f"conjugation mismatch n={n} seed={k}")
            det = x_matrix(vec).det()
            expected = F(1)
            for j in range(n):
                for l in range(j + 1, n):
                    expected *= vec.phi[j] - vec.phi[l]
            if det != expected:
                failures.append(f"basis determinant n={n} seed={k}")
    _emit(capsys, 4, "change of basis maps the normal form onto the rime matrix", failures)


def test_criterion_05_classical_identities(capsys):
    failures = []
    for n in range(2, 6):
        eye = identity(n, 2)
        p = permutation(n)
        for k in range(10):
            vec, _beta = _criterion4_draws(n, k)
            r = classical_rime_r(vec)
            where = f"n={n} seed={k}"
            if r + flip21(r) != p - eye:
                failures.append(f"pair sum {where}")
            a = assoc_A(r)
            minus_r13 = -embed(r, 13)
            if a != minus_r13 or assoc_Aprime(r) != minus_r13:
                failures.append(f"associative combinations {where}")
            if not check_cybe(r).passed:
                failures.append(f"cybe {where}")
            if r @ r != -r:
                failures.append(f"idempotency {where}")
            if not check_braid_identities(r).passed:
                failures.append(f"braid {where}")
            if not check_tilde_relations(r).passed:
                failures.append(f"tilde {where}")
    _emit(capsys, 5, "classical companion identities on the same seeds", failures)


def test_criterion_06_unitary_and_boundary(capsys):
    failures = []
    for n in (2, 3, 4):
        rng = random.Random(f"acc6:{n}")
        mu = MuVector(random_distinct(rng, n, nonzero=False))
        r0 = classical_unitary_r0(mu)
        b = boundary_b(n)
        where = f"n={n}"
        if not (r0 + flip21(r0)).is_zero():
            failures.append(f"skew symmetry {where}")
        if not assoc_A(r0).is_zero() or not assoc_A(b).is_zero():
            failures.append(f"homogeneous combination {where}")
        if not (r0 @ r0).is_zero() or not (b @ b).is_zero():
            failures.append(f"squares {where}")
        if not check_equivalence_classical(mu).passed:
            failures.append(f"normal-form conjugation {where}")
        rhat0 = rime_from_beta(unitary_beta(mu))
        if not check_ybe(rhat0).passed:
            failures.append(f"skew solution ybe {where}")
        if permutation(n) @ rhat0 != identity(n, 2) + r0:
            failures.append(f"linear expansion of the skew solution {where}")
    _emit(capsys, 6, "skew-symmetric and boundary identities n=2..4", failures)


def test_criterion_07_quantization_linearity(capsys):
    failures = []
    for n in (2, 3, 4):
        for k in range(10):
            rng = random.Random(f"acc7:{n}:{k}")
            vec = PhiVector(random_distinct(rng, n, nonzero=True))
            beta = random_rational(rng, nonzero=True)
            rhat = rime_from_beta(beta_from_phi(beta, vec))
            if not check_quantization(rhat, beta, classical_rime_r(vec)).passed:
                failures.append(f"linearity n={n} seed={k} beta={beta}")
    _emit(capsys, 7, "solution is linear in its classical companion", failures)


def test_criterion_08_structural_classification(capsys):
    failures = []
    strict = rime_from_beta(beta_from_phi(F(3), PhiVector((3, 2, 1))))
    if classify_structure(strict).tag != "strict-rime":
        failures.append("strict family not classified strict-rime")
    z = ((0, 0), (0, 0))
    ice = rime_general(GeneralRimeData(2, ((1, 1), (1, 1)), z, z, z))
    if classify_structure(ice).tag != "ice":
        failures.append("ice block not classified ice")
    for p_val in (F(1), F(3)):
        if classify_structure(cremmer_gervais(3, F(-2), p_val)).tag != "none":
            failures.append(f"n=3 two-parameter solution not classified none (p={p_val})")
    relaxed = classify_structure(rime_from_beta(beta_from_phi(F(3), PhiVector((0, 1)))))
    if relaxed.tag != "rime":
        failures.append("one-zero-weight case not classified rime")
    elif relaxed.data.gamma[0][1] != 0:
        failures.append("one-zero-weight case unexpectedly strict")
    _emit(capsys, 8, "zero-pattern classification", failures)


def test_criterion_09_float_limits(capsys):
    failures = []
    start = time.perf_counter()
    betas = (1e-2, 1e-3, 1e-4)
    for mu_set in ((0, 1), (0, 1, 3)):
        curve = unitary_limit_curve(MuVector(tuple(F(m) for m in mu_set)), betas)
        if curve.deviations[-1] > 10 * betas[-1]:
            failures.append(f"deviation at beta=1e-4 for mu={mu_set}")
        if abs(curve.slope - 1.0) > 0.1:
            failures.append(f"log-log slope {curve.slope:.3f} for mu={mu_set}")
    # the exponential laws, exactly: r^2 = -r gives the semigroup law of I + t r,
    # and r0^2 = 0 makes I - r0 the inverse of I + r0
    r = classical_rime_r(PhiVector((2, 1)))
    eye = identity(r.n, 2)
    for t, s in ((F(1, 4), F(1, 2)), (F(1, 2), F(1)), (F(-3), F(2, 3))):
        if (eye + t * r) @ (eye + s * r) != eye + (t + s - t * s) * r:
            failures.append(f"semigroup law at t={t}, s={s}")
    r0 = classical_unitary_r0(MuVector((0, 1)))
    if (eye + r0) @ (eye - r0) != eye:
        failures.append("inverse law (I + r0)(I - r0) = I")
    elapsed = time.perf_counter() - start
    if elapsed > 5:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 5s budget")
    _emit(capsys, 9, f"limit curve and exact exponential laws ({elapsed:.2f}s)", failures)


def _doc_specs():
    out = []
    for n in (2, 3):
        out.extend(
            [
                FamilySpec("rime-quantum", n, beta=F(3), phi=tuple(range(n + 1, 1, -1))),
                FamilySpec("rime-unitary", n, mu=tuple(range(n))),
                FamilySpec("cg", n, q2inv=F(-1, 2), p=F(2)),
                FamilySpec("classical-rime", n, phi=tuple(range(n + 1, 1, -1))),
                FamilySpec("classical-cg", n),
                FamilySpec("classical-unitary", n, mu=tuple(range(n))),
                FamilySpec("boundary", n),
            ]
        )
    out.extend(
        [
            FamilySpec("rime-quantum", 4, beta=F(1, 2), phi=(5, 4, 3, 2)),
            FamilySpec("cg", 4, q2inv=F(3), p=F(-1, 2)),
            FamilySpec("boundary", 4),
            FamilySpec("rime-unitary", 4, mu=(0, 1, 2, 3)),
            FamilySpec("classical-rime", 4, phi=(5, 4, 3, 2)),
            FamilySpec("classical-unitary", 4, mu=(0, 1, 2, 3)),
        ]
    )
    return out


def test_criterion_10_cli_contract(capsys, tmp_path):
    failures = []
    specs = _doc_specs()
    if len(specs) != 20:
        failures.append(f"document pool has {len(specs)} specs, wanted 20")
    for spec in specs:
        op = build(spec)
        doc = MatrixDocument.from_operator(op, spec)
        again = MatrixDocument.from_json(doc.to_json())
        if again != doc or again.to_operator() != op:
            failures.append(f"round trip {spec.family} n={spec.n}")

    # exit code 0: a passing verification
    code = main(["verify", "--family", "boundary", "--n", "3", "--checks", "cybe"])
    capsys.readouterr()
    if code != 0:
        failures.append(f"expected exit 0, got {code}")

    # exit code 1: an exact check that fails on tampered input
    main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "2,1"])
    payload = json.loads(capsys.readouterr().out)
    payload["entries"][1][2] = "5"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["verify", "--input", str(path), "--checks", "ybe"])
    capsys.readouterr()
    if code != 1:
        failures.append(f"expected exit 1, got {code}")

    # exit code 2: invalid parameters
    code = main(["generate", "rime", "--n", "2", "--beta", "3", "--phi", "1,1"])
    capsys.readouterr()
    if code != 2:
        failures.append(f"expected exit 2, got {code}")

    # fixed-seed report reproduces byte for byte
    args = ["report", "--n-max", "2", "--seeds", "1", "--seed-value", "123"]
    first_code = main(args)
    first = capsys.readouterr().out
    second_code = main(args)
    second = capsys.readouterr().out
    if first != second:
        failures.append("fixed-seed report output differs between runs")
    if first_code != 0 or second_code != 0:
        failures.append("fixed-seed report did not pass cleanly")
    _emit(capsys, 10, "serialization round trip, exit codes, deterministic report", failures)
