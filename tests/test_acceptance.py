"""Acceptance suite: every shipped guarantee, one timed check per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Time budgets are asserted as hard limits; every
``run_suite`` call starts from empty memo state, so the timed runs are cold.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from hybridseq import (
    HybridNumber,
    alphabar_squared,
    betabar_squared,
    binet_horadam,
    check_expansion,
    fib,
    fib_params,
    grid_param_sets,
    horadam,
    horadam_fast,
    hybrid_seq,
    make_context,
    product_alphabar_betabar,
    product_betabar_alphabar,
    QuadExt,
    roots,
    run_suite,
    verify_scalar_identities,
)
from hybridseq.cli import main
from hybridseq.identities import DEFAULT_GRID, VERDICT_AUDIT

from helpers import UNIT_KEYS, UNIT_TABLE, rand_hybrid

GRID_PARAMS = grid_param_sets(DEFAULT_GRID)
GRID_PQ = sorted({(params.p, params.q) for params in GRID_PARAMS})


def record(number: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"criterion {number:2d} {status} {name} ({elapsed * 1000:.2f} ms, budget {budget * 1000:.0f} ms)")
    assert ok, f"criterion {number} ({name}) failed"
    assert within, f"criterion {number} ({name}) exceeded {budget}s: {elapsed:.3f}s"


def test_criterion_01_basis_table_fidelity():
    from hybridseq import basis_table

    start = time.perf_counter()
    table = basis_table()
    ok = all(
        table[r][c].parts() == UNIT_TABLE[(row_key, col_key)]
        for r, row_key in enumerate(UNIT_KEYS)
        for c, col_key in enumerate(UNIT_KEYS)
    )
    elapsed = time.perf_counter() - start
    record(1, "basis-table", ok, elapsed, 0.001)


def test_criterion_02_algebra_laws():
    rng = random.Random(13)
    triples = [(rand_hybrid(rng), rand_hybrid(rng), rand_hybrid(rng)) for _ in range(500)]
    start = time.perf_counter()
    ok = True
    for z, w, v in triples:
        zw = z * w
        ok &= (zw) * v == z * (w * v)
        ok &= z * (w + v) == zw + z * v
        ok &= zw.conjugate() == w.conjugate() * z.conjugate()
        character = z.character()
        ok &= z * z.conjugate() == HybridNumber.from_scalar(character)
        ok &= z.conjugate() * z == HybridNumber.from_scalar(character)
        ok &= zw.character() == character * w.character()
    elapsed = time.perf_counter() - start
    record(2, "algebra-laws-500-random", ok, elapsed, 1.0)


def test_criterion_03_binet_equals_recurrence():
    contexts = [(params, make_context(params)) for params in GRID_PARAMS]
    start = time.perf_counter()
    ok = True
    for params, ctx in contexts:
        for n in range(-8, 41):
            ok &= binet_horadam(ctx, n) == hybrid_seq(params, "horadam", n)
    elapsed = time.perf_counter() - start
    record(3, "binet-vs-recurrence", ok, elapsed, 5.0)


def test_criterion_04_lemma_fidelity():
    contexts = [make_context(params) for params in GRID_PARAMS]
    start = time.perf_counter()
    ok = True
    for ctx in contexts:
        cross = product_alphabar_betabar(ctx)  # raises on closed-form mismatch
        cross_rev = product_betabar_alphabar(ctx)
        alphabar_squared(ctx)
        betabar_squared(ctx)
        expected_sum = (
            ctx.lucas0 - HybridNumber.from_scalar(Fraction(ctx.cross_shift))
        ).scale(Fraction(2))
        lifted = HybridNumber(*(QuadExt(c, 0, ctx.disc) for c in expected_sum.parts()))
        ok &= cross + cross_rev == lifted
    spot = make_context(fib_params(1, 1))
    ok &= product_alphabar_betabar(spot) == HybridNumber(
        QuadExt(0, 0, 5), QuadExt(1, 1, 5), QuadExt(3, 2, 5), QuadExt(4, -1, 5)
    )
    ok &= alphabar_squared(spot).s == QuadExt(Fraction(25, 2), Fraction(11, 2), 5)
    elapsed = time.perf_counter() - start
    record(4, "lemma-fidelity", ok, elapsed, 1.0)


def test_criterion_05_identity_suite():
    suites = ("catalan", "cassini", "docagne", "adjacent-commutator", "lucas-fib-exchange")
    start = time.perf_counter()
    ok = True
    for name in suites:
        result = run_suite(DEFAULT_GRID, name)
        ok &= result.all_authoritative_pass
        ok &= result.verdict_counts["all-fail"] == 0
        ok &= all(r.verdict == "pass" for r in result.reports)
    elapsed = time.perf_counter() - start

    from hybridseq import cassini, docagne, lucas_fib_exchange

    ctx = make_context(fib_params(1, 1))
    ok &= cassini(ctx, 1).lhs == HybridNumber(0, 2, 5, 3)
    ok &= docagne(ctx, 0, 0).lhs == HybridNumber(0, 2, 4, -2)
    ok &= lucas_fib_exchange(fib_params(1, 1), 0, 0, 1).lhs == HybridNumber(0, 2, 6, 8)
    record(5, "identity-suite", ok, elapsed, 10.0)


def test_criterion_06_erratum_audit():
    suites = ("square-difference", "horadam-commutator", "diag-commutator")
    start = time.perf_counter()
    results = {name: run_suite(DEFAULT_GRID, name) for name in suites}
    elapsed = time.perf_counter() - start
    ok = all(result.all_authoritative_pass for result in results.values())

    def find(result, indices, params_key=None):
        for report in result.reports:
            if report.case.indices == indices and (
                params_key is None
                or (report.case.params.p, report.case.params.q, report.case.params.a, report.case.params.b)
                == params_key
            ):
                return report
        raise AssertionError("expected case missing from suite run")

    # (a) commutator statement fails as printed at p=q=1, fib, n=0, m=1
    report = find(results["horadam-commutator"], (0, 1), (1, 1, 0, 1))
    ok &= report.verdict == VERDICT_AUDIT
    ok &= report.lhs == HybridNumber(0, 2, 4, -2)
    ok &= next(v.passed for v in report.variants if v.label == "proof-form")

    # (b) diagonal corollary fails as printed at p=q=1, lucas seeds, n=0
    report = find(results["diag-commutator"], (0,), (1, 1, 2, 1))
    ok &= report.verdict == VERDICT_AUDIT
    ok &= report.lhs == HybridNumber(0, 4, 8, -4)

    # (c) square difference fails as printed at p=q=1, n=1
    report = find(results["square-difference"], (1,), (1, 1, 0, 1))
    ok &= report.verdict == VERDICT_AUDIT
    ok &= report.lhs == HybridNumber(52, 4, 4, 8)
    ok &= next(v.passed for v in report.variants if v.label == "proof-form")

    record(6, "erratum-audit", ok, elapsed, 10.0)


def test_criterion_07_generating_function():
    start = time.perf_counter()
    ok = all(check_expansion(params, 32).ok for params in GRID_PARAMS)
    from hybridseq import binomial_series_coeff

    for p, q in GRID_PQ:
        for r in range(2, 33):
            ok &= binomial_series_coeff(p, q, r) == p * binomial_series_coeff(
                p, q, r - 1
            ) + q * binomial_series_coeff(p, q, r - 2)
    elapsed = time.perf_counter() - start
    record(7, "generating-function", ok, elapsed, 2.0)


def test_criterion_08_scalar_identities():
    start = time.perf_counter()
    ok = True
    for p, q in GRID_PQ:
        ok &= verify_scalar_identities(fib_params(p, q), 12).ok
        alpha, _ = roots(p, q)
        for n in range(1, 31):
            ok &= alpha**n == alpha * fib(p, q, n) + Fraction(q) * fib(p, q, n - 1)
    elapsed = time.perf_counter() - start
    record(8, "scalar-identities", ok, elapsed, 2.0)


def test_criterion_09_fast_path_performance():
    params = fib_params(1, 1)
    expected = horadam(params, 500)
    timings = []
    ok = True
    for _ in range(5):
        start = time.perf_counter()
        value = horadam_fast(params, 500)
        timings.append(time.perf_counter() - start)
        ok &= value == expected
    worst = max(timings)
    record(9, "horadam-fast-500", ok, worst, 0.05)


def test_criterion_10_cli_contract(capsys):
    start = time.perf_counter()
    first_code = main(["verify", "--suite", "all"])
    first_out = capsys.readouterr().out
    second_code = main(["verify", "--suite", "all"])
    second_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = first_code == 0 and second_code == 0 and first_out == second_out
    record(10, "cli-verify-determinism", ok, elapsed, 60.0)
