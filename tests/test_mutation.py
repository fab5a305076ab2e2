"""Mutation guard: each planted bug must fail exactly its recorded suites.

The verifier computes the two sides of every identity by independent code:
the left side multiplies recurrence windows, the right side is built from
scalar sequence values and closed-form constants.  If a refactor let one
side reuse the other's code, a bug could confirm itself and the suite that
used to catch it would go quiet.  Each mutant below is a one-unit or
one-sign monkeypatch, and ``KILL_MATRIX`` pins the set of suites that
report a gated failure under it, so a change that weakens a suite changes
a row and fails here.

``MUTATION_GRID`` (684 cases) gives the same matrix as the default grid
(17,530 cases) at a small fraction of the cost.

A run holds its product memo for one suite over one parameter set at a
time, which would hide a memo key that drops the parameter sets from most
suites; ``MEMO_KILLS`` plants that key and pins the suites that still see it.

The four lemma hybrids have one definition, ``binet.lemma_hybrids``, read
by binet's lemma checks and by the right sides; a unit planted there fails
the lemma check that reads it and the suites of the matching ``rhs_consts``
row.

Every suite runs through one report builder and counts its cases from its
row's closed forms; ``SHARED_PATH_KILLS`` plants one bug in each and pins
the suites whose gate or case count it breaks.

The ``binet`` command checks its closed-form walk against one recurrence
window; ``BINET_KILLS`` plants one bug on each side of that check and pins
the lines it must report as divergent, with both values.
"""

from __future__ import annotations

import __future__
import inspect
import json
import random
import textwrap

import pytest

from hybridseq import (
    SUITES, GridConfig, HoradamParams, HybridNumber, binet, cli, fib_params, identities, run_suite,
    sequences,
)

from helpers import rand_hybrid

MUTATION_GRID = GridConfig(ps=(1, 2), qs=(-1, 2), ab=((0, 1), (2, 3)), nmax=4, rmax=2)

def _rhs_const_mutant(index: int, component: str):
    """One unit added to one component of one `_rhs_consts` hybrid."""

    def install(monkeypatch) -> None:
        original = identities._rhs_consts

        def mutated(p, q):
            consts = list(original(p, q))
            z = consts[index]
            consts[index] = z._replace(**{component: getattr(z, component) + 1})
            return tuple(consts)

        monkeypatch.setattr(identities, "_rhs_consts", mutated)

    return install


def _product(cross_sign: int = 1, scalar_ie: bool = True, h_sign: int = 1):
    """`HybridNumber.__mul__`, with one term optionally mutated."""

    def mul(self, other):
        if not isinstance(other, HybridNumber):
            return self.scale(other)
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        cross = cross_sign * (b1 * d2 - d1 * b2)
        ie = b1 * c2 + c1 * b2 if scalar_ie else 0
        return HybridNumber(
            a1 * a2 - b1 * b2 + ie + d1 * d2,
            a1 * b2 + b1 * a2 + cross,
            a1 * c2 + c1 * a2 + cross - c1 * d2 + d1 * c2,
            a1 * d2 + d1 * a2 - b1 * c2 + h_sign * c1 * b2,
        )

    return mul


def _mul_mutant(**flags):
    def install(monkeypatch) -> None:
        monkeypatch.setattr(HybridNumber, "__mul__", _product(**flags))

    return install


def _neg_q_pow_parity(monkeypatch) -> None:
    """q^n in place of (−q)^n: wrong sign at every odd n."""
    original = identities._neg_q_pow
    monkeypatch.setattr(identities, "_neg_q_pow", lambda q, n: original(-q, n))


def _scalar_fib_shift(monkeypatch) -> None:
    """F_{r+1} in place of F_r wherever the right side reads a Fibonacci value."""
    original = identities.Evaluator.scalar

    def mutated(self, params, n):
        if params == fib_params(params.p, params.q):
            return original(self, params, n + 1)
        return original(self, params, n)

    monkeypatch.setattr(identities.Evaluator, "scalar", mutated)


def _rational_off_by_one(monkeypatch) -> None:
    """One unit too much on every division by a power of q (the backward direction)."""
    original = sequences._rational
    monkeypatch.setattr(sequences, "_rational", lambda num, den: original(num, den) + 1)


MUTANTS = {
    **{
        f"rhs_consts[{index}].{component}+1": _rhs_const_mutant(index, component)
        for index in range(4)
        for component in HybridNumber._fields
    },
    "mul: cross term sign flipped": _mul_mutant(cross_sign=-1),
    "mul: i·ε terms dropped from scalar part": _mul_mutant(scalar_ie=False),
    "mul: h part commutative": _mul_mutant(h_sign=-1),
    "_neg_q_pow parity": _neg_q_pow_parity,
    "_scalar F_r -> F_r+1": _scalar_fib_shift,
    "sequences._rational +1": _rational_off_by_one,
}

# the suites whose right side reads HL₀ − cross_shift, resp. HF₀ − omega
_READS_LUCAS_SHIFTED = {"catalan", "cassini", "docagne", "lucas-fib-exchange", "square-difference"}
_READS_FIB_SHIFTED = {
    "catalan", "cassini", "docagne",
    "adjacent-commutator", "horadam-commutator", "diag-commutator",
}

KILL_MATRIX: dict[str, set[str]] = {
    **{f"rhs_consts[0].{c}+1": _READS_LUCAS_SHIFTED for c in HybridNumber._fields},
    **{f"rhs_consts[1].{c}+1": _READS_FIB_SHIFTED for c in HybridNumber._fields},
    **{f"rhs_consts[2].{c}+1": {"square-difference"} for c in HybridNumber._fields},
    **{f"rhs_consts[3].{c}+1": {"square-difference"} for c in HybridNumber._fields},
    # the sign flip survives lucas-fib-exchange and square-difference, and
    # dropping the i·ε terms survives all three commutator suites
    "mul: cross term sign flipped": _READS_FIB_SHIFTED,
    "mul: i·ε terms dropped from scalar part": _READS_LUCAS_SHIFTED,
    "mul: h part commutative": set(SUITES),
    "_neg_q_pow parity": set(SUITES),
    "_scalar F_r -> F_r+1": {
        "catalan", "cassini", "docagne",
        "lucas-fib-exchange", "square-difference", "horadam-commutator",
    },
    "sequences._rational +1": {"catalan", "cassini", "docagne", "lucas-fib-exchange"},
}


def failing_suites(grid: GridConfig) -> set[str]:
    """Suites whose gated cases do not all pass (or that raise) on the grid."""
    failed = set()
    for suite in SUITES:
        try:
            ok = run_suite(grid, suite).all_authoritative_pass
        except ArithmeticError:
            ok = False
        if not ok:
            failed.add(suite)
    return failed


def test_matrix_covers_every_mutant():
    assert set(KILL_MATRIX) == set(MUTANTS)
    assert len(MUTANTS) == 22


def test_grid_size():
    assert run_suite(MUTATION_GRID).cases == 684


def test_unmutated_product_matches_library():
    rng = random.Random(7)
    mul = _product()
    for _ in range(200):
        z, w = rand_hybrid(rng), rand_hybrid(rng)
        assert mul(z, w) == z * w


def test_unmutated_program_fails_nothing():
    assert failing_suites(MUTATION_GRID) == set()


@pytest.mark.parametrize("name", list(MUTANTS))
def test_kill_set_matches_matrix(name, monkeypatch):
    MUTANTS[name](monkeypatch)
    assert failing_suites(MUTATION_GRID) == KILL_MATRIX[name]


def test_values_computed_under_a_mutant_do_not_outlive_its_run(monkeypatch):
    """Each run keeps its values to itself: once a mutant is undone, the next
    run computes afresh, with nothing to clear."""
    MUTANTS["sequences._rational +1"](monkeypatch)
    assert not run_suite(MUTATION_GRID, "catalan").all_authoritative_pass
    monkeypatch.undo()
    assert run_suite(MUTATION_GRID, "catalan").all_authoritative_pass


# --- the lemma hybrids: one definition, read by binet's lemma checks and by
# the right sides (through _rhs_consts) ---

_CROSS_CHECKS = (binet.product_alphabar_betabar, binet.product_betabar_alphabar)
_SQUARE_CHECKS = (binet.alphabar_squared, binet.betabar_squared)


@pytest.mark.parametrize("component", HybridNumber._fields)
@pytest.mark.parametrize("index", range(4))
def test_a_planted_lemma_hybrid_fails_its_check_and_its_suites(index, component, monkeypatch):
    original = binet.lemma_hybrids

    def mutated(ctx):
        consts = list(original(ctx))
        z = consts[index]
        consts[index] = z._replace(**{component: getattr(z, component) + 1})
        return tuple(consts)

    for module in (binet, identities):
        monkeypatch.setattr(module, "lemma_hybrids", mutated)
    ctx = binet.make_context(HoradamParams(2, -3, 1, 1))
    failing, passing = ((_CROSS_CHECKS, _SQUARE_CHECKS) if index < 2
                        else (_SQUARE_CHECKS, _CROSS_CHECKS))
    for check in failing:
        with pytest.raises(binet.LemmaMismatchError):
            check(ctx)
    for check in passing:
        check(ctx)
    assert failing_suites(MUTATION_GRID) == KILL_MATRIX[f"rhs_consts[{index}].{component}+1"]


# --- mutants compiled from a function's source ---


def _mutated(fn, old: str, new: str):
    """A copy of ``fn`` compiled from its source with ``old`` replaced by
    ``new`` once, sharing ``fn``'s module globals."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


# --- the product memo: its key must name both parameter sets ---

_MEMO_KEY = "key = pa, na, pb, nb"

# mutant -> (the memo key it plants, and for each suite that fails the gate
# on MUTATION_GRID its all-fail count on the default grid).  Within one unit
# of a run, catalan, cassini, docagne and adjacent-commutator read one
# parameter set and lucas-fib-exchange reads its two in one fixed order, so
# only the suites with two products that differ in their sets alone fail.
MEMO_KILLS = {
    "control: the key as written": (_MEMO_KEY, {}),
    "products keyed by (na, nb)": ("key = na, nb", {
        "square-difference": 121, "horadam-commutator": 319, "diag-commutator": 319,
    }),
}


@pytest.mark.parametrize("name", list(MEMO_KILLS))
def test_memo_key_kill_set(name, monkeypatch):
    key, all_fail = MEMO_KILLS[name]
    prod = _mutated(identities.Evaluator.prod, _MEMO_KEY, key)
    monkeypatch.setattr(identities.Evaluator, "prod", prod)
    assert failing_suites(MUTATION_GRID) == set(all_fail)
    for suite, count in all_fail.items():
        result = run_suite(identities.DEFAULT_GRID, suite, sink=lambda report: None)
        assert result.verdict_counts[identities.VERDICT_FAIL] == count


# --- the shared path: the one report builder and the rows' case counts ---


def _count_mismatches(grid: GridConfig) -> set[str]:
    """Suites whose closed-form case counts (all, and gated) differ from the
    cases a run evaluates on the grid."""
    mismatched = set()
    for suite in SUITES:
        run = run_suite(grid, suite, sink=lambda report: None)
        counts = identities.case_count(grid, suite), identities.case_count(grid, suite, gated=True)
        if counts != (run.cases, run.cases - run.extended_cases):
            mismatched.add(suite)
    return mismatched


def _builder_drops_corrected(monkeypatch) -> None:
    """The report builder drops every corrected variant, so printed is authoritative."""
    build = _mutated(identities._build_report,
                     "printed, corrected, label = row.rhs(ev, J, *indices)",
                     "(printed, _, label), corrected = row.rhs(ev, J, *indices), None")
    monkeypatch.setattr(identities, "_build_report", build)


def _catalan_count_plus_one(monkeypatch) -> None:
    """Catalan's closed-form gated count, one too many on every parameter set."""
    count = _mutated(identities._catalan_count, "(n - k) * (k + 1)", "(n - k) * (k + 1) + 1")
    row = identities._SUITE_TABLE["catalan"]
    monkeypatch.setitem(identities._SUITE_TABLE, "catalan", row._replace(count=count))


# mutant -> (the suites whose gate fails on MUTATION_GRID, and the suites whose
# case counts disagree with their run there)
SHARED_PATH_KILLS = {
    "control: the code as written": (lambda monkeypatch: None, set(), set()),
    "report builder drops the corrected variant": (
        _builder_drops_corrected,
        {"square-difference", "horadam-commutator", "diag-commutator"}, set(),
    ),
    "catalan count +1": (_catalan_count_plus_one, set(), {"catalan"}),
}


@pytest.mark.parametrize("name", list(SHARED_PATH_KILLS))
def test_shared_path_kill_set(name, monkeypatch):
    install, gate_fails, count_fails = SHARED_PATH_KILLS[name]
    install(monkeypatch)
    assert failing_suites(MUTATION_GRID) == gate_fails
    assert _count_mismatches(MUTATION_GRID) == count_fails


# --- the binet command: closed-form walk against one recurrence window ---


def _seqcache_step_mutant(monkeypatch) -> None:
    """One unit too much on the forward recurrence step into X_30."""
    value = _mutated(sequences.SeqCache.value, "prev, cur = cur, p * cur + q * prev",
                     "prev, cur = cur, p * cur + q * prev + (k == 30)")
    monkeypatch.setattr(sequences.SeqCache, "value", value)


def _walk_step_mutant(monkeypatch) -> None:
    """One unit too much on the s-part of every step of the closed-form walk."""
    monkeypatch.setattr(binet, "binet_window",
                        _mutated(binet.binet_window, "x + p * y", "x + p * y + 1"))


BINET_ARGV = ["binet", "--p", "2", "--q", "-3", "--from", "-20", "--to", "60"]
BINET_PARAMS = HoradamParams(2, -3, 0, 1)

# mutant -> (the lines n whose window X_n … X_{n+3} holds a wrong value, and
# the side of the check the bug is planted in)
BINET_KILLS = {
    "SeqCache forward step +1 into X_30": (_seqcache_step_mutant, range(27, 61), "recurrence"),
    "walk step X + p·Y + 1": (_walk_step_mutant, range(-20, 61), "binet"),
}


@pytest.mark.parametrize("name", list(BINET_KILLS))
def test_binet_divergence_names_every_affected_line(name, monkeypatch, capsys):
    install, affected, planted = BINET_KILLS[name]
    install(monkeypatch)
    code = cli.main(BINET_ARGV)
    out, err = capsys.readouterr()
    assert code == 1
    # each line shows both sides as the mutant computes them; the side without
    # the bug is the exact value, by companion-matrix powering
    closed = binet.binet_window(binet.make_context(BINET_PARAMS), -20, 60)
    window = sequences.SeqCache(BINET_PARAMS).window(-20, 63)  # as the command fills it
    expected = []
    for n in affected:
        sides = {"binet": closed[n + 20], "recurrence": HybridNumber(*window[n + 20 : n + 24])}
        exact = HybridNumber(*(sequences.horadam(BINET_PARAMS, k) for k in range(n, n + 4)))
        clean = "binet" if planted == "recurrence" else "recurrence"
        assert sides[clean] == exact != sides[planted]
        expected.append({"n": n, "error": "binet/recurrence divergence",
                         **{side: sides[side].to_json_dict() for side in ("binet", "recurrence")}})
    assert [json.loads(line) for line in err.splitlines()] == expected
    assert [json.loads(line)["n"] for line in out.splitlines()] == [
        n for n in range(-20, 61) if n not in affected
    ]


def test_unmutated_binet_passes(capsys):
    assert cli.main(BINET_ARGV) == 0
    out, err = capsys.readouterr()
    assert (len(out.splitlines()), err) == (81, "")
