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

The four lemma hybrids have one definition, ``sequences.lemma_hybrids(p, q)``,
read by binet's lemma checks and by the right sides; a unit planted there
fails the lemma check that reads it and the suites of the matching
``rhs_consts`` row.  A term that vanishes at p = 1, 2 and 3, the default
grid's p values, is caught by the lemma proof over every (p, q).

Every verifier is its row's report builder, made by ``_verifier``, and
every suite counts its cases from its row's closed forms;
``SHARED_PATH_KILLS`` plants bugs in the builder's variants and in its probe
rule (rebinding the eight verifiers), and one in a row's count, and pins the
suites whose gate or case count each breaks.

The ``binet`` command checks its closed-form walk against one recurrence
window; ``BINET_KILLS`` plants one bug on each side of that check and pins
the lines it must report as divergent, with both values.

The other commands rest on checks of their output; ``COMMAND_KILLS`` plants
one bug each in the negative branch of ``sequences._seek``, in
``cli._rendered``, in ``cli._over_cap``, in the index ``cli._check_cap``
names for a chunk of a window, in ``identities.case_count`` and in the
scaled root of ``HybridNumber.norm``, and pins the command checks that
fail under it: golden stream digests, binet's exit 1, expand's
``matches_seq``, the cap's error line and verify's refusal line for a grid
it must not run.  A mutant that no check kills would be pinned to the empty
set.
"""

from __future__ import annotations

import __future__
import hashlib
import inspect
import io
import json
import random
import textwrap
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hybridseq import (
    SUITES, GridConfig, HoradamParams, HybridNumber, binet, cli, fib_params, identities, run_suite,
    sequences,
)

from helpers import GRID_PARAMS, rand_hybrid
from test_binet import LEMMA_CHECKS, prove_lemmas
from test_cli import GOLDEN_DIGESTS, OVER_CAP_REQUESTS

MUTATION_GRID = GridConfig(ps=(1, 2), qs=(-1, 2), ab=((0, 1), (2, 3)), nmax=4, rmax=2)

def _rhs_const_mutant(index: int, component: str):
    """One unit added to one component of one lemma hybrid the right sides read."""

    def install(monkeypatch) -> None:
        original = identities.lemma_hybrids

        def mutated(p, q):
            consts = list(original(p, q))
            z = consts[index]
            consts[index] = z._replace(**{component: getattr(z, component) + 1})
            return tuple(consts)

        monkeypatch.setattr(identities, "lemma_hybrids", mutated)

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
# the right sides ---

_CROSS_CHECKS = (binet.product_alphabar_betabar, binet.product_betabar_alphabar)
_SQUARE_CHECKS = (binet.alphabar_squared, binet.betabar_squared)


@pytest.mark.parametrize("component", HybridNumber._fields)
@pytest.mark.parametrize("index", range(4))
def test_a_planted_lemma_hybrid_fails_its_check_and_its_suites(index, component, monkeypatch):
    original = sequences.lemma_hybrids

    def mutated(p, q):
        consts = list(original(p, q))
        z = consts[index]
        consts[index] = z._replace(**{component: getattr(z, component) + 1})
        return tuple(consts)

    for module in (sequences, binet, identities):  # every module it is bound in
        assert module.lemma_hybrids is original
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


def test_the_lemma_proof_kills_a_term_that_vanishes_on_the_default_ps(monkeypatch):
    """(p − 1)(p − 2)(p − 3)·ε added to HF₀ − omega: zero at the default grid's
    p values, where every lemma check passes, and caught on the proof grid."""
    original = sequences.lemma_hybrids
    mutated = _mutated(original, "fib0 - HybridNumber(0, 1 - p, -q, p * p + q + 1),",
                       "fib0 - HybridNumber(0, 1 - p, -q, p * p + q + 1)"
                       " + HybridNumber(0, 0, (p - 1) * (p - 2) * (p - 3), 0),")
    for module in (sequences, binet, identities):  # every module it is bound in
        assert module.lemma_hybrids is original
        monkeypatch.setattr(module, "lemma_hybrids", mutated)
    assert mutated(4, 1) != original(4, 1)
    for params in GRID_PARAMS:
        for check in LEMMA_CHECKS:
            check(binet.make_context(params))
    with pytest.raises(binet.LemmaMismatchError):
        prove_lemmas()


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


def _rebind_verifiers(monkeypatch, old: str, new: str) -> None:
    """Each of the eight verifiers, made again by a mutated ``_verifier`` and
    rebound under its name, where run_suite looks it up."""
    make = _mutated(identities._verifier, old, new)
    for suite in SUITES:
        name = suite.replace("-", "_")
        monkeypatch.setattr(identities, name, make(suite, getattr(identities, name).__doc__))


def _builder_drops_corrected(monkeypatch) -> None:
    """The report builder drops every corrected variant, so printed is authoritative."""
    _rebind_verifiers(monkeypatch, "values = row.rhs(ev, J, *indices)",
                      "values = row.rhs(ev, J, *indices)[:1]")


def _zero_index_probes(monkeypatch) -> None:
    """The probe rule takes an index of 0 for a negative one."""
    _rebind_verifiers(monkeypatch, "min(indices) < 0", "min(indices) <= 0")


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
    # every gated case still passes; cassini's gated indices start at m = 1
    "probe rule: an index of 0 probes": (_zero_index_probes, set(), {"catalan", "docagne"}),
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


# --- command-level mutants: each pinned to the command checks that kill it ---

# every golden stream but the default-grid verify ones (three times the
# rest's run time); "verify --suite docagne --audit" stays and sends every
# value it prints through the same cap check
_CHECKED_STREAMS = {command: digest for command, digest in GOLDEN_DIGESTS.items()
                    if command not in ("verify", "verify --format csv", "verify --audit")}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# verify requests that it refuses before any case: name -> (suite, grid file,
# the one error line); each count is written out, not taken from case_count
REFUSED_GRIDS = {
    "no parameter set": ("all", "p=-2,2\nq=-1\n",
        "error: nothing to verify: the grid has no parameter set (every (p, q) pair has p²+4q = 0)"),
    "cassini, no gated case": ("cassini", "nmax=0\n",
        "error: nothing to verify: suite 'cassini' has no gated case on this grid "
        "(200 cases, all extended-domain probes)"),
    "over the case budget": ("all", "nmax=100000\n",
        "error: suite 'all' has 200125003030 cases on this grid, over the case budget of 250000"),
}


def failing_command_checks(tmp_path) -> set[str]:
    """The command checks that fail: a golden stream's digest, a golden binet
    request's exit 1 (its walk disagrees with the recurrence), a golden expand
    request's matches_seq, an over-cap request's one cap error line, and a
    refused grid's one error line."""
    failed = set()
    for command, digest in _CHECKED_STREAMS.items():
        code, out, _ = _run(command.split())
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            failed.add(f"digest: {command}")
        if command.startswith("binet") and code == 1:
            failed.add(f"binet exit 1: {command}")
        if command.startswith("expand") and "false" in out:
            failed.add(f"expand matches_seq: {command}")
    for argv, name, index in OVER_CAP_REQUESTS:
        error = f"error: {name}={index} needs a value of more than {cli.DIGIT_CAP} digits (the output cap)\n"
        if _run(list(argv)) != (2, "", error):
            failed.add(f"digit cap: {' '.join(argv)}")
    grid = tmp_path / "refused.grid"
    for name, (suite, text, error) in REFUSED_GRIDS.items():
        grid.write_text(text)
        if _run(["verify", "--suite", suite, "--grid", str(grid)]) != (2, "", error + "\n"):
            failed.add(f"refusal: {name}")
    return failed


def _seek_negative_mutant(monkeypatch) -> None:
    """q^(k+1) in place of q^k on the way to an index −k < 0."""
    seek = _mutated(sequences._seek, "q_k = q ** -n", "q_k = q ** (1 - n)")
    monkeypatch.setattr(sequences, "_seek", seek)


def _rendered_mutant(monkeypatch) -> None:
    """Each line drops its last text in place of its first before the next line."""
    monkeypatch.setattr(cli, "_rendered", _mutated(cli._rendered, "del texts[0]", "del texts[-1]"))


def _over_cap_mutant(monkeypatch) -> None:
    """The denominator is never compared with the cap."""
    over_cap = _mutated(cli._over_cap, "abs(num) >= _CAP_POW or den >= _CAP_POW",
                        "abs(num) >= _CAP_POW")
    monkeypatch.setattr(cli, "_over_cap", over_cap)


def _cap_index_mutant(monkeypatch) -> None:
    """The cap error counts its index from the chunk being checked, not from
    the start of the window."""
    check = _mutated(cli._check_cap, "enumerate(values, offset)", "enumerate(values)")
    monkeypatch.setattr(cli, "_check_cap", check)


def _case_count_mutant(monkeypatch) -> None:
    """case_count reads cassini's closed-form count one too high per parameter set."""
    count = _mutated(identities.case_count, "row.count(n, r)",
                     "(row.count(n, r) + (row.rhs is _cassini_rhs))")
    monkeypatch.setattr(identities, "case_count", count)


def _norm_root_mutant(monkeypatch) -> None:
    """The scaled root scales the radicand by 2ᵏ in place of 4ᵏ = (2ᵏ)²."""
    norm = _mutated(HybridNumber.norm, "num * 4**k // den", "num * 2**k // den")
    monkeypatch.setattr(HybridNumber, "norm", norm)


_BINET_BELOW_0 = (
    "binet --p -2 --q 3 --a 3 --b -1 --from -80 --to 50 --format csv",
    "binet --p 3 --q -2 --seq lucas --from -90 --to 10",
)
_HYBRID_SEQ = ("seq --p 2 --q 3 --from -1000 --to 1000", "seq --p 2 --q 3 --from -40 --to 400 --format csv")

# mutant -> (its install, and the command checks that fail under it)
COMMAND_KILLS = {
    "control: the code as written": (lambda monkeypatch: None, set()),
    # every golden window that starts below 0 (none has q = 1, where the
    # mutant changes nothing), and binet's cross-check on both of its own
    "_seek: q^(k+1) below index 0": (_seek_negative_mutant, {
        *(f"digest: {command}" for command in (
            *_BINET_BELOW_0, *_HYBRID_SEQ,
            "seq --p 1 --q -1 --a 2 --b 5 --from -300 --to 20 --kind scalar",
            "seq --p 1 --q -3 --a 2 --b 5 --from -60 --to 40 --kind scalar --format csv",
            "seq --p 3 --q 2 --from -300 --to 300 --kind scalar",
        )),
        *(f"binet exit 1: {command}" for command in _BINET_BELOW_0),
    }),
    # a scalar line has one text, so only the hybrid windows show it; binet's
    # cross-check compares values, never texts
    "_rendered: drops the last text": (_rendered_mutant, {
        f"digest: {command}" for command in (*_BINET_BELOW_0, *_HYBRID_SEQ, "binet --p 1 --q 1 --to 300")
    }),
    # the one over-cap request whose denominator alone passes the cap
    "_over_cap: denominator unchecked": (_over_cap_mutant, {
        "digit cap: seq --p 1 --q -3 --from -9100 --to -9090 --kind scalar",
    }),
    # the over-cap requests whose first over-cap value is past the window's
    # first chunk; in the others it is the window's first value
    "_check_cap: index from the chunk": (_cap_index_mutant, {
        "digit cap: seq --p 1 --q 1 --from 20570 --to 20600 --kind scalar",
        "digit cap: seq --p 1 --q 1 --from 20560 --to 20600 --format csv",
    }),
    # the count a refusal prints, and the cassini grid whose gated count is 0;
    # a grid with no parameter set has no row to miscount
    "case_count: cassini's count +1": (_case_count_mutant, {
        "refusal: cassini, no gated case", "refusal: over the case budget",
    }),
    # only a character below 2**-1022 takes a scaled root with k > 0; past
    # 2**1023, k = 0 and 2ᵏ = 4ᵏ
    "norm: radicand scaled by 2^k": (_norm_root_mutant, {"digest: char 1e-200,0,0,0"}),
}


@pytest.mark.parametrize("name", list(COMMAND_KILLS))
def test_command_kill_set(name, monkeypatch, tmp_path):
    install, killed_by = COMMAND_KILLS[name]
    install(monkeypatch)
    assert failing_command_checks(tmp_path) == killed_by
