"""Tests for the identity verifier: golden cases, cross-checks, the suite."""

from __future__ import annotations

import gc
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridseq import (
    SUITES,
    GridConfig,
    GridConfigError,
    HoradamParams,
    HybridNumber,
    adjacent_commutator,
    cassini,
    catalan,
    diag_commutator,
    docagne,
    fib_params,
    grid_param_sets,
    horadam_commutator,
    lucas_fib_exchange,
    make_context,
    parse_grid_text,
    run_suite,
    square_difference,
)
from hybridseq import cli, identities
from hybridseq.identities import DEFAULT_GRID, VERDICT_AUDIT, VERDICT_PASS, case_count

from helpers import GRID_PARAMS, GRID_PQ, SMALL_PQ, hybrid_oracle, table_mul


def ctx_for(p, q, a, b):
    return make_context(HoradamParams(p, q, a, b))


def lhs_oracle(p, q, a, b, pairs):
    """Σ ± HJ_x·HJ_y via the frozen-table product, independent of the library."""
    total = HybridNumber(0, 0, 0, 0)
    for sign, (seed_x, x), (seed_y, y) in pairs:
        zx = hybrid_oracle(p, q, seed_x[0], seed_x[1], x)
        zy = hybrid_oracle(p, q, seed_y[0], seed_y[1], y)
        product = table_mul(zx, zy)
        total = total + product if sign > 0 else total - product
    return total


class TestCatalan:
    def test_degenerate_r_zero(self):
        report = catalan(ctx_for(1, 1, 0, 1), 3, 0)
        assert report.verdict == VERDICT_PASS
        assert report.lhs == HybridNumber(0, 0, 0, 0)
        assert report.rhs_printed == HybridNumber(0, 0, 0, 0)

    def test_classical_spot(self):
        report = catalan(ctx_for(1, 1, 0, 1), 1, 1)
        expected = lhs_oracle(
            1, 1, 0, 1, [(+1, ((0, 1), 1), ((0, 1), 1)), (-1, ((0, 1), 2), ((0, 1), 0))]
        )
        assert expected == HybridNumber(0, 2, 5, 3)
        assert report.lhs == expected
        assert report.verdict == VERDICT_PASS

    def test_negative_weight_product(self):
        report = catalan(ctx_for(1, 1, 1, 1), 2, 1)
        assert report.verdict == VERDICT_PASS

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            catalan(ctx_for(1, 1, 0, 1), 1, 2)

    def test_extended_domain_negative_m(self):
        report = catalan(ctx_for(1, 1, 0, 1), -2, 1, extended=True)
        assert report.case.extended
        assert report.verdict == VERDICT_PASS


class TestCassini:
    def test_classical_spot(self):
        report = cassini(ctx_for(1, 1, 0, 1), 1)
        assert report.lhs == HybridNumber(0, 2, 5, 3)
        assert report.verdict == VERDICT_PASS

    def test_lucas_seeds(self):
        report = cassini(ctx_for(1, 1, 2, 1), 1)
        assert report.verdict == VERDICT_PASS

    def test_pell_spot(self):
        assert cassini(ctx_for(2, 1, 0, 1), 2).verdict == VERDICT_PASS

    def test_matches_catalan_at_r_one(self):
        for params in GRID_PARAMS[:8]:
            ctx = make_context(params)
            for m in range(1, 11):
                assert cassini(ctx, m).rhs_printed == catalan(ctx, m, 1).rhs_printed

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            cassini(ctx_for(1, 1, 0, 1), 0)


class TestDocagne:
    def test_classical_spot(self):
        report = docagne(ctx_for(1, 1, 0, 1), 0, 0)
        expected = lhs_oracle(
            1, 1, 0, 1, [(+1, ((0, 1), 0), ((0, 1), 1)), (-1, ((0, 1), 1), ((0, 1), 0))]
        )
        assert expected == HybridNumber(0, 2, 4, -2)
        assert report.lhs == expected
        assert report.verdict == VERDICT_PASS

    def test_index_collapse_is_reversed_adjacent_commutator(self):
        ctx = ctx_for(2, 1, 1, 1)
        for r in range(5):
            collapsed = docagne(ctx, r, r)
            adjacent = adjacent_commutator(ctx, r)
            assert collapsed.lhs == -adjacent.lhs
            assert collapsed.verdict == VERDICT_PASS

    def test_negative_q_spot(self):
        assert docagne(ctx_for(3, -1, 0, 1), 2, 1).verdict == VERDICT_PASS

    def test_reduces_to_cassini_at_m_r_minus_one(self):
        for params in GRID_PARAMS[:8]:
            ctx = make_context(params)
            for r in range(1, 8):
                reduced = docagne(ctx, r, r - 1)
                reference = cassini(ctx, r)
                assert reduced.lhs == reference.lhs
                assert reduced.rhs_printed == reference.rhs_printed


class TestAdjacentCommutator:
    def test_first_spot(self):
        report = adjacent_commutator(ctx_for(1, 1, 0, 1), 0)
        assert report.lhs == HybridNumber(0, -2, -4, 2)
        assert report.verdict == VERDICT_PASS

    def test_second_spot(self):
        report = adjacent_commutator(ctx_for(1, 1, 0, 1), 1)
        assert report.rhs_printed == HybridNumber(0, 1, 2, -1).scale(2)
        assert report.verdict == VERDICT_PASS

    def test_zero_seeds(self):
        report = adjacent_commutator(ctx_for(1, 1, 0, 0), 2)
        assert report.lhs == HybridNumber(0, 0, 0, 0)
        assert report.verdict == VERDICT_PASS


class TestLucasFibExchange:
    def test_classical_spot(self):
        report = lucas_fib_exchange(fib_params(1, 1), 0, 0, 1)
        expected = lhs_oracle(
            1, 1, 0, 1, [(+1, ((2, 1), 0), ((0, 1), 1)), (-1, ((2, 1), 1), ((0, 1), 0))]
        )
        assert expected == HybridNumber(0, 2, 6, 8)
        assert report.lhs == expected
        assert report.verdict == VERDICT_PASS

    def test_equal_offsets_vanish(self):
        report = lucas_fib_exchange(fib_params(2, 2), 3, 2, 2)
        assert report.lhs == HybridNumber(0, 0, 0, 0)
        assert report.verdict == VERDICT_PASS

    def test_swap_antisymmetry(self):
        for p, q in GRID_PQ[:4]:
            params = fib_params(p, q)
            for n in range(3):
                for r in range(3):
                    for s in range(3):
                        forward = lucas_fib_exchange(params, n, r, s)
                        backward = lucas_fib_exchange(params, n, s, r)
                        assert forward.lhs == -backward.lhs
                        assert forward.rhs_printed == -backward.rhs_printed


class TestSquareDifference:
    def test_zero_index_hides_coefficient_slip(self):
        report = square_difference(fib_params(1, 1), 0)
        assert report.lhs == HybridNumber(20, 4, 12, 16)
        assert all(v.passed for v in report.variants)
        assert report.verdict == VERDICT_PASS

    def test_printed_fails_at_one(self):
        report = square_difference(fib_params(1, 1), 1)
        assert report.lhs == HybridNumber(52, 4, 4, 8)
        printed, proof = report.variants
        assert printed.label == "printed" and not printed.passed
        assert proof.label == "proof-form" and proof.passed and proof.authoritative
        assert report.verdict == VERDICT_AUDIT

    def test_pell_proof_form(self):
        report = square_difference(fib_params(2, 1), 1)
        assert next(v for v in report.variants if v.authoritative).passed


class TestHoradamCommutator:
    def test_printed_sign_flips(self):
        report = horadam_commutator(ctx_for(1, 1, 0, 1), 0, 1)
        assert report.lhs == HybridNumber(0, 2, 4, -2)
        printed = next(v for v in report.variants if v.label == "printed")
        proof = next(v for v in report.variants if v.label == "proof-form")
        assert printed.value == HybridNumber(0, -2, -4, 2) and not printed.passed
        assert proof.passed and proof.authoritative
        assert report.verdict == VERDICT_AUDIT

    def test_vanishing_diagonal_for_zero_seed(self):
        report = horadam_commutator(ctx_for(1, 1, 0, 1), 2, 2)
        assert report.lhs == HybridNumber(0, 0, 0, 0)
        assert all(v.passed for v in report.variants)
        assert report.verdict == VERDICT_PASS

    def test_general_seed_proof_form(self):
        report = horadam_commutator(ctx_for(1, 1, 1, 2), 1, 2)
        assert next(v for v in report.variants if v.authoritative).passed

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            horadam_commutator(ctx_for(1, 1, 0, 1), 2, 1)


class TestDiagCommutator:
    def test_zero_seed(self):
        report = diag_commutator(ctx_for(1, 1, 0, 1), 3)
        assert report.lhs == HybridNumber(0, 0, 0, 0)
        assert report.verdict == VERDICT_PASS

    def test_lucas_seed_counterexample(self):
        report = diag_commutator(ctx_for(1, 1, 2, 1), 0)
        expected = lhs_oracle(
            1, 1, 2, 1, [(+1, ((0, 1), 0), ((2, 1), 0)), (-1, ((2, 1), 0), ((0, 1), 0))]
        )
        assert expected == HybridNumber(0, 4, 8, -4)
        assert report.lhs == expected
        printed = next(v for v in report.variants if v.label == "printed")
        corrected = next(v for v in report.variants if v.label == "sign-corrected")
        assert printed.value == HybridNumber(0, -4, -8, 4) and not printed.passed
        assert corrected.passed and corrected.authoritative
        assert report.verdict == VERDICT_AUDIT

    def test_pell_corrected_form(self):
        report = diag_commutator(ctx_for(2, 1, 2, 2), 1)
        assert next(v for v in report.variants if v.authoritative).passed


class TestGridConfig:
    def test_default_param_sets_deduplicated(self):
        params = grid_param_sets(DEFAULT_GRID)
        assert len(params) == len(set(params))
        assert (2, -1) not in {(x.p, x.q) for x in params}  # zero discriminant dropped
        # lucas pair (2, p) collides with literal (2, 3) at p = 3
        assert sum(1 for x in params if x == HoradamParams(3, 1, 2, 3)) == 1

    def test_parse_round_trip(self):
        text = "p=1,2\nq=-1,2\nab=0:1,2:p\nnmax=4\nrmax=3\n"
        config = parse_grid_text(text)
        assert config.ps == (1, 2)
        assert config.qs == (-1, 2)
        assert config.ab == ((0, 1), (2, "p"))
        assert config.nmax == 4 and config.rmax == 3

    def test_comments_and_blanks_ignored(self):
        config = parse_grid_text("# grid\n\np=1\nq=1\n")
        assert config.ps == (1,) and config.qs == (1,)

    def test_zero_q_rejected(self):
        with pytest.raises(GridConfigError):
            parse_grid_text("q=0,1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(GridConfigError):
            parse_grid_text("pmax=3\n")

    def test_bad_pair_rejected(self):
        with pytest.raises(GridConfigError):
            parse_grid_text("ab=01\n")

    @pytest.mark.parametrize("text", ["p=\n", "p=1\nq= , \n", "ab=\n"])
    def test_empty_value_list_rejected(self, text):
        lineno = len(text.splitlines())
        with pytest.raises(GridConfigError, match=f"line {lineno}: .* has no values"):
            parse_grid_text(text)

    @pytest.mark.parametrize("text,where", [
        ("p=1,1_0\n", "line 1: invalid p value '1_0'"),
        ("p=1\nq=-1_0\n", "line 2: invalid q value '-1_0'"),
        ("ab=0:1,2:1_0\n", "line 1: invalid ab value '1_0'"),
        ("nmax=1_0\np=1_0\n", "line 1: invalid nmax value '1_0'"),
        ("p=1\n\nrmax= 6_ \n", "line 3: invalid rmax value '6_'"),
    ])
    def test_underscore_in_an_integer_rejected(self, text, where):
        # int() reads "1_0" as 10 on every Python; the grid format does not
        with pytest.raises(GridConfigError) as exc:
            parse_grid_text(text)
        assert str(exc.value) == f"{where}: no '_' may stand inside it"

    def test_repeated_key_rejected(self):
        with pytest.raises(GridConfigError, match="line 3: grid key 'p' is given twice"):
            parse_grid_text("p=1\nq=1\np=2\n")

    def test_unknown_suite_rejected(self):
        with pytest.raises(GridConfigError):
            run_suite(suite="fermat")


SMALL_GRID = GridConfig(ps=(1, 2), qs=(-1, 1), ab=((0, 1), (2, "p")), nmax=4, rmax=3)


class TestSuite:
    def test_small_grid_all_authoritative_pass(self):
        result = run_suite(SMALL_GRID)
        assert result.all_authoritative_pass
        assert result.verdict_counts["all-fail"] == 0
        assert result.extended_failures == 0

    def test_empty_grid_succeeds(self):
        result = run_suite(GridConfig(ps=(), qs=(1,)))
        assert result.cases == 0
        assert result.all_authoritative_pass

    def test_reports_are_reproducible(self):
        first = run_suite(SMALL_GRID, "cassini")
        second = run_suite(SMALL_GRID, "cassini")
        assert first.reports == second.reports

    def test_single_suite_selection(self):
        result = run_suite(SMALL_GRID, "adjacent-commutator")
        assert result.cases > 0
        assert {r.case.name for r in result.reports} == {"adjacent-commutator"}

    def test_extended_cases_flagged_and_passing(self):
        result = run_suite(SMALL_GRID, "docagne")
        extended = [r for r in result.reports if r.case.extended]
        assert extended and all(r.verdict == VERDICT_PASS for r in extended)
        assert all(min(r.case.indices) < 0 for r in extended)

    def test_audit_failures_localized_to_known_identities(self):
        result = run_suite(SMALL_GRID)
        flagged = {r.case.name for r in result.printed_failures}
        assert flagged <= {"square-difference", "horadam-commutator", "diag-commutator"}
        assert "horadam-commutator" in flagged

    def test_sink_takes_every_report_and_none_is_kept(self):
        taken = []
        result = run_suite(SMALL_GRID, sink=taken.append)
        assert result.reports == []
        assert len(taken) == result.cases == case_count(SMALL_GRID)
        assert taken == run_suite(SMALL_GRID).reports

    @pytest.mark.parametrize("grid", [SMALL_GRID, DEFAULT_GRID], ids=["small", "default"])
    def test_streamed_and_collected_runs_tally_alike(self, grid):
        streamed = run_suite(grid, sink=lambda report: None)
        collected = run_suite(grid)
        assert streamed.tally() == collected.tally()
        # the running totals against a count over the kept reports
        counts, extended, extended_failures, gate = collected.tally()
        reports = collected.reports
        assert counts == {v: sum(r.verdict == v for r in reports) for v in counts}
        assert extended == sum(r.case.extended for r in reports)
        assert extended_failures == sum(r.case.extended and not r.authoritative_passed
                                        for r in reports)
        assert gate is all(r.authoritative_passed for r in reports if not r.case.extended)
        assert streamed.cases == collected.cases == case_count(grid)
        if grid == DEFAULT_GRID:
            assert streamed.cases == 17530
            assert counts == {"pass": 14663, "printed-fails-variant-passes": 2867, "all-fail": 0}


class TestGate:
    """Exactly one failing gated case, wherever it falls, fails the gate."""

    SUITE = "adjacent-commutator"  # no extended cases: the last report is gated
    GRID_TEXT = "p=1,2\nq=-1,1\nab=0:1,2:p\nnmax=4\nrmax=3\n"  # SMALL_GRID

    @staticmethod
    def _failing_at(verifier, position: int):
        """``verifier``, with the report of its call number ``position`` failed."""
        calls = count()

        def one_failure(*args, **kwargs):
            report = verifier(*args, **kwargs)
            if next(calls) == position:
                variants = tuple(v._replace(passed=False) for v in report.variants)
                report = report._replace(variants=variants, verdict=identities.VERDICT_FAIL)
            return report

        return one_failure

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_failed_case_fails_the_run(self, monkeypatch, capsys, tmp_path, where):
        assert parse_grid_text(self.GRID_TEXT) == SMALL_GRID
        cases = case_count(SMALL_GRID, self.SUITE)
        position = {"first": 0, "middle": cases // 2, "last": cases - 1}[where]
        verifier = identities.adjacent_commutator
        monkeypatch.setattr(identities, "adjacent_commutator", self._failing_at(verifier, position))
        result = run_suite(SMALL_GRID, self.SUITE)
        assert result.cases == cases
        assert [r.verdict for r in result.reports].index("all-fail") == position
        assert result.tally()[3] is False
        assert result.all_authoritative_pass is False

        grid = tmp_path / "grid.txt"
        grid.write_text(self.GRID_TEXT)
        monkeypatch.setattr(identities, "adjacent_commutator", self._failing_at(verifier, position))
        code = cli.main(["verify", "--suite", self.SUITE, "--grid", str(grid)])
        out, _ = capsys.readouterr()
        assert code == 1
        assert '"all_authoritative_pass":false' in out.splitlines()[-1]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_streamed_run_tallies_as_a_collected_one(self, monkeypatch, where):
        cases = case_count(SMALL_GRID, self.SUITE)
        position = {"first": 0, "middle": cases // 2, "last": cases - 1}[where]
        verifier = identities.adjacent_commutator
        runs = []
        for sink in ([].append, None):
            monkeypatch.setattr(identities, "adjacent_commutator",
                                self._failing_at(verifier, position))
            runs.append(run_suite(SMALL_GRID, self.SUITE, sink=sink))
        streamed, collected = runs
        assert streamed.reports == [] and streamed.cases == collected.cases == cases
        assert streamed.tally() == collected.tally()
        assert streamed.tally()[3] is False


class TestRunState:
    """A run's memo state is its own, so runs may share a process and threads."""

    @staticmethod
    def _lookups():
        return [(c.hits, c.misses) for c in (identities._prod.cache_info(),
                                             identities._hyb.cache_info())]

    def test_concurrent_runs_match_a_serial_run(self):
        before = self._lookups()
        serial = run_suite(SMALL_GRID).reports
        once = self._lookups()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [pool.submit(run_suite, SMALL_GRID) for _ in range(2)]
                reports = [run.result(timeout=120).reports for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [serial, serial]
        # each run adds its own hits and misses, and none is lost
        for b, o, t in zip(before, once, self._lookups()):
            assert o[0] > b[0] and o[1] > b[1]
            assert (t[0] - o[0], t[1] - o[1]) == (2 * (o[0] - b[0]), 2 * (o[1] - b[1]))

    def test_no_module_level_cache(self):
        assert not [name for name, value in vars(identities).items()
                    if hasattr(value, "cache_clear")]


class TestMemoBound:
    """A run holds one unit's products at a time (one suite over one parameter
    set or one (p, q)), and its counters count every product it made."""

    @pytest.mark.parametrize("grid", [SMALL_GRID, DEFAULT_GRID], ids=["small", "default"])
    def test_memo_holds_one_unit_and_counts_each_product(self, monkeypatch, grid):
        unit = [None]
        keys: dict[tuple, set] = {}  # (suite, unit) -> the distinct products it asks for
        largest = made = 0

        def entering(suite, verifier):
            def verify(first, *args, **kwargs):
                unit[0] = (suite, id(first))  # the run keeps each unit until it returns
                return verifier(first, *args, **kwargs)
            return verify

        for suite in SUITES:
            name = suite.replace("-", "_")
            monkeypatch.setattr(identities, name, entering(suite, getattr(identities, name)))
        prod, mul = identities.Evaluator.prod, HybridNumber.__mul__

        def counted_prod(self, pa, na, pb, nb):
            nonlocal largest
            keys.setdefault(unit[0], set()).add((pa, na, pb, nb))
            pair = prod(self, pa, na, pb, nb)
            largest = max(largest, len(self._prods))
            return pair

        def counted_mul(self, other):
            nonlocal made
            made += isinstance(other, HybridNumber)
            return mul(self, other)

        monkeypatch.setattr(identities.Evaluator, "prod", counted_prod)
        monkeypatch.setattr(HybridNumber, "__mul__", counted_mul)
        misses = identities._prod.cache_info().misses
        assert run_suite(grid, sink=lambda report: None).cases == case_count(grid)
        assert 0 < largest <= max(map(len, keys.values()))
        assert identities._prod.cache_info().misses - misses == made


class _Refused(dict):
    """An Evaluator memo that a side must not read."""

    def __getitem__(self, key):
        raise AssertionError(f"read {key!r} from a memo this side must not use")


class _RightSideEvaluator(identities.Evaluator):
    """For a right side: no product, nor the HJ_n pairs products are made of."""

    def __init__(self) -> None:
        super().__init__()
        self._hybs = self._prods = _Refused()

    def prod(self, *key):
        raise AssertionError(f"a right side asked for the product {key!r}")


class _LeftSideEvaluator(identities.Evaluator):
    """For a left side: no scalar sequence value and no per-(p, q) constant."""

    def __init__(self) -> None:
        super().__init__()
        self.pq = _Refused()

    def scalar(self, params, n):
        raise AssertionError(f"a left side asked for the scalar {n} of {params!r}")


class TestIndependence:
    """The two sides of every identity are computed by independent code: each
    row's right side runs without products and its left side without
    scalars or constants, and what the verifier reports is those two."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_each_side_reads_only_its_own_values(self, suite):
        row = identities._SUITE_TABLE[suite]
        verify = getattr(identities, suite.replace("-", "_"))
        param_sets = grid_param_sets(SMALL_GRID)
        units = (list(dict.fromkeys(fib_params(ps.p, ps.q) for ps in param_sets)) if row.per_pq
                 else [make_context(params) for params in param_sets])
        left, right, both = _LeftSideEvaluator(), _RightSideEvaluator(), identities.Evaluator()
        checked = 0
        for unit in units:
            sets = left.sets[unit if row.per_pq else unit.params]  # (J, F, L)
            for indices in row.indices(SMALL_GRID.nmax, SMALL_GRID.rmax):
                first, second = row.lhs(*sets, *indices)
                lhs = identities._lhs(left.prod(*first), left.prod(*second))
                printed, corrected, label = row.rhs(right, unit, *indices)
                probe = {"extended": True} if min(indices) < 0 else {}
                report = verify(unit, *indices, **probe, ev=both)
                assert report.lhs == identities._value(lhs), report.case
                sides = [printed] if corrected is None else [printed, corrected]
                assert [v.value for v in report.variants] == list(map(identities._value, sides))
                assert report.variants[-1].label == ("printed" if corrected is None else label)
                checked += 1
        assert checked == case_count(SMALL_GRID, suite)


def _suite_cases(p, q, a, b, k, j):
    """(report, Σ ± products) for every suite at one random point.

    k and j are any integers; catalan, cassini, docagne and
    lucas-fib-exchange take them as given (extended negatives included),
    the others at the nearest indices in their domain.
    """
    ctx = ctx_for(p, q, a, b)
    seed, fib, luc = (a, b), (0, 1), (2, p)
    n, m = sorted((abs(k), abs(j)))

    def commutator(x, y):
        return [(+1, x, y), (-1, y, x)]

    return [
        (catalan(ctx, k, j, extended=True),
         [(+1, (seed, k), (seed, k)), (-1, (seed, k + j), (seed, k - j))]),
        (cassini(ctx, k, extended=True),
         [(+1, (seed, k), (seed, k)), (-1, (seed, k + 1), (seed, k - 1))]),
        (docagne(ctx, k, j, extended=True),
         [(+1, (seed, k), (seed, j + 1)), (-1, (seed, k + 1), (seed, j))]),
        (adjacent_commutator(ctx, n), commutator((seed, n + 1), (seed, n))),
        (lucas_fib_exchange(fib_params(p, q), k, j, n),
         [(+1, (luc, k + j), (fib, k + n)), (-1, (luc, k + n), (fib, k + j))]),
        (square_difference(fib_params(p, q), n),
         [(+1, (luc, n), (luc, n)), (-1, (fib, n), (fib, n))]),
        (horadam_commutator(ctx, n, m), commutator((fib, n), (seed, m))),
        (diag_commutator(ctx, m), commutator((fib, m), (seed, m))),
    ]


def _int_exactly_when_integral(z: HybridNumber) -> bool:
    return all((type(c) is int) == (Fraction(c).denominator == 1) for c in z)


class TestIntegerNumeratorPath:
    """The sides are evaluated as integer numerators over one denominator;
    what a report shows must still be the exact reduced hybrid."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SMALL_PQ),
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.integers(-8, 12),
        st.integers(-8, 12),
    )
    def test_reports_match_the_fraction_reference(self, pq, a, b, k, j):
        p, q = pq
        for report, pairs in _suite_cases(p, q, a, b, k, j):
            assert report.lhs == lhs_oracle(p, q, a, b, pairs), report.case
            assert _int_exactly_when_integral(report.lhs), report.case
            for variant in report.variants:
                assert variant.passed == (variant.value == report.lhs), report.case
                assert _int_exactly_when_integral(variant.value), report.case
            if not report.case.extended:
                assert report.authoritative_passed, report.case


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_is_restored(self, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            run_suite(SMALL_GRID, "cassini")
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_paused_while_running_and_restored_on_error(self, monkeypatch):
        seen = []

        def failing(*args, **kwargs):
            seen.append(gc.isenabled())
            raise ArithmeticError("planted")

        monkeypatch.setattr(identities, "adjacent_commutator", failing)
        assert gc.isenabled()
        with pytest.raises(ArithmeticError):
            run_suite(SMALL_GRID, "adjacent-commutator")
        assert seen == [False]
        assert gc.isenabled()


class TestCaseCount:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=1, max_size=2, unique=True),
        st.integers(0, 4),
        st.integers(0, 3),
        st.sampled_from(("all", *identities.SUITES)),
    )
    def test_count_matches_the_run(self, ps, qs, nmax, rmax, suite):
        config = GridConfig(ps=tuple(ps), qs=tuple(qs), ab=((0, 1), (2, "p"), (1, 1)),
                            nmax=nmax, rmax=rmax)
        run = run_suite(config, suite, sink=lambda report: None)
        assert case_count(config, suite) == run.cases
        assert case_count(config, suite, gated=True) == run.cases - run.extended_cases

    def test_default_grid(self):
        assert case_count(DEFAULT_GRID) == 17530

    def test_huge_grid_counted_without_iterating(self):
        config = GridConfig(ps=(1,), qs=(1,), ab=((0, 1),), nmax=10**7, rmax=2)
        start = time.perf_counter()
        assert case_count(config, "catalan") == 3 * 10**7 + 15
        assert case_count(config) == 18 * 10**7 + 52 + (10**7 + 1) * (10**7 + 2) // 2
        assert time.perf_counter() - start < 1.0

    def test_unknown_suite_rejected(self):
        with pytest.raises(GridConfigError):
            case_count(DEFAULT_GRID, "fermat")
