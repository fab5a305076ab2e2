"""Tests for the package surface: lazy exports, per-command import footprint,
and the value semantics of the immutable record types."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridseq
from hybridseq import (
    GridConfig,
    GridConfigError,
    HoradamParams,
    HybridNumber,
    LemmaMismatchError,
    SuiteResult,
    cassini,
    check_expansion,
    expand,
    fib_params,
    make_context,
    product_alphabar_betabar,
    run_suite,
    verify_scalar_identities,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Where each public name is defined, written out independently of the
# package's own export map.
DEFINED_IN = {
    "binet": (
        "BinetContext", "LemmaMismatchError", "alphabar_squared", "betabar_squared",
        "binet_fib", "binet_horadam", "binet_lucas", "make_context",
        "product_alphabar_betabar", "product_betabar_alphabar",
    ),
    "exactarith": (
        "IrrationalResidueError", "QuadExt", "Rational", "format_rational", "parse_rational",
        "roots",
    ),
    "genfunc": (
        "ExpansionReport", "SeriesExpansion", "binomial_series_coeff", "check_expansion",
        "expand",
    ),
    "hybrid": (
        "BASIS", "BASIS_LABELS", "HybridNorm", "HybridNumber", "basis_table", "commutator",
        "format_basis_product",
    ),
    "identities": (
        "DEFAULT_GRID", "SUITES", "GridConfig", "GridConfigError", "IdentityCase",
        "SuiteResult", "VariantResult", "VerificationReport", "adjacent_commutator", "cassini",
        "catalan", "diag_commutator", "docagne", "grid_param_sets", "horadam_commutator",
        "lucas_fib_exchange", "parse_grid_file", "parse_grid_text", "run_suite",
        "square_difference",
    ),
    "sequences": (
        "HoradamParams", "ScalarIdentityReport", "SeqCache", "fib", "fib_params", "horadam",
        "horadam_fast", "hybrid_seq", "lucas", "lucas_params", "verify_scalar_identities",
    ),
}


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )


class TestLazyExports:
    def test_all_lists_exactly_the_public_names(self):
        expected = {name for names in DEFINED_IN.values() for name in names}
        assert sorted(hybridseq.__all__) == sorted(expected)

    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in DEFINED_IN.items() for n in names]
    )
    def test_name_resolves_to_defining_module_object(self, module, name):
        defining = importlib.import_module(f"hybridseq.{module}")
        assert getattr(hybridseq, name) is getattr(defining, name)

    def test_dir_covers_all(self):
        assert set(hybridseq.__all__) <= set(dir(hybridseq))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hybridseq.no_such_name  # noqa: B018
        assert not hasattr(hybridseq, "no_such_name")
        with pytest.raises(ImportError):
            exec("from hybridseq import no_such_name", {})

    def test_star_import(self):
        namespace: dict = {}
        exec("from hybridseq import *", namespace)
        assert set(hybridseq.__all__) <= set(namespace)
        assert namespace["HybridNumber"] is HybridNumber

    def test_import_loads_no_submodule(self):
        proc = _python(
            "import sys, hybridseq\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('hybridseq'))))"
        )
        assert proc.stdout.split() == ["hybridseq"]


# Each command runs in a fresh interpreter; the last stdout line lists
# every module loaded by the time the command returned.
_FOOTPRINT = (
    "import sys\n"
    "from hybridseq.cli import main\n"
    "main(sys.argv[1:])\n"
    "print('\\n' + ' '.join(sorted(sys.modules)))\n"
)
_PARAMS = ("--p", "1", "--q", "1", "--to", "3")
COMMANDS = {
    "table": ("table",),
    "char": ("char", "1,2,3,4"),
    "seq": ("seq", *_PARAMS),
    "binet": ("binet", *_PARAMS),
    "expand": ("expand", "--p", "1", "--q", "1", "--terms", "3"),
    "verify": ("verify", "--suite", "cassini"),
}
HEAVY = {"hybridseq.binet", "hybridseq.genfunc", "hybridseq.identities"}


def _loaded_by(argv: tuple[str, ...]) -> set[str]:
    loaded = set(_python(_FOOTPRINT, *argv).stdout.splitlines()[-1].split())
    assert {"hybridseq.cli", "hybridseq.hybrid"} <= loaded
    return loaded


class TestImportFootprint:
    @pytest.mark.parametrize("command", ["table", "char", "seq"])
    def test_light_commands_skip_closed_forms_and_verifier(self, command):
        assert not _loaded_by(COMMANDS[command]) & HEAVY

    def test_binet_skips_series_and_verifier(self):
        loaded = _loaded_by(COMMANDS["binet"])
        assert "hybridseq.binet" in loaded
        assert not loaded & {"hybridseq.genfunc", "hybridseq.identities"}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_command_adds_dataclasses(self, command, bare_modules):
        if "dataclasses" not in bare_modules:
            assert "dataclasses" not in _loaded_by(COMMANDS[command])


    @pytest.mark.parametrize("command", ["table", "seq", "binet", "expand", "verify"])
    def test_output_commands_skip_json(self, command, bare_modules):
        # their lines come from fixed templates; only char, verify --audit
        # and binet's stderr divergence line serialize with json
        if "json" not in bare_modules:
            assert "json" not in _loaded_by(COMMANDS[command])


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """Modules a bare interpreter has loaded before running any code."""
    return set(_python("import sys; print(' '.join(sys.modules))").stdout.split())


def _records():
    params = HoradamParams(1, 1, 0, 1)
    report = cassini(make_context(params), 2)
    expansion_report = check_expansion(params, 2)
    return {
        "HoradamParams": params,
        "BinetContext": make_context(params),
        "ScalarIdentityReport": verify_scalar_identities(params, 1),
        "SeriesExpansion": expand(params, 2),
        "ExpansionReport": expansion_report,
        "IdentityCase": report.case,
        "VariantResult": report.variants[0],
        "VerificationReport": report,
        "GridConfig": GridConfig(),
        "HybridNumber": HybridNumber(1, 0, 0, 0),
    }


class TestRecordTypes:
    def test_equality_and_hash_are_by_fields(self):
        assert hash(HoradamParams(1, 1, 0, 1)) == hash((1, 1, 0, 1))
        assert HoradamParams(1, 1, 0, 1) == HoradamParams(1, 1, 0, 1)
        assert HoradamParams(1, 1, 0, 1) != HoradamParams(1, 1, 2, 1)
        assert hash(HybridNumber(1, 2, 3, 4)) == hash((1, 2, 3, 4))
        assert hash(GridConfig()) == hash(
            ((1, 2, 3), (-2, -1, 1, 2), ((0, 1), (2, "p"), (1, 1), (2, 3)), 10, 6)
        )
        first, second = _records(), _records()
        for name, value in first.items():
            assert value == second[name], name
            assert hash(value) == hash(second[name]), name

    @pytest.mark.parametrize("name", sorted(_records()))
    def test_fields_are_read_only(self, name):
        record = _records()[name]
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.new_attribute = 1

    def test_repr(self):
        assert repr(HybridNumber(1, 0, 0, 0)) == "HybridNumber(s=1, i=0, e=0, h=0)"
        assert repr(HoradamParams(1, 1, 0, 1)) == "HoradamParams(p=1, q=1, a=0, b=1)"
        assert repr(GridConfig(ps=(1,), qs=(1,), ab=((0, 1),), nmax=2, rmax=1)) == (
            "GridConfig(ps=(1,), qs=(1,), ab=((0, 1),), nmax=2, rmax=1)"
        )

    def test_repr_in_lemma_mismatch_text(self):
        one = HybridNumber(1, 0, 0, 0)
        ctx = make_context(fib_params(1, 1))._replace(alpha_hybrid=one, beta_hybrid=one)
        with pytest.raises(LemmaMismatchError, match=r"HybridNumber\(s=1, i=0, e=0, h=0\)"):
            product_alphabar_betabar(ctx)

    def test_keyword_construction(self):
        params = HoradamParams(p=1, q=1, a=0, b=1)
        assert params == fib_params(1, 1)
        assert (params.p, params.q, params.a, params.b) == (1, 1, 0, 1)
        assert params.discriminant == 5
        grid = GridConfig(nmax=2)
        assert (grid.nmax, grid.rmax, grid.ps) == (2, 6, (1, 2, 3))

    @pytest.mark.parametrize("args", [(1, 0, 0, 1), (2, -1, 0, 1)])
    def test_params_validation(self, args):
        with pytest.raises(ValueError):
            HoradamParams(*args)
        with pytest.raises(ValueError):
            HoradamParams(**dict(zip("pqab", args)))
        with pytest.raises(ValueError):
            fib_params(3, 1)._replace(p=args[0], q=args[1])

    @pytest.mark.parametrize(
        "kwargs", [{"qs": (1, 0)}, {"nmax": -1}, {"rmax": -1}, {"ab": ((0, 1, 2),)},
                   {"ab": (("x", 1),)}]
    )
    def test_grid_validation(self, kwargs):
        with pytest.raises(GridConfigError):
            GridConfig(**kwargs)
        with pytest.raises(GridConfigError):
            GridConfig()._replace(**kwargs)

    def test_suite_result_is_a_plain_accumulator(self):
        result = SuiteResult("cassini")
        assert (result.suite, result.reports, result.cases) == ("cassini", [], 0)
        small = GridConfig(ps=(1,), qs=(1,), ab=((0, 1),), nmax=3, rmax=1)
        run = run_suite(small, "cassini")
        assert run.cases == len(run.reports) == 3 + 5
        assert run.all_authoritative_pass
