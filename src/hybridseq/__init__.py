"""Exact arithmetic for hybrid numbers and their Fibonacci-type sequences.

The ring adjoins three units to the rationals — imaginary i (i² = −1),
dual ε (ε² = 0) and hyperbolic h (h² = 1) — glued together by
i·h = −h·i = ε + i.  On top of it the package provides (p,q)-Fibonacci,
(p,q)-Lucas and seed-generalized (Horadam) sequences with hybrid values,
a closed-form evaluator over the quadratic extension ring Q[s]/(s²−D),
a generating-function expansion, and a grid verifier that recomputes both
sides of every product identity through independent code paths.
"""

import importlib

__version__ = "0.1.0"

# The identity suites, in run order.  Defined here so that the CLI can list
# them without importing the verifier.
SUITES = (
    "catalan",
    "cassini",
    "docagne",
    "adjacent-commutator",
    "lucas-fib-exchange",
    "square-difference",
    "horadam-commutator",
    "diag-commutator",
)

# Public name -> defining submodule.  Names resolve on first access
# (PEP 562), so importing the package loads none of the submodules.
_EXPORTS = {
    **dict.fromkeys(
        ("BinetContext", "LemmaMismatchError", "alphabar_squared", "betabar_squared",
         "binet_fib", "binet_horadam", "binet_lucas", "make_context",
         "product_alphabar_betabar", "product_betabar_alphabar"),
        "binet",
    ),
    **dict.fromkeys(
        ("IrrationalResidueError", "QuadExt", "Rational", "format_rational",
         "parse_rational", "roots"),
        "exactarith",
    ),
    **dict.fromkeys(
        ("ExpansionReport", "SeriesExpansion", "binomial_series_coeff", "check_expansion",
         "expand"),
        "genfunc",
    ),
    **dict.fromkeys(
        ("BASIS", "BASIS_LABELS", "HybridNorm", "HybridNumber", "basis_table", "commutator",
         "format_basis_product"),
        "hybrid",
    ),
    **dict.fromkeys(
        ("DEFAULT_GRID", "GridConfig", "GridConfigError", "IdentityCase", "SuiteResult",
         "VariantResult", "VerificationReport", "adjacent_commutator", "cassini", "catalan",
         "diag_commutator", "docagne", "grid_param_sets", "horadam_commutator",
         "lucas_fib_exchange", "parse_grid_file", "parse_grid_text", "run_suite",
         "square_difference"),
        "identities",
    ),
    **dict.fromkeys(
        ("HoradamParams", "ScalarIdentityReport", "SeqCache", "fib", "fib_params", "horadam",
         "horadam_fast", "hybrid_seq", "lucas", "lucas_params", "verify_scalar_identities"),
        "sequences",
    ),
}

__all__ = sorted(["SUITES", *_EXPORTS])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
