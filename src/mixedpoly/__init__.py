"""Exact arithmetic for higher-order and mixed-type special polynomial
families: truncated series engine, identity verification, p-adic integral
approximants, and a generating-function expression language.
"""

__version__ = "0.1.0"

from .series import (
    CompositionError,
    DivisionError,
    SeriesError,
    TSeries,
    TruncationError,
    XPoly,
    falling_factorial,
)
from .families import (
    FamilyKind,
    FamilySpec,
    PolyTable,
    family_gf,
    family_numbers,
    family_oracle,
    family_poly,
    gf_rows,
    poly_table,
    stirling1,
    stirling2,
)
from .mixed import (
    IDENTITY_IDS,
    IdentityInstance,
    IdentityReport,
    MixedKind,
    MixedSpec,
    Variant,
    adjudicate_variant,
    mixed_gf,
    mixed_poly,
    verify_identity,
)
from .padic import (
    BinomialBasis,
    BudgetExceededError,
    IntegralKind,
    PAdicContext,
    ValuationTrace,
    convergence_trace,
    finite_integral,
    multifold_integral,
    shift_residual,
    vp,
)
from .dsl import (
    DslError,
    LexError,
    ParseError,
    SemanticError,
    SemanticReason,
    eval_series,
    eval_text,
    parse,
    parse_text,
    render,
    tokenize,
)

__all__ = [
    "__version__",
    # series
    "CompositionError",
    "DivisionError",
    "SeriesError",
    "TSeries",
    "TruncationError",
    "XPoly",
    "falling_factorial",
    # families
    "FamilyKind",
    "FamilySpec",
    "PolyTable",
    "family_gf",
    "family_numbers",
    "family_oracle",
    "family_poly",
    "gf_rows",
    "poly_table",
    "stirling1",
    "stirling2",
    # mixed
    "IDENTITY_IDS",
    "IdentityInstance",
    "IdentityReport",
    "MixedKind",
    "MixedSpec",
    "Variant",
    "adjudicate_variant",
    "mixed_gf",
    "mixed_poly",
    "verify_identity",
    # padic
    "BinomialBasis",
    "BudgetExceededError",
    "IntegralKind",
    "PAdicContext",
    "ValuationTrace",
    "convergence_trace",
    "finite_integral",
    "multifold_integral",
    "shift_residual",
    "vp",
    # dsl
    "DslError",
    "LexError",
    "ParseError",
    "SemanticError",
    "SemanticReason",
    "eval_series",
    "eval_text",
    "parse",
    "parse_text",
    "render",
    "tokenize",
]
