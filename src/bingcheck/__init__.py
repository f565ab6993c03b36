"""Exact knot-concordance obstruction computations.

Everything here runs in exact arithmetic (rationals, Laurent polynomials,
cyclotomic fields); no floating point enters any computation.  The headline
pipeline takes a Seifert matrix and decides whether the standard necessary
conditions for algebraic sliceness fail, which in turn obstructs topological
sliceness of the knot's Bing double.

Quick tour::

    >>> from bingcheck import catalog_lookup, obstruction_battery
    >>> report = obstruction_battery(catalog_lookup("trefoil").seifert)
    >>> report.verdict, report.certificate
    ('NOT_ALG_SLICE', 'fox_milnor')
"""

from . import errors
from .laurent import Fraction, LaurentPoly, T, as_fraction, parse_poly
from .intpoly import IntPoly, cyclotomic, sturm_isolate
from .factor import factor_rational
from .matrices import ExactMatrix
from .fields import (
    cayley_point,
    evaluated_hermitian_signature,
    rank_over_factor,
    root_of_unity,
)
from .sigfunc import SignatureFunction, signature_function_of_matrix
from .seifert import (
    SeifertMatrix,
    alexander,
    arf,
    connected_sum,
    determinant_invariant,
    fox_milnor,
    mirror,
    signature_at,
    signature_function,
)
from .cover import (
    branched_cover_homology_order,
    covering_seifert_matrix,
)
from .witt import (
    NO_OBSTRUCTION_FOUND,
    NOT_ALG_SLICE,
    BingReport,
    ObstructionReport,
    WittPresentation,
    bing_double_verdict,
    cyclotomic_factors,
    from_seifert,
    jpq_presentation,
    obstruction_battery,
    phi,
    presentation_battery,
    witt_sum,
)
from .catalog import (
    CatalogEntry,
    builtin_catalog,
    catalog_lookup,
    format_report,
    parse_seifert,
    print_seifert,
)

__version__ = "0.1.0"

__all__ = [
    "Fraction", "LaurentPoly", "T", "as_fraction", "parse_poly",
    "IntPoly", "cyclotomic", "sturm_isolate",
    "factor_rational", "ExactMatrix", "cayley_point",
    "evaluated_hermitian_signature", "rank_over_factor", "root_of_unity",
    "SignatureFunction", "signature_function_of_matrix",
    "SeifertMatrix", "alexander", "arf", "connected_sum",
    "determinant_invariant", "fox_milnor", "mirror", "signature_at",
    "signature_function", "branched_cover_homology_order",
    "covering_seifert_matrix",
    "NO_OBSTRUCTION_FOUND", "NOT_ALG_SLICE", "BingReport",
    "ObstructionReport", "WittPresentation", "bing_double_verdict",
    "cyclotomic_factors", "from_seifert", "jpq_presentation",
    "obstruction_battery", "phi", "presentation_battery", "witt_sum",
    "CatalogEntry", "builtin_catalog", "catalog_lookup", "format_report",
    "parse_seifert", "print_seifert",
    "errors", "__version__",
]
