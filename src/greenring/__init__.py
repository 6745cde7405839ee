"""Exact arithmetic in the Green ring of a cyclic p-group.

Provides the integral representation ring on the indecomposable basis
V_1..V_{p^nu} with multiplication from closed-form basis products, Adams
operations for exponents coprime to p, exterior and symmetric powers in
degree < p, and an independent matrix oracle over GF(p) that realizes
genuine modules and decomposes tensor / exterior / symmetric powers, the
ground truth that the matrix-free layers are checked against.
"""

from .adams import (
    ShapeClause,
    ShapeVerdict,
    adams,
    adams_basis,
    adams_on_generator,
    adams_table,
    clear_cache,
    fold_exponent,
    shape_check,
    spread,
)
from .core import (
    GreenElement,
    RingContext,
    basis_element,
    congruent_mod_regular,
    dim,
    format_element,
    from_dict,
    heller,
    multiply,
    one,
    parse_element,
    ring_generator,
    scale,
    to_dict,
    zero,
)
from .errors import (
    ContextMismatchError,
    DivisibilityError,
    GreenRingError,
    IndexRangeError,
    InvalidModuleError,
    OracleCapacityError,
    ParseError,
    SettingError,
    SupportError,
)
from .oracle import (
    DecompositionReport,
    JordanModule,
    decompose,
    pair_product,
    realize,
    sym,
    sym_decomposition,
    tensor,
    wedge,
    wedge_decomposition,
)
from .polynomials import IntPolynomial, dickson_first, dickson_second
from .powers import (
    PowerSequence,
    ReciprocityVerdict,
    adams_from_exterior_sequence,
    exterior_power,
    exterior_sequence,
    gow_laffey_check,
    symmetric_power,
    symmetric_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "GreenElement",
    "RingContext",
    "IntPolynomial",
    "JordanModule",
    "DecompositionReport",
    "PowerSequence",
    "ReciprocityVerdict",
    "ShapeClause",
    "ShapeVerdict",
    "adams",
    "adams_basis",
    "adams_from_exterior_sequence",
    "adams_on_generator",
    "adams_table",
    "basis_element",
    "clear_cache",
    "congruent_mod_regular",
    "decompose",
    "dickson_first",
    "dickson_second",
    "dim",
    "exterior_power",
    "exterior_sequence",
    "fold_exponent",
    "format_element",
    "from_dict",
    "gow_laffey_check",
    "heller",
    "multiply",
    "one",
    "pair_product",
    "parse_element",
    "realize",
    "ring_generator",
    "scale",
    "shape_check",
    "spread",
    "sym",
    "sym_decomposition",
    "symmetric_power",
    "symmetric_sequence",
    "tensor",
    "to_dict",
    "wedge",
    "wedge_decomposition",
    "zero",
    "GreenRingError",
    "ContextMismatchError",
    "DivisibilityError",
    "IndexRangeError",
    "InvalidModuleError",
    "OracleCapacityError",
    "ParseError",
    "SettingError",
    "SupportError",
]
