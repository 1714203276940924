"""Exact-arithmetic toolkit for the combinatorics of rational Cherednik
algebras of type G(r,1,n): generalized Jack polynomial spectra and norms,
the aspherical hyperplane arrangement, orderings on r-partitions, and a
brute-force standard-module oracle certifying the closed formulas."""

from .combinatorics import (
    BoxRef,
    Comparison,
    MultiPartition,
    ShapeAssignment,
    StandardTableau,
    as_partition,
    assignment_pair,
    composition_compare,
    conjugate,
    dominance_compare,
    dominance_via_contents,
    enumerate_multipartitions,
    enumerate_syt,
    parse_multipartition,
    shape_assignment,
    sorting_data,
)
from .scalars import (
    AffineForm,
    FactoredScalar,
    ParameterPoint,
    PoleError,
    convert_parameters,
    parse_rational,
    pochhammer,
    proportional,
)
from .norms import (
    SpectralDatum,
    extra_product,
    hook_product,
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    pochhammer_products,
    removal_correction,
    spectrum,
    symmetric_norm,
)
from .aspherical import (
    Hyperplane,
    LinearCharacter,
    factor_cover_check,
    hyperplanes_rectangle,
    hyperplanes_rpn,
    hyperplanes_sqrt,
    hyperplanes_twisted,
    is_aspherical,
)
from .orders import (
    BetaSet,
    OrderContext,
    assemble,
    beta_numbers,
    counting_identity_check,
    disassemble,
    equiv_c,
    geq_c,
    geq_c_quotient,
    linkage_matching,
)
from .oracle import (
    EigenvalueCollision,
    StandardModule,
    ZeroGapError,
    build_irrep,
    symmetrizer_identity_check,
)

__version__ = "0.1.0"
