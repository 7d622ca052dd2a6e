"""Exact intersection numbers for Grassmannian Schubert problems.

Two independent computations of every number: a combinatorial rule that
counts chains of shapes with Littlewood-Richardson fillings inside a
staircase region, and a Schubert-polynomial oracle that pairs the
problem's product with a block-staircase monomial and reads the point
class off by divided differences.  The command-line front end compares
them on demand.
"""

from .partitions import (
    Shape,
    Staircase,
    conjugate,
    contains,
    normalize_partition,
    partitions_in_box,
)
from .tableaux import (
    SkewShape,
    SkewTableau,
    count_lr_tableaux,
    dominance_zero,
    enumerate_lr_tableaux,
    is_ballot,
    is_lr_tableau,
)
from .permutations import (
    ValleyPermutation,
    descent_set,
    grassmannian_permutation,
    longest_with_descents_in,
    shape_of_grassmannian,
    valley_from_permutation,
    valley_from_shape,
)
from .problems import (
    DimensionMismatchError,
    ProblemError,
    SchubertProblem,
    dimension,
    refine_problem,
    refine_to_full,
    validate_problem,
)
from .filtered import (
    FilteredTableau,
    count_filtered_tableaux,
    count_monk_chains,
    enumerate_filtered_tableaux,
    intersection_number,
    valley_coefficient,
)
from .polynomials import IntPolynomial
from .oracle import (
    a_bruhat_leq,
    coefficient_identity_check,
    descent_support_check,
    iterate_monk,
    monk_multiply,
    oracle_coefficient,
    oracle_intersection_number,
    restrict_shape,
    schubert_expand,
    schubert_polynomial,
    staircase_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "Shape", "Staircase", "conjugate", "contains", "normalize_partition",
    "partitions_in_box",
    "SkewShape", "SkewTableau", "count_lr_tableaux", "dominance_zero",
    "enumerate_lr_tableaux", "is_ballot", "is_lr_tableau",
    "ValleyPermutation", "descent_set", "grassmannian_permutation",
    "longest_with_descents_in", "shape_of_grassmannian",
    "valley_from_permutation", "valley_from_shape",
    "DimensionMismatchError", "ProblemError", "SchubertProblem", "dimension",
    "refine_problem", "refine_to_full", "validate_problem",
    "FilteredTableau", "count_filtered_tableaux", "count_monk_chains",
    "enumerate_filtered_tableaux", "intersection_number", "valley_coefficient",
    "IntPolynomial",
    "a_bruhat_leq", "coefficient_identity_check", "descent_support_check",
    "iterate_monk", "monk_multiply", "oracle_coefficient",
    "oracle_intersection_number", "restrict_shape", "schubert_expand",
    "schubert_polynomial", "staircase_coefficient",
]
