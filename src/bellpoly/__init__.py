"""Multipartite Bell correlation inequalities for two +-1 observables per site.

Construction and numbering of all 2^(2^n) extremal correlation inequalities,
the classical region and its single nonlinear membership criterion, the
symmetry-group orbit census, CHSH nesting, and maximal quantum violations
with GHZ witnesses.
"""

from .classical import (
    BOUNDARY_TOL,
    CorrelationVector,
    extreme_point,
    l1_margin,
    lp_membership,
    spectrum,
    witness,
)
from .compose import (
    NestingLeaf,
    NestingNode,
    chsh_decompose,
    evaluate_nesting,
    full_nesting,
    substitute,
)
from .inequality import (
    BellTable,
    NotExtremalError,
    SignTable,
    bell_table_from_id,
    coefficients_from_signs,
    evaluate,
    id_to_signs,
    mermin_sign_table,
    parse_polynomial,
    polynomial_string,
    signs_from_coefficients,
    signs_to_id,
)
from .quantum import (
    DensityMatrix,
    ObservableSpec,
    PhaseVector,
    bell_operator_norm_exact,
    extreme_point_q,
    ghz_observables,
    ghz_state,
    max_violation,
    mermin_bound,
    partial_transpose,
    sample_separable,
    simulate_correlations,
)
from .symmetry import (
    GroupElement,
    Orbit,
    apply,
    classify_all,
    group_order,
    orbit_of_id,
)
from .transform import DimensionMismatchError, DyadicVector, walsh_hadamard

__version__ = "0.1.0"
