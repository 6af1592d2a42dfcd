"""Multipartite Bell correlation inequalities for two +-1 observables per site.

Construction and numbering of all 2^(2^n) extremal correlation inequalities,
the classical region and its single nonlinear membership criterion, the
symmetry-group orbit census, CHSH nesting, and maximal quantum violations
with GHZ witnesses.

`import bellpoly` loads only the exact, numpy-free modules: transform,
inequality and compose.  The names of classical, quantum and symmetry, which
compute with numpy arrays, resolve on first access (PEP 562); that access
imports their module, and with it numpy.
"""

from .compose import (
    NestingLeaf, NestingNode, chsh_decompose, evaluate_nesting, full_nesting, substitute,
)
from .inequality import (
    BellTable, NotExtremalError, SignTable, bell_table_from_id, coefficients_from_signs, evaluate,
    id_to_signs, mermin_sign_table, parse_polynomial, polynomial_string, signs_from_coefficients,
    signs_to_id,
)
from .transform import DimensionMismatchError, DyadicVector, walsh_hadamard

__version__ = "0.1.0"

# module -> the public names it gives the package, imported on first access
_DEFERRED = {
    "classical": ("BOUNDARY_TOL", "CorrelationVector", "extreme_point", "l1_margin",
                  "lp_membership", "spectrum", "witness"),
    "quantum": ("DensityMatrix", "ObservableSpec", "PhaseVector", "bell_operator_norm_exact",
                "extreme_point_q", "ghz_observables", "ghz_state", "max_violation", "mermin_bound",
                "partial_transpose", "sample_separable", "simulate_correlations"),
    "symmetry": ("GroupElement", "Orbit", "apply", "classify_all", "group_order", "orbit_of_id"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

# the names bound above (with the submodules compose, inequality, transform) and the deferred ones
__all__ = [name for name in globals() if not name.startswith("_")] + [*_DEFERRED, *_HOME]


def __getattr__(name: str):
    from importlib import import_module

    if name in _DEFERRED:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
