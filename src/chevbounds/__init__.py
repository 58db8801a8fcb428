"""Exact combinatorics of root systems with the bound calculators built on it.

The package computes root-system data over the integers and rationals,
weight-size invariants, characters of induced modules, a brute-force
verification oracle for the twist-invariant first page, and every closed-form
vanishing, stability, and comparison threshold, all without floating point.
"""

from .bounds import (
    ComparisonReport,
    StabilityConstants,
    THEOREM_TAGS,
    ThresholdReport,
    bs_vanish_threshold,
    compare_thresholds,
    cpsvdk_thresholds,
    finite_group_vanishing_range,
    g_ext_vanishing_holds,
    generic_thresholds,
    lemma61,
    lemma61_scan,
    prop62_vanishing_holds,
    stability_constants,
)
from . import cli  # noqa: F401  (so that `import chevbounds` loads every module)
from .e1oracle import (
    BoundCheckReport,
    E1Report,
    ExponentTuple,
    InvariantPage,
    VanishReport,
    check_bs_vanishing,
    check_weight_bounds,
    dyadic_sharpness,
    enumerate_tuples,
    invariant_page,
    verify_e1,
)
from .errors import InputError, OracleError, ResourceLimitError
from .modchar import (
    DEFAULT_ENTRY_CAP,
    WeightMultiset,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
    weyl_dimension,
)
from .rootsys import (
    Root,
    RootSystem,
    Weight,
    apply_w0,
    build_root_system,
    dominance_leq,
    dual_weight,
    parse_type,
)
from .weightcomb import (
    BInvariant,
    b_invariant,
    b_of_weight,
    ceil_log,
    floor_log,
    order_in_fundamental_group,
    p_adic_digits,
    structural_constants,
    t_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "BInvariant",
    "BoundCheckReport",
    "ComparisonReport",
    "DEFAULT_ENTRY_CAP",
    "E1Report",
    "ExponentTuple",
    "InputError",
    "InvariantPage",
    "OracleError",
    "ResourceLimitError",
    "Root",
    "RootSystem",
    "StabilityConstants",
    "THEOREM_TAGS",
    "ThresholdReport",
    "VanishReport",
    "Weight",
    "WeightMultiset",
    "apply_w0",
    "b_invariant",
    "b_of_weight",
    "bs_vanish_threshold",
    "build_root_system",
    "ceil_log",
    "check_bs_vanishing",
    "check_weight_bounds",
    "compare_thresholds",
    "cpsvdk_thresholds",
    "dominance_leq",
    "dual_weight",
    "dyadic_sharpness",
    "enumerate_tuples",
    "finite_group_vanishing_range",
    "floor_log",
    "g_ext_vanishing_holds",
    "generic_thresholds",
    "graded_power",
    "invariant_page",
    "lemma61",
    "lemma61_scan",
    "nilradical_dual_weights",
    "order_in_fundamental_group",
    "p_adic_digits",
    "parse_type",
    "prop62_vanishing_holds",
    "stability_constants",
    "structural_constants",
    "t_invariant",
    "verify_e1",
    "weyl_character",
    "weyl_dimension",
]
