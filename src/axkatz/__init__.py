"""p-adic lower bounds for simultaneous zero counts on finite commutative groups.

The package computes the group-theoretic Ax-Katz style lower bound on
ord_p(#Z(f_1, ..., f_r)) for maps between finite commutative p-groups from
the invariant factors and functional-degree caps, implements the underlying
finite-difference calculus and conjugate-partition optimization, and ships
brute-force oracles that verify every closed form at desk scale.

The closed-form layer is imported with the package.  The calculus and oracle
modules are imported together on first use of any of their names, so a
process that only evaluates closed forms never compiles them.
"""

import importlib

from .bounds import (
    BoundReport,
    PrimeBound,
    TargetSpec,
    ValuationMinimum,
    binomial_sum_valuation,
    bound_objective,
    bound_objective_minimum,
    equal_exponent_bound,
    expand_targets,
    make_targets,
    min_valuation,
    min_valuation_equal_exponent,
    multi_prime_bounds,
    polynomial_system_bound,
    product_valuation,
    step_cost_minimum,
    vp_value,
    zero_count_bound,
)
from .degrees import INF, NEG_INF, Degree
from .errors import ConsistencyError, ResourceLimitError, UnsupportedMapError
from .groups import (
    AbelianShape,
    PGroupShape,
    element_at,
    enumerate_elements,
    index_of,
    max_functional_degree,
    primary_decomposition,
)
from .partitions import (
    Partition,
    WeightSequence,
    conjugate,
    conjugation_identity_sides,
    geometric_sum,
    make_partition,
    partition_from_runs,
    truncate,
    weight_sequence,
)

__all__ = [
    "AbelianShape",
    "BinomialSeries",
    "BoundReport",
    "ConsistencyError",
    "Degree",
    "FiniteMap",
    "INF",
    "NEG_INF",
    "PGroupShape",
    "Partition",
    "PolySystem",
    "PrimeBound",
    "ResourceLimitError",
    "TargetSpec",
    "TraceReport",
    "UnsupportedMapError",
    "ValuationMinimum",
    "VerifyReport",
    "WeightSequence",
    "binomial_column_sums",
    "binomial_sum_valuation",
    "bound_objective",
    "bound_objective_minimum",
    "brute_max_degree",
    "brute_min_valuation",
    "brute_objective_minimum",
    "conjugate",
    "coefficient_table",
    "conjugation_identity_sides",
    "degree_generators",
    "difference",
    "element_at",
    "enumerate_elements",
    "equal_exponent_bound",
    "expand_targets",
    "functional_degree",
    "functional_degrees",
    "functions_by_degree",
    "geometric_sum",
    "index_of",
    "integral",
    "iterated_difference",
    "lift_difference_at_zero",
    "lift_difference_box",
    "make_partition",
    "make_targets",
    "max_functional_degree",
    "min_valuation",
    "min_valuation_equal_exponent",
    "multi_prime_bounds",
    "objective_box",
    "partition_from_runs",
    "poly_zero_count",
    "polynomial_system_bound",
    "primary_assemble",
    "primary_decomposition",
    "primary_split",
    "product_valuation",
    "proper_lift",
    "reconstruct",
    "sample_bounded_map",
    "sample_bounded_maps",
    "series_coefficients",
    "step_cost_minimum",
    "tensor_product",
    "truncate",
    "verify_bound",
    "vp_value",
    "weight_sequence",
    "zero_count",
    "zero_count_bound",
    "zero_count_trace",
    "zero_mask",
]

_DEFERRED = ("calculus", "oracle")


def __getattr__(name: str):
    """Import calculus and oracle together and bind their public names.

    Both load on the first access to either, so code that patches the
    loaded modules after that access (as a tracer does) finds both there.
    """
    if name not in _DEFERRED and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module in [importlib.import_module(f"{__name__}.{m}") for m in _DEFERRED]:
        for public in __all__:
            if public not in namespace and hasattr(module, public):
                namespace[public] = getattr(module, public)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
