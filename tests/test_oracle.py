"""Brute-force oracles: enumeration, sampling, tracing, polynomial systems."""

import functools
import itertools
import random

import pytest

from axkatz import (
    INF,
    NEG_INF,
    AbelianShape,
    ConsistencyError,
    Degree,
    FiniteMap,
    PolySystem,
    ResourceLimitError,
    binomial_column_sums,
    brute_max_degree,
    brute_min_valuation,
    brute_objective_minimum,
    enumerate_elements,
    functional_degree,
    functions_by_degree,
    make_partition,
    make_targets,
    objective_box,
    poly_zero_count,
    sample_bounded_map,
    verify_bound,
    zero_count,
    zero_count_trace,
)
from axkatz import calculus, oracle

Z2 = AbelianShape((2,))
Z4 = AbelianShape((4,))
Z42 = AbelianShape((4, 2))


def test_binomial_column_sums_routes_agree():
    for limit in (1, 2, 5, 27, 64, 125, 128):
        assert binomial_column_sums(limit, direct=True) == binomial_column_sums(
            limit, direct=False
        )


def test_binomial_column_sums_values():
    assert binomial_column_sums(4) == [4, 6, 4, 1]
    # The n-th column over [0, 9) sums to C(9, n + 1).
    import math

    assert binomial_column_sums(9) == [math.comb(9, n + 1) for n in range(9)]


def test_functions_by_degree_buckets():
    buckets = functions_by_degree(Z2, Z2)
    sizes = {key: len(maps) for key, maps in buckets.items()}
    assert sizes == {NEG_INF: 1, Degree.of(0): 1, Degree.of(1): 2}
    assert sum(sizes.values()) == 4

    bigger = functions_by_degree(Z4, Z2)
    assert sum(len(v) for v in bigger.values()) == 16
    assert max(k for k in bigger if k.is_finite) == 3

    with pytest.raises(ResourceLimitError):
        functions_by_degree(Z42, Z4, cap=100)
    with pytest.raises(ResourceLimitError, match="exceed the exhaustive cap 100"):
        functions_by_degree(Z42, Z4, cap=100, max_degree=1)
    with pytest.raises(ValueError):
        functions_by_degree(AbelianShape((6,)), Z2, max_degree=1)


@functools.cache
def _all_buckets(domain, codomain):
    buckets = {}
    for values in itertools.product(enumerate_elements(codomain), repeat=domain.order):
        f = FiniteMap(domain, codomain, values)
        buckets.setdefault(functional_degree(f), []).append(f)
    return buckets


def _reference_buckets(domain, codomain, max_degree=None):
    """The brute-force bucketing: every table, its exact degree, then the filter."""
    return {
        degree: fs
        for degree, fs in _all_buckets(domain, codomain).items()
        if max_degree is None or degree <= max_degree
    }


# The criterion-3 pairs, then codomains that are not cyclic or not of prime order.
JOIN_PAIRS = [
    ((4,), (2,)),
    ((2, 2), (2,)),
    ((4, 2), (2,)),
    ((4,), (4,)),
    ((9,), (3,)),
    ((3,), (9,)),
    ((2, 2, 2), (2,)),
    ((3, 3), (3,)),
    ((4,), (2, 2)),
    ((2, 2), (2, 4)),
    ((2,), (8,)),
]


@pytest.mark.parametrize("dom, cod", JOIN_PAIRS)
def test_join_matches_brute_force_bucketing(dom, cod):
    domain, codomain = AbelianShape(dom), AbelianShape(cod)
    top = max(degree for degree in _all_buckets(domain, codomain) if degree.is_finite).value
    for d in range(top + 2):
        expected = _reference_buckets(domain, codomain, d)
        got = functions_by_degree(domain, codomain, max_degree=d)
        assert list(got) == list(expected), d
        assert got == expected, d


# The criterion-7 instances and the tiny exhaustive shapes of the benchmark.
VERIFY_INSTANCES = [
    (2, [2, 1], [((2,), 1)]),
    (2, [1, 1, 1], [((2,), 2)]),
    (3, [2], [((3,), 1)]),
    (2, [3], [((2,), 1)]),
    (2, [2], [((4,), 1)]),
    (2, [2, 1], [((2,), 2)]),
    (2, [2, 1], [((2,), 3)]),
    (2, [1, 1], [((2,), 1)]),
    (2, [1, 1], [((2,), 2)]),
    (2, [2], [((2,), 1), ((2,), 1)]),
    (3, [1], [((3,), 1), ((3,), 2)]),
    (3, [1], [((3,), 2), ((3,), 2)]),
    (5, [1], [((5,), 1)]),
    (5, [1], [((5,), 2)]),
    (5, [1], [((5,), 3)]),
    (5, [1], [((5,), 4)]),
]


def test_verify_bound_agrees_with_brute_force_bucketing(monkeypatch):
    def run():
        return [
            verify_bound(p, make_partition(parts), [(AbelianShape(c), d) for c, d in targets])
            .to_json_dict()
            for p, parts, targets in VERIFY_INSTANCES
        ]

    joined = run()
    monkeypatch.setattr(
        oracle,
        "functions_by_degree",
        lambda domain, codomain, cap=2**20, max_degree=None: _reference_buckets(
            domain, codomain, max_degree
        ),
    )
    assert run() == joined


def test_basis_past_the_degree_cap_raises(monkeypatch):
    calculus.unit_coefficients.cache_clear()
    # Claim a degree cap of 1 on the real Z/4 -> Z/2 box (widths (4,)).
    monkeypatch.setattr(calculus, "_p_pair_data", lambda domain, codomain: ((4,), 1))
    with pytest.raises(ConsistencyError) as info:
        functions_by_degree(Z4, Z2, max_degree=1)
    assert info.value.instance == {"domain": (4,), "codomain": (2,), "cap": 1, "order": 3}
    monkeypatch.undo()
    calculus.unit_coefficients.cache_clear()
    assert len(functions_by_degree(Z4, Z2, max_degree=1)[Degree.of(1)]) == 2


def test_join_degree_cross_check_replays(monkeypatch):
    # A degree oracle that reads one more than the truth makes the join's
    # cross-check fire; its instance rebuilds the same call.
    real = oracle.functional_degree
    monkeypatch.setattr(oracle, "functional_degree", lambda f: real(f) + 1)
    with pytest.raises(ConsistencyError) as info:
        functions_by_degree(Z42, Z2, max_degree=2)
    instance = info.value.instance
    assert instance == {"domain": (4, 2), "codomain": (2,), "max_degree": 2, "order": 3}
    with pytest.raises(ConsistencyError) as again:
        functions_by_degree(
            AbelianShape(instance["domain"]),
            AbelianShape(instance["codomain"]),
            max_degree=instance["max_degree"],
        )
    assert again.value.instance == instance


def test_brute_max_degree_small_pairs():
    assert brute_max_degree(Z4, Z2) == 3
    assert brute_max_degree(AbelianShape((2, 2)), Z2) == 2
    with pytest.raises(ValueError):
        brute_max_degree(AbelianShape((6,)), Z2)


def test_brute_min_valuation_fixtures():
    alpha = make_partition([2, 1])
    assert brute_min_valuation(2, alpha, 1) == 2
    assert brute_min_valuation(2, alpha, 0) == 3
    assert brute_min_valuation(2, make_partition([6, 5, 3, 1]), 18) == 6


def test_objective_box():
    targets = make_targets(2, [(1, 1)])
    assert objective_box(targets, 3) == (3,)
    two = make_targets(3, [(2, 1), (1, 2)])
    assert objective_box(two, 2) == (8 + 6, 2 + 2)


def test_brute_objective_minimum_fixtures():
    alpha = make_partition([2, 1])
    targets = make_targets(2, [(1, 1)])
    minimum, argmin = brute_objective_minimum(alpha, targets, 3)
    assert minimum == 2 and argmin in ((1,), (2,))
    flat, _ = brute_objective_minimum(make_partition([1, 1]), make_targets(2, [(1, 2)]), 2)
    assert flat == 0
    a, _ = brute_objective_minimum(alpha, targets, 3)
    b, _ = brute_objective_minimum(alpha, targets, 4)
    assert a == b
    with pytest.raises(ResourceLimitError):
        brute_objective_minimum(alpha, make_targets(2, [(2, 3)]), 50, limit=10)


def test_verify_bound_exhaustive_fixture():
    report = verify_bound(2, make_partition([2, 1]), [(Z2, 1)])
    assert report.bound == 2
    assert report.passed and not report.vacuous
    assert report.objective_match
    assert report.systems_tested == 6
    assert report.min_ord == 2
    assert sum(1 for v in report.witness[0] if v == (0,)) == 4


def test_verify_bound_sampled_deterministic():
    first = verify_bound(2, make_partition([2, 1]), [(Z4, 2)], mode="sampled", seed=42, samples=6)
    second = verify_bound(2, make_partition([2, 1]), [(Z4, 2)], mode="sampled", seed=42, samples=6)
    assert first.passed and second.passed
    assert first.to_json_dict() == second.to_json_dict()
    other = verify_bound(2, make_partition([2, 1]), [(Z4, 2)], mode="sampled", seed=43, samples=6)
    assert other.passed


def test_verify_bound_non_cyclic_target():
    report = verify_bound(2, make_partition([1]), [(AbelianShape((2, 2)), 1)])
    assert report.bound == 0
    assert report.passed and not report.vacuous
    assert report.instance["targets"] == [[[2, 2], 1]]


def test_sample_bounded_map_properties():
    rng = random.Random(77)
    for domain, codomain, cap in [(Z42, Z4, 2), (AbelianShape((9,)), AbelianShape((3,)), 1)]:
        for _ in range(8):
            f = sample_bounded_map(domain, codomain, cap, rng)
            degree = functional_degree(f)
            assert degree.is_finite and 1 <= degree.value <= cap


def test_zero_count_trace_fixtures():
    zero_map = FiniteMap(Z2, Z2, ((0,), (0,)))
    trace = zero_count_trace([zero_map], beta=2)
    assert (trace.count, trace.count_ord) == (2, 1)
    assert trace.integral_ord == 1

    parity = FiniteMap.from_callable(Z4, Z2, lambda x: (x[0] % 2,))
    trace2 = zero_count_trace([parity], beta=2)
    assert (trace2.count, trace2.count_ord, trace2.integral_ord) == (2, 1, 1)
    assert trace2.floors_ok

    never = FiniteMap(Z4, Z2, ((1,),) * 4)
    with pytest.raises(ValueError):
        zero_count_trace([never])
    with pytest.raises(ValueError):
        zero_count_trace([parity], beta=1)


def test_zero_count_trace_random_systems():
    rng = random.Random(123)
    traced = 0
    while traced < 8:
        f = sample_bounded_map(Z42, Z4, 2, rng)
        g = sample_bounded_map(Z42, Z2, 1, rng)
        count, _ = zero_count([f, g])
        if count == 0:
            continue
        trace = zero_count_trace([f, g])
        assert trace.integral_ord == trace.count_ord
        assert trace.floors_ok
        traced += 1


def test_poly_zero_count_fixtures():
    hyper = PolySystem(2, 3, (((1, (1, 1, 0)), (1, (0, 0, 1))),), (2,))
    count, ords = poly_zero_count(hyper)
    assert count == 4 and ords[2] == 2

    sharp = PolySystem(2, 2, (((1, (1, 1)),),), (2,))
    count, ords = poly_zero_count(sharp)
    assert count == 3 and ords[2] == 0

    empty = PolySystem(6, 2, ((), ()), (1, 1))
    count, ords = poly_zero_count(empty)
    assert count == 36 and ords[2] == 2 and ords[3] == 2

    constant = PolySystem(4, 1, (((3, (0,)),),), (1,))
    count, ords = poly_zero_count(constant)
    assert count == 0 and ords[2] == INF


def test_poly_system_validation():
    with pytest.raises(ValueError):
        PolySystem(2, 2, (((1, (2, 1)),),), (1,))  # degree 3 exceeds declared 1
    with pytest.raises(ValueError):
        PolySystem(1, 2, ((),), (1,))
    # A monomial whose coefficient dies mod m may exceed the declared degree.
    PolySystem(2, 2, (((2, (5, 5)), (1, (1, 0))),), (1,))


def test_poly_zero_count_json_roundtrip():
    system = PolySystem(12, 2, (((5, (1, 1)), (7, (0, 1))),), (2,))
    rebuilt = PolySystem.from_json_dict(system.to_json_dict())
    assert rebuilt == system
    count, ords = poly_zero_count(system)
    assert count == poly_zero_count(rebuilt)[0]
