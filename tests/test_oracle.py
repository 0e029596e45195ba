"""Brute-force oracles: enumeration, sampling, tracing, polynomial systems."""

import collections
import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

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
    functional_degrees,
    functions_by_degree,
    make_partition,
    make_targets,
    multi_prime_bounds,
    objective_box,
    poly_zero_count,
    polynomial_system_bound,
    proper_lift,
    reconstruct,
    sample_bounded_map,
    verify_bound,
    zero_count,
    zero_count_trace,
)
from axkatz import bounds, calculus, oracle
from axkatz.intmath import factorize, multiplicity

Z2 = AbelianShape((2,))
Z4 = AbelianShape((4,))
Z42 = AbelianShape((4, 2))


def _with_cap(comp, cap):
    """The Sylow component comp with its degree cap replaced by cap."""
    fields = {name: getattr(comp, name) for name in comp.__match_args__}
    return type(comp)(**{**fields, "cap": cap})


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


@pytest.mark.parametrize("d", [-2, -3, -50])
def test_functions_by_degree_below_minus_one_holds_the_zero_map(d):
    for domain, codomain in [(Z4, Z4), (Z42, Z2), (Z2, AbelianShape((2, 4)))]:
        zero = FiniteMap(domain, codomain, (codomain.zero(),) * domain.order)
        buckets = functions_by_degree(domain, codomain, max_degree=d)
        assert buckets == functions_by_degree(domain, codomain, max_degree=-1)
        assert buckets == {NEG_INF: [zero]}


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
    ((2, 2), (8,)),
    ((4, 2), (4,)),
    ((3,), (27,)),
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
        assert oracle._bounded_map_count(domain, codomain, d) == sum(
            map(len, expected.values())
        ), d


def test_wide_slots_match_brute_force_bucketing():
    # Z/128 needs slots of two bytes in the packed enumeration.
    domain, codomain = AbelianShape((2,)), AbelianShape((128,))
    for d in (1, 3):
        assert functions_by_degree(domain, codomain, max_degree=d) == _reference_buckets(
            domain, codomain, d
        )


@pytest.mark.parametrize("dom, cod", JOIN_PAIRS)
def test_table_set_buckets_match_the_reference_table_for_table(dom, cod):
    # Both ways of building tables (generators combined, and every table at
    # once) against the brute-force bucketing, and the degrees of the
    # decoded tuples against their buckets.
    domain, codomain = AbelianShape(dom), AbelianShape(cod)
    top = max(degree for degree in _all_buckets(domain, codomain) if degree.is_finite).value
    for d in (1, top - 1, None):
        got = functions_by_degree(domain, codomain, max_degree=d)
        expected = _reference_buckets(domain, codomain, d)
        assert list(got) == list(expected), d
        for degree, tables in got.items():
            assert isinstance(tables, calculus.TableSet)
            decoded = [tables.table(i) for i in range(len(tables))]
            assert decoded == [f.values for f in expected[degree]], (d, degree)
            assert functional_degrees(domain, codomain, decoded) == [degree] * len(decoded)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_first_order_reed_muller_words_from_the_literature(m):
    # RM(1, m): the maps (Z/2)^m -> Z/2 of degree <= 1 are the zero map, the
    # constant 1 and 2^(m+1) - 2 affine words, each with 2^(m-1) zeros.  At
    # m = 8 the 256 zero counts need two-byte slots.
    domain = AbelianShape((2,) * m)
    buckets = functions_by_degree(domain, Z2, cap=2 ** 2**m, max_degree=1)
    assert {degree: len(tables) for degree, tables in buckets.items()} == {
        NEG_INF: 1, Degree.of(1): 2 ** (m + 1) - 2, Degree.of(0): 1
    }
    assert buckets[Degree.of(1)].size == (2 if m == 8 else 1)
    zeros = [mask.bit_count() for mask in buckets[Degree.of(1)].zero_masks()]
    assert zeros == [2 ** (m - 1)] * (2 ** (m + 1) - 2)


def test_second_order_reed_muller_weights_from_the_literature():
    # RM(2, 5): the zero counts 32 - weight of its 65,536 words follow the
    # weight distribution of Sloane and Berlekamp (IEEE Trans. IT, 1970).
    buckets = functions_by_degree(AbelianShape((2,) * 5), Z2, cap=2**32, max_degree=2)
    zeros = collections.Counter(
        mask.bit_count() for tables in buckets.values() for mask in tables.zero_masks()
    )
    assert zeros == {0: 1, 8: 620, 12: 13888, 16: 36518, 20: 13888, 24: 620, 32: 1}


# The criterion-7 instances, the tiny exhaustive shapes of the benchmark, and
# the slot cases of the packed tables: two-byte value slots (Z/2 -> Z/128,
# 896 systems) and two codomain slots ((Z/2)^2 -> Z/2 + Z/4, 2040 systems).
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
    (2, [1], [((128,), 3)]),
    (2, [1, 1], [((2, 4), 2)]),
]


def _definition_scan(p, systems, claimed):
    """(min ord, first witness, systems tested, passed) over the systems, each
    zero count written from the definition: the points where every map of
    the system takes the value 0."""
    min_ord, witness, tested = None, None, 0
    for system in systems:
        domain = system[0].domain
        count = sum(
            all(not any(f.values[k]) for f in system) for k in range(domain.order)
        )
        observed = INF if count == 0 else Degree.of(multiplicity(p, count))
        tested += 1
        if min_ord is None or observed < min_ord:
            min_ord, witness = observed, tuple(f.values for f in system)
    passed = min_ord is None or min_ord >= claimed
    return min_ord, witness, tested, passed


def _reference_report(p, parts, targets, mode="exhaustive", seed=None, samples=25):
    """verify_bound's report built from the brute-force bucketing (exhaustive:
    every candidate of degree 1..d, degrees in the order of their first
    tables, then systems in itertools.product order) or from single draws
    (sampled), with every zero count written from the definition."""
    alpha = make_partition(parts)
    shaped = [(AbelianShape(c), d) for c, d in targets]
    domain = AbelianShape(tuple(p**a for a in parts))
    spec = oracle.expand_targets(p, shaped)
    bound = oracle.zero_count_bound(alpha, spec)
    if mode == "exhaustive":
        buckets = [_reference_buckets(domain, shape, d) for shape, d in shaped]
        candidates = [[f for degree, fs in b.items() if degree > 0 for f in fs] for b in buckets]
        systems = itertools.product(*candidates)
    else:
        rng = random.Random(seed)
        candidates = [
            [sample_bounded_map(domain, shape, d, rng) for _ in range(samples)]
            for shape, d in shaped
        ]
        systems = zip(*candidates)
    min_ord, witness, tested, passed = _definition_scan(p, systems, Degree.of(bound.bound))
    return {
        "instance": {"p": p, "alpha": list(parts), "targets": [[list(c), d] for c, d in targets]},
        "bound": bound.bound,
        "min_ord": None if min_ord is None else min_ord.to_json(),
        "witness": [[list(v) for v in table] for table in witness] if witness else None,
        "systems_tested": tested,
        "mode": mode,
        "seed": seed,
        "vacuous": tested == 0,
        "passed": passed,
        "objective_match": oracle.bound_objective_minimum(alpha, spec, (bound.s0 or 0) + 1)
        == bound.bound,
    }


# VERIFY_INSTANCES, then three targets (one bit per table, then bit and byte
# slots in one system layout), and the codomains Z/9 and Z/2 + Z/4.
REFERENCE_INSTANCES = VERIFY_INSTANCES + [
    (2, [1, 1], [((2,), 1)] * 3),
    (2, [2], [((2,), 1), ((4,), 1), ((2,), 2)]),
    (3, [1], [((3,), 1), ((9,), 1), ((3,), 2)]),
    (3, [1], [((9,), 1)]),
    (3, [1], [((9,), 3)]),
    (2, [2], [((2, 4), 1)]),
    (2, [1, 1], [((2, 4), 1), ((2,), 1)]),
]


def test_verify_bound_agrees_with_brute_force_bucketing():
    # Full reports, witness included: the candidate order and the zero counts
    # of the planes scan against the brute-force bucketing and the definition.
    for p, parts, targets in REFERENCE_INSTANCES:
        shaped = [(AbelianShape(c), d) for c, d in targets]
        report = verify_bound(p, make_partition(parts), shaped).to_json_dict()
        assert report == _reference_report(p, parts, targets), (p, parts, targets)
    assert any(len(targets) == 3 for _, _, targets in REFERENCE_INSTANCES)


def test_verify_derives_its_bound_once(monkeypatch):
    # The objective's minimum is the report's raw bound, not a second bound.
    calls = []
    real = oracle.zero_count_bound

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (bounds, oracle):
        monkeypatch.setattr(module, "zero_count_bound", counted)
    reports = {}
    for parts, d in [([2, 1], 1), ([2, 1], 3), ([3], 1)]:
        calls.clear()
        reports[tuple(parts), d] = verify_bound(2, make_partition(parts), [(Z2, d)])
        assert len(calls) == 1
    monkeypatch.undo()
    for (parts, d), report in reports.items():
        assert report.to_json_dict() == _reference_report(2, list(parts), [((2,), d)])


def test_verify_checks_each_target_in_one_batch():
    # Both modes, two targets of different codomains: each target's maps
    # (every qualifying one, then 25 draws) give the reference's reports.
    shaped = [(Z2, 2), (AbelianShape((2, 2)), 1)]
    targets = [((2,), 2), ((2, 2), 1)]
    exhaustive = verify_bound(2, make_partition([2, 1]), shaped)
    sampled = verify_bound(2, make_partition([2, 1]), shaped, mode="sampled", seed=4)
    assert exhaustive.to_json_dict() == _reference_report(2, [2, 1], targets)
    assert sampled.to_json_dict() == _reference_report(2, [2, 1], targets, "sampled", 4)
    domain = AbelianShape((4, 2))
    assert exhaustive.systems_tested == math.prod(
        oracle._bounded_map_count(domain, c, d) - c.order for c, d in shaped
    )


@pytest.mark.parametrize(
    "parts, domain, d",
    [
        # Every table has degree <= 3, and the planes hold them all.
        ([2], Z4, 3),
        # Degree <= 2 leaves some tables out.
        ([2, 1], Z42, 2),
    ],
)
def test_verify_past_a_patched_cap_names_the_first_table_and_replays(monkeypatch, parts, domain, d):
    # Claim a degree cap of 1: verify's recheck of its tables raises for the
    # first one of degree 2 or more in product order, and the instance
    # replays through functional_degree.
    real = calculus._sylow_plan

    def patched(domain, codomain):
        return tuple(_with_cap(comp, 1) for comp in real(domain, codomain))

    for module in (calculus, oracle):
        monkeypatch.setattr(module, "_sylow_plan", patched)
    with pytest.raises(ConsistencyError) as info:
        verify_bound(2, make_partition(parts), [(Z2, d)])
    instance = info.value.instance
    buckets = _reference_buckets(domain, Z2, d)
    first = min(f.values for degree, fs in buckets.items() if degree > 1 for f in fs)
    assert instance == {
        "domain": domain.factors, "codomain": (2,), "cap": 1, "order": instance["order"],
        "values": first,
    }
    with pytest.raises(ConsistencyError) as again:
        functional_degree(FiniteMap(domain, Z2, instance["values"]))
    assert again.value.instance == instance
    monkeypatch.undo()
    assert functional_degree(FiniteMap(domain, Z2, instance["values"])) == instance["order"] > 1
    assert verify_bound(2, make_partition(parts), [(Z2, d)]).passed


def test_system_layout_helpers_match_their_definitions():
    # _relayout reads the lowest bit of each slot, whatever the others hold,
    # unless nothing moves.
    rng = random.Random(5)
    for _ in range(300):
        count, width, new_width = rng.randint(1, 9), rng.choice([1, 8, 16]), rng.choice([1, 8, 16])
        spread, tile = rng.randint(1, 4), rng.randint(1, 3)
        entries = [rng.randrange(2) for _ in range(count)]
        low = sum(e << i * width for i, e in enumerate(entries))
        noise = rng.getrandbits(count * width) & ~sum(1 << i * width for i in range(count))
        if width == new_width and spread == tile == 1:
            assert oracle._relayout(low, count, width, new_width) == low
            continue
        expected = [e for _ in range(tile) for e in entries for _ in range(spread)]
        got = oracle._relayout(low | noise, count, width, new_width, spread, tile)
        assert got == sum(e << i * new_width for i, e in enumerate(expected))
    # _joined_flags and _table_at read a target's buckets, one after another,
    # as the one TableSet of all their tables, in slots of one or two bytes.
    for dom, cod, d in [((4, 2), (2,), 3), ((2,), (128,), 3), ((2, 2), (2, 4), 2)]:
        domain, codomain = AbelianShape(dom), AbelianShape(cod)
        runs = list(functions_by_degree(domain, codomain, max_degree=d).values())
        values = [f.values for tables in runs for f in tables]
        joined = calculus.TableSet.of(domain, codomain, values, len(values))
        assert runs[0].size == joined.size == (2 if cod == (128,) else 1)
        assert oracle._joined_flags(runs) == list(joined.zero_flags())
        indices = range(len(joined))
        assert [oracle._table_at(runs, i) for i in indices] == list(map(joined.table, indices))


@pytest.mark.parametrize(
    "parts, modulus, systems, bound, min_ord",
    [
        # RM(2, 5): (Z/2)^5 -> Z/2, d <= 2, one bit per table.
        ([1] * 5, 2, 65534, 2, 2),
        # (Z/2)^4 -> Z/4, d <= 2: the fifth gap of the sharpness survey, in byte slots.
        ([1] * 4, 4, 65532, 0, 1),
    ],
)
def test_large_exhaustive_instances_through_the_planes(parts, modulus, systems, bound, min_ord):
    # The default cap counts all |B|^|A| tables, so the cap is raised here.
    shaped = [(AbelianShape((modulus,)), 2)]
    report = verify_bound(2, make_partition(parts), shaped, cap=2**64)
    assert (report.systems_tested, report.bound, report.min_ord) == (systems, bound, min_ord)
    assert report.passed and not report.vacuous


def test_generated_table_past_a_patched_cap_raises(monkeypatch):
    # Claim a degree cap of 1 on the real Z/4 -> Z/2 box (widths (4,)): the
    # first generated table of degree 2 trips the recheck's cap check, as it
    # trips functional_degree's.
    real = calculus._sylow_plan
    for module in (calculus, oracle):
        monkeypatch.setattr(
            module,
            "_sylow_plan",
            lambda domain, codomain: tuple(
                _with_cap(comp, 1) for comp in real(domain, codomain)
            ),
        )
    with pytest.raises(ConsistencyError) as info:
        functions_by_degree(Z4, Z2, max_degree=3)
    instance = info.value.instance
    assert {key: instance[key] for key in ("domain", "codomain", "cap")} == {
        "domain": (4,), "codomain": (2,), "cap": 1
    }
    assert instance["order"] > 1
    monkeypatch.undo()
    replay = FiniteMap(Z4, Z2, instance["values"])
    assert functional_degree(replay) == instance["order"]
    assert len(functions_by_degree(Z4, Z2, max_degree=1)[Degree.of(1)]) == 2


def test_join_degree_cross_check_replays(monkeypatch):
    # A recheck that reads every order one higher makes the tables of degree
    # 2 read as 3, past d = 2: the cross-check fires for functions_by_degree
    # and for verify_bound, which takes its candidates from it, naming the
    # first of them in product order; its instance rebuilds the same call.
    real = calculus._level_flags
    monkeypatch.setattr(calculus, "_level_flags", lambda *args: [0] + real(*args))
    first = _reference_buckets(Z42, Z2, 2)[Degree.of(2)][0].values
    with pytest.raises(ConsistencyError, match=r"degree 3 outside \[-inf, 2\]") as info:
        functions_by_degree(Z42, Z2, max_degree=2)
    instance = info.value.instance
    assert instance == {
        "domain": (4, 2), "codomain": (2,), "max_degree": 2, "order": 3, "values": first
    }
    with pytest.raises(ConsistencyError) as again:
        functions_by_degree(
            AbelianShape(instance["domain"]),
            AbelianShape(instance["codomain"]),
            max_degree=instance["max_degree"],
        )
    assert again.value.instance == instance
    with pytest.raises(ConsistencyError) as verified:
        verify_bound(2, make_partition([2, 1]), [(Z2, 2)])
    assert verified.value.instance == instance


def test_warm_targets_are_rechecked(monkeypatch):
    # A kept target still has its degrees rechecked on every call: the patched
    # recheck of test_join_degree_cross_check_replays fires on a warm call with
    # the same instance, and after the undo the brute-force bucketing is back.
    expected = _reference_buckets(Z42, Z2, 2)
    functions_by_degree(Z42, Z2, max_degree=2)
    assert oracle._target(Z42, Z2, 2).planes is not None
    real = calculus._level_flags
    monkeypatch.setattr(calculus, "_level_flags", lambda *args: [0] + real(*args))
    with pytest.raises(ConsistencyError, match=r"degree 3 outside \[-inf, 2\]") as info:
        functions_by_degree(Z42, Z2, max_degree=2)
    assert info.value.instance == {
        "domain": (4, 2), "codomain": (2,), "max_degree": 2, "order": 3,
        "values": expected[Degree.of(2)][0].values,
    }
    monkeypatch.undo()
    got = functions_by_degree(Z42, Z2, max_degree=2)
    assert list(got) == list(expected) and got == expected


def test_warm_calls_share_their_buckets():
    # Each call returns its own dict, of the bucket objects the record keeps,
    # so each bucket's zero flags are packed once.
    first = functions_by_degree(Z42, Z2, max_degree=3)
    second = functions_by_degree(Z42, Z2, max_degree=3)
    assert first is not second and list(first) == list(second)
    assert all(a is b for a, b in zip(first.values(), second.values()))


def test_targets_past_cached_bytes_keep_nothing(monkeypatch):
    # With no byte to spare, a record keeps no planes and no buckets, and the
    # buckets built on each call equal the kept ones.
    Z5, Z128 = AbelianShape((5,)), AbelianShape((128,))
    pairs = [(Z42, Z2, 3), (Z5, Z5, 2), (Z2, Z128, 3)]
    kept = [functions_by_degree(domain, codomain, max_degree=d) for domain, codomain, d in pairs]
    monkeypatch.setattr(oracle, "CACHED_BYTES", 0)
    oracle._target.cache_clear()
    try:
        for (domain, codomain, d), expected in zip(pairs, kept):
            first = functions_by_degree(domain, codomain, max_degree=d)
            second = functions_by_degree(domain, codomain, max_degree=d)
            target = oracle._target(domain, codomain, d)
            assert not target.kept
            assert target.planes is None and target.tops is None and target.buckets is None
            for got in (first, second):
                assert list(got) == list(expected) and got == expected
            assert not any(a is b for a, b in zip(first.values(), second.values()))
    finally:
        oracle._target.cache_clear()


def test_brute_max_degree_small_pairs():
    assert brute_max_degree(Z4, Z2) == 3
    assert brute_max_degree(AbelianShape((2, 2)), Z2) == 2
    with pytest.raises(ValueError):
        brute_max_degree(AbelianShape((6,)), Z2)
    # The cap is checked without forming the 3^531441 table count.
    with pytest.raises(ResourceLimitError) as info:
        brute_max_degree(AbelianShape((3,) * 12), AbelianShape((3,)))
    assert str(info.value) == "3^531441 tables exceed the exhaustive cap 1048576; use sampled mode"


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


@pytest.mark.parametrize(
    "dom, cod, cap", [((4,), (2,), 2), ((8,), (2,), 4), ((4, 2), (4,), 2), ((3,), (9,), 3)]
)
def test_sampler_support_is_the_qualifying_set(dom, cod, cap):
    domain, codomain = AbelianShape(dom), AbelianShape(cod)
    qualifying = {
        f.values
        for degree, fs in functions_by_degree(domain, codomain, max_degree=cap).items()
        if degree > 0
        for f in fs
    }
    rng = random.Random(2)
    draws = 20 * len(qualifying)
    drawn = {sample_bounded_map(domain, codomain, cap, rng).values for _ in range(draws)}
    assert drawn == qualifying


def test_batch_sampling_draws_as_single_draws_and_rechecks_every_table(monkeypatch):
    for domain, codomain, cap in [(Z42, Z4, 2), (AbelianShape((2,) * 6), Z2, 3)]:
        rng, ref = random.Random(9), random.Random(9)
        batch = oracle.sample_bounded_maps(domain, codomain, cap, rng, 7)
        assert batch == [sample_bounded_map(domain, codomain, cap, ref) for _ in range(7)]
        assert rng.getstate() == ref.getstate()
    # A recheck that reads the third and fifth draws as constants names the third.
    expected = oracle.sample_bounded_maps(Z42, Z4, 2, random.Random(9), 7)[2]
    # Top 1 is degree 0.
    real = oracle._degree_tops
    monkeypatch.setattr(
        oracle,
        "_degree_tops",
        lambda domain, codomain, tables: [
            1 if k in (2, 4) else t for k, t in enumerate(real(domain, codomain, tables))
        ],
    )
    with pytest.raises(ConsistencyError) as info:
        oracle.sample_bounded_maps(Z42, Z4, 2, random.Random(9), 7)
    assert (info.value.instance["values"], info.value.instance["order"]) == (expected.values, 0)


def test_sampler_frequencies_pass_a_chi_square_bound():
    # The 6 maps Z/4 -> Z/2 of degree 1 or 2, 6000 draws: the statistic has
    # 5 degrees of freedom, and 20.52 is its 0.999 quantile.
    rng = random.Random(3)
    counts = collections.Counter(sample_bounded_map(Z4, Z2, 2, rng).values for _ in range(6000))
    assert len(counts) == 6
    assert sum((n - 1000) ** 2 / 1000 for n in counts.values()) < 20.52


def test_seed_3_sampled_report_on_ten_copies_of_z2_into_z4_is_pinned():
    # (Z/2)^10 -> Z/4, d <= 3: 25 uniform draws meet the bound 1, and the
    # whole report, witness included, is pinned by its digest.
    report = verify_bound(2, make_partition([1] * 10), [(Z4, 3)], mode="sampled", seed=3)
    data = report.to_json_dict()
    assert (data["bound"], data["min_ord"], data["systems_tested"]) == (1, 1, 25)
    assert data["passed"] and not data["vacuous"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "c9c85437019b52fd69b6740b180959a636b8862cca1ca4d987043d4aae44815d"


def test_seeded_sampled_report_does_not_depend_on_the_hash_seed():
    code = (
        "import json; from axkatz import AbelianShape, make_partition, verify_bound; "
        "shaped = [(AbelianShape((4,)), 3), (AbelianShape((2, 4)), 2)]; "
        "print(json.dumps(verify_bound(2, make_partition([2, 1, 1]), shaped, "
        "mode='sampled', seed=11, samples=8).to_json_dict()))"
    )
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["systems_tested"] == 8


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


def _reference_trace(system, beta=None):
    """The TraceReport written from the definition: every lifted map and
    indicator evaluated point by point, and the floors from the indicator
    coefficients."""
    domain = system[0].domain
    (p,) = factorize(domain.factors[0])
    count, ords = zero_count(system)
    count_ord = ords[p].value
    beta = count_ord + 1 if beta is None else beta
    ring = AbelianShape((p**beta,))
    chis, floors = [], []
    for f in system:
        q = f.codomain.factors[0]
        period = AbelianShape((q,))
        chi = proper_lift(FiniteMap.from_callable(period, ring, lambda x: (int(x == (0,)),)))
        chis.append(chi)
        floors.append(tuple(
            (n, multiplicity(p, c), max(-(-(n - (q - 1)) // (q // p * (p - 1))), 0))
            for (n,), c in sorted(chi.coeffs.items())
        ))
    lifts = [proper_lift(f) for f in system]
    total = sum(
        math.prod(chi((lift(x),)) for lift, chi in zip(lifts, chis))
        for x in enumerate_elements(domain)
    )
    floors_ok = all(o >= floor for per_map in floors for _, o, floor in per_map)
    return oracle.TraceReport(
        count, count_ord, beta, total, multiplicity(p, total), tuple(floors), floors_ok
    )


@pytest.mark.parametrize(
    "domain, moduli",
    [((4, 4), (2, 4)), ((8, 8), (2, 2)), ((3, 3, 3), (3, 3)), ((9, 9), (3, 9))],
)
def test_trace_reports_match_the_per_point_integral(domain, moduli):
    # Low-degree draws and random tables, at the default beta and above it.
    rng = random.Random(sum(domain) * 100 + sum(moduli))
    domain = AbelianShape(domain)
    traced = 0
    while traced < 4:
        system = [
            sample_bounded_map(domain, AbelianShape((m,)), rng.randint(1, 2), rng)
            if traced % 2
            else FiniteMap(domain, AbelianShape((m,)), tuple(
                (rng.randrange(m) if rng.random() < 0.5 else 0,) for _ in range(domain.order)
            ))
            for m in moduli
        ]
        if not zero_count(system)[0]:
            continue
        report = zero_count_trace(system)
        assert report == _reference_trace(system)
        assert zero_count_trace(system, report.beta + 1) == _reference_trace(
            system, report.beta + 1
        )
        traced += 1


@pytest.mark.parametrize("beta", [True, False, 1.5, 2.0, "2", [2]])
def test_zero_count_trace_rejects_a_beta_that_is_not_an_int(beta, monkeypatch):
    # The check comes before the zero count, which is made to fail here.
    identity = FiniteMap(Z2, Z2, ((0,), (1,)))
    assert zero_count_trace([identity], 2).beta == 2
    monkeypatch.setattr(oracle, "zero_count", lambda maps: pytest.fail("counted zeros"))
    with pytest.raises(ValueError) as info:
        zero_count_trace([identity], beta)
    assert str(info.value) == f"beta must be an integer, got {beta!r}"


@pytest.mark.parametrize("d", [True, 1.5, 2.0, "2"])
def test_degree_caps_must_be_ints(d, monkeypatch):
    # Every entry that takes a degree cap names a cap that is not an int,
    # before it counts or builds any table.
    def no_table(*args, **kwargs):
        raise AssertionError("a table was counted or built")

    for name in ("_bounded_map_count", "_generated_planes", "_all_tables"):
        monkeypatch.setattr(oracle, name, no_table)
    for name, call in [
        ("a degree cap", lambda: verify_bound(2, make_partition([2, 1]), [(Z2, d)])),
        ("a degree cap", lambda: multi_prime_bounds(AbelianShape((12,)), [(Z2, d)])),
        ("a degree cap", lambda: polynomial_system_bound(6, 2, [2, d])),
        ("max_degree", lambda: functions_by_degree(Z42, Z2, max_degree=d)),
        ("cap", lambda: oracle.sample_bounded_maps(Z42, Z2, d, random.Random(1), 3)),
    ]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be an integer, got {d!r}"
    with pytest.raises(ValueError, match="degree caps must be >= 1, got 0"):
        verify_bound(2, make_partition([2, 1]), [(Z2, 0)])


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


# The benchmark's sampled shapes (two targets in the last but one), two seeds
# each, then a domain of 512 elements, whose zero counts need slots of two bytes.
SAMPLED_INSTANCES = [
    (2, [2, 2], [((2,), 2)]),
    (2, [1, 1, 1, 1], [((2,), 3)]),
    (2, [3, 1], [((4,), 2)]),
    (3, [1, 1], [((9,), 3)]),
    (2, [2, 2], [((2,), 3), ((2,), 2)]),
    (2, [2, 1, 1], [((4,), 3)]),
    (2, [1] * 9, [((2,), 2)]),
]


def test_masked_systems_loop_matches_per_system_zero_count():
    # Sampled mode's scan against single draws and zero counts written from
    # the definition; the exhaustive scan is checked the same way in
    # test_verify_bound_agrees_with_brute_force_bucketing.
    reports = []
    for p, parts, targets in SAMPLED_INSTANCES:
        shaped = [(AbelianShape(c), d) for c, d in targets]
        for seed in (5, 6):
            report = verify_bound(p, make_partition(parts), shaped, mode="sampled", seed=seed)
            reports.append(report.to_json_dict())
            assert reports[-1] == _reference_report(p, parts, targets, "sampled", seed)
    assert any(len(r["witness"]) == 2 for r in reports)


def _replica_draw(domain, codomain, generators, ref):
    """The table of the next draw, decoded by hand from a replica rng: a
    constant per codomain factor, then a nonzero digit vector over the
    generators; the table is the constant plus sum t_i g_i, evaluated point
    by point by reconstruct."""
    nonzero = math.prod(order for gens in generators for _, order in gens) - 1
    cells = list(itertools.product(*map(range, domain.factors)))
    constants, combination = divmod(ref.randrange(codomain.order * nonzero), nonzero)
    combination += 1
    coeffs = {n: [0] * len(codomain.factors) for n in cells}
    for j, (q, gens) in enumerate(zip(codomain.factors, generators)):
        constants, coeffs[cells[0]][j] = divmod(constants, q)
        for terms, order in gens:
            combination, t = divmod(combination, order)
            for cell, c in terms:
                coeffs[cells[cell]][j] = (coeffs[cells[cell]][j] + t * c) % q
    coeffs = {n: tuple(c) for n, c in coeffs.items()}
    return reconstruct(domain, codomain, coeffs, INF)


SAMPLED_PAIRS = [((4, 2), (4,), 2), ((9,), (3,), 3), ((2, 2), (2, 4), 2), ((3,), (9,), 3)]


def test_sampled_table_matches_the_per_point_formula():
    for dom, cod, cap in SAMPLED_PAIRS:
        domain, codomain = AbelianShape(dom), AbelianShape(cod)
        generators = calculus.degree_generators(domain, codomain, cap)
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            table = sample_bounded_map(domain, codomain, cap, rng)
            assert table == _replica_draw(domain, codomain, generators, ref)
            assert rng.getstate() == ref.getstate()


def test_sampled_batch_matches_the_per_point_formula():
    # Each draw of a batch has its own slot in the batch's blobs, so every
    # draw, not just the first, must be the table its digits give.  Z/2 ->
    # Z/128 has two-byte slots.
    for dom, cod, cap in SAMPLED_PAIRS + [((2,), (128,), 1)]:
        domain, codomain = AbelianShape(dom), AbelianShape(cod)
        generators = calculus.degree_generators(domain, codomain, cap)
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            tables = oracle.sample_bounded_maps(domain, codomain, cap, rng, 7)
            assert tables.size == (2 if cod == (128,) else 1)
            assert list(tables) == [
                _replica_draw(domain, codomain, generators, ref) for _ in range(7)
            ]
            assert rng.getstate() == ref.getstate()


def test_sampling_past_the_enumeration_limit_raises(monkeypatch):
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "8")
    domain = AbelianShape((4, 4))
    with pytest.raises(ResourceLimitError) as expected:
        enumerate_elements(domain)

    def no_table(*args):
        raise AssertionError("a table was built past the enumeration limit")

    # Generators and tables are built only after the limit check.
    monkeypatch.setattr(oracle, "degree_generators", no_table)
    monkeypatch.setattr(oracle, "coefficient_table", no_table)
    with pytest.raises(ResourceLimitError) as sampled:
        sample_bounded_map(domain, Z2, 2, random.Random(1))
    with pytest.raises(ResourceLimitError) as verified:
        verify_bound(2, make_partition([2, 2]), [(Z2, 2)], mode="sampled", seed=1)
    assert str(sampled.value) == str(verified.value) == str(expected.value)
    # Drawing no sample builds no table, so nothing is enumerated: a vacuous pass.
    report = verify_bound(2, make_partition([2, 2]), [(Z2, 2)], mode="sampled", seed=1, samples=0)
    assert report.vacuous and report.passed


def test_verify_checks_its_caps_before_any_power_of_a_part():
    with pytest.raises(ResourceLimitError) as exhaustive:
        verify_bound(7, make_partition([10**6]), [(AbelianShape((7,)), 1)])
    assert str(exhaustive.value) == (
        "7^(7^1000000) tables exceed the exhaustive cap 1048576; use sampled mode"
    )
    with pytest.raises(ResourceLimitError) as sampled:
        verify_bound(7, make_partition([10**6]), [(AbelianShape((7,)), 1)], mode="sampled", seed=1)
    assert str(sampled.value) == "group of order 7^1000000 exceeds the enumeration limit 1000000"
    # Below the printing limit the count is written out, as functions_by_degree writes it.
    with pytest.raises(ResourceLimitError) as small:
        verify_bound(2, make_partition([2, 1]), [(Z4, 1)], cap=100)
    with pytest.raises(ResourceLimitError) as direct:
        functions_by_degree(Z42, Z4, cap=100)
    assert str(small.value) == str(direct.value)
    assert str(direct.value) == "65536 tables exceed the exhaustive cap 100; use sampled mode"


def test_verify_with_no_sample_on_a_huge_part_raises_at_once():
    # The digit check of the CLI, inside verify_bound; a fresh process with a
    # timeout, so a regression fails instead of hanging the suite.
    code = (
        "from axkatz import AbelianShape, make_partition, verify_bound; "
        "verify_bound(7, make_partition([10**9]), [(AbelianShape((7,)), 1)], "
        "mode='sampled', seed=1, samples=0)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(oracle.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == (
        "ValueError: part 1000000000: the result holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, Python's limit for printing integers "
        "(PYTHONINTMAXSTRDIGITS=0 lifts it)"
    )


def test_verify_checks_its_system_count_before_building_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built past the system cap")

    # The table sources each mode calls.
    monkeypatch.setattr(oracle, "_generated_planes", no_table)
    monkeypatch.setattr(oracle, "sample_bounded_maps", no_table)
    # 2 (2^6 - 1) = 126 nonconstant maps Z/4 + Z/2 -> Z/2 of degree <= 3, per target.
    with pytest.raises(ResourceLimitError) as exhaustive:
        verify_bound(2, make_partition([2, 1]), [(Z2, 3)] * 3)
    assert str(exhaustive.value) == "2000376 qualifying systems exceed 200000; use sampled mode"
    with pytest.raises(ResourceLimitError) as sampled:
        verify_bound(
            2, make_partition([2, 1]), [(Z2, 3)], mode="sampled", seed=1,
            samples=oracle.MAX_SYSTEMS + 1,
        )
    assert str(sampled.value) == "200001 sampled systems exceed 200000"
    # Below the system cap, both modes reach the patched sources.
    with pytest.raises(AssertionError, match="past the system cap"):
        verify_bound(2, make_partition([2, 1]), [(Z2, 3)])
    with pytest.raises(AssertionError, match="past the system cap"):
        verify_bound(2, make_partition([2, 1]), [(Z2, 3)], mode="sampled", seed=1, samples=1)


def test_brute_max_degree_failure_replays(monkeypatch):
    real = oracle.max_functional_degree
    monkeypatch.setattr(oracle, "max_functional_degree", lambda shape, beta: real(shape, beta) + 1)
    with pytest.raises(ConsistencyError) as info:
        brute_max_degree(Z4, Z2)
    instance = info.value.instance
    assert instance == {"domain": (4,), "codomain": (2,), "observed": 3, "expected": 4}
    with pytest.raises(ConsistencyError) as again:
        brute_max_degree(AbelianShape(instance["domain"]), AbelianShape(instance["codomain"]))
    assert again.value.instance == instance


def _replay_trace(instance):
    maps = [FiniteMap.from_json_dict(table) for table in instance["system"]]
    with pytest.raises(ConsistencyError) as again:
        zero_count_trace(maps, instance["beta"])
    assert again.value.instance == instance


PARITY = FiniteMap(Z42, Z2, tuple((x % 2,) for x, _ in enumerate_elements(Z42)))


def test_trace_indicator_support_failure_replays(monkeypatch):
    real = oracle.proper_lift

    def padded(f):
        # The one-variable indicators get a coefficient far past their cap.
        series = real(f)
        if series.arity != 1:
            return series
        return oracle.BinomialSeries(1, {**series.coeffs, (99,): 1})

    monkeypatch.setattr(oracle, "proper_lift", padded)
    with pytest.raises(ConsistencyError) as info:
        zero_count_trace([PARITY])
    instance = info.value.instance
    assert (instance["beta"], instance["exponent"], instance["support"], instance["cap"]) == (
        3, 1, 99, 3
    )
    assert instance["system"] == [PARITY.to_json_dict()]
    _replay_trace(instance)


def test_trace_integral_failure_replays(monkeypatch):
    real = oracle.zero_count
    monkeypatch.setattr(oracle, "zero_count", lambda maps: (real(maps)[0] + 1, real(maps)[1]))
    with pytest.raises(ConsistencyError, match="does not reproduce") as info:
        zero_count_trace([PARITY])
    instance = info.value.instance
    assert (instance["count"], instance["integral"] % 8) == (5, 4)
    _replay_trace(instance)


def test_trace_valuation_failure_replays(monkeypatch):
    real = oracle.zero_count

    def low(maps):
        count, ords = real(maps)
        return count, {q: Degree.of(o.value - 1) for q, o in ords.items()}

    monkeypatch.setattr(oracle, "zero_count", low)
    with pytest.raises(ConsistencyError, match="disagrees") as info:
        zero_count_trace([PARITY])
    instance = info.value.instance
    assert (instance["beta"], instance["count_ord"], instance["integral_ord"]) == (2, 1, 2)
    _replay_trace(instance)


def test_poly_zero_count_failure_replays(monkeypatch):
    class Claim:
        bound = 9

    calls = []

    def claim(m, n, degrees):
        calls.append(degrees)
        return {q: Claim() for q in factorize(m)}

    monkeypatch.setattr(oracle, "polynomial_system_bound", claim)
    # The second polynomial vanishes identically mod 6, so only the first
    # one's degree enters the bound.
    system = PolySystem(6, 2, (((1, (1, 0)), (5, (0, 1))), ((6, (1, 1)),)), (1, 2))
    with pytest.raises(ConsistencyError) as info:
        poly_zero_count(system)
    assert calls == [[1]]
    instance = info.value.instance
    assert instance == {"system": system.to_json_dict(), "prime": 2, "ord": 1, "bound": 9}
    with pytest.raises(ConsistencyError) as again:
        poly_zero_count(PolySystem.from_json_dict(instance["system"]))
    assert again.value.instance == instance


def test_poly_zero_count_matches_the_definition():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.choice([2, 3, 4, 6, 9])
        n = rng.randint(1, 3)
        polys = tuple(
            tuple(
                (rng.randint(-9, 9), tuple(rng.randint(0, 3) for _ in range(n)))
                for _ in range(rng.randint(0, 3))
            )
            for _ in range(rng.randint(0, 2))
        )
        degrees = tuple(
            max([sum(e) for c, e in poly if c % m] + [1]) for poly in polys
        )
        count, ords = poly_zero_count(PolySystem(m, n, polys, degrees))
        expected = sum(
            1
            for point in itertools.product(range(m), repeat=n)
            if all(
                sum(c * math.prod(x**e for x, e in zip(point, exps)) for c, exps in poly) % m == 0
                for poly in polys
            )
        )
        assert count == expected
        assert sorted(ords) == sorted(factorize(m))
