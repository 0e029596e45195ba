"""Partition arithmetic: conjugation, truncation, weights, tail identities."""

import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axkatz import (
    Partition,
    conjugate,
    conjugation_identity_sides,
    geometric_sum,
    make_partition,
    truncate,
    weight_sequence,
)

small_partitions = st.lists(st.integers(1, 5), min_size=1, max_size=6).map(make_partition)


def test_make_partition_sorts():
    assert make_partition([1, 3, 2]).parts == (3, 2, 1)
    assert make_partition([3, 2, 2, 1]).parts == (3, 2, 2, 1)


def test_make_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        make_partition([])
    with pytest.raises(ValueError):
        make_partition([0, 1])
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_partition_validation_messages():
    cases = [
        ((3, True), "parts must be positive integers, got True"),
        ((2, 0), "parts must be positive integers, got 0"),
        ((-1,), "parts must be positive integers, got -1"),
        ((2.0,), "parts must be positive integers, got 2.0"),
        (("2",), "parts must be positive integers, got '2'"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        # The first offending part, in order, names the error.
        ((1, 2, 0), "parts must be weakly decreasing, got (1, 2, 0)"),
        ((3, 0, 5), "parts must be positive integers, got 0"),
        ((), "a partition needs at least one part"),
    ]
    for parts, message in cases:
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message


def test_partition_accepts_int_subclasses():
    class Level(IntEnum):
        LOW = 1
        HIGH = 3

    alpha = Partition((Level.HIGH, 2, Level.LOW))
    assert alpha.columns == (3, 2, 1)
    assert conjugate(alpha).parts == (3, 2, 1)


@given(small_partitions)
def test_columns_count_parts_at_least_j(partition):
    assert partition.columns == tuple(
        sum(1 for a in partition.parts if a >= j) for j in range(1, partition.width + 1)
    )


@given(small_partitions, st.integers(1, 7))
def test_truncate_caps_every_part(partition, level):
    assert truncate(partition, level).parts == tuple(min(a, level) for a in partition.parts)


def _rebuilt(derived, parts):
    """Check that a partition the package derived unchecked is the one the
    checked constructor builds from parts, part type for part type."""
    rebuilt = Partition(tuple(parts))
    assert derived == rebuilt and list(map(type, derived)) == list(map(type, rebuilt))
    assert derived.columns == rebuilt.columns


def test_derived_partitions_match_the_checked_constructor():
    # conjugate and truncate build their results without the checks of
    # Partition; rebuilt through it, every result must pass and be equal.
    rng = random.Random(14)
    for _ in range(300):
        alpha = make_partition(rng.randint(1, 9) for _ in range(rng.randint(1, 12)))
        _rebuilt(conjugate(alpha), alpha.columns)
        width = alpha.width
        for level in {1, max(width - 1, 1), width, width + 1, rng.randint(1, 12)}:
            _rebuilt(truncate(alpha, level), (min(a, level) for a in alpha))


def test_truncate_holds_its_level_to_the_checks_of_a_part():
    # Below the width the level becomes a part, so it passes or fails as a part would.
    class Level(IntEnum):
        TWO = 2

    alpha = make_partition([3, 3, 1])
    _rebuilt(truncate(alpha, Level.TWO), (Level.TWO, Level.TWO, 1))
    with pytest.raises(ValueError) as info:
        truncate(alpha, True)
    assert str(info.value) == "parts must be positive integers, got True"
    assert truncate(make_partition([1, 1]), True) == make_partition([1, 1])


def test_size_sums_the_parts_without_building_columns():
    # One column per unit of the largest part would never finish here.
    alpha = make_partition([10**18])
    assert alpha.size == 10**18
    assert "columns" not in vars(alpha)


def test_conjugate_fixtures():
    assert conjugate(make_partition([3, 2, 2, 1])).parts == (4, 3, 1)
    assert conjugate(make_partition([6, 5, 3, 1])).parts == (4, 3, 3, 2, 2, 1)
    assert conjugate(make_partition([7])).parts == (1,) * 7


@given(small_partitions)
def test_conjugate_is_an_involution(partition):
    assert conjugate(conjugate(partition)) == partition


@given(small_partitions)
def test_conjugate_preserves_size(partition):
    assert conjugate(partition).size == partition.size


def test_truncate_fixtures():
    assert truncate(make_partition([2, 1]), 1).parts == (1, 1)
    assert truncate(make_partition([6, 5, 4, 2, 2, 1]), 3).parts == (3, 3, 3, 2, 2, 1)
    p = make_partition([4, 2])
    assert truncate(p, 9) == p
    with pytest.raises(ValueError):
        truncate(p, 0)


def test_geometric_sum_fixtures():
    assert geometric_sum(make_partition([2, 1]), 2) == 4
    assert geometric_sum(make_partition([1] * 5), 7) == 5
    assert geometric_sum(make_partition([6, 5, 3, 1]), 2) == 102


def test_weight_sequence_fixtures():
    ws = weight_sequence(make_partition([2, 1]), 2)
    assert ws.weights == (1, 1, 2)
    ones = weight_sequence(make_partition([1, 1, 1]), 3)
    assert ones.weights == (1, 1, 1)


def test_weight_sequence_figure_total():
    # D_1 + ... + D_9 for (6,5,3,1) is 4 + 3p + 2p^2 at every prime.
    p = 3
    ws = weight_sequence(make_partition([6, 5, 3, 1]), p)
    assert ws.prefix_sums()[9] == 4 + 3 * p + 2 * p * p


@given(small_partitions, st.sampled_from([2, 3, 5]))
def test_weight_total_matches_geometric_sum(partition, p):
    ws = weight_sequence(partition, p)
    sums = ws.prefix_sums()
    assert sums[-1] == geometric_sum(partition, p)
    assert all(b > a for a, b in zip(sums, sums[1:]))


@given(small_partitions, st.sampled_from([2, 3, 5]))
def test_geometric_sum_equals_conjugate_weighted_sum(partition, p):
    conj = conjugate(partition)
    weighted = sum(c * p**j for j, c in enumerate(conj.parts))
    assert geometric_sum(partition, p) == weighted


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(make_partition))
def test_tail_identity_all_m_and_x(partition):
    for m in range(1, partition.width + 1):
        for x in (1, 2, 3, 5):
            lhs, rhs = conjugation_identity_sides(partition, m, x)
            assert lhs == rhs


def test_tail_identity_fixtures():
    p = make_partition([3, 2, 2, 1])
    assert conjugation_identity_sides(p, 1, 1) == (8, 8)
    # At x = p both sides are x times the geometric-sum identity.
    assert conjugation_identity_sides(make_partition([2, 1]), 1, 2) == (8, 8)
    assert conjugation_identity_sides(p, 3, 1) == (1, 1)
    with pytest.raises(ValueError):
        conjugation_identity_sides(p, 4, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 5), min_size=n, max_size=n).map(make_partition),
            st.lists(st.integers(1, 5), min_size=n, max_size=n).map(make_partition),
        )
    )
)
def test_conjugate_of_min_is_min_of_conjugates(pair):
    a, b = pair
    mins = make_partition([min(x, y) for x, y in zip(a.parts, b.parts)])
    conj_min = conjugate(mins)
    ca, cb = conjugate(a), conjugate(b)
    for j in range(min(a.width, b.width)):
        assert conj_min[j] == min(ca[j], cb[j])


@settings(max_examples=60, deadline=None)
@given(small_partitions, st.integers(1, 6), st.sampled_from([2, 3, 5]))
def test_truncated_geometric_sum_identity(partition, level, p):
    conj = conjugate(partition)
    c1 = min(partition.width, level)
    expected = sum(conj[j] * p**j for j in range(c1))
    assert geometric_sum(truncate(partition, level), p) == expected


def _record_pairs():
    """Two unequal instances of each of the package's 14 value types."""
    from axkatz import (
        AbelianShape,
        BinomialSeries,
        FiniteMap,
        PGroupShape,
        PolySystem,
        make_targets,
        min_valuation,
        multi_prime_bounds,
        verify_bound,
        zero_count_bound,
        zero_count_trace,
    )
    from axkatz.calculus import _sylow_plan

    Z2, Z6 = AbelianShape((2,)), AbelianShape((6,))
    ident, parity = FiniteMap(Z2, Z2, ((0,), (1,))), FiniteMap(Z6, Z2, ((0,), (1,)) * 3)
    alpha, beta = make_partition([2, 1]), make_partition([3])
    targets = make_targets(2, [(1, 1)]), make_targets(3, [(2, 1), (1, 2)])
    bounds = multi_prime_bounds(Z6, [(Z2, 1)])
    return [
        (alpha, beta),
        (weight_sequence(alpha, 2), weight_sequence(beta, 3)),
        (Z2, Z6),
        (PGroupShape(2, alpha), PGroupShape(3, alpha)),
        (min_valuation(2, alpha, 3), min_valuation(3, beta, 7)),
        targets,
        (zero_count_bound(alpha, targets[0]), zero_count_bound(beta, targets[0])),
        (bounds[2], bounds[3]),
        (ident, parity),
        _sylow_plan(Z6, Z6),
        (BinomialSeries(1, {(1,): 1}), BinomialSeries(2, {})),
        (
            verify_bound(2, alpha, [(Z2, 1)]),
            verify_bound(2, alpha, [(Z2, 1)], mode="sampled", seed=1, samples=3),
        ),
        (zero_count_trace([ident]), zero_count_trace([ident, ident], beta=2)),
        (PolySystem(2, 1, (((1, (1,)),),), (1,)), PolySystem(6, 2, ((), ()), (1, 1))),
    ]


@pytest.mark.parametrize("pair", _record_pairs(), ids=lambda pair: type(pair[0]).__name__)
def test_records_behave_as_frozen_dataclasses(pair):
    import copy
    import dataclasses
    import pickle

    first, second = pair
    cls = type(first)
    # A frozen dataclass of the same name and annotations, built here.
    twin = dataclasses.make_dataclass(cls.__qualname__, list(cls.__annotations__), frozen=True)
    assert cls.__match_args__ == twin.__match_args__
    fields = {name: getattr(first, name) for name in cls.__match_args__}
    values = list(fields.values())
    again = [cls(*values), cls(**fields), cls(*values[:1], **dict(list(fields.items())[1:]))]
    twins = [twin(**fields), twin(**{name: getattr(second, name) for name in fields})]
    for other, twin_other in [(item, twins[0]) for item in again] + [(second, twins[1])]:
        assert (first == other) is (twins[0] == twin_other)
        assert (first != other) is (twins[0] != twin_other)
    assert first == again[0] and first != second
    # A different class compares unequal, even with equal fields.
    assert first != twins[0] and not first == twins[0]
    assert repr(first) == repr(twins[0]) and repr(second) == repr(twins[1])
    try:
        expected = hash(twins[0])
    except TypeError:  # a dict field: neither is hashable
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == expected == hash(again[1])
    name = cls.__match_args__[0]
    for change in (
        lambda: setattr(first, name, values[0]),
        lambda: setattr(first, "other", 1),
        lambda: delattr(first, name),
    ):
        with pytest.raises(AttributeError):
            change()
    for call in (
        lambda: cls(*values, values[0]),
        lambda: cls(*values[:-1]),
        lambda: cls(**fields, other=1),
        lambda: cls(values[0], **fields),
    ):
        with pytest.raises(TypeError):
            call()
    assert fields == {name: getattr(first, name) for name in cls.__match_args__}
    for copied in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first), copy.copy(first)):
        assert type(copied) is cls and copied == first and repr(copied) == repr(first)


def test_partition_columns_are_computed_on_first_read():
    alpha = Partition((3, 1))
    assert "columns" not in vars(alpha)
    assert alpha.columns == (2, 1, 1)
    assert vars(alpha)["columns"] == (2, 1, 1)
