"""Group shapes, enumeration order, Sylow splitting, degree caps."""

import copy
import math
import pickle
import random
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axkatz import (
    AbelianShape,
    PGroupShape,
    ResourceLimitError,
    element_at,
    enumerate_elements,
    index_of,
    make_partition,
    max_functional_degree,
    primary_decomposition,
)
from axkatz import calculus
from axkatz.groups import check_enumerable, component_of, one_variable_cap, pure_prime
from axkatz.intmath import factorize, multiplicity
from axkatz.partitions import _unchecked


def test_shape_validation():
    with pytest.raises(ValueError):
        AbelianShape((1,))
    assert AbelianShape(()).is_trivial
    assert AbelianShape((4, 2)).order == 8


@pytest.mark.parametrize("bad", [True, 1, 0, -3, 2.0, "2", None])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_shape_names_the_first_bad_factor(bad, at):
    factors = [4, 6, 9, 6]
    factors.insert(at, bad)
    with pytest.raises(ValueError) as error:
        AbelianShape(tuple(factors))
    assert str(error.value) == f"factors must be integers >= 2, got {bad!r}"


def test_shape_reads_the_type_of_every_factor():
    # 2.0 == 2 and 2.0 hashes as 2, so a count of the factors would take it
    # for a second 2; True likewise counts as an earlier 1.
    for factors, bad in [
        ((2, 2.0), 2.0),
        ((3,) * 50 + (3.0,) + (3,) * 50, 3.0),
        ((5, 1, True), 1),
        ((5, True, 1), True),
        ((4, 0, 2.0), 0),
    ]:
        with pytest.raises(ValueError) as error:
            AbelianShape(factors)
        assert str(error.value) == f"factors must be integers >= 2, got {bad!r}"
    with pytest.raises(ValueError, match=r"factors must be a tuple, got \[2\]"):
        AbelianShape([2])


def test_checked_and_unchecked_shapes_are_one_value():
    factors = (12, 4, 12, 7, 4, 12)
    checked, unchecked = AbelianShape(factors), _unchecked(AbelianShape, factors=factors)
    assert "counts" in vars(checked) and "counts" not in vars(unchecked)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked) == "AbelianShape(factors=(12, 4, 12, 7, 4, 12))"
    assert checked.to_json() == unchecked.to_json() == list(factors)
    built = PGroupShape(3, make_partition([2, 1, 1])).shape()
    assert built == AbelianShape((9, 3, 3)) and built.counts == ((9, 1), (3, 2))
    for shape in (checked, unchecked, AbelianShape(()), _unchecked(AbelianShape, factors=())):
        for twin in (
            copy.copy(shape),
            copy.deepcopy(shape),
            pickle.loads(pickle.dumps(shape)),
            pickle.loads(pickle.dumps(shape, protocol=0)),
        ):
            assert twin == shape and hash(twin) == hash(shape) and type(twin) is AbelianShape
            assert twin.counts == shape.counts == tuple(Counter(shape.factors).items())
            assert twin.primes() == shape.primes()
            with pytest.raises(AttributeError):
                twin.factors = (2,)


PRIMES = [2, 3, 5, 7, 999983, 10**6 + 3]


@st.composite
def _factor(draw):
    picked = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3, unique=True))
    return math.prod(q ** draw(st.integers(1, 3 if q < 10 else 1)) for q in picked)


@st.composite
def _repeated_factors(draw, copies):
    distinct = draw(st.lists(_factor(), min_size=1, max_size=6, unique=True))
    factors = [m for m in distinct for _ in range(draw(st.integers(1, copies)))]
    return tuple(draw(st.permutations(factors)))


def _built_as(how: str, factors: tuple) -> AbelianShape:
    """The shape of the factors: checked, unchecked, or checked with the
    factors as members of an IntEnum (an int subclass)."""
    if how == "unchecked":
        return _unchecked(AbelianShape, factors=factors)
    if how == "intenum":
        members = IntEnum("Factor", {f"F{m}": m for m in set(factors)})
        return AbelianShape(tuple(map(members, factors)))
    return AbelianShape(factors)


@settings(max_examples=120, deadline=None)
@given(_repeated_factors(copies=300), st.sampled_from(["checked", "unchecked", "intenum"]))
def test_primary_decomposition_matches_the_per_factor_definition(factors, how):
    shape = _built_as(how, factors)
    components = primary_decomposition(shape)
    expected = {}
    for q in sorted({q for m in factors for q in factorize(m)}):
        exponents = [multiplicity(q, m) for m in factors if m % q == 0]
        expected[q] = PGroupShape(q, make_partition(exponents))
    assert components == expected and list(components) == list(expected)
    for q, component in components.items():
        assert {type(q), type(component.p), *map(type, component.exponents)} == {int}
    assert shape.counts == tuple(Counter(factors).items())
    assert {type(m) for m, _ in shape.counts} == {int}


@settings(max_examples=120, deadline=None)
@given(_repeated_factors(copies=3), st.sampled_from(["checked", "unchecked", "intenum"]))
def test_primes_and_pure_prime_match_the_factored_order(factors, how):
    shape = _built_as(how, factors)
    primes = tuple(sorted(factorize(shape.order)))
    assert shape.primes() == primes and {*map(type, primes)} <= {int}
    assert pure_prime(shape) == (primes[0] if len(primes) == 1 else None)


def test_primes_of_many_factors_read_the_distinct_ones():
    # The order of 5,000 such factors has about 39,000 digits.
    shape = AbelianShape((2 * 999983, 3 * (10**6 + 3), 6) * 1667)
    assert shape.primes() == (2, 3, 999983, 10**6 + 3)
    assert pure_prime(shape) is None
    assert pure_prime(AbelianShape((8, 2, 4) * 2000)) == 2
    assert AbelianShape(()).primes() == () and pure_prime(AbelianShape(())) is None


def test_primary_decomposition_fixtures():
    assert {q: s.exponents.parts for q, s in primary_decomposition(AbelianShape((6,))).items()} == {
        2: (1,),
        3: (1,),
    }
    assert primary_decomposition(AbelianShape((4, 2)))[2].exponents.parts == (2, 1)
    mixed = primary_decomposition(AbelianShape((12, 2)))
    assert mixed[2].exponents.parts == (2, 1)
    assert mixed[3].exponents.parts == (1,)
    with pytest.raises(ValueError):
        primary_decomposition(AbelianShape(()))


def test_primary_decomposition_preserves_order():
    shape = AbelianShape((12, 10, 2))
    total = 1
    for component in primary_decomposition(shape).values():
        total *= component.order
    assert total == shape.order


def test_primary_decomposition_matches_the_checked_constructors():
    # The components are built without the checks of PGroupShape and
    # Partition; rebuilt through both, each must pass and be equal.
    rng = random.Random(14)
    primes = [2, 3, 5, 7, 999983, 10**9 + 7]
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 8)):
            picked = rng.sample(primes, rng.randint(1, 3))  # a large prime to the first power only
            m = math.prod(q ** rng.randint(1, 3 if q < 10 else 1) for q in picked)
            factors += [m] * rng.randint(1, 3)  # repeated factors
        components = primary_decomposition(AbelianShape(tuple(factors)))
        assert list(components) == sorted({q for m in factors for q in factorize(m)})
        for q, component in components.items():
            exponents = [multiplicity(q, m) for m in factors if m % q == 0]
            rebuilt = PGroupShape(q, make_partition(exponents))
            assert component == rebuilt and component.shape() == rebuilt.shape()
            assert {type(q), *map(type, component.exponents)} == {int}


def test_enumeration_order():
    assert enumerate_elements(AbelianShape((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_elements(AbelianShape((4,))) == [(0,), (1,), (2,), (3,)]
    assert index_of(AbelianShape((4, 2)), (3, 1)) == 7


def test_index_element_roundtrip_and_closure():
    import itertools

    shapes = [(2,), (3, 3), (6,), (12, 2)]
    shapes += [
        factors
        for size in (1, 2, 3)
        for factors in itertools.product((2, 3, 4, 5, 8, 9), repeat=size)
        if AbelianShape(factors).order <= 64
    ]
    for factors in shapes:
        shape = AbelianShape(factors)
        elements = enumerate_elements(shape)
        assert len(elements) == shape.order
        assert len(set(elements)) == shape.order
        for i, x in enumerate(elements):
            assert index_of(shape, x) == i
            assert element_at(shape, i) == x
        universe = set(elements)
        for x in elements:
            for y in elements:
                assert shape.add(x, y) in universe


def test_enumeration_limit():
    with pytest.raises(ResourceLimitError):
        enumerate_elements(AbelianShape((1009, 1013)), limit=1000)


def test_enumeration_limit_env_var(monkeypatch):
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "4")
    with pytest.raises(ResourceLimitError):
        enumerate_elements(AbelianShape((4, 2)))
    assert len(enumerate_elements(AbelianShape((4,)))) == 4
    monkeypatch.delenv("AXKATZ_ENUM_LIMIT")
    assert len(enumerate_elements(AbelianShape((4, 2)))) == 8


@pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-3"])
def test_enumeration_limit_env_var_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", raw)
    with pytest.raises(ValueError, match="AXKATZ_ENUM_LIMIT"):
        enumerate_elements(AbelianShape((4, 2)))


def test_max_functional_degree_fixtures():
    assert max_functional_degree(PGroupShape(2, make_partition([1] * 4)), 1) == 4
    assert max_functional_degree(PGroupShape(3, make_partition([1] * 4)), 1) == 8
    assert max_functional_degree(PGroupShape(2, make_partition([2, 1])), 2) == 6
    assert max_functional_degree(PGroupShape(3, make_partition([1])), 2) == 4
    assert one_variable_cap(3, 1, 2) == 4 and one_variable_cap(2, 2, 3) == 7
    with pytest.raises(ValueError):
        max_functional_degree(PGroupShape(2, make_partition([1])), 0)


def test_max_functional_degree_monotone():
    base = max_functional_degree(PGroupShape(3, make_partition([2, 1])), 2)
    assert max_functional_degree(PGroupShape(3, make_partition([2, 1])), 3) > base
    assert max_functional_degree(PGroupShape(3, make_partition([3, 1])), 2) > base
    assert max_functional_degree(PGroupShape(3, make_partition([2, 2])), 2) > base


def test_primary_component_projections():
    # The Sylow plan's gathers are mutually inverse CRT maps: the sum of each
    # component's inclusion of its projection rebuilds every element.
    shape = AbelianShape((12, 2))
    plan = {comp.prime: comp for comp in calculus._sylow_plan(shape, shape)}
    assert component_of(shape, 2) == AbelianShape((4, 2))
    assert component_of(shape, 3) == AbelianShape((3,))
    elements = enumerate_elements(shape)
    for k, x in enumerate(elements):
        rebuilt = shape.zero()
        for comp in plan.values():
            rebuilt = shape.add(rebuilt, elements[comp.include[comp.project[k]]])
        assert rebuilt == x
    # Projection after inclusion is the identity on each component.
    for comp in plan.values():
        order = component_of(shape, comp.prime).order
        assert [comp.project[i] for i in comp.include] == list(range(order))
    # The codomain side: (position, CRT multiplier, q).  Z/12 at 3 has
    # multiplier 4^-1 = 1 mod 3 and still needs its reduction mod 3.
    assert plan[2].slots == ((0, 3, 4), (1, None, 2))
    assert plan[3].slots == ((0, 1, 3),)
    for v in range(12):
        assert sum(12 // q * (v * u % q) for _, u, q in (plan[2].slots[0], plan[3].slots[0])) % 12 == v


def test_component_of_missing_prime_is_trivial():
    shape = AbelianShape((4, 2))
    assert component_of(shape, 3) == AbelianShape(())
    # A prime of the codomain only: every domain element projects to the one
    # element of the trivial component, which includes as 0.
    (comp,) = calculus._sylow_plan(shape, AbelianShape((3,)))
    assert comp.project == (0,) * 8
    assert comp.include == (0,)


def test_check_enumerable_reads_the_order_as_a_power(monkeypatch):
    check_enumerable(2, 3, limit=8)
    check_enumerable(1, 10**30, limit=1)
    with pytest.raises(ResourceLimitError, match="group of order 16 exceeds the enumeration limit 8"):
        check_enumerable(2, 4, limit=8)
    with pytest.raises(ResourceLimitError, match=r"group of order 7\^1000000 exceeds"):
        check_enumerable(7, 10**6)
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "15")
    with pytest.raises(ResourceLimitError, match="group of order 16 exceeds the enumeration limit 15"):
        enumerate_elements(AbelianShape((4, 4)))
