"""Group shapes, enumeration order, Sylow splitting, degree caps."""

import pytest

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
from axkatz.groups import check_enumerable, component_of


def test_shape_validation():
    with pytest.raises(ValueError):
        AbelianShape((1,))
    assert AbelianShape(()).is_trivial
    assert AbelianShape((4, 2)).order == 8


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
    with pytest.raises(ValueError):
        max_functional_degree(PGroupShape(2, make_partition([1])), 0)


def test_max_functional_degree_monotone():
    base = max_functional_degree(PGroupShape(3, make_partition([2, 1])), 2)
    assert max_functional_degree(PGroupShape(3, make_partition([2, 1])), 3) > base
    assert max_functional_degree(PGroupShape(3, make_partition([3, 1])), 2) > base
    assert max_functional_degree(PGroupShape(3, make_partition([2, 2])), 2) > base


def test_primary_component_projections():
    shape = AbelianShape((12, 2))
    comps = {q: component_of(shape, q) for q in (2, 3)}
    assert comps[2].shape.factors == (4, 2)
    assert comps[3].shape.factors == (3,)
    for x in enumerate_elements(shape):
        rebuilt = shape.zero()
        for comp in comps.values():
            rebuilt = shape.add(rebuilt, comp.include(comp.project(x)))
        assert rebuilt == x
    # Projection after inclusion is the identity on each component.
    for comp in comps.values():
        for u in enumerate_elements(comp.shape):
            assert comp.project(comp.include(u)) == u


def test_component_of_missing_prime_is_trivial():
    comp = component_of(AbelianShape((4, 2)), 3)
    assert comp.shape.is_trivial
    assert comp.project((3, 1)) == ()
    assert comp.include(()) == (0, 0)


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
