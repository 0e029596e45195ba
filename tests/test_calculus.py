"""Difference calculus: degrees, series expansions, lifts, zero counting."""

import collections
import enum
import itertools
import math
import operator
import random

import pytest

from axkatz import (
    INF,
    NEG_INF,
    AbelianShape,
    BinomialSeries,
    ConsistencyError,
    Degree,
    FiniteMap,
    UnsupportedMapError,
    difference,
    enumerate_elements,
    functional_degree,
    functional_degrees,
    integral,
    iterated_difference,
    lift_difference_at_zero,
    lift_difference_box,
    make_partition,
    primary_assemble,
    primary_split,
    proper_lift,
    reconstruct,
    series_coefficients,
    tensor_product,
    vp_value,
    zero_count,
    zero_mask,
)
from axkatz import calculus
from axkatz.groups import component_of
from axkatz.intmath import factorize, multiplicity

Z2 = AbelianShape((2,))
Z3 = AbelianShape((3,))
Z4 = AbelianShape((4,))
Z8 = AbelianShape((8,))
Z9 = AbelianShape((9,))
Z42 = AbelianShape((4, 2))
Z22 = AbelianShape((2, 2))
Z6 = AbelianShape((6,))


def _with_cap(comp, cap):
    """The Sylow component comp with its degree cap replaced by cap."""
    fields = {name: getattr(comp, name) for name in comp.__match_args__}
    return type(comp)(**{**fields, "cap": cap})


def random_map(domain, codomain, rng):
    targets = enumerate_elements(codomain)
    return FiniteMap(
        domain, codomain, tuple(rng.choice(targets) for _ in range(domain.order))
    )


def test_degree_ordering():
    assert NEG_INF < Degree.of(0) < Degree.of(1) < INF
    assert max(NEG_INF, Degree.of(3), INF) == INF
    assert Degree.of(2) == 2 and Degree.of(2) <= 2 and Degree.of(1) < 2
    assert Degree.from_json(INF.to_json()) == INF
    assert Degree.from_json(Degree.of(5).to_json()) == 5


def test_degree_hash_agrees_with_int_equality():
    assert {Degree.of(3): 1}.get(3) == 1
    assert {3: "x"}[Degree.of(3)] == "x"
    assert len({Degree.of(0), 0, Degree.of(2), 2, NEG_INF, INF}) == 4
    assert Degree.of(3) != -1 and NEG_INF < -1 < Degree.of(0)


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_degree_ordering_rejects_foreign_types(compare):
    method = f"__{compare.__name__}__"
    assert getattr(Degree.of(3), method)("a") is NotImplemented
    with pytest.raises(TypeError):
        compare(Degree.of(3), "a")
    assert Degree.of(3) != "a"


def test_difference_fixtures():
    const = FiniteMap(Z4, Z2, ((1,),) * 4)
    assert difference(const, (1,)).is_zero
    ident = FiniteMap(Z2, Z2, ((0,), (1,)))
    assert difference(ident, (1,)).values == ((1,), (1,))
    assert difference(ident, (0,)).is_zero
    with pytest.raises(ValueError):
        difference(ident, (2,))


def test_iterated_difference_fixtures():
    ident4 = FiniteMap(Z4, Z4, ((0,), (1,), (2,), (3,)))
    assert iterated_difference(ident4, (0,)) == ident4
    assert iterated_difference(ident4, (2,)).is_zero
    ident2 = FiniteMap(Z2, Z2, ((0,), (1,)))
    assert iterated_difference(ident2, (1,)).values == ((1,), (1,))
    with pytest.raises(ValueError):
        iterated_difference(ident2, (1, 1))


def test_functional_degree_fixtures():
    assert functional_degree(FiniteMap(Z2, Z2, ((0,), (0,)))) == NEG_INF
    assert functional_degree(FiniteMap(Z42, Z2, ((1,),) * 8)) == 0
    product = FiniteMap.from_callable(Z22, Z2, lambda x: ((x[0] * x[1]) % 2,))
    assert functional_degree(product) == 2
    assert functional_degree(FiniteMap(Z2, Z3, ((0,), (1,)))) == INF


def test_functional_degree_multi_prime():
    # x -> (x mod 2 component doubled, x mod 3 component) splits and is finite.
    Z6 = AbelianShape((6,))
    f = FiniteMap.from_callable(Z6, Z6, lambda x: ((x[0] * 3) % 6,))
    assert functional_degree(f).is_finite
    # A shuffle that entangles the components has infinite degree.
    g = FiniteMap(Z6, Z6, ((0,), (2,), (4,), (1,), (3,), (5,)))
    assert functional_degree(g) == INF


def test_degree_drop_under_difference():
    rng = random.Random(11)
    for _ in range(10):
        f = random_map(Z42, Z4, rng)
        d = functional_degree(f)
        if not d.is_finite or d.value == 0:
            continue
        for axis in range(2):
            gen = tuple(1 if i == axis else 0 for i in range(2))
            dropped = functional_degree(difference(f, gen))
            assert dropped < d


def test_differences_commute():
    rng = random.Random(5)
    elements = enumerate_elements(Z42)
    for _ in range(5):
        f = random_map(Z42, Z4, rng)
        a, b = rng.choice(elements), rng.choice(elements)
        assert difference(difference(f, a), b) == difference(difference(f, b), a)


def test_series_coefficients_fixtures():
    assert series_coefficients(FiniteMap(Z2, Z2, ((0,), (0,)))) == {}
    ident = FiniteMap(Z2, Z2, ((0,), (1,)))
    assert series_coefficients(ident) == {(1,): (1,)}
    chi = FiniteMap(Z2, Z4, ((1,), (0,)))
    assert series_coefficients(chi) == {(0,): (1,), (1,): (3,), (2,): (2,)}
    with pytest.raises(UnsupportedMapError):
        series_coefficients(FiniteMap(Z2, Z3, ((0,), (1,))))


def test_coefficient_past_the_degree_cap_raises(monkeypatch):
    ident = FiniteMap(Z2, Z2, ((0,), (1,)))
    # x -> x mod 2 on Z/6: its component at 2 is the identity of Z/2.
    mixed = FiniteMap(AbelianShape((6,)), Z2, tuple((x % 2,) for x in range(6)))
    # Claim a degree cap of 0 on the real boxes: the order-1 coefficient breaks it.
    real = calculus._sylow_plan
    monkeypatch.setattr(
        calculus,
        "_sylow_plan",
        lambda domain, codomain: tuple(
            _with_cap(comp, 0) for comp in real(domain, codomain)
        ),
    )
    with pytest.raises(ConsistencyError):
        series_coefficients(ident)
    for f, prime in ((ident, None), (mixed, 2)):
        with pytest.raises(ConsistencyError) as info:
            functional_degree(f)
        # The instance rebuilds the failing call; a mixed map names its prime.
        instance = info.value.instance
        assert (instance["cap"], instance["order"]) == (0, 1)
        assert instance.get("prime") == prime
        replay = FiniteMap(
            AbelianShape(instance["domain"]), AbelianShape(instance["codomain"]), instance["values"]
        )
        assert replay == f
        with pytest.raises(ConsistencyError) as again:
            functional_degree(replay)
        assert str(again.value) == str(info.value)


def test_inverse_differences_match_reconstruct():
    # Cell x of the inverse transform is sum_n C(x, n) c_n, the value of the
    # map with binomial coefficients c_n on the domain box; the forward
    # transform gives the coefficients back.  Both ways of stepping an axis
    # do it: inside one int holding the box, with its row masks kept or
    # built as they are read, and across one int per cell.
    rng = random.Random(5)
    for domain, codomain in [(Z42, Z2), (Z2, AbelianShape((2, 4))), (Z9, Z3), (Z2, Z8)]:
        cells = list(itertools.product(*map(range, domain.factors)))
        coeffs = {n: tuple(rng.randrange(q) for q in codomain.factors) for n in cells}
        expected = reconstruct(domain, codomain, coeffs, INF)
        for j, q in enumerate(codomain.factors):
            column = [coeffs[n][j] for n in cells]
            values = [v[j] for v in expected.values]
            assert calculus.coefficient_table(domain, q, enumerate(column)) == values
            # Repeated cells add up, past q too: twice each c_n, and q at the origin.
            twice = [*enumerate(column), *enumerate(column), (0, q)]
            assert calculus.coefficient_table(domain, q, twice) == [2 * v % q for v in values]
            ones, kept = calculus._slot_ones(domain.order, 1), calculus._box_rows(domain.factors, 1)
            assert kept == tuple(calculus._rows(domain.factors, 1))
            packed = [int.from_bytes(bytes(column), "little")]
            step = calculus._slot_sum(q, 8, ones)
            calculus._forward_differences(packed, domain.factors, step, kept)
            assert list(packed[0].to_bytes(domain.order, "little")) == values
            calculus._forward_differences(
                packed,
                domain.factors,
                calculus._slot_difference(q, 8, ones),
                calculus._rows(domain.factors, 1),
            )
            assert list(packed[0].to_bytes(domain.order, "little")) == column
            per_cell = list(column)
            calculus._forward_differences(per_cell, domain.factors, calculus._slot_sum(q, 8, 1))
            assert per_cell == values
            calculus._forward_differences(
                per_cell, domain.factors, calculus._slot_difference(q, 8, 1)
            )
            assert per_cell == column
    with pytest.raises(UnsupportedMapError):
        calculus.degree_generators(AbelianShape((6,)), Z2, 1)


class _Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "codomain, values",
    [
        (Z2, ((0,), (1,))),
        (Z2, ((0,), (_Small.ONE,))),  # int subclasses are ints, bools excepted
        (Z2, (collections.namedtuple("Point", "x")(0), (1,))),  # and tuple subclasses tuples
        (AbelianShape(()), ((), ())),
        (AbelianShape((2, 4)), ((1, 3), (0, _Small.ONE))),  # in any slot of a product
    ],
)
def test_finite_map_accepts(codomain, values):
    assert FiniteMap(Z2, codomain, values).values == values


@pytest.mark.parametrize(
    "bad",
    [
        ((0, 0), (2, 0), (1, 3), (0, 1)),
        ((0, 0), (1, 4), (0, 0), (0, 0)),
        ((0, 0), (1, 130), (0, 2), (1, 1)),  # at least 2^7, yet inside its byte slot
        ((0, 0), (1, 3), (0, 255), (1, 1)),  # 255 + 2^7 - 4 would carry into the next slot
        ((129, 3), (1, 3), (0, 2), (1, 1)),
    ],
)
def test_table_sets_are_range_checked_slot_by_slot(bad):
    # A table set's planes can hold any byte in a slot: each codomain slot is
    # checked against its own modulus (2 is fine in Z/4, not in Z/2), with
    # no carry between slots to hide a bad entry beside a valid one, and the
    # error names the first bad entry as a FiniteMap would.
    domain, codomain = AbelianShape((2, 2)), AbelianShape((2, 4))
    good = ((0, 0), (1, 3), (0, 2), (1, 1))
    with pytest.raises(ValueError) as expected:
        FiniteMap(domain, codomain, bad)
    tables = calculus.TableSet.of(domain, codomain, [good, bad, good], 3)
    with pytest.raises(ValueError) as info:
        functional_degrees(domain, codomain, tables)
    assert str(info.value) == str(expected.value)
    valid = calculus.TableSet.of(domain, codomain, [good, good], 2)
    assert functional_degrees(domain, codomain, valid) == functional_degrees(
        domain, codomain, [good, good]
    )


def test_table_set_reads_match_the_checked_constructor():
    # A table read out of a set is built without the checks of FiniteMap;
    # rebuilt through it, every table must pass and be equal.
    rng = random.Random(14)
    for domain, codomain in [(Z42, Z4), (Z22, AbelianShape((2, 4))), (Z2, AbelianShape((128,)))]:
        tables = [random_map(domain, codomain, rng).values for _ in range(6)]
        packed = calculus.TableSet.of(domain, codomain, tables, len(tables))
        for i, values in enumerate(tables):
            for read in (packed[i], packed[i - len(tables)]):
                assert read == FiniteMap(domain, codomain, values)
                assert {type(v) for value in read.values for v in value} == {int}
        assert list(packed) == [FiniteMap(domain, codomain, values) for values in tables]


@pytest.mark.parametrize(
    "domain, codomain",
    [(Z2, AbelianShape(())), (Z42, AbelianShape(())), (Z42, Z4), (Z22, AbelianShape((2, 4)))],
)
def test_table_set_zero_masks_match_zero_mask(domain, codomain):
    # Every domain position gets its zero flags, also when the codomain is
    # trivial and a table holds no slot: the empty map vanishes everywhere.
    rng = random.Random(15)
    zero = codomain.zero()
    tables = [random_map(domain, codomain, rng).values for _ in range(6)]
    tables.append((zero,) * domain.order)
    packed = calculus.TableSet.of(domain, codomain, tables, len(tables))
    assert packed.zero_masks() == [zero_mask(values, zero) for values in tables]


def assert_matches_the_checked_constructor(g):
    """g, built unchecked, rebuilt through its checked constructor: equal, ints only."""
    if isinstance(g, BinomialSeries):
        assert BinomialSeries(g.arity, dict(g.coeffs)) == g
        assert {type(c) for c in g.coeffs.values()} <= {int}
    else:
        assert FiniteMap(g.domain, g.codomain, g.values) == g
        assert {type(v) for value in g.values for v in value} <= {int}


@pytest.mark.parametrize(
    "domain, codomain",
    [(Z42, Z4), (Z6, Z2), (Z6, Z6), (AbelianShape((12, 10)), AbelianShape((6, 4)))],
)
def test_derived_maps_match_the_checked_constructor(domain, codomain):
    # Differences, Sylow components and their assembly are built without the
    # checks of FiniteMap; rebuilt through it, each must pass and be equal.
    rng = random.Random(17)
    primes = sorted(set(domain.primes()) | set(codomain.primes()))
    components = {
        q: random_map(component_of(domain, q), component_of(codomain, q), rng) for q in primes
    }
    f = primary_assemble(domain, codomain, components)
    assert_matches_the_checked_constructor(f)
    split = primary_split(f)
    assert split == components
    for g in split.values():
        assert_matches_the_checked_constructor(g)
    for a in rng.sample(enumerate_elements(domain), 4):
        assert_matches_the_checked_constructor(difference(f, a))
    assert_matches_the_checked_constructor(iterated_difference(f, [1] * len(domain.factors)))


def test_tensor_products_match_the_checked_constructors():
    rng = random.Random(18)
    maps = [random_map(Z2, Z4, rng), random_map(Z42, Z4, rng), random_map(Z3, Z4, rng)]
    assert_matches_the_checked_constructor(tensor_product(maps))
    lifts = [proper_lift(random_map(Z4, Z2, rng)), proper_lift(random_map(Z22, Z8, rng))]
    assert_matches_the_checked_constructor(tensor_product(lifts))
    series = [BinomialSeries(1, {(0,): 3, (2,): -5}), BinomialSeries(2, {(1, 1): 10**30})]
    assert_matches_the_checked_constructor(tensor_product(series))


@pytest.mark.parametrize(
    "domain, codomain, values, message",
    [
        (Z2, Z2, ((0,),), "table has 1 entries, domain has 2"),
        (Z2, Z2, ((0,), (1.0,)), "(1.0,) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), [1]), "[1] is not a reduced element of (2,)"),
        (Z2, Z2, ((-1,), (0,)), "(-1,) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), (2,)), "(2,) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), (0, 0)), "(0, 0) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), ()), "() is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), (None,)), "(None,) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), ((0,),)), "((0,),) is not a reduced element of (2,)"),
        (Z2, AbelianShape((2, 4)), ((1, 3), (1, 4)), "(1, 4) is not a reduced element of (2, 4)"),
        # The first offending value is named.
        (Z3, Z2, ((0,), [0], (5,)), "[0] is not a reduced element of (2,)"),
        (Z3, Z2, ((2,), (1.0,), (0,)), "(2,) is not a reduced element of (2,)"),
        # A bool is no table entry, though it is an int.
        (Z2, Z2, ((True,), (0,)), "(True,) is not a reduced element of (2,)"),
        (Z2, AbelianShape((2, 4)), ((1, 3), (1, False)), "(1, False) is not a reduced element of (2, 4)"),
    ],
)
def test_finite_map_rejects(domain, codomain, values, message):
    with pytest.raises(ValueError) as info:
        FiniteMap(domain, codomain, values)
    assert str(info.value) == message


def test_finite_map_from_json_rejects_bool_entries():
    # JSON true is a bool: the entry check rejects it, as it does in a table.
    data = {"domain": [2], "codomain": [2], "values": [[True], [0]]}
    with pytest.raises(ValueError, match=r"^\(True,\) is not a reduced element of \(2,\)$"):
        FiniteMap.from_json_dict(data)



@pytest.mark.parametrize(
    "values",
    [
        ((0,), (1,), (0,)),  # short
        ((0,), (1,), (0,), (1,), (0,)),  # an extra entry
        ((0,), (1,), (0,), (3,)),  # 3 is not reduced in Z/2
        ((0,), (-1,), (0,), (1,)),  # negative
        ((0,), (1,), (0, 1), (1,)),  # a row of the wrong length
    ],
)
def test_batch_degrees_check_every_table_as_a_finite_map_does(values):
    with pytest.raises(ValueError) as expected:
        FiniteMap(Z4, Z2, values)
    zero, parity = ((0,),) * 4, ((0,), (1,), (0,), (1,))
    # Alone, after a valid table, and between valid tables of other degrees.
    for batch in ([values], [zero, values], [parity, zero, values, parity]):
        with pytest.raises(ValueError) as info:
            functional_degrees(Z4, Z2, batch)
        assert str(info.value) == str(expected.value)


@pytest.mark.parametrize(
    "domain, codomain, values, message",
    [
        (Z2, Z2, ((0,),), "table has 1 entries, domain has 2"),
        (Z2, Z2, ((0,), (1.0,)), "(1.0,) is not a reduced element of (2,)"),
        (Z2, Z2, ((0,), [1]), "[1] is not a reduced element of (2,)"),
        (Z3, Z2, ((0,), [0], (5,)), "[0] is not a reduced element of (2,)"),
        (Z6, Z6, ((0,),) * 5 + ((6,),), "(6,) is not a reduced element of (6,)"),
        (Z6, Z6, ((0,),) * 5, "table has 5 entries, domain has 6"),
    ],
)
def test_batch_degrees_name_the_first_offending_table_or_value(domain, codomain, values, message):
    # The tables after the offending one are malformed both ways.
    valid = ((0,),) * domain.order
    later = [((9,),) * domain.order, ((0,),)]
    for rest in (later, later[::-1]):
        with pytest.raises(ValueError) as info:
            functional_degrees(domain, codomain, [valid, values, *rest])
        assert str(info.value) == message


def test_reconstruct_fixtures():
    assert reconstruct(Z2, Z2, {}, NEG_INF).is_zero
    ident = reconstruct(Z2, Z2, {(1,): (1,)}, 1)
    assert ident.values == ((0,), (1,))
    with pytest.raises(ValueError):
        reconstruct(Z2, Z2, {(1,): (1,)}, 0)


def test_roundtrip_exhaustive_small():
    targets = enumerate_elements(Z2)
    import itertools

    for values in itertools.product(targets, repeat=4):
        f = FiniteMap(Z4, Z2, values)
        coeffs = series_coefficients(f)
        assert reconstruct(Z4, Z2, coeffs, functional_degree(f)) == f


def test_roundtrip_and_degree_reading_random():
    rng = random.Random(3)
    for _ in range(40):
        f = random_map(Z42, Z4, rng)
        coeffs = series_coefficients(f)
        degree = functional_degree(f)
        assert reconstruct(Z42, Z4, coeffs, degree) == f
        orders = [sum(n) for n in coeffs]
        assert degree == (Degree.of(max(orders)) if orders else NEG_INF)


def test_proper_lift_fixtures():
    assert proper_lift(FiniteMap(Z2, Z2, ((0,), (0,)))).coeffs == {}
    assert dict(proper_lift(FiniteMap(Z2, Z2, ((0,), (1,)))).coeffs) == {(1,): 1}
    lift = proper_lift(FiniteMap(Z2, Z4, ((1,), (3,))))
    assert dict(lift.coeffs) == {(0,): 1, (1,): 2}
    with pytest.raises(ValueError):
        proper_lift(FiniteMap(Z2, Z22, ((0, 0), (1, 1))))
    with pytest.raises(ValueError):
        proper_lift(FiniteMap(Z2, AbelianShape((6,)), ((0,), (1,))))


def test_proper_lift_reduces_to_the_map():
    rng = random.Random(9)
    for _ in range(20):
        f = random_map(Z42, Z4, rng)
        lift = proper_lift(f)
        for x in enumerate_elements(Z42):
            assert lift.evaluate(x) % 4 == f.at(x)[0]
        # Periodicity across one full period in each coordinate.
        for x in [(0, 0), (1, 1), (3, 0)]:
            shifted = (x[0] + 4, x[1] + 2)
            assert lift.evaluate(shifted) % 4 == f.at(x)[0]
        assert lift.degree() == functional_degree(f)


def test_proper_lift_matches_the_checked_constructor():
    # proper_lift builds its series without the checks of BinomialSeries;
    # rebuilt through it from its coefficients, each must pass and be equal.
    rng = random.Random(14)
    for domain, codomain in [(Z42, Z4), (Z9, Z3), (Z22, Z2), (AbelianShape((3,)), Z9), (Z8, Z8)]:
        for _ in range(10):
            lift = proper_lift(random_map(domain, codomain, rng))
            rebuilt = BinomialSeries(len(domain.factors), dict(lift.coeffs))
            assert lift == rebuilt and lift.degree() == rebuilt.degree()
            assert {type(c) for c in lift.coeffs.values()} <= {int}
            assert {type(n) for nvec in lift.coeffs for n in nvec} <= {int}


def test_lift_difference_fixtures():
    lift = proper_lift(FiniteMap(Z2, Z4, ((1,), (3,))))
    assert lift_difference_at_zero(lift, (1,)) == 2
    assert lift_difference_at_zero(lift, (9,)) == 0
    box = lift_difference_box(lift, 6)
    for n in range(6):
        assert box[(n,)] == lift_difference_at_zero(lift, (n,))
    for nvec, c in lift.coeffs.items():
        assert box[nvec] == c
    assert lift_difference_box(lift, 0) == {}


def test_lift_divisibility_small():
    # Coefficients beyond the degree cap at height h are divisible by p^h.
    rng = random.Random(21)
    alpha = make_partition([2, 1])
    for _ in range(10):
        f = random_map(Z42, Z4, rng)
        lift = proper_lift(f)
        box = lift_difference_box(lift, 9)
        for h in (1, 2, 3):
            cap = sum(2**a - 1 for a in alpha) + (h - 1) * 2 ** (alpha[0] - 1)
            for nvec, value in box.items():
                if sum(nvec) > cap:
                    assert value % 2**h == 0


def test_tensor_product_maps():
    zero = FiniteMap(Z2, Z4, ((0,), (0,)))
    anything = FiniteMap(Z4, Z4, ((1,), (2,), (3,), (0,)))
    assert tensor_product([anything, zero]).is_zero
    c2 = FiniteMap(Z2, Z4, ((2,), (2,)))
    c3 = FiniteMap(Z2, Z4, ((3,), (3,)))
    prod = tensor_product([c2, c3])
    assert prod.values == ((2,),) * 4  # 2 * 3 mod 4
    chi1 = FiniteMap(Z2, Z4, ((1,), (0,)))
    chi2 = FiniteMap(Z4, Z4, ((1,), (0,), (0,), (0,)))
    indicator = tensor_product([chi1, chi2])
    for x in enumerate_elements(indicator.domain):
        expected = 1 if (x[0] == 0 and x[1] == 0) else 0
        assert indicator.at(x) == (expected,)


def test_tensor_product_series():
    s1 = BinomialSeries(1, {(1,): 2})
    s2 = BinomialSeries(1, {(0,): 1, (2,): 3})
    prod = tensor_product([s1, s2])
    assert prod.arity == 2
    for x in range(4):
        for y in range(4):
            assert prod.evaluate((x, y)) == s1.evaluate((x,)) * s2.evaluate((y,))


def test_integral_fixtures():
    assert integral(lambda x: 0, (5, 5)) == 0
    assert integral(lambda x: math.comb(x[0], 1), (4,)) == 6
    # Product integrands factor across coordinates.
    total = integral(lambda x: math.comb(x[0], 1) * math.comb(x[1], 2), (4, 8))
    assert total == 6 * sum(math.comb(t, 2) for t in range(8))


def test_integral_valuation_bound_for_series():
    # ord_p of the integral of a degree-capped series over the coordinate box
    # is at least the closed-form minimum valuation at that cap.
    rng = random.Random(17)
    alpha = make_partition([2, 1])
    for _ in range(25):
        cap = rng.randint(0, 6)
        support = []
        for n1 in range(cap + 1):
            for n2 in range(cap + 1 - n1):
                support.append((n1, n2))
        coeffs = {n: rng.randint(-8, 8) for n in rng.sample(support, k=min(4, len(support)))}
        series = BinomialSeries(2, {n: c for n, c in coeffs.items() if c})
        value = integral(series.evaluate, (4, 2))
        if value != 0:
            from axkatz.intmath import multiplicity

            assert multiplicity(2, value) >= vp_value(2, alpha, cap)


def test_zero_count_fixtures():
    assert zero_count([], Z42) == (8, {2: Degree.of(3)})
    parity = FiniteMap.from_callable(Z4, Z2, lambda x: (x[0] % 2,))
    count, ords = zero_count([parity])
    assert count == 2 and ords[2] == 1
    never = FiniteMap(Z4, Z2, ((1,),) * 4)
    count, ords = zero_count([never])
    assert count == 0 and ords[2] == INF
    with pytest.raises(ValueError):
        zero_count([])
    with pytest.raises(ValueError):
        zero_count([parity, FiniteMap(Z2, Z2, ((0,), (1,)))])
    # An explicit domain must be the maps' own, not just a group of the same order.
    assert zero_count([parity], Z4) == zero_count([parity])
    for other in (Z2, Z22, AbelianShape((3,))):
        with pytest.raises(ValueError, match="domain"):
            zero_count([parity], other)


def _definition_count(maps, domain):
    """Zeros counted from the definition: points where every map's value is 0."""
    return sum(1 for k in range(domain.order) if all(not any(f.values[k]) for f in maps))


# Composite-order and mixed-order domains next to p-groups; codomains of one
# and of two factors.
ZERO_SHAPES = [
    ((4, 2), (2,)),
    ((6,), (3,)),
    ((2, 3), (2, 2)),
    ((12,), (6,)),
    ((3, 5), (15,)),
    ((9,), (3, 3)),
]


@pytest.mark.parametrize("dom, cod", ZERO_SHAPES)
def test_zero_mask_and_count_match_the_definition(dom, cod):
    domain, codomain = AbelianShape(dom), AbelianShape(cod)
    rng = random.Random(f"{dom}{cod}")
    targets = enumerate_elements(codomain)
    zero = codomain.zero()
    zero_map = FiniteMap(domain, codomain, (zero,) * domain.order)
    for _ in range(40):
        maps = [
            FiniteMap(domain, codomain, tuple(rng.choice(targets) for _ in range(domain.order)))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.2:
            maps.append(zero_map)
        for f in maps:
            mask = zero_mask(f.values, zero)
            assert [bool(mask >> k & 1) for k in range(domain.order)] == [
                not any(v) for v in f.values
            ]
            assert mask >> domain.order == 0
        count, ords = zero_count(maps)
        assert count == _definition_count(maps, domain)
        assert sorted(ords) == sorted(factorize(domain.order))
        for q, o in ords.items():
            assert o == (INF if count == 0 else Degree.of(multiplicity(q, count)))
    assert zero_mask(zero_map.values, zero) == (1 << domain.order) - 1
    assert zero_count([zero_map])[0] == domain.order
    empty_count, empty_ords = zero_count([], domain)
    assert empty_count == _definition_count([], domain) == domain.order
    assert sorted(empty_ords) == sorted(factorize(domain.order))


def test_zero_mask_reads_int_tables():
    assert zero_mask([0, 1, 0, 2], 0) == 0b0101
    assert zero_mask([1, 1], 0) == 0
    assert zero_mask([], 0) == 0


def test_primary_split_and_assemble():
    Z6 = AbelianShape((6,))
    comp2 = FiniteMap(Z2, Z2, ((0,), (1,)))
    comp3 = FiniteMap(Z3, Z3, ((0,), (2,), (1,)))
    f = primary_assemble(Z6, Z6, {2: comp2, 3: comp3})
    split = primary_split(f)
    assert split is not None
    assert split[2] == comp2 and split[3] == comp3
    count, _ = zero_count([f])
    c2, _ = zero_count([comp2])
    c3, _ = zero_count([comp3])
    assert count == c2 * c3
    entangled = FiniteMap(Z6, Z6, ((0,), (2,), (4,), (1,), (3,), (5,)))
    assert primary_split(entangled) is None


Z6_HISTOGRAM = {INF: 46548, Degree.of(2): 72, Degree.of(1): 30, Degree.of(0): 5, NEG_INF: 1}


def test_degree_histogram_on_every_z6_table():
    # 108 of the 6^6 maps Z/6 -> Z/6 split: their components are one of the
    # 4 maps Z/2 -> Z/2 and one of the 27 maps Z/3 -> Z/3.
    Z6 = AbelianShape((6,))
    targets = enumerate_elements(Z6)
    histogram = collections.Counter(
        functional_degree(FiniteMap(Z6, Z6, values))
        for values in itertools.product(targets, repeat=6)
    )
    assert histogram == Z6_HISTOGRAM


@pytest.mark.parametrize(
    "domain, codomain",
    [
        ((4, 2), (4,)),  # a support box wider than the domain: the gather
        ((5,), (5,)),  # odd q: slots reduced by the carry
        ((2, 2), (2, 4)),  # two codomain slots
        ((3,), (27,)),
        ((2,), (128,)),  # q = 128 needs two-byte slots
        ((6,), (6,)),  # multi-prime: most tables do not split
        ((12,), (2,)),
    ],
)
def test_batch_degrees_match_single_tables(domain, codomain):
    domain, codomain = AbelianShape(domain), AbelianShape(codomain)
    tables = list(itertools.product(enumerate_elements(codomain), repeat=domain.order))
    batch = functional_degrees(domain, codomain, tables)
    assert batch == [functional_degree(FiniteMap(domain, codomain, t)) for t in tables]
    if domain == codomain == AbelianShape((6,)):
        assert collections.Counter(batch) == Z6_HISTOGRAM
    assert functional_degrees(domain, codomain, []) == []
    for values in (tables[0], tables[-1], tables[len(tables) // 3]):
        assert functional_degrees(domain, codomain, [values]) == [
            functional_degree(FiniteMap(domain, codomain, values))
        ]


def test_batch_past_a_patched_cap_names_the_first_offending_table(monkeypatch):
    # Z/6 -> Z/6 with every cap at 0: x -> 3x splits with degree 1 at 2 and
    # the zero map at 3, x -> 2x the other way round.  Whatever the primes'
    # order, the error names the first offending table of the batch.
    Z6 = AbelianShape((6,))
    zero, three, two = (tuple((k * x % 6,) for x in range(6)) for k in (0, 3, 2))
    real = calculus._sylow_plan
    monkeypatch.setattr(
        calculus,
        "_sylow_plan",
        lambda domain, codomain: tuple(
            _with_cap(comp, 0) for comp in real(domain, codomain)
        ),
    )
    for batch, values, prime in (([zero, two, three], two, 3), ([zero, three, two], three, 2)):
        with pytest.raises(ConsistencyError) as info:
            functional_degrees(Z6, Z6, batch)
        instance = info.value.instance
        assert (instance["values"], instance["prime"], instance["order"]) == (values, prime, 1)
    monkeypatch.undo()
    assert functional_degrees(Z6, Z6, [zero, three, two]) == [NEG_INF, Degree.of(1), Degree.of(1)]


@pytest.mark.parametrize("domain, codomain", [((6,), (6,)), ((12,), (2,))])
def test_primary_split_and_assemble_are_inverse_on_every_table(domain, codomain):
    domain, codomain = AbelianShape(domain), AbelianShape(codomain)
    split_count = 0
    for values in itertools.product(enumerate_elements(codomain), repeat=domain.order):
        f = FiniteMap(domain, codomain, values)
        split = primary_split(f)
        if split is not None:
            assert primary_assemble(domain, codomain, split) == f
            split_count += 1
    # Every tuple of component maps assembles to a map that splits back into it.
    primes = sorted(set(domain.primes()) | set(codomain.primes()))
    component_maps = []
    for p in primes:
        sylow_a, sylow_b = component_of(domain, p), component_of(codomain, p)
        component_maps.append(
            [
                FiniteMap(sylow_a, sylow_b, table)
                for table in itertools.product(enumerate_elements(sylow_b), repeat=sylow_a.order)
            ]
        )
    combos = 0
    for maps in itertools.product(*component_maps):
        components = dict(zip(primes, maps))
        assert primary_split(primary_assemble(domain, codomain, components)) == components
        combos += 1
    assert combos == split_count


@pytest.mark.parametrize("domain, cap", [(6, 1), (12, 3), (10, 1)])
def test_finite_degree_is_a_vanishing_difference_on_every_table(domain, cap):
    # cap is the largest component cap into Z/2: the degree of Z/2^a -> Z/2
    # is at most 2^a - 1.  A map has finite degree exactly when its
    # difference of order cap + 1 vanishes, and the degree is then the
    # largest order whose difference does not.
    shape = AbelianShape((domain,))
    for values in itertools.product(((0,), (1,)), repeat=domain):
        f = FiniteMap(shape, Z2, values)
        degree = functional_degree(f)
        assert (degree != INF) == iterated_difference(f, (cap + 1,)).is_zero
        if degree != INF:
            nonzero = [n for n in range(cap + 1) if not iterated_difference(f, (n,)).is_zero]
            assert degree == (Degree.of(max(nonzero)) if nonzero else NEG_INF)


# The degree and series routines share one forward-difference transform, and
# every exhaustive verification buckets maps by that degree; the tests below
# recompute both from the definition with iterated_difference instead.


def axis_widths(domain, codomain):
    """Per-axis order at which generator differences of any map must vanish.

    On the p-part Z/p^a of a factor, with p^beta the exponent of the
    codomain's p-part, that is p^a + (beta - 1)(p - 1)p^(a - 1); a factor
    takes the largest over its primes, and 1 where no prime is shared.
    """
    widths = []
    for m in domain.factors:
        width = 1
        for p, a in factorize(m).items():
            beta = max((multiplicity(p, q) for q in codomain.factors), default=0)
            if beta:
                width = max(width, p**a + (beta - 1) * (p - 1) * p ** (a - 1))
        widths.append(width)
    return widths


def degree_from_definition(f):
    """(degree, differences) from iterated_difference alone: differences[n]
    is the order-n difference table over the box of axis_widths, each one
    generator difference of an earlier one; the degree is +inf when the
    order-w_i difference along some axis is nonzero (so some n outside the
    box has a nonzero difference), else the largest |n| of a nonzero table."""
    widths = axis_widths(f.domain, f.codomain)
    units = [tuple(int(i == axis) for i in range(len(widths))) for axis in range(len(widths))]
    differences, best = {}, NEG_INF
    for n in itertools.product(*map(range, widths)):
        axis = max((i for i, k in enumerate(n) if k), default=None)
        if axis is None:
            differences[n] = f
        else:
            before = tuple(k - (i == axis) for i, k in enumerate(n))
            differences[n] = iterated_difference(differences[before], units[axis])
        if not differences[n].is_zero:
            best = max(best, Degree.of(sum(n)))
    for axis, w in enumerate(widths):
        corner = tuple((w - 1) * u for u in units[axis])
        if not iterated_difference(differences[corner], units[axis]).is_zero:
            return INF, differences
    return best, differences


def assert_matches_definition(f, monkeypatch, series=True):
    """The degree, and the series when asked, match the definition: one
    table held in one int, again with its row masks built as they are read
    (none cached), and in a batch of two.  Returns the degree."""
    degree, differences = degree_from_definition(f)
    assert functional_degree(f) == degree
    assert functional_degrees(f.domain, f.codomain, [f.values] * 2) == [degree] * 2
    if series:
        zero = f.codomain.zero()
        expected = {n: d.values[0] for n, d in differences.items() if d.values[0] != zero}
        assert series_coefficients(f) == expected
    with monkeypatch.context() as m:
        m.setattr(calculus, "_MASK_BYTES", 0)
        assert functional_degree(f) == degree
        if series:
            assert series_coefficients(f) == expected
    return degree


@pytest.mark.parametrize(
    "domain, codomain",
    [
        (Z4, Z2),
        (Z22, Z2),
        (Z3, Z3),
        (Z2, Z4),
        (Z4, AbelianShape((2, 2))),
    ],
)
def test_transform_matches_definition_exhaustive(domain, codomain, monkeypatch):
    targets = enumerate_elements(codomain)
    for values in itertools.product(targets, repeat=domain.order):
        assert_matches_definition(FiniteMap(domain, codomain, values), monkeypatch)


@pytest.mark.parametrize(
    "domain, codomain, count",
    [
        (AbelianShape((8, 8)), AbelianShape((4, 2)), 3),
        (AbelianShape((3, 3)), Z9, 6),
    ],
)
def test_transform_matches_definition_random(domain, codomain, count, monkeypatch):
    rng = random.Random(41)
    for _ in range(count):
        assert_matches_definition(random_map(domain, codomain, rng), monkeypatch)


def test_transform_matches_definition_mixed_order_split(monkeypatch):
    rng = random.Random(43)
    domain = AbelianShape((6, 4))
    codomain = AbelianShape((12,))
    for _ in range(6):
        comp2 = random_map(AbelianShape((2, 4)), Z4, rng)
        comp3 = random_map(Z3, Z3, rng)
        f = primary_assemble(domain, codomain, {2: comp2, 3: comp3})
        assert_matches_definition(f, monkeypatch, series=False)


@pytest.mark.parametrize(
    "domain, codomain",
    [
        ((9,), (3,)),  # odd q
        ((3, 3), (9,)),
        ((4, 4), (4,)),  # q = 2^k
        ((2,), (128,)),  # two-byte slots in the one-table box
        ((16, 16), (2,)),  # two-byte slots in the batch (|A| = 256)
        ((6,), (6,)),  # mixed orders: two Sylow components
    ],
)
def test_single_table_batch_and_definition_agree(domain, codomain, monkeypatch):
    # One table is stepped inside one int holding its box; a batch across
    # one int per cell with a slot per table.  Both agree with the
    # definition, on random, low-degree, constant and zero tables.
    domain, codomain = AbelianShape(domain), AbelianShape(codomain)
    rng = random.Random(sum(domain.factors) + sum(codomain.factors))
    tables = [random_map(domain, codomain, rng).values for _ in range(2)]
    one = tuple(1 for _ in codomain.factors)
    tables += (codomain.zero(),) * domain.order, (one,) * domain.order
    one_prime = len(calculus._sylow_plan(domain, codomain)) == 1
    if one_prime:
        cells = list(itertools.product(*map(range, domain.factors)))
        for top in (1, 2, 3):
            coeffs = {
                n: tuple(rng.randrange(q) for q in codomain.factors)
                for n in cells
                if sum(n) <= top
            }
            tables.append(reconstruct(domain, codomain, coeffs, INF).values)
    else:
        for _ in range(3):
            parts = {2: random_map(Z2, Z2, rng), 3: random_map(Z3, Z3, rng)}
            tables.append(primary_assemble(domain, codomain, parts).values)
    degrees = [
        assert_matches_definition(FiniteMap(domain, codomain, values), monkeypatch, one_prime)
        for values in tables
    ]
    assert len(set(degrees)) >= 3
    assert functional_degrees(domain, codomain, tables) == degrees
    packed = calculus.TableSet.of(domain, codomain, tables, len(tables))
    assert functional_degrees(domain, codomain, packed) == degrees


def test_one_table_makes_one_slot_wise_step_per_axis_step(monkeypatch):
    # (Z/8)^3 -> Z/2 has axis widths 8, 8, 8: held in one int, one table's
    # transform is sum(w_i - 1) = 21 slot-wise steps, not one per cell.
    f = random_map(AbelianShape((8, 8, 8)), Z2, random.Random(12))
    degree = functional_degree(f)
    steps = 0
    real = calculus._slot_difference

    def counted(*args):
        step = real(*args)

        def count(a, b):
            nonlocal steps
            steps += 1
            return step(a, b)

        return count

    monkeypatch.setattr(calculus, "_slot_difference", counted)
    assert functional_degree(f) == degree
    assert steps == 21


def test_exact_difference_box_stays_exact():
    # The exact transform keeps one plain int per cell: signs and sizes
    # survive, no slot or modulus cuts them.
    series = BinomialSeries(2, {(1, 0): -3, (0, 2): 5, (2, 2): -7})
    box = lift_difference_box(series, 3)
    assert box == {
        n: {(0, 2): 5, (1, 0): -3, (2, 2): -7}.get(n, 0)
        for n in itertools.product(range(3), repeat=2)
    }
    assert lift_difference_box(BinomialSeries(1, {(0,): 10**30}), 2) == {(0,): 10**30, (1,): 0}


def test_box_values_match_per_point_evaluation():
    # The summation transform gives every point's exact value, as evaluating
    # the series point by point does, also when the support passes the box.
    rng = random.Random(17)
    z333 = AbelianShape((3, 3, 3))
    lift = proper_lift(random_map(z333, Z9, rng))
    assert max(max(n) for n in lift.coeffs) >= 3  # axis width 5 exceeds 3
    cases = [
        (z333, lift),
        (z333, BinomialSeries(3, {})),
        (AbelianShape((4, 4)), BinomialSeries(2, {(1, 0): 10**30, (2, 1): -7, (0, 5): 3})),
        (Z42, proper_lift(random_map(Z42, Z4, rng))),
        (Z8, BinomialSeries(1, {(n,): 10**30 - n for n in range(12)})),
        (AbelianShape((9, 9)), proper_lift(random_map(AbelianShape((9, 9)), Z9, rng))),
    ]
    for domain, series in cases:
        expected = [series.evaluate(x) for x in enumerate_elements(domain)]
        assert calculus._box_values(domain, series) == expected


@pytest.mark.parametrize(
    "bad, message",
    [
        ({(0, 1, 2): 1}, "bad support point (0, 1, 2) for arity 2"),
        ({(0, -1): 1}, "bad support point (0, -1) for arity 2"),
        ({(9, 9): 1.5}, "coefficients must be integers, got 1.5"),
        ({(1.5, 0): 1}, "bad support point (1.5, 0) for arity 2"),
        ({(True, 5): 1}, "bad support point (True, 5) for arity 2"),
    ],
)
def test_binomial_series_checks_every_term(bad, message):
    # The per-term loop names the first bad term, wherever it stands.
    valid = {n: sum(n) - 3 for n in itertools.product(range(4), repeat=2)}
    for coeffs in (bad, {**valid, **bad}, {**bad, **valid}):
        with pytest.raises(ValueError) as info:
            BinomialSeries(2, coeffs)
        assert str(info.value) == message
    accepted = {**valid, (1, 1): True, (2, 2): _Small.ONE, (3, 3): 10**40}
    assert BinomialSeries(2, accepted).coeffs == accepted
