"""Every public constructor and JSON reader, fed JSON-like values, either
rejects them with ValueError or ResourceLimitError or builds a value whose
JSON form and one cheap public operation work."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axkatz import (
    AbelianShape,
    BinomialSeries,
    FiniteMap,
    Partition,
    PolySystem,
    ResourceLimitError,
    TargetSpec,
    bound_objective_minimum,
    brute_objective_minimum,
    functions_by_degree,
    make_partition,
    make_targets,
    min_valuation,
    min_valuation_equal_exponent,
    objective_box,
    product_valuation,
    sample_bounded_maps,
    verify_bound,
    vp_value,
    zero_count_trace,
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=2),
)
JSON_LIKE = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


def _tupled(value):
    """The value with every list made a tuple, as the constructors take them."""
    return tuple(map(_tupled, value)) if isinstance(value, list) else value


# JSON-like values as JSON gives them (lists) and as the constructors take them.
VALUES = st.one_of(JSON_LIKE, JSON_LIKE.map(_tupled))


def _built(build):
    """build(), or None when it rejects its input as it should."""
    try:
        return build()
    except (ValueError, ResourceLimitError):
        return None


def _works(*calls):
    """Run each call on an accepted value: it may refuse its work with
    ValueError, ArithmeticError or ResourceLimitError, and anything else,
    TypeError and IndexError included, fails the test."""
    for call in calls:
        try:
            call()
        except (ValueError, ArithmeticError, ResourceLimitError):
            pass


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_partition_and_shape_reject_or_work(value):
    alpha = _built(lambda: Partition(value))
    if alpha is not None:
        _works(alpha.to_json, lambda: hash(alpha), lambda: alpha.size + alpha.width)
    shape = _built(lambda: AbelianShape(value))
    if shape is not None:
        _works(shape.to_json, lambda: hash(shape), shape.zero, lambda: shape.is_trivial)


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES)
def test_targets_reject_or_work(p, targets):
    for build in (lambda: TargetSpec(p, targets), lambda: make_targets(p, targets)):
        spec = _built(build)
        if spec is not None:
            _works(spec.to_json, lambda: hash(spec), lambda: spec.level)


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES, VALUES)
def test_finite_maps_reject_or_work(domain, codomain, values):
    shapes = [_built(lambda: AbelianShape(_tupled(factors))) for factors in (domain, codomain)]
    data = {"domain": domain, "codomain": codomain, "values": values}
    builds = [lambda: FiniteMap.from_json_dict(data), lambda: FiniteMap.from_json_dict(values)]
    if None not in shapes:
        builds.append(lambda: FiniteMap(*shapes, values))
    for build in builds:
        f = _built(build)
        if f is not None:
            _works(f.to_json_dict, lambda: hash(f), lambda: f.is_zero, lambda: f.at(f.domain.zero()))


@settings(max_examples=300, deadline=None)
@given(VALUES, st.dictionaries(JSON_LIKE.map(_tupled), SCALARS, max_size=3), VALUES)
def test_binomial_series_reject_or_work(arity, coeffs, other):
    for build in (lambda: BinomialSeries(arity, coeffs), lambda: BinomialSeries(arity, other)):
        series = _built(build)
        if series is not None:
            _works(series.degree, lambda: series.evaluate((3,) * min(series.arity, 8)))


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES, VALUES, VALUES)
def test_poly_systems_reject_or_work(modulus, nvars, polys, degrees):
    data = {"modulus": modulus, "nvars": nvars, "polys": polys, "degrees": degrees}
    for build in (
        lambda: PolySystem(modulus, nvars, polys, degrees),
        lambda: PolySystem(modulus, nvars, _tupled(polys), _tupled(degrees)),
        lambda: PolySystem.from_json_dict(data),
        lambda: PolySystem.from_json_dict(polys),
    ):
        system = _built(build)
        if system is not None:
            _works(lambda: PolySystem.from_json_dict(system.to_json_dict()) == system)


Z2, Z4 = AbelianShape((2,)), AbelianShape((4,))
IDENTITY = FiniteMap(Z4, Z4, tuple((x,) for x in range(4)))
ALPHA = make_partition([1])


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE)
def test_trace_beta_and_degree_caps_take_ints_only(value):
    # A bool is no int here; beta and max_degree take None as their default.
    integral = isinstance(value, int) and not isinstance(value, bool)
    for build, show, default in (
        (lambda: zero_count_trace([IDENTITY], beta=value), lambda r: r.to_json_dict(), True),
        (lambda: functions_by_degree(Z2, Z2, max_degree=value), lambda r: list(r), True),
        (lambda: sample_bounded_maps(Z2, Z4, value, random.Random(1), 2), list, False),
        (lambda: make_targets(2, [(1, value)]), lambda r: r.to_json(), False),
        (lambda: verify_bound(2, ALPHA, [(Z2, value)]), lambda r: r.to_json_dict(), False),
    ):
        result = _built(build)
        if result is not None:
            assert integral or (default and value is None), (value, result)
            _works(lambda: show(result))


TARGETS = make_targets(2, [(1, 1)])


@settings(max_examples=200, deadline=None)
@given(JSON_LIKE)
def test_objective_beta_takes_ints_only(value):
    # 2.5 was taken as a box cap, and True as beta = 1.
    integral = isinstance(value, int) and not isinstance(value, bool)
    for build in (
        lambda: objective_box(TARGETS, value),
        lambda: bound_objective_minimum(ALPHA, TARGETS, value),
        lambda: brute_objective_minimum(ALPHA, TARGETS, value),
    ):
        result = _built(build)
        assert result is None or integral, (value, result)


def test_objective_beta_rejections():
    for beta in (2.5, True, 1.0, "2", None):
        for call in (
            lambda: objective_box(TARGETS, beta),
            lambda: bound_objective_minimum(ALPHA, TARGETS, beta),
            lambda: brute_objective_minimum(ALPHA, TARGETS, beta),
        ):
            with pytest.raises(ValueError, match="beta must be an integer"):
                call()
    assert objective_box(TARGETS, 2) == (2,)
    assert brute_objective_minimum(ALPHA, TARGETS, 2) == (0, (1,))
    assert bound_objective_minimum(ALPHA, TARGETS, 2) == 0


TWO_ROWS = make_partition([2, 1])


@settings(max_examples=300, deadline=None)
@given(JSON_LIKE)
def test_budgets_and_points_reject_or_work(value):
    # A budget is a nonnegative int or float other than a bool or NaN; a
    # point holds int coordinates other than bools, or runs of them.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    budget = number and value >= 0
    for call in (
        lambda: vp_value(2, TWO_ROWS, value),
        lambda: min_valuation(2, TWO_ROWS, value).to_json_dict(),
        lambda: min_valuation_equal_exponent(2, 3, 2, value),
    ):
        result = _built(call)
        assert (result is not None) == budget, (value, result)
    point = _tupled(value)
    result = _built(lambda: product_valuation(2, TWO_ROWS, point))
    if result is not None:
        coordinates = [run[0] for run in point] if isinstance(point[0], tuple) else point
        assert all(type(n) is int for n in coordinates), (point, result)


def test_budget_rejections():
    # NaN passed every comparison (value 0 at the point (3, 1)), True was
    # taken as 1 and "3" escaped as TypeError.
    for budget in (math.nan, True, False, "3", None, -1, -math.inf, (3,)):
        for call in (
            lambda: vp_value(2, TWO_ROWS, budget),
            lambda: min_valuation(2, TWO_ROWS, budget),
            lambda: min_valuation_equal_exponent(2, 3, 2, budget),
        ):
            with pytest.raises(ValueError, match="budget must be a nonnegative number or inf"):
                call()
    # A finite float budget is taken as its floor, inf as no budget at all.
    assert min_valuation(2, TWO_ROWS, 2.5) == min_valuation(2, TWO_ROWS, 2)
    assert vp_value(2, TWO_ROWS, 2.5) == vp_value(2, TWO_ROWS, 2) == 1
    assert min_valuation_equal_exponent(2, 3, 2, 6.5) == min_valuation_equal_exponent(2, 3, 2, 6)
    assert min_valuation(2, TWO_ROWS, math.inf).point == (3, 1)


def test_point_rejections():
    # (1.5, 0) raised AttributeError, "ab" TypeError, and (True, 0) was
    # valued as (1, 0); each is refused before any pair is valued.
    cases = [
        ((1.5, 0), "a coordinate must be an integer, got 1.5"),
        ((0, True), "a coordinate must be an integer, got True"),
        ((True, 0), "a coordinate must be an integer, got True"),
        ((4, 1.0), "a coordinate must be an integer, got 1.0"),
        ((4, -1), "n must be nonnegative, got -1"),
        ("ab", "a point must be a tuple or list, got 'ab'"),
        (None, "a point must be a tuple or list, got None"),
        (((1.5, 2),), "a coordinate must be an integer, got 1.5"),
        (((True, 1), (0, 1)), "a coordinate must be an integer, got True"),
        (((1, 2), 0), r"point runs must be pairs \(coordinate, rows >= 1\), got 0"),
        (((1, 0), (1, 2)), r"got \(1, 0\)"),
        (((1, True), (1, 1)), r"got \(1, True\)"),
        (((1, 1.0), (1, 1)), r"got \(1, 1.0\)"),
        (((1, 2, 3),), r"got \(1, 2, 3\)"),
        (((1, 3),), "expected 2 coordinates, got 3"),
    ]
    for point, message in cases:
        with pytest.raises(ValueError, match=message):
            product_valuation(2, TWO_ROWS, point)
    assert product_valuation(2, TWO_ROWS, [3, 1]) == product_valuation(2, TWO_ROWS, ((3, 1), (1, 1)))
