"""Closed-form bounds against fixtures and small brute-force scans."""

import gc
import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axkatz import (
    INF,
    AbelianShape,
    ConsistencyError,
    Degree,
    Partition,
    conjugate,
    geometric_sum,
    binomial_sum_valuation,
    bound_objective,
    bound_objective_minimum,
    brute_min_valuation,
    equal_exponent_bound,
    expand_targets,
    make_partition,
    make_targets,
    min_valuation,
    min_valuation_equal_exponent,
    multi_prime_bounds,
    polynomial_system_bound,
    product_valuation,
    step_cost_minimum,
    truncate,
    vp_value,
    weight_sequence,
    zero_count_bound,
)
from axkatz import bounds
from axkatz.cli import main
from axkatz.intmath import ceil_div, multiplicity


def test_binomial_sum_valuation_fixtures():
    assert binomial_sum_valuation(2, 3, 0) == 3
    assert binomial_sum_valuation(2, 3, 7) == 0
    assert binomial_sum_valuation(2, 3, 8) == INF
    assert binomial_sum_valuation(3, 2, 2) == 1
    alpha = make_partition([2, 1])
    assert product_valuation(2, alpha, (0, 0)) == 3
    assert product_valuation(2, alpha, (1, 0)) == 2
    assert product_valuation(2, alpha, (3, 1)) == 0
    assert product_valuation(2, alpha, (4, 0)) == INF
    # The vanishing test forms no power of a huge exponent.
    assert binomial_sum_valuation(7, 10**7, 1) == 10**7


def test_product_valuation_checks_every_coordinate_first():
    # (5, -1): the pair (2, 5) alone would already make the product vanish.
    alpha = make_partition([2, 1])
    for point in ((5, -1), (-1, 5)):
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            product_valuation(2, alpha, point)


def reference_product_valuation(p, alpha, point):
    """The per-row formula: one Counter entry per (part, coordinate) pair."""
    total = 0
    for (a, n), copies in Counter(zip(alpha, point)).items():
        term = binomial_sum_valuation(p, a, n)
        if term == INF:
            return INF
        total += copies * term.value
    return Degree.of(total)


@st.composite
def valued_points(draw):
    """A prime, a partition and a point of at most p^a - 1 on each row of part a.

    Each run of equal parts keeps its coordinates in drawn order (repeats out
    of order), or sorts them falling or rising; an infinite-valuation pair
    may be put first or last.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    alpha = make_partition(draw(st.lists(st.integers(1, 4), min_size=1, max_size=40)))
    point = [
        draw(st.one_of(st.sampled_from([0, 1, p - 1, p**a - 1]), st.integers(0, p**a - 1)))
        for a in alpha
    ]
    falling = draw(st.sampled_from([None, True, False]))
    if falling is not None:
        for a in set(alpha):
            lo = alpha.parts.index(a)
            hi = lo + alpha.parts.count(a)
            point[lo:hi] = sorted(point[lo:hi], reverse=falling)
    infinite = draw(st.sampled_from([None, 0, -1]))
    if infinite is not None:
        point[infinite] = p ** alpha[infinite] + draw(st.integers(0, 2))
    return p, alpha, tuple(point)


@settings(max_examples=400, deadline=None)
@given(valued_points())
@example((2, make_partition([1, 1, 1]), (1, 0, 1)))  # a value back after a fall
@example((3, make_partition([2, 2, 2, 1]), (0, 1, 8, 2)))  # a rise inside a run
def test_product_valuation_matches_per_row_counts(case):
    p, alpha, point = case
    assert product_valuation(p, alpha, point) == reference_product_valuation(p, alpha, point)
    pairs = bounds._pair_counts(alpha, point)
    assert list(pairs.items()) == list(Counter(zip(alpha, point)).items())


def test_min_valuation_fixtures():
    alpha = make_partition([2, 1])
    w = min_valuation(2, alpha, 0)
    assert (w.value, w.t, w.point) == (3, 0, (0, 0))
    assert min_valuation(2, alpha, 100).value == 0
    fig1 = min_valuation(2, make_partition([6, 5, 3, 1]), 18)
    assert (fig1.value, fig1.t) == (6, 9)
    fig2 = min_valuation(2, make_partition([6, 5, 4, 2, 2, 1]), 24)
    assert (fig2.t, fig2.full_columns, fig2.extra_dots) == (13, 2, 2)
    assert fig2.mu == (3, 3, 2, 2, 2, 1)
    assert fig2.value == 7
    assert min_valuation(3, make_partition([2, 2]), float("inf")).value == 0


def test_min_valuation_positivity_criterion():
    # Positive minimum exactly when the budget is below the box diagonal sum.
    for p in (2, 3):
        for parts in [[1], [2], [2, 1], [3, 1], [2, 2, 1]]:
            alpha = make_partition(parts)
            edge = sum(p**a - 1 for a in alpha)
            assert vp_value(p, alpha, edge - 1) > 0
            assert vp_value(p, alpha, edge) == 0


def test_min_valuation_monotone():
    alpha = make_partition([3, 2])
    values = [vp_value(2, alpha, budget) for budget in range(0, 14)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    grown = make_partition([4, 2])
    assert all(
        vp_value(2, grown, budget) >= vp_value(2, alpha, budget) for budget in range(0, 14)
    )


def test_min_valuation_matches_brute_small():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([2, 3])
        alpha = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
        budget = rng.randint(0, sum(p**a - 1 for a in alpha) + 3)
        assert min_valuation(p, alpha, budget).value == brute_min_valuation(p, alpha, budget)


def test_min_valuation_equal_exponent_fixtures():
    # Exponent 1 collapses to copies minus the affordable step count.
    for p, copies, budget in [(2, 4, 0), (2, 4, 3), (3, 5, 7), (5, 2, 100)]:
        expected = max(copies - budget // (p - 1), 0)
        assert min_valuation_equal_exponent(p, copies, 1, budget) == expected
    assert min_valuation_equal_exponent(2, 3, 2, 6) == 2
    assert min_valuation_equal_exponent(2, 3, 2, 3 * (2**2 - 1)) == 0


def test_min_valuation_equal_exponent_random_agreement():
    rng = random.Random(8)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        copies = rng.randint(1, 4)
        exponent = rng.randint(1, 3)
        budget = rng.randint(0, copies * (p**exponent - 1) + 4)
        alpha = make_partition([exponent] * copies)
        assert min_valuation_equal_exponent(p, copies, exponent, budget) == vp_value(
            p, alpha, budget
        )


def brute_step_cost(costs, credits, budget, window):
    def credit_at(s):
        return credits[s - 1] if s <= len(credits) else credits[-1]

    best = None
    argmin = None
    for s in range(window + 1):
        have = sum(credit_at(i) for i in range(1, s + 1)) + budget
        reach = 0
        total = 0
        for t, c in enumerate(costs, start=1):
            total += c
            if total <= have:
                reach = t
        if best is None or s - reach < best:
            best, argmin = s - reach, s
    return argmin, best


def test_step_cost_minimum_fixtures():
    assert step_cost_minimum((1, 1, 2), (2,), 0) == (2, -1)
    costs = (1, 1, 2)
    assert step_cost_minimum(costs, (2, 2), sum(costs)) == (0, -3)
    assert step_cost_minimum((1,), (1,), 0) == (1, 0)


def test_step_cost_minimum_validation():
    with pytest.raises(ValueError):
        step_cost_minimum((2, 1), (2,), 0)  # costs not increasing
    with pytest.raises(ValueError):
        step_cost_minimum((1,), (1, 2), 0)  # credits not decreasing
    with pytest.raises(ValueError):
        step_cost_minimum((3,), (2,), 0)  # first cost above first credit
    with pytest.raises(ValueError):
        step_cost_minimum((1, 1, 1, 1), (3, 1), 0)  # credits move before s0


def test_step_cost_minimum_matches_brute():
    rng = random.Random(4)
    checked = 0
    while checked < 120:
        length = rng.randint(1, 6)
        costs = sorted(rng.randint(1, 6) for _ in range(length))
        first = rng.randint(costs[0], 8)
        credits = [first] * rng.randint(1, 6)
        while len(credits) < 8 and rng.random() < 0.5:
            credits.append(rng.randint(1, credits[-1]))
        budget = rng.randint(0, 12)
        try:
            s0, minimum = step_cost_minimum(tuple(costs), tuple(credits), budget)
        except ValueError:
            continue  # generated credits moved before s0; not a valid instance
        window = len(costs) + ceil_div(budget, min(credits)) + 5
        argmin, brute = brute_step_cost(costs, credits, budget, window)
        assert minimum == brute
        checked += 1


def test_bound_objective_fixtures():
    alpha = make_partition([2, 1])
    targets = make_targets(2, [(1, 1)])
    assert bound_objective(alpha, targets, (0,)) == 3
    assert bound_objective(alpha, targets, (1,)) == 2
    assert bound_objective(alpha, targets, (3,)) == 3
    with pytest.raises(ValueError):
        bound_objective(alpha, targets, (1, 1))


def test_bound_objective_minimum_fixtures():
    assert bound_objective_minimum(make_partition([2, 1]), make_targets(2, [(1, 1)]), 3) == 2
    assert bound_objective_minimum(make_partition([1, 1]), make_targets(2, [(1, 2)]), 1) == 0
    assert bound_objective_minimum(make_partition([3]), make_targets(2, [(1, 1)]), 3) == 2
    with pytest.raises(ValueError):
        bound_objective_minimum(make_partition([2, 1]), make_targets(2, [(1, 1)]), 1)
    # The surplus case names its step count, the deficit case s0 = 0.
    for parts, beta, message in [
        ([2, 1], 1, "beta must exceed s0 = 1, got 1"),
        ([3], 0, "beta must exceed s0 = 0, got 0"),
    ]:
        with pytest.raises(ValueError) as info:
            bound_objective_minimum(make_partition(parts), make_targets(2, [(1, 1)]), beta)
        assert str(info.value) == message


def test_target_spec_ordering_and_measures():
    targets = make_targets(2, [(1, 1), (2, 1), (1, 4)])
    assert targets.targets == ((1, 4), (2, 1), (1, 1))  # keys 8, 4, 2
    # Equal keys break ties toward the larger exponent.
    tied = make_targets(2, [(1, 2), (2, 1)])
    assert tied.targets == ((2, 1), (1, 2))
    spec = make_targets(3, [(2, 2), (1, 1)])
    assert spec.measure == 2 * 4 + 1
    assert spec.level == 2 + 0
    with pytest.raises(ValueError):
        make_targets(2, [])
    with pytest.raises(ValueError):
        make_targets(2, [(0, 1)])


@pytest.mark.parametrize("value", [1.5, True, "2"])
def test_targets_must_hold_ints(value):
    # Both public constructors name a cap or exponent that is not an int,
    # before make_targets sorts by d * p^beta.
    for pair, name in [((1, value), "a degree cap"), ((value, 1), "a target exponent")]:
        for build in (lambda: make_targets(2, [pair]), lambda: bounds.TargetSpec(2, (pair,))):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_zero_count_bound_fixtures():
    report = zero_count_bound(make_partition([2, 1]), make_targets(2, [(1, 1)]))
    assert (report.a_measure, report.b_measure, report.level) == (4, 1, 1)
    assert report.truncated.parts == (1, 1)
    assert report.truncated_measure == 2
    assert report.case == "first" and report.bound == 2
    cw = zero_count_bound(make_partition([1, 1, 1]), make_targets(2, [(1, 2)]))
    assert cw.bound == 1
    flat = zero_count_bound(make_partition([1, 1]), make_targets(2, [(1, 2)]))
    assert flat.bound == 0 and flat.case == "second"
    deep = zero_count_bound(make_partition([3]), make_targets(2, [(1, 1)]))
    assert deep.bound == 2 and deep.case == "second" and deep.t_star == 1


def test_zero_count_bound_matches_objective_minimum():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice([2, 3])
        alpha = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
        targets = make_targets(
            p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        )
        report = zero_count_bound(alpha, targets)
        beta = (report.s0 or 0) + rng.randint(1, 2)
        assert report.bound == bound_objective_minimum(alpha, targets, beta)


def test_bounds_read_sizes_off_the_columns(monkeypatch):
    # |alpha| and |alpha_breve| are sums of column counts: with Partition.size
    # failing, every closed form returns what it returned before.
    rng = random.Random(16)
    cases = []
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        parts = [rng.randint(1, 6) for _ in range(rng.randint(1, 30))]
        pairs = [(rng.randint(1, 3), rng.randint(1, 60)) for _ in range(rng.randint(1, 3))]
        budget = rng.randint(0, 2 * (p - 1) * geometric_sum(make_partition(parts), p))
        cases.append((p, parts, pairs, budget))

    def run(p, parts, pairs, budget):
        alpha, targets = make_partition(parts), make_targets(p, pairs)
        report = zero_count_bound(alpha, targets)
        beta = (report.s0 or 0) + 1
        return (
            report,
            vp_value(p, alpha, budget),
            min_valuation(p, alpha, budget),
            bound_objective_minimum(alpha, targets, beta),
        )

    expected = list(map(run, *zip(*cases)))
    assert {report.case for report, *_ in expected} == {"first", "second"}

    def fail(self):
        raise AssertionError("Partition.size was read")

    monkeypatch.setattr(Partition, "size", property(fail))
    assert list(map(run, *zip(*cases))) == expected


def test_positive_bound_iff_source_exceeds_targets():
    rng = random.Random(19)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        alpha = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        targets = make_targets(
            p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        )
        report = zero_count_bound(alpha, targets)
        if report.a_measure > report.b_measure:
            assert report.bound >= 1
        else:
            assert report.bound == 0


def test_measures_match_geometric_sums():
    # zero_count_bound reads A and Abreve off the columns of alpha, and
    # builds the truncation without the checks of Partition.
    rng = random.Random(14)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 101])
        alpha = make_partition([rng.randint(1, 9) for _ in range(rng.randint(1, 12))])
        targets = make_targets(
            p, [(rng.randint(1, 9), rng.randint(1, 200)) for _ in range(rng.randint(1, 3))]
        )
        report = zero_count_bound(alpha, targets)
        truncated = make_partition(min(a, report.level) for a in alpha)
        assert report.truncated == truncated
        assert report.a_measure == geometric_sum(alpha, p)
        assert report.truncated_measure == geometric_sum(truncated, p)


def test_flat_exponent_recovery():
    # All-ones partitions recover the prime-field style ceiling formula.
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3])
        n = rng.randint(1, 8)
        targets = make_targets(
            p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        )
        report = zero_count_bound(make_partition([1] * n), targets)
        d1, beta1 = report.targets.d1, report.targets.beta1
        expected = max(ceil_div(n - report.b_measure, d1 * p ** (beta1 - 1)), 0)
        assert report.bound == expected


def test_equal_exponent_bound_fixtures():
    assert equal_exponent_bound(2, 2, 2, make_targets(2, [(1, 3)])) == 1
    # Exponent 1 agrees with the flat recovery above.
    assert equal_exponent_bound(2, 5, 1, make_targets(2, [(1, 2)])) == 2
    with pytest.raises(ValueError):
        equal_exponent_bound(3, 2, 2, make_targets(2, [(1, 1)]))


def test_equal_exponent_bound_random_agreement():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3])
        copies = rng.randint(1, 4)
        exponent = rng.randint(1, 3)
        targets = make_targets(
            p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        )
        general = zero_count_bound(make_partition([exponent] * copies), targets).bound
        assert equal_exponent_bound(p, copies, exponent, targets) == general


def test_expand_targets():
    spec = expand_targets(2, [(AbelianShape((4, 2)), 3)])
    assert spec.targets == ((2, 3), (1, 3))
    single = expand_targets(3, [(AbelianShape((9,)), 2)])
    assert single.targets == ((2, 2),)
    mixed = expand_targets(2, [(AbelianShape((4, 2)), 3), (AbelianShape((2,)), 1)])
    assert mixed.measure == 3 * (3 + 1) + 1
    with pytest.raises(ValueError):
        expand_targets(2, [(AbelianShape((6,)), 1)])


def test_multi_prime_bounds_fixtures():
    mp = multi_prime_bounds(AbelianShape((6,)), [(AbelianShape((6,)), 1)])
    assert {q: e.bound for q, e in mp.items()} == {2: 0, 3: 0}
    assert not any(e.empty_system for e in mp.values())

    mp2 = multi_prime_bounds(AbelianShape((6, 6, 6)), [(AbelianShape((2,)), 2)])
    assert mp2[2].bound == 1 and not mp2[2].empty_system
    assert mp2[3].bound == 3 and mp2[3].empty_system and mp2[3].report is None

    solo = multi_prime_bounds(AbelianShape((4, 2)), [(AbelianShape((2,)), 1)])
    direct = zero_count_bound(make_partition([2, 1]), make_targets(2, [(1, 1)]))
    assert solo[2].bound == direct.bound

    with pytest.raises(ValueError):
        multi_prime_bounds(AbelianShape(()), [(AbelianShape((2,)), 1)])


def test_polynomial_system_bound_fixtures():
    reports = polynomial_system_bound(4, 10, [2])
    assert set(reports) == {2}
    assert reports[2].bound == 6
    prime_field = polynomial_system_bound(3, 7, [1, 2])
    assert prime_field[3].bound == max(ceil_div(7 - 3, 2), 0)
    with pytest.raises(ValueError):
        polynomial_system_bound(1, 3, [1])
    with pytest.raises(ValueError):
        polynomial_system_bound(4, 3, [])


def test_polynomial_system_partitions_match_the_checked_constructor():
    # The n copies of each prime's exponent are built without the checks of
    # Partition; rebuilt through make_partition, each must pass and be equal.
    rng = random.Random(14)
    for _ in range(40):
        picked = rng.sample([2, 3, 5, 7, 999983, 10**9 + 7], rng.randint(1, 3))
        modulus = math.prod(q ** rng.randint(1, 3 if q < 10 else 1) for q in picked)
        n, degrees = rng.randint(1, 300), [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        reports = polynomial_system_bound(modulus, n, degrees)
        assert list(reports) == sorted(picked)
        for q, report in reports.items():
            e = multiplicity(q, modulus)
            assert report.alpha == make_partition([e] * n)
            assert set(map(type, report.alpha)) == {int}


def test_polynomial_system_bound_asymptotic_growth():
    boundsByN = [polynomial_system_bound(12, n, [2, 1])[2].bound for n in range(1, 61)]
    assert all(b <= a for b, a in zip(boundsByN, boundsByN[1:]))
    assert boundsByN[-1] > boundsByN[0]
    assert boundsByN[-1] >= 10


def test_bound_report_json_roundtrip_fields():
    report = zero_count_bound(make_partition([2, 1]), make_targets(2, [(1, 1)]))
    data = report.to_json_dict()
    assert data["A"] == 4 and data["B"] == 1 and data["Abreve"] == 2
    assert data["case"] == "first" and data["bound"] == 2
    assert data["alpha"] == [2, 1] and data["targets"] == [[1, 1]]


def reference_prefix_count(p, alpha, budget, scale):
    """Largest t with scale * (weight of the first t dots) <= budget, by bisection."""
    prefix = weight_sequence(alpha, p).prefix_sums()
    return bisect_right([scale * w for w in prefix], budget) - 1


def reference_witness(p, alpha, t):
    """Per-row counts of the first t Ferrers dots in column order, and p^mu - 1."""
    dots = [i for j in range(1, alpha.width + 1) for i, a in enumerate(alpha) if a >= j]
    mu = [0] * len(alpha)
    for i in dots[:t]:
        mu[i] += 1
    return tuple(mu), tuple(p**m - 1 for m in mu)


column_cases = st.tuples(
    st.lists(st.integers(1, 8), min_size=1, max_size=60).map(make_partition),
    st.sampled_from([2, 3, 5, 101]),
).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.just(case[1]),
        st.one_of(
            st.integers(0, 2 * (case[1] - 1) * geometric_sum(case[0], case[1])),
            st.just(math.inf),
        ),
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, geometric_sum(case[0], case[1]))),
            min_size=1,
            max_size=3,
        ),
    )
)


WIDE = make_partition(random.Random(20).randint(1, 12) for _ in range(10**4))


@settings(max_examples=300, deadline=None)
@given(column_cases)
@example((WIDE, 3, geometric_sum(WIDE, 3), [(2, 7), (1, 40)]))
def test_column_route_matches_weight_sequence(case):
    alpha, p, budget, pairs = case
    t = reference_prefix_count(p, alpha, budget, p - 1)
    assert vp_value(p, alpha, budget) == alpha.size - t
    witness = min_valuation(p, alpha, budget)
    mu, point = reference_witness(p, alpha, t)
    assert (witness.t, witness.value, witness.mu, witness.point) == (t, alpha.size - t, mu, point)
    if math.prod(p**a for a in alpha) <= 4096:
        assert witness.value == brute_min_valuation(p, alpha, budget)

    targets = make_targets(p, pairs)
    report = zero_count_bound(alpha, targets)
    if report.case == "second":
        t_star = reference_prefix_count(p, alpha, targets.measure, 1)
        assert report.t_star == t_star
        assert report.raw_bound == alpha.size - t_star
    else:
        truncated = truncate(alpha, report.level)
        surplus = geometric_sum(truncated, p) - targets.measure
        s0 = ceil_div(surplus, targets.d1 * p ** (targets.beta1 - 1))
        assert surplus > 0 and report.s0 == s0
        assert report.raw_bound == s0 + alpha.size - sum(truncated.parts)
        assert report.truncated.size == sum(truncated.parts)


def test_bounds_keep_no_per_partition_state():
    rng = random.Random(37)
    targets = make_targets(3, [(1, 5000)])

    def run_fresh():
        alpha = make_partition([rng.randint(1, 4) for _ in range(10**4)])
        budget = rng.randint(0, 2 * geometric_sum(alpha, 3))
        vp_value(3, alpha, budget)
        witness = min_valuation(3, alpha, budget)
        product_valuation(3, alpha, witness.point)
        zero_count_bound(alpha, targets)

    run_fresh()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(30):
            run_fresh()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20


def test_consistency_error_carries_a_replayable_instance(monkeypatch, capsys):
    alpha = make_partition([6, 5, 4, 2, 2, 1])
    monkeypatch.setattr(bounds, "product_valuation", lambda p, alpha, point: INF)
    with pytest.raises(ConsistencyError) as info:
        min_valuation(2, alpha, 24)
    instance = info.value.instance
    assert instance == {"p": 2, "columns": [6, 5, 3, 3, 2, 1], "budget": 24}
    assert conjugate(Partition(tuple(instance["columns"]))) == alpha
    assert '"columns": [6, 5, 3, 3, 2, 1]' in str(info.value)
    with pytest.raises(ConsistencyError) as replayed:
        min_valuation(instance["p"], conjugate(Partition(tuple(instance["columns"]))),
                      instance["budget"])
    assert replayed.value.instance == instance

    code = main(["vp", "--p", "2", "--alpha", "6,5,4,2,2,1", "--D", "24"])
    err = capsys.readouterr().err
    assert code == 1 and "consistency failure" in err and '"budget": 24' in err


def test_an_infinite_budget_takes_every_column_at_once(monkeypatch):
    # A part of 10^5 took 2.3 s in vp_value and 4.4 s in min_valuation, walking
    # every column and weighing every dot for a bracket that nothing can miss.
    alpha = make_partition([10**5])
    assert bounds._column_walk(alpha.columns, 7, 6, math.inf) == (10**5, 10**5, 0)
    assert vp_value(7, alpha, math.inf) == 0

    def weighed(*args):
        raise AssertionError("an infinite budget weighed a dot prefix")

    monkeypatch.setattr(bounds, "_dot_prefix_weight", weighed)
    witness = min_valuation(7, alpha, math.inf)
    assert (witness.value, witness.t, witness.mu) == (0, 10**5, (10**5,))
    assert witness.point == (7**100000 - 1,)
    # The bracket still holds the walk to every dot.
    monkeypatch.setattr(bounds, "_column_walk", lambda columns, p, scale, budget: (5, 10**5, 0))
    with pytest.raises(ConsistencyError, match="column selection of 5 dots"):
        min_valuation(7, alpha, math.inf)


def test_each_prime_is_tested_once(monkeypatch):
    # expand_targets tests its prime once; multi_prime_bounds and
    # polynomial_system_bound take theirs from factorize and test none.
    # Their targets are those of make_targets, which keeps every check.
    calls = []
    real = bounds.check_prime
    monkeypatch.setattr(bounds, "check_prime", lambda p: calls.append(p) or real(p))
    spec = expand_targets(2, [(AbelianShape((4, 2)), 1), (AbelianShape((8,)), 2)])
    assert calls == [2]
    calls.clear()
    mixed = multi_prime_bounds(
        AbelianShape((12, 5)), [(AbelianShape((6,)), 2), (AbelianShape((10, 4)), 1)]
    )
    poly = polynomial_system_bound(360, 2, [2, 3])
    assert calls == []
    monkeypatch.undo()
    assert spec == make_targets(2, [(2, 1), (1, 1), (3, 2)])
    assert mixed[2].report.targets == make_targets(2, [(1, 2), (1, 1), (2, 1)])
    assert mixed[3].report.targets == make_targets(3, [(1, 2)])
    assert mixed[5].report.targets == make_targets(5, [(1, 1)])
    for q, e in ((2, 3), (3, 2), (5, 1)):
        assert poly[q].targets == make_targets(q, [(e, 2), (e, 3)])


def test_target_validation_is_shared():
    for shaped, message in [
        ([(AbelianShape(()), 1)], "target shapes must be nontrivial"),
        ([(AbelianShape((2,)), 0)], "degree caps must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            expand_targets(2, shaped)
        with pytest.raises(ValueError, match=message):
            multi_prime_bounds(AbelianShape((6,)), shaped)
