"""The min-plus oracles against the box enumerations they replace, and their reach.

``brute_min_valuation`` convolves the parts' exact column-sum valuation
tables and ``brute_objective_minimum`` folds in the targets' carry floors;
neither enumerates a box.  The enumerations they replaced are kept here as
references, and every box the suite enumerated before is compared with
them, value and first minimizer.  Past the enumeration's reach the oracles
are compared with the closed forms: every partition of size <= N_p, whole
profiles of boxes of 10^16 points, and objective boxes of millions of points.
"""

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axkatz import (
    ResourceLimitError,
    bound_objective,
    brute_min_valuation,
    brute_objective_minimum,
    make_partition,
    make_targets,
    min_valuation,
    objective_box,
    step_cost_minimum,
    vp_value,
    zero_count_bound,
)
from axkatz import oracle

# The largest size N_p at which every partition is checked at every budget:
# past it a part's column-sum table exceeds oracle.COLUMN_TABLE_CAP (p >= 3),
# or the check takes more than a few seconds (p = 2).
REACH = {2: 13, 3: 8, 5: 6, 7: 4}


def enumerated_profile(p, parts):
    """The box enumeration ``oracle._valuation_profile`` replaced: the least
    valuation at each exact coordinate sum, then a running minimum."""
    tables = {a: oracle._column_ord_table(p, a) for a in set(parts)}
    best = [None] * (sum(p**a - 1 for a in parts) + 1)
    for point in itertools.product(*(range(p**a) for a in parts)):
        total = sum(point)
        val = sum(tables[a][n] for a, n in zip(parts, point))
        if best[total] is None or val < best[total]:
            best[total] = val
    return tuple(itertools.accumulate(best, min))


def enumerated_objective_minimum(alpha, targets, beta):
    """The box enumeration ``brute_objective_minimum`` replaced: the first
    point of least objective in product order."""
    best = argmin = None
    for point in itertools.product(*(range(b + 1) for b in objective_box(targets, beta))):
        val = bound_objective(alpha, targets, point)
        if best is None or val < best:
            best, argmin = val, point
    return best, argmin


def partitions_up_to(total):
    def parts_of(n, cap):
        if n == 0:
            yield ()
            return
        for head in range(min(n, cap), 0, -1):
            for tail in parts_of(n - head, head):
                yield (head,) + tail

    for n in range(1, total + 1):
        yield from parts_of(n, n)


def criterion_6_instances():
    """The (alpha, targets, beta) that criterion 6 compared, replayed from its
    seed with the volume cap (30000) its enumeration had."""
    rng = random.Random(99)
    checked = 0
    while checked < 500:  # the step-cost instances draw from the same stream first
        length = rng.randint(1, 7)
        costs = tuple(sorted(rng.randint(1, 7) for _ in range(length)))
        first = rng.randint(costs[0], 9)
        credits = [first] * rng.randint(1, 7)
        while len(credits) < 9 and rng.random() < 0.5:
            credits.append(rng.randint(1, credits[-1]))
        budget = rng.randint(0, 15)
        try:
            step_cost_minimum(costs, tuple(credits), budget)
        except ValueError:
            continue
        checked += 1
    instances = []
    while len(instances) < 1000:
        p = rng.choice([2, 3])
        alpha = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        if alpha.size > 4:
            continue
        r = rng.randint(1, 2)
        targets = make_targets(p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(r)])
        s0 = zero_count_bound(alpha, targets).s0 or 0
        pair = [(alpha, targets, beta) for beta in (s0 + 1, s0 + 2)]
        if all(math.prod(b + 1 for b in objective_box(t, beta)) <= 30000 for _, t, beta in pair):
            instances += pair
    return instances


@pytest.fixture
def no_closed_form(monkeypatch):
    """Fail any oracle that reads the closed-form valuation."""

    def refuse(*args):
        raise AssertionError(f"the oracle read vp_value{args}")

    monkeypatch.setattr(oracle, "vp_value", refuse)


def test_profile_matches_the_enumeration_on_the_suites_boxes():
    cases = {(p, parts) for p in (2, 3, 5) for parts in partitions_up_to(6)}  # criterion 2
    rng = random.Random(2)  # test_min_valuation_matches_brute_small
    for _ in range(30):
        p = rng.choice([2, 3])
        parts = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 3))]).parts
        rng.randint(0, sum(p**a - 1 for a in parts) + 3)
        cases.add((p, parts))
    cases |= {(2, (2, 1)), (2, (6, 5, 3, 1))}  # test_brute_min_valuation_fixtures
    for p, parts in sorted(cases):
        assert oracle._valuation_profile(p, parts) == enumerated_profile(p, parts), (p, parts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_profile_matches_the_enumeration_on_boxes_of_4096_points(p, parts):
    # test_column_route_matches_weight_sequence enumerated every such box it drew.
    alpha = make_partition(sorted(parts, reverse=True))
    if math.prod(p**a for a in alpha.parts) <= 4096:
        assert oracle._valuation_profile(p, alpha.parts) == enumerated_profile(p, alpha.parts)


def test_objective_oracle_matches_the_enumeration_on_the_suites_boxes(no_closed_form):
    fixtures = [  # test_brute_objective_minimum_fixtures
        (make_partition([2, 1]), make_targets(2, [(1, 1)]), 3),
        (make_partition([1, 1]), make_targets(2, [(1, 2)]), 2),
        (make_partition([2, 1]), make_targets(2, [(1, 1)]), 4),
    ]
    instances = fixtures + criterion_6_instances()
    for alpha, targets, beta in instances:
        expected = enumerated_objective_minimum(alpha, targets, beta)
        assert brute_objective_minimum(alpha, targets, beta) == expected, (alpha, targets, beta)
    assert len(instances) == 1003


@pytest.mark.parametrize("p", sorted(REACH))
def test_min_valuation_oracle_reaches_every_partition_up_to_n(p, no_closed_form):
    start = time.perf_counter()
    for parts in partitions_up_to(REACH[p]):
        alpha = make_partition(parts)
        for budget in range(sum(p**a - 1 for a in parts) + 2):
            value = brute_min_valuation(p, alpha, budget)
            assert value == vp_value(p, alpha, budget) == min_valuation(p, alpha, budget).value
    print(f"p = {p}: every partition of size <= {REACH[p]} ({time.perf_counter() - start:.2f}s)")


@pytest.mark.parametrize(
    "p, parts",
    [(2, (3,) * 12 + (2,) * 6 + (1,) * 6), (5, (2,) * 8 + (1,) * 8)],
    ids=["p2-box-1.8e16", "p5-box-6e16"],
)
def test_min_valuation_oracle_matches_vp_value_at_every_budget(p, parts, no_closed_form):
    alpha = make_partition(parts)
    top = sum(p**a - 1 for a in parts)
    for budget in [*range(top + 2), math.inf]:
        assert brute_min_valuation(p, alpha, budget) == vp_value(p, alpha, budget)


@st.composite
def long_partitions(draw):
    """20-200 rows, their parts capped so that 200 rows of the largest part
    stay within the profile's steps (p = 2: 2.4*10^5; p = 3 with parts of 2
    would take 1.4*10^6)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    top = {2: 2, 3: 1, 5: 1, 7: 1}[p]
    parts = draw(st.lists(st.integers(1, top), min_size=20, max_size=200))
    return p, make_partition(sorted(parts, reverse=True))


@settings(max_examples=30, deadline=None)
@given(long_partitions())
@example((2, make_partition([2] * 200)))
@example((7, make_partition([1] * 200)))
def test_min_valuation_oracle_on_long_partitions(case):
    p, alpha = case
    profile = oracle._valuation_profile(p, alpha.parts)
    assert len(profile) == sum(p**a - 1 for a in alpha.parts) + 1
    for budget in range(len(profile) + 1):
        assert brute_min_valuation(p, alpha, budget) == vp_value(p, alpha, budget)
    for budget in range(0, len(profile) + 1, 17):
        assert profile[min(budget, len(profile) - 1)] == min_valuation(p, alpha, budget).value


@pytest.mark.parametrize(
    "p, parts, pairs, extra",
    [
        (2, [3, 3, 3, 2, 1], [(2, 3), (1, 1), (1, 1)], 120),
        (3, [2, 2, 2, 1, 1], [(1, 3), (1, 3), (1, 1)], 60),
        (2, [3, 1], [(1, 2), (1, 2), (1, 3)], 120),
        (5, [1, 1, 1], [(1, 1), (1, 2), (1, 3)], 40),
        (2, [2, 2, 1, 1], [(2, 3), (1, 5)], 300),
        (3, [1, 1, 1, 1], [(2, 1), (1, 4)], 150),
        (5, [2, 1], [(1, 3), (1, 1)], 100),
    ],
)
def test_objective_oracle_matches_the_raw_bound_past_the_enumeration(
    p, parts, pairs, extra, no_closed_form
):
    alpha, targets = make_partition(parts), make_targets(p, pairs)
    report = zero_count_bound(alpha, targets)
    beta = (report.s0 or 0) + extra
    volume = math.prod(b + 1 for b in objective_box(targets, beta))
    # Three targets' spent budgets merge, so their boxes pass the enumeration's
    # cap (10^6 points); two targets' folds take a step per point, at about
    # 0.3 us against the enumeration's 2 us.
    assert volume > (10**6 if len(pairs) == 3 else 10**5)
    value, point = brute_objective_minimum(alpha, targets, beta)
    assert value == report.raw_bound
    assert value == bound_objective(alpha, targets, point)


def test_min_plus_oracles_check_their_caps_before_any_table(monkeypatch):
    alpha, targets = make_partition([2, 1]), make_targets(2, [(2, 3)])
    two = make_targets(2, [(1, 1), (1, 1)])
    assert brute_objective_minimum(alpha, two, 2, limit=12) == (1, (1, 1))

    def built(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(oracle, "_column_ord_table", built)
    monkeypatch.setattr(oracle, "_carry_floor", built)
    with pytest.raises(ResourceLimitError, match="table of 1099511627776 entries exceeds 16384"):
        brute_min_valuation(2, make_partition([40]), 5)
    with pytest.raises(ResourceLimitError, match="profile takes 9003000 steps, past 1000000"):
        brute_min_valuation(2, make_partition([1] * 3000), 5)
    with pytest.raises(ResourceLimitError, match="folds take 20000002 steps, past 1000000"):
        brute_objective_minimum(alpha, targets, 10**7)
    with pytest.raises(ResourceLimitError, match="folds take 102 steps, past 10$"):
        brute_objective_minimum(alpha, targets, 50, limit=10)
    # Two targets: 3 budgets, then 3 reached budgets times 3 entries.
    with pytest.raises(ResourceLimitError, match="folds take 12 steps, past 11$"):
        brute_objective_minimum(alpha, two, 2, limit=11)


def test_objective_oracle_reads_the_closed_form_only_past_the_profiles_caps(monkeypatch):
    # (Z/2^15) is past the profile's table cap, so the valuation is vp_value's.
    alpha, targets = make_partition([15]), make_targets(2, [(1, 40)])
    calls = []
    monkeypatch.setattr(oracle, "vp_value", lambda *args: calls.append(args) or vp_value(*args))
    value, point = brute_objective_minimum(alpha, targets, 3)
    assert (value, point) == enumerated_objective_minimum(alpha, targets, 3)
    assert sorted(budget for _, _, budget in calls) == [0, 40, 80, 120]
