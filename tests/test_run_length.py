"""Run-length partitions: a partition built from its runs is the one built
from its rows, and every closed form reads the runs, so row counts far past
the enumeration limit cost what a handful of rows does."""

import json
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axkatz import (
    AbelianShape,
    Partition,
    ResourceLimitError,
    conjugate,
    equal_exponent_bound,
    geometric_sum,
    make_partition,
    make_targets,
    min_valuation,
    min_valuation_equal_exponent,
    multi_prime_bounds,
    partition_from_runs,
    polynomial_system_bound,
    product_valuation,
    truncate,
    vp_value,
    zero_count_bound,
)
from axkatz import Degree, bounds, oracle
from axkatz.cli import main

HUGE = 10**12


@st.composite
def built_twice(draw):
    """A partition of 1-300 rows built from its rows and from its runs, the
    runs given in shuffled order and split into pieces that must be merged."""
    runs = draw(
        st.dictionaries(st.integers(1, 9), st.integers(1, 60), min_size=1, max_size=5)
    )
    while sum(runs.values()) > 300:
        runs.pop(max(runs, key=runs.get))
    if not runs:
        runs = {1: 1}
    pieces = []
    for part, copies in runs.items():
        cut = draw(st.integers(0, copies - 1))
        pieces += [(part, copies - cut)] + ([(part, cut)] if cut else [])
    pieces = draw(st.permutations(pieces))
    parts = [part for part, copies in sorted(runs.items(), reverse=True) for _ in range(copies)]
    return make_partition(parts), partition_from_runs(pieces)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(built_twice(), st.integers(1, 10))
def test_rows_and_runs_build_the_same_partition(pair, level):
    rows, runs = pair
    assert rows == runs and hash(rows) == hash(runs) and rows.runs == runs.runs
    assert Partition(runs.runs) == rows == Partition(runs=rows.runs)
    assert (len(rows), rows.size, rows.width) == (len(runs), runs.size, runs.width)
    assert rows.columns == runs.columns
    columns = [sum(1 for a in rows.parts if a >= j) for j in range(1, rows.width + 1)]
    assert rows.columns == tuple(columns) and conjugate(runs) == Partition(tuple(columns))
    assert conjugate(rows) == conjugate(runs) and conjugate(runs).parts == runs.columns
    assert truncate(rows, level) == truncate(runs, level)
    assert truncate(runs, level) == Partition(tuple(min(a, level) for a in rows.parts))
    assert rows.to_json() == runs.to_json() and runs.parts == rows.parts
    assert list(runs) == list(rows) and runs[-1] == rows[-1]


@settings(max_examples=150, deadline=None)
@given(
    built_twice(),
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 40)), min_size=1, max_size=3),
    st.integers(0, 10**4),
    st.randoms(use_true_random=False),
)
def test_closed_forms_agree_on_both_builds(pair, p, pairs, budget, rng):
    rows, runs = pair
    targets = make_targets(p, pairs)
    assert _json(zero_count_bound(rows, targets).to_json_dict()) == _json(
        zero_count_bound(runs, targets).to_json_dict()
    )
    for spent in (budget, math.inf):
        assert vp_value(p, rows, spent) == vp_value(p, runs, spent)
        assert _json(min_valuation(p, rows, spent).to_json_dict()) == _json(
            min_valuation(p, runs, spent).to_json_dict()
        )
    point = [rng.randint(0, p**a) for a in rows.parts]
    assert product_valuation(p, rows, point) == product_valuation(p, runs, point)
    # A p-group domain given by its rows: its Sylow component is built from
    # runs by primary_decomposition, and its bound is the one of the rows.
    domain = AbelianShape(tuple(p**a for a in rows.parts))
    shaped = [(AbelianShape((p**beta,)), d) for beta, d in pairs]
    (prime, bound), = multi_prime_bounds(domain, shaped).items()
    assert prime == p and bound.report.alpha == runs
    assert _json(bound.report.to_json_dict()) == _json(
        zero_count_bound(rows, targets).to_json_dict()
    )


def test_runs_are_checked():
    cases = [
        ((), "a partition needs at least one part"),
        (((2, 1), (2, 3)), "run parts must be strictly decreasing, got ((2, 1), (2, 3))"),
        (((1, 1), (2, 1)), "run parts must be strictly decreasing"),
        (((2, 0),), "got (2, 0)"),
        (((0, 2),), "got (0, 2)"),
        (((2, True),), "got (2, True)"),
        (((2, 1.0),), "got (2, 1.0)"),
        (((2, 1, 1),), "got (2, 1, 1)"),
    ]
    for runs, message in cases:
        with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
            Partition(runs=runs)
    # A tuple of pairs is read as runs; anything else as rows, with the row checks.
    assert Partition(((3, 2), (1, 1))) == make_partition([3, 3, 1])
    with pytest.raises(ValueError, match=r"parts must be positive integers, got \(2, 1\)"):
        Partition((3, (2, 1)))
    assert partition_from_runs([(1, 2), (3, 1), (1, 5)]).runs == ((3, 1), (1, 7))
    for bad in ([], [(1, 0)], [(1,)], [(1.5, 2)], [3], [[1, 2]]):
        with pytest.raises(ValueError):
            partition_from_runs(bad)


def test_a_run_built_partition_lists_its_rows_once_within_the_limit(monkeypatch):
    alpha = partition_from_runs([(2, 3), (1, 2)])
    assert "parts" not in vars(alpha)
    assert alpha.parts == (2, 2, 2, 1, 1) and alpha.parts is alpha.parts
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "4")
    beta = partition_from_runs([(2, 3), (1, 2)])
    for read in (lambda: beta.parts, lambda: list(beta), lambda: beta[0], beta.to_json):
        with pytest.raises(ResourceLimitError, match="5 partition rows exceed the enumeration limit 4"):
            read()
    # Rows given by the caller are held, whatever the limit.
    assert make_partition([2, 2, 2, 1, 1]).to_json() == [2, 2, 2, 1, 1]
    assert alpha.to_json() == [2, 2, 2, 1, 1]


def test_rows_derived_from_listed_rows_are_not_capped(monkeypatch, capsys):
    # A truncation of listed rows and the Sylow components of a listed shape
    # have no more rows than the caller listed: the enumeration limit, low
    # or malformed, does not refuse their reports.
    alpha = make_partition([3] * 50 + [2] * 50 + [1] * 50)
    targets = make_targets(2, [(1, 1)])
    domain = AbelianShape((12,) * 50 + (8,) * 50 + (6,) * 50)
    shaped = [(AbelianShape((2,)), 1), (AbelianShape((3,)), 2)]
    argv = ["bound", "--p", "2", "--alpha", ",".join(map(str, alpha)), "--targets", "1:1"]

    def outputs():
        report = zero_count_bound(alpha, targets).to_json_dict()
        bounds = {q: b.to_json_dict() for q, b in multi_prime_bounds(domain, shaped).items()}
        assert main(argv) == 0
        return report, bounds, capsys.readouterr().out

    report, bounds, printed = outputs()
    assert len(report["alpha_breve"]) == 150 and len(bounds[2]["report"]["alpha"]) == 150
    for raw in ("100", "abc"):
        monkeypatch.setenv("AXKATZ_ENUM_LIMIT", raw)
        assert outputs() == (report, bounds, printed)
    # Rows made from runs alone are still capped, truncated or not.
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "100")
    with pytest.raises(ResourceLimitError, match="150 partition rows exceed"):
        truncate(partition_from_runs([(3, 150)]), 1).to_json()


def _reference_vp(p, runs, budget):
    """Dots minus the longest column-ordered prefix within budget / (p - 1),
    from columns written out by hand for at most two runs."""
    (a, m), *rest = runs
    b, n = rest[0] if rest else (0, 0)
    columns = [m + n] * b + [m] * (a - b)
    taken, room = 0, budget
    for j, count in enumerate(columns):
        cost = (p - 1) * p**j
        take = count if room == math.inf else min(count, room // cost)
        taken += take
        if take < count:
            break
        room -= count * cost
    return a * m + b * n - taken


def test_closed_forms_take_a_trillion_rows_at_once():
    start = time.perf_counter()
    for p, e, degrees in [(2, 1, [2, 3]), (3, 2, [1]), (7, 3, [5, 1, 2])]:
        alpha = partition_from_runs([(e, HUGE)])
        targets = make_targets(p, [(e, d) for d in degrees])
        report = zero_count_bound(alpha, targets)
        assert report.bound == equal_exponent_bound(p, HUGE, e, targets) > 0
        assert polynomial_system_bound(p**e, HUGE, degrees)[p] == report
        for budget in (0, 12345, 10**15, math.inf):
            assert vp_value(p, alpha, budget) == min_valuation_equal_exponent(p, HUGE, e, budget)
        assert len(alpha) == HUGE and alpha.size == e * HUGE
    for p, runs in [(2, [(3, HUGE), (1, 7)]), (5, [(2, 3), (1, HUGE)])]:
        alpha = partition_from_runs(runs)
        for budget in (0, 10**6, 10**14, math.inf):
            assert vp_value(p, alpha, budget) == _reference_vp(p, alpha.runs, budget)
        assert zero_count_bound(alpha, make_targets(p, [(1, 1)])).bound > 0
    assert time.perf_counter() - start < 2.0  # milliseconds, with room for a slow machine


def test_a_trillion_rows_are_refused_at_once_where_they_would_be_listed():
    alpha = partition_from_runs([(3, HUGE), (1, 2)])
    start = time.perf_counter()
    for read in (lambda: alpha.parts, lambda: alpha[0], alpha.to_json, lambda: iter(alpha)):
        with pytest.raises(ResourceLimitError, match=f"{HUGE + 2} partition rows exceed"):
            read()
    # The witness is held as runs: only its rows are refused, where they are listed.
    witness = min_valuation(2, alpha, 10)
    for read in (lambda: witness.point, lambda: witness.mu, witness.to_json_dict):
        with pytest.raises(ResourceLimitError, match=f"{HUGE + 2} partition rows exceed"):
            read()
    with pytest.raises(ResourceLimitError):
        zero_count_bound(alpha, make_targets(2, [(1, 1)])).to_json_dict()
    assert time.perf_counter() - start < 0.5


def _reference_witness(p, parts, budget):
    """(t, full, extra, mu, point) from the definition, row by row: whole
    columns of dots (column j weighs (p - 1) p^(j - 1)) while they fit, then
    as many dots of the next column as fit; mu_i is full + 1 for the first
    extra rows that reach column full + 1, full for the other rows that
    reach it, and a_i for the shorter rows, and point_i = p^mu_i - 1."""
    columns = [sum(1 for a in parts if a >= j) for j in range(1, max(parts) + 1)]
    full, extra, room = 0, 0, budget
    for count in columns:
        cost = (p - 1) * p**full
        if count * cost > room:
            extra = int(room // cost)
            break
        room -= count * cost
        full += 1
    reaching = [i for i, a in enumerate(parts) if a > full]
    mu = [a for a in parts]
    for i in reaching:
        mu[i] = full + 1 if i in reaching[:extra] else full
    t = sum(columns[:full]) + extra
    return t, full, extra, tuple(mu), tuple(p**m - 1 for m in mu)


def _canonical(runs) -> bool:
    return all(copies >= 1 for _, copies in runs) and all(
        a[0] != b[0] for a, b in zip(runs, runs[1:])
    )


@settings(max_examples=200, deadline=None)
@given(built_twice(), st.sampled_from([2, 3, 5, 7]), st.data())
def test_the_run_witness_is_the_row_witness(pair, p, data):
    rows, runs = pair
    measure = geometric_sum(rows, p)
    budget = data.draw(st.one_of(st.integers(0, (p - 1) * measure), st.just(math.inf)))
    t, full, extra, mu, point = _reference_witness(p, rows.parts, budget)
    witness = min_valuation(p, rows, budget)
    assert min_valuation(p, runs, budget) == witness
    assert (witness.t, witness.full_columns, witness.extra_dots) == (t, full, extra)
    assert witness.value == rows.size - t == vp_value(p, rows, budget)
    assert _canonical(witness.mu_runs) and _canonical(witness.point_runs)
    assert [n for n, copies in witness.mu_runs for _ in range(copies)] == list(mu)
    assert [x for x, copies in witness.point_runs for _ in range(copies)] == list(point)
    assert (witness.mu, witness.point) == (mu, point)
    assert sum(point) <= budget and product_valuation(p, rows, point) == Degree.of(witness.value)


def _point_runs(point, cuts):
    """The runs of a row point (equal values of one type merged), each run
    cut in two where cuts says so, so that equal neighbours are left too."""
    runs = []
    for n in point:
        if runs and type(runs[-1][0]) is type(n) and runs[-1][0] == n:
            runs[-1][1] += 1
        else:
            runs.append([n, 1])
    pieces = []
    for (n, copies), cut in zip(runs, cuts):
        cut = cut % copies
        pieces += [(n, copies - cut)] + ([(n, cut)] if cut else [])
    return tuple(pieces)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    built_twice(),
    st.sampled_from([2, 3, 5]),
    st.data(),
    st.lists(st.integers(0, 5), min_size=300, max_size=300),
)
def test_a_run_point_is_valued_as_its_rows(pair, p, data, cuts):
    rows, runs = pair
    # Falling coordinates in runs of equal parts, as a witness has them, or
    # any coordinates, with a bad one or a wrong length now and then.
    shape = data.draw(st.sampled_from(["witness", "any", "bad", "short", "long"]))
    point = [data.draw(st.integers(0, p**a)) for a in rows.parts]
    if shape == "witness":
        point = list(min_valuation(p, rows, data.draw(st.integers(0, 10**4))).point)
    elif shape == "bad":
        point[data.draw(st.integers(0, len(point) - 1))] = data.draw(
            st.sampled_from([-1, -5, 1.5, 2.0, True, False, "1", None])
        )
    elif shape == "short":
        point.pop()
    elif shape == "long":
        point.append(0)
    if not point:
        return
    expected = _outcome(lambda: product_valuation(p, rows, tuple(point)))
    assert _outcome(lambda: product_valuation(p, runs, point)) == expected
    run_point = _point_runs(point, cuts)
    assert _outcome(lambda: product_valuation(p, rows, run_point)) == expected
    assert _outcome(lambda: product_valuation(p, runs, list(run_point))) == expected
    if not isinstance(expected, str):
        assert list(bounds._run_pair_counts(rows.runs, run_point).items()) == list(
            Counter(zip(rows.parts, point)).items()
        )


def test_min_valuation_takes_a_trillion_rows_at_once(monkeypatch):
    start = time.perf_counter()
    witness = min_valuation(2, partition_from_runs([(3, HUGE), (1, 2)]), 10)
    assert (witness.value, witness.t, witness.full_columns, witness.extra_dots) == (
        3 * HUGE + 2 - 10, 10, 0, 10,
    )
    assert witness.mu_runs == ((1, 10), (0, HUGE - 8)) and witness.point_runs == witness.mu_runs
    whole = min_valuation(7, partition_from_runs([(3, HUGE), (1, 2)]), math.inf)
    assert whole.mu_runs == ((3, HUGE), (1, 2)) and whole.value == 0
    assert whole.point_runs == ((7**3 - 1, HUGE), (6, 2))
    assert time.perf_counter() - start < 0.5  # milliseconds, with room for a slow machine
    # The witness lists its rows as the partition does: within the limit,
    # or whatever the limit when the partition's rows were listed.
    monkeypatch.setenv("AXKATZ_ENUM_LIMIT", "4")
    listed = min_valuation(3, make_partition([2, 2, 2, 1, 1]), 7)
    assert listed.to_json_dict()["mu"] == list(listed.mu) == [1, 1, 1, 0, 0]
    from_runs = min_valuation(3, partition_from_runs([(2, 3), (1, 2)]), 7)
    assert from_runs == listed
    for read in (lambda: from_runs.mu, lambda: from_runs.point, from_runs.to_json_dict):
        with pytest.raises(ResourceLimitError, match="5 partition rows exceed the enumeration limit 4"):
            read()


def test_polybound_still_caps_the_rows_it_prints(capsys):
    # The library takes any number of variables; the CLI prints every row.
    assert main(["polybound", "--m", "4", "--n", str(HUGE), "--degrees", "2"]) == 2
    assert f"{HUGE} variables exceed the enumeration limit" in capsys.readouterr().err


def test_trace_reuses_each_indicator_lift():
    Z2 = AbelianShape((2,))
    parity = oracle.FiniteMap(AbelianShape((2, 2)), Z2, ((0,), (1,), (1,), (0,)))
    oracle._indicator_series.cache_clear()
    first = oracle.zero_count_trace([parity])
    assert oracle.zero_count_trace([parity]) == first
    info = oracle._indicator_series.cache_info()
    assert (info.misses, info.hits) == (1, 1)
