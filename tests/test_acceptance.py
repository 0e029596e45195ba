"""Acceptance criteria: oracle equivalence and exhaustive verification.

Each test prints one pass line; stated runtime caps are asserted.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import itertools
import random
import time

from axkatz import (
    AbelianShape,
    Degree,
    FiniteMap,
    PGroupShape,
    PolySystem,
    bound_objective_minimum,
    brute_max_degree,
    brute_min_valuation,
    brute_objective_minimum,
    conjugate,
    enumerate_elements,
    functional_degree,
    lift_difference_box,
    make_partition,
    make_targets,
    max_functional_degree,
    min_valuation,
    multi_prime_bounds,
    poly_zero_count,
    polynomial_system_bound,
    primary_assemble,
    proper_lift,
    reconstruct,
    sample_bounded_map,
    series_coefficients,
    step_cost_minimum,
    verify_bound,
    vp_value,
    weight_sequence,
    zero_count,
    zero_count_trace,
)
from axkatz.groups import component_of
from axkatz.intmath import ceil_div, multiplicity


def all_partitions_up_to(total):
    def parts_of(n, cap):
        if n == 0:
            yield ()
            return
        for head in range(min(n, cap), 0, -1):
            for tail in parts_of(n - head, head):
                yield (head,) + tail

    for n in range(1, total + 1):
        yield from parts_of(n, n)


def brute_step_cost(costs, credits, budget, window):
    def credit_at(s):
        return credits[s - 1] if s <= len(credits) else credits[-1]

    best = None
    for s in range(window + 1):
        have = sum(credit_at(i) for i in range(1, s + 1)) + budget
        reach = 0
        total = 0
        for t, c in enumerate(costs, start=1):
            total += c
            if total <= have:
                reach = t
        value = s - reach
        if best is None or value < best:
            best = value
    return best


def test_criterion_01_conjugate_and_weight_fixtures():
    start = time.time()
    assert conjugate(make_partition([3, 2, 2, 1])).parts == (4, 3, 1)
    alpha = make_partition([6, 5, 3, 1])
    for p in (2, 3, 5):
        prefix = weight_sequence(alpha, p).prefix_sums()
        assert prefix[9] == 4 + 3 * p + 2 * p * p
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: conjugate and weight fixtures ({elapsed:.2f}s)")


def test_criterion_02_min_valuation_oracle_equivalence():
    start = time.time()
    checked = 0
    for p in (2, 3, 5):
        for parts in all_partitions_up_to(6):
            alpha = make_partition(parts)
            top = sum(p**a - 1 for a in parts) + 4
            for budget in range(top + 1):
                assert vp_value(p, alpha, budget) == brute_min_valuation(p, alpha, budget)
                checked += 1
    witness = min_valuation(2, make_partition([6, 5, 4, 2, 2, 1]), 24)
    assert witness.t == 13
    assert witness.full_columns == 2 and witness.extra_dots == 2
    assert witness.mu == (3, 3, 2, 2, 2, 1)
    assert witness.value == 7
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: valuation oracle equivalence, {checked} cases ({elapsed:.2f}s)")


def test_criterion_03_degree_cap_exhaustive():
    start = time.time()
    pairs = [
        ((4,), (2,)),
        ((2, 2), (2,)),
        ((4, 2), (2,)),
        ((4,), (4,)),
        ((9,), (3,)),
        ((3,), (9,)),
        ((2, 2), (2,)),      # anchor (p, n) = (2, 2): max degree 2
        ((2, 2, 2), (2,)),   # anchor (2, 3): max degree 3
        ((3, 3), (3,)),      # anchor (3, 2): max degree 4
    ]
    observed = {}
    for dom, cod in pairs:
        observed[(dom, cod)] = brute_max_degree(AbelianShape(dom), AbelianShape(cod))
    assert observed[((2, 2), (2,))] == 2
    assert observed[((2, 2, 2), (2,))] == 3
    assert observed[((3, 3), (3,))] == 4
    assert observed[((4, 2), (2,))] == 4
    assert observed[((4,), (4,))] == 5
    assert observed[((9,), (3,))] == 8
    assert observed[((3,), (9,))] == 4
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: exhaustive max degrees on {len(pairs)} pairs ({elapsed:.2f}s)")


def test_criterion_04_series_roundtrip():
    start = time.time()
    domain = AbelianShape((4, 2))
    cod2 = AbelianShape((2,))
    for values in itertools.product(enumerate_elements(cod2), repeat=8):
        f = FiniteMap(domain, cod2, values)
        coeffs = series_coefficients(f)
        degree = functional_degree(f)
        assert reconstruct(domain, cod2, coeffs, degree) == f
        orders = [sum(n) for n in coeffs]
        assert degree == (Degree.of(max(orders)) if orders else degree)

    cod4 = AbelianShape((4,))
    rng = random.Random(2024)
    targets = enumerate_elements(cod4)
    for _ in range(200):
        f = FiniteMap(domain, cod4, tuple(rng.choice(targets) for _ in range(8)))
        coeffs = series_coefficients(f)
        degree = functional_degree(f)
        assert reconstruct(domain, cod4, coeffs, degree) == f
        if coeffs:
            assert degree == max(sum(n) for n in coeffs)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: series roundtrip on 256 + 200 maps ({elapsed:.2f}s)")


def test_criterion_05_lift_divisibility():
    start = time.time()
    shapes = [
        (2, (4, 2), (4,)),
        (2, (8,), (2,)),
        (3, (9,), (9,)),
    ]
    rng = random.Random(555)
    violations = 0
    for p, dom_factors, cod_factors in shapes:
        domain = AbelianShape(dom_factors)
        codomain = AbelianShape(cod_factors)
        alpha = make_partition([multiplicity(p, m) for m in dom_factors])
        beta = multiplicity(p, cod_factors[0])
        caps = {
            h: max_functional_degree(PGroupShape(p, alpha), h)
            for h in range(1, beta + 3)
        }
        width = caps[beta + 2] + 2
        targets = enumerate_elements(codomain)
        for _ in range(100):
            f = FiniteMap(
                domain, codomain, tuple(rng.choice(targets) for _ in range(domain.order))
            )
            lift = proper_lift(f)
            box = lift_difference_box(lift, width)
            # Iterated differences at the origin collapse to the coefficients.
            for nvec, value in box.items():
                assert value == lift.coeffs.get(nvec, 0)
            for h, cap in caps.items():
                q = p**h
                for nvec, value in box.items():
                    if sum(nvec) > cap and value % q != 0:
                        violations += 1
    assert violations == 0
    elapsed = time.time() - start
    print(f"PASS criterion 5: lift divisibility, 300 lifts, 0 violations ({elapsed:.2f}s)")


def test_criterion_06_discrete_optimization_closed_forms():
    start = time.time()
    rng = random.Random(99)

    checked = 0
    while checked < 500:
        length = rng.randint(1, 7)
        costs = tuple(sorted(rng.randint(1, 7) for _ in range(length)))
        first = rng.randint(costs[0], 9)
        credits = [first] * rng.randint(1, 7)
        while len(credits) < 9 and rng.random() < 0.5:
            credits.append(rng.randint(1, credits[-1]))
        budget = rng.randint(0, 15)
        try:
            _, minimum = step_cost_minimum(costs, tuple(credits), budget)
        except ValueError:
            continue
        window = length + ceil_div(budget, min(credits)) + 5
        assert minimum == brute_step_cost(costs, credits, budget, window)
        checked += 1

    from axkatz import ResourceLimitError, zero_count_bound

    checked = 0
    while checked < 500:
        p = rng.choice([2, 3])
        alpha = make_partition([rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        if alpha.size > 4:
            continue
        r = rng.randint(1, 2)
        targets = make_targets(p, [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(r)])
        s0 = zero_count_bound(alpha, targets).s0 or 0
        try:
            results = []
            for beta in (s0 + 1, s0 + 2):
                brute, _ = brute_objective_minimum(alpha, targets, beta, limit=30000)
                closed = bound_objective_minimum(alpha, targets, beta)
                assert closed == brute
                results.append(brute)
        except ResourceLimitError:
            continue
        assert results[0] == results[1]
        checked += 1
    elapsed = time.time() - start
    print(f"PASS criterion 6: optimization closed forms, 500 + 500 instances ({elapsed:.2f}s)")


def test_criterion_07_main_bound_exhaustive_verification():
    start = time.time()
    instances = [
        (2, [2, 1], (2,), 1, 2),
        (2, [1, 1, 1], (2,), 2, 1),
        (3, [2], (3,), 1, 1),
        (2, [3], (2,), 1, 2),
        (2, [2], (4,), 1, 0),
    ]
    for p, parts, cod, cap, expected in instances:
        report = verify_bound(p, make_partition(parts), [(AbelianShape(cod), cap)])
        assert report.bound == expected, (parts, cod, report.bound)
        assert report.passed and not report.vacuous
        assert report.objective_match
        assert report.systems_tested > 0
        assert report.min_ord >= Degree.of(report.bound)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"PASS criterion 7: exhaustive verification on {len(instances)} instances ({elapsed:.2f}s)")


def test_criterion_08_classical_recoveries():
    start = time.time()
    rng = random.Random(321)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 12)
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        report = polynomial_system_bound(p, n, degrees)[p]
        expected = max(ceil_div(n - sum(degrees), max(degrees)), 0)
        assert report.bound == expected, (p, n, degrees, report.bound)
        checked += 1

    systems = 0
    for p in (2, 3):
        for n in (2, 3, 4):
            pool = [
                e
                for e in itertools.product(range(p), repeat=n)
                if 0 < sum(e) < n
            ]
            for k in range(1, 5):
                for combo in itertools.combinations(pool, k):
                    poly = tuple((1, e) for e in combo)
                    declared = max(sum(e) for e in combo)
                    count, _ = poly_zero_count(PolySystem(p, n, (poly,), (declared,)))
                    assert count % p == 0, (p, n, combo, count)
                    systems += 1
            # A few two-polynomial systems with total degree below n.
            low = [e for e in pool if sum(e) == 1]
            for e1, e2 in itertools.combinations(low, 2):
                if 2 < n:
                    count, _ = poly_zero_count(
                        PolySystem(p, n, (((1, e1),), ((1, e2),)), (1, 1))
                    )
                    assert count % p == 0
                    systems += 1
    elapsed = time.time() - start
    print(f"PASS criterion 8: classical recoveries, 50 grid + {systems} CW systems ({elapsed:.2f}s)")


def test_criterion_09_proof_trace():
    start = time.time()
    shapes = [
        ((4, 2), (4,), 2),
        ((8,), (2,), 1),
        ((9,), (3,), 1),
    ]
    rng = random.Random(777)
    traced = 0
    for dom_factors, cod_factors, cap in shapes:
        domain = AbelianShape(dom_factors)
        codomain = AbelianShape(cod_factors)
        done = 0
        while done < 10:
            f = sample_bounded_map(domain, codomain, cap, rng)
            count, _ = zero_count([f])
            if count == 0:
                continue
            trace = zero_count_trace([f])
            assert trace.beta == trace.count_ord + 1
            assert trace.integral_ord == trace.count_ord
            assert trace.floors_ok
            done += 1
            traced += 1
    assert traced == 30
    elapsed = time.time() - start
    print(f"PASS criterion 9: proof trace equality on {traced} systems ({elapsed:.2f}s)")


def test_criterion_10_multi_prime_systems():
    start = time.time()
    rng = random.Random(4242)
    cases = [
        (AbelianShape((6,)), [AbelianShape((6,)), AbelianShape((2,))]),
        (AbelianShape((12, 2)), [AbelianShape((12,)), AbelianShape((2,))]),
    ]
    assembled = 0
    for domain, target_pool in cases:
        for _ in range(10):
            r = rng.randint(1, 2)
            shaped = []
            system = []
            component_systems: dict[int, list[FiniteMap]] = {}
            for _ in range(r):
                target = rng.choice(target_pool)
                cap = rng.randint(1, 2)
                shaped.append((target, cap))
                components = {}
                for prime in target.primes():
                    comp_dom = component_of(domain, prime)
                    comp_cod = component_of(target, prime)
                    g = sample_bounded_map(comp_dom, comp_cod, cap, rng)
                    components[prime] = g
                    component_systems.setdefault(prime, []).append(g)
                system.append(primary_assemble(domain, target, components))

            count, ords = zero_count(system)
            product = 1
            for prime in domain.primes():
                comp_dom = component_of(domain, prime)
                comp_count, _ = zero_count(
                    component_systems.get(prime, []), comp_dom
                )
                product *= comp_count
            assert count == product

            bounds = multi_prime_bounds(domain, shaped)
            for prime, entry in bounds.items():
                assert ords[prime] >= Degree.of(entry.bound), (prime, ords, entry)
            assembled += 1
    assert assembled == 20
    elapsed = time.time() - start
    print(f"PASS criterion 10: multi-prime product and bounds on {assembled} systems ({elapsed:.2f}s)")
