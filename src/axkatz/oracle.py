"""Brute-force oracles that verify every closed form at desk scale.

Nothing in this module trusts the formulas it checks: valuations come from
exact big-integer sums, degrees from exhaustive difference tables, and the
headline bound from counting zeros of every qualifying system.

Exhaustive verification enumerates only the maps of degree <= d.  The
difference transform of a one-prime pair is linear mod each codomain factor,
so a table has degree <= d exactly when its coefficients of total order above
d vanish: the qualifying tables are the kernel of a linear map.  The table
positions are split in two halves; each assignment of a half sums the
high-order coefficient columns of its unit tables (``unit_coefficients``), and
a prefix is joined with the suffixes whose sums cancel its own.  Prefixes are
walked in product order and each suffix bucket is kept in product order, so
the tables come out in the order of a full ``itertools.product`` with the
others left out.  The oracle stays independent of what it checks: it never
consults the closed-form bound, every joined table is rebuilt as a validated
FiniteMap and gets its degree again from ``functional_degree``, a degree
above d raises ConsistencyError, and the test suite compares the join with
the brute-force bucketing of every table.

Zeros are counted on bit masks.  A map's zero set is one int whose bit k is
set when table entry k is the zero element (``calculus.zero_mask``); a
system's zero set is the AND of its maps' masks and its size the bit count,
so each candidate is read once and each system costs r - 1 ANDs.  The masks
come from the value tables themselves, never from series coefficients or a
closed form, so the counts stay an independent check of the bound.
Polynomial systems get the same masks from value tables built one axis at a
time from tabulated powers.  The test suite compares both counts with a
count written from the definition.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator, Sequence

from .bounds import (
    TargetSpec,
    bound_objective,
    bound_objective_minimum,
    expand_targets,
    polynomial_system_bound,
    zero_count_bound,
)
from .calculus import (
    BinomialSeries,
    FiniteMap,
    functional_degree,
    proper_lift,
    unit_coefficients,
    zero_count,
    zero_mask,
)
from .degrees import INF, NEG_INF, Degree
from .errors import ConsistencyError, ResourceLimitError
from .groups import (
    AbelianShape,
    PGroupShape,
    check_enumerable,
    enumerate_elements,
    enumeration_limit,
    max_functional_degree,
    pure_prime,
)
from .intmath import ceil_div, check_prime, factorize, multiplicity, power_exceeds, power_text
from .partitions import Partition, make_partition

DIRECT_SUM_CAP = 1024


def binomial_column_sums(limit: int, direct: bool | None = None) -> list[int]:
    """Exact values of sum_{x=0}^{limit-1} C(x, n) for every n < limit.

    Small limits are summed row by row through Pascal's rule; larger ones use
    the telescoping collapse of the column sum to a single top-row binomial
    (the two routes are asserted to agree in the test suite).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if direct is None:
        direct = limit <= DIRECT_SUM_CAP
    if direct:
        sums = [0] * limit
        row = [0] * limit
        row[0] = 1
        sums[0] = 1
        for x in range(1, limit):
            for n in range(min(x, limit - 1), 0, -1):
                row[n] += row[n - 1]
            for n in range(min(x, limit - 1) + 1):
                sums[n] += row[n]
        return sums
    sums = []
    value = limit  # C(limit, 1)
    for n in range(limit):
        sums.append(value)
        value = value * (limit - n - 1) // (n + 2)
    return sums


@lru_cache(maxsize=None)
def _column_ord_table(p: int, exponent: int) -> tuple[int, ...]:
    sums = binomial_column_sums(p**exponent)
    return tuple(multiplicity(p, s) for s in sums)


@lru_cache(maxsize=None)
def _valuation_profile(p: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """profile[s] = min valuation over coordinate boxes with sum <= s."""
    tables = {a: _column_ord_table(p, a) for a in set(parts)}
    max_sum = sum(p**a - 1 for a in parts)
    best = [None] * (max_sum + 1)
    for point in itertools.product(*(range(p**a) for a in parts)):
        total = sum(point)
        val = sum(tables[a][n] for a, n in zip(parts, point))
        if best[total] is None or val < best[total]:
            best[total] = val
    profile = []
    running = best[0]
    for val in best:
        if val is not None and val < running:
            running = val
        profile.append(running)
    return tuple(profile)


def brute_min_valuation(p: int, alpha: Partition, budget: int | float) -> int:
    """Minimum of ord_p over exact binomial-sum products with |n| <= budget.

    Points with a coordinate at or beyond p^a have a vanishing factor and
    infinite valuation, so restricting to the coordinate box is lossless.
    """
    check_prime(p)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    profile = _valuation_profile(p, alpha.parts)
    idx = len(profile) - 1 if budget >= len(profile) else int(budget)
    return profile[idx]


def functions_by_degree(
    domain: AbelianShape,
    codomain: AbelianShape,
    cap: int = 2**20,
    max_degree: int | None = None,
) -> dict[Degree, list[FiniteMap]]:
    """Bucket maps from domain to codomain by exact functional degree.

    With max_degree=None every table is bucketed.  With max_degree=d (a
    one-prime pair only) just the tables of degree <= d are: the join in
    ``_tables`` finds them without building the others.  Tables arrive in
    itertools.product order, and buckets keep the order in which each degree
    first appears.  A bucketed degree above max_degree raises
    ConsistencyError.
    """
    _check_table_cap(codomain.order, domain.order, 1, cap)
    buckets: dict[Degree, list[FiniteMap]] = {}
    for values in _tables(domain, codomain, max_degree):
        f = FiniteMap(domain, codomain, values)
        degree = functional_degree(f)
        if max_degree is not None and degree > max_degree:
            raise ConsistencyError(
                f"the join yielded a map of degree {degree} above {max_degree}",
                instance={
                    "domain": domain.factors,
                    "codomain": codomain.factors,
                    "max_degree": max_degree,
                    "order": degree.to_json(),
                },
            )
        buckets.setdefault(degree, []).append(f)
    return buckets


def _check_table_cap(q: int, p: int, size: int, cap: int) -> None:
    """Raise ResourceLimitError when the q^(p^size) tables from a group of
    order p^size into one of order q exceed cap.

    q^n >= 2^n, so n = p^size at or past cap's bit length settles it; no
    power past the cap is formed, however large size is.
    """
    bits = cap.bit_length()
    if (q > 1 and power_exceeds(p, size, bits - 1)) or q ** p**size > cap:
        order = power_text(p, size)
        total = power_text(q, int(order)) if order.isdigit() else f"{q}^({order})"
        raise ResourceLimitError(
            f"{total} tables exceed the exhaustive cap {cap}; use sampled mode"
        )


def _tables(
    domain: AbelianShape, codomain: AbelianShape, max_degree: int | None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Value tables in itertools.product order; with max_degree set, only
    those whose coefficients of total order above it all vanish.

    Those coefficients are linear in the table, so each half of the table
    positions contributes a sum of basis columns, and a prefix joins exactly
    the suffixes whose sums cancel its own.
    """
    targets = enumerate_elements(codomain)
    if max_degree is None:
        contributions = [[()] * len(targets)] * domain.order
        moduli: tuple[int, ...] = ()
    else:
        orders, basis = unit_coefficients(domain, codomain)
        high = [
            (j, c)
            for j in range(len(codomain.factors))
            for c, order in enumerate(orders)
            if order > max_degree and any(columns[j][c] for columns in basis)
        ]
        moduli = tuple(codomain.factors[j] for j, _ in high)
        contributions = [
            [tuple(v[j] * columns[j][c] % m for (j, c), m in zip(high, moduli)) for v in targets]
            for columns in basis
        ]
    half = domain.order // 2
    suffixes: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    for rest, key in _half_sums(targets, contributions[half:], moduli):
        suffixes.setdefault(tuple(-x % m for x, m in zip(key, moduli)), []).append(rest)
    for values, key in _half_sums(targets, contributions[:half], moduli):
        for rest in suffixes.get(key, ()):
            yield values + rest


def _half_sums(
    targets: list[tuple[int, ...]],
    contributions: list[list[tuple[int, ...]]],
    moduli: tuple[int, ...],
) -> list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """(values, summed contribution) of every assignment of targets to the
    given positions, in itertools.product order."""
    entries: list = [((), (0,) * len(moduli))]
    for per_target in contributions:
        entries = [
            (values + (v,), tuple(map(operator.mod, map(operator.add, key, c), moduli)))
            for values, key in entries
            for v, c in zip(targets, per_target)
        ]
    return entries


def brute_max_degree(domain: AbelianShape, codomain: AbelianShape, cap: int = 2**20) -> int:
    """Largest finite degree over all tables, asserted against the closed form."""
    total = codomain.order**domain.order
    if total > cap:
        raise ResourceLimitError(f"{total} tables exceed the exhaustive cap {cap}")
    p = pure_prime(domain)
    if p is None or pure_prime(codomain) != p:
        raise ValueError("both shapes must be p-groups of one common prime")
    targets = enumerate_elements(codomain)
    best = NEG_INF
    for values in itertools.product(targets, repeat=domain.order):
        deg = functional_degree(FiniteMap(domain, codomain, values))
        if best < deg:
            best = deg
    exponents = make_partition(multiplicity(p, m) for m in domain.factors)
    beta = max(multiplicity(p, m) for m in codomain.factors)
    expected = max_functional_degree(PGroupShape(p, exponents), beta)
    if best != Degree.of(expected):
        raise ConsistencyError(
            f"observed max degree {best}, formula gives {expected}",
            instance={
                "domain": domain.factors,
                "codomain": codomain.factors,
                "observed": best.to_json(),
                "expected": expected,
            },
        )
    return best.value


def objective_box(targets: TargetSpec, beta: int) -> tuple[int, ...]:
    """Per-target coefficient support caps (p^b - 1) + (beta-1) p^(b-1) (p-1)."""
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    p = targets.p
    return tuple(
        (p**b - 1) + (beta - 1) * p ** (b - 1) * (p - 1) for b, _ in targets.targets
    )


def brute_objective_minimum(
    alpha: Partition, targets: TargetSpec, beta: int, limit: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum of the objective over the full coefficient box."""
    box = objective_box(targets, beta)
    volume = 1
    for b in box:
        volume *= b + 1
    cap = enumeration_limit() if limit is None else limit
    if volume > cap:
        raise ResourceLimitError(f"objective box of volume {volume} exceeds {cap}")
    best = None
    argmin = None
    for point in itertools.product(*(range(b + 1) for b in box)):
        val = bound_objective(alpha, targets, point)
        if best is None or val < best:
            best, argmin = val, point
    return best, argmin


def _random_homomorphism_affine(
    domain: AbelianShape, p: int, exp_codomain: int, rng: random.Random
) -> list[int]:
    """Value table of a random affine map into Z/p^b, guaranteed degree <= 1.

    The table is built one axis at a time in enumeration order (last
    coordinate fastest); the caller checks the enumeration limit.
    """
    q = p**exp_codomain
    coeffs = []
    for m in domain.factors:
        a = multiplicity(p, m)
        step = p ** max(exp_codomain - a, 0)
        coeffs.append(step * rng.randrange(p ** min(a, exp_codomain)))
    table = [rng.randrange(q)]
    for c, m in zip(coeffs, domain.factors):
        table = [(v + c * x) % q for v in table for x in range(m)]
    return table


def sample_bounded_map(
    domain: AbelianShape,
    codomain: AbelianShape,
    cap: int,
    rng: random.Random,
    max_tries: int = 500,
) -> FiniteMap:
    """Random map with exact degree in (0, cap].

    Candidates are sums of ring products of at most cap affine maps per
    cyclic codomain factor, so their degree never exceeds cap; each candidate
    is then assigned its exact degree and rejected unless it is nonconstant.
    """
    p = pure_prime(domain)
    if p is None or pure_prime(codomain) != p:
        raise ValueError("sampling needs p-groups of one common prime")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    check_enumerable(domain.order)
    size = domain.order
    exps = [multiplicity(p, m) for m in codomain.factors]
    for _ in range(max_tries):
        columns = []
        for b in exps:
            q = p**b
            acc = [0] * size
            for _ in range(rng.randint(1, 2)):
                term = [1] * size
                for _ in range(rng.randint(1, cap)):
                    aff = _random_homomorphism_affine(domain, p, b, rng)
                    term = [(t * v) % q for t, v in zip(term, aff)]
                acc = [(s + t) % q for s, t in zip(acc, term)]
            columns.append(acc)
        values = tuple(zip(*columns))
        candidate = FiniteMap(domain, codomain, values)
        degree = functional_degree(candidate)
        if Degree.of(0) < degree <= Degree.of(cap):
            return candidate
    raise RuntimeError(f"no nonconstant map of degree <= {cap} found in {max_tries} tries")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking the bound against actual zero counts."""

    instance: dict
    bound: int
    min_ord: Degree | None
    witness: tuple | None
    systems_tested: int
    mode: str
    seed: int | None
    vacuous: bool
    passed: bool
    objective_match: bool

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "bound": self.bound,
            "min_ord": self.min_ord.to_json() if self.min_ord is not None else None,
            "witness": [[list(v) for v in table] for table in self.witness]
            if self.witness
            else None,
            "systems_tested": self.systems_tested,
            "mode": self.mode,
            "seed": self.seed,
            "vacuous": self.vacuous,
            "passed": self.passed,
            "objective_match": self.objective_match,
        }


def verify_bound(
    p: int,
    alpha: Partition,
    shaped: Sequence[tuple[AbelianShape, int]],
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int = 25,
    cap: int = 2**20,
    max_systems: int = 200000,
) -> VerifyReport:
    """Check ord_p(#zeros) >= bound over qualifying systems.

    Qualifying maps are nonconstant with degree at most the per-target cap.
    Exhaustive mode enumerates every qualifying tuple; sampled mode draws a
    fixed number of systems deterministically from the seed.  A target with
    no qualifying map at all yields a vacuous pass, flagged as such.  The
    table cap (exhaustive) or the enumeration limit (sampled) is checked
    from p and the exponent sum first, before any p^part is formed.
    """
    targets = expand_targets(p, shaped)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        for shape, _ in shaped:
            _check_table_cap(shape.order, p, alpha.size, cap)
    elif samples > 0:
        check_enumerable(p, alpha.size)
    report = zero_count_bound(alpha, targets)
    beta_for_min = (report.s0 or 0) + 1
    objective_match = (
        bound_objective_minimum(alpha, targets, beta_for_min) == report.bound
    )
    domain = PGroupShape(p, alpha).shape()
    instance = {
        "p": p,
        "alpha": alpha.to_json(),
        "targets": [[shape.to_json(), d] for shape, d in shaped],
    }

    candidate_lists: list[list[FiniteMap]] = []
    if mode == "exhaustive":
        for shape, d in shaped:
            buckets = functions_by_degree(domain, shape, cap, max_degree=d)
            qualifying = [
                f
                for degree, fs in buckets.items()
                if degree.is_finite and 1 <= degree.value <= d
                for f in fs
            ]
            candidate_lists.append(qualifying)
    else:
        rng = random.Random(seed)
        for shape, d in shaped:
            candidate_lists.append(
                [sample_bounded_map(domain, shape, d, rng) for _ in range(samples)]
            )

    if any(not lst for lst in candidate_lists):
        return VerifyReport(
            instance, report.bound, None, None, 0, mode, seed, True, True, objective_match
        )

    if mode == "exhaustive":
        volume = 1
        for lst in candidate_lists:
            volume *= len(lst)
        if volume > max_systems:
            raise ResourceLimitError(
                f"{volume} qualifying systems exceed {max_systems}; use sampled mode"
            )
        combine = itertools.product
    else:
        combine = zip

    min_ord, witness, tested, passed = _scan_systems(
        p, domain, candidate_lists, combine, Degree.of(report.bound)
    )
    return VerifyReport(
        instance,
        report.bound,
        min_ord,
        witness,
        tested,
        mode,
        seed,
        False,
        passed,
        objective_match,
    )


def _scan_systems(
    p: int,
    domain: AbelianShape,
    candidate_lists: list[list[FiniteMap]],
    combine: Callable,
    claimed: Degree,
) -> tuple[Degree | None, tuple | None, int, bool]:
    """(min ord_p of the zero counts, its first witness, systems tested,
    whether every system met the claimed bound) over combine(*lists).

    Each candidate's zero set is one bit mask, so a system's zero count is
    the bit count of an AND.  Systems are compared once per distinct count:
    a later system with a count already seen has the same valuation, so it
    can neither fail where the first did not nor become the witness.
    """
    masks = [[zero_mask(f.values, f.codomain.zero()) for f in lst] for lst in candidate_lists]
    everywhere = (1 << domain.order) - 1
    seen: set[int] = set()
    min_ord: Degree | None = None
    witness = None
    tested = 0
    passed = True
    for system_masks, maps in zip(combine(*masks), combine(*candidate_lists)):
        count = reduce(operator.and_, system_masks, everywhere).bit_count()
        tested += 1
        if count in seen:
            continue
        seen.add(count)
        observed = INF if count == 0 else Degree.of(multiplicity(p, count))
        if observed < claimed:
            passed = False
        if min_ord is None or observed < min_ord:
            min_ord = observed
            witness = tuple(f.values for f in maps)
    return min_ord, witness, tested, passed


@dataclass(frozen=True)
class TraceReport:
    """Both sides of the lifted-indicator integral identity for one system."""

    count: int
    count_ord: int
    beta: int
    integral: int
    integral_ord: int
    coefficient_floors: tuple
    floors_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "count_ord": self.count_ord,
            "beta": self.beta,
            "integral": self.integral,
            "integral_ord": self.integral_ord,
            "coefficient_floors": [
                [[n, o, f] for n, o, f in per_map] for per_map in self.coefficient_floors
            ],
            "floors_ok": self.floors_ok,
        }


def zero_count_trace(system: Sequence[FiniteMap], beta: int | None = None) -> TraceReport:
    """Recount the zeros of a system through lifted indicator series.

    Builds, for each map, the indicator of its zero residue as a series over
    the integers, composes with a proper lift of the map, integrates exactly
    over the representative box, and asserts the two valuations agree.
    Requires a nonempty zero set and beta above its valuation.
    """
    if not system:
        raise ValueError("the trace needs at least one map")
    domain = system[0].domain
    p = pure_prime(domain)
    if p is None:
        raise ValueError("the trace needs a p-group domain")
    betas = []
    for f in system:
        if f.domain != domain:
            raise ValueError("all maps must share one domain")
        if len(f.codomain.factors) != 1:
            raise ValueError("trace codomains must be cyclic")
        b = multiplicity(p, f.codomain.factors[0])
        if p**b != f.codomain.factors[0]:
            raise ValueError("trace codomains must be powers of the domain prime")
        betas.append(b)

    count, ords = zero_count(list(system))
    if count == 0:
        raise ValueError("empty zero set: its valuation is infinite, nothing to trace")
    count_ord = ords[p].value
    if beta is None:
        beta = count_ord + 1
    elif beta <= count_ord:
        raise ValueError(f"beta must exceed ord_p(count) = {count_ord}, got {beta}")

    def failure(message: str, **values) -> ConsistencyError:
        system_json = [f.to_json_dict() for f in system]
        return ConsistencyError(message, instance={"system": system_json, "beta": beta, **values})

    ring = AbelianShape((p**beta,))
    lifted_maps = [proper_lift(f) for f in system]
    indicator_series: list[BinomialSeries] = []
    floors_per_map = []
    for b_j in betas:
        period = AbelianShape((p**b_j,))
        indicator = FiniteMap(
            period, ring, tuple(((1,) if x == (0,) else (0,)) for x in enumerate_elements(period))
        )
        series = proper_lift(indicator)
        cap = (p**b_j - 1) + (beta - 1) * p ** (b_j - 1) * (p - 1)
        support_max = max((n[0] for n in series.coeffs), default=0)
        if support_max > cap:
            raise failure(
                f"indicator support {support_max} exceeds the cap {cap}",
                exponent=b_j,
                support=support_max,
                cap=cap,
            )
        floors = []
        for (n,), c in sorted(series.coeffs.items()):
            floor = max(ceil_div(n - (p**b_j - 1), p ** (b_j - 1) * (p - 1)), 0)
            floors.append((n, multiplicity(p, c), floor))
        indicator_series.append(series)
        floors_per_map.append(tuple(floors))
    floors_ok = all(o >= f for per_map in floors_per_map for _, o, f in per_map)

    total = 0
    for point in enumerate_elements(domain):
        term = 1
        for lifted, chi in zip(lifted_maps, indicator_series):
            term *= chi.evaluate((lifted.evaluate(point),))
            if term == 0:
                break
        total += term

    if total == 0 or (total - count) % p**beta != 0:
        raise failure(
            "integral does not reproduce the zero count mod p^beta", count=count, integral=total
        )
    integral_ord = multiplicity(p, total)
    if integral_ord != count_ord:
        raise failure(
            f"integral valuation {integral_ord} disagrees with the count valuation {count_ord}",
            count_ord=count_ord,
            integral_ord=integral_ord,
        )
    return TraceReport(
        count, count_ord, beta, total, integral_ord, tuple(floors_per_map), floors_ok
    )


@dataclass(frozen=True)
class PolySystem:
    """Polynomial system over Z/mZ: sparse monomials plus declared degree caps.

    Each polynomial is a tuple of (coefficient, exponent vector) monomials;
    its declared degree must be at least the total degree of every monomial
    whose coefficient survives reduction mod m, and at least 1.
    """

    modulus: int
    nvars: int
    polys: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.nvars < 1:
            raise ValueError(f"variable count must be >= 1, got {self.nvars}")
        if len(self.polys) != len(self.degrees):
            raise ValueError("one declared degree per polynomial is required")
        for poly, declared in zip(self.polys, self.degrees):
            if declared < 1:
                raise ValueError(f"declared degrees must be >= 1, got {declared}")
            for coeff, exps in poly:
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps}")
                if coeff % self.modulus != 0 and sum(exps) > declared:
                    raise ValueError(
                        f"monomial of degree {sum(exps)} exceeds the declared {declared}"
                    )

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "nvars": self.nvars,
            "polys": [[[c, list(e)] for c, e in poly] for poly in self.polys],
            "degrees": list(self.degrees),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolySystem":
        try:
            polys = tuple(
                tuple((int(c), tuple(int(x) for x in e)) for c, e in poly)
                for poly in data["polys"]
            )
            return cls(
                int(data["modulus"]),
                int(data["nvars"]),
                polys,
                tuple(int(d) for d in data["degrees"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial system: {exc}") from exc


def _value_tables(system: PolySystem) -> list[list[int]]:
    """Each polynomial's values mod m at every point of (Z/m)^n, in
    itertools.product order (last variable fastest).

    The powers x -> x^e mod m are tabulated once per exponent, and each
    monomial's table is built one axis at a time, as the outer product of
    the table so far with that axis's row of powers.
    """
    m, n = system.modulus, system.nvars
    rows: dict[int, list[int]] = {}
    tables = []
    for poly in system.polys:
        total = [0] * m**n
        for coeff, exps in poly:
            term = [coeff % m]
            if not term[0]:
                continue
            for e in exps:
                row = rows.get(e)
                if row is None:
                    row = rows[e] = [pow(x, e, m) for x in range(m)]
                term = [t * v for t in term for v in row]
            total = list(map(operator.add, total, term))
        tables.append([v % m for v in total])
    return tables


def poly_zero_count(
    system: PolySystem, check: bool = True, limit: int | None = None
) -> tuple[int, dict[int, Degree]]:
    """Exhaustively count simultaneous zeros of a polynomial system over Z/mZ.

    With check enabled, nonconstant evaluation maps are compared against the
    per-prime closed-form bound through their declared degrees; zero
    functions impose no condition and any nonzero-constant polynomial makes
    the check vacuous by emptying the zero set.
    """
    m = system.modulus
    cap = enumeration_limit() if limit is None else limit
    if power_exceeds(m, system.nvars, cap):
        raise ResourceLimitError(
            f"{power_text(m, system.nvars)} points exceed the enumeration limit {cap}"
        )
    everywhere = (1 << m**system.nvars) - 1
    tables = _value_tables(system)
    count = reduce(operator.and_, (zero_mask(t, 0) for t in tables), everywhere).bit_count()

    primes = sorted(factorize(m))
    ords = {
        q: (INF if count == 0 else Degree.of(multiplicity(q, count))) for q in primes
    }

    if check and count != 0:
        surviving = [
            declared for declared, table in zip(system.degrees, tables) if len(set(table)) > 1
        ]
        if surviving:
            reports = polynomial_system_bound(m, system.nvars, surviving)
            for q, report in reports.items():
                if ords[q] < Degree.of(report.bound):
                    raise ConsistencyError(
                        f"ord_{q}(count) = {ords[q]} below the bound {report.bound}",
                        instance={
                            "system": system.to_json_dict(),
                            "prime": q,
                            "ord": ords[q].to_json(),
                            "bound": report.bound,
                        },
                    )
    return count, ords
