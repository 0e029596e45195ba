"""Brute-force oracles that verify every closed form at desk scale.

Nothing in this module trusts the formulas it checks: valuations come from
exact big-integer sums, degrees from exhaustive difference tables, and the
headline bound from counting zeros of every qualifying system.  The two
optimization oracles enumerate no box.  ``brute_min_valuation`` min-plus
convolves the parts' exact column-sum valuation tables; the objective
oracle folds in each target's carry floors at step d_j and adds that
profile at the spent budget, reading ``vp_value`` only past its caps.

Both modes of verification take their maps from one set, the maps of degree
<= d of a one-prime pair.  ``calculus.degree_generators`` gives it as the
constants plus a direct sum of cyclic groups, one generator list per codomain
factor, so the maps number |B| K, K the product of the generator orders
(``_bounded_map_count``).  Sampled mode draws a constant and a nonzero
combination uniformly, with one ``randrange`` over their exact count
|B| (K - 1).  Either mode checks its number of systems against MAX_SYSTEMS
before it builds any table: the product of the targets' |B| (K - 1)
(exhaustive) or the sample count (sampled).  The oracle stays independent
of what it checks: it never consults the closed-form bound, and every
generated or drawn table has its degree computed again from its values, not
from the generators.  A degree above d (sampled: outside (0, d]) raises
ConsistencyError naming the first such table, and the test suite
compares the enumeration, and the sampler's support, with the brute-force
bucketing of every table.

Exhaustive mode takes each target's candidates from
``functions_by_degree(domain, B, cap, d)``, the buckets of degree 1..d in
order, so its reports are those of a full enumeration with the other tables
left out.  The maps of degree <= d are generated on per-position planes
(``_generated_planes``): for each codomain slot j and domain position k one
int holds entry j at k of every map, table i in bits [i w, (i + 1) w).  The
slot width w is one bit when every codomain factor is Z/2, where adding is
XOR, and ``calculus._slot_size`` bytes otherwise.  The planes are built by
doubling, one generator at a time, from the zero map.  Every call rechecks
them with one difference transform per codomain slot on copies of the
planes, whose order levels give each table's degree as flags
(``calculus._top_flags``); each degree's tables are written as rows, sorted
into product order and laid out on planes again (``_decoded``), as a
``TableSet``, the one batch layout.  One record per (domain, codomain, d),
64 kept (``_target``), keeps the planes and the buckets of the last recheck
outcome when the maps fit in CACHED_BYTES; an equal outcome reuses them.

Both modes count zeros on the candidates' ``TableSet.zero_flags``: per domain
position, a flag in the slot of each candidate that vanishes there.  With r
>= 2 targets the systems are laid out in product order of the candidate
indices (exhaustive: the last target's flags tiled and the earlier ones'
spread) or side by side (sampled: the draws zipped), and ANDed per
position; the slot-wise sum over the positions is every system's zero count
at once (``_scan_systems``).  The flags come from the value tables
themselves, never from series coefficients or a closed form.  The witness
is the first system of least ord in that layout, and only it is decoded.
Polynomial systems count zeros on bit masks (``calculus.zero_mask``) of
value tables built one axis at a time from tabulated powers.  The test
suite compares every count with a count written from the definition.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache, reduce
from typing import Sequence

from .bounds import (
    TargetSpec,
    _carry_floor,
    _check_budget,
    expand_targets,
    polynomial_system_bound,
    vp_value,
    zero_count_bound,
)
from .calculus import (
    BinomialSeries,
    FiniteMap,
    Table,
    TableSet,
    _box_values,
    _count_valuation,
    _degree,
    _degree_tops,
    _entries,
    _forward_differences,
    _planes,
    _raise_past_cap,
    _slot_ones,
    _slot_size,
    _slot_sum,
    _sylow_plan,
    _top_flags,
    _width_ones,
    coefficient_table,
    degree_generators,
    functional_degree,  # not called here; perfbench's tracer test reads oracle.functional_degree
    proper_lift,
    zero_count,
    zero_mask,
)
from .degrees import INF, Degree
from .errors import ConsistencyError, ResourceLimitError
from .groups import (
    AbelianShape,
    PGroupShape,
    check_enumerable,
    enumerate_elements,
    enumeration_limit,
    max_functional_degree,
    one_variable_cap,
    pure_prime,
)
from .intmath import check_integer, check_prime, check_printable, check_tuple, factorize
from .intmath import multiplicity, power_exceeds, power_text
from .partitions import Partition, _Record, _unchecked, make_partition

DIRECT_SUM_CAP = 1024
COLUMN_TABLE_CAP = 2**14  # entries of one exact column-sum table, whose bits grow as their square
MAX_SYSTEMS = 200000  # systems one verification may test, in either mode
CACHED_BYTES = 2**22  # generated tables kept between calls, per target record


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
    return list(_top_row_binomials(limit))


def _top_row_binomials(limit: int):
    """C(limit, n + 1) for n < limit, one at a time: the table's limit^2 / 2
    bits are never held at once."""
    value = limit  # C(limit, 1)
    for n in range(limit):
        yield value
        value = value * (limit - n - 1) // (n + 2)


@lru_cache(maxsize=64)
def _column_ord_table(p: int, exponent: int) -> tuple[int, ...]:
    limit = p**exponent
    sums = binomial_column_sums(limit) if limit <= DIRECT_SUM_CAP else _top_row_binomials(limit)
    return tuple(multiplicity(p, s) for s in sums)


@lru_cache(maxsize=16)
def _valuation_profile(p: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """profile[s] = min valuation over coordinate boxes with sum <= s.

    Only the coordinate sum couples the parts' column-sum valuations, so the
    per-part tables are min-plus convolved one part at a time, and a running
    minimum makes the least valuation at each sum the profile.  The largest
    table (COLUMN_TABLE_CAP) and the steps are checked before any is built.
    """
    if power_exceeds(p, parts[0], COLUMN_TABLE_CAP):
        table = power_text(p, parts[0])
        raise ResourceLimitError(f"a column-sum table of {table} entries exceeds {COLUMN_TABLE_CAP}")
    steps, length = 0, 1
    for a in parts:
        steps, length = steps + length * p**a, length + p**a - 1
    if steps > (cap := enumeration_limit()):
        raise ResourceLimitError(f"the valuation profile takes {steps} steps, past {cap}")
    best = [0]
    for a in parts:
        table = _column_ord_table(p, a)
        folded = [math.inf] * (len(best) + len(table) - 1)
        low = math.inf
        for n, v in enumerate(table):
            if v < low:  # a larger coordinate of no smaller valuation never lowers the profile
                low, window = v, slice(n, n + len(best))
                folded[window] = map(min, folded[window], [b + v for b in best])
        best = folded
    return tuple(itertools.accumulate(best, min))


def brute_min_valuation(p: int, alpha: Partition, budget: int | float) -> int:
    """Minimum of ord_p over exact binomial-sum products with |n| <= budget.

    Points with a coordinate at or beyond p^a have a vanishing factor and
    infinite valuation, so restricting to the coordinate box is lossless.
    """
    check_prime(p)
    _check_budget(budget)
    profile = _valuation_profile(p, alpha.parts)
    idx = len(profile) - 1 if budget >= len(profile) else int(budget)
    return profile[idx]


def functions_by_degree(
    domain: AbelianShape,
    codomain: AbelianShape,
    cap: int = 2**20,
    max_degree: int | None = None,
) -> dict[Degree, TableSet]:
    """Bucket maps from domain to codomain by exact functional degree.

    With max_degree=None every table is listed, its degree taken, and each
    bucket built again from the product of the codomain's elements, keeping
    the tables of its degree (``TableSet.of``).  With
    max_degree=d (a one-prime pair only) just the tables of degree <= d
    are: ``_bounded_buckets`` takes them from ``_generated_planes`` without
    building the others (d below -1 admits the zero map alone, as -1
    does).  Tables arrive in itertools.product order, and buckets keep the
    order in which each degree first appears.  Every table has its degree
    computed again from its values on every call.  A bucket is a sequence
    of FiniteMaps held as one TableSet, which builds a
    FiniteMap only for a table read out.  With max_degree=d one record per
    (domain, codomain, d), 64 kept, holds the planes and the buckets of the
    last recheck outcome when the maps fit in CACHED_BYTES, so warm calls
    with an equal outcome return the same bucket objects in a new dict.
    """
    _check_table_cap(codomain.order, domain.order, 1, cap)
    if max_degree is not None:
        check_integer(max_degree, "max_degree")
        check_enumerable(codomain.order)  # held to the enumeration limit, as below
        return _bounded_buckets(domain, codomain, max(max_degree, -1))
    targets = enumerate_elements(codomain)
    tops = _degree_tops(domain, codomain, _all_tables(domain, codomain, targets))
    buckets = {}
    for top in dict.fromkeys(tops):  # per top, its tables in product order
        kept = map(operator.eq, tops, itertools.repeat(top))
        tables = itertools.compress(itertools.product(targets, repeat=domain.order), kept)
        buckets[_degree(top)] = TableSet.of(domain, codomain, tables, tops.count(top))
    return buckets


def _rechecked_tops(
    domain: AbelianShape,
    codomain: AbelianShape,
    tables: TableSet,
    least: int,
    max_degree: int | None,
) -> list:
    """One plus the degree of each drawn table (0 for -inf), again from its
    values by one ``_degree_tops`` call; the first outside
    [least, max_degree + 1] raises."""
    tops = _degree_tops(domain, codomain, tables)
    high = math.inf if max_degree is None else max_degree + 1
    # Distinct tops, in the order of their first tables.
    outside = [top for top in dict.fromkeys(tops) if not least <= top <= high]
    if outside:
        values = tables.table(tops.index(outside[0]))
        raise _degree_outside(domain, codomain, least, max_degree, outside[0], values)
    return tops


def _degree_outside(
    domain: AbelianShape,
    codomain: AbelianShape,
    least: int,
    max_degree: int | None,
    top: int,
    values: Table,
) -> ConsistencyError:
    """The error for a generated or drawn table whose top lies outside
    [least, max_degree + 1], with the instance that replays it."""
    high = math.inf if max_degree is None else max_degree + 1
    return ConsistencyError(
        f"a generated table has degree {_degree(top)} outside [{_degree(least)}, {_degree(high)}]",
        instance={
            "domain": domain.factors,
            "codomain": codomain.factors,
            "max_degree": max_degree,
            "order": _degree(top).to_json(),
            "values": values,
        },
    )


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


def _all_tables(
    domain: AbelianShape, codomain: AbelianShape, targets: list[tuple[int, ...]]
) -> TableSet:
    """Every value table, in itertools.product order of the codomain's
    elements, targets."""
    count = len(targets) ** domain.order
    return TableSet.of(domain, codomain, itertools.product(targets, repeat=domain.order), count)


def _bounded_map_count(domain: AbelianShape, codomain: AbelianShape, max_degree: int) -> int:
    """The number of maps of degree <= max_degree of a one-prime pair: the
    constants (the zero map alone when max_degree < 0) times the product of
    the generator orders of ``degree_generators``."""
    generators = degree_generators(domain, codomain, max_degree)
    constants = codomain.order if max_degree >= 0 else 1
    return constants * math.prod(order for factor in generators for _, order in factor)


class _Target:
    """What ``_bounded_buckets`` keeps of one (domain, codomain, d), built
    without any table: the map count, the plane slot width and whether the
    maps fit in CACHED_BYTES as TableSet slots (kept).  Only a kept target
    holds its planes, and the buckets of the last recheck outcome."""

    def __init__(self, domain: AbelianShape, codomain: AbelianShape, max_degree: int):
        size = _slot_size(domain, codomain)
        self.count = _bounded_map_count(domain, codomain, max_degree)
        self.width = 1 if set(codomain.factors) == {2} else 8 * size
        self.kept = self.count * domain.order * len(codomain.factors) * size <= CACHED_BYTES
        self.planes = self.tops = self.buckets = None


_target = lru_cache(maxsize=64)(_Target)  # one record per (domain, codomain, d)


def _generated_planes(
    domain: AbelianShape, codomain: AbelianShape, max_degree: int, target: _Target
) -> tuple[tuple[int, ...], ...]:
    """The maps of degree <= max_degree of a one-prime pair on planes, kept
    in target, the pair's record (``_target``), when it keeps its maps.

    planes[j][k] holds entry j of every table at domain position k, table i
    in bits [i width, (i + 1) width): one bit when every codomain factor is
    Z/2, else a slot of ``_slot_size`` bytes.  Starting from the zero map,
    each generator of ``degree_generators``, of order o, makes o copies of
    the tables so far, copy t plus t times the generator, added slot-wise;
    the constants of each factor are doubled in last (none when max_degree
    < 0), so table 0 is the zero map.
    """
    if target.planes is not None:
        return target.planes
    n, width = domain.order, target.width
    planes = [[0] * n for _ in codomain.factors]
    count = 1

    def double(slot: int, q: int, values: Sequence[int], order: int) -> None:
        nonlocal count
        ones = _width_ones(count, width)
        add, shifts = _slot_sum(q, width, ones), range(0, order * count * width, count * width)
        for j, column in enumerate(planes):
            for k, plane in enumerate(column):
                copies = [plane] * order
                if j == slot and values[k]:
                    term = values[k] * ones
                    for t in range(1, order):
                        copies[t] = add(copies[t - 1], term)
                column[k] = sum(map(operator.lshift, copies, shifts))
        count *= order

    generators = degree_generators(domain, codomain, max_degree)
    for j, (q, factor) in enumerate(zip(codomain.factors, generators)):
        for terms, order in factor:
            double(j, q, coefficient_table(domain, q, terms), order)
    if max_degree >= 0:
        for j, q in enumerate(codomain.factors):
            double(j, q, [1] * n, q)
    planes = tuple(map(tuple, planes))
    target.planes = planes if target.kept else None
    return planes


def _bounded_buckets(
    domain: AbelianShape, codomain: AbelianShape, max_degree: int
) -> dict[Degree, TableSet]:
    """``functions_by_degree`` of the maps of degree <= max_degree of a
    one-prime pair, from the planes of ``_generated_planes``.

    The degrees are rechecked on every call: one difference transform per
    codomain slot, on copies of the planes, gives per total order the flags
    of the tables with a nonzero coefficient of that order, and a table's
    degree is its highest such order, -inf when it has none
    (``calculus._top_flags``).  An outcome equal to the one the pair's
    record (``_target``) keeps gets the kept buckets; any other is decoded
    from the planes (``_decoded``).  A table past the pair's degree cap, or
    of degree above max_degree, raises ConsistencyError naming the first
    such table in product order.
    """
    target = _target(domain, codomain, max_degree)
    planes = _generated_planes(domain, codomain, max_degree, target)
    (comp,) = _sylow_plan(domain, codomain)
    ones = _width_ones(target.count, target.width)
    tops = _top_flags(comp, list(map(list, planes)), target.width, ones)
    unchanged = tops == target.tops
    buckets = target.buckets if unchanged else _decoded(domain, codomain, target, planes, tops)
    if target.kept:
        target.tops, target.buckets = tops, buckets
    # The buckets are in first-table order: the first past a limit names its table.
    if max(tops) > min(comp.cap, max_degree) + 1:
        for degree, tables in buckets.items():
            if degree > comp.cap:
                _raise_past_cap(domain, codomain, (comp,), [[degree.value + 1]], [tables.table(0)])
        degree, tables = next(item for item in buckets.items() if item[0] > max_degree)
        raise _degree_outside(domain, codomain, 0, max_degree, degree.value + 1, tables.table(0))
    return dict(buckets)


def _decoded(
    domain: AbelianShape, codomain: AbelianShape, target: _Target, planes: tuple, tops: dict
) -> dict[Degree, TableSet]:
    """Per top of tops (a 1 in the lowest bit of the slot of each table of
    that top), the tables of the planes it flags, in product order; the
    buckets are ordered by their first tables.

    Each table is written as a row of big-endian slots, so that sorting the
    rows sorts the tables into product order, and each bucket's sorted rows
    become its planes (``calculus._planes``).
    """
    n, r, size = domain.order, len(codomain.factors), _slot_size(domain, codomain)
    count, width = target.count, target.width
    stride, step = n * r * size, max(width // 8, 1)  # step: bytes per entry of a plane
    data = bytearray(count * stride)
    for k, cells in enumerate(zip(*planes)):
        for j, plane in enumerate(cells):
            entries = _plane_bytes(plane, count, width)
            for b in range(step):
                data[(k * r + j + 1) * size - 1 - b :: stride] = entries[b::step]
    buckets = []
    for top, chosen in tops.items():
        chosen = itertools.compress(range(count), _plane_bytes(chosen, count, width)[::step])
        rows = b"".join(sorted(data[i * stride : (i + 1) * stride] for i in chosen))
        tables = TableSet(domain, codomain, len(rows) // stride, _planes(rows, n, r, size), size)
        buckets.append((rows[:stride], top, tables))
    buckets.sort(key=operator.itemgetter(0))
    return {_degree(top): tables for _, top, tables in buckets}


_BIT_BYTES = [bytes(b >> i & 1 for i in range(8)) for b in range(256)]


def _plane_bytes(plane: int, count: int, width: int) -> bytes:
    """The count slots of a plane, little-endian, max(width // 8, 1) bytes
    each: a one-bit slot becomes a byte 0 or 1."""
    if width > 1:
        return plane.to_bytes(count * width // 8, "little")
    digits = plane.to_bytes((count + 7) // 8, "little")
    return b"".join(map(_BIT_BYTES.__getitem__, digits))[:count]


def brute_max_degree(domain: AbelianShape, codomain: AbelianShape, cap: int = 2**20) -> int:
    """Largest degree over all tables, asserted against the closed form."""
    _check_table_cap(codomain.order, domain.order, 1, cap)
    p = pure_prime(domain)
    if p is None or pure_prime(codomain) != p:
        raise ValueError("both shapes must be p-groups of one common prime")
    tables = _all_tables(domain, codomain, enumerate_elements(codomain))
    tops = _degree_tops(domain, codomain, tables)
    best = _degree(max(tops))
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
    """Per-target coefficient support caps, ``one_variable_cap(p, b, beta)``."""
    check_integer(beta, "beta")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    p = targets.p
    return tuple(one_variable_cap(p, b, beta) for b, _ in targets.targets)


def brute_objective_minimum(
    alpha: Partition, targets: TargetSpec, beta: int, limit: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Minimum of the objective over the full coefficient box, and its first
    minimizer in product order.

    Each target's carry floors are min-plus folded in at step d_j, keeping
    per spent budget the least floors and, among those, the least point;
    the valuation profile (``vp_value`` past its caps) is then added at each
    spent budget.  ``limit`` (``enumeration_limit()`` when None) caps the
    fold steps, checked before any table is built.
    """
    box = objective_box(targets, beta)
    p, pairs = targets.p, targets.targets
    steps, volume, span = 0, 1, 0
    for b, (_, d) in zip(box, pairs):
        steps += min(volume, span + 1) * (b + 1)  # budgets reached times the table
        volume, span = volume * (b + 1), span + d * b
    if steps > (cap := enumeration_limit() if limit is None else limit):
        raise ResourceLimitError(f"the objective's folds take {steps} steps, past {cap}")
    states = {0: (0, ())}  # spent budget -> (least floors, least point)
    for b, (beta_j, d) in zip(box, pairs):
        folded: dict[int, tuple[int, tuple[int, ...]]] = {}
        for n in range(b + 1):
            floor = _carry_floor(p, beta_j, n)
            for spent, (floors, point) in states.items():
                entry = (floors + floor, (*point, n))
                folded[spent + d * n] = min(entry, folded.get(spent + d * n, entry))
        states = folded
    try:
        profile = _valuation_profile(p, alpha.parts)
        valuations = [profile[min(spent, len(profile) - 1)] for spent in states]
    except ResourceLimitError:
        valuations = [vp_value(p, alpha, spent) for spent in states]
    return min((f + v, point) for (f, point), v in zip(states.values(), valuations))


def sample_bounded_map(
    domain: AbelianShape, codomain: AbelianShape, cap: int, rng: random.Random
) -> FiniteMap:
    """Uniform random map among those of degree in (0, cap]: the one-draw
    call of ``sample_bounded_maps``."""
    return sample_bounded_maps(domain, codomain, cap, rng, 1)[0]


def sample_bounded_maps(
    domain: AbelianShape, codomain: AbelianShape, cap: int, rng: random.Random, count: int
) -> TableSet:
    """count independent uniform random maps among those of degree in (0, cap],
    as a sequence of FiniteMaps held as one TableSet.

    One draw from the rng per map picks a constant and a nonzero combination
    of the generators of ``degree_generators`` (the maps of degree <= cap
    that vanish at 0, a direct sum of cyclic groups), decoded digit by digit
    into binomial coefficients (a digit 0 is skipped).  Each coefficient is
    written once, into the slot of its draw in a row per codomain factor and
    domain cell; after the last draw each row is read as one int, and one
    slot-wise inverse transform per factor turns them into values, the
    planes of the TableSet as they are.  Once all
    count maps are drawn, ``_rechecked_tops`` computes their degrees again, and
    the first one outside (0, cap] raises ConsistencyError with its table.
    """
    p = pure_prime(domain)
    if p is None or pure_prime(codomain) != p:
        raise ValueError("sampling needs p-groups of one common prime")
    check_integer(cap, "cap")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    check_enumerable(domain.order)
    nonconstant = _bounded_map_count(domain, codomain, cap) - codomain.order
    generators = degree_generators(domain, codomain, cap)
    size, combinations = _slot_size(domain, codomain), nonconstant // codomain.order
    factor_rows = [[bytearray(count * size) for _ in range(domain.order)] for _ in codomain.factors]
    for i in range(count):
        constants, combination = divmod(rng.randrange(nonconstant), combinations)
        combination += 1
        for q, factor, rows in zip(codomain.factors, generators, factor_rows):
            constants, constant = divmod(constants, q)
            cells = {0: constant}
            for generator, order in factor:
                combination, t = divmod(combination, order)
                if t:
                    for cell, c in generator:
                        cells[cell] = (cells.get(cell, 0) + t * c) % q
            if size == 1:
                for cell, c in cells.items():
                    rows[cell][i] = c
            else:
                for cell, c in cells.items():
                    rows[cell][i * size : (i + 1) * size] = c.to_bytes(size, "little")
    columns = []
    while factor_rows:  # free each factor's rows once their column ints are read
        columns.append([int.from_bytes(row, "little") for row in factor_rows.pop(0)])
    ones = _slot_ones(count, size)
    for q, column in zip(codomain.factors, columns):
        _forward_differences(column, domain.factors, _slot_sum(q, 8 * size, ones))
    tables = TableSet(domain, codomain, count, columns, size)
    _rechecked_tops(domain, codomain, tables, 2, cap)
    return tables


class VerifyReport(_Record):
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
) -> VerifyReport:
    """Check ord_p(#zeros) >= bound over qualifying systems.

    Qualifying maps are nonconstant with degree at most the per-target cap.
    Exhaustive mode enumerates every qualifying tuple; sampled mode draws a
    fixed number of systems deterministically from the seed.  Drawing no
    sample yields a vacuous pass, flagged as such.  The table cap
    (exhaustive) or the enumeration limit (sampled) is checked from p and
    the exponent sum first, before any p^part is formed; then the number of
    systems, the product over the targets of their qualifying counts
    (exhaustive) or the sample count, is checked against MAX_SYSTEMS before
    any table is built.  Exhaustive mode takes each target's candidates
    from ``functions_by_degree``, and both modes count the zeros of every
    system at once (``_scan_systems``).
    """
    targets = expand_targets(p, shaped)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if mode == "exhaustive":
        for shape, _ in shaped:
            _check_table_cap(shape.order, p, alpha.size, cap)
    elif samples > 0:
        check_enumerable(p, alpha.size)
    else:
        # No sample builds no table, so no cap bounds the run: only the bound
        # is computed, and it takes the bound's digit check.
        check_printable(p, alpha.width, "part")
    domain = _unchecked(PGroupShape, p=p, exponents=alpha).shape()  # p tested above
    if mode == "exhaustive":
        systems = math.prod(
            _bounded_map_count(domain, shape, d) - shape.order for shape, d in shaped
        )
        excess = f"{systems} qualifying systems exceed {MAX_SYSTEMS}; use sampled mode"
    else:
        systems, excess = samples, f"{samples} sampled systems exceed {MAX_SYSTEMS}"
    if systems > MAX_SYSTEMS:
        raise ResourceLimitError(excess)
    report = zero_count_bound(alpha, targets)
    # The objective's closed-form minimum is the raw bound (bound_objective_minimum).
    objective_match = report.raw_bound == report.bound
    instance = {
        "p": p,
        "alpha": alpha.to_json(),
        "targets": [[shape.to_json(), d] for shape, d in shaped],
    }

    if mode == "exhaustive":
        # Rechecked degrees lie in [-inf, d], so those above 0 qualify.
        candidate_lists = [
            [tables for k, tables in functions_by_degree(domain, shape, cap, d).items() if k > 0]
            for shape, d in shaped
        ]
    else:
        # Drawing no sample builds no table, so the domain is never enumerated.
        rng = random.Random(seed)
        candidate_lists = [
            [sample_bounded_maps(domain, shape, d, rng, samples)] if samples else []
            for shape, d in shaped
        ]
    min_ord, witness, tested, passed = _scan_systems(
        p, candidate_lists, mode == "exhaustive", Degree.of(report.bound)
    )
    return VerifyReport(
        instance,
        report.bound,
        min_ord,
        witness,
        tested,
        mode,
        seed,
        systems == 0,
        passed,
        objective_match,
    )


def _scan_systems(
    p: int, candidate_lists: list[list[TableSet]], product: bool, claimed: Degree
) -> tuple[Degree | None, tuple | None, int, bool]:
    """(min ord_p of the zero counts, its first witness, systems tested,
    whether every system met the claimed bound) over the systems of the
    targets' candidates, each target's candidates the tables of its
    TableSets in turn: itertools.product of the candidates (product) or zip
    (the draws of sampled mode).

    Systems are laid out in slots of one width, the widest of the targets'
    slots.  With product, system (i_1, ..., i_r) has index
    (..(i_1 c_2 + i_2) c_3 ..) c_r + i_r, c_s the candidate counts: each
    target's zero flags (``TableSet.zero_flags``) are spread over the
    systems of later targets and tiled over those of earlier ones
    (``_relayout``); with zip, system i holds candidate i of every target.
    The flags are ANDed per domain position, and their slot-wise sum holds
    every system's zero count.  Only the distinct counts are valued, and
    only the witness, the first system of least ord, is decoded.
    """
    counts = [sum(map(len, runs)) for runs in candidate_lists]
    if not all(counts):
        return None, None, 0, True
    total = math.prod(counts) if product else counts[0]
    size = max(runs[0].size for runs in candidate_lists)
    order, width = candidate_lists[0][0].domain.order, 8 * size
    zeros, spread, tile = [_slot_ones(total, size)] * order, total if product else 1, 1
    for runs, count in zip(candidate_lists, counts):
        if product:
            spread //= count
        for k, flags in enumerate(_joined_flags(runs)):
            zeros[k] &= _relayout(flags, count, 8 * runs[0].size, width, spread, tile)
        if product:
            tile *= count
    # System i's zero count is the sum of its flags, in slot i (a count up to |A| fits).
    zero_counts = _entries(sum(zeros).to_bytes(total * size, "little"), size)
    ords = {count: multiplicity(p, count) if count else math.inf for count in set(zero_counts)}
    low = min(ords.values())
    first = min(zero_counts.index(count) for count, o in ords.items() if o == low)
    indices = [first] * len(counts)
    if product:
        for s in range(len(counts) - 1, -1, -1):
            first, indices[s] = divmod(first, counts[s])
    witness = tuple(map(_table_at, candidate_lists, indices))
    min_ord = INF if low == math.inf else Degree.of(low)
    return min_ord, witness, total, low >= claimed.value


def _joined_flags(runs: list[TableSet]) -> list[int]:
    """Per domain position, the zero flags of the tables of runs, one
    TableSet after another, in their common slots."""
    joined, shift = [0] * runs[0].domain.order, 0
    for tables in runs:
        joined = [a | f << shift for a, f in zip(joined, tables.zero_flags())]
        shift += len(tables) * 8 * tables.size
    return joined


def _table_at(runs: list[TableSet], i: int) -> Table:
    """The value table of table i of runs, one TableSet after another."""
    for tables in runs:
        if i < len(tables):
            return tables.table(i)
        i -= len(tables)
    raise IndexError("table index out of range")


def _relayout(
    flags: int, count: int, width: int, new_width: int, spread: int = 1, tile: int = 1
) -> int:
    """Flags of count slots of width bits (read off each slot's lowest bit)
    in slots of new_width bits, each slot repeated spread times in a row
    and the whole repeated tile times, through their binary digits; flags
    that nothing moves are returned as they are."""
    if width == new_width and spread == tile == 1:
        return flags
    digits = format(flags, "b").zfill(count * width)[width - 1 :: width]
    slot = "1".zfill(new_width) * spread
    return int(digits.translate({48: "0" * len(slot), 49: slot}) * tile, 2)


class TraceReport(_Record):
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
    Requires a nonempty zero set and beta, if given, an int above its
    valuation.  Each lift is evaluated on the whole box by one summation
    transform (``calculus._box_values``), each indicator's series is built
    once per (p, b, beta) (``_indicator_series``) and evaluated once per
    distinct lifted value, and the integral sums their per-point products.
    """
    if not system:
        raise ValueError("the trace needs at least one map")
    if beta is not None:
        check_integer(beta, "beta")
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

    # Each indicator's series box has width cap + 1: its transform costs
    # about width^2 / 2 cell updates and the integral evaluates width terms
    # per distinct lifted value (at most |A|), so both are checked first.
    caps = [one_variable_cap(p, b_j, beta) for b_j in betas]
    limit = enumeration_limit()
    for cap in caps:
        if cap * (cap + 1) // 2 > limit or domain.order * (cap + 1) > limit:
            raise ResourceLimitError(
                f"beta {beta} gives an indicator series of width {cap + 1},"
                f" past the enumeration limit {limit}"
            )

    def failure(message: str, **values) -> ConsistencyError:
        system_json = [f.to_json_dict() for f in system]
        return ConsistencyError(message, instance={"system": system_json, "beta": beta, **values})

    lifted_values = [_box_values(domain, proper_lift(f)) for f in system]
    indicator_series: list[BinomialSeries] = []
    floors_per_map = []
    for b_j, cap in zip(betas, caps):
        series = _indicator_series(p, b_j, beta, proper_lift)
        support_max = max((n[0] for n in series.coeffs), default=0)
        if support_max > cap:
            raise failure(
                f"indicator support {support_max} exceeds the cap {cap}",
                exponent=b_j,
                support=support_max,
                cap=cap,
            )
        coeffs = sorted(series.coeffs.items())
        floors_per_map.append(
            tuple((n, multiplicity(p, c), _carry_floor(p, b_j, n)) for (n,), c in coeffs)
        )
        indicator_series.append(series)
    floors_ok = all(o >= f for per_map in floors_per_map for _, o, f in per_map)

    # Each indicator is evaluated once per distinct lifted value (all >= 0).
    terms = itertools.repeat(1)
    for values, chi in zip(lifted_values, indicator_series):
        chi_terms = [(c, n) for (n,), c in chi.coeffs.items()]
        chi_at = {v: sum([c * math.comb(v, n) for c, n in chi_terms]) for v in set(values)}
        terms = list(map(operator.mul, terms, map(chi_at.__getitem__, values)))
    total = sum(terms)

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


@lru_cache(maxsize=64)
def _indicator_series(p: int, b: int, beta: int, lift) -> BinomialSeries:
    """The lift of the indicator of 0 on Z/p^b, as a map into Z/p^beta, built
    once per (p, b, beta) and lift function, so a replaced ``proper_lift``
    is called afresh."""
    period, ring = AbelianShape((p**b,)), AbelianShape((p**beta,))
    values = tuple(((1,) if x == (0,) else (0,)) for x in enumerate_elements(period))
    return lift(FiniteMap(period, ring, values))


class PolySystem(_Record):
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
        check_integer(self.modulus, "modulus")
        check_integer(self.nvars, "variable count")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.nvars < 1:
            raise ValueError(f"variable count must be >= 1, got {self.nvars}")
        check_tuple(self.polys, "polys")
        check_tuple(self.degrees, "degrees")
        if len(self.polys) != len(self.degrees):
            raise ValueError("one declared degree per polynomial is required")
        for poly, declared in zip(self.polys, self.degrees):
            check_integer(declared, "a declared degree")
            if declared < 1:
                raise ValueError(f"declared degrees must be >= 1, got {declared}")
            check_tuple(poly, "a polynomial")
            for monomial in poly:
                if not (isinstance(monomial, tuple) and len(monomial) == 2):
                    raise ValueError(f"a monomial is a pair (coefficient, exponents): {monomial!r}")
                coeff, exps = monomial
                check_integer(coeff, "a coefficient")
                check_tuple(exps, "an exponent vector")
                for e in exps:
                    check_integer(e, "an exponent")
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
            polys = tuple(tuple((c, tuple(e)) for c, e in poly) for poly in data["polys"])
            return cls(data["modulus"], data["nvars"], polys, tuple(data["degrees"]))
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


def poly_zero_count(system: PolySystem) -> tuple[int, dict[int, Degree]]:
    """Exhaustively count simultaneous zeros of a polynomial system over Z/mZ.

    Nonconstant evaluation maps are then compared against the per-prime
    closed-form bound through their declared degrees; zero functions impose
    no condition and any nonzero-constant polynomial makes the check vacuous
    by emptying the zero set.
    """
    m = system.modulus
    cap = enumeration_limit()
    if power_exceeds(m, system.nvars, cap):
        raise ResourceLimitError(
            f"{power_text(m, system.nvars)} points exceed the enumeration limit {cap}"
        )
    everywhere = (1 << m**system.nvars) - 1
    tables = _value_tables(system)
    count = reduce(operator.and_, (zero_mask(t, 0) for t in tables), everywhere).bit_count()

    ords = {q: _count_valuation(q, count) for q in sorted(factorize(m))}

    if count != 0:
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
