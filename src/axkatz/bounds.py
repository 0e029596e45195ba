"""Closed-form p-adic lower bounds for simultaneous zero counts.

Everything here is exact integer arithmetic.  Rational comparisons such as
"prefix <= D / (p - 1)" are evaluated as "(p - 1) * prefix <= D", and integer
logarithms are computed by repeated multiplication, never through floats.

Every closed form reads the partition through its runs and its Ferrers
column counts (`Partition.columns`, O(width)): every measure is a
column-weight sum (`partitions._dot_prefix_weight`) and every size a sum of
column counts.  One column walk (`_column_walk`) finds the longest
column-ordered dot prefix whose weight fits a budget: it gives `vp_value`,
the deficit case's t_star and the `min_valuation` witness, held as runs (its
mu and point are constant on each run of equal parts) and checked by sums
over runs; `product_valuation` values the witness's point one pair of runs
at a time.  So no step runs once per row but the check of a point given by
its rows and the one count per run of its coordinates (`_pair_counts`).

Runtime checks: `min_valuation` re-derives its dot count from the bracket
(p - 1) W(t) <= D < (p - 1) W(t + 1) (an infinite D must take all t =
|alpha| dots), checks four rearrangements of the value, the witness point's
valuation and its coordinate sum; `zero_count_bound` checks that the bound
is positive exactly when the source measure exceeds the target measure; the
two equal-exponent forms are checked against the general route.  A failed
check raises `ConsistencyError` carrying the instance (p, the partition as
its columns, and the budget or targets) to replay it.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Sequence

from .degrees import INF, Degree
from .errors import ConsistencyError
from .groups import AbelianShape, primary_decomposition
from .intmath import (
    ceil_div,
    check_integer,
    check_prime,
    check_printable,
    factorize,
    ilog,
    multiplicity,
    power_exceeds,
)
from .partitions import (
    Partition,
    _dot_prefix_weight,
    _Record,
    _rows,
    _second,
    _uncapped,
    _unchecked,
    partition_from_runs,
    truncate,
)

Budget = int | float  # nonnegative int or float (read as its floor), or math.inf for none


def binomial_sum_valuation(p: int, exponent: int, n: int) -> Degree:
    """ord_p of sum_{x=0}^{p^exponent - 1} C(x, n).

    Finite values equal exponent - ord_p(n + 1); the sum vanishes (infinite
    valuation) once n exceeds p^exponent - 1.
    """
    check_prime(p)
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    value = _sum_valuation(p, exponent, n)
    return INF if value is None else Degree.of(value)


def _sum_valuation(p: int, exponent: int, n: int) -> int | None:
    """``binomial_sum_valuation`` for checked arguments, None for a vanishing
    sum; p^exponent is formed only when n has about its bit length."""
    if power_exceeds(p, exponent, n):
        return exponent - multiplicity(p, n + 1)
    return None


def product_valuation(p: int, alpha: Partition, point: Sequence) -> Degree:
    """ord_p of the product of per-coordinate binomial column sums.

    The point is a tuple or list of its coordinates, one per row, or of its
    runs: (coordinate, rows) pairs in row order.  Every coordinate is checked
    before any pair is valued.  Equal (exponent, coordinate) pairs are valued
    once and weighted by their count, in the order of their first occurrence.
    """
    runs = _check_point(point)
    rows, given = len(alpha), sum(map(_second, point)) if runs else len(point)
    if given != rows:
        raise ValueError(f"expected {rows} coordinates, got {given}")
    check_prime(p)
    counts = _run_pair_counts(alpha.runs, point) if runs else _pair_counts(alpha, point)
    total = 0
    for (a, n), copies in counts.items():
        term = _sum_valuation(p, a, n)
        if term is None:
            return INF
        total += copies * term
    return Degree.of(total)


def _check_point(point) -> bool:
    """Raise ValueError unless the point holds nonnegative int coordinates,
    or runs of them, (coordinate, rows) pairs with rows >= 1; True for runs."""
    if not isinstance(point, (tuple, list)):
        raise ValueError(f"a point must be a tuple or list, got {point!r}")
    runs = bool(point) and isinstance(point[0], tuple)
    coordinates = point
    if runs:
        for run in point:
            rows = run[1] if isinstance(run, tuple) and len(run) == 2 else None
            if type(rows) is not int or rows < 1:
                raise ValueError(f"point runs must be pairs (coordinate, rows >= 1), got {run!r}")
        coordinates = [n for n, _ in point]
    # Plain nonnegative ints pass at C speed; anything else is named in row order.
    if {*map(type, coordinates)} - {int} or min(coordinates, default=0) < 0:
        for n in coordinates:
            check_integer(n, "a coordinate")
            if n < 0:
                raise ValueError(f"n must be nonnegative, got {n}")
    return runs


def _run_pair_counts(
    runs: Sequence[tuple[int, int]], point: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """Counts of the pairs (part, coordinate) over the rows, in first-occurrence
    order, walking the partition's runs and the point's runs together."""
    counts: dict[tuple[int, int], int] = {}
    pending = iter(point)
    n = left = 0
    for a, copies in runs:
        while copies:
            if not left:
                n, left = next(pending)
            step = min(copies, left)
            counts[a, n] = counts.get((a, n), 0) + step
            copies -= step
            left -= step
    return counts


def _pair_counts(alpha: Partition, point: Sequence[int]) -> dict[tuple[int, int], int]:
    """Counts of the pairs (alpha[i], point[i]), in first-occurrence order:
    each run of equal parts counts its coordinates with one C-level
    ``Counter``."""
    counts: dict[tuple[int, int], int] = {}
    hi = 0
    for a, copies in alpha.runs:
        lo, hi = hi, hi + copies
        for n, rows in Counter(point[lo:hi]).items():
            counts[a, n] = rows
    return counts


def _column_walk(
    columns: Sequence[int], p: int, scale: int, budget: Budget
) -> tuple[int, int, int]:
    """Longest column-ordered dot prefix whose weight times scale fits the budget.

    Dots in column j (1-based) weigh p^(j-1).  Returns (t, full, extra): the
    prefix takes t dots, namely the first `full` columns whole and `extra`
    dots of the next one.  An infinite budget takes every column at once.
    """
    if budget == float("inf"):
        return sum(columns), len(columns), 0
    t = 0
    spent = 0
    cost = scale
    for full, count in enumerate(columns):
        if spent + count * cost > budget:
            extra = int((budget - spent) // cost)
            return t + extra, full, extra
        spent += count * cost
        t += count
        cost *= p
    return t, len(columns), 0


def _check_budget(budget) -> None:
    """Raise ValueError unless the budget is a nonnegative int or float, inf
    included: not a bool, and not NaN, which every comparison would pass."""
    if isinstance(budget, bool) or not isinstance(budget, (int, float)) or not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number or inf, got {budget!r}")


def _instance(p: int, alpha: Partition, **inputs) -> dict:
    """A failing call's inputs, the partition given by its column counts."""
    return {"p": p, "columns": list(alpha.columns), **inputs}


def vp_value(p: int, alpha: Partition, budget: Budget) -> int:
    """Minimum of product_valuation over points with coordinate sum <= budget.

    Equals alpha.size minus the largest t whose column-ordered dot prefix,
    weighted by p - 1, fits in the budget; greedy column-by-column dot
    selection is optimal because the weights increase along columns.
    """
    check_prime(p)
    _check_budget(budget)
    columns = alpha.columns
    t, _, _ = _column_walk(columns, p, p - 1, budget)
    return sum(columns) - t


class ValuationMinimum(_Record):
    """Minimum valuation with an explicit minimizing point, held as runs.

    full_columns counts the completely selected Ferrers columns and
    extra_dots the dots taken from the next column.  mu_runs holds the
    per-row dot counts mu and point_runs the point (p^mu_i - 1)_i that
    attains the minimum, each as (value, rows) pairs in row order, with
    adjacent equal values merged and no empty run.  ``mu`` and ``point``
    list them row by row on first read, as ``Partition.parts`` lists rows:
    within ``enumeration_limit()``, or whatever the limit when the rows of
    the partition the witness was found for were listed.
    """

    value: int
    t: int
    point_runs: tuple[tuple[int, int], ...]
    mu_runs: tuple[tuple[int, int], ...]
    full_columns: int
    extra_dots: int
    _derived = False  # as Partition._derived, for the partition's rows

    @cached_property
    def point(self) -> tuple[int, ...]:
        return _rows(self.point_runs, capped=not self._derived)

    @cached_property
    def mu(self) -> tuple[int, ...]:
        return _rows(self.mu_runs, capped=not self._derived)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "t": self.t,
            "point": list(self.point),
            "mu": list(self.mu),
            "Q": self.full_columns,
            "R": self.extra_dots,
        }


def min_valuation(p: int, alpha: Partition, budget: Budget) -> ValuationMinimum:
    """vp_value together with a witness point, cross-checked four ways.

    The witness is chosen column by column, so mu and the point are constant
    on each run of equal parts: they are built, and checked, as runs.
    """
    check_prime(p)
    _check_budget(budget)
    runs, columns = alpha.runs, alpha.columns
    size = sum(columns)
    width = len(columns)
    # counts[j] dots in column j, with counts[0] = N rows and counts[width + 1] = 0.
    counts = (len(alpha), *columns, 0)
    instance = _instance(p, alpha, budget=budget)

    t, full, extra = _column_walk(columns, p, p - 1, budget)
    if full < width and extra >= counts[full + 1]:
        raise ConsistencyError(
            "a full next column contradicts column maximality", instance=instance
        )
    unbounded = budget == float("inf")  # every dot fits, and no weight is evaluated
    if (not unbounded and (p - 1) * _dot_prefix_weight(columns, p, t) > budget) or (
        t < size and (unbounded or (p - 1) * _dot_prefix_weight(columns, p, t + 1) <= budget)
    ):
        raise ConsistencyError(
            f"column selection of {t} dots disagrees with the weight prefix",
            instance=instance,
        )

    # Rows 1..extra take full + 1 dots, the rest of the rows reaching column
    # full + 1 take full, and the shorter rows are taken whole; a run of
    # parts equal to full joins the rows taking full.
    reach = counts[full + 1]
    shorter = [run for run in runs if run[0] <= full]
    same = shorter.pop(0)[1] if shorter and shorter[0][0] == full else 0
    taken = ((full + 1, extra), (full, reach - extra + same), *shorter)
    mu_runs = tuple(run for run in taken if run[1])
    point_runs = tuple((p**m - 1, copies) for m, copies in mu_runs)
    value = size - t

    total = high = top = 0  # the dots of all rows, of the counts[full] rows >= full, and > full
    for a, copies in runs:
        total += a * copies
        high += a * copies if a >= full else 0
        top += a * copies if a > full else 0
    forms = (
        total - sum(m * copies for m, copies in mu_runs),
        high - counts[full] * full - extra,
        top - reach * full - extra,
        sum(columns[full:]) - extra,
    )
    if any(form != value for form in forms):
        raise ConsistencyError(
            f"witness rearrangements disagree: {forms} vs {value}", instance=instance
        )
    if product_valuation(p, alpha, point_runs) != Degree.of(value):
        raise ConsistencyError(
            "witness point does not attain the minimum value", instance=instance
        )
    if sum(x * copies for x, copies in point_runs) > budget:
        raise ConsistencyError("witness point exceeds the budget", instance=instance)
    return _unchecked(
        ValuationMinimum, value=value, t=t, point_runs=point_runs, mu_runs=mu_runs,
        full_columns=full, extra_dots=extra, _derived=_uncapped(alpha),
    )


def min_valuation_equal_exponent(p: int, copies: int, exponent: int, budget: Budget) -> int:
    """Closed form of the minimum valuation for a constant partition.

    With Q the largest q such that copies * (p^q - 1) <= budget and R the
    leftover-dot count, the value is max(copies * (exponent - Q) - R, 0);
    for exponent 1 this collapses to max(copies - floor(budget/(p-1)), 0).
    """
    check_prime(p)
    if copies < 1 or exponent < 1:
        raise ValueError("copies and exponent must be >= 1")
    _check_budget(budget)
    alpha = partition_from_runs([(exponent, copies)])
    if budget == float("inf"):
        value = 0
    else:
        budget = int(budget)
        q = 0
        while copies * (p ** (q + 1) - 1) <= budget:
            q += 1
        r = (budget - copies * (p**q - 1)) // ((p - 1) * p**q)
        value = max(copies * (exponent - q) - r, 0)
    general = vp_value(p, alpha, budget)
    if value != general:
        raise ConsistencyError(
            f"equal-exponent clamp {value} disagrees with the general formula {general}",
            instance=_instance(p, alpha, budget=budget),
        )
    return value


def step_cost_minimum(
    costs: Sequence[int], credits: Sequence[int], budget: int
) -> tuple[int, int]:
    """Minimize S(s) = s - max{t : costs[:t] fits in credits[:s] + budget}.

    costs must be weakly increasing and credits weakly decreasing, both
    positive, with costs[0] <= credits[0] and the credits constant over the
    first s0 steps; credits extend past their given length by the last value.
    Returns (s0, S(s0)) where s0 = max(ceil((costs-prefix-at-t0 - budget) /
    credits[0]), 0) and t0 is the last cost not exceeding credits[0].
    """
    if not costs or not credits:
        raise ValueError("costs and credits must be nonempty")
    if any(c < 1 for c in costs) or any(v < 1 for v in credits):
        raise ValueError("costs and credits must be positive")
    if any(b < a for a, b in zip(costs, costs[1:])):
        raise ValueError("costs must be weakly increasing")
    if any(b > a for a, b in zip(credits, credits[1:])):
        raise ValueError("credits must be weakly decreasing")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if costs[0] > credits[0]:
        raise ValueError("the first cost must not exceed the first credit")

    t0 = max(t for t in range(1, len(costs) + 1) if costs[t - 1] <= credits[0])
    s0 = max(ceil_div(sum(costs[:t0]) - budget, credits[0]), 0)

    def credit_at(s: int) -> int:
        return credits[s - 1] if s <= len(credits) else credits[-1]

    if any(credit_at(s) != credits[0] for s in range(1, s0 + 1)):
        raise ValueError(f"credits must stay constant through step {s0}")

    if s0 > 0:
        return s0, s0 - t0
    reach = 0
    total = 0
    for t, cost in enumerate(costs, start=1):
        total += cost
        if total <= budget:
            reach = t
    return 0, -reach


class TargetSpec(_Record):
    """Cyclic targets (beta_j, d_j), sorted by d * p^beta then beta, descending."""

    p: int
    targets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_prime(self.p)
        _check_pairs(self.p, self.targets, tuple)
        keys = [(d * self.p**beta, beta) for beta, d in self.targets]
        if any(b > a for a, b in zip(keys, keys[1:])):
            raise ValueError("targets must be sorted by d * p^beta, then beta, descending")

    @property
    def r(self) -> int:
        return len(self.targets)

    @property
    def beta1(self) -> int:
        return self.targets[0][0]

    @property
    def d1(self) -> int:
        return self.targets[0][1]

    @property
    def measure(self) -> int:
        """Degree-weighted target size: sum of d * (p^beta - 1)/(p - 1)."""
        return sum(d * (self.p**beta - 1) // (self.p - 1) for beta, d in self.targets)

    @property
    def level(self) -> int:
        """Truncation level beta_1 + floor(log_p(d_1))."""
        return self.beta1 + ilog(self.p, self.d1)

    def to_json(self) -> list[list[int]]:
        return [[beta, d] for beta, d in self.targets]


def _check_pairs(p: int, pairs: Sequence[tuple[int, int]], kinds=(tuple, list)) -> None:
    """Raise ValueError unless pairs and each pair are of kinds, there is a
    pair, and every pair (beta, d) holds integers beta >= 1 and d >= 1 with
    p^(beta - 1) printable (``check_printable``), as every bound prints it."""
    if not isinstance(pairs, kinds) or not all(
        isinstance(pair, kinds) and len(pair) == 2 for pair in pairs
    ):
        raise ValueError(f"targets must be pairs (beta, d), got {pairs!r}")
    if not pairs:
        raise ValueError("at least one target is required")
    for beta, d in pairs:
        check_integer(beta, "a target exponent")
        check_integer(d, "a degree cap")
        if beta < 1 or d < 1:
            raise ValueError(f"targets need beta >= 1 and d >= 1, got {(beta, d)}")
        check_printable(p, beta, "target exponent")


def make_targets(p: int, pairs: Sequence[tuple[int, int]]) -> TargetSpec:
    """Build a TargetSpec, sorting by d * p^beta with larger beta first on ties."""
    check_prime(p)
    _check_pairs(p, pairs)  # before the sort forms d * p^beta
    return _sorted_targets(p, pairs)


def _sorted_targets(p: int, pairs: Sequence[tuple[int, int]]) -> TargetSpec:
    """``make_targets`` unchecked, for a prime and pairs the caller checked
    (``_check_pairs``), so no prime is tested again."""
    ordered = sorted(pairs, key=lambda bd: (bd[1] * p ** bd[0], bd[0]), reverse=True)
    return _unchecked(TargetSpec, p=p, targets=tuple((int(b), int(d)) for b, d in ordered))


def _carry_floor(p: int, beta: int, n: int) -> int:
    """The carry floor of coefficient n for a target Z/p^beta, one formula for
    ``bound_objective``, the objective oracle and the trace."""
    return max(ceil_div(n - (p**beta - 1), p ** (beta - 1) * (p - 1)), 0)


def bound_objective(alpha: Partition, targets: TargetSpec, point: Sequence[int]) -> int:
    """Per-target carry floors plus the valuation minimum at the spent budget."""
    p = targets.p
    if len(point) != targets.r:
        raise ValueError(f"expected {targets.r} coordinates, got {len(point)}")
    for n in point:
        check_integer(n, "a coordinate")
        if n < 0:
            raise ValueError("objective coordinates must be nonnegative")
    floors = 0
    budget = 0
    for (beta, d), n in zip(targets.targets, point):
        floors += _carry_floor(p, beta, n)
        budget += d * n
    return floors + vp_value(p, alpha, budget)


class BoundReport(_Record):
    """Every intermediate of the two-case bound, so the split can be audited."""

    p: int
    alpha: Partition
    targets: TargetSpec
    a_measure: int
    b_measure: int
    level: int
    truncated: Partition
    truncated_measure: int
    case: str
    s0: int | None
    t_star: int | None
    raw_bound: int
    bound: int

    @property
    def alpha_sum(self) -> int:
        return self.alpha.size

    @property
    def truncated_sum(self) -> int:
        return self.truncated.size

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "alpha": self.alpha.to_json(),
            "targets": self.targets.to_json(),
            "A": self.a_measure,
            "B": self.b_measure,
            "L": self.level,
            "alpha_breve": self.truncated.to_json(),
            "alpha_sum": self.alpha_sum,
            "alpha_breve_sum": self.truncated_sum,
            "Abreve": self.truncated_measure,
            "case": self.case,
            "s0": self.s0,
            "t_star": self.t_star,
            "raw_bound": self.raw_bound,
            "bound": self.bound,
        }


def zero_count_bound(alpha: Partition, targets: TargetSpec) -> BoundReport:
    """Two-case lower bound on ord_p of the simultaneous zero count.

    Surplus case (truncated source measure above the target measure): the
    ceiling step count plus the truncation loss.  Deficit case: rows minus
    the longest affordable weight prefix.  The public bound is clamped at 0.
    """
    p, columns = targets.p, alpha.columns
    size = sum(columns)
    a_measure = _dot_prefix_weight(columns, p, size)
    b_measure = targets.measure
    level = targets.level
    truncated = truncate(alpha, level)
    truncated_size = sum(columns[:level])
    truncated_measure = _dot_prefix_weight(columns, p, truncated_size)
    if truncated_measure > b_measure:
        case, t_star = "first", None
        s0 = ceil_div(truncated_measure - b_measure, targets.d1 * p ** (targets.beta1 - 1))
        raw = s0 + size - truncated_size
    else:
        # B >= 1 buys the first dot, so t_star >= 1.
        case, s0 = "second", None
        t_star, _, _ = _column_walk(columns, p, 1, b_measure)
        raw = size - t_star
    bound = max(raw, 0)
    if (a_measure > b_measure) != (bound > 0):
        raise ConsistencyError(
            "source measure above target measure forces a positive bound"
            if a_measure > b_measure
            else "source measure at most target measure forces a zero bound",
            instance=_instance(p, alpha, targets=targets.to_json()),
        )
    return BoundReport(
        p=p,
        alpha=alpha,
        targets=targets,
        a_measure=a_measure,
        b_measure=b_measure,
        level=level,
        truncated=truncated,
        truncated_measure=truncated_measure,
        case=case,
        s0=s0,
        t_star=t_star,
        raw_bound=raw,
        bound=bound,
    )


def bound_objective_minimum(alpha: Partition, targets: TargetSpec, beta: int) -> int:
    """Closed-form minimum of the objective over the full coefficient box:
    the raw bound of `zero_count_bound`.

    Valid for every integer beta exceeding the step count s0; the value does
    not depend on beta.
    """
    check_integer(beta, "beta")
    report = zero_count_bound(alpha, targets)
    s0 = report.s0 or 0
    if beta <= s0:
        raise ValueError(f"beta must exceed s0 = {s0}, got {beta}")
    return report.raw_bound


def equal_exponent_bound(p: int, copies: int, exponent: int, targets: TargetSpec) -> int:
    """The bound specialized to a constant exponent partition.

    Uses the floor-log form with Q = floor(log_p((p-1)B/copies + 1)) and the
    matching remainder R; the raw second-case value copies*(exponent-Q) - R
    may be negative and is clamped.  Cross-checked against the general bound.
    """
    if targets.p != p:
        raise ValueError("targets were built for a different prime")
    if copies < 1 or exponent < 1:
        raise ValueError("copies and exponent must be >= 1")
    b_measure = targets.measure
    abreve1 = min(exponent, targets.level)
    truncated_measure = copies * (p**abreve1 - 1) // (p - 1)
    if truncated_measure > b_measure:
        raw = ceil_div(truncated_measure - b_measure, targets.d1 * p ** (targets.beta1 - 1))
        raw += copies * (exponent - abreve1)
    else:
        q = 0
        while copies * (p ** (q + 1) - 1) <= (p - 1) * b_measure:
            q += 1
        r = (b_measure - copies * (p**q - 1) // (p - 1)) // p**q
        raw = copies * (exponent - q) - r
    bound = max(raw, 0)
    alpha = partition_from_runs([(exponent, copies)])
    general = zero_count_bound(alpha, targets).bound
    if bound != general:
        raise ConsistencyError(
            f"equal-exponent bound {bound} disagrees with {general}",
            instance=_instance(p, alpha, targets=targets.to_json()),
        )
    return bound


def _check_target(shape: AbelianShape, d: int) -> None:
    if shape.is_trivial:
        raise ValueError("target shapes must be nontrivial")
    check_integer(d, "a degree cap")
    if d < 1:
        raise ValueError(f"degree caps must be >= 1, got {d}")


def expand_targets(p: int, shaped: Sequence[tuple[AbelianShape, int]]) -> TargetSpec:
    """Replace p-group targets by their cyclic factors under coordinate projections.

    Each factor p^beta of a target shape with cap d contributes a cyclic
    target (beta, d), since projections can only lower the degree.
    """
    check_prime(p)
    pairs: list[tuple[int, int]] = []
    for shape, d in shaped:
        _check_target(shape, d)
        for m in shape.factors:
            e = multiplicity(p, m)
            if p**e != m:
                raise ValueError(f"factor {m} is not a power of {p}")
            pairs.append((e, d))
    if not pairs:
        raise ValueError("at least one target is required")
    return _sorted_targets(p, pairs)


class PrimeBound(_Record):
    """Per-prime result of a mixed-order bound computation.

    When no target has a component at the prime, every component map is
    forced to vanish there, the component zero set is the whole component,
    and the reported bound is its full exponent sum; empty_system flags that
    this is a counting fact rather than an optimized bound.
    """

    prime: int
    bound: int
    empty_system: bool
    report: BoundReport | None

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "bound": self.bound,
            "empty_system": self.empty_system,
            "report": self.report.to_json_dict() if self.report else None,
        }


def multi_prime_bounds(
    domain: AbelianShape, shaped: Sequence[tuple[AbelianShape, int]]
) -> dict[int, PrimeBound]:
    """Per-prime bounds for maps between arbitrary finite commutative groups.

    Finite-degree maps split over Sylow components and the zero count is the
    product of the component counts, so each prime of |A| gets the bound of
    its component system with targets restricted to that prime.
    """
    if domain.is_trivial:
        raise ValueError("the domain must be nontrivial")
    if not shaped:
        raise ValueError("at least one target is required")
    for shape, d in shaped:
        _check_target(shape, d)
    out: dict[int, PrimeBound] = {}
    for prime, pshape in primary_decomposition(domain).items():
        pairs: list[tuple[int, int]] = []
        for shape, d in shaped:
            for m in shape.factors:
                e = multiplicity(prime, m)
                if e:
                    pairs.append((e, d))
        if pairs:
            report = zero_count_bound(pshape.exponents, _sorted_targets(prime, pairs))
            out[prime] = PrimeBound(prime, report.bound, False, report)
        else:
            out[prime] = PrimeBound(prime, pshape.exponents.size, True, None)
    return out


def polynomial_system_bound(
    modulus: int, nvars: int, degrees: Sequence[int]
) -> dict[int, BoundReport]:
    """Per-prime bounds for polynomial systems over the rng Z/mZ.

    The additive group of Z/mZ splits into one cyclic factor per prime; n
    variables give n copies, and each polynomial of degree at most d caps the
    functional degree of its evaluation map by d.  Each prime's partition is
    one run of n copies, so n costs nothing per variable.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    check_integer(nvars, "the variable count")
    if nvars < 1:
        raise ValueError(f"variable count must be >= 1, got {nvars}")
    for d in degrees or ():  # a missing or empty list raises below
        check_integer(d, "a degree cap")
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("degrees must be a nonempty list of integers >= 1")
    out: dict[int, BoundReport] = {}
    for prime, e in sorted(factorize(modulus).items()):
        alpha = _unchecked(Partition, runs=((e, nvars),))
        targets = _sorted_targets(prime, [(e, d) for d in degrees])
        out[prime] = zero_count_bound(alpha, targets)
    return out
