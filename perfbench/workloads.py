"""The three benchmark workloads: seeded inputs, the timed call, output checks.

A workload runs in passes.  Pass k draws its inputs from a generator seeded
by (workload, seed, k), so the same seed always gives the same inputs.  Every
pass has the same layout of operation kinds, input sizes (log-strata centres
rather than independent draws) and order; the seed draws the contents.  The
latency distribution of a pass, and with it the medians and percentiles,
then barely moves from seed to seed.  Later passes use fresh inputs, so no
pass replays the program's caches with the inputs of an earlier one.

Every output is checked.  Where an instance fits under the oracle caps it is
checked against the brute-force oracles; otherwise against a second route
(another program function, or arithmetic done here from the input's
construction).  Nothing in this file is timed except ``Workload.run``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import axkatz as ax

from layers import series_box_cells

SMALL_PRIMES = [p for p in range(2, 102) if all(p % q for q in range(2, p))]
MULTI_PRIMES = [2, 3, 5, 7, 11]
ROW_MAX = 20_000
SERIES_CELL_CAP = 30_000  # largest series box (cap+1)^N a timed series op may use
VERIFY_TABLE_CAP = 2**14  # closed forms are cross-checked by verify_bound below this
BRUTE_BOX_CAP = 4096  # ... and by brute_objective_minimum / brute_min_valuation


@dataclass
class Op:
    """One operation: its kind, the program inputs, and facts known from generation."""

    kind: str
    args: tuple
    facts: dict = field(default_factory=dict)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def fixed_order(workload: str, index: int, ops: list) -> list:
    """Shuffle a pass with a permutation that does not depend on the seed.

    Ops are built in the same structural order for every seed, so this puts
    each size class at the same positions in pass ``index`` whatever the
    seed; the latency and memory profile of a pass then depends on the
    seed only through the contents of the inputs.
    """
    random.Random(f"{workload}:order:{index}").shuffle(ops)
    return ops


def log_strata(k: int, hi: int) -> list[int]:
    """k sizes log-uniform in [1, hi]: the centres of k equal strata of log(hi).

    The sizes are the same for every seed; the seed draws the contents.
    """
    return [max(1, round(hi ** ((i + 0.5) / k))) for i in range(k)]


def spread(rng: random.Random, items: list, k: int) -> list:
    """k items covering ``items`` as evenly as possible, in random order."""
    out = []
    while len(out) < k:
        block = list(items)
        rng.shuffle(block)
        out += block
    return out[:k]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp(p: int, n: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def histogram(values, edges) -> dict[str, int]:
    """Counts per bucket [edges[i], edges[i+1]); the last bucket is open."""
    out = {}
    for lo, hi in zip(edges, list(edges[1:]) + [None]):
        label = f"{lo}+" if hi is None else f"{lo}-{hi - 1}"
        out[label] = sum(1 for v in values if v >= lo and (hi is None or v < hi))
    return out


def newton_table(coeffs: list[int], dims: tuple[int, ...], q: int) -> list[int]:
    """Values on the box prod [0, m_i) of sum_n c_n prod_i C(x_i, n_i) mod q.

    coeffs and the result are dense, row-major with the last axis fastest
    (the package's element order); the transform is applied axis by axis.
    """
    vals = list(coeffs)
    stride = 1
    for m in reversed(dims):
        binoms = [[math.comb(x, n) % q for n in range(x + 1)] for x in range(m)]
        block = stride * m
        for base in range(0, len(vals), block):
            for off in range(stride):
                idx = [base + off + j * stride for j in range(m)]
                line = [vals[i] for i in idx]
                for x in range(m):
                    vals[idx[x]] = sum(b * c for b, c in zip(binoms[x], line)) % q
        stride = block
    return vals


def zero_set_size(tables) -> int:
    """Number of indices at which every table's value tuple is all zero."""
    return sum(1 for values in zip(*tables) if all(not any(v) for v in values))


class Workload:
    """Base class; subclasses define generation, the timed call and checks."""

    name = ""
    import_probe = "import axkatz"

    def __init__(self, workdir: str, env: dict):
        self.workdir = workdir
        self.env = env
        self.tracer = None  # set while a traced pass runs

    def make_pass(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def record(self, op: Op, out):
        """JSON-able form of the output, for the run's digest."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def properties(self, ops: list[Op]) -> dict:
        return {}


# --------------------------------------------------------------------------
# closed-forms


def _random_alpha(rng, rows: int) -> list[int]:
    return [rng.randint(1, 4) for _ in range(rows)]


def _measure(p: int, exponents) -> int:
    return sum((p**a - 1) // (p - 1) for a in exponents)


def _scaled_targets(rng, p: int, a_measure: int, surplus: bool) -> list[tuple[int, int]]:
    """1-3 cyclic targets whose measure B is A times 2^-U, U uniform in (0.2, 2].

    With ``surplus`` A > B (a positive bound), else B > A (a zero bound).
    """
    r = rng.randint(1, 3)
    betas = [rng.randint(1, 3) for _ in range(r)]
    goal = a_measure * 2 ** (rng.uniform(0.2, 2) * (-1 if surplus else 1))
    return [(b, max(1, round(goal / (r * _measure(p, [b]))))) for b in betas]


def poly_instance(rng, layout, nvars: int, big: float | None) -> Op:
    """polynomial_system_bound inputs: two small prime powers, and a prime near 10^big.

    ``layout`` draws the small prime powers; ``rng`` draws the degrees and
    where, within 1 %, the large prime lies.
    """
    factors = {q: layout.randint(1, 3) for q in layout.sample(SMALL_PRIMES[:10], 2)}
    if big is not None:
        n = int(10**big * (1 + rng.random() / 100))
        while not is_prime(n):
            n += 1
        factors[n] = 1
    m = math.prod(q**e for q, e in factors.items())
    degrees = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
    return Op("poly", (m, nvars, degrees), {"rows": nvars, "factors": factors})


def own_min_valuation(p: int, parts, budget) -> int:
    """Ferrers dots minus the most column-ordered dots whose weight fits the budget."""
    width = max(parts)
    conj = [sum(1 for a in parts if a >= j) for j in range(1, width + 1)]
    taken = 0
    room = budget
    for j, count in enumerate(conj):
        cost = (p - 1) * p**j
        take = count if room == math.inf else min(count, int(room // cost))
        taken += take
        if take < count:
            break
        room -= count * cost
    return sum(parts) - taken


def own_bound(p: int, parts, pairs) -> int:
    """The two-case bound, computed here column by column from its definition."""
    beta1, d1 = max(pairs, key=lambda bd: (bd[1] * p ** bd[0], bd[0]))
    b_measure = sum(d * _measure(p, [beta]) for beta, d in pairs)
    level = beta1
    while p ** (level - beta1 + 1) <= d1:
        level += 1
    cut = [min(a, level) for a in parts]
    surplus = _measure(p, cut) - b_measure
    if surplus > 0:
        return -(-surplus // (d1 * p ** (beta1 - 1))) + sum(parts) - sum(cut)
    return own_min_valuation(p, parts, (p - 1) * b_measure)


class ClosedForms(Workload):
    """zero_count_bound, min_valuation, multi_prime_bounds, polynomial_system_bound.

    Row counts are log-uniform up to 2e4, primes run from 2 to 101 and half
    the moduli carry a prime factor between 1e6 and 1e9.  The load is almost
    all partitions, bounds and intmath, whose cost grows with the row count
    (and, in factorize, with the largest prime factor); calculus and oracle
    sit idle, so work on those layers should not move this workload.
    """

    name = "closed-forms"
    MIX = {"bound": 40, "vp": 25, "multi": 15, "poly": 20}

    def make_pass(self, seed, index):
        rng = pass_rng(self.name, seed, index)
        # The layout (row count, prime and case of each slot) is the same for
        # every seed and pass, so the cost and memory of a pass depend on the
        # seed only through the contents the slots are filled with.
        layout = random.Random(f"{self.name}:layout")
        ops = []
        for kind, count in self.MIX.items():
            primes = spread(layout, SMALL_PRIMES, count)
            bigs = [6 + 3 * (i + 0.5) / count for i in range(count)]
            layout.shuffle(bigs)
            # Alternate the case of the bound (or a large prime in the modulus)
            # along the row order, so every size range gets both halves.
            for i, rows in enumerate(log_strata(count, ROW_MAX)):
                flag = bigs[i] if i % 2 == 0 else None
                ops.append(getattr(self, f"_make_{kind}")(rng, layout, rows, primes[i], flag))
        return fixed_order(self.name, index, ops)

    def _make_bound(self, rng, layout, rows, p, flag):
        parts = _random_alpha(rng, rows)
        pairs = _scaled_targets(rng, p, _measure(p, parts), flag is not None)
        args = (ax.make_partition(parts), ax.make_targets(p, pairs))
        return Op("bound", args, {"rows": rows, "p": p, "parts": parts, "pairs": pairs})

    def _make_vp(self, rng, layout, rows, p, _):
        parts = _random_alpha(rng, rows)
        budget = rng.randint(0, (p - 1) * _measure(p, parts))
        return Op("vp", (p, ax.make_partition(parts), budget), {"rows": rows, "parts": parts})

    def _make_multi(self, rng, layout, rows, _, flag):
        primes = layout.sample(MULTI_PRIMES, 3)

        def factor():
            m = 1
            for q in rng.sample(primes, rng.randint(1, len(primes))):
                m *= q ** rng.randint(1, 3)
            return m

        domain = tuple(factor() for _ in range(rows))
        targets = []
        for _ in range(rng.randint(1, 2)):
            # A target shape leaves out one of the domain's primes at random,
            # so some components have no target (an empty system there).
            kept = [q for q in primes if rng.random() < 0.7] or primes[:1]
            shape = tuple(q ** rng.randint(1, 2) for q in kept)
            d = rng.randint(1, 3) if flag is None else rng.randint(rows, 2 * rows)
            targets.append((shape, d))
        args = (ax.AbelianShape(domain), [(ax.AbelianShape(s), d) for s, d in targets])
        return Op("multi", args, {"rows": rows, "domain": domain, "targets": targets})

    def _make_poly(self, rng, layout, rows, _, big):
        return poly_instance(rng, layout, rows, big)

    def run(self, op):
        if op.kind == "bound":
            return ax.zero_count_bound(*op.args)
        if op.kind == "vp":
            return ax.min_valuation(*op.args)
        if op.kind == "multi":
            return ax.multi_prime_bounds(*op.args)
        return ax.polynomial_system_bound(*op.args)

    def record(self, op, out):
        if op.kind == "multi":
            return {str(q): pb.to_json_dict() for q, pb in sorted(out.items())}
        if op.kind == "poly":
            return {str(q): r.to_json_dict() for q, r in sorted(out.items())}
        return out.to_json_dict()

    def properties(self, ops):
        rows = [op.facts["rows"] for op in ops]
        large = [op for op in ops if op.kind == "poly" and max(op.facts["factors"]) > 10**6]
        polys = [op for op in ops if op.kind == "poly"]
        bounds = [op for op in ops if op.kind == "bound"]
        surplus = [op for op in bounds
                   if _measure(op.facts["p"], op.facts["parts"]) > sum(
                       d * _measure(op.facts["p"], [b]) for b, d in op.facts["pairs"])]
        return {
            "rows_hist": histogram(rows, [1, 10, 100, 1000, 10000]),
            "bound_surplus_share": round(len(surplus) / len(bounds), 3),
            "large_prime_moduli_share": round(len(large) / max(1, len(polys)), 3),
        }

    @staticmethod
    def _check_report(report, p, parts, pairs) -> str | None:
        a = _measure(p, parts)
        b = sum(d * _measure(p, [beta]) for beta, d in pairs)
        if (report.a_measure, report.b_measure) != (a, b):
            return f"measures {(report.a_measure, report.b_measure)} != {(a, b)}"
        if (report.bound > 0) != (a > b):
            return f"bound {report.bound} but A={a}, B={b}"
        expected = own_bound(p, parts, pairs)
        if report.bound != expected:
            return f"bound {report.bound} != {expected} from the definition"
        return None

    def check(self, op, out):
        if op.kind == "bound":
            return self._check_bound(op, out)
        if op.kind == "vp":
            return self._check_vp(op, out)
        if op.kind == "multi":
            return self._check_multi(op, out)
        return self._check_poly(op, out)

    def _check_bound(self, op, report):
        p, parts, pairs = op.facts["p"], op.facts["parts"], op.facts["pairs"]
        problem = self._check_report(report, p, parts, pairs)
        if problem:
            return problem
        alpha, targets = op.args
        beta = (report.s0 or 0) + 1
        volume = math.prod(b + 1 for b in ax.objective_box(targets, beta))
        if volume <= BRUTE_BOX_CAP:
            brute, _ = ax.brute_objective_minimum(alpha, targets, beta)
            if brute != report.bound:
                return f"brute objective minimum {brute} != bound {report.bound}"
        small = len(pairs) <= 2 and p ** sum(parts) <= 9
        if small and math.prod(p**beta for beta, _ in pairs) ** p ** sum(parts) <= VERIFY_TABLE_CAP:
            shaped = [(ax.AbelianShape((p**beta,)), d) for beta, d in pairs]
            verdict = ax.verify_bound(p, alpha, shaped)
            if not verdict.passed or verdict.bound != report.bound:
                return f"verify_bound disagrees: {verdict.to_json_dict()}"
        return None

    def _check_vp(self, op, out):
        p, alpha, budget = op.args
        parts = op.facts["parts"]
        expected = own_min_valuation(p, parts, budget)
        if out.value != expected or ax.vp_value(p, alpha, budget) != expected:
            return f"min valuation {out.value} != {expected}"
        if sum(out.point) > budget or len(out.mu) != len(parts):
            return "witness point outside the budget"
        if any(not 0 <= m <= a or x != p**m - 1 for m, a, x in zip(out.mu, alpha, out.point)):
            return "witness point is not of the form p^mu - 1"
        if sum(a - m for a, m in zip(alpha, out.mu)) != expected:
            return "witness does not attain the minimum"
        if math.prod(p**a for a in parts) <= BRUTE_BOX_CAP:
            brute = ax.brute_min_valuation(p, alpha, budget)
            if brute != expected:
                return f"brute min valuation {brute} != {expected}"
        return None

    def _check_multi(self, op, out):
        domain, targets = op.facts["domain"], op.facts["targets"]
        exps: dict[int, list[int]] = {}
        for m in domain:
            for q in MULTI_PRIMES:
                if m % q == 0:
                    exps.setdefault(q, []).append(vp(q, m))
        if sorted(out) != sorted(exps):
            return f"primes {sorted(out)} != {sorted(exps)}"
        for q, pb in out.items():
            pairs = [(vp(q, m), d) for shape, d in targets for m in shape if m % q == 0]
            if not pairs:
                if not pb.empty_system or pb.bound != sum(exps[q]):
                    return f"empty system at {q} reported {pb.to_json_dict()}"
                continue
            problem = self._check_report(pb.report, q, exps[q], pairs)
            if problem or pb.bound != pb.report.bound:
                return f"prime {q}: {problem}"
        return None

    def _check_poly(self, op, out):
        m, nvars, degrees = op.args
        factors = op.facts["factors"]
        if sorted(out) != sorted(factors):
            return f"primes {sorted(out)} != {sorted(factors)}"
        for q, e in factors.items():
            report = out[q]
            pairs = [(e, d) for d in degrees]
            problem = self._check_report(report, q, [e] * nvars, pairs)
            if problem:
                return f"prime {q}: {problem}"
            direct = ax.zero_count_bound(
                ax.make_partition([e] * nvars), ax.make_targets(q, pairs)
            )
            if direct.to_json_dict() != report.to_json_dict():
                return f"prime {q}: polynomial bound differs from zero_count_bound"
        return None

    def warm_up(self):
        ax.zero_count_bound(ax.make_partition([2, 1]), ax.make_targets(2, [(1, 1)]))
        ax.min_valuation(3, ax.make_partition([2, 1]), 4)
        ax.multi_prime_bounds(ax.AbelianShape((12,)), [(ax.AbelianShape((4,)), 1)])
        ax.polynomial_system_bound(12, 2, [2])


# --------------------------------------------------------------------------
# calculus-verify

# One pass is 100 slots in five cost tiers, in ms on one core of a 2-core VM:
#   cheap      <= 11  fdeg on low-degree tables, small series, traces,
#                     tiny exhaustive and sampled verify_bound
#   verify     16-22  exhaustive verify_bound, Z/4 x Z/2 -> Z/2 (the median)
#   random      ~30   fdeg on random (Z/8)^3 -> Z/2 tables
#   series      ~70   series_coefficients / proper_lift on (Z/8)^3 -> Z/2
#                     (the 90th percentile)
#   heavy     >= 85   the biggest series boxes and a Z/5 exhaustive verify
# The tier sizes put the median inside the verify tier (ranks 37-80, 13 ranks
# from its lower edge) and the 90th percentile inside the series tier (ranks
# 83-96, 6 from either edge), so the two percentiles track one kind of work
# each instead of jumping between kinds as the contents or the machine's
# speed move by a few per cent.

# (domain, codomain) of the low-degree fdeg slots, two per shape.
LOW_DEGREE_SHAPES = [
    ((8, 8, 8), (2,)),
    ((4, 4, 4, 4), (2,)),
    ((3, 3, 3, 3), (9,)),
    ((5, 5, 5), (5,)),
    ((16, 16), (2,)),
    ((4, 4, 4), (4,)),
    ((9, 9), (3,)),
    ((8, 8), (4, 2)),
]
# (kind, domain, codomain, random table?) of the table slots outside it.
CHEAP_TABLES = [
    ("series", (9, 9), (3,), True),
    ("lift", (9, 9), (3,), False),
    ("fdeg", (4, 4, 4, 4), (2,), True),
    ("fdeg", (16, 16), (2,), True),
    ("fdeg", (8, 8), (4, 2), True),
    ("fdeg", (3, 3, 3, 3), (9,), True),
]
RANDOM_TABLES = [("fdeg", (8, 8, 8), (2,), True)] * 2
SERIES_TABLES = [
    (kind, (8, 8, 8), (2,), randomly)
    for kind in ("series", "lift")
    for randomly in (True, False)
    for _ in range(4 if randomly else 3)
]
HEAVY_TABLES = [
    ("series", (4, 4, 4, 4), (2,), True),
    ("lift", (4, 4, 4, 4), (2,), False),
    ("series", (3, 3, 3, 3), (9,), True),
]
TRACE_SHAPES = [
    ((4, 4), (2, 4)),
    ((8, 8), (2, 2)),
    ((3, 3, 3), (3, 3)),
    ((9, 9), (3, 9)),
]
# Exhaustive verify_bound: (p, alpha, target moduli, per-target degree-cap
# choices).  The cap choices are kept where they barely change the time of a
# call (the number of qualifying systems grows fast with the caps).
TINY_VERIFY = [
    (2, (1, 1), (2,), ((1, 2),)),
    (2, (2,), (2, 2), ((1,), (1,))),
    (3, (1,), (3,), ((1, 2),)),
    (3, (1,), (3, 3), ((1, 2), (1, 2))),
]
HEAVY_VERIFY = [(5, (1,), (5,), ((1, 2, 3, 4),))]
# The median tier is one instance family, (Z/4 x Z/2 -> Z/2, cap 1, 2 or 3),
# with the caps taken in turn, so the tier's cost does not depend on the seed.
MEDIAN_VERIFY = (2, (2, 1), 2, (1, 2, 3))
MEDIAN_COPIES = 44
# Sampled verify_bound: domains too large to enumerate, fixed sample count.
SAMPLED_VERIFY = [
    (2, (2, 2), (2,), ((2, 3),)),
    (2, (1, 1, 1, 1), (2,), ((2, 3),)),
    (2, (3, 1), (4,), ((2, 3),)),
    (3, (1, 1), (9,), ((2, 3),)),
    (2, (2, 2), (2, 2), ((2, 3), (2, 3))),
    (2, (2, 1, 1), (4,), ((2, 3),)),
]
SAMPLES = 25


def _prime_of(m: int) -> int:
    return next(q for q in SMALL_PRIMES if m % q == 0)


def _random_exact_degree(rng, dims, p, degree, constant=True):
    """Z/p table of exact degree ``degree`` from random binomial coefficients.

    For a codomain Z/p the coefficients on prod [0, m_i) and the maps are in
    bijection and the degree is the largest order with a nonzero coefficient.
    """
    orders = [sum(n) for n in _box(dims)]
    coeffs = [rng.randrange(p) if o <= degree else 0 for o in orders]
    if not constant:
        coeffs[0] = 0
    top = [i for i, o in enumerate(orders) if o == degree]
    coeffs[rng.choice(top)] = rng.randrange(1, p)
    return newton_table(coeffs, dims, p)


def _box(dims):
    points = [()]
    for m in dims:
        points = [x + (c,) for x in points for c in range(m)]
    return points


def _homomorphism(rng, dims, p, b):
    """Random homomorphism prod Z/m_i -> Z/p^b (well defined on each factor)."""
    q = p**b
    coeffs = []
    for m in dims:
        a = vp(p, m)
        coeffs.append(p ** max(b - a, 0) * rng.randrange(p ** min(a, b)))
    return [sum(c * x for c, x in zip(coeffs, point)) % q for point in _box(dims)]


def _product_map(rng, dims, p, b, degree, shift):
    """Sum of two products of at most ``degree`` homomorphisms, plus a shift."""
    q = p**b
    acc = [shift % q] * math.prod(dims)
    for _ in range(2):
        term = [1] * len(acc)
        for _ in range(rng.randint(1, degree)):
            term = [t * h % q for t, h in zip(term, _homomorphism(rng, dims, p, b))]
        acc = [(s + t) % q for s, t in zip(acc, term)]
    return acc


class CalculusVerify(Workload):
    """functional_degree, series_coefficients, proper_lift, zero_count_trace, verify_bound.

    The two ways the calculus layer gets used, side by side: once per call on
    a big table (|A| up to 512, random near-maximal-degree and low-degree
    maps, series boxes under SERIES_CELL_CAP cells), and thousands of times
    per call on the tiny low-degree tables that verify_bound enumerates,
    exhaustively or by seeded sampling.  Domain/codomain pairs repeat within
    a pass, at the share printed with the inputs.
    """

    name = "calculus-verify"

    def make_pass(self, seed, index):
        rng = pass_rng(self.name, seed, index)
        ops = []
        for dom, cod in LOW_DEGREE_SHAPES:
            for _ in range(2):
                ops.append(self._table_op(rng, "fdeg", dom, cod, rng.randint(1, 3)))
        for kind, dom, cod, randomly in CHEAP_TABLES + RANDOM_TABLES + SERIES_TABLES + HEAVY_TABLES:
            ops.append(self._table_op(rng, kind, dom, cod, None if randomly else rng.randint(1, 3)))
        for dom, cods in TRACE_SHAPES:
            ops.append(self._trace_op(rng, dom, cods))
        for p, alpha, moduli, caps in TINY_VERIFY + HEAVY_VERIFY:
            ops.append(self._verify_op(rng, p, alpha, moduli, caps, None))
        p, alpha, m, caps = MEDIAN_VERIFY
        for i in range(MEDIAN_COPIES):
            ops.append(self._verify_op(rng, p, alpha, (m,), ((caps[i % len(caps)],),), None))
        for p, alpha, moduli, caps in SAMPLED_VERIFY:
            ops.append(self._verify_op(rng, p, alpha, moduli, caps, rng.randrange(2**31)))
        return fixed_order(self.name, index, ops)

    def _table(self, rng, dom, cod, degree, constant=True):
        """(value tuples, exact degree or None) for a random or low-degree map."""
        p = _prime_of(dom[0])
        if cod == (p,):
            top = degree if degree is not None else sum(m - 1 for m in dom)
            vals = _random_exact_degree(rng, dom, p, top, constant)
            return tuple((v,) for v in vals), top
        while True:
            cols = []
            for m in cod:
                if degree is None:
                    cols.append([rng.randrange(m) for _ in range(math.prod(dom))])
                else:
                    shift = rng.randrange(m) if constant else 0
                    cols.append(_product_map(rng, dom, p, vp(p, m), degree, shift))
            values = tuple(zip(*cols))
            if len(set(values)) > 1:  # nonconstant, so the degree is at least 1
                return values, None

    def _table_op(self, rng, kind, dom, cod, degree):
        values, exact = self._table(rng, dom, cod, degree)
        f = ax.FiniteMap(ax.AbelianShape(dom), ax.AbelianShape(cod), values)
        label = "random" if degree is None else f"<={degree}"
        return Op(kind, (f,), {"degree": exact, "label": label})

    def _trace_op(self, rng, dom, cods):
        maps = []
        for m in cods:
            values, _ = self._table(rng, dom, (m,), rng.randint(1, 2), constant=False)
            maps.append(ax.FiniteMap(ax.AbelianShape(dom), ax.AbelianShape((m,)), values))
        return Op("trace", (maps,), {"label": "trace"})

    @staticmethod
    def _verify_op(rng, p, alpha, moduli, caps, sample_seed):
        shaped = [(ax.AbelianShape((m,)), rng.choice(c)) for m, c in zip(moduli, caps)]
        kind = "exhaustive" if sample_seed is None else "sampled"
        return Op(kind, (p, ax.make_partition(alpha), shaped), {"seed": sample_seed, "label": kind})

    def run(self, op):
        if op.kind == "fdeg":
            return ax.functional_degree(op.args[0])
        if op.kind == "series":
            return ax.series_coefficients(op.args[0])
        if op.kind == "lift":
            return ax.proper_lift(op.args[0])
        if op.kind == "trace":
            return ax.zero_count_trace(op.args[0])
        if op.kind == "sampled":
            return ax.verify_bound(*op.args, mode="sampled", seed=op.facts["seed"], samples=SAMPLES)
        return ax.verify_bound(*op.args)

    def record(self, op, out):
        if op.kind == "fdeg":
            return str(out)
        if op.kind == "series":
            return sorted([list(n), list(c)] for n, c in out.items())
        if op.kind == "lift":
            return sorted([list(n), c] for n, c in out.coeffs.items())
        return out.to_json_dict()

    def _degree(self, op) -> int:
        """The map's degree: known from construction, else by the series route."""
        if op.facts["degree"] is not None:
            return op.facts["degree"]
        return max(sum(n) for n in ax.series_coefficients(op.args[0]))

    def check(self, op, out):
        if op.kind == "trace":
            return self._check_trace(op, out)
        if op.kind in ("exhaustive", "sampled"):
            return self._check_verify(op, out)
        f = op.args[0]
        if op.kind == "fdeg":
            degree = self._degree(op)
            return None if out == ax.Degree.of(degree) else f"degree {out} != {degree}"
        if op.kind == "series":
            coeffs = out
        else:
            coeffs = {n: (c,) for n, c in out.coeffs.items()}
        top = max(sum(n) for n in coeffs)
        expected = op.facts["degree"]
        if expected is None:
            expected = ax.functional_degree(f).value
        if top != expected:
            return f"largest support order {top} != degree {expected}"
        inside = {
            n: c for n, c in coeffs.items() if all(k < m for k, m in zip(n, f.domain.factors))
        }
        back = ax.reconstruct(f.domain, f.codomain, inside, top)
        if back.values != f.values:
            return "reconstruct roundtrip does not give the table back"
        return None

    def _check_trace(self, op, report):
        maps = op.args[0]
        count = zero_set_size([f.values for f in maps])
        p = _prime_of(maps[0].domain.factors[0])
        if report.count != count or report.count_ord != vp(p, count):
            return f"trace count {report.count} != {count}"
        if report.integral_ord != report.count_ord or not report.floors_ok:
            return "trace valuations disagree"
        if (report.integral - count) % p**report.beta:
            return "integral does not reproduce the count"
        return None

    def _check_verify(self, op, report):
        p, alpha, shaped = op.args
        if not report.passed or report.vacuous or not report.objective_match:
            return f"verification failed: {report.to_json_dict()}"
        bound = own_bound(p, alpha.parts, [(vp(p, s.factors[0]), d) for s, d in shaped])
        if report.bound != bound or report.min_ord < ax.Degree.of(bound):
            return f"bound {report.bound}, min ord {report.min_ord}, expected bound {bound}"
        if op.kind == "sampled" and report.systems_tested != SAMPLES:
            return f"{report.systems_tested} sampled systems, expected {SAMPLES}"
        count = zero_set_size(report.witness)
        observed = ax.Degree.of(vp(p, count)) if count else ax.INF
        if observed != report.min_ord:
            return f"witness has {count} zeros, reported ord {report.min_ord}"
        return None

    def properties(self, ops):
        labels = {}
        for op in ops:
            labels[op.facts["label"]] = labels.get(op.facts["label"], 0) + 1
        tables = [op.args[0] for op in ops if op.kind in ("fdeg", "series", "lift")]
        series = [op.args[0] for op in ops if op.kind in ("series", "lift")]
        box = sum(series_box_cells(f.domain.factors, f.codomain.factors) for f in series)
        verify = [op for op in ops if op.kind in ("exhaustive", "sampled")]
        seen = set()
        repeats = 0
        for op in verify:
            p, alpha, shaped = op.args
            key = (p, alpha.parts, tuple(s.factors for s, _ in shaped))
            repeats += key in seen
            seen.add(key)
        enumerated = [
            math.prod(s.order for s, _ in op.args[2]) ** (op.args[0] ** op.args[1].size)
            for op in verify
            if op.kind == "exhaustive"
        ]
        return {
            "kind_hist": labels,
            "box_ratio": round(box / sum(f.domain.order for f in series), 3),
            "domain_order_hist": histogram([f.domain.order for f in tables], [1, 64, 256, 512]),
            "verify_repeat_share": round(repeats / len(verify), 3),
            "degree_cap_hist": histogram([d for op in verify for _, d in op.args[2]], [1, 2, 3, 4]),
            "tables_hist": histogram(enumerated, [1, 100, 1000, 10000]),
        }

    def warm_up(self):
        f = ax.FiniteMap(ax.AbelianShape((4,)), ax.AbelianShape((2,)), ((0,), (1,), (0,), (1,)))
        ax.functional_degree(f)
        ax.series_coefficients(f)
        ax.verify_bound(2, ax.make_partition([1]), [(ax.AbelianShape((2,)), 1)])


# --------------------------------------------------------------------------
# cli-oneshot


class CliOneshot(Workload):
    """One ``python -m axkatz.cli`` process per op, run one after another.

    bound, scan, polybound, vp, fdeg (on table files written while the pass
    is generated) and small verify calls.  Their compute is a few ms, so
    interpreter start-up and package import dominate: the only workload that
    measures them.  Outputs are compared with the library's in-process
    results for the same inputs.

    A fifth of each pass is one verify instance on Z/5 -> Z/5 that computes
    for about 100 ms, so the 90th percentile is the median of that group
    rather than a point in the tail of start-up times.
    """

    name = "cli-oneshot"
    import_probe = "import axkatz.cli"
    KINDS = ("bound", "scan", "polybound", "vp", "fdeg", "verify")
    HEAVY = (5, (1,), (5,), ((2,),))
    HEAVY_CALLS = 3

    def make_pass(self, seed, index):
        rng = pass_rng(self.name, seed, index)
        ops = []
        for copy in range(2):
            for kind in self.KINDS:
                ops.append(getattr(self, f"_make_{kind}")(rng, f"p{index}_{kind}{copy}"))
        for _ in range(self.HEAVY_CALLS):
            ops.append(self._make_verify(rng, None, [self.HEAVY]))
        return fixed_order(self.name, index, ops)

    @staticmethod
    def _targets_text(pairs):
        return ",".join(f"{b}:{d}" for b, d in pairs)

    def _make_bound(self, rng, tag):
        p = rng.choice(SMALL_PRIMES[:8])
        parts = _random_alpha(rng, rng.randint(1, 200))
        pairs = _scaled_targets(rng, p, _measure(p, parts), rng.random() < 0.5)
        argv = ["bound", "--p", str(p), "--alpha", ",".join(map(str, parts)),
                "--targets", self._targets_text(pairs)]
        return Op("bound", tuple(argv), {"p": p, "parts": parts, "pairs": pairs})

    def _make_scan(self, rng, tag):
        primes = sorted(rng.sample(SMALL_PRIMES[:6], 2))
        alphas = [[rng.randint(1, 3) for _ in range(rng.randint(1, 6))] for _ in range(3)]
        targets = [[(rng.randint(1, 2), rng.randint(1, 6)) for _ in range(rng.randint(1, 2))]
                   for _ in range(3)]
        fmt = rng.choice(["json", "csv"])
        argv = ["scan", "--p", ",".join(map(str, primes)),
                "--alphas", ";".join(",".join(map(str, a)) for a in alphas),
                "--targets", ";".join(self._targets_text(t) for t in targets),
                "--format", fmt]
        return Op("scan", tuple(argv), {"primes": primes, "alphas": alphas,
                                        "targets": targets, "format": fmt})

    def _make_polybound(self, rng, tag):
        op = poly_instance(rng, rng, rng.randint(1, 50), rng.choice([None, rng.uniform(6, 9)]))
        m, n, degrees = op.args
        argv = ["polybound", "--m", str(m), "--n", str(n),
                "--degrees", ",".join(map(str, degrees))]
        return Op("polybound", tuple(argv), {"m": m, "n": n, "degrees": degrees})

    def _make_vp(self, rng, tag):
        p = rng.choice(SMALL_PRIMES[:8])
        parts = _random_alpha(rng, rng.randint(1, 200))
        budget = rng.randint(0, (p - 1) * _measure(p, parts))
        argv = ["vp", "--p", str(p), "--alpha", ",".join(map(str, parts)), "--D", str(budget)]
        return Op("vp", tuple(argv), {"p": p, "parts": parts, "budget": budget})

    def _make_fdeg(self, rng, tag):
        dom = rng.choice([(4, 4), (8, 8), (2, 2, 2, 2), (3, 3), (4, 2, 2)])
        p = _prime_of(dom[0])
        degree = rng.randint(1, sum(m - 1 for m in dom))
        vals = _random_exact_degree(rng, dom, p, degree)
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump({"domain": list(dom), "codomain": [p], "values": [[v] for v in vals]}, fh)
        return Op("fdeg", ("fdeg", "--map", path), {"degree": degree})

    def _make_verify(self, rng, tag, templates=TINY_VERIFY):
        p, alpha, moduli, caps = rng.choice(templates)
        targets = [(m, rng.choice(c)) for m, c in zip(moduli, caps)]
        argv = ["verify", "--p", str(p), "--alpha", ",".join(map(str, alpha))]
        for m, d in targets:
            argv += ["--target-shape", f"{m}:{d}"]
        return Op("verify", tuple(argv), {"p": p, "alpha": alpha, "targets": targets})

    def run(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "axkatz.cli", *op.args]
        else:
            trace_file = os.path.join(self.workdir, "child-trace.json")
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
            cmd = [sys.executable, child, trace_file, *op.args]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if self.tracer is not None and os.path.exists(trace_file):
            with open(trace_file) as fh:
                self.tracer.merge(json.load(fh))
            os.remove(trace_file)
        return proc.returncode, proc.stdout, proc.stderr

    def record(self, op, out):
        return [out[0], out[1]]

    def check(self, op, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        try:
            got = self._parse(op, stdout)
        except (ValueError, KeyError) as exc:
            return f"unparseable output: {exc}"
        expected = self._expected(op)
        return None if got == expected else f"output {got!r} != {expected!r}"

    def _parse(self, op, stdout):
        if op.kind == "scan" and op.facts["format"] == "csv":
            return [dict(row) for row in csv.DictReader(io.StringIO(stdout))]
        return json.loads(stdout)

    def _expected(self, op):
        """What the library computes in-process for the same inputs."""
        f = op.facts
        if op.kind == "bound":
            report = ax.zero_count_bound(ax.make_partition(f["parts"]),
                                         ax.make_targets(f["p"], f["pairs"]))
            problem = ClosedForms._check_report(report, f["p"], f["parts"], f["pairs"])
            return report.to_json_dict() if problem is None else problem
        if op.kind == "vp":
            alpha = ax.make_partition(f["parts"])
            out = ax.min_valuation(f["p"], alpha, f["budget"]).to_json_dict()
            if out["value"] != own_min_valuation(f["p"], f["parts"], f["budget"]):
                return "min valuation disagrees with the column formula"
            return out
        if op.kind == "fdeg":
            return {"fdeg": f["degree"]}
        if op.kind == "polybound":
            reports = ax.polynomial_system_bound(f["m"], f["n"], f["degrees"])
            return {"bounds": {str(q): r.to_json_dict() for q, r in sorted(reports.items())}}
        if op.kind == "verify":
            shaped = [(ax.AbelianShape((m,)), d) for m, d in f["targets"]]
            report = ax.verify_bound(f["p"], ax.make_partition(f["alpha"]), shaped)
            return report.to_json_dict() if report.passed else "verification failed"
        rows = []
        for p in f["primes"]:
            for a in f["alphas"]:
                for t in f["targets"]:
                    report = ax.zero_count_bound(ax.make_partition(a), ax.make_targets(p, t))
                    row = {"p": p, "alpha": ",".join(map(str, a)),
                           "targets": self._targets_text(t), "A": report.a_measure,
                           "B": report.b_measure, "Abreve": report.truncated_measure,
                           "case": report.case, "bound": report.bound}
                    if f["format"] == "csv":
                        row = {k: str(v) for k, v in row.items()}
                    rows.append(row)
        return rows

    def properties(self, ops):
        kinds = {}
        for op in ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return {"command_mix": kinds}

    def warm_up(self):
        subprocess.run(
            [sys.executable, "-m", "axkatz.cli", "conjugate", "--parts", "2,1"],
            env=self.env, capture_output=True, check=True, timeout=120,
        )


WORKLOADS = {w.name: w for w in (ClosedForms, CalculusVerify, CliOneshot)}
