"""Finite commutative group shapes, enumeration, Sylow components, degree caps.

A shape is just the tuple of cyclic factor moduli; elements are reduced
coordinate tuples enumerated in row-major order (last coordinate fastest),
which fixes the on-disk function-table format.  Sylow components come as
exponent partitions (``primary_decomposition``) or positionally
(``component_of``; ``calculus`` builds the index gathers).
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from functools import lru_cache

from .errors import ResourceLimitError
from .intmath import check_prime, check_tuple, factorize, multiplicity, power_exceeds, power_text
from .partitions import Partition, _Record, _unchecked

DEFAULT_ENUM_LIMIT = 10**6
ENUM_LIMIT_ENV = "AXKATZ_ENUM_LIMIT"


def enumeration_limit() -> int:
    """Default element-count cap; override with the AXKATZ_ENUM_LIMIT env var."""
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if not raw:
        return DEFAULT_ENUM_LIMIT
    message = f"{ENUM_LIMIT_ENV} must be a positive integer, got {raw!r}"
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if limit < 1:
        raise ValueError(message)
    return limit


class AbelianShape(_Record):
    """Direct sum of Z/mZ factors, in the stored order; () is the trivial group."""

    factors: tuple[int, ...]

    def __post_init__(self):
        check_tuple(self.factors, "factors")
        for m in self.factors:
            if not isinstance(m, int) or isinstance(m, bool) or m < 2:
                raise ValueError(f"factors must be integers >= 2, got {m!r}")

    @property
    def order(self) -> int:
        n = 1
        for m in self.factors:
            n *= m
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(factorize(self.order).keys())) if self.factors else ()

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.factors))

    def reduce(self, x: tuple[int, ...]) -> tuple[int, ...]:
        if len(x) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates, got {len(x)}")
        return tuple(a % m for a, m in zip(x, self.factors))

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(
                isinstance(a, int) and not isinstance(a, bool) and 0 <= a < m
                for a, m in zip(x, self.factors)
            )
        )

    def to_json(self) -> list[int]:
        return list(self.factors)


class PGroupShape(_Record):
    """p-group presented by its invariant-factor exponent partition."""

    p: int
    exponents: Partition

    def __post_init__(self):
        check_prime(self.p)

    @property
    def order(self) -> int:
        return self.p**self.exponents.size

    def shape(self) -> AbelianShape:
        return AbelianShape(tuple(self.p**a for a in self.exponents.parts))


@lru_cache(maxsize=None)
def pure_prime(shape: AbelianShape) -> int | None:
    """The unique prime when every factor is a power of it, else None."""
    if shape.is_trivial:
        return None
    primes = set()
    for m in shape.factors:
        fac = factorize(m)
        if len(fac) != 1:
            return None
        primes.update(fac)
    return primes.pop() if len(primes) == 1 else None


def primary_decomposition(shape: AbelianShape) -> dict[int, PGroupShape]:
    """Split a nontrivial shape into its Sylow components, one per prime,
    as runs: each distinct factor is factored once."""
    if shape.is_trivial:
        raise ValueError("the trivial group has no primary decomposition")
    copies_of: dict[int, dict[int, int]] = {}
    for m, copies in Counter(shape.factors).items():
        for prime, e in factorize(m).items():
            exponents = copies_of.setdefault(prime, {})
            exponents[e] = exponents.get(e, 0) + copies
    out = {}
    for prime, counts in sorted(copies_of.items()):
        # From factorize, so nothing to check; no more rows than listed factors.
        runs = tuple(sorted(counts.items(), reverse=True))
        alpha = _unchecked(Partition, runs=runs, _derived=True)
        out[prime] = _unchecked(PGroupShape, p=prime, exponents=alpha)
    return out


def component_of(shape: AbelianShape, prime: int) -> AbelianShape:
    """The Sylow component at a prime: one factor Z/p^e for each factor of
    the shape that p^e exactly divides, in the stored order; the trivial
    group when the prime does not divide |G|."""
    return AbelianShape(
        tuple(q for m in shape.factors if (q := prime ** multiplicity(prime, m)) > 1)
    )


def check_enumerable(base: int, exponent: int = 1, limit: int | None = None) -> None:
    """Raise ResourceLimitError when a group of order base**exponent has more
    elements than the limit (``enumeration_limit()`` when None).

    The order is never formed past the limit, so a p-group can be checked
    from p and its exponent sum however large that is.
    """
    cap = enumeration_limit() if limit is None else limit
    if power_exceeds(base, exponent, cap):
        raise ResourceLimitError(
            f"group of order {power_text(base, exponent)} exceeds the enumeration limit {cap}"
        )


def enumerate_elements(shape: AbelianShape, limit: int | None = None) -> list[tuple[int, ...]]:
    """All elements in row-major order, last coordinate fastest."""
    check_enumerable(shape.order, limit=limit)
    return list(itertools.product(*map(range, shape.factors)))


def index_of(shape: AbelianShape, x: tuple[int, ...]) -> int:
    """Position of a reduced element in enumerate_elements order."""
    if not shape.contains(x):
        raise ValueError(f"{x} is not a reduced element of {shape.factors}")
    idx = 0
    for a, m in zip(x, shape.factors):
        idx = idx * m + a
    return idx


def element_at(shape: AbelianShape, idx: int) -> tuple[int, ...]:
    """Inverse of index_of."""
    if not 0 <= idx < shape.order:
        raise ValueError(f"index {idx} out of range for order {shape.order}")
    coords = []
    for m in reversed(shape.factors):
        idx, c = divmod(idx, m)
        coords.append(c)
    return tuple(reversed(coords))


def max_functional_degree(shape: PGroupShape, beta: int) -> int:
    """Largest finite functional degree into a p-group of exponent p^beta.

    Equals sum_i (p^(a_i) - 1) + (beta - 1)(p - 1) p^(a_1 - 1) where a_1 is
    the largest domain exponent.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    p, runs = shape.p, shape.exponents.runs
    top = runs[0][0]
    rest = sum(copies * (p**a - 1) for a, copies in runs) - (p**top - 1)
    return one_variable_cap(p, top, beta) + rest


def one_variable_cap(p: int, a: int, beta: int) -> int:
    """Largest finite functional degree of a map from Z/p^a into a p-group
    of exponent p^beta: (p^a - 1) + (beta - 1)(p - 1) p^(a - 1)."""
    return (p**a - 1) + (beta - 1) * (p - 1) * p ** (a - 1)
