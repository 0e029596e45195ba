"""Integer partitions, conjugation, and Ferrers-dot weight sequences.

A partition here is a weakly decreasing tuple of positive integers.  Its
column counts (`Partition.columns`, the conjugate's parts) count the
Ferrers-diagram dots column by column; they are computed once per partition
by bisection, in O(width * log rows), and conjugation, truncation and the
geometric measure are all read off them in O(width) plus slicing.  The
weight sequence lists the dots in column order with column j (1-based)
costing p^(j-1); its prefix sums are the minimal total weights of dot
selections.  It has one entry per dot and serves as the definition-level
reference that the column-wise closed forms in `bounds` are tested against.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .intmath import check_prime, check_tuple


_setattr = object.__setattr__


class _Record:
    """Base of the package's frozen value types.

    A subclass names its fields as class annotations, read once when the
    class is made.  It is built from its fields by position or by keyword,
    then runs its ``__post_init__`` check if it has one.  It compares equal
    only to an instance of the same class with equal fields, hashes as the
    tuple of its fields, shows them in its repr and ``__match_args__``, and
    refuses assignment and deletion.  Fields are plain instance attributes,
    so ``cached_property``, pickle and copy work as on a plain object, and
    ``_unchecked`` can build one without the check.
    """

    def __init_subclass__(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        values = operator.attrgetter(*fields)  # the value itself for one field

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        if len(fields) == 1:
            def __hash__(self):
                return hash((values(self),))
        else:
            def __hash__(self):
                return hash(values(self))

        cls._fields, cls._field_set, cls.__match_args__ = fields, frozenset(fields), fields
        cls._checked = hasattr(cls, "__post_init__")
        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        # Fields given by position are set one by one, which keeps CPython's
        # inline attribute storage and its fast reads (vars() would build a
        # dict, read slower); an all-keyword call, as the reports make, takes
        # one dict update, cheaper for many fields.
        if kwargs or len(args) != len(self._fields):
            if args or kwargs.keys() != self._field_set:
                kwargs = _bound(type(self), args, kwargs)
            vars(self).update(kwargs)
        else:
            for name, value in zip(self._fields, args):
                _setattr(self, name, value)
        if self._checked:
            self.__post_init__()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bound(cls, args: tuple, kwargs: dict) -> dict:
    """The fields of a record call that gives them neither all by position
    nor all by keyword; TypeError for a call a function of those fields
    would refuse."""
    name, fields = cls.__qualname__, cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    bound = dict(zip(fields, args))
    for field, value in kwargs.items():
        if field not in cls._field_set:
            raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        if field in bound:
            raise TypeError(f"{name}() got multiple values for argument {field!r}")
        bound[field] = value
    missing = [field for field in fields if field not in bound]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return bound


class Partition(_Record):
    """Weakly decreasing tuple of positive integers; never empty."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.parts
        check_tuple(parts, "parts")
        if not parts:
            raise ValueError("a partition needs at least one part")
        types = set(map(type, parts))
        if (
            bool in types
            or not all(issubclass(t, int) for t in types)
            or min(parts) < 1
            or not all(map(operator.ge, parts, islice(parts, 1, None)))
        ):
            _raise_first_violation(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    @property
    def size(self) -> int:
        """Total number of Ferrers dots."""
        return sum(self.parts)

    @property
    def width(self) -> int:
        """Largest part, i.e. the number of Ferrers columns."""
        return self.parts[0]

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Ferrers column dot counts: columns[j-1] = #{i : parts[i] >= j}."""
        parts = self.parts
        return tuple(
            bisect_right(parts, -j, key=operator.neg) for j in range(1, parts[0] + 1)
        )

    def to_json(self) -> list[int]:
        return list(self.parts)


def _raise_first_violation(parts: tuple) -> None:
    """Name the first part, in order, that breaks a check of Partition.__post_init__."""
    prev = None
    for part in parts:
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if prev is not None and part > prev:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        prev = part


def _unchecked(cls, **fields):
    """The record cls holding fields, unchecked: for values derived from checked ones."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def make_partition(parts: Iterable[int]) -> Partition:
    """Build a partition, sorting the entries into weakly decreasing order."""
    return Partition(tuple(sorted(parts, reverse=True)))


def conjugate(partition: Partition) -> Partition:
    """Column dot counts: result[j-1] = #{i : parts[i] >= j}."""
    return _unchecked(Partition, parts=partition.columns)


def truncate(partition: Partition, level: int) -> Partition:
    """Cap every part at the given level >= 1."""
    if level < 1:
        raise ValueError(f"truncation level must be >= 1, got {level}")
    if level >= partition.width:
        return partition
    capped = partition.columns[level - 1]
    _raise_first_violation((level,))  # the level becomes a part
    return _unchecked(Partition, parts=(level,) * capped + partition.parts[capped:])


def geometric_sum(partition: Partition, p: int) -> int:
    """Sum of (p^a - 1)/(p - 1) over the parts, as an exact integer.

    Each part a contributes 1 + p + ... + p^(a-1), so the sum is the column
    counts weighted by powers of p: sum_j columns[j-1] * p^(j-1).
    """
    check_prime(p)
    columns = partition.columns
    return _dot_prefix_weight(columns, p, sum(columns))


def _dot_prefix_weight(columns: Sequence[int], p: int, t: int) -> int:
    """Weight W(t) of the first t dots in column order, for 0 <= t <= size."""
    total = 0
    weight = 1
    for count in columns:
        if t <= count:
            return total + t * weight
        total += count * weight
        t -= count
        weight *= p
    return total


class WeightSequence(_Record):
    """Column-ordered Ferrers dot weights: conj[j-1] copies of p^(j-1)."""

    p: int
    weights: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if any(b < a for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be weakly increasing")

    def __len__(self) -> int:
        return len(self.weights)

    def prefix_sums(self) -> tuple[int, ...]:
        """Cumulative weights, length len+1, starting at 0."""
        sums = [0]
        for w in self.weights:
            sums.append(sums[-1] + w)
        return tuple(sums)


def weight_sequence(partition: Partition, p: int) -> WeightSequence:
    """List the Ferrers dots column by column, weighting column j by p^(j-1)."""
    check_prime(p)
    conj = conjugate(partition)
    weights: list[int] = []
    for j, count in enumerate(conj.parts):
        weights.extend([p**j] * count)
    return WeightSequence(p, tuple(weights))


def conjugation_identity_sides(partition: Partition, m: int, x: int) -> tuple[int, int]:
    """Evaluate both sides of the tail-conjugation identity at an integer x.

    Left side:  sum_{j=m}^{a_1} conj[j] * x^j.
    Right side: sum_{i=1}^{conj[m]} (x^m + x^(m+1) + ... + x^(a_i)).
    The two polynomials are identical in Z[x]; callers assert lhs == rhs.
    """
    width = partition.width
    if not 1 <= m <= width:
        raise ValueError(f"m must lie in [1, {width}], got {m}")
    conj = conjugate(partition)
    lhs = sum(conj[j - 1] * x**j for j in range(m, width + 1))
    rhs = 0
    for i in range(conj[m - 1]):
        rhs += sum(x**e for e in range(m, partition[i] + 1))
    return lhs, rhs
