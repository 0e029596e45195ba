"""Integer partitions, conjugation, and Ferrers-dot weight sequences.

A partition is held as its runs, the (part, multiplicity) pair of each
distinct part, and everything here reads them: the row count and size are
sums over the runs, conjugation and truncation build new runs in
O(distinct), and the column counts (`Partition.columns`, the conjugate's
parts) are those runs repeated at C speed.  The rows are listed only when
read.  The weight sequence lists the dots in column order with column j
(1-based) costing p^(j-1): the definition-level reference that the
column-wise closed forms in `bounds` are tested against.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .errors import ResourceLimitError
from .intmath import check_prime, check_tuple


_setattr = object.__setattr__
_second = operator.itemgetter(1)


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
    """A nonempty weakly decreasing sequence of positive integers (its rows),
    held as its runs: a (part, multiplicity) pair per distinct part, largest
    first.  ``Partition(parts)`` takes and keeps the rows; ``Partition(runs)``
    and ``partition_from_runs`` take runs, and list the rows on their first
    read only within ``enumeration_limit()``, unless the rows are derived
    from rows already listed."""

    runs: tuple[tuple[int, int], ...]
    # True when there are no more rows than a caller listed (a truncation of
    # listed rows, a Sylow component of a listed shape): listing is not capped.
    _derived = False

    def __init__(self, *args, **kwargs):
        if len(args) == 1 and not kwargs and not _runs_like(args[0]):
            parts = args[0]
        elif not args and kwargs.keys() == {"parts"}:
            parts = kwargs["parts"]
        else:
            super().__init__(*args, **kwargs)  # runs, checked by __post_init__
            return
        _check_parts(parts)
        _setattr(self, "runs", _runs_of(parts))
        _setattr(self, "parts", parts)

    def __post_init__(self):
        check_tuple(self.runs, "runs")
        if _merged(self.runs) != self.runs:
            raise ValueError(f"run parts must be strictly decreasing, got {self.runs}")

    def __len__(self) -> int:
        return sum(map(_second, self.runs))

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    @cached_property
    def parts(self) -> tuple[int, ...]:
        """The rows, listed from the runs at most once."""
        return _rows(self.runs, capped=not self._derived)

    @property
    def size(self) -> int:
        """Total number of Ferrers dots."""
        return sum(part * copies for part, copies in self.runs)

    @property
    def width(self) -> int:
        """Largest part, i.e. the number of Ferrers columns."""
        return self.runs[0][0]

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Ferrers column dot counts: columns[j-1] = #{i : parts[i] >= j}."""
        return _rows(_conjugate_runs(self), capped=False)

    def to_json(self) -> list[int]:
        return list(self.parts)


def _rows(runs, capped: bool) -> tuple[int, ...]:
    """The rows of (value, rows) runs, listed at C speed; held to
    ``enumeration_limit()`` when capped."""
    if capped:
        from .groups import enumeration_limit  # groups imports this module

        if (rows := sum(map(_second, runs))) > (limit := enumeration_limit()):
            raise ResourceLimitError(f"{rows} partition rows exceed the enumeration limit {limit}")
    listed: list[int] = []
    for part, copies in runs:
        listed += [part] * copies
    return tuple(listed)


def _conjugate_runs(partition: Partition) -> list[tuple[int, int]]:
    """The columns from a run's part down to the next smaller part form one
    run of the conjugate, of the rows in that run and every longer one."""
    runs, rows, below = [], len(partition), 0
    for part, copies in reversed(partition.runs):
        runs.append((rows, part - below))
        rows, below = rows - copies, part
    return runs


def _runs_like(value) -> bool:
    return isinstance(value, tuple) and bool(value) and isinstance(value[0], tuple)


def _check_parts(parts) -> None:
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


def _raise_first_violation(parts: tuple) -> None:
    """Name the first part, in order, that breaks a rule of ``_check_parts``."""
    prev = None
    for part in parts:
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if prev is not None and part > prev:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        prev = part


def _merged(runs) -> tuple[tuple[int, int], ...]:
    """Runs checked to be pairs of positive ints, in any order, with equal
    parts merged, largest part first."""
    totals: Counter = Counter()
    for run in runs:
        if not (
            isinstance(run, tuple)
            and len(run) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in run)
        ):
            raise ValueError(f"runs must be pairs (part, multiplicity) of positive ints, got {run!r}")
        totals[run[0]] += run[1]
    if not totals:
        raise ValueError("a partition needs at least one part")
    return tuple(sorted(totals.items(), reverse=True))


def _runs_of(parts: tuple) -> tuple[tuple[int, int], ...]:
    """The runs of checked parts, one bisection per run."""
    runs, lo = [], 0
    while lo < len(parts):
        hi = bisect_right(parts, -parts[lo], lo, key=operator.neg)
        runs.append((parts[lo], hi - lo))
        lo = hi
    return tuple(runs)


def _unchecked(cls, **fields):
    """The record cls holding fields, unchecked: for values derived from
    checked ones.  Set one by one, the fields keep their fast reads."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        _setattr(obj, name, value)
    return obj


def make_partition(parts: Iterable[int]) -> Partition:
    """Build a partition, sorting the entries into weakly decreasing order."""
    return Partition(tuple(sorted(parts, reverse=True)))


def partition_from_runs(runs: Iterable[tuple[int, int]]) -> Partition:
    """Build a partition from (part, multiplicity) pairs in any order, adding
    up the multiplicities of equal parts; no work is done per row."""
    return _unchecked(Partition, runs=_merged(runs))


def conjugate(partition: Partition) -> Partition:
    """Column dot counts: result[j-1] = #{i : parts[i] >= j}."""
    return _unchecked(Partition, runs=tuple(_conjugate_runs(partition)))


def truncate(partition: Partition, level: int) -> Partition:
    """Cap every part at the given level >= 1: one run of the level."""
    if level < 1:
        raise ValueError(f"truncation level must be >= 1, got {level}")
    if level >= partition.width:
        return partition
    _raise_first_violation((level,))  # the level becomes a part
    runs, kept, capped = partition.runs, 0, 0
    while kept < len(runs) and runs[kept][0] >= level:
        capped += runs[kept][1]
        kept += 1
    runs = ((level, capped), *runs[kept:])
    return _unchecked(Partition, runs=runs, _derived=_uncapped(partition))


def _uncapped(partition: Partition) -> bool:
    """Whether as many rows as the partition has are listed whatever the
    enumeration limit: its rows were listed, or derive from listed rows."""
    return partition._derived or "parts" in vars(partition)


def geometric_sum(partition: Partition, p: int) -> int:
    """Sum of (p^a - 1)/(p - 1) over the parts, one term per run."""
    check_prime(p)
    return sum(copies * ((p**part - 1) // (p - 1)) for part, copies in partition.runs)


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
    weights: list[int] = []
    for j, dots in enumerate(partition.columns):
        weights.extend([p**j] * dots)
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
