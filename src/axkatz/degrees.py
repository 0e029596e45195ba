"""Totally ordered degree values: -inf < 0 < 1 < 2 < ... < inf.

Functional degrees and q-adic valuations share this value domain: the zero
map gets -inf, maps that do not split over a single prime (and valuations of
zero) get +inf, and everything else is a natural number.
"""

from __future__ import annotations


class Degree:
    """A natural number extended by -inf and +inf."""

    __slots__ = ("_rank", "_value")

    def __init__(self, rank: int, value: int = 0):
        if rank not in (-1, 0, 1):
            raise ValueError("rank must be -1, 0 or 1")
        if rank == 0 and value < 0:
            raise ValueError("finite degrees are nonnegative")
        self._rank = rank
        self._value = value if rank == 0 else 0

    @staticmethod
    def of(value: "Degree | int") -> "Degree":
        if isinstance(value, Degree):
            return value
        return Degree(0, int(value))

    @property
    def is_finite(self) -> bool:
        return self._rank == 0

    @property
    def value(self) -> int:
        if self._rank != 0:
            raise ValueError(f"{self} has no finite value")
        return self._value

    def _key(self) -> tuple[int, int]:
        return (self._rank, self._value)

    @staticmethod
    def _key_of(other) -> tuple[int, int] | None:
        """Ordering key of a Degree or an int (ints compare as finite values)."""
        if isinstance(other, Degree):
            return other._key()
        if isinstance(other, int):
            return (0, other)
        return None

    def __eq__(self, other) -> bool:
        key = self._key_of(other)
        return NotImplemented if key is None else self._key() == key

    def __lt__(self, other) -> bool:
        key = self._key_of(other)
        return NotImplemented if key is None else self._key() < key

    def __le__(self, other) -> bool:
        key = self._key_of(other)
        return NotImplemented if key is None else self._key() <= key

    def __gt__(self, other) -> bool:
        key = self._key_of(other)
        return NotImplemented if key is None else self._key() > key

    def __ge__(self, other) -> bool:
        key = self._key_of(other)
        return NotImplemented if key is None else self._key() >= key

    def __hash__(self) -> int:
        # A finite degree equals the int of its value, so it hashes like it.
        return hash(self._value) if self._rank == 0 else hash(self._key())

    def __add__(self, other: "Degree | int") -> "Degree":
        other = Degree.of(other)
        if self._rank == 1 or other._rank == 1:
            if self._rank == -1 or other._rank == -1:
                raise ValueError("cannot add -inf and inf")
            return INF
        if self._rank == -1 or other._rank == -1:
            return NEG_INF
        return Degree(0, self._value + other._value)

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"Degree({self})"

    def __str__(self) -> str:
        if self._rank == -1:
            return "-inf"
        if self._rank == 1:
            return "inf"
        return str(self._value)

    def to_json(self) -> int | str:
        return self._value if self._rank == 0 else str(self)

    @staticmethod
    def from_json(value: int | str) -> "Degree":
        if value == "-inf":
            return NEG_INF
        if value == "inf":
            return INF
        return Degree.of(int(value))


NEG_INF = Degree(-1)
INF = Degree(1)
