"""Finite-difference calculus for maps between finite commutative groups.

Maps are stored as value tables in enumeration order.  The functional degree
of a nonzero map f is the largest total order of an iterated generator
difference that is not identically zero; it is -inf for the zero map and
+inf exactly when the map does not split over the Sylow components of its
domain and codomain.  Generator differences suffice because the
augmentation ideal of the group ring is generated by (e_i - 1) over the
standard generators e_i, so all order-(d+1) differences vanish iff all
order-(d+1) products of arbitrary translation differences do.

Every map is read through one cached plan per (domain, codomain) pair, one
entry per Sylow component (``_Component``) with its index gathers and
support box; a pair of p-groups of one prime is the one-component case.

For a map from Z/p^a_1 + ... + Z/p^a_N into a p-group of exponent p^beta,
every restriction to a line along axis i has degree at most the
one-variable cap (p^a_i - 1) + (beta - 1)(p - 1)p^(a_i - 1), so the
difference of order w_i = cap_i + 1 along that axis vanishes.  The iterated
differences at the origin over the support box prod [0, w_i) are therefore
all the binomial-basis coefficients of the periodic pullback, and
Delta^m f(x) = sum_n c_n C(x, n - m) makes the degree the largest total
order of a nonzero coefficient.  One forward-difference transform per axis
(Yates) computes the whole box from the values on it.  Packed ints are
stepped slot-wise: one table holds its box in one int, a slot per cell, and
an axis is stepped inside it; a batch (``TableSet``, the one batch layout)
holds one int per codomain slot and cell, a slot per table, and is stepped
across the cells.  A single column of plain ints (``coefficient_table``,
``_outside_forms``, ``_box_values``, ``lift_difference_box``) is stepped
with exact adds or subtracts and reduced mod q once, if at all.  The box
has prod w_i cells, which can dwarf the table (3^16 cells for a map
(Z/2)^16 -> Z/4), so a box past the enumeration limit raises
ResourceLimitError before it is built.  A nonzero coefficient beyond the
component's degree cap would contradict the closed form and raises
ConsistencyError.  ``difference`` and ``iterated_difference`` are the
definition-level operators, both read through one index map per
translation; the test suite checks the transform against them.
``reconstruct`` evaluates a coefficient table point by point through one
``BinomialSeries`` per codomain factor; ``_box_values`` gives a series'
exact values on the whole domain box by the transform run with exact adds.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable, Mapping, Sequence

from .degrees import INF, NEG_INF, Degree
from .errors import ConsistencyError, ResourceLimitError, UnsupportedMapError
from .groups import (
    AbelianShape,
    PGroupShape,
    check_enumerable,
    component_of,
    enumerate_elements,
    enumeration_limit,
    index_of,
    max_functional_degree,
    one_variable_cap,
    pure_prime,
)
from .intmath import binomial, check_integer, check_tuple, factorize, multiplicity
from .partitions import _Record, _unchecked, make_partition

Table = tuple[tuple[int, ...], ...]  # the values of a map, in enumeration order


class FiniteMap(_Record):
    """Total function between finite shapes, tabulated in enumeration order."""

    domain: AbelianShape
    codomain: AbelianShape
    values: Table

    def __post_init__(self):
        check_tuple(self.values, "values")
        _check_tables(self.domain, self.codomain, (self.values,))

    @classmethod
    def from_callable(
        cls,
        domain: AbelianShape,
        codomain: AbelianShape,
        fn: Callable[[tuple[int, ...]], tuple[int, ...]],
    ) -> "FiniteMap":
        values = tuple(codomain.reduce(fn(x)) for x in enumerate_elements(domain))
        return cls(domain, codomain, values)

    def at(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return self.values[index_of(self.domain, x)]

    __call__ = at

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.values))

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "values": [list(v) for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteMap":
        try:
            domain = AbelianShape(tuple(data["domain"]))
            codomain = AbelianShape(tuple(data["codomain"]))
            values = tuple(tuple(v) for v in data["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed function table: {exc}") from exc
        return cls(domain, codomain, values)


def _check_tables(domain: AbelianShape, codomain: AbelianShape, tables: Sequence[Table]) -> None:
    """Raise ValueError, naming the first wrong table length or value, unless
    every table holds one reduced codomain element per domain element."""
    order, factors = domain.order, codomain.factors
    if isinstance(tables, TableSet):
        # Slot by slot, carry-safe: each slot's top bit is read apart, and
        # below it slot + 2^(w - 1) - q, which stays inside the slot, reaches
        # the top bit exactly when the slot is at least q < 2^(w - 1).
        size, planes = tables.size, tables.planes
        width, ones = 8 * size, _slot_ones(len(tables), size)
        high, full = ones << width - 1, ones * ((1 << width) - 1)
        shape = (tables.domain, tables.codomain, size, list(map(len, planes)))
        expected = (domain, codomain, _slot_size(domain, codomain), [order] * len(factors))
        if shape == expected and all(
            0 <= plane <= full and not (plane | (plane & ~high) + offset) & high
            for column, q in zip(planes, factors)
            for offset in [ones * ((1 << width - 1) - q)]
            for plane in column
        ):
            return
        tables = list(map(tables.table, range(len(tables))))
    rows = list(itertools.chain.from_iterable(tables))
    # Bulk checks at C speed accept only what the per-table loop accepts; once
    # the rows are tuples of ints, their distinct values stand for them all.
    # The type tests are exact, so bools (an int subclass) take the loop,
    # which rejects them.
    if not (
        set(map(len, tables)) <= {order}
        and set(map(type, rows)) <= {tuple}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
        and set(map(len, distinct := set(rows))) <= {len(factors)}
        and all(0 <= min(col) and max(col) < m for col, m in zip(zip(*distinct), factors))
    ):
        for values in tables:
            if len(values) != order:
                raise ValueError(f"table has {len(values)} entries, domain has {order}")
            for v in values:
                if not codomain.contains(v):
                    raise ValueError(f"{v!r} is not a reduced element of {factors}")


class TableSet(Sequence):
    """The value tables of one (domain, codomain) pair on per-position
    planes: planes[j][k] holds entry j of every table at domain position k,
    table i in bits [w i, w (i + 1)), w = 8 ``size`` (``_slot_size``).  The
    degree transform, the range check and the zero flags read the planes as
    they are; a table read by index or iteration is decoded from each
    plane's bytes, written once per set, and only then becomes a FiniteMap.
    The set equals any sequence of the same FiniteMaps."""

    def __init__(
        self, domain: AbelianShape, codomain: AbelianShape, length: int, planes, size: int
    ):
        self.domain, self.codomain, self.length, self.planes, self.size = (
            domain, codomain, length, planes, size
        )
        self._zero_flags: tuple[int, ...] | None = None
        self._read: list[list[Sequence[int]]] | None = None

    def __repr__(self) -> str:
        return f"TableSet({self.domain}, {self.codomain}, {self.length} tables)"

    @classmethod
    def of(cls, domain: AbelianShape, codomain: AbelianShape, tables: Iterable, length: int):
        """The set of the given number of value tables."""
        size, chain = _slot_size(domain, codomain), itertools.chain.from_iterable
        rows = _blob(chain(chain(tables)), size)
        planes = _planes(rows, domain.order, len(codomain.factors), size)
        return cls(domain, codomain, length, planes, size)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def _lanes(self) -> list[list[Sequence[int]]]:
        """Per plane, the entry of every table in order, decoded on the first
        read of a table."""
        if self._read is None:
            size, n = self.size, self.length * self.size
            self._read = [[_entries(p.to_bytes(n, "little"), size) for p in c] for c in self.planes]
        return self._read

    def table(self, i: int) -> Table:
        """The value table of table i, decoded without a FiniteMap."""
        columns = [list(map(operator.itemgetter(i), c)) for c in self._lanes()]
        return tuple(zip(*columns)) if columns else ((),) * self.domain.order

    def __getitem__(self, i: int) -> FiniteMap:
        if not -self.length <= i < self.length:
            raise IndexError("table index out of range")
        values = self.table(i % self.length)  # checked with the set, not again
        return _unchecked(FiniteMap, domain=self.domain, codomain=self.codomain, values=values)

    def __iter__(self):
        columns = self._lanes()  # per position the r-tuples of every table, then per table:
        tables = zip(*map(zip, *columns)) if columns else [((),) * self.domain.order] * self.length
        for values in tables:  # checked with the set, not again
            yield _unchecked(FiniteMap, domain=self.domain, codomain=self.codomain, values=values)

    def zero_flags(self) -> tuple[int, ...]:
        """Per domain position, a 1 in the lowest bit of the slot of each table
        that vanishes there (``_slot_nonzero``), computed once per set.  A
        trivial codomain has no plane: one zero column stands for it."""
        if self._zero_flags is None:
            ones = _slot_ones(self.length, self.size)
            nonzero = _slot_nonzero(8 * self.size, ones)
            columns = self.planes or [[0] * self.domain.order]
            self._zero_flags = tuple(ones ^ nonzero(reduce(operator.or_, c)) for c in zip(*columns))
        return self._zero_flags

    def zero_masks(self) -> list[int]:
        """Per table, its zero set as one int (``zero_mask``), from ``zero_flags``."""
        size, stride = self.size, self.length * self.size
        rows = b"".join(f.to_bytes(stride, "little") for f in reversed(self.zero_flags()))
        digits = (rows[i * size :: stride].translate(_BINARY_DIGITS) for i in range(self.length))
        return [int(d or b"0", 2) for d in digits]


@lru_cache(maxsize=None)
def _slot_size(domain: AbelianShape, codomain: AbelianShape) -> int:
    """Bytes per TableSet entry, in w bits: each modulus below 2^(w - 1), each
    zero count up to |A| below 2^w, and for a one-prime pair the slot of its
    degree transform (``_Component.slot_bytes``)."""
    bits = max([domain.order.bit_length(), *(q.bit_length() + 1 for q in codomain.factors)])
    plan = _sylow_plan(domain, codomain)
    return max((bits + 7) // 8, plan[0].slot_bytes if _is_one_prime(plan) else 0)


def _slot_ones(count: int, size: int) -> int:
    """A 1 in the lowest bit of each of count slots of size bytes."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")


def _width_ones(count: int, width: int) -> int:
    """A 1 in the lowest bit of each of count slots of width bits, width 1
    (the one-bit slots of Z/2 entries) or a multiple of 8."""
    return (1 << count) - 1 if width == 1 else _slot_ones(count, width // 8)


def _blob(flat: Iterable[int], size: int) -> bytes:
    """Entries as consecutive big-endian slots of size bytes, so that the
    rows of tables compare as the tables do."""
    if size == 1:
        return bytes(flat)
    return b"".join(map(int.to_bytes, flat, itertools.repeat(size), itertools.repeat("big")))


def _plane(entries: Sequence[int], size: int) -> int:
    """One int holding the entries, entry i in bytes [size i, size (i + 1))."""
    return int.from_bytes(_blob(entries[::-1], size), "big")


def _planes(rows: bytes, cells: int, slots: int, size: int) -> list[list[int]]:
    """Per codomain slot j, per cell k, the plane (``_plane``) of entry j at
    cell k of tables written as consecutive rows of cells x slots entries
    (``_blob``)."""
    entries, stride = _entries(rows, size, "big"), cells * slots
    return [
        [_plane(entries[k * slots + j :: stride], size) for k in range(cells)] for j in range(slots)
    ]


def _entries(data: bytes, size: int, byteorder: str = "little") -> Sequence[int]:
    """The entries of consecutive slots of size bytes in byteorder (an int's
    little-endian ``to_bytes``, or the big-endian rows of ``_blob``), from
    the top byte plane down."""
    offsets = range(size - 1, -1, -1) if byteorder == "little" else range(size)
    entries, repeat = data[offsets[0] :: size], itertools.repeat
    for b in offsets[1:]:
        entries = map(operator.add, map(operator.mul, entries, repeat(256)), data[b::size])
    return entries if size == 1 else list(entries)


@lru_cache(maxsize=64)
def _translation(shape: AbelianShape, a: tuple[int, ...]) -> tuple[int, ...]:
    """Index map sending the index of each element x to the index of x + a,
    built one factor at a time.  The cache is bounded: every element of
    every domain is a possible key."""
    shifted = [0]
    for m, c in zip(shape.factors, a):
        shifted = [t * m + (x + c) % m for t in shifted for x in range(m)]
    return tuple(shifted)


def difference(f: FiniteMap, a: tuple[int, ...]) -> FiniteMap:
    """Translation difference x -> f(x + a) - f(x)."""
    if not f.domain.contains(a):
        raise ValueError(f"{a} is not a reduced element of the domain")
    values, mods = f.values, f.codomain.factors
    values = tuple(
        tuple((u - v) % m for u, v, m in zip(values[k], x, mods))
        for k, x in zip(_translation(f.domain, a), values)
    )
    return _unchecked(FiniteMap, domain=f.domain, codomain=f.codomain, values=values)


def iterated_difference(f: FiniteMap, orders: Sequence[int]) -> FiniteMap:
    """Apply the generator difference in coordinate i orders[i] times.

    The generator differences commute, so the application order is irrelevant.
    """
    naxes = len(f.domain.factors)
    if len(orders) != naxes:
        raise ValueError(f"expected {naxes} orders, got {len(orders)}")
    if any(n < 0 for n in orders):
        raise ValueError("difference orders must be nonnegative")
    for axis, n in enumerate(orders):
        generator = tuple(int(i == axis) for i in range(naxes))
        for _ in range(n):
            f = difference(f, generator)
    return f


class _Component(_Record):
    """One Sylow component of a (domain, codomain) pair, as index gathers.

    A domain factor Z/m, m = c q with q its p-part, has the mutually inverse
    CRT maps x -> x c^-1 mod q and u -> c u mod m: project[k] is the component
    index of domain element k and include[u] the domain index of component
    element u, both None when the domain is a p-group of this prime.  A
    codomain slot (position, multiplier, q) reads v as v * multiplier mod q,
    the multiplier None when the factor is q itself.  The component's domain
    has the cyclic factors ``factors``, and its support box the axis widths.
    """

    prime: int
    project: tuple[int, ...] | None
    include: tuple[int, ...] | None
    slots: tuple[tuple[int, int | None, int], ...]
    factors: tuple[int, ...]
    widths: tuple[int, ...]
    cap: int

    @cached_property
    def box(self) -> tuple[tuple[int, ...] | None, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(gather, orders, levels): cell n of the support box is component
        element gather[n], gather None when the box is the component, and has
        total order orders[n]; levels[o] lists the cells of order o.  Built
        on first read, so a pair whose box is never transformed
        (``primary_split``, ``primary_assemble``) never builds it; a box of
        more cells than the enumeration limit raises ResourceLimitError
        instead of being built."""
        volume, limit = math.prod(self.widths), enumeration_limit()
        if volume > limit:
            raise ResourceLimitError(
                f"support box of {volume} cells exceeds the enumeration limit {limit}"
            )
        gather, orders = [0], [0]
        for q, w in zip(self.factors, self.widths):
            gather = [g * q + k % q for g in gather for k in range(w)]
            orders = [o + k for o in orders for k in range(w)]
        levels: list[list[int]] = [[] for _ in range(orders[-1] + 1)]
        for n, o in enumerate(orders):
            levels[o].append(n)
        gather = None if self.factors == self.widths else tuple(gather)
        return gather, tuple(orders), tuple(map(tuple, levels))

    @cached_property
    def slot_bytes(self) -> int:
        """Bytes per table in a batch's planes (``TableSet``): a slot of w bits
        holds every q of the component below 2^(w - 1), and one plus the
        order of every box cell below 2^w."""
        orders = len(self.box[2])
        bits = max(orders.bit_length(), *(q.bit_length() + 1 for _, _, q in self.slots))
        return (bits + 7) // 8


@lru_cache(maxsize=None)
def _sylow_plan(domain: AbelianShape, codomain: AbelianShape) -> tuple[_Component, ...]:
    """The components, by increasing prime, at every prime of |A| |B| whose
    codomain component is nontrivial (the others carry only zero maps).  The
    gathers are built one domain factor at a time; the codomain is never
    enumerated."""
    plan = []
    for p in sorted(set(domain.primes()) | set(codomain.primes())):
        slots = tuple(
            (pos, None if m == q else pow(m // q, -1, q), q)
            for pos, m in enumerate(codomain.factors)
            if (q := p ** multiplicity(p, m)) > 1
        )
        if not slots:
            continue
        sylow = component_of(domain, p).factors
        project = include = None
        if sylow != domain.factors:
            project, include = [0], [0]
            for m in domain.factors:
                q = p ** multiplicity(p, m)
                c, inverse = m // q, pow(m // q, -1, q)  # inverse 0 for q = 1: x drops out
                project = [g * q + x * inverse % q for g in project for x in range(m)]
                include = [g * m + c * u % m for g in include for u in range(q)]
            project, include = tuple(project), tuple(include)
        exps = [multiplicity(p, q) for q in sylow]
        beta = max(multiplicity(p, q) for _, _, q in slots)
        widths = tuple(one_variable_cap(p, a, beta) + 1 for a in exps)
        cap = max_functional_degree(PGroupShape(p, make_partition(exps)), beta) if exps else 0
        plan.append(_Component(p, project, include, slots, sylow, widths, cap))
    return tuple(plan)


def _is_one_prime(plan: tuple[_Component, ...]) -> bool:
    """True when domain and codomain are p-groups of one common prime."""
    return len(plan) == 1 and plan[0].include is None


def _component_tables(values: Table, comp: _Component) -> list[list[int]] | None:
    """The component map of a value table, one column per codomain slot, or
    None when its component does not factor through the projection of its
    domain."""
    tables = []
    for pos, multiplier, q in comp.slots:
        column = list(map(operator.itemgetter(pos), values))
        if multiplier is not None:
            column = [v * multiplier % q for v in column]
        if comp.include is not None:
            table = list(map(column.__getitem__, comp.include))
            if list(map(table.__getitem__, comp.project)) != column:
                return None
            column = table
        tables.append(column)
    return tables


def _slot_reduction(q: int, width: int, ones: int) -> Callable[[int], int]:
    """Every width-bit slot of a packed int mod q, ``ones`` holding a 1 in
    the lowest bit of each slot: a mask when q is a power of 2, else q taken
    from each slot that reaches it (slots below 2q), read off the top bit of
    slot + 2^(width - 1) - q.  Every q stays below 2^(width - 1)."""
    if not q & (q - 1):
        return (ones * (q - 1)).__and__
    carry, shift = ones * ((1 << width - 1) - q), width - 1
    return lambda d: d - ((d + carry) >> shift & ones) * q


def _slot_difference(q: int, width: int, ones: int) -> Callable[[int, int], int]:
    """Slot-wise a - b mod q on packed ints of reduced slots: a + q - b
    stays below 2q, so ``_slot_reduction`` reduces it.  One-bit slots hold
    Z/2, where a - b is a XOR b."""
    if width == 1:
        return operator.xor
    offset, reduction = q * ones, _slot_reduction(q, width, ones)
    return lambda a, b: reduction(a + offset - b)


def _slot_sum(q: int, width: int, ones: int) -> Callable[[int, int], int]:
    """Slot-wise a + b mod q on packed ints of reduced slots (below 2q);
    XOR on one-bit slots."""
    if width == 1:
        return operator.xor
    reduction = _slot_reduction(q, width, ones)
    return lambda a, b: reduction(a + b)


def _slot_nonzero(width: int, ones: int) -> Callable[[int], int]:
    """A 1 in the lowest bit of each nonzero width-bit slot of a packed int
    whose slots stay below 2^(width - 1): slot + 2^(width - 1) - 1 sets the
    slot's top bit exactly then.  One-bit slots are their own flags."""
    if width == 1:
        return ones.__and__
    fill, shift = ones * ((1 << width - 1) - 1), width - 1
    return lambda packed: (packed + fill) >> shift & ones


def _level_flags(comp: _Component, columns: list[list[int]], width: int, ones: int) -> list[int]:
    """In place, each column becomes its coefficient column over the support
    box; returns, per total order o, the flags (``_slot_nonzero``) of the
    entries with a nonzero coefficient of order o.

    A column holds one codomain slot of the component, one int per domain
    cell with the entries side by side in slots of width bits, ``ones`` a 1
    in the lowest bit of each; one transform with the slot-wise step
    ``_slot_difference`` serves every entry.
    """
    gather, _, levels = comp.box
    nonzero = [0] * len(levels)
    for j, (_, _, q) in enumerate(comp.slots):
        if gather is not None:
            columns[j] = list(map(columns[j].__getitem__, gather))
        _forward_differences(columns[j], comp.widths, _slot_difference(q, width, ones))
        for order, cells in enumerate(levels):
            nonzero[order] |= reduce(operator.or_, map(columns[j].__getitem__, cells))
    return list(map(_slot_nonzero(width, ones), nonzero))


def _top_flags(comp: _Component, columns: list[list[int]], width: int, ones: int) -> dict[int, int]:
    """``_level_flags`` read per entry: for each top, one plus an entry's
    largest total order with a nonzero coefficient (0 when all vanish), the
    flags of the entries with that top, highest top first and only those
    that some entry has."""
    levels = _level_flags(comp, columns, width, ones)
    flags, pending = {}, ones
    for order in range(len(levels) - 1, -1, -1):
        hit = levels[order] & pending
        if hit:
            flags[order + 1] = hit
            pending ^= hit
    if pending:
        flags[0] = pending
    return flags


def _top_orders(comp: _Component, columns: list[list[int]], count: int, size: int) -> list[int]:
    """In place, each column becomes its coefficient column over the support
    box; returns, per table, one plus its top order, the largest total order
    of a nonzero cell (0 when all vanish).

    A batch holds ``count`` tables on planes (``TableSet``) in slots of
    ``size`` bytes, at least ``comp.slot_bytes``, one int per cell, and its
    level flags give every table's top order (``_top_flags``).
    One table (count 1, size ``comp.slot_bytes``) is transformed in one int
    holding its whole box (``_box_rows``) and left one entry per cell; its
    top order is the largest order of a nonzero cell.
    """
    width = 8 * size
    if count > 1:
        flags = _top_flags(comp, columns, width, _slot_ones(count, size))
        tops = sum(top * hit for top, hit in flags.items())
        return list(_entries(tops.to_bytes(count * size, "little"), size))
    gather, orders, _ = comp.box
    ones, top = _slot_ones(len(orders), size), -1
    for j, (_, _, q) in enumerate(comp.slots):
        if gather is not None:
            columns[j] = list(map(columns[j].__getitem__, gather))
        packed = [_plane(columns[j], size)]
        step = _slot_difference(q, width, ones)
        _forward_differences(packed, comp.widths, step, _box_rows(comp.widths, size))
        columns[j] = _entries(packed[0].to_bytes(len(orders) * size, "little"), size)
        top = max(top, max(itertools.compress(orders, columns[j]), default=-1))
    return [top + 1]


def _raise_past_cap(
    domain: AbelianShape,
    codomain: AbelianShape,
    plan: tuple[_Component, ...],
    tops: list[list[int]],
    tables: Sequence[Table],
) -> None:
    """Raise ConsistencyError for the first table, in input order, whose top
    order passes its component's cap.

    ``tops`` holds, per component, one plus the top order of each table; the
    error carries the instance to replay, naming the prime when the pair
    has more than one.
    """
    k, n = min(
        (next(k for k, t in enumerate(comp_tops) if t > comp.cap + 1), n)
        for n, (comp, comp_tops) in enumerate(zip(plan, tops))
        if max(comp_tops) > comp.cap + 1
    )
    comp, order = plan[n], tops[n][k] - 1
    instance = {"domain": domain.factors, "codomain": codomain.factors, "cap": comp.cap}
    if not _is_one_prime(plan):
        instance["prime"] = comp.prime
    raise ConsistencyError(
        f"nonzero coefficient of order {order} exceeds the degree cap {comp.cap}",
        instance={**instance, "order": order, "values": tables[k]},
    )


def primary_split(f: FiniteMap) -> dict[int, FiniteMap] | None:
    """Split a map into Sylow-component maps, one per prime of |A| |B|, or
    None when it does not split.

    A map splits iff for every prime the component of f(x) depends only on
    the matching component of x; finite functional degree is equivalent to
    splitting, with the degree the maximum over the component maps.
    """
    plan = {comp.prime: comp for comp in _sylow_plan(f.domain, f.codomain)}
    out: dict[int, FiniteMap] = {}
    for prime in sorted(set(f.domain.primes()) | set(f.codomain.primes())):
        domain, codomain = component_of(f.domain, prime), component_of(f.codomain, prime)
        if prime not in plan:  # the codomain component is trivial
            values = ((),) * domain.order
        elif (tables := _component_tables(f.values, plan[prime])) is None:
            return None
        else:
            values = tuple(zip(*tables))
        out[prime] = _unchecked(FiniteMap, domain=domain, codomain=codomain, values=values)
    return out


def primary_assemble(
    domain: AbelianShape, codomain: AbelianShape, components: Mapping[int, FiniteMap]
) -> FiniteMap:
    """Assemble a map from Sylow-component maps; missing primes act as zero."""
    for prime, g in components.items():
        if g.domain != component_of(domain, prime):
            raise ValueError(f"component at {prime} has domain {g.domain.factors}")
        if g.codomain != component_of(codomain, prime):
            raise ValueError(f"component at {prime} has codomain {g.codomain.factors}")
    check_enumerable(domain.order)
    columns = [[0] * domain.order for _ in codomain.factors]
    for comp in _sylow_plan(domain, codomain):
        g = components.get(comp.prime)
        if g is None:
            continue
        for j, (pos, _, q) in enumerate(comp.slots):
            table = list(map(operator.itemgetter(j), g.values))
            if comp.project is not None:
                table = list(map(table.__getitem__, comp.project))
            cofactor = codomain.factors[pos] // q
            columns[pos] = [a + cofactor * u for a, u in zip(columns[pos], table)]
    columns = [[a % m for a in column] for column, m in zip(columns, codomain.factors)]
    values = tuple(zip(*columns)) if columns else ((),) * domain.order
    return _unchecked(FiniteMap, domain=domain, codomain=codomain, values=values)


def functional_degree(f: FiniteMap) -> Degree:
    """Exact functional degree in the extended naturals: the one-table call
    of ``functional_degrees``, without its check (a FiniteMap has passed it)."""
    return _degree(_tops(f.domain, f.codomain, [f.values])[0])


def functional_degrees(
    domain: AbelianShape, codomain: AbelianShape, tables: Sequence[Table]
) -> list[Degree]:
    """Exact functional degrees, in the extended naturals and in input order,
    of value tables from domain to codomain in enumeration order (or of a
    TableSet of the pair), every one of which is checked first as a
    FiniteMap checks its own (ValueError).

    Each Sylow component of a table is read off its codomain columns: +inf
    when it does not factor through the projection of the domain, else the
    largest total order of a nonzero series coefficient (see the module
    docstring).  The degree is the maximum over the components.  The tables
    are held side by side on planes (``TableSet``), so one transform per
    codomain slot serves them all (``_top_orders``); a single table is
    transformed in one int holding its whole box.
    """
    return list(map(_degree, _degree_tops(domain, codomain, tables)))


def _degree_tops(domain: AbelianShape, codomain: AbelianShape, tables: Sequence[Table]) -> list:
    """``functional_degrees`` as integers, one plus each degree: 0 for -inf,
    math.inf for +inf."""
    _check_tables(domain, codomain, tables)
    return _tops(domain, codomain, tables)


def _tops(domain: AbelianShape, codomain: AbelianShape, tables: Sequence[Table]) -> list:
    """``_degree_tops`` on tables already checked."""
    count = len(tables)
    plan = _sylow_plan(domain, codomain)
    if _is_one_prime(plan) and count > 1:  # the component's columns are the value planes
        if not isinstance(tables, TableSet):
            tables = TableSet.of(domain, codomain, tables, count)
        (comp,) = plan
        tops = _top_orders(comp, list(map(list, tables.planes)), count, tables.size)
        if max(tops) > comp.cap + 1:
            _raise_past_cap(domain, codomain, plan, [tops], list(map(tables.table, range(count))))
        return tops
    if isinstance(tables, TableSet):
        tables = list(map(tables.table, range(count)))
    parts = [[_component_tables(values, comp) for values in tables] for comp in plan]
    finite = [i for i in range(count) if all(p[i] is not None for p in parts)]
    chain = itertools.chain.from_iterable
    tops, past_cap = [], False
    for n, comp in enumerate(plan if finite else ()):
        if len(finite) == 1:
            columns = parts[n][finite[0]]
        else:
            rows = (zip(*parts[n][i]) for i in finite)
            cells, slots, size = math.prod(comp.factors), len(comp.slots), comp.slot_bytes
            columns = _planes(_blob(chain(chain(rows)), size), cells, slots, size)
        tops.append(_top_orders(comp, columns, len(finite), comp.slot_bytes))
        past_cap = past_cap or max(tops[-1]) > comp.cap + 1
    if past_cap:
        _raise_past_cap(domain, codomain, plan, tops, [tables[i] for i in finite])
    combined = tops[0] if tops else [0] * len(finite)
    for more in tops[1:]:
        combined = list(map(max, combined, more))
    degrees = [math.inf] * count
    for i, top in zip(finite, combined):
        degrees[i] = top
    return degrees


@lru_cache(maxsize=None)
def _degree(top: int) -> Degree:
    """The degree of a table with top order top - 1 (``_top_orders``), +inf
    for top math.inf."""
    return NEG_INF if not top else INF if top == math.inf else Degree.of(top - 1)


def _forward_differences(column: list[int], widths: Sequence[int], step, rows=None) -> None:
    """In place over a row-major box: cell n becomes the n-th iterated
    forward difference of the original array at the origin, by step(a, b):
    ``_slot_difference`` on packed ints, ``operator.sub`` on plain ints;
    ``_slot_sum`` or ``operator.add`` undoes the transform.

    Per axis, for k = 1..w-1 the rows k..w-1 are stepped against their
    predecessors.  Across entries (entry n cell n): one step per entry, the
    axis outermost, then rotated to the end.  Inside one entry, given the
    box's ``rows`` (``_box_rows``, column[0] holding cell n in its slot n):
    one step against the int shifted one row up the axis, masked to the rows
    k..w-1.
    """
    if rows is not None:
        (packed,) = column
        for shift, mask in rows:
            packed = step(packed, packed << shift & mask)
        column[0] = packed
        return
    cells = len(column)
    if not cells:  # a zero width leaves an empty box
        return
    for w in widths:
        rest = cells // w
        for k in range(1, w):
            lo = k * rest
            column[lo:] = map(step, column[lo:], column[lo - rest : cells - rest])
        if rest > 1:  # else the axis is the whole box: rotating it changes nothing
            slices = (column[j * rest : (j + 1) * rest] for j in range(w))
            column[:] = itertools.chain.from_iterable(zip(*slices))


_MASK_BYTES = 1 << 20  # the row masks of a box up to this size are cached


def _box_rows(widths: tuple[int, ...], size: int) -> Iterable[tuple[int, int]]:
    """Per axis, for k = 1..w-1, (shift, mask) for a box held in one int,
    cell n in slot n of size bytes: the shift moves each cell one row up the
    axis and the mask holds the rows k..w-1.  A box with more than
    _MASK_BYTES of masks gets each one built as it is read."""
    if math.prod(widths) * size * (sum(widths) - len(widths)) > _MASK_BYTES:
        return _rows(widths, size)
    return _cached_rows(widths, size)


def _rows(widths: tuple[int, ...], size: int) -> Iterable[tuple[int, int]]:
    """``_box_rows``, one at a time."""
    rest = volume = math.prod(widths)
    for w in widths:
        rest //= w
        for k in range(1, w):
            rows = bytes(k * rest * size) + b"\xff" * ((w - k) * rest * size)
            yield 8 * size * rest, int.from_bytes(rows * (volume // (w * rest)), "little")


_cached_rows = lru_cache(maxsize=64)(lambda widths, size: tuple(_rows(widths, size)))


@lru_cache(maxsize=None)
def degree_generators(
    domain: AbelianShape, codomain: AbelianShape, max_degree: int
) -> tuple[tuple[tuple[tuple[tuple[int, int], ...], int], ...], ...]:
    """Generators, with orders, of the maps of degree <= max_degree that
    vanish at 0, one tuple per codomain factor Z/q of a one-prime pair.

    Each generator is (terms, order): terms are its nonzero binomial
    coefficients as (cell, c) pairs on the domain box (``coefficient_table``
    evaluates them), order its additive order.  The maps in question are the
    direct sum of the cyclic groups generated, so each of them is one
    combination sum t_i g_i with 0 <= t_i < order_i; the q constants give
    the rest of the maps of degree <= max_degree into Z/q.

    In the binomial coordinates c_n of the domain box (cells n with
    n_i < m_i) a table has degree <= d exactly when c_n vanishes for |n| > d
    and its coefficients past order d vanish on the support-box cells outside
    the domain box too.  Those cells exist only for q = p^b with b > 1; the
    solutions of their linear conditions mod q are read off a Smith normal
    form.  For b = 1 nothing is solved: the generators are the unit cells of
    order 1..d.
    """
    p = pure_prime(domain)
    if p is None or pure_prime(codomain) != p:
        raise UnsupportedMapError(
            "degree generators need domain and codomain p-groups of one common prime"
        )
    cells = itertools.product(*map(range, domain.factors))
    free = [n for n, cell in enumerate(cells) if 1 <= sum(cell) <= max_degree]
    return tuple(
        _kernel_generators(_outside_forms(domain.factors, p, q, max_degree), free, p, q)
        for q in codomain.factors
    )


def _outside_forms(
    factors: tuple[int, ...], p: int, q: int, max_degree: int
) -> list[dict[int, int]]:
    """The coefficients of order above max_degree at support-box cells
    outside the domain box, as linear forms mod q in the domain-box
    coefficients of orders 1..max_degree; zero forms are skipped and
    duplicates dropped.

    The table sum_n c_n C(x, n) has coefficient sum_n c_n prod_i E_i(n_i, k_i)
    at box cell k, where E_i(n, k) is the k-th difference at 0 of the
    periodic x -> C(x mod m_i, n) (differences of a product of one-variable
    maps are the products of their differences), and E_i(n, k) = [n = k] for
    k < m_i.  The forms are built one axis at a time, and a partial term is
    dropped once its product vanishes mod q or its order passes max_degree,
    so the work follows the cells that can be nonzero mod q.
    """
    if q == p:  # b = 1: the support box is the domain box
        return []
    b = multiplicity(p, q)
    partial: list = [(0, False, ((0, 0, 1),))]  # (order of k, k outside?, (cell, order, c) terms)
    for m in factors:
        width = one_variable_cap(p, multiplicity(p, m), b) + 1
        columns = []
        for n in range(m):
            column = [binomial(x % m, n) for x in range(width)]
            _forward_differences(column, (width,), operator.sub)
            columns.append([c % q for c in column])
        options = [
            (k, k >= m, [(n, column[k]) for n, column in enumerate(columns) if column[k]])
            for k in range(width)
        ]
        partial = [
            (order + k, outside or beyond, terms)
            for order, outside, old in partial
            for k, beyond, entries in options
            if (
                terms := tuple(
                    (cell * m + n, o + n, c * e % q)
                    for cell, o, c in old
                    for n, e in entries
                    if o + n <= max_degree and c * e % q
                )
            )
        ]
    forms = {
        form: None
        for order, outside, terms in partial
        if outside and order > max_degree and (form := tuple((n, c) for n, o, c in terms if o))
    }
    return [dict(form) for form in forms]


def _kernel_generators(
    forms: list[dict[int, int]], free: list[int], p: int, q: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """(terms, order) generators of the solutions mod q = p^b over the cells
    in free of the forms (cell -> coefficient), which are used up.

    Smith normal form over Z/p^b: each step pivots on an entry of least
    p-valuation e, clears its column by row operations and its row by column
    operations, which are recorded on a basis of the unknowns.  A pivot of
    valuation e leaves p^(b - e) times its basis vector, of order p^e; a cell
    never pivoted leaves its basis vector, of order q.
    """
    b = multiplicity(p, q)
    basis = {n: {n: 1} for n in free}
    valuations: dict[int, int] = {}
    while any(forms):
        e, i, n = min(
            (multiplicity(p, c), i, n) for i, form in enumerate(forms) for n, c in form.items()
        )
        pivot = forms.pop(i)
        inverse = pow(pivot[n] // p**e, -1, q)
        for form in forms:
            if n in form:
                _subtract(form, pivot, form[n] // p**e * inverse, q)
        for other, c in pivot.items():
            if other != n:
                _subtract(basis[other], basis[n], c // p**e * inverse, q)
        valuations[n] = e
    generators = []
    for n in free:
        e = valuations.get(n, b)
        if e:
            scale = p ** (b - e)
            terms = tuple((cell, c * scale % q) for cell, c in sorted(basis[n].items()))
            generators.append((tuple(t for t in terms if t[1]), p**e))
    return tuple(generators)


def _subtract(target: dict[int, int], source: dict[int, int], factor: int, q: int) -> None:
    """target -= factor * source mod q, on sparse vectors without zero entries."""
    for key, c in source.items():
        value = (target.get(key, 0) - factor * c) % q
        if value:
            target[key] = value
        else:
            target.pop(key, None)


def coefficient_table(
    domain: AbelianShape, q: int, terms: Iterable[tuple[int, int]]
) -> list[int]:
    """Values mod q, in enumeration order, of the map sum_n c_n C(x, n) given
    by its (cell, c_n) terms on the domain box (cells row-major); repeated
    cells add up.  The summation transform runs with exact adds, and each
    value is reduced mod q once."""
    column = [0] * domain.order
    for cell, c in terms:
        column[cell] += c
    _forward_differences(column, domain.factors, operator.add)
    return [c % q for c in column]


def _box_values(domain: AbelianShape, series: BinomialSeries) -> list[int]:
    """Exact values, in enumeration order, of a series of the domain's arity
    at every point of the domain box: its coefficients at cells inside the
    box written row-major (C(x_i, n_i) = 0 for x_i < m_i <= n_i drops the
    others), then one summation transform, ``_forward_differences`` run
    with exact adds."""
    column = [0] * domain.order
    for nvec, c in series.coeffs.items():
        if all(map(operator.lt, nvec, domain.factors)):
            column[index_of(domain, nvec)] += c
    _forward_differences(column, domain.factors, operator.add)
    return column


def series_coefficients(f: FiniteMap) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Nonzero binomial-basis coefficients of the periodic pullback of f.

    The coefficient at n is the n-th iterated difference of the pullback at
    the origin.  It vanishes once n_i reaches the axis width (the one-variable
    cap plus one), so one transform of the values on that box yields all of
    them; a nonzero coefficient beyond the pair's degree cap raises
    ConsistencyError, and the maximal support order equals the degree.
    """
    plan = _sylow_plan(f.domain, f.codomain)
    if not _is_one_prime(plan):
        raise UnsupportedMapError(
            "series expansion needs domain and codomain p-groups of one common prime"
        )
    (comp,) = plan
    tables = _component_tables(f.values, comp)
    tops = _top_orders(comp, tables, 1, comp.slot_bytes)
    if tops[0] > comp.cap + 1:
        _raise_past_cap(f.domain, f.codomain, plan, [tops], [f.values])
    nonzero = list(reduce(lambda a, b: map(operator.or_, a, b), tables))
    points = itertools.compress(itertools.product(*map(range, comp.widths)), nonzero)
    return dict(zip(points, zip(*(itertools.compress(c, nonzero) for c in tables))))


def reconstruct(
    domain: AbelianShape,
    codomain: AbelianShape,
    coeffs: Mapping[tuple[int, ...], tuple[int, ...]],
    degree: Degree | int,
) -> FiniteMap:
    """Evaluate a binomial-basis coefficient table back into a map.

    Inverse of series_coefficients when the coefficients came from an actual
    map on the domain and the bound is at least its degree.
    """
    bound = Degree.of(degree) if not isinstance(degree, Degree) else degree
    for nvec, c in coeffs.items():
        if any(c) and Degree.of(sum(nvec)) > bound:
            raise ValueError(f"coefficient at {nvec} violates the degree bound {bound}")

    series = [
        BinomialSeries(len(domain.factors), {nvec: c[j] for nvec, c in coeffs.items() if c[j]})
        for j in range(len(codomain.factors))
    ]
    return FiniteMap.from_callable(domain, codomain, lambda x: tuple(s(x) for s in series))


class BinomialSeries(_Record):
    """Finitely supported integer series in the binomial basis.

    Evaluates as F(x) = sum over support of C(x_1, n_1)...C(x_N, n_N) times
    the coefficient, in exact integer arithmetic.
    """

    arity: int
    coeffs: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        check_integer(self.arity, "arity")
        if self.arity < 0 or not isinstance(self.coeffs, Mapping):
            raise ValueError(f"need an arity >= 0 and a mapping, got {self.arity}, {self.coeffs!r}")
        for nvec, c in self.coeffs.items():
            if (
                not isinstance(nvec, tuple)
                or len(nvec) != self.arity
                or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in nvec)
            ):
                raise ValueError(f"bad support point {nvec!r} for arity {self.arity}")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers, got {c!r}")

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        total = 0
        for nvec, c in self.coeffs.items():
            term = c
            for xi, ni in zip(point, nvec):
                term *= binomial(xi, ni)
                if term == 0:
                    break
            total += term
        return total

    __call__ = evaluate

    def degree(self) -> Degree:
        orders = [sum(nvec) for nvec, c in self.coeffs.items() if c]
        return Degree.of(max(orders)) if orders else NEG_INF


def proper_lift(f: FiniteMap) -> BinomialSeries:
    """Integer series lifting f along reduction mod its cyclic p-power codomain.

    Coefficients are the canonical representatives of the series coefficients
    of f, so they vanish exactly where the originals do, and reducing the
    series mod the codomain modulus reproduces the periodic pullback of f.
    """
    if len(f.codomain.factors) != 1 or len(factorize(f.codomain.factors[0])) != 1:
        raise ValueError("proper lifts need a cyclic codomain of prime-power order")
    coeffs = series_coefficients(f)  # one codomain slot: each value (c,) with c nonzero
    coeffs = dict(zip(coeffs, map(operator.itemgetter(0), coeffs.values())))
    return _unchecked(BinomialSeries, arity=len(f.domain.factors), coeffs=coeffs)


def lift_difference_at_zero(series: BinomialSeries, orders: Sequence[int]) -> int:
    """Iterated difference of the series at the origin, by alternating sums.

    Collapses to the coefficient at the given orders, which makes divisibility
    checks on the coefficients honest recomputations rather than lookups.
    """
    if len(orders) != series.arity:
        raise ValueError(f"expected {series.arity} orders, got {len(orders)}")
    total = 0
    for point in itertools.product(*(range(n + 1) for n in orders)):
        sign = (-1) ** ((sum(orders) - sum(point)) & 1)
        weight = 1
        for ni, ki in zip(orders, point):
            weight *= binomial(ni, ki)
        total += sign * weight * series.evaluate(point)
    return total


def lift_difference_box(
    series: BinomialSeries, width: int
) -> dict[tuple[int, ...], int]:
    """All iterated differences of the series at the origin, for every order
    vector inside the cube [0, width)^arity, via one exact transform."""
    points = list(itertools.product(range(width), repeat=series.arity))
    values = [series.evaluate(point) for point in points]
    _forward_differences(values, (width,) * series.arity, operator.sub)
    return dict(zip(points, values))


def tensor_product(factors: Sequence[FiniteMap | BinomialSeries]):
    """Combine maps or series on disjoint variables by multiplying values.

    Finite maps must share one cyclic ring codomain; the result lives on the
    concatenated domain.  Series combine coefficientwise because the binomial
    basis is multiplicative across disjoint variables.
    """
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    if all(isinstance(g, FiniteMap) for g in factors):
        codomain = factors[0].codomain
        if len(codomain.factors) != 1:
            raise ValueError("tensor product of maps needs a cyclic ring codomain")
        if any(g.codomain != codomain for g in factors):
            raise ValueError("tensor factors must share one codomain ring")
        q = codomain.factors[0]
        domain = AbelianShape(tuple(m for g in factors for m in g.domain.factors))
        values = []
        for combo in itertools.product(*(g.values for g in factors)):
            prod = 1
            for v in combo:
                prod = (prod * v[0]) % q
            values.append((prod,))
        return _unchecked(FiniteMap, domain=domain, codomain=codomain, values=tuple(values))
    if all(isinstance(g, BinomialSeries) for g in factors):
        arity = sum(g.arity for g in factors)
        coeffs: dict[tuple[int, ...], int] = {}
        for combo in itertools.product(*(g.coeffs.items() for g in factors)):
            nvec = tuple(n for key, _ in combo for n in key)
            c = 1
            for _, ci in combo:
                c *= ci
            if c:
                coeffs[nvec] = c
        return _unchecked(BinomialSeries, arity=arity, coeffs=coeffs)
    raise ValueError("tensor factors must be all maps or all series")


def integral(fn: Callable[[tuple[int, ...]], int], bounds: Sequence[int]) -> int:
    """Exact sum of fn over the box [0, b_1) x ... x [0, b_N).

    Additive in fn, which is what the valuation bound on integrals of
    degree-capped series rests on.
    """
    total = 0
    for point in itertools.product(*(range(b) for b in bounds)):
        total += fn(point)
    return total


# Byte 0 -> "0", byte 1 -> "1": a row of equality tests read as binary digits.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def zero_mask(values: Sequence, zero) -> int:
    """Zero set of a value table as one int: bit k is set when values[k] == zero.

    The zero set of a system is the AND of its maps' masks, and its size the
    ``bit_count()`` of that.
    """
    digits = bytes(map(zero.__eq__, reversed(values))).translate(_BINARY_DIGITS)
    return int(digits or b"0", 2)


def zero_count(
    maps: Sequence[FiniteMap], domain: AbelianShape | None = None
) -> tuple[int, dict[int, Degree]]:
    """Count simultaneous zeros and report ord_q per prime q dividing |A|.

    An empty system has every point as a zero; a zero count of 0 reports
    infinite valuation at every prime.  A given domain must be the maps'.
    """
    if maps:
        if domain is not None and domain != maps[0].domain:
            raise ValueError(f"domain {domain.factors} is not the maps' {maps[0].domain.factors}")
        domain = maps[0].domain
        if any(f.domain != domain for f in maps):
            raise ValueError("all maps in a system must share one domain")
    elif domain is None:
        raise ValueError("an empty system needs an explicit domain")
    masks = (zero_mask(f.values, f.codomain.zero()) for f in maps)
    count = reduce(operator.and_, masks).bit_count() if maps else domain.order
    return count, {prime: _count_valuation(prime, count) for prime in domain.primes()}


def _count_valuation(prime: int, count: int) -> Degree:
    """ord_prime of a zero count: +inf when the count is 0."""
    return INF if count == 0 else Degree.of(multiplicity(prime, count))
