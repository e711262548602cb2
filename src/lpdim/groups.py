"""Concrete amenable groups and their Folner windows.

A group is a finite product of axes, each either an infinite cyclic axis
(the integers) or a finite cyclic axis of some order n.  Elements are
integer coordinate tuples with one slot per axis; cyclic slots are always
stored reduced mod n.  The canonical order on elements and finite subsets
is lexicographic on coordinates, which is what every greedy scan in the
tiling module relies on for determinism.  The translators of a shape that
meet a window or fit inside it are enumerated here, for the tilings and the
window models alike.

Coordinate tuples are the API.  Internally the hot paths hold a set of
elements as an (n, rank) int64 array, one row per element: FiniteSubset
caches that view, reduce_array is the group law's reduction on it, and
sort_rows puts rows in the canonical order, so translator sets and the
translate layouts of the spaces module compose whole arrays at once.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import StructureError

Coords = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """A product of integer-lattice axes (modulus 0) and cyclic axes (modulus n >= 1)."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.moduli, tuple) or not self.moduli:
            raise ValueError("a group needs at least one axis")
        for m in self.moduli:
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"axis moduli must be integers >= 0, got {self.moduli!r}")

    @staticmethod
    def integer_lattice(rank: int) -> "GroupSpec":
        if rank < 1:
            raise ValueError(f"lattice rank must be >= 1, got {rank}")
        return GroupSpec((0,) * rank)

    @staticmethod
    def cyclic(order: int) -> "GroupSpec":
        if order < 1:
            raise ValueError(f"cyclic order must be >= 1, got {order}")
        return GroupSpec((order,))

    @staticmethod
    def product(factors: Iterable["GroupSpec"]) -> "GroupSpec":
        factors = list(factors)
        if len(factors) < 2:
            raise ValueError("a direct product needs at least 2 factors")
        return GroupSpec(tuple(m for f in factors for m in f.moduli))

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def reduce(self, coords: Iterable[int]) -> Coords:
        out = tuple(int(c) % m if m else int(c) for c, m in zip(coords, self.moduli))
        return out

    def reduce_array(self, coords: np.ndarray) -> np.ndarray:
        """reduce along the last axis of an int64 array, in place; returns it."""
        for axis, m in enumerate(self.moduli):
            if m:
                np.remainder(coords[..., axis], m, out=coords[..., axis])
        return coords

    def check_coords(self, coords) -> Coords:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise StructureError(
                f"coordinate arity {len(coords)} does not match group rank {self.rank}"
            )
        return self.reduce(coords)

    def describe(self) -> str:
        parts = []
        run = 0
        for m in self.moduli + (None,):
            if m == 0:
                run += 1
                continue
            if run:
                parts.append("Z" if run == 1 else f"Z^{run}")
                run = 0
            if m is not None:
                parts.append(f"Z/{m}")
        return " x ".join(parts) if parts else "Z"

    def __repr__(self):
        return f"GroupSpec({self.describe()!r})"


def compose_coords(group: GroupSpec, a: Coords, b: Coords) -> Coords:
    """The group law: coordinatewise addition, cyclic slots reduced."""
    return group.reduce(x + y for x, y in zip(a, b))


def invert_coords(group: GroupSpec, a: Coords) -> Coords:
    return group.reduce(-x for x in a)


def as_coords(rows: np.ndarray) -> list[Coords]:
    """The rows of an (n, rank) coordinate array as tuples of Python ints."""
    return list(map(tuple, rows.tolist()))


def coord_array(group: GroupSpec, coords) -> np.ndarray:
    """Coordinate tuples (or an array of them) as an (n, rank) int64 array."""
    return np.asarray(coords, dtype=np.int64).reshape(-1, group.rank)


def sort_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, first, label) of the rows in canonical (lexicographic) order.

    rows[order] is sorted; first marks each sorted row that differs from the
    one before it, so rows[order][first] are the distinct rows, and label[i]
    is the index of rows[i] among those distinct rows.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    label = np.empty(len(rows), dtype=np.intp)
    label[order] = np.cumsum(first) - 1
    return order, first, label


def translator_arrays(omega: FiniteSubset, shape) -> tuple[np.ndarray, np.ndarray]:
    """(omega . shape^-1, {gamma : gamma . shape inside omega}) as coordinate
    arrays in canonical order.

    gamma . shape meets omega when gamma lies in some layer omega . s^-1, s in
    the nonempty shape, and fits inside omega when it lies in every layer.
    Each layer holds distinct elements, so gamma lies in all of them exactly
    when it occurs once per layer: one sort of all layers gives both sets.
    """
    grp = omega.group
    offsets = coord_array(grp, list(shape))
    if not len(offsets):
        raise ValueError("translator sets need a nonempty shape")
    layers = grp.reduce_array(omega.array[None, :, :] - offsets[:, None, :])
    layers = layers.reshape(-1, grp.rank)
    order, first, _ = sort_rows(layers)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(layers))
    meeting = layers[order[starts]]
    return meeting, meeting[counts == len(offsets)]


def translator_sets(omega: FiniteSubset, shape) -> tuple[list[Coords], list[Coords]]:
    """translator_arrays as lists of coordinate tuples."""
    meeting, inside = translator_arrays(omega, shape)
    return as_coords(meeting), as_coords(inside)


def translators_meeting(omega: FiniteSubset, shape) -> list[Coords]:
    """Every gamma whose translate gamma . shape meets omega, canonical order."""
    return translator_sets(omega, shape)[0]


def translators_inside(omega: FiniteSubset, shape) -> list[Coords]:
    """Every gamma whose translate gamma . shape lies inside omega, canonical order."""
    return translator_sets(omega, shape)[1]


@dataclass(frozen=True)
class FiniteSubset:
    """A finite set of group elements, stored as sorted coordinate tuples."""

    group: GroupSpec
    elements: tuple[Coords, ...]

    @staticmethod
    def of(group: GroupSpec, items) -> "FiniteSubset":
        coords = set()
        for item in items:
            if isinstance(item, (tuple, list)):
                coords.add(group.check_coords(item))
            elif group.rank == 1:
                try:
                    coords.add(group.reduce((operator.index(item),)))
                except TypeError:
                    raise StructureError(f"cannot interpret {item!r} as an element")
            else:
                raise StructureError(f"cannot interpret {item!r} as an element")
        return FiniteSubset(group, tuple(sorted(coords)))

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as a read-only (n, rank) int64 array, canonical order."""
        rows = coord_array(self.group, self.elements)
        rows.flags.writeable = False
        return rows

    @cached_property
    def coord_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def positions(self) -> dict:
        """coords -> index in canonical order."""
        return {c: i for i, c in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Coords]:
        return iter(self.elements)

    def __contains__(self, coords) -> bool:
        return tuple(coords) in self.coord_set

    def is_empty(self) -> bool:
        return not self.elements

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_peer(other)
        return FiniteSubset(self.group, tuple(sorted(self.coord_set | other.coord_set)))

    def difference(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check_peer(other)
        return FiniteSubset(self.group, tuple(sorted(self.coord_set - other.coord_set)))

    def is_subset_of(self, other: "FiniteSubset") -> bool:
        self._check_peer(other)
        return self.coord_set <= other.coord_set

    def _check_peer(self, other: "FiniteSubset"):
        if self.group != other.group:
            raise StructureError("sets live over different groups")

    def __repr__(self):
        inner = ", ".join(map(str, self.elements[:6]))
        if len(self.elements) > 6:
            inner += f", ... ({len(self.elements)} total)"
        return f"FiniteSubset{{{inner}}}"


def folner_window(group: GroupSpec, index: int) -> FiniteSubset:
    """The index-th window of the standard Folner ladder.

    Infinite axes contribute the box [0, index); finite cyclic axes are
    exhausted immediately and contribute the whole axis at every index.
    """
    if index < 1:
        raise ValueError(f"window index must be >= 1, got {index}")
    axes = [range(index) if m == 0 else range(m) for m in group.moduli]
    elements = tuple(itertools.product(*axes))
    return FiniteSubset(group, elements)


def folner_size(group: GroupSpec, index: int) -> int:
    """Number of points of folner_window(group, index), without building it."""
    return math.prod(index if m == 0 else m for m in group.moduli)


_FACTOR_RE = re.compile(r"^Z(?:\^(\d+)|/(\d+))?$", re.IGNORECASE)


def parse_group(text: str) -> GroupSpec:
    """Parse strings like 'Z', 'Z^2', 'Z/5', 'Z x Z/3' (whitespace-insensitive)."""
    compact = re.sub(r"\s+", "", text).replace("×", "x")
    if not compact:
        raise ValueError("empty group description")
    factors = []
    for part in re.split(r"[xX]", compact):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse group factor {part!r} in {text!r}")
        if m.group(1) is not None:
            factors.append(GroupSpec.integer_lattice(int(m.group(1))))
        elif m.group(2) is not None:
            factors.append(GroupSpec.cyclic(int(m.group(2))))
        else:
            factors.append(GroupSpec.integer_lattice(1))
    if len(factors) == 1:
        return factors[0]
    return GroupSpec.product(factors)
