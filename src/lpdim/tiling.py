"""Boundaries, packings with counting certificates, and greedy quasi-tilings.

Everything here is exact set combinatorics: boundaries are enumerated, packing
bounds are rationals, and the only real number in sight is the epsilon of a
quasi-tiling.  The translators of a shape that meet a window or fit inside it
come from groups.translator_sets, which the window models of the spaces
module share.  All scans run in the canonical lexicographic order of the
groups module, so results are deterministic and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._util import COUNT_TOL
from .groups import (
    Coords,
    FiniteSubset,
    GroupSpec,
    compose_coords,
    translator_sets,
    translators_inside,
)


def _same_group(*sets: FiniteSubset) -> GroupSpec:
    grp = sets[0].group
    for s in sets[1:]:
        if s.group != grp:
            raise ValueError("sets live over different groups")
    return grp


def _tile_coords(grp: GroupSpec, gamma: Coords, shape: FiniteSubset) -> frozenset:
    return frozenset(compose_coords(grp, gamma, f) for f in shape.elements)


def boundary(omega: FiniteSubset, shape: FiniteSubset) -> FiniteSubset:
    """Translators gamma whose tile (gamma . shape) straddles omega and its complement."""
    if shape.is_empty():
        raise ValueError("boundary needs a nonempty shape")
    grp = _same_group(omega, shape)
    meeting, inside = translator_sets(omega, shape)
    return FiniteSubset(grp, tuple(sorted(set(meeting).difference(inside))))


def alpha_fraction(omega: FiniteSubset, shape: FiniteSubset) -> Fraction:
    """Relative boundary size |bd(omega; shape)| / |omega| as an exact rational."""
    if omega.is_empty():
        raise ValueError("alpha needs a nonempty window")
    return Fraction(len(boundary(omega, shape)), len(omega))


def alpha(omega: FiniteSubset, shape: FiniteSubset) -> float:
    return float(alpha_fraction(omega, shape))


def closure(omega: FiniteSubset, shape: FiniteSubset) -> FiniteSubset:
    """omega together with its shape-boundary."""
    return omega.union(boundary(omega, shape))


def interior(omega: FiniteSubset, shape: FiniteSubset) -> FiniteSubset:
    """omega minus its shape-boundary.

    When the shape contains the identity this equals the set of translators
    whose whole tile sits inside omega.  The packing and quasi-tiling scans
    do not call it: groups.translators_inside lists those translators
    directly, for shapes without the identity too.
    """
    return omega.difference(boundary(omega, shape))


@dataclass(frozen=True)
class PackingResult:
    """A maximal disjoint family of shape translates inside a window.

    lower_bound and upper_bound are the exact rationals
    (1 - alpha(omega; shape)) |omega| / |shape|^2   and   |omega| / |shape|;
    the accepted count always sits between them because the greedy family is
    maximal under inclusion.
    """

    window: FiniteSubset
    shape: FiniteSubset
    centers: FiniteSubset
    covered: FiniteSubset
    lower_bound: Fraction
    upper_bound: Fraction

    @property
    def count(self) -> int:
        return len(self.centers)

    def tiles(self):
        grp = self.window.group
        for g in self.centers:
            yield FiniteSubset(grp, tuple(sorted(_tile_coords(grp, g, self.shape))))

    def to_json_dict(self) -> dict:
        return {
            "window_size": len(self.window),
            "shape": [list(c) for c in self.shape.elements],
            "centers": [list(c) for c in self.centers.elements],
            "count": self.count,
            "covered_size": len(self.covered),
            "lower_bound": str(self.lower_bound),
            "upper_bound": str(self.upper_bound),
        }


def greedy_pack(omega: FiniteSubset, shape: FiniteSubset) -> PackingResult:
    """Greedy maximal packing of shape translates fully inside omega.

    Scans candidate translators in canonical order and accepts one whenever
    its tile is disjoint from everything accepted so far.  The result is
    maximal under inclusion, which is all the counting certificate needs; no
    optimality is claimed.
    """
    if shape.is_empty():
        raise ValueError("greedy_pack needs a nonempty shape")
    grp = _same_group(omega, shape)
    meeting, inside = translator_sets(omega, shape)
    claimed: set = set()
    centers = []
    for g in inside:
        tile = _tile_coords(grp, g, shape)
        if claimed.isdisjoint(tile):
            centers.append(g)
            claimed |= tile
    bd = len(meeting) - len(inside)
    return PackingResult(
        window=omega,
        shape=shape,
        centers=FiniteSubset(grp, tuple(sorted(centers))),
        covered=FiniteSubset(grp, tuple(sorted(claimed))),
        lower_bound=Fraction(len(omega) - bd, len(shape) ** 2),
        upper_bound=Fraction(len(omega), len(shape)),
    )


@dataclass(frozen=True)
class DisjointnessResult:
    """Outcome of an epsilon-disjointness check.

    verdict is one of "disjoint" (witness attached), "not-disjoint" (proven
    impossible, only claimed for families of at most 3 sets), or
    "greedy-undecided" (the greedy certificate failed and the family is too
    large for the exhaustive fallback).  Truthiness means "disjoint".
    """

    verdict: str
    witness: Optional[tuple[FiniteSubset, ...]]

    def __bool__(self) -> bool:
        return self.verdict == "disjoint"


def _required_keep(size: int, eps: float) -> int:
    return max(0, math.ceil((1.0 - eps) * size - COUNT_TOL))


def _exact_disjoint(
    sets: Sequence[FiniteSubset], needed: Sequence[int]
) -> Optional[tuple[FiniteSubset, ...]]:
    """Exhaustive decision for small families, via a demand-matching argument.

    Points private to one set are always kept.  Each contested point can be
    kept by at most one of its owners, so feasibility is a bipartite matching
    question with per-set demands; the subset (Hall) condition decides it and
    augmenting paths recover a witness.  Exact for any family size, but only
    invoked for <= 3 sets.
    """
    grp = sets[0].group
    k = len(sets)
    owner_mask: dict = {}
    for i, f in enumerate(sets):
        for c in f.elements:
            owner_mask[c] = owner_mask.get(c, 0) | (1 << i)
    private: list[list[Coords]] = [[] for _ in range(k)]
    contested: list[tuple[Coords, int]] = []
    for c in sorted(owner_mask):
        m = owner_mask[c]
        if m & (m - 1):
            contested.append((c, m))
        else:
            private[m.bit_length() - 1].append(c)
    demand = [max(0, needed[i] - len(private[i])) for i in range(k)]
    for mask in range(1, 1 << k):
        want = sum(demand[i] for i in range(k) if mask & (1 << i))
        have = sum(1 for _, m in contested if m & mask)
        if want > have:
            return None
    # Feasible; match demand slots to contested points by augmenting paths.
    point_owner = [-1] * len(contested)

    def augment(slot_set: int, seen: list[bool]) -> bool:
        for j, (_, m) in enumerate(contested):
            if seen[j] or not m & (1 << slot_set):
                continue
            seen[j] = True
            if point_owner[j] < 0 or augment(point_owner[j], seen):
                point_owner[j] = slot_set
                return True
        return False

    for i in range(k):
        for _ in range(demand[i]):
            if not augment(i, [False] * len(contested)):
                return None
    kept = [list(private[i]) for i in range(k)]
    for j, (c, _) in enumerate(contested):
        if point_owner[j] >= 0:
            kept[point_owner[j]].append(c)
    return tuple(FiniteSubset(grp, tuple(sorted(ks))) for ks in kept)


def is_eps_disjoint(sets: Sequence[FiniteSubset], eps: float) -> DisjointnessResult:
    """Decide whether the family admits reduced subsets keeping a (1-eps) share.

    The greedy certificate processes sets in the given order, each keeping
    whatever earlier sets have not claimed.  On greedy failure, families of at
    most 3 sets get an exhaustive decision; larger families come back
    "greedy-undecided" rather than pretending to a disproof.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    sets = list(sets)
    if not sets:
        return DisjointnessResult("disjoint", ())
    grp = _same_group(*sets)
    needed = [_required_keep(len(f), eps) for f in sets]

    claimed: set = set()
    witness = []
    greedy_ok = True
    for f, need in zip(sets, needed):
        kept = tuple(c for c in f.elements if c not in claimed)
        if len(kept) < need:
            greedy_ok = False
            break
        claimed.update(kept)
        witness.append(FiniteSubset(grp, kept))
    if greedy_ok:
        return DisjointnessResult("disjoint", tuple(witness))

    if len(sets) <= 3:
        exact = _exact_disjoint(sets, needed)
        if exact is None:
            return DisjointnessResult("not-disjoint", None)
        return DisjointnessResult("disjoint", exact)
    return DisjointnessResult("greedy-undecided", None)


@dataclass(frozen=True)
class QuasiTile:
    shape_index: int
    center: Coords
    full: FiniteSubset
    reduced: FiniteSubset


@dataclass(frozen=True)
class QuasiTiling:
    window: FiniteSubset
    eps: float
    tiles: tuple[QuasiTile, ...]
    uncovered: FiniteSubset

    @property
    def coverage(self) -> float:
        if self.window.is_empty():
            return 1.0
        return 1.0 - len(self.uncovered) / len(self.window)

    def covered(self) -> FiniteSubset:
        return self.window.difference(self.uncovered)

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "window_size": len(self.window),
            "coverage": self.coverage,
            "uncovered_size": len(self.uncovered),
            "tiles": [
                {
                    "shape_index": t.shape_index,
                    "center": list(t.center),
                    "full_size": len(t.full),
                    "reduced_size": len(t.reduced),
                }
                for t in self.tiles
            ],
        }


def quasi_tile(
    omega: FiniteSubset, shapes: Sequence[FiniteSubset], eps: float
) -> QuasiTiling:
    """Greedy multi-scale quasi-tiling of a window.

    Shapes are processed from largest to smallest (stable on ties).  A
    translate is accepted when the part of its tile not yet claimed holds a
    share strictly above (1-eps); exact ties are rejected, which is what makes
    a single-shape run on intervals land on the aligned tiling.  The tiny
    slack keeps float noise in the threshold from flipping either way.
    Reduced tiles are pairwise disjoint by construction and their union
    equals the union of the accepted full tiles.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    shapes = list(shapes)
    grp = _same_group(omega, *shapes) if shapes else omega.group
    identity = (0,) * grp.rank
    for j, f in enumerate(shapes):
        if f.is_empty():
            raise ValueError(f"shape {j} is empty")
        if identity not in f:
            raise ValueError(f"shape {j} does not contain the identity")

    order = sorted(range(len(shapes)), key=lambda j: -len(shapes[j]))
    claimed: set = set()
    tiles = []
    for j in order:
        shape = shapes[j]
        for g in translators_inside(omega, shape):
            full = _tile_coords(grp, g, shape)
            reduced = full - claimed
            if len(reduced) > (1.0 - eps) * len(full) + COUNT_TOL:
                tiles.append(
                    QuasiTile(
                        shape_index=j,
                        center=g,
                        full=FiniteSubset(grp, tuple(sorted(full))),
                        reduced=FiniteSubset(grp, tuple(sorted(reduced))),
                    )
                )
                claimed |= full
    uncovered = FiniteSubset(grp, tuple(sorted(omega.coord_set - claimed)))
    return QuasiTiling(window=omega, eps=eps, tiles=tuple(tiles), uncovered=uncovered)
