"""Boundary enumeration, packing certificates, disjointness, quasi-tilings.

The oracles here are deliberately dumb: boundaries by scanning a bounding
range, disjointness by dynamic programming over contested points.  They share
no code with the implementations under test.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdim._util import rng_for
from lpdim.groups import FiniteSubset, GroupSpec, folner_window
from lpdim.tiling import (
    alpha,
    alpha_fraction,
    boundary,
    closure,
    greedy_pack,
    interior,
    is_eps_disjoint,
    quasi_tile,
)

Z = GroupSpec.integer_lattice(1)
Z2 = GroupSpec.integer_lattice(2)


def box(spec, *sides):
    return FiniteSubset(spec, tuple(itertools.product(*[range(s) for s in sides])))


def interval(lo, hi):
    return FiniteSubset.of(Z, range(lo, hi))


# ---------------------------------------------------------------- oracles


def boundary_oracle_z(omega, shape, scan=range(-80, 120)):
    """Direct scan of a bounding range of candidate translators."""
    hits = []
    for g in scan:
        tile = {(g + f[0],) for f in shape.elements}
        if tile & omega.coord_set and not tile <= omega.coord_set:
            hits.append((g,))
    return tuple(hits)


def boundary_oracle(omega, shape, scan=range(-12, 24)):
    """Direct scan of candidate translators: scan on every infinite axis,
    the whole axis on every cyclic one."""
    moduli = omega.group.moduli
    hits = []
    for g in itertools.product(*[range(m) if m else scan for m in moduli]):
        tile = {tuple((a + b) % m if m else a + b for a, b, m in zip(g, f, moduli)) for f in shape}
        if tile & omega.coord_set and not tile <= omega.coord_set:
            hits.append(g)
    return tuple(hits)


def disjoint_oracle(sets, eps):
    """Exact feasibility by forward DP over contested points.

    State = tuple of still-unmet demands after private points are credited.
    """
    k = len(sets)
    needed = [max(0, math.ceil((1 - eps) * len(s) - 1e-9)) for s in sets]
    owners = {}
    for i, s in enumerate(sets):
        for c in s.elements:
            owners.setdefault(c, []).append(i)
    private = [0] * k
    contested = []
    for c in sorted(owners):
        os = owners[c]
        if len(os) == 1:
            private[os[0]] += 1
        else:
            contested.append(os)
    start = tuple(max(0, needed[i] - private[i]) for i in range(k))
    states = {start}
    for os in contested:
        nxt = set(states)
        for stt in states:
            for i in os:
                if stt[i] > 0:
                    bumped = list(stt)
                    bumped[i] -= 1
                    nxt.add(tuple(bumped))
        states = nxt
    return any(not any(stt) for stt in states)


# ---------------------------------------------------------------- boundary


def test_boundary_frozen_examples():
    om = interval(0, 10)
    assert boundary(om, FiniteSubset.of(Z, [0, 1])).elements == ((-1,), (9,))
    assert boundary(om, FiniteSubset.of(Z, [0])).elements == ()
    wide = boundary(om, interval(0, 10))
    assert len(wide) == 18
    assert (0,) not in wide


def test_boundary_matches_scan_oracle():
    rng = rng_for(23, "boundary-oracle")
    for _ in range(40):
        om = FiniteSubset.of(Z, rng.integers(0, 40, size=rng.integers(1, 15)))
        shape = FiniteSubset.of(Z, rng.integers(-3, 8, size=rng.integers(1, 5)))
        assert boundary(om, shape).elements == boundary_oracle_z(om, shape)
    rng = rng_for(23, "boundary-oracle-products")
    for spec in (Z2, GroupSpec((0, 3))):
        for _ in range(20):
            size = rng.integers(1, 12)
            om = FiniteSubset.of(spec, [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(size, 2))])
            points = rng.integers(-3, 4, size=(rng.integers(1, 5), 2))
            shape = FiniteSubset.of(spec, [(int(a), int(b)) for a, b in points])
            expected = boundary_oracle(om, shape)
            assert boundary(om, shape).elements == expected
            packing = greedy_pack(om, shape)
            assert packing.lower_bound == Fraction(len(om) - len(expected), len(shape) ** 2)


def test_boundary_needs_nonempty_shape():
    with pytest.raises(ValueError):
        boundary(interval(0, 4), FiniteSubset(Z, ()))


def test_alpha_values():
    om = interval(0, 10)
    assert alpha(om, FiniteSubset.of(Z, [0, 1])) == pytest.approx(0.2)
    assert alpha(om, FiniteSubset.of(Z, [0])) == 0.0
    for n in (4, 8, 16):
        window = box(Z2, n, n)
        shape = FiniteSubset.of(Z2, [(0, 0), (1, 0)])
        assert alpha_fraction(window, shape) == Fraction(2, n)
    with pytest.raises(ValueError):
        alpha(FiniteSubset(Z, ()), FiniteSubset.of(Z, [0]))


def test_closure_interior_frozen():
    om = interval(0, 10)
    a = FiniteSubset.of(Z, [0, 1])
    assert closure(om, a).elements == tuple((k,) for k in range(-1, 10))
    assert interior(om, a).elements == tuple((k,) for k in range(0, 9))
    ident = FiniteSubset.of(Z, [0])
    assert closure(om, ident) == om
    assert interior(om, ident) == om


def test_nested_closure_interior_symmetric_shapes():
    """int_A(clo_A(omega)) contains omega when A is symmetric with identity.

    (Asymmetric A breaks this: A = {0,1} on Z already fails at the right edge,
    so the property is only claimed for the symmetric family.)
    """
    plus = FiniteSubset.of(Z2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    sq3 = FiniteSubset.of(Z2, itertools.product((-1, 0, 1), repeat=2))
    rng = rng_for(31, "nested")
    for shape in (plus, sq3):
        for _ in range(25):
            pts = rng.integers(0, 12, size=(rng.integers(1, 20), 2))
            om = FiniteSubset.of(Z2, [tuple(p) for p in pts])
            assert om.is_subset_of(interior(closure(om, shape), shape))


# ---------------------------------------------------------------- packing


def test_greedy_pack_frozen_examples():
    om = interval(0, 10)
    res = greedy_pack(om, FiniteSubset.of(Z, [0, 1]))
    assert res.count == 5
    assert res.covered == om
    assert res.lower_bound == Fraction(2)
    assert res.upper_bound == Fraction(5)
    singles = greedy_pack(om, FiniteSubset.of(Z, [0]))
    assert singles.count == len(om)


SHAPES_1D = [
    [0],
    [0, 1],
    [0, 1, 2],
    [0, 2],
    [0, 1, 3],
    list(range(5)),
]
SHAPES_2D = [
    [(0, 0)],
    [(0, 0), (1, 0)],
    [(0, 0), (0, 1), (1, 0), (1, 1)],
    [(0, 0), (1, 1)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (2, 1)],
]


def test_packing_sandwich_exact():
    """Counting certificate: lower <= |G| <= upper as exact rationals."""
    for pts in SHAPES_1D:
        shape = FiniteSubset.of(Z, pts)
        for n in (8, 16, 33, 64):
            res = greedy_pack(interval(0, n), shape)
            assert res.lower_bound <= res.count <= res.upper_bound
            assert len(res.covered) == res.count * len(shape)
    for pts in SHAPES_2D:
        shape = FiniteSubset.of(Z2, pts)
        for n in (8, 16, 24):
            res = greedy_pack(box(Z2, n, n), shape)
            assert res.lower_bound <= res.count <= res.upper_bound
            assert len(res.covered) == res.count * len(shape)


def test_packing_tiles_disjoint_inside_window():
    res = greedy_pack(box(Z2, 12, 12), FiniteSubset.of(Z2, [(0, 0), (1, 1), (0, 1)]))
    seen = set()
    for tile in res.tiles():
        assert tile.is_subset_of(res.window)
        assert seen.isdisjoint(tile.coord_set)
        seen |= tile.coord_set
    assert seen == res.covered.coord_set


def test_packing_is_maximal():
    """No rejected translate can be added back: greedy output is maximal."""
    shape = FiniteSubset.of(Z2, [(0, 0), (1, 0), (0, 1)])
    res = greedy_pack(box(Z2, 9, 9), shape)
    covered = res.covered.coord_set
    grp = res.window.group
    from lpdim.groups import translators_inside
    from lpdim.tiling import _tile_coords

    for g in translators_inside(res.window, shape):
        if g not in res.centers.coord_set:
            assert _tile_coords(grp, g, shape) & covered


def test_packing_monotone_in_window():
    for pts in SHAPES_1D:
        shape = FiniteSubset.of(Z, pts)
        counts = [greedy_pack(interval(0, n), shape).count for n in range(6, 40)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
    for pts in SHAPES_2D:
        shape = FiniteSubset.of(Z2, pts)
        counts = [greedy_pack(box(Z2, n, n), shape).count for n in range(4, 16)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_packing_on_product_group():
    grp = GroupSpec.product([Z, GroupSpec.cyclic(3)])
    om = folner_window(grp, 6)
    shape = FiniteSubset.of(grp, [(0, 0), (0, 1)])
    res = greedy_pack(om, shape)
    assert res.lower_bound <= res.count <= res.upper_bound
    assert res.count == 6  # one vertical domino per column, cyclic axis of 3


# ----------------------------------------------------------- disjointness


def test_eps_disjoint_trivial_and_frozen():
    single = is_eps_disjoint([interval(0, 10)], 0.1)
    assert single and single.witness[0] == interval(0, 10)

    ok = is_eps_disjoint([interval(0, 10), interval(9, 19)], 0.1)
    assert ok.verdict == "disjoint"
    assert ok.witness[1] == interval(10, 19)

    bad = is_eps_disjoint([interval(0, 10), interval(5, 15)], 0.1)
    assert bad.verdict == "not-disjoint"
    assert not bad


def test_eps_disjoint_validates_eps():
    for eps in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            is_eps_disjoint([interval(0, 4)], eps)


def test_eps_disjoint_exhaustive_beats_greedy():
    # greedy order fails but a cleverer split exists; family of two, so the
    # exact path must find it
    a = interval(0, 10)
    b = interval(5, 15)
    res = is_eps_disjoint([a, b], 0.4)
    assert res.verdict == "disjoint"
    kept_a, kept_b = res.witness
    assert kept_a.is_subset_of(a) and kept_b.is_subset_of(b)
    assert kept_a.coord_set.isdisjoint(kept_b.coord_set)
    assert len(kept_a) >= 6 and len(kept_b) >= 6


@settings(max_examples=150, deadline=None)
@given(
    raw=st.lists(
        st.sets(st.integers(0, 19), min_size=1, max_size=14), min_size=1, max_size=3
    ),
    eps=st.sampled_from([0.1, 0.2, 1 / 3, 0.5, 0.7]),
)
def test_eps_disjoint_matches_dp_oracle(raw, eps):
    sets = [FiniteSubset.of(Z, s) for s in raw]
    res = is_eps_disjoint(sets, eps)
    feasible = disjoint_oracle(sets, eps)
    assert res.verdict == ("disjoint" if feasible else "not-disjoint")
    if res:
        seen = set()
        for kept, full in zip(res.witness, sets):
            assert kept.is_subset_of(full)
            assert len(kept) >= math.ceil((1 - eps) * len(full) - 1e-9)
            assert seen.isdisjoint(kept.coord_set)
            seen |= kept.coord_set


def test_eps_disjoint_large_family_undecided():
    blob = interval(0, 8)
    res = is_eps_disjoint([blob, blob, blob, blob], 0.1)
    assert res.verdict == "greedy-undecided"
    assert res.witness is None


# ------------------------------------------------------------ quasi-tiling


def test_quasi_tile_frozen_examples():
    om = interval(0, 100)
    tenth = quasi_tile(om, [interval(0, 10)], 0.1)
    assert len(tenth.tiles) == 10
    assert tenth.uncovered.is_empty()
    assert tenth.coverage == 1.0

    singles = quasi_tile(om, [FiniteSubset.of(Z, [0])], 0.1)
    assert len(singles.tiles) == 100
    assert singles.coverage == 1.0

    sevens = quasi_tile(om, [interval(0, 7)], 0.1)
    assert len(sevens.tiles) == 14
    assert sevens.coverage == pytest.approx(0.98)
    assert sevens.uncovered.elements == ((98,), (99,))


def test_quasi_tile_validation():
    om = interval(0, 20)
    with pytest.raises(ValueError):
        quasi_tile(om, [interval(0, 3)], 0.0)
    with pytest.raises(ValueError):
        quasi_tile(om, [interval(1, 3)], 0.1)  # identity missing
    with pytest.raises(ValueError):
        quasi_tile(om, [FiniteSubset(Z, ())], 0.1)


def test_quasi_tile_invariants_multi_scale():
    om = box(Z2, 13, 13)
    shapes = [box(Z2, 4, 4), box(Z2, 2, 2), box(Z2, 1, 1)]
    for eps in (0.15, 0.4):
        tiling = quasi_tile(om, shapes, eps)
        claimed = set()
        full_union = set()
        for t in tiling.tiles:
            assert t.reduced.is_subset_of(t.full)
            assert len(t.reduced) + 1e-9 >= (1 - eps) * len(t.full)
            assert claimed.isdisjoint(t.reduced.coord_set)
            claimed |= t.reduced.coord_set
            full_union |= t.full.coord_set
        assert claimed == full_union
        assert tiling.uncovered.coord_set == om.coord_set - claimed
        ordered = [t.full for t in tiling.tiles]
        assert is_eps_disjoint(ordered, eps) if len(ordered) <= 3 else True
        # witness invariant: the greedy certificate accepts the accepted order
        claimed2 = set()
        for t in tiling.tiles:
            kept = t.full.coord_set - claimed2
            assert len(kept) + 1e-9 >= (1 - eps) * len(t.full)
            claimed2 |= kept


def test_quasi_tile_coverage_bound_single_shape():
    """Coverage >= eps * (1 - alpha), the counting bound, exactly."""
    cases = [
        (interval(0, 60), interval(0, 7)),
        (interval(0, 100), interval(0, 10)),
        (box(Z2, 16, 16), box(Z2, 3, 3)),
        (box(Z2, 21, 21), box(Z2, 4, 2)),
    ]
    for om, shape in cases:
        a = alpha_fraction(om, shape)
        if a >= 1:
            continue
        for eps_frac in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 5), Fraction(9, 10)):
            tiling = quasi_tile(om, [shape], float(eps_frac))
            covered = Fraction(len(om) - len(tiling.uncovered), len(om))
            assert covered >= eps_frac * (1 - a) - Fraction(1, 10**7)


def test_quasi_tile_prefers_large_shapes():
    om = interval(0, 12)
    tiling = quasi_tile(om, [FiniteSubset.of(Z, [0]), interval(0, 4)], 0.2)
    by_shape = {}
    for t in tiling.tiles:
        by_shape.setdefault(t.shape_index, []).append(t)
    assert len(by_shape[1]) == 3  # the 4-blocks run first and tile everything
    assert 0 not in by_shape or len(by_shape[0]) == 0


def test_quasi_tile_json_round_trip():
    import json

    tiling = quasi_tile(interval(0, 30), [interval(0, 4)], 0.25)
    blob = json.dumps(tiling.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["window_size"] == 30
    assert back["coverage"] == tiling.coverage
    pack = greedy_pack(interval(0, 30), interval(0, 4))
    blob2 = json.dumps(pack.to_json_dict(), sort_keys=True)
    assert json.loads(blob2)["count"] == pack.count
