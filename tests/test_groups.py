"""Group arithmetic, canonical windows, and the vanishing-boundary ladder."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdim._util import rng_for
from lpdim.errors import StructureError
from lpdim.groups import (
    FiniteSubset,
    GroupSpec,
    compose_coords,
    folner_size,
    folner_window,
    invert_coords,
    parse_group,
    translator_arrays,
    translator_sets,
)
from lpdim.tiling import alpha_fraction

Z = GroupSpec.integer_lattice(1)
Z2 = GroupSpec.integer_lattice(2)
C5 = GroupSpec.cyclic(5)
C6 = GroupSpec.cyclic(6)
ZxC3 = GroupSpec.product([Z, GroupSpec.cyclic(3)])

ALL_SPECS = [Z, Z2, C5, ZxC3]


def random_element(spec, rng):
    coords = []
    for m in spec.moduli:
        coords.append(int(rng.integers(-20, 21)) if m == 0 else int(rng.integers(0, m)))
    return spec.check_coords(coords)


def translate(spec, g, subset):
    """g * S through the coordinate law, back in canonical order."""
    return FiniteSubset.of(spec, [compose_coords(spec, g, c) for c in subset])


def test_compose_examples():
    assert compose_coords(Z, (3,), (4,)) == (7,)
    assert compose_coords(C5, (3,), (4,)) == (2,)
    assert compose_coords(ZxC3, (1, 2), (2, 2)) == (3, 1)


def test_invert_examples():
    assert invert_coords(Z, (3,)) == (-3,)
    assert invert_coords(C5, (3,)) == (2,)
    assert invert_coords(Z2, (1, -2)) == (-1, 2)


def test_group_laws_on_random_triples():
    """Associativity and two-sided inverses, 1000 triples per group."""
    for spec in ALL_SPECS:
        rng = rng_for(7, "laws", spec.describe())
        e = (0,) * spec.rank
        for _ in range(1000):
            a, b, c = (random_element(spec, rng) for _ in range(3))
            ab = compose_coords(spec, a, b)
            assert compose_coords(spec, ab, c) == compose_coords(spec, a, compose_coords(spec, b, c))
            assert compose_coords(spec, a, invert_coords(spec, a)) == e
            assert compose_coords(spec, invert_coords(spec, a), a) == e


def test_cross_group_composition_rejected():
    """Coordinates of one group are refused where another's are expected."""
    with pytest.raises(StructureError):
        Z2.check_coords((1,))
    with pytest.raises(StructureError):
        FiniteSubset.of(Z2, [(1,)])


def test_cyclic_coordinates_reduced():
    assert C5.check_coords((12,)) == (2,)
    assert C5.check_coords((-1,)) == (4,)
    assert ZxC3.check_coords((-4, 7)) == (-4, 1)


def test_translate_examples():
    om = FiniteSubset.of(Z, [0, 1, 2])
    assert translate(Z, (2,), om).elements == ((2,), (3,), (4,))
    c4 = GroupSpec.cyclic(4)
    wrapped = translate(c4, (3,), FiniteSubset.of(c4, [0, 1]))
    assert wrapped.elements == ((0,), (3,))
    assert translate(Z, (0,), om) == om


def test_translate_preserves_count_and_composition():
    for spec in ALL_SPECS:
        rng = rng_for(11, "translate", spec.describe())
        base = FiniteSubset.of(spec, [random_element(spec, rng) for _ in range(9)])
        for _ in range(200):
            g = random_element(spec, rng)
            h = random_element(spec, rng)
            gh = compose_coords(spec, g, h)
            assert len(translate(spec, g, base)) == len(base)
            assert translate(spec, gh, base) == translate(spec, g, translate(spec, h, base))


def test_finite_subset_dedups_and_sorts():
    s = FiniteSubset.of(Z2, [(1, 1), (0, 3), (1, 1), (0, 0)])
    assert s.elements == ((0, 0), (0, 3), (1, 1))
    assert (1, 1) in s
    assert s.positions[(0, 3)] == 1


def test_folner_window_shapes():
    assert folner_window(Z, 4).elements == ((0,), (1,), (2,), (3,))
    assert folner_window(Z2, 2).elements == ((0, 0), (0, 1), (1, 0), (1, 1))
    # finite factors are exhausted at every index
    assert len(folner_window(C5, 1)) == 5
    assert len(folner_window(C5, 9)) == 5
    assert len(folner_window(ZxC3, 4)) == 12
    # the size is known without building the window
    for group in (Z, Z2, C5, ZxC3):
        for index in (1, 3, 9):
            assert folner_size(group, index) == len(folner_window(group, index))
    with pytest.raises(ValueError):
        folner_window(Z, 0)


def test_folner_boundary_ratio_vanishes():
    """alpha along the window ladder drops by 10x between index 4 and 256."""
    families = {
        Z.describe(): (Z, FiniteSubset.of(Z, [0, 1])),
        Z2.describe(): (Z2, FiniteSubset.of(Z2, [(0, 0), (1, 0)])),
        ZxC3.describe(): (ZxC3, FiniteSubset.of(ZxC3, [(0, 0), (1, 0)])),
    }
    for spec, shape in families.values():
        ladder = [alpha_fraction(folner_window(spec, i), shape) for i in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] < ladder[0] / 10
    # purely finite groups have no boundary at all
    full = folner_window(C5, 1)
    assert alpha_fraction(full, FiniteSubset.of(C5, [0, 1])) == 0


def test_folner_alpha_exact_value():
    # on Z with shape {0,1} the boundary of [0,i) is {-1, i-1}
    from fractions import Fraction

    om = folner_window(Z, 10)
    assert alpha_fraction(om, FiniteSubset.of(Z, [0, 1])) == Fraction(1, 5)


def test_parse_group_round_trip():
    assert parse_group("Z") == Z
    assert parse_group("Z^2") == Z2
    assert parse_group("Z/5") == C5
    assert parse_group("Z x Z/3") == ZxC3
    assert parse_group("  z X  z/3") == ZxC3
    assert parse_group("Z^2 x Z/4").moduli == (0, 0, 4)
    for bad in ["", "Q", "Z^0", "Z/", "Z**2", "Z x"]:
        with pytest.raises(ValueError):
            parse_group(bad)


def test_describe_round_trips_through_parser():
    for spec in ALL_SPECS + [GroupSpec((0, 0, 4)), GroupSpec((2, 0))]:
        assert parse_group(spec.describe()) == spec


def test_constructor_validation():
    with pytest.raises(ValueError):
        GroupSpec.integer_lattice(0)
    with pytest.raises(ValueError):
        GroupSpec.cyclic(0)
    with pytest.raises(ValueError):
        GroupSpec.product([Z])


@st.composite
def windows_and_shapes(draw):
    """A shifted box with gaps, and a shape of 1 to 5 offsets that may repeat,
    miss the identity, be negative, or wrap around a cyclic axis."""
    spec = draw(st.sampled_from([Z, Z2, C6, ZxC3]))
    axes = [
        range(start, start + (draw(st.integers(1, 5)) if m == 0 else m))
        for m, start in zip(spec.moduli, draw(st.tuples(*[st.integers(-6, 6)] * spec.rank)))
    ]
    box = list(itertools.product(*axes))
    keep = draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box)))
    points = [c for c, k in zip(box, keep) if k] or box[:1]
    shape = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * spec.rank), min_size=1, max_size=5))
    return spec, FiniteSubset.of(spec, points), shape


@settings(max_examples=200, deadline=None)
@given(windows_and_shapes())
def test_translator_sets_match_the_definition(case):
    """gamma is a meeting translator when gamma . S meets omega and an inside
    one when gamma . S lies in omega, checked over every gamma near omega."""
    spec, omega, shape = case
    reach = max(abs(c) for s in shape for c in s) + 1
    axes = [
        range(min(w[i] for w in omega) - reach, max(w[i] for w in omega) + reach + 1)
        if m == 0
        else range(m)
        for i, m in enumerate(spec.moduli)
    ]
    meeting, inside = [], []
    for gamma in itertools.product(*axes):
        hits = [compose_coords(spec, gamma, s) in omega for s in shape]
        if any(hits):
            meeting.append(gamma)
        if all(hits):
            inside.append(gamma)
    assert translator_sets(omega, shape) == (meeting, inside)
    for rows, want in zip(translator_arrays(omega, shape), (meeting, inside)):
        assert rows.dtype == np.int64 and rows.shape == (len(want), spec.rank)
    assert all(type(c) is int for gamma in meeting for c in gamma)


def test_translator_sets_need_a_nonempty_shape():
    with pytest.raises(ValueError):
        translator_sets(folner_window(Z, 4), [])
