"""Tests for symbolic subspaces, convolution, and windowed surrogate models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdim import spaces
from lpdim._util import lp_norm, rng_for
from lpdim.errors import CapabilityError, StructureError
from lpdim.groups import (
    FiniteSubset,
    GroupSpec,
    as_coords,
    folner_window,
    invert_coords,
    translators_meeting,
)
from lpdim.dimension import build_Q
from lpdim.scenarios import REGISTRY, geometric_translates, near_dirac_translates
from lpdim.spaces import (
    Annihilator,
    ConvImage,
    ConvKernel,
    ConvolutionKernel,
    CyclicTranslates,
    DirectSum,
    Full,
    Induced,
    KerPeriodization,
    PeriodicInfty,
    Reduced,
    SupportedMap,
    UnionPeriodic,
    Zero,
    adjoint_kernel,
    annihilator_spec,
    convolve,
    fourier_oracle_dim,
    induce_spec,
    inner_window_model,
    outer_rank,
    outer_window_model,
    pairing,
    reduce_spec,
)
from lpdim.tiling import greedy_pack

Z = GroupSpec.integer_lattice(1)
C6 = GroupSpec.cyclic(6)


def interval(lo, hi):
    return FiniteSubset.of(Z, range(lo, hi))


def diff_kernel():
    """Scalar difference kernel: delta at 0 minus delta at 1."""
    return ConvolutionKernel.scalar(Z, {0: 1.0, 1: -1.0})


def block_kernel():
    """1x2 kernel pairing fiber slot 0 at shift 0 with slot 1 at shift 1."""
    return ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 1: [[0.0, 1.0]]})


def column_norms(model):
    """Full-space p-norm of each column of the model's full matrix."""
    return tuple(lp_norm(col, model.p) for col in model.full_matrix.T)


def conv_oracle_z(h_entries, y_entries, dim_in, dim_out, eta):
    """Direct evaluation of (h*y)(eta) on the integers, no shared code."""
    total = np.zeros(dim_out)
    for gamma, vec in y_entries.items():
        blk = h_entries.get(eta - gamma)
        if blk is not None:
            total += np.atleast_2d(np.asarray(blk, dtype=float)) @ np.asarray(vec)
    return total


def span_contains(outer_matrix, inner_matrix, tol=1e-8):
    """Whether every inner column lies in the column span of the outer matrix."""
    if inner_matrix.shape[1] == 0:
        return True
    q, _ = np.linalg.qr(outer_matrix) if outer_matrix.shape[1] else (np.zeros_like(outer_matrix), None)
    if outer_matrix.shape[1] == 0:
        return float(np.max(np.abs(inner_matrix))) <= tol
    resid = inner_matrix - q @ (q.T @ inner_matrix)
    return float(np.max(np.abs(resid))) <= tol


# ----------------------------------------------------------- supported maps


def test_supported_map_accumulates_and_drops_zeros():
    y = SupportedMap(Z, 1, {0: [1.0], 1: [2.0], 2: [0.0]})
    assert y.support == ((0,), (1,))
    z = y.plus(SupportedMap(Z, 1, {1: [-2.0]}))
    assert z.support == ((0,),)
    wrapped = SupportedMap(C6, 1, {1: [1.0], 7: [1.0]})
    assert wrapped.value(1)[0] == 2.0


def test_supported_map_norms():
    y = SupportedMap(Z, 2, {0: [3.0, 0.0], 5: [0.0, -4.0]})
    assert y.norm(1) == pytest.approx(7.0)
    assert y.norm(2) == pytest.approx(5.0)
    assert y.norm(math.inf) == pytest.approx(4.0)
    assert SupportedMap(Z, 1).norm(2) == 0.0


def test_supported_map_translation_wraps_on_cyclic_groups():
    y = SupportedMap(C6, 1, {4: [1.0], 5: [2.0]})
    t = y.translated(3)
    assert t.value(1)[0] == 1.0
    assert t.value(2)[0] == 2.0


def test_non_finite_map_values_are_refused():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StructureError, match="finite"):
            SupportedMap(Z, 1, {0: [1.0], 3: [bad]})
        with pytest.raises(StructureError, match="finite"):
            SupportedMap(C6, 2, {1: [bad, 0.0]})


# ------------------------------------------------------------- convolution


def test_kernel_l1_norm_frozen_values():
    assert diff_kernel().l1_norm == pytest.approx(2.0)
    assert block_kernel().l1_norm == pytest.approx(2.0)
    h = ConvolutionKernel.of(Z, {0: [[1.0, 2.0], [3.0, 4.0]]})
    # column sums (4, 6), row sums (3, 7); the bound takes the max, 7
    assert h.l1_norm == pytest.approx(7.0)


def test_convolve_frozen_difference_example():
    out = convolve(diff_kernel(), SupportedMap.delta(Z, 3))
    assert out.value(3)[0] == 1.0
    assert out.value(4)[0] == -1.0
    assert out.support == ((3,), (4,))


def test_convolve_wraps_on_cyclic_group():
    h = ConvolutionKernel.scalar(GroupSpec.cyclic(4), {0: 1.0, 1: -1.0})
    out = convolve(h, SupportedMap.delta(GroupSpec.cyclic(4), 3))
    assert out.value(3)[0] == 1.0
    assert out.value(0)[0] == -1.0


def test_convolve_matches_direct_formula_on_random_instances():
    rng = rng_for(2203, "conv-oracle")
    h_entries = {0: [[1.0, -2.0]], 2: [[0.5, 0.25]], -1: [[3.0, 0.0]]}
    h = ConvolutionKernel.of(Z, {k: v for k, v in h_entries.items()})
    for _ in range(60):
        pts = rng.integers(-6, 7, size=4)
        y = SupportedMap(Z, 2, {int(k): rng.normal(size=2) for k in pts})
        out = convolve(h, y)
        for eta in range(-10, 12):
            want = conv_oracle_z(h_entries, {c[0]: v for c, v in y.data.items()}, 2, 1, eta)
            assert out.value((eta,))[0] == pytest.approx(want[0], abs=1e-12)


def test_convolve_rejects_mismatched_shapes():
    with pytest.raises(StructureError):
        convolve(block_kernel(), SupportedMap.delta(Z, 0, dim=1))
    with pytest.raises(StructureError):
        convolve(diff_kernel(), SupportedMap.delta(C6, 0))


def test_non_finite_kernel_blocks_are_refused():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(StructureError, match="finite"):
            ConvolutionKernel.scalar(Z, {0: 1.0, 1: bad})
        with pytest.raises(StructureError, match="finite"):
            ConvolutionKernel.of(C6, {0: [[1.0, 0.0]], 2: [[0.0, bad]]})


def test_young_inequality_on_random_pairs():
    exponents = [1.0, 1.5, 2.0, 3.0, math.inf]
    groups = [Z, GroupSpec.integer_lattice(2), C6]
    rng = rng_for(417, "young")
    checked = 0
    for trial in range(100):
        grp = groups[trial % len(groups)]
        d_in, d_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        entries = {}
        for _ in range(int(rng.integers(1, 4))):
            c = tuple(int(v) for v in rng.integers(-3, 4, size=grp.rank))
            entries[c] = rng.normal(size=(d_out, d_in))
        h = ConvolutionKernel.of(grp, entries)
        y = SupportedMap(
            grp,
            d_in,
            {
                tuple(int(v) for v in rng.integers(-5, 6, size=grp.rank)): rng.normal(size=d_in)
                for _ in range(5)
            },
        )
        for p in exponents:
            lhs = convolve(h, y).norm(p)
            assert lhs <= h.l1_norm * y.norm(p) + 1e-9
            checked += 1
    assert checked == 500


@settings(max_examples=120, deadline=None)
@given(
    h_items=st.dictionaries(
        st.integers(-3, 3), st.integers(-3, 3).map(float), min_size=1, max_size=4
    ),
    y_items=st.dictionaries(
        st.integers(-4, 4), st.integers(-5, 5).map(float), min_size=1, max_size=5
    ),
    z_items=st.dictionaries(
        st.integers(-6, 6), st.integers(-5, 5).map(float), min_size=1, max_size=5
    ),
)
def test_adjoint_moves_across_the_pairing(h_items, y_items, z_items):
    h = ConvolutionKernel.scalar(Z, h_items)
    y = SupportedMap(Z, 1, {k: [v] for k, v in y_items.items()})
    z = SupportedMap(Z, 1, {k: [v] for k, v in z_items.items()})
    lhs = pairing(convolve(h, y), z)
    rhs = pairing(y, convolve(adjoint_kernel(h), z))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_adjoint_is_an_involution():
    h = ConvolutionKernel.of(Z, {0: [[1.0, 2.0]], 3: [[-1.0, 0.5]]})
    hh = adjoint_kernel(adjoint_kernel(h))
    assert hh.dim_in == h.dim_in and hh.dim_out == h.dim_out
    for (c, blk), (cc, bb) in zip(h.blocks, hh.blocks):
        assert c == cc
        assert np.allclose(blk, bb)


# ------------------------------------------------------------- annihilators


def test_annihilator_closed_forms():
    assert annihilator_spec(Full(Z, 2)) == Zero(Z, 2)
    assert annihilator_spec(Zero(C6, 3)) == Full(C6, 3)
    dual = annihilator_spec(ConvImage(block_kernel()))
    assert isinstance(dual, ConvKernel)
    assert dual.kernel.dim_in == 1 and dual.kernel.dim_out == 2
    back = annihilator_spec(dual)
    assert isinstance(back, ConvImage)
    for (c, blk), (cc, bb) in zip(back.kernel.blocks, block_kernel().blocks):
        assert c == cc and np.allclose(blk, bb)
    both = annihilator_spec(DirectSum(Full(Z, 1), ConvKernel(diff_kernel())))
    assert isinstance(both, DirectSum)
    assert isinstance(both.left, Zero) and isinstance(both.right, ConvImage)


def test_annihilator_rejects_open_ended_variants():
    gen = SupportedMap.delta(Z, 0)
    spec = CyclicTranslates(gen, FiniteSubset.of(Z, [0]), 0.0)
    with pytest.raises(CapabilityError):
        annihilator_spec(spec)
    with pytest.raises(CapabilityError):
        Annihilator(spec)


def test_windowed_pairing_of_space_and_annihilator_vanishes():
    """Inner columns of Y and of its annihilator are exactly orthogonal on
    the window, because the kernel-side columns are supported inside it."""
    omega = interval(0, 12)
    for h in (diff_kernel(), block_kernel()):
        image = inner_window_model(ConvImage(h), omega, 2.0)
        dual = inner_window_model(annihilator_spec(ConvImage(h)), omega, 2.0)
        if image.num_columns and dual.num_columns:
            gram = image.matrix.T @ dual.matrix
            assert float(np.max(np.abs(gram))) <= 1e-10
        kernel = inner_window_model(ConvKernel(h), omega, 2.0)
        dual2 = inner_window_model(annihilator_spec(ConvKernel(h)), omega, 2.0)
        if kernel.num_columns and dual2.num_columns:
            gram = kernel.matrix.T @ dual2.matrix
            assert float(np.max(np.abs(gram))) <= 1e-10


# ------------------------------------------------------------ window models


def test_full_and_zero_models_are_exact_identities():
    omega = interval(0, 5)
    m = inner_window_model(Full(Z, 2), omega, 1.0)
    assert m.polarity == "exact"
    assert m.matrix.shape == (10, 10)
    assert np.array_equal(m.matrix, np.eye(10))
    assert outer_window_model(Full(Z, 2), omega, 1.0).polarity == "exact"
    z = inner_window_model(Zero(Z, 3), omega, 2.0)
    assert z.matrix.shape == (15, 0)
    assert z.rank() == 0


def test_conv_kernel_models_frozen_dimensions():
    omega = interval(0, 8)
    inner = inner_window_model(ConvKernel(diff_kernel()), omega, 2.0)
    assert inner.num_columns == 0
    outer = outer_window_model(ConvKernel(diff_kernel()), omega, 2.0)
    assert outer.polarity == "outer"
    assert outer.rank() == 1
    # the surviving outer direction is the windowed constant
    col = outer.matrix[:, 0]
    assert np.allclose(col, col[0])

    inner2 = inner_window_model(ConvKernel(block_kernel()), omega, 2.0)
    assert inner2.num_columns == 7
    assert inner2.polarity == "inner"
    assert all(n == pytest.approx(1.0) for n in column_norms(inner2))
    outer2 = outer_window_model(ConvKernel(block_kernel()), omega, 2.0)
    assert outer2.rank() == 9


def test_conv_kernel_inner_columns_really_lie_in_the_kernel():
    omega = interval(0, 8)
    h = block_kernel()
    model = inner_window_model(ConvKernel(h), omega, 2.0)
    pos = {c: i for i, c in enumerate(model.full_support)}
    for j in range(model.num_columns):
        data = {}
        for c, i in pos.items():
            data[c] = model.full_matrix[i * 2 : (i + 1) * 2, j]
        y = SupportedMap(Z, 2, data)
        assert convolve(h, y).norm(math.inf) <= 1e-10


def test_conv_kernel_inner_drops_columns_above_their_rounding_residual(monkeypatch):
    # h = delta_0 - r delta_1 on Z/6 with r = 1 - 1e-9: the circulant is
    # invertible, so ker h = {0}.  A rank rule that undercounts (here the old
    # 1e-8 relative cutoff) leaves one null column, of residual 1e-9, which
    # the residual check must drop
    from lpdim.dimension import estimate_dimension

    def undercount(s, shape):
        s = np.asarray(s)
        return int(np.count_nonzero(s > 1e-8 * s[0])) if s.size and s[0] > 0.0 else 0

    monkeypatch.setattr(spaces, "numerical_rank", undercount)
    h = ConvolutionKernel.scalar(C6, {0: 1.0, 1: -(1.0 - 1e-9)})
    omega = folner_window(C6, 1)
    constraints = spaces._conv_constraint_matrix(h, omega.elements, omega)
    assert spaces._null_space(constraints).shape[1] == 1
    assert inner_window_model(ConvKernel(h), omega, 2.0).num_columns == 0
    (cell,) = estimate_dimension(ConvKernel(h), 2, [1], [0.5]).cells
    assert cell.count_lo == 0 <= cell.count_hi
    # a genuine kernel keeps every column: the constant on Z/6 under h = delta_0 - delta_1
    exact = ConvolutionKernel.scalar(C6, {0: 1.0, 1: -1.0})
    assert inner_window_model(ConvKernel(exact), omega, 2.0).num_columns == 1


def test_rank_rule_counts_singular_values_above_their_rounding_level():
    # the same h: its smallest singular value 1e-9 is far above the rounding
    # level 6 2^-52, so ker h = {0} and im h is all of l2(Z/6)
    from lpdim.dimension import estimate_dimension

    h = ConvolutionKernel.scalar(C6, {0: 1.0, 1: -(1.0 - 1e-9)})
    (cell,) = estimate_dimension(ConvKernel(h), 2, [1], [0.5]).cells
    assert (cell.count_lo, cell.count_hi) == (0, 0)
    # hi is the true count 6; lo stays 5, as the whitening soundly drops the
    # Gram eigenvalue 1e-18, below its own rounding level
    cells = estimate_dimension(ConvImage(h), 2, [1], [0.5, 1e-3]).cells
    assert [(c.count_lo, c.count_hi) for c in cells] == [(5, 6), (5, 6)]


def svd_kernel_basis(h, omega):
    """Orthonormal checked null space of the window's constraint matrix, the
    reference for every ConvKernel inner model."""
    rows = translators_meeting(omega, [invert_coords(h.group, c) for c, _ in h.blocks])
    return spaces._null_space(spaces._conv_constraint_matrix(h, rows, omega), checked=True)


def assert_syzygy_span_is_the_null_space(h, omega):
    assert spaces._syzygy_pattern(h, omega) is not None
    model = inner_window_model(ConvKernel(h), omega, 2.0)
    basis = svd_kernel_basis(h, omega)
    assert model.full_support == omega.elements
    assert model.num_columns == basis.shape[1]
    if basis.shape[1]:
        # sines of the principal angles between the two spans
        q, _ = np.linalg.qr(model.full_matrix)
        assert np.linalg.norm(basis - q @ (q.T @ basis), 2) <= 1e-12
    for col in model.full_matrix.T:
        points = np.unique(np.flatnonzero(col) // 2)
        y = SupportedMap(Z, 2, {omega.elements[i]: col[2 * i : 2 * i + 2] for i in points})
        assert convolve(h, y).norm(math.inf) <= 1e-14 * h.l1_norm


@pytest.mark.parametrize("name", ["conv_kernel", "direct_sum"])
def test_syzygy_span_is_the_null_space_on_registry_windows(name):
    scenario = REGISTRY[name]
    spec = scenario.build()
    h = (spec if isinstance(spec, ConvKernel) else spec.right).kernel
    for size in scenario.windows:
        assert_syzygy_span_is_the_null_space(h, folner_window(Z, size))


def test_syzygy_span_is_the_null_space_on_ladder_kernels():
    rng = rng_for(12, "ladder-kernels")
    for a, b in rng.uniform(0.5, 2.0, size=(2, 2)):
        h = ConvolutionKernel.of(Z, {0: [[a, 0.0]], 1: [[0.0, b]]})
        for size in (128, 256, 512):
            assert_syzygy_span_is_the_null_space(h, folner_window(Z, size))


def test_syzygy_span_is_the_null_space_on_random_kernels():
    rng = rng_for(12, "random-syzygy")
    taken = 0
    while taken < 60:
        first, length = int(rng.integers(-4, 2)), int(rng.integers(1, 5))
        entries = {s: rng.standard_normal((1, 2)) for s in range(first, first + length)}
        for blk in entries.values():
            blk[rng.random((1, 2)) < 0.3] = 0.0
        h = ConvolutionKernel.of(Z, entries)
        if not all(any(blk[0, k] != 0.0 for blk in entries.values()) for k in range(2)):
            continue
        start = int(rng.integers(-8, 0))
        assert_syzygy_span_is_the_null_space(h, interval(start, start + int(rng.integers(1, 30))))
        taken += 1


def test_kernel_inner_falls_back_to_the_checked_null_space():
    z2 = GroupSpec.integer_lattice(2)
    cases = [
        # shared factor 1 + z: the syzygy (h2, -h1) has support 3, but the
        # kernel holds (1, z - 1) of support 2, one more element per window
        (ConvolutionKernel.of(Z, {0: [[1.0, 1.0]], 1: [[0.0, 1.0]], 2: [[-1.0, 0.0]]}), interval(-3, 9), 11),
        # a zero h2 frees the whole second slot
        (ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 1: [[1.0, 0.0]]}), interval(0, 8), 8),
        (block_kernel(), FiniteSubset.of(Z, [0, 1, 2, 5, 6, 7]), 4),
        (ConvolutionKernel.scalar(C6, {0: 1.0, 1: -(1.0 - 1e-9)}), folner_window(C6, 1), 0),
        (ConvolutionKernel.of(z2, {(0, 0): [[1.0, 0.0]], (1, 0): [[0.0, 1.0]]}), folner_window(z2, 4), 12),
    ]
    for h, omega, nullity in cases:
        assert spaces._syzygy_pattern(h, omega) is None
        basis = svd_kernel_basis(h, omega)
        expected = basis / np.array([lp_norm(col, 2.0) for col in basis.T])
        model = inner_window_model(ConvKernel(h), omega, 2.0)
        assert model.num_columns == nullity
        assert np.array_equal(model.full_matrix, expected)


def test_conv_kernel_inner_takes_no_window_sized_svd(monkeypatch):
    # both symbols of the registry kernel are monomials, so their Sylvester
    # matrix is empty and no factorisation at all is needed
    sizes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    model = inner_window_model(ConvKernel(REGISTRY["conv_kernel"].build().kernel), folner_window(Z, 512), 2.0)
    assert model.num_columns == 511
    assert all(size <= 0 for size in sizes)


def test_conv_image_models_frozen_dimensions():
    omega = interval(0, 8)
    inner = inner_window_model(ConvImage(diff_kernel()), omega, 2.0)
    assert inner.num_columns == 9
    assert inner.polarity == "inner"
    assert all(n == pytest.approx(1.0) for n in column_norms(inner))
    assert inner.rank() == 8
    outer = outer_window_model(ConvImage(diff_kernel()), omega, 2.0)
    assert outer.rank() == 8


def test_conv_image_inner_columns_are_normalized_translates():
    omega = interval(0, 6)
    inner = inner_window_model(ConvImage(diff_kernel()), omega, 2.0)
    pos = {c: i for i, c in enumerate(inner.full_support)}
    # the column sourced at 2 is (delta_2 - delta_3) / sqrt(2) in full space
    col = inner.full_matrix[:, [c for c in sorted(pos)].index((2,))]
    expected = np.zeros(len(pos))
    expected[pos[(2,)]] = 1.0 / math.sqrt(2.0)
    expected[pos[(3,)]] = -1.0 / math.sqrt(2.0)
    assert np.allclose(col, expected) or np.allclose(col, -expected)


def _reference_elements(spec, omega, p):
    """Inner-model columns rebuilt as SupportedMaps, and whether they are normalized."""
    grp = spec.group
    if isinstance(spec, ConvImage):
        h = spec.kernel
        sources = sorted(
            {grp.reduce(a - b for a, b in zip(w, s)) for w in omega for s, _ in h.blocks}
        )
        elements = [
            convolve(h, SupportedMap.delta(grp, g, h.dim_in, v))
            for g in sources
            for v in range(h.dim_in)
        ]
        return [el for el in elements if el.data], True
    if isinstance(spec, CyclicTranslates):
        return [spec.generator.translated(g) for g in greedy_pack(omega, spec.core).centers], True
    n = spec.period
    return [SupportedMap(Z, 1, {k: [0.5], k + n: [-0.5]}) for (k,) in omega], False


def test_inner_translate_columns_match_supported_map_reference():
    zc3 = GroupSpec((0, 3))
    z2 = GroupSpec.integer_lattice(2)
    zero_slot = ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 2: [[-0.5, 0.0]]})
    cases = [
        (ConvImage(ConvolutionKernel.scalar(C6, {0: 1.0, 1: -0.5, 5: 0.25})),
         FiniteSubset.of(C6, range(6))),
        (ConvImage(ConvolutionKernel.scalar(C6, {0: 1.0, 2: -1.0})), FiniteSubset.of(C6, [0, 1, 5])),
        (ConvImage(ConvolutionKernel.of(zc3, {(0, 0): [[1.0, 0.0]], (1, 2): [[0.0, 2.0]]})),
         FiniteSubset.of(zc3, [(t, g) for t in range(3) for g in range(3)])),
        (ConvImage(ConvolutionKernel.scalar(z2, {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 0.5})),
         FiniteSubset.of(z2, [(0, 0), (0, 2), (1, 1), (3, -1), (-1, 0)])),
        (ConvImage(zero_slot), interval(-4, 5)),
        (ConvImage(ConvolutionKernel.of(zc3, {(0, 0): [[0.0, 1.0]], (0, 1): [[0.0, -1.0]]})),
         FiniteSubset.of(zc3, [(0, 0), (0, 2), (2, 1)])),
        (CyclicTranslates(SupportedMap(C6, 1, {0: 1.0, 1: 0.5, 5: -0.25}),
                          FiniteSubset.of(C6, [0, 1]), 0.2), FiniteSubset.of(C6, range(6))),
        (CyclicTranslates(SupportedMap(zc3, 2, {(0, 0): [1.0, 0.0], (1, 2): [0.5, -0.5]}),
                          FiniteSubset.of(zc3, [(0, 0)]), 0.2),
         FiniteSubset.of(zc3, [(t, g) for t in range(3) for g in range(3)])),
        (CyclicTranslates(SupportedMap(z2, 1, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.25}),
                          FiniteSubset.of(z2, [(0, 0), (1, 0)]), 0.2),
         FiniteSubset.of(z2, [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (3, -1)])),
        (CyclicTranslates(SupportedMap(Z, 1, {0: [0.6], 1: [0.8]}), FiniteSubset.of(Z, [0]), 0.0),
         interval(-3, 4)),
        (KerPeriodization(3), interval(-4, 5)),
        (KerPeriodization(2), FiniteSubset.of(Z, [-5, 0, 1, 4, 9])),
    ]
    for spec, omega in cases:
        f = spec.fiber_dim
        for p in (1.0, 2.0, 3.0):
            model = inner_window_model(spec, omega, p)
            elements, normalize = _reference_elements(spec, omega, p)
            assert elements, spec.describe()
            off = set().union(*(el.data for el in elements)) - omega.coord_set
            support = omega.elements + tuple(sorted(off))
            assert model.full_support == support, spec.describe()
            cols = [np.concatenate([el.value(c) for c in support]) for el in elements]
            norms = [lp_norm(v, p) for v in cols]
            if normalize:
                cols = [v / nrm for v, nrm in zip(cols, norms)]
                norms = [lp_norm(v, p) for v in cols]
                assert norms == pytest.approx([1.0] * len(cols), rel=4 * np.finfo(float).eps)
            assert np.array_equal(model.full_matrix, np.column_stack(cols)), spec.describe()
            assert column_norms(model) == tuple(norms)
            rows = [support.index(c) * f + k for c in omega for k in range(f)]
            assert np.array_equal(model.matrix, model.full_matrix[rows])


def test_constraint_columns_match_the_convolve_reference():
    """Column (w, v) of the constraint matrix is h * (delta_w e_v) read on the
    rows, for the rows omega . S of the inner fallback and for the interior
    rows of the outer model."""
    zc3 = GroupSpec((0, 3))
    z2 = GroupSpec.integer_lattice(2)
    cases = [
        (block_kernel(), interval(-2, 6)),
        (ConvolutionKernel.of(Z, {0: [[1.0, 0.0], [2.0, -1.0]], 3: [[0.5, 0.5], [0.0, 1.0]]}),
         FiniteSubset.of(Z, [0, 1, 2, 5, 6, 9])),
        (ConvolutionKernel.scalar(C6, {0: 1.0, 1: -0.5, 5: 0.25}), FiniteSubset.of(C6, range(6))),
        (ConvolutionKernel.of(C6, {0: [[1.0, 0.5]], 2: [[0.0, -1.0]]}), FiniteSubset.of(C6, [0, 1, 2, 4])),
        (ConvolutionKernel.of(zc3, {(0, 0): [[1.0, 0.0]], (1, 2): [[0.0, 2.0]], (0, 1): [[0.5, -1.0]]}),
         FiniteSubset.of(zc3, [(t, g) for t in range(4) for g in range(3)])),
        (ConvolutionKernel.of(z2, {(0, 0): [[1.0, 0.0]], (1, 0): [[0.0, 1.0]], (0, 1): [[-0.5, 0.0]]}),
         folner_window(z2, 4)),
        (ConvolutionKernel.scalar(z2, {(0, 0): 1.0, (1, -1): -1.0}),
         FiniteSubset.of(z2, [(0, 0), (0, 2), (1, 1), (3, -1), (2, 1), (2, 0)])),
    ]
    for h, omega in cases:
        grp = h.group
        support = [s for s, _ in h.blocks]
        every_row = sorted({grp.reduce(a + b for a, b in zip(w, s)) for w in omega for s in support})
        inside = [
            eta
            for eta in every_row
            if all(grp.reduce(a - b for a, b in zip(eta, s)) in omega for s in support)
        ]
        assert inside
        assert as_coords(spaces._interior_rows(h, omega)) == inside
        for rows in (every_row, inside):
            mat = spaces._conv_constraint_matrix(h, rows, omega)
            assert mat.shape == (len(rows) * h.dim_out, len(omega) * h.dim_in)
            for j, w in enumerate(omega):
                for v in range(h.dim_in):
                    image = convolve(h, SupportedMap.delta(grp, w, h.dim_in, v))
                    reference = np.concatenate([image.value(eta) for eta in rows])
                    assert np.array_equal(mat[:, j * h.dim_in + v], reference), (grp, w, v)


def test_build_q_matches_the_pairing_reference():
    """Q[j, k] is the pairing of the norming functional at center j with the
    normalized generator at center k, both rebuilt here as SupportedMaps."""
    zc3 = GroupSpec((0, 3))
    z2 = GroupSpec.integer_lattice(2)
    cases = [
        (geometric_translates(), folner_window(Z, 32)),
        (near_dirac_translates(6), folner_window(Z, 32)),
        (CyclicTranslates(SupportedMap(z2, 1, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.25}),
                          FiniteSubset.of(z2, [(0, 0), (1, 0)]), 0.3), folner_window(z2, 6)),
        (CyclicTranslates(SupportedMap(zc3, 2, {(0, 0): [1.0, 0.0], (1, 2): [0.5, -0.5]}),
                          FiniteSubset.of(zc3, [(0, 0)]), 0.6), folner_window(zc3, 8)),
    ]
    for spec, omega in cases:
        centers = greedy_pack(omega, spec.core).centers.elements
        assert len(centers) > 1
        for p in (1.0, 1.5, 2.0):
            q, report = build_Q(spec, omega, p)
            y = spec.generator.scaled(1.0 / spec.generator.norm(p))
            core = {c: v for c, v in y.data.items() if c in spec.core}
            core_norm = SupportedMap(spec.group, y.dim, core).norm(p)
            star = SupportedMap(
                spec.group,
                y.dim,
                {c: np.sign(v) * np.abs(v) ** (p - 1.0) / core_norm**p for c, v in core.items()},
            )
            expected = [[pairing(star.translated(a), y.translated(b)) for b in centers] for a in centers]
            assert report.packing_count == len(centers)
            assert np.abs(q - np.array(expected)).max() <= 1e-15, (spec.describe(), p)


def test_inner_spans_sit_inside_outer_spans():
    omega = interval(0, 10)
    gen = SupportedMap(Z, 1, {0: [0.6], 1: [0.8]})
    specs = [
        ConvKernel(block_kernel()),
        ConvImage(diff_kernel()),
        CyclicTranslates(gen, FiniteSubset.of(Z, [0, 1]), 0.0),
        KerPeriodization(3),
        DirectSum(ConvImage(diff_kernel()), ConvKernel(block_kernel())),
        Induced(ConvImage(diff_kernel()), 2),
        Reduced(ConvImage(diff_kernel()), 2),
    ]
    for spec in specs:
        for p in (1.0, 2.0):
            inner = inner_window_model(spec, omega, p)
            outer = outer_window_model(spec, omega, p)
            assert inner.matrix.shape[0] == outer.matrix.shape[0]
            assert span_contains(outer.matrix, inner.matrix), spec.describe()


def test_inner_models_respect_the_unit_ball():
    gen = SupportedMap(Z, 1, {0: [0.6], 1: [0.8]})
    specs = [
        ConvImage(diff_kernel()),
        CyclicTranslates(gen, FiniteSubset.of(Z, [0, 1]), 0.0),
        KerPeriodization(2),
        DirectSum(ConvImage(diff_kernel()), ConvKernel(block_kernel())),
        Induced(ConvImage(diff_kernel()), 2),
        Reduced(ConvImage(diff_kernel()), 2),
    ]
    for omega in (interval(0, 9), FiniteSubset.of(Z, [-3, 0, 1, 4, 9])):
        for spec in specs:
            for p in (1.0, 1.5, 2.0, math.inf):
                m = inner_window_model(spec, omega, p)
                assert all(n <= 1.0 + 1e-12 for n in column_norms(m)), spec.describe()
                # window rows of the full matrix reproduce the restricted matrix
                pos = {c: i for i, c in enumerate(m.full_support)}
                rows = []
                for c in omega.elements:
                    base = pos[c] * m.fiber_dim
                    rows.extend(range(base, base + m.fiber_dim))
                assert np.array_equal(m.full_matrix[rows, :], m.matrix)


def test_ker_periodization_model_frozen_example():
    omega = interval(0, 4)
    m = inner_window_model(KerPeriodization(2), omega, 1.0)
    assert m.num_columns == 4
    assert m.rank() == 4
    assert column_norms(m) == pytest.approx((1.0, 1.0, 1.0, 1.0))
    at2 = inner_window_model(KerPeriodization(2), omega, 2.0)
    assert column_norms(at2) == pytest.approx((2 ** -0.5,) * 4)
    atinf = inner_window_model(KerPeriodization(2), omega, math.inf)
    assert column_norms(atinf) == pytest.approx((0.5,) * 4)
    outer = outer_window_model(KerPeriodization(2), omega, 1.0)
    assert outer.polarity == "outer"
    assert outer.rank() == 4


def test_periodic_sup_models():
    omega = interval(0, 7)
    m = inner_window_model(PeriodicInfty(3), omega, math.inf)
    assert m.polarity == "exact"
    assert m.num_columns == 3
    assert m.rank() == 3
    assert np.array_equal(m.matrix[:, 0], np.array([1, 0, 0, 1, 0, 0, 1], dtype=float))
    finite_p = inner_window_model(PeriodicInfty(3), omega, 2.0)
    assert finite_p.num_columns == 0
    short = inner_window_model(PeriodicInfty(3), interval(0, 2), math.inf)
    assert short.num_columns == 2


def test_union_of_periods_fills_the_window_at_sup_norm():
    omega = interval(0, 5)
    m = inner_window_model(UnionPeriodic(), omega, math.inf)
    assert m.polarity == "exact"
    assert m.rank() == 5
    assert inner_window_model(UnionPeriodic(), omega, 1.5).num_columns == 0


def test_direct_sum_model_interleaves_fibers():
    omega = interval(0, 3)
    m = inner_window_model(DirectSum(Full(Z, 1), Full(Z, 1)), omega, 2.0)
    assert m.polarity == "exact"
    assert m.fiber_dim == 2
    assert m.rank() == 6
    mixed = inner_window_model(
        DirectSum(ConvImage(diff_kernel()), ConvKernel(block_kernel())), omega, 2.0
    )
    assert mixed.polarity == "inner"
    assert mixed.fiber_dim == 3
    left = inner_window_model(ConvImage(diff_kernel()), omega, 2.0)
    right = inner_window_model(ConvKernel(block_kernel()), omega, 2.0)
    assert mixed.num_columns == left.num_columns + right.num_columns
    assert column_norms(mixed) == column_norms(left) + column_norms(right)
    # left columns live on fiber slot 0, right columns on slots 1 and 2
    m3 = mixed.matrix.reshape(3, 3, mixed.num_columns)
    assert np.all(m3[:, 1:, : left.num_columns] == 0.0)
    assert np.all(m3[:, :1, left.num_columns :] == 0.0)


def test_reduced_view_reuses_base_rows_exactly():
    base = ConvImage(diff_kernel())
    omega = interval(0, 4)
    for d in (2, 3):
        spec = Reduced(base, d)
        expanded = interval(0, 4 * d)
        for p in (1.0, 2.0):
            red = inner_window_model(spec, omega, p)
            raw = inner_window_model(base, expanded, p)
            assert red.fiber_dim == d
            assert np.array_equal(red.matrix, raw.matrix)
            assert column_norms(red) == column_norms(raw)
    gap = FiniteSubset.of(Z, [0, 2, 5])
    red = inner_window_model(Reduced(base, 2), gap, 2.0)
    raw = inner_window_model(base, FiniteSubset.of(Z, [0, 1, 4, 5, 10, 11]), 2.0)
    assert np.array_equal(red.matrix, raw.matrix)


def test_reduce_spec_closed_forms_and_identity():
    assert reduce_spec(Full(Z, 1), 3) == Full(Z, 3)
    assert reduce_spec(Zero(Z, 2), 2) == Zero(Z, 4)
    spec = ConvKernel(diff_kernel())
    assert reduce_spec(spec, 1) is spec
    wrapped = reduce_spec(spec, 2)
    assert isinstance(wrapped, Reduced) and wrapped.index == 2
    assert induce_spec(spec, 1) is spec
    assert induce_spec(Full(Z, 2), 4) == Full(Z, 2)
    assert isinstance(induce_spec(spec, 3), Induced)


def test_induced_view_splits_into_coset_slices():
    omega = interval(0, 8)
    spec = Induced(ConvImage(diff_kernel()), 2)
    m = inner_window_model(spec, omega, 2.0)
    slice_model = inner_window_model(ConvImage(diff_kernel()), interval(0, 4), 2.0)
    assert m.fiber_dim == 1
    assert m.num_columns == 2 * slice_model.num_columns
    # each column touches only one residue class inside the window
    for j in range(m.num_columns):
        hit = {c[0] % 2 for i, c in enumerate(omega.elements) if abs(m.matrix[i, j]) > 0}
        assert len(hit) <= 1
    outer = outer_window_model(spec, omega, 2.0)
    assert outer.rank() == 2 * outer_window_model(
        ConvImage(diff_kernel()), interval(0, 4), 2.0
    ).rank()


def test_cyclic_translates_models():
    gen = SupportedMap(Z, 1, {0: [0.6], 1: [0.8]})
    spec = CyclicTranslates(gen, FiniteSubset.of(Z, [0, 1]), 0.0)
    omega = interval(0, 8)
    inner = inner_window_model(spec, omega, 2.0)
    assert inner.polarity == "inner"
    # greedy packing of a two-point core in [0,8) lands on the even offsets
    assert inner.num_columns == 4
    assert column_norms(inner) == pytest.approx((1.0,) * 4)
    outer = outer_window_model(spec, omega, 2.0)
    assert outer.polarity == "outer"
    assert inner.num_columns <= outer.matrix.shape[1]
    with pytest.raises(StructureError):
        inner_window_model(
            CyclicTranslates(SupportedMap(Z, 1), FiniteSubset.of(Z, [0]), 0.0),
            omega,
            2.0,
        )


def test_zero_cyclic_generator_is_refused_when_built():
    for gen in (SupportedMap(Z, 1), SupportedMap(Z, 2, {0: [0.0, 0.0], 3: [0.0, -0.0]})):
        with pytest.raises(StructureError, match="zero"):
            CyclicTranslates(gen, FiniteSubset.of(Z, [0]), 0.0)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_window_rows_lead_the_full_matrix(name):
    scenario = REGISTRY[name]
    spec = scenario.build()
    omega = folner_window(spec.group, scenario.windows[0])
    for p in sorted({1.0, 2.0, scenario.p}):
        inner = inner_window_model(spec, omega, p)
        assert inner.full_support[: len(omega)] == omega.elements, p
        # the window block is a view into the full matrix, not a copy
        assert inner.full_matrix.size == 0 or np.shares_memory(inner.matrix, inner.full_matrix), p
        assert inner.matrix.shape == (len(omega) * spec.fiber_dim, inner.num_columns)
        if inner.polarity == "exact":
            assert inner.full_support == omega.elements, p
        outer = outer_window_model(spec, omega, p)
        assert outer.polarity in ("outer", "exact")
        assert outer.full_support == omega.elements, p


def test_column_norms_match_lp_norm_bit_for_bit(monkeypatch):
    # inner models normalise their columns with column_lp_norms, which must
    # equal one lp_norm per column exactly, so that no normalised column
    # moves by a rounding step: on the registry, the benchmark ladder and
    # dense random columns, whose sums depend on the summation order
    from lpdim._util import column_lp_norms

    seen = []
    real = spaces._genuine_model

    def spy(window, p, fiber, coords, full, normalize):
        seen.append((p, full.copy()))
        return real(window, p, fiber, coords, full, normalize)

    monkeypatch.setattr(spaces, "_genuine_model", spy)
    for scenario in REGISTRY.values():
        spec = scenario.build()
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            inner_window_model(spec, folner_window(spec.group, scenario.windows[-1]), p)
    z2 = GroupSpec.integer_lattice(2)
    pair = ConvolutionKernel.of(Z, {0: [[1.3, 0.0]], 1: [[0.0, 0.7]]})
    ladder = [
        (ConvKernel(pair), Z, 512, 2.0),
        (DirectSum(REGISTRY["conv_image"].build(), ConvKernel(pair)), Z, 512, 2.0),
        (REGISTRY["conv_image"].build(), Z, 1024, 2.0),
        (ConvImage(ConvolutionKernel.scalar(z2, {(0, 0): 1.3, (1, 0): -1.3})), z2, 32, 2.0),
        (near_dirac_translates(6), Z, 256, 1.0),
    ]
    for spec, group, size, p in ladder:
        inner_window_model(spec, folner_window(group, size), p)
    assert len(seen) > 60
    rng = rng_for(5, "column-norms")
    for rows in (1, 7, 40, 300):
        dense = rng.normal(size=(rows, 300)) * (rng.random((rows, 300)) < 0.7)
        seen += [(p, dense) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    for p, full in seen:
        want = np.array([lp_norm(full[:, j], p) for j in range(full.shape[1])])
        assert np.array_equal(column_lp_norms(full, p), want), (p, full.shape)


def _random_kernel(rng, group, d_in, d_out, points):
    entries = {tuple(int(x) for x in pt): rng.normal(size=(d_out, d_in)) for pt in points}
    return ConvolutionKernel.of(group, entries)


def test_outer_rank_matches_the_svd_rank(monkeypatch):
    z2 = GroupSpec.integer_lattice(2)
    zc3 = GroupSpec((0, 3))
    fallbacks = []
    model = spaces._window_model

    def counted(*args):
        fallbacks.append(args[0])
        return model(*args)

    monkeypatch.setattr(spaces, "_window_model", counted)

    # (spec, window, p, structural): structural True means no outer model is
    # built, False means the SVD fallback runs, None leaves it open
    cases = []
    for sc in REGISTRY.values():
        spec = sc.build()
        cases += [(spec, folner_window(spec.group, i), sc.p, None) for i in sc.windows]

    # the benchmark's p = 2 specs at window 64 on Z and 16 x 16 on Z^2
    pair = ConvKernel(ConvolutionKernel.of(Z, {0: [[0.7, 0.0]], 1: [[0.0, 1.6]]}))
    image = ConvImage(ConvolutionKernel.scalar(Z, {0: 1.3, 1: -1.3}))
    image2 = ConvImage(ConvolutionKernel.scalar(z2, {(0, 0): 0.9, (1, 0): -0.9}))
    for spec in (pair, DirectSum(image, pair), image):
        cases.append((spec, folner_window(Z, 64), 2.0, True))
    cases.append((image2, folner_window(z2, 16), 2.0, True))

    # seeded random kernels on windows with gaps and negative points
    rng = rng_for(6, "outer-rank")
    windows = {
        Z: [FiniteSubset.of(Z, [-5, -4, -1, 0, 2, 3, 4, 7, 8, 11]), interval(-3, 9)],
        z2: [
            FiniteSubset.of(z2, [(x, y) for x in range(-2, 4) for y in range(-3, 3) if (x * y) % 5 != 1]),
            folner_window(z2, 5),
        ],
    }
    for group, boxes in windows.items():
        for d_in in (1, 2):
            for d_out in (1, 2):
                for _ in range(5):
                    size = int(rng.integers(1, 5))
                    pts = {tuple(rng.integers(-2, 3, size=group.rank)) for _ in range(size)}
                    h = _random_kernel(rng, group, d_in, d_out, pts)
                    for omega in boxes:
                        cases.append((ConvImage(h), omega, 2.0, d_out <= d_in))
                        cases.append((ConvKernel(h), omega, 2.0, d_out <= d_in))

    # rank-deficient and zero pivot blocks fall back
    deficient = [[1.0, 2.0], [2.0, 4.0]]
    full_rank = [[1.0, 0.5], [-0.3, 2.0]]
    zero = [[0.0, 0.0], [0.0, 0.0]]
    omega = FiniteSubset.of(Z, [-4, -2, -1, 0, 1, 3, 4, 5])
    for pivot in (deficient, zero):
        # the image pivots on the lex-largest support point, the kernel on the least
        top = ConvolutionKernel.of(Z, {0: full_rank, 1: [[0.2, 0.1], [0.4, -1.0]], 2: pivot})
        bottom = ConvolutionKernel.of(Z, {-1: pivot, 0: full_rank, 2: [[0.2, 0.1], [0.4, -1.0]]})
        cases += [(ConvImage(top), omega, 2.0, False), (ConvKernel(bottom), omega, 2.0, False)]

    # finite and mixed groups fall back
    for group in (C6, zc3):
        h = _random_kernel(rng, group, 1, 1, [(0,) * group.rank, (1,) * group.rank])
        h2 = _random_kernel(rng, group, 2, 1, [(0,) * group.rank, (2,) * group.rank])
        for spec in (ConvImage(h), ConvKernel(h), ConvKernel(h2)):
            cases.append((spec, folner_window(group, 4), 2.0, False))

    # cyclic spans, slices, reindexing, duals and nested sums
    gen = SupportedMap(Z, 1, {0: [0.6], 1: [0.8], 3: [-0.2]})
    gen2 = SupportedMap(Z, 2, {0: [0.6, 0.1], 1: [0.8, 0.0]})
    block = ConvKernel(block_kernel())
    wrapped = [
        (CyclicTranslates(gen, FiniteSubset.of(Z, [0, 1]), 0.3), True),
        (CyclicTranslates(gen2, FiniteSubset.of(Z, [0, 1]), 0.1), False),
        (Induced(ConvImage(diff_kernel()), 2), True),
        (Induced(block, 3), True),
        (Reduced(block, 2), True),
        (Reduced(ConvImage(diff_kernel()), 3), True),
        (Annihilator(ConvImage(diff_kernel())), True),
        (Annihilator(ConvKernel(diff_kernel())), True),
        # the dual of a fiber-2 kernel is a span of 2x1 translates: no pivot
        (Annihilator(block), False),
        (DirectSum(DirectSum(image, block), Induced(pair, 2)), True),
        (DirectSum(Reduced(image, 2), DirectSum(KerPeriodization(2), block)), False),
    ]
    for omega in (interval(0, 12), FiniteSubset.of(Z, [-7, -3, -2, 0, 1, 2, 5, 6, 9])):
        cases += [(spec, omega, p, structural) for spec, structural in wrapped for p in (1.0, 2.0)]

    assert len(cases) > 200
    for spec, omega, p, structural in cases:
        fallbacks.clear()
        rank = outer_rank(spec, omega, p)
        if structural is not None:
            assert (not fallbacks) == structural, spec.describe()
        assert rank == outer_window_model(spec, omega, p).rank(), (spec.describe(), omega)


def test_window_validation():
    with pytest.raises(ValueError):
        inner_window_model(Full(Z, 1), FiniteSubset.of(Z, []), 2.0)
    with pytest.raises(StructureError):
        inner_window_model(Full(Z, 1), FiniteSubset.of(C6, [0]), 2.0)
    with pytest.raises(ValueError):
        inner_window_model(Full(Z, 1), interval(0, 4), 0.5)


# ----------------------------------------------------------- Fourier oracle


def test_fourier_oracle_frozen_values():
    assert fourier_oracle_dim(diff_kernel(), "image") == pytest.approx(1.0)
    assert fourier_oracle_dim(diff_kernel(), "kernel") == pytest.approx(0.0)
    assert fourier_oracle_dim(block_kernel(), "kernel") == pytest.approx(1.0)
    assert fourier_oracle_dim(block_kernel(), "image") == pytest.approx(1.0)
    ident = ConvolutionKernel.scalar(Z, {0: 1.0})
    assert fourier_oracle_dim(ident, "kernel") == pytest.approx(0.0)
    assert fourier_oracle_dim(ident, "image") == pytest.approx(1.0)


def test_fourier_oracle_validation():
    with pytest.raises(ValueError):
        fourier_oracle_dim(diff_kernel(), "rank")
    with pytest.raises(CapabilityError):
        fourier_oracle_dim(ConvolutionKernel.scalar(C6, {0: 1.0}), "kernel")
