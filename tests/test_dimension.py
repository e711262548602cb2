"""Tests for the dimension grid, the duality flip, the positivity route,
and the projection invariants.

Independent oracles, written before the frozen values below:
  * the positivity bound is recomputed in exact rational arithmetic at
    p = 1 and p = 2;
  * the translate Gram matrix is rebuilt from dense numpy vectors on an
    explicit integer segment, bypassing the sparse pairing entirely;
  * grid midpoints are compared against the Fourier symbol rank oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from lpdim import dimension
from lpdim.dimension import (
    WINDOW_BUDGET,
    D_and_N,
    build_Q,
    dual_dimension,
    estimate_dimension,
    positivity_bound,
)
from lpdim.errors import CapabilityError, StructureError, TailBoundError
from lpdim.groups import FiniteSubset, GroupSpec, folner_window
from lpdim.spaces import (
    ConvImage,
    ConvKernel,
    ConvolutionKernel,
    CyclicTranslates,
    DirectSum,
    Full,
    Induced,
    KerPeriodization,
    Reduced,
    SupportedMap,
    Zero,
    fourier_oracle_dim,
)

Z = GroupSpec.integer_lattice(1)
DIFF = ConvolutionKernel.scalar(Z, {0: 1.0, 1: -1.0})
ONE_BY_TWO = ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 1: [[0.0, 1.0]]})


def rational_positivity_bound(eps0: Fraction, p: int, core: int) -> Fraction:
    """Exact rational recomputation of the bound, valid at p in {1, 2}."""
    if p == 1:
        eps1_sq = (eps0 / (1 - eps0)) ** 2
    else:
        eps1_sq = eps0**2 / (1 - eps0**2)
    return max(Fraction(0), 1 - 2 * eps1_sq) / core**2


def dense_translate_gram(weights, core_len: int, window_len: int, p: float) -> np.ndarray:
    """Rebuild the translate Gram matrix from dense vectors on a segment.

    For an interval core the greedy packing centers are the multiples of
    core_len whose tile still fits in the window, so the whole construction
    reduces to shifted dense dot products.
    """
    w = np.asarray(weights, dtype=float)
    w = w / np.sum(np.abs(w) ** p) ** (1.0 / p)
    pad = window_len + len(w) + core_len
    z = w[:core_len]
    if p == 1.0:
        star = np.sign(z) / np.sum(np.abs(z))
    else:
        star = np.sign(z) * np.abs(z) ** (p - 1.0) / np.sum(np.abs(z) ** p)
    centers = list(range(0, window_len - core_len + 1, core_len))
    m = len(centers)
    q = np.zeros((m, m))
    for j, cj in enumerate(centers):
        sj = np.zeros(pad)
        sj[cj : cj + core_len] = star
        for k, ck in enumerate(centers):
            yk = np.zeros(pad)
            yk[ck : ck + len(w)] = w
            q[j, k] = sj @ yk
    return q


def geometric_spec(ratio: float = 1.0 / 3.0, length: int = 8, core_len: int = 4,
                   tail_eps: float = 0.1) -> CyclicTranslates:
    gen = SupportedMap(Z, 1, {j: ratio**j for j in range(length)})
    return CyclicTranslates(gen, FiniteSubset.of(Z, range(core_len)), tail_eps)


def test_positivity_bound_frozen_value():
    # (0.1, p = 1, core 3): amplified tail 1/9, bound (1 - 2/81) / 9 = 79/729
    got = positivity_bound(0.1, 1.0, 3)
    assert got == pytest.approx(79 / 729, abs=1e-15)
    assert got == pytest.approx(0.108368, abs=1e-6)


def test_positivity_bound_matches_rational_oracle():
    for eps0 in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        for p in (1, 2):
            for core in (1, 2, 5):
                want = rational_positivity_bound(eps0, p, core)
                got = positivity_bound(float(eps0), float(p), core)
                assert got == pytest.approx(float(want), abs=1e-12)


def test_positivity_bound_limits_and_threshold():
    assert positivity_bound(1e-9, 2.0, 1) == pytest.approx(1.0, abs=1e-6)
    assert positivity_bound(0.9, 2.0, 1) == 0.0
    # the bound dies exactly at eps0 = (2^(p/2) + 1)^(-1/p)
    for p in (1.0, 2.0):
        star = (2.0 ** (p / 2.0) + 1.0) ** (-1.0 / p)
        assert positivity_bound(star + 1e-6, p, 1) == 0.0
        assert positivity_bound(star - 1e-3, p, 1) > 0.0


def test_positivity_bound_validation():
    with pytest.raises(CapabilityError):
        positivity_bound(0.1, 3.0, 1)
    with pytest.raises(ValueError):
        positivity_bound(0.1, 0.5, 1)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            positivity_bound(bad, 2.0, 1)
    with pytest.raises(ValueError):
        positivity_bound(0.1, 2.0, 0)


@hyp_settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=0.01, max_value=0.5),
    hi=st.floats(min_value=0.5, max_value=0.95),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    core=st.integers(min_value=1, max_value=8),
)
def test_positivity_bound_range_and_monotone(lo, hi, p, core):
    a, b = positivity_bound(lo, p, core), positivity_bound(hi, p, core)
    assert 0.0 <= b <= a <= 1.0
    assert positivity_bound(lo, p, core + 1) <= a


def test_build_q_identity_example():
    spec = CyclicTranslates(SupportedMap.delta(Z, 0), FiniteSubset.of(Z, [0]), 0.0)
    q, report = build_Q(spec, folner_window(Z, 8), 1.0)
    assert np.array_equal(q, np.eye(8))
    assert report.defect == 0.0
    assert report.eps1 == 0.0
    assert report.bound == 1.0
    assert report.packing_count == 8
    assert report.core_size == 1


def test_build_q_truncated_geometric_defects():
    # ratio 1/3 on [0, 8) with core [0, 4): the only off-diagonal overlap per
    # column is the next center over, and geometric self-similarity makes the
    # entry exactly 3^-4 at p = 1 and p = 2 alike.
    spec = geometric_spec()
    omega = folner_window(Z, 64)

    q1, rep1 = build_Q(spec, omega, 1.0)
    assert q1.shape == (16, 16)
    assert rep1.packing_count == 16
    assert rep1.eps1 == pytest.approx(1 / 9, abs=1e-15)
    assert rep1.defect == pytest.approx(3.0**-4, abs=1e-12)
    assert rep1.defect <= rep1.eps1 + 1e-12
    assert rep1.bound == pytest.approx(79 / 1296, abs=1e-15)

    q2, rep2 = build_Q(spec, omega, 2.0)
    assert rep2.eps1 == pytest.approx(0.1 / math.sqrt(0.99), abs=1e-12)
    assert rep2.defect == pytest.approx(3.0**-4, abs=1e-12)
    assert rep2.defect <= rep2.eps1 + 1e-12
    assert rep2.bound == pytest.approx(97 / 1584, abs=1e-15)

    # every entry obeys the Holder bound through the functional's norm
    for p, q in ((1.0, q1), (2.0, q2)):
        cap = (1.0 - 0.1**p) ** (-1.0 / p)
        assert np.max(np.abs(q)) <= cap + 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_build_q_matches_dense_oracle(p):
    spec = geometric_spec()
    q, _ = build_Q(spec, folner_window(Z, 64), p)
    want = dense_translate_gram([(1 / 3) ** j for j in range(8)], 4, 64, p)
    assert np.allclose(q, want, atol=1e-12)


def test_build_q_tail_violation_raises():
    # ratio 0.9 leaves far more than a 0.1 tail outside [0, 4)
    spec = geometric_spec(ratio=0.9, length=12)
    with pytest.raises(TailBoundError) as info:
        build_Q(spec, folner_window(Z, 32), 1.0)
    assert info.value.measured > 0.1


def test_build_q_validation():
    with pytest.raises(StructureError):
        build_Q(Full(Z, 1), folner_window(Z, 8), 2.0)
    with pytest.raises(CapabilityError):
        build_Q(geometric_spec(), folner_window(Z, 16), 3.0)
    c6 = GroupSpec.cyclic(6)
    with pytest.raises(StructureError):
        build_Q(geometric_spec(), folner_window(c6, 1), 2.0)


def test_estimate_full_and_zero_exact():
    for p in (1.0, 2.0, math.inf):
        est = estimate_dimension(Full(Z, 2), p, [3, 5], [1.0, 0.4])
        for c in est.cells:
            assert c.count_lo == c.count_hi == 2 * c.window_size
            assert c.norm_lo == c.norm_hi == 2.0
        assert est.monotone_in_eps
        zero = estimate_dimension(Zero(Z, 2), p, [3, 5], [1.0, 0.4])
        assert all(c.count_lo == c.count_hi == 0 for c in zero.cells)


def test_estimate_conv_image_frozen_grid():
    est = estimate_dimension(ConvImage(DIFF), 2.0, [8, 16], [0.6, 0.3])
    grid = [(c.window_index, c.eps, c.count_lo, c.count_hi) for c in est.cells]
    assert grid == [(8, 0.6, 8, 8), (8, 0.3, 8, 8), (16, 0.6, 16, 16), (16, 0.3, 16, 16)]
    assert (est.corner_lo, est.corner_hi) == (1.0, 1.0)
    assert est.monotone_in_eps
    assert est.fiber_dim == 1


def test_estimate_matches_fourier_oracle():
    cases = [
        (ConvKernel(ONE_BY_TWO), "kernel", ONE_BY_TWO),
        (ConvImage(DIFF), "image", DIFF),
    ]
    for spec, mode, kernel in cases:
        est = estimate_dimension(spec, 2.0, [64], [0.1])
        mid = 0.5 * (est.corner_lo + est.corner_hi)
        assert abs(mid - fourier_oracle_dim(kernel, mode)) <= 0.05


def test_estimate_ker_periodization_l1_clamp():
    # below threshold 1 the inscribed l1 ball certificate pins the full count
    est = estimate_dimension(KerPeriodization(2), 1.0, [4, 8], [1.5, 0.9])
    grid = [(c.window_index, c.eps, c.count_lo, c.count_hi) for c in est.cells]
    assert grid == [(4, 1.5, 0, 4), (4, 0.9, 4, 4), (8, 1.5, 0, 8), (8, 0.9, 8, 8)]
    assert (est.corner_lo, est.corner_hi) == (1.0, 1.0)


def test_estimate_conv_image_l1_clamp_above_lp_windows():
    # one null direction needs no LP, so the certificate holds past window 256
    est = estimate_dimension(ConvImage(DIFF), 1.0, [512], [0.9])
    assert [(c.count_lo, c.count_hi) for c in est.cells] == [(512, 512)]


def test_estimate_grid_validation():
    spec = Full(Z, 1)
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [8, 4], [0.5])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [4, 8], [0.3, 0.5])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [], [0.5])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [4], [])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [0, 4], [0.5])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 2.0, [4], [0.5, -0.1])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            estimate_dimension(spec, 2.0, [4], [bad])
        with pytest.raises(ValueError):
            estimate_dimension(spec, 2.0, [4], [0.5, bad])
    with pytest.raises(ValueError):
        estimate_dimension(spec, 0.5, [4], [0.5])
    for bad in (math.inf, math.nan, 2.5, -math.inf, None, "8"):
        with pytest.raises(ValueError, match="finite integers"):
            estimate_dimension(spec, 2.0, [bad], [0.5])
        with pytest.raises(ValueError, match="finite integers"):
            estimate_dimension(spec, 2.0, [2, bad], [0.5])
    assert estimate_dimension(spec, 2.0, [64.0], [0.5]).window_indices == (64,)
    for bad in (None, "0.5", [0.5], True, np.True_):
        with pytest.raises(ValueError, match="numbers"):
            estimate_dimension(spec, 2.0, [4], [bad])
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match="exponent"):
            estimate_dimension(spec, bad, [8], [0.5])
    for windows, eps in ((5, [0.5]), ([4], 0.5), ("4", [0.5])):
        with pytest.raises(ValueError, match="lists"):
            estimate_dimension(spec, 2.0, windows, eps)


def test_window_budget_is_checked_before_any_window_is_built(monkeypatch):
    class Admitted(Exception):
        pass

    def no_window(group, index):
        raise Admitted(f"window {index}")

    monkeypatch.setattr(dimension, "folner_window", no_window)
    z2 = GroupSpec.integer_lattice(2)
    image2 = ConvImage(ConvolutionKernel.scalar(z2, {(0, 0): 1.0, (1, 0): -1.0}))
    with pytest.raises(CapabilityError, match="budget"):
        estimate_dimension(image2, 2.0, [10000], [0.5])
    with pytest.raises(CapabilityError, match="budget"):
        estimate_dimension(ConvImage(DIFF), 2.0, [8, 10**6], [0.5])
    with pytest.raises(CapabilityError, match="budget"):
        dual_dimension(ConvImage(DIFF), 2.0, [WINDOW_BUDGET + 1], [0.5])
    # the fiber counts: 4097 points at fiber 3 are over, 4096 are not
    fiber3 = DirectSum(ConvImage(DIFF), ConvKernel(ONE_BY_TWO))
    with pytest.raises(CapabilityError, match="budget"):
        estimate_dimension(fiber3, 2.0, [4097], [0.5])
    # the planned rungs, and cyclic axes that count their order, get through
    for spec, index in ((fiber3, 4096), (image2, 64), (Full(GroupSpec((0, 3)), 1), 4096)):
        with pytest.raises(Admitted):
            estimate_dimension(spec, 2.0, [index], [0.5])
    with pytest.raises(CapabilityError, match="budget"):
        estimate_dimension(Full(GroupSpec((0, 3)), 1), 2.0, [4097], [0.5])
    # windows handed in by the caller: refused before any model or packing
    def nothing_built(*args):
        raise Admitted("a model or a packing")

    monkeypatch.setattr(dimension, "inner_window_model", nothing_built)
    monkeypatch.setattr(dimension, "greedy_pack", nothing_built)
    delta = CyclicTranslates(SupportedMap.delta(Z, 0), FiniteSubset.of(Z, [0]), 0.0)
    for points, outcome in ((WINDOW_BUDGET + 1, CapabilityError), (WINDOW_BUDGET, Admitted)):
        omega = FiniteSubset.of(Z, range(points))
        with pytest.raises(outcome):
            D_and_N(Full(Z, 1), 1.5, omega)
        with pytest.raises(outcome):
            build_Q(delta, omega, 1.0)



@hyp_settings(max_examples=80, deadline=None)
@given(
    lattice=st.integers(1, 2),
    cyclic=st.lists(st.integers(2, 40), max_size=1),
    fiber=st.integers(1, 3),
    data=st.data(),
)
def test_window_budget_refuses_exactly_the_grids_over_it(lattice, cyclic, fiber, data):
    class Admitted(Exception):
        pass

    def no_window(group, index):
        raise Admitted(f"window {index}")

    group = GroupSpec((0,) * lattice + tuple(cyclic))
    order = math.prod(cyclic)
    # the largest index whose box fits: index^lattice * order * fiber <= budget
    fits = WINDOW_BUDGET // (order * fiber)
    edge = fits if lattice == 1 else math.isqrt(fits)
    index = data.draw(st.one_of(st.integers(1, 2 * edge + 2), st.sampled_from([edge, edge + 1])))
    over = index**lattice * order * fiber > WINDOW_BUDGET
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "folner_window", no_window)
        with pytest.raises(CapabilityError if over else Admitted):
            estimate_dimension(Full(group, fiber), 2.0, [index], [0.5])

def test_estimate_invariants_across_specs():
    specs = [Full(Z, 1), Zero(Z, 1), ConvImage(DIFF), ConvKernel(ONE_BY_TWO), KerPeriodization(2)]
    for spec in specs:
        for p in (1.0, 2.0):
            est = estimate_dimension(spec, p, [4, 6], [1.1, 0.5])
            for c in est.cells:
                assert 0 <= c.count_lo <= c.count_hi <= c.window_size * spec.fiber_dim
                assert c.norm_hi <= spec.fiber_dim + 1e-12
            assert est.monotone_in_eps


def test_estimate_jobs_determinism():
    spec = ConvImage(DIFF)
    a = estimate_dimension(spec, 2.0, [4, 8, 12, 16], [0.9, 0.5, 0.2], jobs=1)
    b = estimate_dimension(spec, 2.0, [4, 8, 12, 16], [0.9, 0.5, 0.2], jobs=4)
    assert a.to_json_dict() == b.to_json_dict()


def test_cell_lookup_and_corner():
    est = estimate_dimension(Full(Z, 1), 2.0, [2, 4], [0.8, 0.2])
    assert est.cell(4, 0.2) is est.corner
    assert est.corner.window_size == 4
    with pytest.raises(KeyError):
        est.cell(3, 0.2)
    payload = est.to_json_dict()
    assert payload["corner"] == {"window": 4, "eps": 0.2, "lo": 1.0, "hi": 1.0}
    assert payload["p"] == "2.0"


def test_dual_full_zero_closed_forms():
    for p in (1.0, 1.5):
        dual = dual_dimension(Full(Z, 3), p, [4, 8], [0.5])
        assert (dual.corner_lo, dual.corner_hi) == (3.0, 3.0)
        assert dual.fiber_dim == 3
        assert dual.label.startswith("dual(")
    dual = dual_dimension(Zero(Z, 2), 1.0, [4, 8], [0.5])
    assert (dual.corner_lo, dual.corner_hi) == (0.0, 0.0)


def test_dual_conv_image_close_to_primal():
    dual = dual_dimension(ConvImage(DIFF), 2.0, [32], [0.2])
    primal = estimate_dimension(ConvImage(DIFF), 2.0, [32], [0.2])
    # the adjoint kernel's one near-constant null direction costs one count
    assert (dual.corner_lo, dual.corner_hi) == (31 / 32, 1.0)
    dual_mid = 0.5 * (dual.corner_lo + dual.corner_hi)
    primal_mid = 0.5 * (primal.corner_lo + primal.corner_hi)
    assert abs(dual_mid - primal_mid) <= 0.05


def test_dual_requires_finite_p():
    with pytest.raises(CapabilityError):
        dual_dimension(Full(Z, 1), math.inf, [4], [0.5])


def test_reduced_grid_matches_expanded_base():
    base = ConvImage(DIFF)
    reduced = estimate_dimension(Reduced(base, 2), 2.0, [4, 8], [0.6, 0.3])
    expanded = estimate_dimension(base, 2.0, [8, 16], [0.6, 0.3])
    for c_r, c_b in zip(reduced.cells, expanded.cells):
        assert (c_r.count_lo, c_r.count_hi) == (c_b.count_lo, c_b.count_hi)
        # same counts over a window half the size: normalized values double
        assert c_r.norm_lo == pytest.approx(2.0 * c_b.norm_lo)
    assert reduced.fiber_dim == 2


def test_induced_preserves_normalized_corner():
    base = ConvImage(DIFF)
    induced = estimate_dimension(Induced(base, 2), 2.0, [16], [0.3])
    plain = estimate_dimension(base, 2.0, [16], [0.3])
    assert (induced.corner_lo, induced.corner_hi) == (plain.corner_lo, plain.corner_hi)


def half_span_spec() -> CyclicTranslates:
    gen = SupportedMap(Z, 1, {0: 1.0, 1: 1.0})
    return CyclicTranslates(gen, FiniteSubset.of(Z, [0, 1]), 0.0)


def test_projection_invariants_examples():
    res = D_and_N(Full(Z, 1), 2.0, folner_window(Z, 4))
    assert (res.d_value, res.n_value) == (1.0, 1.0)
    assert res.relation_residual == 0.0

    res = D_and_N(Zero(Z, 1), 2.0, folner_window(Z, 4))
    assert (res.d_value, res.n_value) == (0.0, 0.0)
    assert res.relation_residual == 0.0

    # one-dimensional diagonal span: projection lands at (1/2, 1/2)
    res = D_and_N(half_span_spec(), 2.0, folner_window(Z, 2))
    assert res.d_value == pytest.approx(0.5, abs=1e-9)
    assert res.n_value == pytest.approx(0.5, abs=1e-9)
    assert abs(res.relation_residual) <= 1e-9

    # away from p = 2 the same span still satisfies the power relation
    res = D_and_N(half_span_spec(), 1.5, folner_window(Z, 2))
    assert res.d_value == pytest.approx(0.5, abs=1e-8)
    assert res.n_value == pytest.approx(2.0**-0.5, abs=1e-8)
    assert abs(res.relation_residual) <= 1e-8
    assert res.solver_residual <= 1e-6


def test_projection_invariants_reported_range():
    spec = geometric_spec(tail_eps=0.1)
    res = D_and_N(spec, 2.5, folner_window(Z, 8))
    assert 0.0 <= res.d_value <= 1.0
    assert 0.0 <= res.n_value <= 1.0
    assert math.isfinite(res.relation_residual)
    assert res.solver_residual <= 1e-6


def test_projection_invariants_validation():
    with pytest.raises(CapabilityError):
        D_and_N(Full(Z, 1), 1.0, folner_window(Z, 4))
    with pytest.raises(CapabilityError):
        D_and_N(Full(Z, 1), math.inf, folner_window(Z, 4))
    with pytest.raises(CapabilityError):
        D_and_N(Full(Z, 2), 2.0, folner_window(Z, 4))
    with pytest.raises(ValueError):
        D_and_N(Full(Z, 1), 2.0, FiniteSubset.of(Z, [1, 2, 3]))
