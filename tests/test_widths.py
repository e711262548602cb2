"""Tests for width counts, brackets, duality maps, and the nearest-point solver."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpdim import widths
from lpdim._util import conjugate_exponent, lp_norm, matrix_rank, numerical_rank, rng_for
from lpdim.errors import CapabilityError
from lpdim.groups import FiniteSubset, GroupSpec, folner_window
from lpdim.scenarios import near_dirac_translates
from lpdim.spaces import (
    ConvImage,
    ConvKernel,
    ConvolutionKernel,
    DirectSum,
    Full,
    Induced,
    KerPeriodization,
    Reduced,
    WindowModel,
    inner_window_model,
    outer_window_model,
)
from lpdim.widths import (
    KernelDefectReport,
    NearestPointResult,
    SolverSettings,
    WidthCounts,
    ellipsoid_map,
    entrywise_norm,
    four_widths,
    inscribed_l1_radius,
    kernel_defect_check,
    ldim_bracket,
    ldim_hilbert,
    mazur,
    nearest_point,
    operator_norm,
    seminorm_cut_count,
    singular_profile,
)

Z = GroupSpec.integer_lattice(1)


def interval(lo, hi):
    return FiniteSubset.of(Z, range(lo, hi))


def diff_kernel():
    return ConvolutionKernel.scalar(Z, {0: 1.0, 1: -1.0})


def block_kernel():
    return ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 1: [[0.0, 1.0]]})


def ellipsoid_model(semiaxes, p=2.0):
    """Synthetic inner model whose body is exactly the given diagonal ellipsoid.

    The full matrix pads each column so its full-space l2 norm is one, which
    makes the whitened body equal to diag(semiaxes) applied to the unit ball.
    """
    sig = np.asarray(semiaxes, dtype=float)
    n = sig.size
    window = interval(0, n)
    full = np.vstack([np.diag(sig), np.diag(np.sqrt(1.0 - sig ** 2))])
    return WindowModel(
        window=window,
        p=p,
        fiber_dim=1,
        polarity="inner",
        full_matrix=full,
        full_support=tuple((i,) for i in range(2 * n)),
    )


def brute_norm_2d(mat, p_in, p_out, grid=4001):
    """Dense scan of the p_in unit sphere in two variables (oracle)."""
    ts = np.linspace(0.0, 1.0, grid)
    best = 0.0
    for t in ts:
        if p_in == math.inf:
            pts = [(1.0, t), (t, 1.0), (1.0, -t), (t, -1.0)]
        else:
            rest = (1.0 - t ** p_in) ** (1.0 / p_in)
            pts = [(t, rest), (t, -rest)]
        for x in pts:
            best = max(best, lp_norm(mat @ np.asarray(x), p_out))
    return best


# ------------------------------------------------------------ simple norms


def test_entrywise_norm_matches_flat_vector_norms():
    arr = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert entrywise_norm(arr, 1) == pytest.approx(7.0)
    assert entrywise_norm(arr, 2) == pytest.approx(5.0)
    assert entrywise_norm(arr, math.inf) == pytest.approx(4.0)


def test_operator_norm_exact_closed_forms():
    mat = np.array([[1.0, -2.0], [3.0, 4.0]])
    lo, hi = operator_norm(mat, 1.0, 1.0)
    assert lo == hi == pytest.approx(6.0)
    lo, hi = operator_norm(mat, 1.0, 2.0)
    assert lo == hi == pytest.approx(math.sqrt(20.0))
    lo, hi = operator_norm(mat, 1.0, math.inf)
    assert lo == hi == pytest.approx(4.0)
    lo, hi = operator_norm(mat, 2.0, math.inf)
    assert lo == hi == pytest.approx(5.0)
    lo, hi = operator_norm(mat, math.inf, math.inf)
    assert lo == hi == pytest.approx(7.0)
    lo, hi = operator_norm(mat, 2.0, 2.0)
    assert lo == hi == pytest.approx(math.sqrt(15.0 + 5.0 * math.sqrt(5.0)))


def test_operator_norm_bracket_contains_dense_scan():
    rng = rng_for(91, "opnorm-oracle")
    for _ in range(12):
        mat = rng.normal(size=(3, 2))
        for p_in, p_out in [(1.5, 1.5), (3.0, 3.0), (1.5, 3.0), (3.0, 1.5), (2.0, 1.0)]:
            lo, hi = operator_norm(mat, p_in, p_out)
            truth = brute_norm_2d(mat, p_in, p_out)
            assert lo <= truth + 1e-6
            assert truth <= hi + 1e-6
            assert lo <= hi + 1e-12


def test_operator_norm_bracket_is_tight_for_diagonal_matrices():
    mat = np.diag([2.0, 1.0])
    lo, hi = operator_norm(mat, 1.5, 1.5)
    # diagonal action: the norm is the top entry, found by the axis samples
    assert lo == pytest.approx(2.0)
    assert hi >= 2.0


# ------------------------------------------------------- ellipsoid profiles


def test_full_model_profile_is_flat():
    model = inner_window_model(Full(Z, 1), interval(0, 6), 2.0)
    prof = singular_profile(model)
    assert prof.shape == (6,)
    assert np.allclose(prof, 1.0)


def test_synthetic_ellipsoid_profile_recovers_semiaxes():
    model = ellipsoid_model([0.9, 0.5, 0.2, 0.05])
    prof = singular_profile(model)
    assert np.allclose(prof, [0.9, 0.5, 0.2, 0.05], atol=1e-12)


def test_inner_profiles_never_exceed_one():
    omega = interval(0, 12)
    for spec in (ConvImage(diff_kernel()), ConvKernel(block_kernel())):
        prof = singular_profile(inner_window_model(spec, omega, 2.0))
        assert prof.size > 0
        assert np.all(prof <= 1.0 + 1e-12)
        assert np.all(np.diff(prof) <= 1e-12)


def reference_profile(model):
    """The whole whitened map's SVD: eigh of F^T F, Q = F W, B = M W, clip, filter.

    This is the route singular_profile took before it factorised only the
    off-window rows, with its eigenvalue cutoff of 1e-16 times the largest.
    One Newton-Schulz step Q (3 I - Q^T Q) / 2 then makes Q orthonormal to
    rounding level: eigh alone leaves ||Q^T Q - I|| near 2^-52 cond(F^T F),
    about 1e-11 on a window of 1024, and that error would sit in every
    semiaxis.  The step keeps the span of Q.
    """
    full = model.full_matrix
    if full.shape[1] == 0:
        return np.zeros(0)
    lam, vecs = np.linalg.eigh(full.T @ full)
    keep = lam > lam[-1] * 1e-16
    q = full @ (vecs[:, keep] / np.sqrt(lam[keep]))
    q = q @ (1.5 * np.eye(q.shape[1]) - 0.5 * (q.T @ q))
    s = np.minimum(np.linalg.svd(q[: model.ambient_dim], compute_uv=False), 1.0)
    return s[s > 1e-9]


def boundary_rows(model):
    return model.full_matrix.shape[0] - model.matrix.shape[0]


def boundary_cases():
    """Inner models covering every boundary regime: r = 0, 0 < r < k' and
    r >= k', on Z, Z^2 and Z/6, with gapped windows and composites."""
    z2 = GroupSpec.integer_lattice(2)
    c6 = GroupSpec.cyclic(6)
    rng = rng_for(8, "boundary-profile")
    fiber_two = ConvolutionKernel.of(Z, {0: rng.normal(size=(2, 2)), 1: rng.normal(size=(2, 2))})
    wide = ConvolutionKernel.of(Z, {0: rng.normal(size=(2, 3)), 2: rng.normal(size=(2, 3))})
    square = ConvolutionKernel.of(z2, {(0, 0): [[1.0]], (1, 0): [[-0.5]], (0, 1): [[0.25]], (1, 1): [[2.0]]})
    gapped = FiniteSubset.of(Z, [-3, -1, 0, 2, 3, 7])
    scattered = FiniteSubset.of(z2, [(0, 0), (0, 2), (1, 1), (3, 2)])
    cases = [
        (ConvKernel(diff_kernel()), interval(0, 12)),
        (ConvKernel(block_kernel()), gapped),
        (ConvKernel(fiber_two), interval(0, 9)),
        (ConvImage(diff_kernel()), interval(0, 12)),
        (ConvImage(diff_kernel()), gapped),
        (ConvImage(block_kernel()), interval(0, 9)),
        (ConvImage(fiber_two), interval(0, 9)),
        (ConvImage(wide), gapped),
        (ConvImage(square), folner_window(z2, 5)),
        (ConvImage(square), scattered),
        (ConvImage(ConvolutionKernel.scalar(c6, {0: 1.0, 1: -0.5})), FiniteSubset.of(c6, [0, 1, 3])),
        (DirectSum(ConvImage(diff_kernel()), ConvKernel(block_kernel())), interval(0, 10)),
        (DirectSum(ConvImage(fiber_two), ConvImage(diff_kernel())), gapped),
        (Induced(ConvImage(diff_kernel()), 2), interval(0, 11)),
        (Induced(ConvImage(block_kernel()), 3), gapped),
        (Reduced(ConvImage(diff_kernel()), 2), interval(0, 6)),
        (Reduced(ConvImage(fiber_two), 2), FiniteSubset.of(Z, [0, 2, 5])),
    ]
    models = [inner_window_model(spec, omega, 2.0) for spec, omega in cases]
    return models + [ellipsoid_model(sig) for sig in ([0.9, 0.5, 0.2, 0.05], [1.0, 0.3, 0.0])]


def test_boundary_profile_matches_the_whitened_map_svd():
    regimes = {"r = 0": 0, "0 < r < k'": 0, "r >= k'": 0}
    for case, model in enumerate(boundary_cases()):
        r = boundary_rows(model)
        k_kept = np.linalg.matrix_rank(model.full_matrix)
        regimes["r = 0" if r == 0 else "0 < r < k'" if r < k_kept else "r >= k'"] += 1
        got, want = singular_profile(model), reference_profile(model)
        assert got.shape == want.shape, case
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), case
        # the certified shrink keeps every semiaxis at or below the reference
        assert np.all(got <= want + 1e-12), case
        assert np.all(np.diff(got) <= 0.0)
    assert regimes == {"r = 0": 3, "0 < r < k'": 12, "r >= k'": 4}


def assert_at_or_below(got, want, case, atol=1e-8):
    """got is a certified profile of the body whose reference profile is
    want: the same shape, within atol, never above it."""
    assert got.shape == want.shape, case
    assert np.all(got <= want + 1e-12), case
    assert np.allclose(got, want, rtol=0.0, atol=atol), case
    assert np.all(np.diff(got) <= 0.0), case


def pencil(model, floor):
    """The pencil route on the model's Gram in blocks of max(bandwidth, floor)."""
    got = widths._pencil_profile(model, widths._band_gram(model.full_matrix, floor))
    return None if got is None else got[got > widths.COUNT_TOL]


def test_pencil_profile_matches_the_reference_on_every_boundary_case():
    # floor 1 cuts every Gram into as many blocks as its bandwidth allows,
    # floor k leaves one block; a rank-deficient F must certify nothing
    certified = 0
    for case, model in enumerate(boundary_cases()):
        k = model.num_columns
        if k == 0:
            continue
        want = reference_profile(model)
        for floor in (1, 2, k):
            got = pencil(model, floor)
            if matrix_rank(model.full_matrix) < k:
                assert got is None, case
                continue
            assert got is not None, case
            assert_at_or_below(got, want, case)
            certified += 1
    assert certified == 3 * 14


def ladder_models():
    """The largest p = 2 windows of the benchmark ladder: difference images
    on Z at 512 and 1024 and on Z^2 at 32 x 32, and the direct sum with the
    1x2 kernel at 512."""
    from lpdim.scenarios import REGISTRY, difference_kernel

    z2 = GroupSpec.integer_lattice(2)
    image2 = ConvolutionKernel.scalar(z2, {(0, 0): 1.3, (1, 0): -1.3})
    return [
        inner_window_model(ConvImage(difference_kernel()), folner_window(Z, 512), 2.0),
        inner_window_model(ConvImage(difference_kernel()), folner_window(Z, 1024), 2.0),
        inner_window_model(ConvImage(image2), folner_window(z2, 32), 2.0),
        inner_window_model(REGISTRY["direct_sum"].build(), folner_window(Z, 512), 2.0),
    ]


def test_ladder_profiles_take_the_certified_pencil(monkeypatch):
    routes = []
    real = widths._pencil_profile

    def spy(model, gram):
        out = real(model, gram)
        routes.append(out is not None)
        return out

    monkeypatch.setattr(widths, "_pencil_profile", spy)
    for case, model in enumerate(ladder_models()):
        assert_at_or_below(singular_profile(model), reference_profile(model), case)
    assert routes == [True] * 4


def test_ill_conditioned_banded_grams_stay_below_the_reference():
    # symbols 1 - 0.98 z and (1 - z)^2 nearly vanish on the unit circle, so
    # lambda_min(F^T F) is 2.6e-4 and 1e-8 on 300 points; the pencil still
    # certifies both, and its bound, 1 / sqrt(tau) times the residual, may
    # cost the second up to 1e-6 but never lifts a semiaxis above the reference
    for taps, atol in (({0: 1.0, 1: -0.98}, 1e-10), ({0: 1.0, 1: -2.0, 2: 1.0}, 1e-5)):
        model = inner_window_model(ConvImage(ConvolutionKernel.scalar(Z, taps)), interval(0, 300), 2.0)
        gram = widths._band_gram(model.full_matrix, widths._BLOCK_FLOOR, widths._DENSE_BLOCKS + 1)
        got = widths._pencil_profile(model, gram)
        assert got is not None, taps
        assert np.array_equal(singular_profile(model), got[got > widths.COUNT_TOL])
        assert_at_or_below(got[got > widths.COUNT_TOL], reference_profile(model), taps, atol)


def test_a_failed_shift_certificate_falls_back_to_eigh(monkeypatch):
    model = ladder_models()[0]
    real_cholesky, real_eigh = widths._block_cholesky, widths._eigh_whitening
    calls = []

    def no_shifted_factor(diag, sub, width, invert=True):
        if not invert:
            raise np.linalg.LinAlgError("shifted Gram not positive definite")
        return real_cholesky(diag, sub, width, invert)

    def spy(full):
        calls.append(full.shape)
        return real_eigh(full)

    monkeypatch.setattr(widths, "_block_cholesky", no_shifted_factor)
    monkeypatch.setattr(widths, "_eigh_whitening", spy)
    assert widths._pencil_profile(model, widths._band_gram(model.full_matrix, widths._BLOCK_FLOOR)) is None
    got = singular_profile(model)
    assert calls == [model.full_matrix.shape]
    assert_at_or_below(got, reference_profile(model), "fallback", atol=1e-9)


def test_whitening_drops_eigenvalues_below_their_rounding_level(monkeypatch):
    # a 1x2 kernel's image on 9 points: the 20 translate columns span the 11
    # points they touch, and eigh reads the 9 null Gram eigenvalues as about
    # +-2e-16 of the largest; a cutoff below that level kept some of them,
    # and each kept one posed as a unit semiaxis.  Cholesky of that Gram
    # fails or certifies nothing, so the eigh fallback decides.
    rng = rng_for(0, "one-by-two")
    h = ConvolutionKernel.of(Z, {0: rng.normal(size=(1, 2)), 1: rng.normal(size=(1, 2))})
    omega = folner_window(Z, 9)
    model = inner_window_model(ConvImage(h), omega, 2.0)
    assert model.num_columns == 20
    calls = []
    real = widths._eigh_whitening

    def spy(full):
        calls.append(full.shape)
        return real(full)

    monkeypatch.setattr(widths, "_eigh_whitening", spy)
    q, eta = widths._whitening(model.full_matrix)
    assert calls == [model.full_matrix.shape]
    assert q.shape[1] == 11 and eta == 0.0
    prof, want = singular_profile(model), reference_profile(model)
    assert prof.size <= len(omega) * model.fiber_dim
    assert prof.shape == want.shape and np.allclose(prof, want, rtol=0.0, atol=1e-9)
    assert ellipsoid_map(model).shape[1] == np.linalg.matrix_rank(model.full_matrix) == 11


def test_cholesky_whitening_is_certified_and_tight():
    model = inner_window_model(ConvImage(diff_kernel()), interval(0, 64), 2.0)
    full = model.full_matrix
    q, eta = widths._whitening(full)
    assert q.shape == full.shape
    defect = np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2)
    assert defect <= eta < 1e-11
    # the shrink lowers each semiaxis by about 3 eta / 2, ones included
    got, want = singular_profile(model), reference_profile(model)
    assert np.all(got <= want + 1e-12) and np.allclose(got, want, rtol=0.0, atol=2.0 * eta)
    assert np.all(got < 1.0)


def test_a_spoiled_whitening_falls_back_to_eigh(monkeypatch):
    model = inner_window_model(ConvImage(diff_kernel()), interval(0, 12), 2.0)
    full = model.full_matrix
    real_inverse, real_eigh = widths._lower_inverse, widths._eigh_whitening
    w = 1.5 * real_inverse(np.linalg.cholesky(full.T @ full)).T
    assert widths._orthonormality_defect(full, w, full @ w) >= 1.0
    calls = []

    def spoiled(low):
        return 1.5 * real_inverse(low)

    def spy(mat):
        calls.append(mat.shape)
        return real_eigh(mat)

    monkeypatch.setattr(widths, "_lower_inverse", spoiled)
    monkeypatch.setattr(widths, "_eigh_whitening", spy)
    got, want = singular_profile(model), reference_profile(model)
    assert calls == [full.shape]
    assert got.shape == want.shape and np.all(got <= want + 1e-12)


@functools.cache
def p2_grid_modules() -> frozenset:
    """The modules a p = 2 ConvImage grid leaves loaded in a fresh interpreter."""
    code = (
        "import sys\n"
        "import lpdim\n"
        "from lpdim.scenarios import difference_kernel\n"
        "lpdim.estimate_dimension(lpdim.ConvImage(difference_kernel()), 2.0, [64, 256], [0.1])\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = Path(widths.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def test_p2_grids_never_load_scipy():
    assert sorted(m for m in p2_grid_modules() if m == "scipy" or m.startswith("scipy.")) == []


def test_p2_grids_never_load_numpy_ma():
    # np.unique without return_counts, np.setdiff1d and np.isin import
    # numpy.ma on first use, which adds about 0.9 MB to the resident peak
    assert sorted(m for m in p2_grid_modules() if m == "numpy.ma" or m.startswith("numpy.ma.")) == []


def test_conv_image_profile_factorises_only_the_boundary(monkeypatch):
    # window 1024 takes the banded pencil route: every factorisation is of
    # one block or of the r x r boundary matrix, and nothing k x k is formed
    import tracemalloc

    from lpdim.scenarios import REGISTRY

    model = inner_window_model(REGISTRY["conv_image"].build(), folner_window(Z, 1024), 2.0)
    r, k = boundary_rows(model), model.num_columns
    assert 0 < r <= 2 and k > 1000
    shapes = []

    def spy(name):
        real = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            shapes.append((name, np.shape(a)))
            return real(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh", "cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    tracemalloc.start()
    try:
        prof = singular_profile(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("eigvalsh", (r, r)) in shapes
    assert all(max(shape) <= widths._BLOCK_FLOOR for _, shape in shapes), shapes
    # one k x k product, a Gram or a whitened map, would take 8 k^2 bytes
    assert peak < 4 * k * k
    assert prof.size == model.matrix.shape[0]


def test_ldim_hilbert_frozen_counts_and_tie_exclusion():
    model = ellipsoid_model([0.9, 0.5, 0.2, 0.05])
    assert ldim_hilbert(model, 1.0) == 1  # 2*0.5 == 1.0 is a tie, excluded
    assert ldim_hilbert(model, 0.3) == 3
    assert ldim_hilbert(model, 0.05) == 4
    assert ldim_hilbert(model, 2.0) == 0
    assert ldim_hilbert(model, 5.0) == 0
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            ldim_hilbert(model, bad)
    at_p1 = ellipsoid_model([0.9], p=1.0)
    with pytest.raises(CapabilityError):
        ldim_hilbert(at_p1, 0.5)


def test_random_cuts_never_beat_the_semiaxis_count():
    """Sampled codimension-k sections always keep diameter >= 2 sigma_{k+1},
    so no cut shallower than the semiaxis count can certify a smaller body."""
    rng = rng_for(7701, "section-oracle")
    for _ in range(50):
        n = int(rng.integers(3, 13))
        r = int(rng.integers(2, n + 1))
        b = rng.normal(size=(n, r))
        b /= np.linalg.svd(b, compute_uv=False)[0] * rng.uniform(1.0, 2.0)
        sig = np.linalg.svd(b, compute_uv=False)
        for k in range(min(3, r)):
            if k == 0:
                section = b
            else:
                cut = rng.normal(size=(k, n))
                _, s, vh = np.linalg.svd(cut @ b, full_matrices=True)
                rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
                section = b @ vh[rank:].T
            diam = 2.0 * np.linalg.svd(section, compute_uv=False)[0]
            assert diam >= 2.0 * sig[k] - 1e-9


def test_seminorm_split_counts_obey_the_two_sided_law():
    rng = rng_for(555, "split")
    for _ in range(40):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(2, n))
        b = rng.normal(size=(n, r))
        b /= np.linalg.svd(b, compute_uv=False)[0] * 1.5
        split = int(rng.integers(1, n))
        top = list(range(split))
        bottom = list(range(split, n))
        for eps in (0.1, 0.35, 0.8, 1.5):
            whole = seminorm_cut_count(b, range(n), eps)
            sub = seminorm_cut_count(b, top, eps / math.sqrt(2.0)) + seminorm_cut_count(
                b, bottom, eps / math.sqrt(2.0)
            )
            assert whole <= sub


def test_direct_sum_profile_is_the_union_of_part_profiles():
    omega = interval(0, 10)
    left = ConvImage(diff_kernel())
    right = ConvKernel(block_kernel())
    ml = inner_window_model(left, omega, 2.0)
    mr = inner_window_model(right, omega, 2.0)
    ms = inner_window_model(DirectSum(left, right), omega, 2.0)
    merged = np.sort(np.concatenate([singular_profile(ml), singular_profile(mr)]))[::-1]
    assert np.allclose(singular_profile(ms), merged, atol=1e-9)


def test_block_sum_counts_are_two_sided_additive():
    omega = interval(0, 10)
    left = ConvImage(diff_kernel())
    right = ConvKernel(block_kernel())
    ml = inner_window_model(left, omega, 2.0)
    mr = inner_window_model(right, omega, 2.0)
    ms = inner_window_model(DirectSum(left, right), omega, 2.0)
    for eps in (0.05, 0.2, 0.5, 1.0, 1.7):
        subadd = ldim_hilbert(ml, eps / math.sqrt(2.0)) + ldim_hilbert(
            mr, eps / math.sqrt(2.0)
        )
        superadd = ldim_hilbert(ml, min(2.0 * eps, 1.999)) + ldim_hilbert(
            mr, min(2.0 * eps, 1.999)
        )
        total = ldim_hilbert(ms, eps)
        assert total <= subadd
        if 2.0 * eps < 2.0:
            assert superadd <= total


# ------------------------------------------------------------ ldim brackets


def test_bracket_exact_for_span_ball_bodies_at_every_p():
    for p in (1.0, 2.0, math.inf):
        for size in (4, 9):
            model = inner_window_model(Full(Z, 1), interval(0, size), p)
            for eps in (1.9, 1.0, 0.1):
                assert ldim_bracket(model, eps) == (size, size)
            assert ldim_bracket(model, 2.0) == (0, 0)


def test_thresholds_that_are_not_positive_are_refused():
    # NaN too: it fails every comparison, so a test of eps <= 0 lets it
    # through to made-up counts, such as (16, 16) from the outer model
    # (diag(0.9, 0.5, 0.2) gave seminorm counts 0 at NaN, 3 at -1 and 0, and 1
    # at True); a bool is not a scale
    omega = interval(0, 16)
    inner = inner_window_model(ConvImage(diff_kernel()), omega, 2.0)
    outer = outer_window_model(ConvImage(diff_kernel()), omega, 2.0)
    body = np.diag([0.9, 0.5, 0.2])
    for bad in (0.0, -1.0, -math.inf, math.nan, True):
        for call in (
            lambda: ldim_bracket(inner, bad),
            lambda: ldim_bracket(outer, bad),
            lambda: four_widths(inner, bad),
            lambda: four_widths(outer, bad),
            lambda: ldim_hilbert(inner, bad),
            lambda: seminorm_cut_count(body, range(3), bad),
        ):
            with pytest.raises(ValueError):
                call()


def test_bracket_collapses_at_p_two():
    model = ellipsoid_model([0.9, 0.5, 0.2, 0.05])
    for eps in (0.08, 0.3, 1.0, 1.9):
        lo, hi = ldim_bracket(model, eps)
        assert lo == hi == ldim_hilbert(model, eps)


def test_bracket_orders_and_monotonicity_off_two():
    for p in (1.0, 1.5, 3.0, math.inf):
        model = ellipsoid_model([0.9, 0.5, 0.2, 0.05], p=p)
        previous = None
        for eps in (0.05, 0.2, 0.5, 1.0, 1.5, 1.99):
            lo, hi = ldim_bracket(model, eps)
            assert 0 <= lo <= hi <= 4
            if previous is not None:
                assert lo <= previous[0]
                assert hi <= previous[1]
            previous = (lo, hi)


def test_outer_models_use_the_rank_rule():
    omega = interval(0, 8)
    outer = outer_window_model(ConvKernel(diff_kernel()), omega, 1.0)
    assert ldim_bracket(outer, 0.5) == (1, 1)
    assert ldim_bracket(outer, 1.999) == (1, 1)
    assert ldim_bracket(outer, 2.0) == (0, 0)


def test_inscribed_radius_certifies_periodization_kernel():
    omega = interval(0, 6)
    model = inner_window_model(KerPeriodization(2), omega, 1.0)
    assert inscribed_l1_radius(model) == pytest.approx(0.5, abs=1e-9)
    assert ldim_bracket(model, 0.9) == (6, 6)
    lo, hi = ldim_bracket(model, 1.1)
    assert lo < 6  # above the certified diameter the clamp must let go
    assert hi == 6


def test_inscribed_radius_declines_when_not_applicable():
    omega = interval(0, 6)
    at_p2 = inner_window_model(KerPeriodization(2), omega, 2.0)
    assert inscribed_l1_radius(at_p2) == 0.0
    image = inner_window_model(ConvImage(diff_kernel()), omega, 1.0)
    assert inscribed_l1_radius(image) == pytest.approx(0.5, abs=1e-9)
    rank_deficient = ellipsoid_model([0.9, 0.5, 0.0], p=1.0)
    assert inscribed_l1_radius(rank_deficient) == 0.0
    outer = outer_window_model(KerPeriodization(2), omega, 1.0)
    assert inscribed_l1_radius(outer) == 0.0


def test_inscribed_radius_never_exceeds_the_exact_radius():
    # the near point mass has exact radius 63/64; solver tolerance overstated it
    spec = near_dirac_translates(6)
    for window in (8, 64):
        model = inner_window_model(spec, folner_window(Z, window), 1.0)
        radius = inscribed_l1_radius(model)
        assert 63 / 64 - 1e-12 <= radius <= 63 / 64


def reference_l1_radius(model):
    """One equality-constrained HiGHS LP per window coordinate.

    Minimises ||F c||_1 subject to M c = e_i over span coefficients c, with
    absolute-value slacks, and returns one over the worst optimum.
    """
    from scipy.optimize import linprog

    mat = model.matrix
    n = mat.shape[0]
    if model.rank() < n:
        return 0.0
    full = model.full_matrix
    rows, k = full.shape
    objective = np.concatenate([np.zeros(k), np.ones(rows)])
    a_ub = np.block([[full, -np.eye(rows)], [-full, -np.eye(rows)]])
    a_eq = np.hstack([mat, np.zeros((n, rows))])
    bounds = [(None, None)] * k + [(0.0, None)] * rows
    worst = 0.0
    for i in range(n):
        res = linprog(
            objective, A_ub=a_ub, b_ub=np.zeros(2 * rows), A_eq=a_eq, b_eq=np.eye(n)[i],
            bounds=bounds, method="highs",
        )
        assert res.success
        worst = max(worst, float(res.fun))
    return 1.0 / worst


def random_inner_model(rng, n, nullity, extra_rows):
    """Inner p = 1 model with n window rows, n + nullity columns of unit l1 norm."""
    full = rng.normal(size=(n + extra_rows, n + nullity))
    full /= np.abs(full).sum(axis=0)
    return WindowModel(
        window=interval(0, n),
        p=1.0,
        fiber_dim=1,
        polarity="inner",
        full_matrix=full,
        full_support=tuple((i,) for i in range(n + extra_rows)),
    )


def test_inscribed_radius_matches_the_per_coordinate_lp():
    rng = rng_for(3, "l1-radius-reference")
    models = [
        random_inner_model(rng, n, nullity, extra)
        for nullity in (0, 1, 2, 3)
        for n, extra in ((5, 3), (8, 6))
    ]
    two_images = DirectSum(ConvImage(diff_kernel()), ConvImage(ConvolutionKernel.scalar(Z, {0: 2.0, 1: 1.0})))
    models.append(inner_window_model(two_images, interval(0, 6), 1.0))
    models.append(inner_window_model(Induced(ConvImage(diff_kernel()), 2), interval(0, 8), 1.0))
    for model in models:
        radius = inscribed_l1_radius(model)
        reference = reference_l1_radius(model)
        assert reference > 0.0
        assert radius == pytest.approx(reference, abs=1e-8)
        assert radius <= reference + 1e-8


# ------------------------------------------------------------- four widths


def test_four_widths_frozen_counts():
    model = ellipsoid_model([0.9, 0.5, 0.2, 0.05])
    w = four_widths(model, 0.5)
    assert w == WidthCounts(inscribed=2, thickness=2, radius_cut=1, diameter_cut=2)
    w2 = four_widths(model, 0.05)
    assert w2.inscribed == 4 and w2.radius_cut == 3 and w2.diameter_cut == 4


def test_four_widths_on_outer_models_use_the_rank_alone(monkeypatch):
    import lpdim.widths as widths

    def unused(model):
        raise AssertionError("outer widths need no ellipsoid profile")

    monkeypatch.setattr(widths, "singular_profile", unused)
    eps_values = (0.05, 0.5, 1.0, 1.5, 2.0, 2.5)
    for spec, omega, rank in (
        (ConvKernel(diff_kernel()), interval(0, 8), 1),
        (KerPeriodization(2), interval(0, 6), 6),
    ):
        outer = outer_window_model(spec, omega, 2.0)
        got = [four_widths(outer, eps) for eps in eps_values]
        # frozen from the route that also ran the discarded profile
        assert got == [
            WidthCounts(rank, rank, rank, rank),
            WidthCounts(rank, rank, rank, rank),
            WidthCounts(rank, rank, 0, rank),
            WidthCounts(0, 0, 0, rank),
            WidthCounts(0, 0, 0, 0),
            WidthCounts(0, 0, 0, 0),
        ]


def test_width_chain_on_random_profiles():
    rng = rng_for(4242, "chain")
    for _ in range(200):
        n = int(rng.integers(1, 12))
        model = ellipsoid_model(np.sort(rng.uniform(0.01, 1.0, size=n))[::-1])
        eps = float(rng.uniform(0.02, 1.5))
        w = four_widths(model, eps)
        low = four_widths(model, min(2.0 * eps, 1.999))
        high = four_widths(model, eps / 2.0)
        assert low.inscribed <= w.diameter_cut <= high.radius_cut
        assert w.radius_cut <= w.diameter_cut
        assert w.diameter_cut == ldim_hilbert(model, eps)


# ------------------------------------------------------------------- mazur


def test_mazur_identities():
    rng = rng_for(61, "mazur")
    for p in (1.0, 1.5, 2.0, 3.0):
        q = conjugate_exponent(p)
        for _ in range(25):
            x = rng.normal(size=int(rng.integers(1, 20)))
            mx = mazur(x, p)
            assert float(np.dot(mx, x)) == pytest.approx(lp_norm(x, p) ** p, rel=1e-10)
            assert lp_norm(mx, q) == pytest.approx(lp_norm(x, p) ** (p - 1.0), rel=1e-10)
    assert np.array_equal(mazur(np.zeros(3), 1.5), np.zeros(3))
    x = np.array([0.3, -1.2, 0.0])
    assert np.allclose(mazur(x, 2.0), x)
    with pytest.raises(CapabilityError):
        mazur(x, math.inf)


# ----------------------------------------------------------- nearest point


def test_nearest_point_matches_the_closed_form_at_p_two():
    rng = rng_for(88, "nearest-two")
    for _ in range(25):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        basis = rng.normal(size=(n, k))
        target = rng.normal(size=n) * 2.0
        out = nearest_point(target, basis, 2.0)
        q, _ = np.linalg.qr(basis)
        proj = q @ (q.T @ target)
        nn = lp_norm(proj, 2.0)
        expected = proj / nn if nn > 1.0 else proj
        assert np.allclose(out.point, expected, atol=1e-8)
        assert out.kkt_residual <= 1e-8
        assert out.converged
    half = nearest_point(np.array([1.0, 0.0]), np.array([[1.0], [1.0]]), 2.0)
    assert np.allclose(half.point, [0.5, 0.5], atol=1e-12)


def _suite_kkt_instance(seed, trial):
    """The (basis, target) of the suite's projection-kkt check at seed and trial."""
    rng = rng_for(seed, "suite", "projection-kkt")
    for _ in range(trial + 1):
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, min(n, 5)))
        basis = rng.standard_normal((n, k))
        target = rng.standard_normal(n)
    return basis, target


def test_nearest_point_subspace_instances_reach_tight_residuals():
    rng = rng_for(303, "nearest-subspace")
    cases = []
    for p in (1.5, 3.0):
        for _ in range(15):
            n, k = int(rng.integers(3, 33)), int(rng.integers(1, 6))
            basis = rng.normal(size=(n, k))
            cases.append((basis, rng.normal(size=n) * float(rng.uniform(0.3, 3.0)), p))
    # suite seed 1205: n = 9, k = 3, whose p = 1.5 optimum has a residual
    # coordinate of 1.4e-10, where the objective stops showing progress
    basis, target = _suite_kkt_instance(1205, 10)
    assert basis.shape == (9, 3)
    cases.append((basis, target, 1.5))
    # an exactly zero residual at the l2 start: below p = 2 its Hessian
    # weight |r|^(p-2) is infinite
    coordinate = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    cases += [(coordinate, np.array([1.0, 3.0, 0.0, 0.0]), p) for p in (1.1, 1.5)]
    for basis, target, p in cases:
        out = nearest_point(target, basis, p, within_ball=False)
        assert out.kkt_residual <= 1e-6, (p, out.kkt_residual)
        q, _ = np.linalg.qr(basis)
        assert lp_norm(out.point - q @ (q.T @ out.point), 2.0) <= 1e-8
    inside = nearest_point(np.array([0.2, 0.2]), np.array([[1.0], [1.0]]), 3.0)
    assert inside.distance <= 1e-8  # target already feasible
    assert inside.converged


def test_nearest_point_ball_mode_stays_feasible_and_certified():
    rng = rng_for(304, "nearest-ball")
    for p in (1.5, 3.0):
        for _ in range(15):
            n, k = int(rng.integers(3, 33)), int(rng.integers(1, 6))
            basis = rng.normal(size=(n, k))
            target = rng.normal(size=n) * float(rng.uniform(0.3, 3.0))
            out = nearest_point(target, basis, p)
            assert out.kkt_residual <= 1e-6, (p, out.kkt_residual)
            assert lp_norm(out.point, p) <= 1.0 + 1e-9
            q, _ = np.linalg.qr(basis)
            assert lp_norm(out.point - q @ (q.T @ out.point), 2.0) <= 1e-8


def test_nearest_point_beats_random_feasible_perturbations():
    rng = rng_for(909, "nearest-oracle")
    for p in (1.5, 3.0):
        for _ in range(5):
            n, k = 8, 3
            basis = rng.normal(size=(n, k))
            target = rng.normal(size=n) * 1.5
            out = nearest_point(target, basis, p)
            q, _ = np.linalg.qr(basis)
            best = lp_norm(target - out.point, p)
            for _ in range(200):
                cand = q @ (q.T @ (out.point + 0.05 * rng.normal(size=n)))
                nn = lp_norm(cand, p)
                if nn > 1.0:
                    cand = cand / nn
                assert lp_norm(target - cand, p) >= best - 1e-7


def test_nearest_point_edge_cases():
    target = np.array([2.0, 0.0])
    out = nearest_point(target, np.zeros((2, 0)), 1.5)
    assert out.distance == pytest.approx(lp_norm(target, 1.5))
    assert out.converged
    with pytest.raises(CapabilityError):
        nearest_point(target, np.eye(2), 1.0)
    with pytest.raises(CapabilityError):
        nearest_point(target, np.eye(2), math.inf)


# ------------------------------------------------------------- defect check


def test_kernel_defect_identity_and_frozen_example():
    report = kernel_defect_check(np.eye(5), 2.0)
    assert report == KernelDefectReport(defect=0.0, nullity=0, bound=0.0, consistent=True)
    drop = np.diag([1.0, 1.0, 1.0, 0.0])
    out = kernel_defect_check(drop, 2.0)
    assert out.defect == pytest.approx(1.0)
    assert out.nullity == 1
    assert out.bound == pytest.approx(4.0)
    assert out.consistent


def test_kernel_defect_law_on_planted_kernels():
    rng = rng_for(1212, "defect")
    for n in (8, 16, 32):
        for p in (1.0, 2.0):
            for _ in range(30):
                k = int(rng.integers(0, max(1, n // 4) + 1))
                raw = rng.normal(size=(n, max(k, 1)))
                q, _ = np.linalg.qr(raw)
                u = q[:, :k]
                op = np.eye(n) - u @ u.T
                noise = rng.normal(size=(n, n)) * float(rng.uniform(0.0, 1e-4))
                report = kernel_defect_check(op + noise, p)
                assert report.consistent
                if np.all(noise == 0.0):
                    assert report.nullity == k


# ------------------------------------------------------------- rank rule


def test_numerical_rank_counts_above_the_relative_cutoff():
    eps = np.finfo(float).eps
    assert numerical_rank([], (0, 3)) == 0
    assert numerical_rank([0.0, 0.0], (2, 2)) == 0
    assert numerical_rank([2.0, 1e-3, 0.0], (3, 3)) == 2
    # a singular value far below 1e-8 s[0] is still genuinely nonzero
    assert numerical_rank([1.0, 1e-9], (2, 2)) == 2
    # the cutoff is max(m, n) 2^-52 s[0], on both sides and in both orientations
    for shape in ((4, 2), (2, 4)):
        assert numerical_rank([3.0, 3.0 * 4.5 * eps], shape) == 2
        assert numerical_rank([3.0, 3.0 * 3.5 * eps], shape) == 1
    # and it is numpy's matrix_rank rule
    rng = rng_for(668, "rank-rule")
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        u, _ = np.linalg.qr(rng.normal(size=(m, m)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = np.sort(10.0 ** rng.uniform(-17.0, 0.0, size=min(m, n)))[::-1]
        mat = u[:, : s.size] @ np.diag(s) @ v[:, : s.size].T
        spectrum = np.linalg.svd(mat, compute_uv=False)
        assert numerical_rank(spectrum, mat.shape) == np.linalg.matrix_rank(mat)
        assert matrix_rank(mat) == np.linalg.matrix_rank(mat)
    for empty in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0))):
        assert matrix_rank(empty) == 0


def test_every_rank_decision_follows_the_one_tolerance(monkeypatch):
    """Coarsening numerical_rank moves every rank, basis, nullity and pivot test."""
    from lpdim import _util, spaces, widths
    from lpdim.spaces import _full_row_rank, _null_space
    from lpdim.widths import _orthonormal_span

    mat = np.diag([1.0, 1e-6])
    omega = interval(0, 2)
    outer = WindowModel(omega, 2.0, 1, "outer", mat, omega.elements)
    inner = WindowModel(omega, 1.0, 1, "inner", mat, omega.elements)

    def decisions():
        return (
            outer.rank(),
            _null_space(mat).shape[1],
            _orthonormal_span(mat).shape[1],
            ellipsoid_map(outer).shape[1],
            kernel_defect_check(mat, 2.0).nullity,
            inscribed_l1_radius(inner) > 0.0,
            _full_row_rank(mat),
        )

    def coarse(s, shape):
        s = np.asarray(s)
        return int(np.count_nonzero(s > 1e-4 * s[0])) if s.size and s[0] > 0.0 else 0

    assert decisions() == (2, 0, 2, 2, 0, True, True)
    for module in (_util, spaces, widths):
        monkeypatch.setattr(module, "numerical_rank", coarse)
    assert decisions() == (1, 1, 1, 1, 1, False, False)


def test_solver_settings_refuse_bad_values():
    SolverSettings(max_iter=1, tol=1e-12)
    for bad in (
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": math.inf},
        {"tol": math.nan},
        {"tol": "x"},
        {"tol": True},
        {"max_iter": 0},
        {"max_iter": 2.0},
        {"max_iter": None},
    ):
        with pytest.raises(ValueError):
            SolverSettings(**bad)


def test_kernel_defect_validation():
    with pytest.raises(CapabilityError):
        kernel_defect_check(np.eye(3), 3.0)
    with pytest.raises(ValueError):
        kernel_defect_check(np.zeros((2, 3)), 2.0)
