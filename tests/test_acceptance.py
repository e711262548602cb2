"""Acceptance battery: one test per shipped promise, one printed verdict each.

Every test ends by calling _verdict, which writes a single PASS or FAIL line
to the real terminal (bypassing capture) and then asserts.  Run this file
alone for the readable scorecard:

    pytest tests/test_acceptance.py -q

Numeric tolerances are stated inline next to each check; runtime ceilings are
wall-clock on the machine running the tests and are deliberately loose.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from lpdim import (
    ConvImage,
    ConvKernel,
    D_and_N,
    DirectSum,
    FiniteSubset,
    Full,
    GroupSpec,
    KerPeriodization,
    PeriodicInfty,
    SolverSettings,
    Zero,
    alpha_fraction,
    build_Q,
    estimate_dimension,
    folner_window,
    four_widths,
    fourier_oracle_dim,
    greedy_pack,
    inner_window_model,
    is_eps_disjoint,
    kernel_defect_check,
    ldim_hilbert,
    nearest_point,
    pairing,
    positivity_bound,
    quasi_tile,
    reduce_spec,
)
from lpdim._util import rng_for
from lpdim.cli import main as cli_main
from lpdim.scenarios import (
    REGISTRY,
    difference_kernel,
    dirac_distance,
    geometric_translates,
    near_dirac_translates,
    one_by_two_kernel,
)
from lpdim.spaces import SupportedMap, convolve
from lpdim.widths import WindowModel, ellipsoid_map

Z = GroupSpec.integer_lattice(1)
Z2 = GroupSpec.integer_lattice(2)


def _verdict(capsys, num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _mid(est) -> float:
    return 0.5 * (est.corner_lo + est.corner_hi)


# --------------------------------------------------- 1: full-space exactness


def test_01_full_space_exactness(capsys):
    t0 = time.perf_counter()
    cells = 0
    ok = True
    for p in (1.0, 2.0, math.inf):
        est = estimate_dimension(Full(Z, 2), p, [16, 64, 256], [1.9, 1.0, 0.1])
        for c in est.cells:
            cells += 1
            if not (c.count_lo == c.count_hi == 2 * c.window_size):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(capsys, 1, "full-space exactness", ok, f"{cells} cells exact in {elapsed:.2f}s")


# ------------------------------------------------ 2: independent symbol oracle


def test_02_symbol_oracle_agreement(capsys):
    t0 = time.perf_counter()
    cases = [
        ("conv_image", ConvImage(difference_kernel()), "image"),
        ("conv_kernel", ConvKernel(one_by_two_kernel()), "kernel"),
    ]
    details = []
    ok = True
    for name, spec, mode in cases:
        oracle = fourier_oracle_dim(spec.kernel, mode)
        est = estimate_dimension(spec, 2.0, [512], [0.05])
        gap = abs(_mid(est) - oracle)
        details.append(f"{name} gap {gap:.4f}")
        if not (abs(oracle - 1.0) <= 1e-12 and gap <= 0.05):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(capsys, 2, "symbol oracle within 0.05", ok, ", ".join(details) + f", {elapsed:.1f}s")


# -------------------------------------------- 3: direct sums add up at p = 2


def test_03_direct_sum_additivity(capsys):
    left = ConvImage(difference_kernel())
    right = ConvKernel(one_by_two_kernel())
    window, eps = 512, 0.05
    omega = folner_window(Z, window)
    tol = 2.0 * float(alpha_fraction(omega, FiniteSubset.of(Z, [0, 1]))) + 0.02
    mids = [
        _mid(estimate_dimension(spec, 2.0, [window], [eps]))
        for spec in (DirectSum(left, right), left, right)
    ]
    gap = abs(mids[0] - mids[1] - mids[2])
    ok = gap <= tol

    # two-sided integer counts, cell by cell: the sum count sits between the
    # superadditive floor at 2*eps and the subadditive ceiling at eps/sqrt(2)
    violations = 0
    for w in (32, 128):
        cell_omega = folner_window(Z, w)
        a = inner_window_model(left, cell_omega, 2.0)
        b = inner_window_model(right, cell_omega, 2.0)
        s = inner_window_model(DirectSum(left, right), cell_omega, 2.0)
        for cell_eps in (1.2, 0.6, 0.3):
            upper = ldim_hilbert(a, cell_eps / math.sqrt(2.0)) + ldim_hilbert(
                b, cell_eps / math.sqrt(2.0)
            )
            lower = ldim_hilbert(a, 2.0 * cell_eps) + ldim_hilbert(b, 2.0 * cell_eps)
            mid = ldim_hilbert(s, cell_eps)
            if not lower <= mid <= upper:
                violations += 1
    ok = ok and violations == 0
    _verdict(
        capsys,
        3,
        "direct-sum additivity",
        ok,
        f"midpoint gap {gap:.4f} <= {tol:.4f}, {violations} bracket violations",
    )


# ----------------------------------- 4: width chain plus the sampling oracle


def _synthetic_ellipsoid(sig: np.ndarray) -> WindowModel:
    n = sig.size
    full = np.vstack([np.diag(sig), np.diag(np.sqrt(1.0 - sig**2))])
    return WindowModel(
        window=FiniteSubset.of(Z, range(n)),
        p=2.0,
        fiber_dim=1,
        polarity="inner",
        full_matrix=full,
        full_support=tuple((t,) for t in range(2 * n)),
    )


def test_04_width_chain_and_sampling_oracle(capsys):
    rng = rng_for(0, "acceptance", "width-chain")
    chain_breaks = 0
    oracle_beats = 0
    cuts_tried = 0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        sig = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
        model = _synthetic_ellipsoid(sig)
        body = ellipsoid_map(model)
        for eps in (1.6, 0.9, 0.4):
            wide = four_widths(model, 2.0 * eps).inscribed
            cut = four_widths(model, eps).diameter_cut
            narrow = four_widths(model, eps / 2.0).radius_cut
            if not wide <= cut <= narrow:
                chain_breaks += 1
            if cut < 1:
                continue
            # every random cut of codimension cut-1 must leave a section of
            # diameter at least 2 sigma_cut; random search never beats the
            # semiaxis certificate by more than roundoff
            floor = 2.0 * sig[cut - 1] - 1e-9
            for _ in range(100):
                cuts_tried += 1
                if cut == 1:
                    null = np.eye(n)
                else:
                    cmat = rng.standard_normal((cut - 1, n))
                    _, _, vt = np.linalg.svd(cmat @ body)
                    null = vt[cut - 1 :].T
                sect = np.linalg.svd(body @ null, compute_uv=False)
                if 2.0 * float(sect[0]) < floor:
                    oracle_beats += 1
    ok = chain_breaks == 0 and oracle_beats == 0
    _verdict(
        capsys,
        4,
        "width chain + sampling oracle",
        ok,
        f"200 ellipsoids, {chain_breaks} chain breaks, "
        f"{oracle_beats}/{cuts_tried} cuts beat the certificate",
    )


# -------------------------------------------- 5: packing, tiling, disjointness


def _brute_force_disjoint(sets, eps: float) -> bool:
    # exhaustive witness search over exact-size kept subsets; keeping more
    # elements only makes disjointness harder, so exact sizes decide it
    needed = [max(0, math.ceil((1.0 - eps) * len(f) - 1e-9)) for f in sets]
    pools = [
        list(itertools.combinations(f.elements, need)) for f, need in zip(sets, needed)
    ]
    for choice in itertools.product(*pools):
        kept = list(itertools.chain.from_iterable(choice))
        if len(kept) == len(set(kept)):
            return True
    return False


def test_05_packing_tiling_disjointness(capsys):
    escapes = 0
    for size in (8, 16, 32, 64):
        for shape_len in (2, 3, 5):
            pack = greedy_pack(folner_window(Z, size), FiniteSubset.of(Z, range(shape_len)))
            if not pack.lower_bound <= Fraction(pack.count) <= pack.upper_bound:
                escapes += 1
    for size in (8, 16, 32, 64):
        shape = FiniteSubset.of(Z2, [(a, b) for a in range(2) for b in range(2)])
        pack = greedy_pack(folner_window(Z2, size), shape)
        if not pack.lower_bound <= Fraction(pack.count) <= pack.upper_bound:
            escapes += 1

    floors_ok = True
    omega = folner_window(Z, 48)
    shape = FiniteSubset.of(Z, range(4))
    for eps in (0.25, 0.5):
        tiling = quasi_tile(omega, [shape], eps)
        floor = eps * (1.0 - float(alpha_fraction(omega, shape)))
        if tiling.coverage < floor - 1e-12:
            floors_ok = False

    rng = rng_for(0, "acceptance", "disjoint")
    disagreements = 0
    instances = 0
    for _ in range(60):
        m = int(rng.integers(1, 4))
        sets = []
        for _ in range(m):
            size = int(rng.integers(3, 7))
            pts = rng.choice(20, size=size, replace=False)
            sets.append(FiniteSubset.of(Z, [int(c) for c in pts]))
        for eps in (0.2, 0.35, 0.5):
            instances += 1
            if bool(is_eps_disjoint(sets, eps)) != _brute_force_disjoint(sets, eps):
                disagreements += 1
    ok = escapes == 0 and floors_ok and disagreements == 0
    _verdict(
        capsys,
        5,
        "packing sandwich + tiling floor + disjointness oracle",
        ok,
        f"{escapes} sandwich escapes, floors {'held' if floors_ok else 'broke'}, "
        f"{disagreements}/{instances} oracle disagreements",
    )


# --------------------------------------------------- 6: positivity machinery


def test_06_positivity_battery(capsys):
    frozen = positivity_bound(0.1, 1.0, 3)
    frozen_ok = abs(frozen - 0.108368) <= 1e-6

    defect_ok = True
    bound_ok = True
    battery = [
        geometric_translates(),
        geometric_translates(ratio=1.0 / 3.0, length=8, core_len=4, tail_eps=0.1),
    ]
    for spec in battery:
        for p in (1.0, 1.5, 2.0):
            _, report = build_Q(spec, folner_window(Z, 64), p)
            if report.defect > report.eps1 + 1e-9:
                defect_ok = False
            est = estimate_dimension(spec, p, [16, 32], [0.4, 0.2])
            if report.bound > est.corner_hi + 0.01:
                bound_ok = False
    ok = frozen_ok and defect_ok and bound_ok
    _verdict(
        capsys,
        6,
        "positivity battery",
        ok,
        f"bound(0.1,1,3) = {frozen:.6f}, defects under eps1: {defect_ok}, "
        f"bounds under grid ceilings: {bound_ok}",
    )


# ----------------------------------------- 7: kernel defect law, 600 matrices


def test_07_kernel_defect_battery(capsys):
    rng = rng_for(0, "acceptance", "kernel-defect")
    violations = 0
    trials = 0
    for n in (8, 16, 32):
        for p in (1.0, 2.0):
            for _ in range(100):
                op = np.eye(n)
                if rng.integers(0, 2) == 0:
                    noise = rng.standard_normal((n, n))
                    noise /= np.max(np.sum(np.abs(noise) ** p, axis=0) ** (1.0 / p))
                    op = op + float(rng.uniform(0.05, 0.6)) * noise
                else:
                    k = int(rng.integers(1, n // 2))
                    cols = rng.choice(n, size=k, replace=False)
                    op[:, cols] = 0.0
                report = kernel_defect_check(op, p)
                trials += 1
                if report.nullity > report.bound + 1e-9:
                    violations += 1
    ok = trials == 600 and violations == 0
    _verdict(capsys, 7, "kernel defect law", ok, f"{trials} matrices, {violations} violations")


# --------------------------------------- 8: duality map and projection KKT


def test_08_projection_kkt(capsys):
    rng = rng_for(0, "acceptance", "kkt")
    worst_res = 0.0
    worst_l2 = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, min(n, 9)))
        basis = rng.standard_normal((n, k))
        target = rng.standard_normal(n)
        for p in (1.5, 3.0):
            res = nearest_point(target, basis, p, within_ball=False)
            worst_res = max(worst_res, res.kkt_residual)
        res2 = nearest_point(target, basis, 2.0, within_ball=False)
        coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
        worst_l2 = max(worst_l2, float(np.max(np.abs(res2.point - basis @ coeff))))

    omega = folner_window(Z, 8)
    range_ok = True
    coincide_ok = True
    for spec in (Full(Z, 1), Zero(Z, 1), geometric_translates()):
        res = D_and_N(spec, 2.0, omega)
        if not (0.0 <= res.d_value <= 1.0 and 0.0 <= res.n_value <= 1.0):
            range_ok = False
        if abs(res.n_value - res.d_value) > 1e-8:
            coincide_ok = False
    half = geometric_translates(ratio=1.0, length=2, core_len=2, tail_eps=0.0)
    res = D_and_N(half, 1.5, folner_window(Z, 2), settings=SolverSettings(tol=1e-6))
    if not (0.0 <= res.d_value <= 1.0 and 0.0 <= res.n_value <= 1.0):
        range_ok = False

    ok = worst_res <= 1e-6 and worst_l2 <= 1e-8 and range_ok and coincide_ok
    _verdict(
        capsys,
        8,
        "nearest-point KKT",
        ok,
        f"worst residual {worst_res:.2g}, worst p=2 closed-form gap {worst_l2:.2g}, "
        f"D/N in range: {range_ok}, p=2 coincidence: {coincide_ok}",
    )


# ------------------------------------------------ 9: index-d reduction grids


def test_09_reduction_grid_equality(capsys):
    mismatches = 0
    bases = [Full(Z, 2), ConvImage(difference_kernel()), ConvKernel(one_by_two_kernel())]
    for base in bases:
        for d in (2, 3):
            red = estimate_dimension(reduce_spec(base, d), 2.0, [4, 8], [0.6, 0.3])
            wide = estimate_dimension(base, 2.0, [4 * d, 8 * d], [0.6, 0.3])
            for cr, cb in zip(red.cells, wide.cells):
                if (cr.count_lo, cr.count_hi) != (cb.count_lo, cb.count_hi):
                    mismatches += 1
    _verdict(
        capsys,
        9,
        "reduction grid equality",
        mismatches == 0,
        f"{len(bases)} bases, indices 2 and 3, {mismatches} cell mismatches",
    )


# --------------------------------------- 10: periodization and thin periods


def test_10_periodization_contrast(capsys):
    ker_ok = True
    for n in (2, 5):
        est = estimate_dimension(KerPeriodization(n), 1.0, [2 * n, 4 * n], [0.99, 0.5])
        for c in est.cells:
            if not (c.count_lo == c.count_hi == c.window_size):
                ker_ok = False

    thin = estimate_dimension(PeriodicInfty(3), math.inf, [6, 24, 48], [0.5])
    thin_ok = all(c.count_hi <= 3 for c in thin.cells) and thin.corner_hi <= 3 / 48 + 1e-12

    union = REGISTRY["union_periodic"]
    dense = estimate_dimension(union.build(), union.p, union.windows, union.eps)
    dense_ok = all(c.count_lo == c.count_hi == c.window_size for c in dense.cells)

    ok = ker_ok and thin_ok and dense_ok
    _verdict(
        capsys,
        10,
        "periodization contrast",
        ok,
        f"kernel corners pinned at 1: {ker_ok}, thin decay to {thin.corner_hi:.4f}, "
        f"union full: {dense_ok}",
    )


# ----------------------------------- 11: near-point-mass translate generators


def test_11_dirac_approximation(capsys):
    dist_ok = all(dirac_distance(k) < 0.05 for k in (6, 7, 8, 9))
    rng = rng_for(0, "acceptance", "dirac")
    violations = 0
    for _ in range(100):
        k = int(rng.integers(6, 10))
        y = near_dirac_translates(k).generator
        y = y.scaled(1.0 / y.norm(1.0))
        eps_k = dirac_distance(k)
        alpha = SupportedMap(
            Z, 1, {int(c): rng.standard_normal() for c in rng.integers(-5, 15, size=6)}
        )
        z = SupportedMap(
            Z, 1, {int(c): rng.standard_normal() for c in rng.integers(-10, 10, size=8)}
        )
        lhs = abs(pairing(alpha, convolve(_as_kernel(z), y)) - pairing(alpha, z))
        if lhs > eps_k * alpha.norm(math.inf) * z.norm(1.0) + 1e-12:
            violations += 1
    ok = dist_ok and violations == 0
    _verdict(
        capsys,
        11,
        "near-point-mass approximation",
        ok,
        f"distance below 0.05 from step 6: {dist_ok}, {violations}/100 pair violations",
    )


def _as_kernel(y: SupportedMap):
    from lpdim.spaces import ConvolutionKernel

    return ConvolutionKernel.scalar(Z, {c[0]: float(v[0]) for c, v in y.data.items()})


# --------------------------------------------------- 12: verify determinism


def test_12_verify_determinism(tmp_path, capsys):
    out1 = tmp_path / "one.json"
    out8 = tmp_path / "eight.json"
    code1 = cli_main(["verify", "--seed", "42", "--jobs", "1", "--out", str(out1)])
    code8 = cli_main(["verify", "--seed", "42", "--jobs", "8", "--out", str(out8)])
    capsys.readouterr()
    same = out1.read_bytes() == out8.read_bytes()
    ok = code1 == 0 and code8 == 0 and same
    _verdict(
        capsys,
        12,
        "verify determinism",
        ok,
        f"exit codes {code1}/{code8}, reports byte-identical: {same}",
    )
