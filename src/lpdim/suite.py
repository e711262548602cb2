"""Executable property suite: the dimension laws as named, seeded checks.

Each check exercises one law on concrete scenarios and either passes with a
one-line measurement summary or fails with the measured violation.  Checks
never abort the suite; exceptions are caught and recorded as failures so a
single report always covers the whole list.  Check evaluation order, seeds,
and detail strings are all deterministic for a fixed seed, independent of
how many worker threads the grid estimates use underneath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._util import format_p, lp_norm, rng_for
from .dimension import D_and_N, build_Q, dual_dimension, estimate_dimension
from .groups import FiniteSubset, GroupSpec, folner_window
from .scenarios import (
    REGISTRY,
    difference_kernel,
    dirac_distance,
    geometric_translates,
    near_dirac_translates,
    one_by_two_kernel,
)
from .spaces import (
    ConvImage,
    ConvKernel,
    DirectSum,
    Full,
    Induced,
    PeriodicInfty,
    Reduced,
    SupportedMap,
    Zero,
    convolve,
    inner_window_model,
    outer_window_model,
)
from .tiling import alpha_fraction, greedy_pack, quasi_tile
from .widths import (
    SolverSettings,
    WindowModel,
    _width_counts,
    ellipsoid_map,
    kernel_defect_check,
    ldim_bracket,
    ldim_hilbert,
    mazur,
    nearest_point,
    seminorm_cut_count,
    singular_profile,
)

_Z = GroupSpec.integer_lattice(1)

# scenarios whose default grids the generic lattice checks sweep; the wide
# fourier demo duplicates conv_image and is exercised by the oracle check
_MATRIX = (
    "full",
    "zero",
    "conv_kernel",
    "conv_image",
    "cyclic",
    "direct_sum",
    "periodic_infty",
    "ker_periodization",
    "annihilator",
    "reduced",
    "induced",
    "union_periodic",
    "remark91_demo",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    scenario: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "total": len(self.checks),
            "failed": len(self.failures),
            "checks": [c.to_json_dict() for c in self.checks],
        }


class _CheckFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _CheckFailure(message)


def _mid(est) -> float:
    return 0.5 * (est.corner_lo + est.corner_hi)


def _capped_windows(windows, cap: int = 64) -> tuple[int, ...]:
    kept = tuple(w for w in windows if w <= cap)
    return kept if kept else (min(windows),)


def property_suite(config: Optional[dict] = None, seed: int = 0) -> SuiteReport:
    """Run every check (or the substring-filtered subset) and collect results.

    config keys, all optional: "only" is a list of substrings and keeps the
    checks whose name contains any of them; "jobs" is forwarded to the grid
    estimates and never changes results, only wall time.
    """
    config = dict(config or {})
    only = config.get("only") or []
    if isinstance(only, str):
        only = [only]
    jobs = max(1, int(config.get("jobs", 1)))
    seed = int(seed)

    plans: list[tuple[str, str, Callable[[], str]]] = []
    estimates: dict[str, object] = {}

    def scenario_estimate(name: str):
        if name not in estimates:
            sc = REGISTRY[name]
            estimates[name] = estimate_dimension(
                sc.build(), sc.p, _capped_windows(sc.windows), sc.eps, jobs=jobs
            )
        return estimates[name]

    def add(name: str, scenario: str, fn: Callable[[], str]) -> None:
        plans.append((name, scenario, fn))

    # --- grid laws on every registry scenario ---------------------------------
    def make_grid_invariants(scn: str) -> Callable[[], str]:
        def check() -> str:
            sc = REGISTRY[scn]
            est = scenario_estimate(scn)
            for c in est.cells:
                _require(
                    0 <= c.count_lo <= c.count_hi <= c.window_size * est.fiber_dim,
                    f"bracket escaped [0, n*dim] at window {c.window_index}, eps {c.eps}",
                )
            _require(est.monotone_in_eps, "counts dropped as the threshold shrank")
            return f"corner [{est.corner_lo:.6g}, {est.corner_hi:.6g}] at p={format_p(sc.p)}"

        return check

    for scn in _MATRIX:
        add("grid-invariants", scn, make_grid_invariants(scn))

    # --- translation invariance of windowed counts -----------------------------
    def make_translation(scn: str) -> Callable[[], str]:
        def check() -> str:
            sc = REGISTRY[scn]
            spec = sc.build()
            base = folner_window(_Z, 16)
            shifted = FiniteSubset.of(_Z, range(3, 19))
            rows = []
            for eps in (0.8, 0.3):
                a = ldim_bracket(inner_window_model(spec, base, sc.p), eps)
                b = ldim_bracket(inner_window_model(spec, shifted, sc.p), eps)
                _require(a == b, f"inner bracket moved under translation at eps {eps}: {a} vs {b}")
                a_out = ldim_bracket(outer_window_model(spec, base, sc.p), eps)
                b_out = ldim_bracket(outer_window_model(spec, shifted, sc.p), eps)
                _require(a_out == b_out, f"outer bracket moved under translation at eps {eps}")
                rows.append(a[0])
            return f"counts {rows} stable under window shift"

        return check

    for scn in ("conv_image", "conv_kernel", "cyclic", "ker_periodization"):
        add("translation-invariance", scn, make_translation(scn))

    # --- exactness of the full space -------------------------------------------
    def check_full_exact() -> str:
        spec = Full(_Z, 2)
        for p in (1.0, 2.0, math.inf):
            est = estimate_dimension(spec, p, [8, 32], [1.9, 0.1], jobs=jobs)
            for c in est.cells:
                _require(
                    c.count_lo == c.count_hi == 2 * c.window_size,
                    f"full space bracket not exact at p={format_p(p)}",
                )
        return "bracket (2, 2) exact at p in {1, 2, inf}"

    add("full-exactness", "full", check_full_exact)

    # --- subadditivity under seminorm splits, factor 2^(-1/p) at p = 2 ---------
    def make_split(scn: str) -> Callable[[], str]:
        def check() -> str:
            spec = REGISTRY[scn].build()
            omega = folner_window(_Z, 24)
            model = inner_window_model(spec, omega, 2.0)
            body = ellipsoid_map(model)
            rows = body.shape[0]
            first = np.arange(rows // 2)
            second = np.arange(rows // 2, rows)
            worst = 0
            for eps in (0.8, 0.4):
                whole = ldim_hilbert(model, eps)
                split = seminorm_cut_count(body, first, eps / math.sqrt(2.0)) + seminorm_cut_count(
                    body, second, eps / math.sqrt(2.0)
                )
                _require(whole <= split, f"split subadditivity failed at eps {eps}: {whole} > {split}")
                worst = max(worst, split - whole)
            return f"largest split slack {worst}"

        return check

    for scn in ("conv_image", "direct_sum"):
        add("split-subadditivity", scn, make_split(scn))

    # --- two-sided block sum counting at p = 2 ----------------------------------
    def check_block_sum() -> str:
        left = ConvImage(difference_kernel())
        right = ConvKernel(one_by_two_kernel())
        omega = folner_window(_Z, 16)
        a = inner_window_model(left, omega, 2.0)
        b = inner_window_model(right, omega, 2.0)
        s = inner_window_model(DirectSum(left, right), omega, 2.0)
        for eps in (1.2, 0.6, 0.3):
            upper = ldim_hilbert(a, eps / math.sqrt(2.0)) + ldim_hilbert(b, eps / math.sqrt(2.0))
            lower = ldim_hilbert(a, 2.0 * eps) + ldim_hilbert(b, 2.0 * eps)
            mid = ldim_hilbert(s, eps)
            _require(lower <= mid <= upper, f"block sum counts out of order at eps {eps}")
        return "sum counts inside the two-sided integer bracket"

    add("block-superadditivity", "direct_sum", check_block_sum)

    # --- additivity of grid midpoints within the boundary fraction --------------
    def check_sum_additivity() -> str:
        left = ConvImage(difference_kernel())
        right = ConvKernel(one_by_two_kernel())
        window, eps = 64, 0.1
        shape = FiniteSubset.of(_Z, [0, 1])
        omega = folner_window(_Z, window)
        tol = 2.0 * float(alpha_fraction(omega, shape)) + 0.02
        mids = []
        for spec in (DirectSum(left, right), left, right):
            est = estimate_dimension(spec, 2.0, [window], [eps], jobs=jobs)
            mids.append(_mid(est))
        gap = abs(mids[0] - mids[1] - mids[2])
        _require(gap <= tol, f"midpoint additivity off by {gap:.4g} > {tol:.4g}")
        return f"additivity gap {gap:.4g} within {tol:.4g}"

    add("sum-additivity", "direct_sum", check_sum_additivity)

    # --- reduction: counts agree with the expanded window exactly ---------------
    def check_reduction() -> str:
        base = ConvImage(difference_kernel())
        for d in (2, 3):
            red = estimate_dimension(Reduced(base, d), 2.0, [4, 8], [0.6, 0.3], jobs=jobs)
            wide = estimate_dimension(base, 2.0, [4 * d, 8 * d], [0.6, 0.3], jobs=jobs)
            for cr, cb in zip(red.cells, wide.cells):
                _require(
                    (cr.count_lo, cr.count_hi) == (cb.count_lo, cb.count_hi),
                    f"reduction counts differ at index {d}, window {cr.window_index}",
                )
        return "integer grids match at indices 2 and 3"

    add("reduction-equality", "reduced", check_reduction)

    # --- induction preserves the normalized corner ------------------------------
    def check_induction() -> str:
        base = ConvImage(difference_kernel())
        ind = estimate_dimension(Induced(base, 2), 2.0, [16], [0.3], jobs=jobs)
        plain = estimate_dimension(base, 2.0, [16], [0.3], jobs=jobs)
        _require(
            (ind.corner_lo, ind.corner_hi) == (plain.corner_lo, plain.corner_hi),
            "induced corner moved",
        )
        return f"corner [{ind.corner_lo:.6g}, {ind.corner_hi:.6g}] preserved"

    add("induction-consistency", "induced", check_induction)

    # --- positivity route consistent with the grid ------------------------------
    def check_positivity() -> str:
        spec = geometric_translates()
        omega = folner_window(_Z, 64)
        bounds = []
        for p in (1.0, 1.5, 2.0):
            _, report = build_Q(spec, omega, p)
            _require(report.defect <= report.eps1 + 1e-9, f"defect beat its certificate at p={p}")
            est = estimate_dimension(spec, p, [16, 32], [0.4, 0.2], jobs=jobs)
            _require(
                report.bound <= est.corner_hi + 0.01,
                f"lower bound {report.bound:.4g} above grid hi {est.corner_hi:.4g} at p={p}",
            )
            bounds.append(report.bound)
        return "bounds " + ", ".join(f"{b:.4g}" for b in bounds) + " below grid ceilings"

    add("positivity-grid", "cyclic", check_positivity)

    # --- width quartet chain on seeded ellipsoids --------------------------------
    def check_width_chain() -> str:
        rng = rng_for(seed, "suite", "width-chain")
        for trial in range(40):
            n = int(rng.integers(2, 10))
            sig = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
            model = WindowModel(
                window=FiniteSubset.of(_Z, range(n)),
                p=2.0,
                fiber_dim=1,
                polarity="inner",
                full_matrix=np.vstack([np.diag(sig), np.diag(np.sqrt(1.0 - sig**2))]),
                full_support=tuple((t,) for t in range(2 * n)),
            )
            # one profile per ellipsoid; four_widths would factorise it per count
            sigma = singular_profile(model)
            for eps in (1.6, 0.9, 0.4):
                wide = _width_counts(sigma, 2.0 * eps).inscribed
                cut = _width_counts(sigma, eps).diameter_cut
                narrow = _width_counts(sigma, eps / 2.0).radius_cut
                _require(wide <= cut <= narrow, f"width chain broke on trial {trial} at eps {eps}")
        return "inscribed(2e) <= cut(e) <= radius(e/2) on 40 seeded ellipsoids"

    add("width-chain", "synthetic", check_width_chain)

    # --- convolution contraction through the kernel's summed block norms --------
    def check_young() -> str:
        rng = rng_for(seed, "suite", "young")
        worst = 0.0
        for kernel in (difference_kernel(), one_by_two_kernel()):
            l1_norm = kernel.l1_norm
            for _ in range(30):
                support = rng.integers(-8, 8, size=rng.integers(1, 6))
                data = {
                    int(c): rng.standard_normal(kernel.dim_in) for c in np.unique(support)
                }
                y = SupportedMap(_Z, kernel.dim_in, data)
                image = convolve(kernel, y)
                for p in (1.0, 1.5, 2.0, math.inf):
                    lhs = image.norm(p)
                    rhs = l1_norm * y.norm(p)
                    _require(lhs <= rhs + 1e-9, f"contraction failed at p={format_p(p)}")
                    if rhs > 0:
                        worst = max(worst, lhs / rhs)
        return f"largest contraction ratio {worst:.4f}"

    add("young-inequality", "kernels", check_young)

    # --- packing counts inside their rational sandwich ---------------------------
    def check_packing() -> str:
        cases = []
        for size in (8, 16, 32):
            cases.append((folner_window(_Z, size), FiniteSubset.of(_Z, range(3))))
        z2 = GroupSpec.integer_lattice(2)
        cases.append(
            (folner_window(z2, 8), FiniteSubset.of(z2, [(a, b) for a in range(2) for b in range(2)]))
        )
        for omega, shape in cases:
            pack = greedy_pack(omega, shape)
            _require(
                Fraction(pack.count) >= pack.lower_bound and Fraction(pack.count) <= pack.upper_bound,
                f"packing count {pack.count} escaped [{pack.lower_bound}, {pack.upper_bound}]",
            )
        return f"{len(cases)} packings inside their rational sandwich"

    add("packing-sandwich", "lattice", check_packing)

    # --- quasi-tiling coverage certificate ---------------------------------------
    def check_quasi_tiles() -> str:
        omega = folner_window(_Z, 48)
        shape = FiniteSubset.of(_Z, range(4))
        covers = []
        for eps in (0.25, 0.5):
            tiling = quasi_tile(omega, [shape], eps)
            floor = eps * (1.0 - float(alpha_fraction(omega, shape)))
            _require(
                tiling.coverage >= floor - 1e-12,
                f"coverage {tiling.coverage:.4g} under the floor {floor:.4g} at eps {eps}",
            )
            covers.append(tiling.coverage)
        return "coverages " + ", ".join(f"{c:.4g}" for c in covers) + " above their floors"

    add("quasi-tile-coverage", "lattice", check_quasi_tiles)

    # --- almost-identity operators have small kernels -----------------------------
    def check_kernel_defect() -> str:
        rng = rng_for(seed, "suite", "kernel-defect")
        trials = 0
        for n in (8, 16):
            for p in (1.0, 2.0):
                for _ in range(20):
                    op = np.eye(n)
                    kind = rng.integers(0, 2)
                    if kind == 0:
                        noise = rng.standard_normal((n, n))
                        noise /= np.max(np.sum(np.abs(noise) ** p, axis=0) ** (1.0 / p))
                        op = op + 0.3 * noise
                    else:
                        k = int(rng.integers(1, n // 2))
                        cols = rng.choice(n, size=k, replace=False)
                        op[:, cols] = 0.0
                    report = kernel_defect_check(op, p)
                    _require(
                        report.nullity <= report.bound + 1e-9,
                        f"nullity {report.nullity} beat the bound {report.bound:.4g}",
                    )
                    trials += 1
        return f"{trials} operators, zero bound violations"

    add("kernel-defect", "operators", check_kernel_defect)

    # --- nearest point KKT residuals and the duality map identities ---------------
    def check_projection_kkt() -> str:
        rng = rng_for(seed, "suite", "projection-kkt")
        worst = 0.0
        for trial in range(12):
            n = int(rng.integers(3, 16))
            k = int(rng.integers(1, min(n, 5)))
            basis = rng.standard_normal((n, k))
            target = rng.standard_normal(n)
            for p in (1.5, 3.0):
                res = nearest_point(target, basis, p, within_ball=False)
                _require(
                    res.kkt_residual <= 1e-6,
                    f"subspace residual {res.kkt_residual:.3g} above 1e-6 at p={p}",
                )
                worst = max(worst, res.kkt_residual)
        for _ in range(20):
            x = rng.standard_normal(6)
            for p in (1.5, 2.0, 3.0):
                image = mazur(x, p)
                power = lp_norm(x, p) ** p
                _require(
                    abs(float(image @ x) - power) <= 1e-8 * max(1.0, power),
                    f"duality map pairing identity failed at p={p}",
                )
        return f"worst subspace residual {worst:.3g}"

    add("projection-kkt", "solver", check_projection_kkt)

    # --- projection invariants: the p = 2 coincidence and range bounds ------------
    def check_projection_relation() -> str:
        omega = folner_window(_Z, 8)
        gaps = []
        for scn in ("full", "zero", "cyclic", "remark91_demo"):
            spec = REGISTRY[scn].build()
            if spec.fiber_dim != 1:
                spec = Full(_Z, 1) if scn == "full" else Zero(_Z, 1)
            res = D_and_N(spec, 2.0, omega)
            _require(0.0 <= res.d_value <= 1.0 and 0.0 <= res.n_value <= 1.0, f"range escape on {scn}")
            _require(
                abs(res.n_value - res.d_value) <= 1e-8,
                f"p=2 coincidence broke on {scn}: |n - d| = {abs(res.n_value - res.d_value):.3g}",
            )
            gaps.append(abs(res.n_value - res.d_value))
        half = geometric_translates(ratio=1.0, length=2, core_len=2, tail_eps=0.0)
        res = D_and_N(half, 1.5, folner_window(_Z, 2), settings=SolverSettings(tol=1e-6))
        _require(0.0 <= res.d_value <= 1.0 and 0.0 <= res.n_value <= 1.0, "range escape at p=1.5")
        return f"largest p=2 gap {max(gaps):.3g}; p=1.5 relation residual {res.relation_residual:.3g}"

    add("projection-relation", "mixed", check_projection_relation)

    # --- duality route lands on the primal estimate -------------------------------
    def check_dual() -> str:
        full = dual_dimension(Full(_Z, 2), 1.5, [8], [0.5], jobs=jobs)
        _require((full.corner_lo, full.corner_hi) == (2.0, 2.0), "dual of the full space moved")
        zero = dual_dimension(Zero(_Z, 2), 1.0, [8], [0.5], jobs=jobs)
        _require((zero.corner_lo, zero.corner_hi) == (0.0, 0.0), "dual of the zero space moved")
        spec = ConvImage(difference_kernel())
        dual = dual_dimension(spec, 2.0, [32], [0.2], jobs=jobs)
        primal = estimate_dimension(spec, 2.0, [32], [0.2], jobs=jobs)
        gap = abs(_mid(dual) - _mid(primal))
        _require(gap <= 0.05, f"dual and primal midpoints differ by {gap:.4g}")
        return f"conv_image dual gap {gap:.4g}"

    add("dual-consistency", "conv_image", check_dual)

    # --- near-point-mass translates approximate convolutions weakly ---------------
    def check_dirac() -> str:
        for k in (6, 7, 8):
            _require(dirac_distance(k) < 0.05, f"distance at step {k} not below 0.05")
        rng = rng_for(seed, "suite", "dirac")
        spikes = {}
        for k in range(6, 10):
            y = near_dirac_translates(k).generator
            spikes[k] = np.concatenate([y.data[c] for c in y.support]) * (1.0 / y.norm(1.0))
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(6, 10))
            eps_k = dirac_distance(k)
            alpha = {int(c): rng.standard_normal() for c in rng.integers(-5, 15, size=6)}
            z = {int(c): rng.standard_normal() for c in rng.integers(-10, 10, size=8)}
            lhs = abs(_dirac_gap(alpha, z, spikes[k]))
            z_l1 = lp_norm([v for _, v in sorted(z.items()) if v], 1.0)
            cap = eps_k * lp_norm(list(alpha.values()), math.inf) * z_l1
            _require(lhs <= cap + 1e-12, f"weak approximation inequality failed at step {k}")
            if cap > 0:
                worst = max(worst, lhs / cap)
        return f"100 pairs, worst ratio {worst:.4f} of the allowance"

    add("dirac-approximation", "remark91_demo", check_dirac)

    # --- the sup-norm contrast: thin periodic space vs its dense union ------------
    def check_periodic_contrast() -> str:
        thin = estimate_dimension(PeriodicInfty(3), math.inf, [6, 24], [0.5], jobs=jobs)
        for c in thin.cells:
            _require(c.count_hi <= 3, f"periodic count {c.count_hi} above the period")
        _require(thin.corner_hi <= 3 / 24 + 1e-12, "periodic normalized count above 3/|window|")
        dense = scenario_estimate("union_periodic")
        for c in dense.cells:
            _require(
                c.count_lo == c.count_hi == c.window_size,
                "union of periods missed the full windowed count",
            )
        kper = scenario_estimate("ker_periodization")
        _require(
            (kper.corner_lo, kper.corner_hi) == (1.0, 1.0),
            "periodization kernel corner moved off (1, 1)",
        )
        return "thin 3/|window| decay, dense full counts, kernel corner (1, 1)"

    add("periodic-contrast", "periodic", check_periodic_contrast)

    # --- run the plan --------------------------------------------------------------
    if only:
        plans = [p for p in plans if any(tag in p[0] for tag in only)]
    results = []
    for name, scenario, fn in plans:
        try:
            detail = fn()
            results.append(CheckResult(name, scenario, True, detail))
        except Exception as err:  # noqa: BLE001 - collect, never panic
            results.append(CheckResult(name, scenario, False, f"{type(err).__name__}: {err}"))
    return SuiteReport(seed=seed, checks=tuple(results))


def _dirac_gap(alpha: dict, z: dict, spike: np.ndarray) -> float:
    """pairing(alpha, z * spike) - pairing(alpha, z) on dense vectors.

    alpha and z are nonempty scalar maps on Z given as {point: value}; spike
    holds a kernel's values at 0, 1, ..., so z * spike is one np.convolve.
    Both maps are laid out on one frame of points from the least of them.
    """
    first = min(min(alpha), min(z))
    size = max(max(alpha), max(z)) - first + 1
    a, b = np.zeros(size), np.zeros(size)
    a[np.fromiter(alpha, dtype=np.intp, count=len(alpha)) - first] = list(alpha.values())
    b[np.fromiter(z, dtype=np.intp, count=len(z)) - first] = list(z.values())
    return float(a @ np.convolve(b, spike)[:size]) - float(a @ b)
