"""Width counts for windowed bodies, with certified lower/upper brackets.

The central quantity is the diameter cut count of a body X inside a normed
window: the smallest codimension of a linear subspace whose intersection
with X has diameter at most eps.  For ellipsoids in the Euclidean window it
equals the number of semiaxes sigma with 2 sigma > eps, which is what makes
p = 2 exactly computable; ldim_hilbert is that case of ldim_bracket.  Away
from p = 2 the module returns a bracket obtained from norm-comparison
constants on the coordinate count actually carrying the body, plus a
certificate for inscribed l1 balls that pins full-rank bodies down exactly
at p = 1.  That certificate lifts every window coordinate at once through
one SVD (pseudoinverse plus null-space basis), minimises each lift's
full-space l1 cost over the null space (closed form for up to one null
direction, a small LP per coordinate beyond), and folds the recomputed
residual of the final lifts into the radius.

An inner body is {M c : |F c|_2 <= 1}, M the window rows of the full
matrix F and E its r off-window rows.  Every c with E c = 0 keeps its
length, so at most r semiaxes differ from one; singular_profile factorises
only E and the r boundary directions it picks out, never the whole window
map, and r is the window's boundary layer.  The whitening of F^T F keeps
eigenvalues above its own rounding level, (rows + columns) 2^-52 of the
largest, so every kept direction, and with it every unit semiaxis, is
genuine.

Every rank and nullity here is numerical_rank of a spectrum; the whitening
cutoff is the one eigenvalue decision outside it.

Also here: entrywise and operator norms (exact closed forms where they
exist, certified brackets elsewhere), the Mazur duality map, nearest points
in spans (damped Newton) and in ball-truncated spans (SLSQP), each with a
KKT residual certificate, and a defect check for almost-identity operators.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import (
    COUNT_TOL,
    check_exponent,
    conjugate_exponent,
    lp_norm,
    numerical_rank,
    rng_for,
    to_float,
)
from .errors import CapabilityError
from .spaces import WindowModel

# windows above this skip the LP route of the l1 inscribed-ball certificate
# (two or more null directions), which solves one HiGHS LP per coordinate
_LP_CLAMP_MAX_DIM = 256


def entrywise_norm(values: np.ndarray, p: float) -> float:
    """Coordinate p-norm of an array, flattened."""
    check_exponent(p)
    return lp_norm(np.asarray(values, dtype=float).ravel(), p)


# ------------------------------------------------------------ operator norm


def _exact_operator_norm(mat: np.ndarray, p_in: float, p_out: float) -> Optional[float]:
    if mat.size == 0:
        return 0.0
    if p_in == 1.0:
        return float(max(lp_norm(mat[:, j], p_out) for j in range(mat.shape[1])))
    if p_out == math.inf:
        q = conjugate_exponent(p_in)
        return float(max(lp_norm(mat[i, :], q) for i in range(mat.shape[0])))
    if p_in == 2.0 and p_out == 2.0:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    return None


def operator_norm(
    mat: np.ndarray, p_in: float, p_out: float, samples: int = 1000, seed: int = 0
) -> tuple[float, float]:
    """Certified bracket (lo, hi) for the p_in -> p_out operator norm.

    Exact (lo == hi) when p_in = 1, p_out = inf, or both exponents are 2.
    Otherwise lo comes from seeded trial vectors and hi from the smallest of
    several interpolation and embedding bounds, so lo <= norm <= hi always.
    """
    check_exponent(p_in)
    check_exponent(p_out)
    mat = np.asarray(mat, dtype=float)
    exact = _exact_operator_norm(mat, p_in, p_out)
    if exact is not None:
        return exact, exact
    n_out, n_in = mat.shape

    one_to_out = _exact_operator_norm(mat, 1.0, p_out)
    in_to_inf = _exact_operator_norm(mat, p_in, math.inf)
    one_to_one = _exact_operator_norm(mat, 1.0, 1.0)
    inf_to_inf = _exact_operator_norm(mat, math.inf, math.inf)
    sigma_top = float(np.linalg.svd(mat, compute_uv=False)[0])

    inv_in = 0.0 if p_in == math.inf else 1.0 / p_in
    inv_out = 0.0 if p_out == math.inf else 1.0 / p_out
    uppers = [
        n_in ** (1.0 - inv_in) * one_to_out,
        n_out ** inv_out * in_to_inf,
        n_out ** max(0.0, inv_out - 0.5) * n_in ** max(0.0, 0.5 - inv_in) * sigma_top,
    ]
    if p_in == p_out:
        uppers.append(one_to_one ** inv_in * inf_to_inf ** (1.0 - inv_in))
    hi = float(min(uppers))

    rng = rng_for(seed, "operator-norm")
    trials = [np.eye(n_in)[:, j] for j in range(n_in)]
    _, _, vh = np.linalg.svd(mat)
    trials.append(vh[0])
    trials.extend(rng.normal(size=(samples, n_in)))
    lo = 0.0
    for x in trials:
        nx = lp_norm(x, p_in)
        if nx > 0.0:
            lo = max(lo, lp_norm(mat @ x, p_out) / nx)
    return min(lo, hi), hi


# -------------------------------------------------------- ellipsoid profile


def _whitening(full: np.ndarray) -> np.ndarray:
    """W (k x k') with F W orthonormal and the same span as F, from eigh(F^T F).

    Only eigenvalues above gamma * lambda_max are kept, gamma = (rows + k)
    2^-52 the rounding level of the Gram and its eigh: below it a computed
    eigenvalue cannot be told from a null one, and a kept noise direction
    would pose as a semiaxis.  Dropping a genuine direction only shrinks the
    inner body, so lower counts stay certified.
    """
    rows, k = full.shape
    lam, vecs = np.linalg.eigh(full.T @ full)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam_max <= 0.0:
        return np.zeros((k, 0))
    keep = lam > lam_max * (rows + k) * np.finfo(float).eps
    return vecs[:, keep] / np.sqrt(lam[keep])


def _edge_rows(model: WindowModel) -> np.ndarray:
    """The rows E of an inner model's full matrix at points off its window."""
    if model.full_matrix is None:
        return model.matrix[:0]
    inside = model.window.coord_set
    support = model.full_support
    off = np.fromiter((c not in inside for c in support), dtype=bool, count=len(support))
    return model.full_matrix[np.repeat(off, model.fiber_dim)]


def ellipsoid_map(model: WindowModel) -> np.ndarray:
    """Matrix B with the model body equal to {B u : |u|_2 <= 1} in l2 terms.

    For inner models B = M W, the window rows M of the full matrix F times
    the whitening W of F^T F, so B carries the restriction of the genuine
    span ball.  For outer and exact models the body is span cap ball and B
    is an orthonormal basis.
    """
    mat = model.matrix
    if model.polarity in ("outer", "exact"):
        return _orthonormal_span(mat)
    full = model.full_matrix if model.full_matrix is not None else mat
    return mat @ _whitening(full)


def singular_profile(model: WindowModel) -> np.ndarray:
    """Semiaxes of the model body seen through the l2 window, descending.

    For inner models these are the singular values of B = M W, found from
    the r off-window rows E of F alone.  F W is orthonormal, so
    B^T B = I - (E W)^T (E W): every direction with E W v = 0 is a semiaxis
    of exactly one, and only the r' = min(r, k') right singular directions V
    of E W can be shorter.  The profile is k' - r' ones plus the singular
    values of M W V, an n x r' map.  With r >= k' V spans everything, so V
    is taken as the identity and this is the SVD of B itself.  Outer and
    exact bodies are span cap ball, one unit semiaxis per rank.
    """
    if model.polarity in ("outer", "exact"):
        return np.ones(_orthonormal_span(model.matrix).shape[1])
    full = model.full_matrix if model.full_matrix is not None else model.matrix
    w = _whitening(full)
    k_kept = w.shape[1]
    if full.shape[0] - model.matrix.shape[0] < k_kept:
        w = w @ np.linalg.svd(_edge_rows(model) @ w, full_matrices=False)[2].T
    s = np.linalg.svd(model.matrix @ w, compute_uv=False)
    # restriction cannot expand a full-space unit vector, so clip the
    # harmless eigenvalue noise that lands a hair above one
    s = np.concatenate([np.ones(k_kept - w.shape[1]), np.minimum(s, 1.0)])
    return s[s > COUNT_TOL]


def seminorm_cut_count(b: np.ndarray, rows: Sequence[int], eps: float) -> int:
    """Diameter cut count of the ellipsoid body under the row-subset seminorm.

    Cutting the top singular directions of the row slice certifies the upper
    bound; restricting any eps-cut to the slice certifies the lower one, so
    for ellipsoids this count is the exact seminorm analogue.
    """
    sliced = np.asarray(b, dtype=float)[list(rows), :]
    if sliced.size == 0:
        return 0
    s = np.linalg.svd(sliced, compute_uv=False)
    return int(np.sum(2.0 * s > eps))


# ------------------------------------------------------------- width counts


def ldim_hilbert(model: WindowModel, eps: float) -> int:
    """Exact diameter cut count at p = 2: ldim_bracket's lo, equal to its hi.

    Semiaxes within the counting guard of the boundary are treated as ties
    and excluded, so a tie survives the roundoff in the whitening step.
    """
    if model.p != 2.0:
        raise CapabilityError("the exact route needs p = 2; use ldim_bracket")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return ldim_bracket(model, eps)[0]


def inscribed_l1_radius(model: WindowModel) -> float:
    """Radius of the largest l1 window ball certified inside an inner body.

    The body holds M c for every span coefficient vector c with full-space
    l1 norm ||F c||_1 <= 1 (M the window rows, F the full matrix).  One full
    SVD of M gives the least-squares lift C = M^+ of every window coordinate
    and an orthonormal basis N of ker M, so the lifts of coordinate i are
    exactly C e_i + N t and the cheapest costs min_t ||F C e_i + F N t||_1.
    With no null space the lift is unique; with one null direction the
    minimiser is a weighted median of breakpoints, exact and vectorised over
    all coordinates; with more, one small HiGHS LP per coordinate solves it.

    The final coefficients X are then checked, not trusted: with residual
    delta = ||M X - I||_{1->1} and worst cost w = max_i ||F X e_i||_1, both
    widened by the rounding of their own products, the body holds
    (1/w)(I + R) B_1, which contains ((1 - delta)/w) B_1 by the Neumann
    series.  Returns 0 when no certificate is available (rank-deficient
    restriction, LP route on an oversized window, LP failure, delta >= 1).
    """
    if model.polarity != "inner" or model.p != 1.0 or model.num_columns == 0:
        return 0.0
    mat = model.matrix
    n, k = mat.shape
    u, s, vt = np.linalg.svd(mat)
    if n == 0 or numerical_rank(s, mat.shape) < n:
        return 0.0
    d = k - n
    if d >= 2 and n > _LP_CLAMP_MAX_DIM:
        return 0.0
    full = model.full_matrix if model.full_matrix is not None else mat
    coeffs = vt[:n].T @ (u.T / s[:, None])
    if d > 0:
        null = vt[n:].T
        solve = _weighted_median_shifts if d == 1 else _lp_shifts
        shifts = solve(full @ coeffs, full @ null)
        if shifts is None:
            return 0.0
        coeffs = coeffs + null @ shifts
    # entrywise, |fl(A B) - A B| <= gamma |A| |B|; gamma also covers the
    # subtraction of I and the column sums
    gamma = (k + full.shape[0] + 2) * np.finfo(float).eps
    abs_coeffs = np.abs(coeffs)
    resid = np.abs(mat @ coeffs - np.eye(n)) + gamma * (np.abs(mat) @ abs_coeffs)
    delta = float(np.max(np.sum(resid, axis=0))) * (1.0 + gamma)
    cost = np.abs(full @ coeffs) + gamma * (np.abs(full) @ abs_coeffs)
    worst = float(np.max(np.sum(cost, axis=0))) * (1.0 + gamma)
    if delta >= 1.0 or worst <= 0.0:
        return 0.0
    return (1.0 - delta) / worst


def _weighted_median_shifts(base: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Per column i, the t minimising ||base[:, i] + t direction||_1, as a row.

    direction is one column b; the objective is sum_r |b_r| |t + a_r / b_r|
    over rows with b_r != 0, so a weighted median of the breakpoints
    -a_r / b_r with weights |b_r| is a minimiser.
    """
    b = direction[:, 0]
    live = b != 0.0
    if not np.any(live):
        return np.zeros((1, base.shape[1]))
    points = -base[live] / b[live, None]
    order = np.argsort(points, axis=0, kind="stable")
    weights = np.cumsum(np.abs(b[live])[order], axis=0)
    pick = np.argmax(weights >= 0.5 * weights[-1], axis=0)
    return np.take_along_axis(points, order, axis=0)[pick, np.arange(base.shape[1])][None, :]


def _lp_shifts(base: np.ndarray, directions: np.ndarray) -> Optional[np.ndarray]:
    """Per column i, a t minimising ||base[:, i] + directions t||_1 by HiGHS.

    Variables are t (free) and absolute-value slacks over the rows; returns
    None when any program fails.
    """
    from scipy.optimize import linprog

    rows, d = directions.shape
    objective = np.concatenate([np.zeros(d), np.ones(rows)])
    a_ub = np.block([[directions, -np.eye(rows)], [-directions, -np.eye(rows)]])
    bounds = [(None, None)] * d + [(0.0, None)] * rows
    shifts = np.empty((d, base.shape[1]))
    for i in range(base.shape[1]):
        res = linprog(
            objective, A_ub=a_ub, b_ub=np.concatenate([-base[:, i], base[:, i]]),
            bounds=bounds, method="highs",
        )
        if not res.success:
            return None
        shifts[:, i] = res.x[:d]
    return shifts


@dataclass(frozen=True)
class BracketProfile:
    """Everything eps-independent about a model body, cached once per window."""

    p: float
    polarity: str
    rank: int
    sigma: tuple[float, ...]
    window_rows: int
    window_support: int
    full_support: int
    l1_radius: float


def bracket_profile(model: WindowModel) -> BracketProfile:
    if model.polarity in ("outer", "exact"):
        return BracketProfile(
            p=model.p,
            polarity=model.polarity,
            rank=model.rank(),
            sigma=(),
            window_rows=model.matrix.shape[0],
            window_support=0,
            full_support=0,
            l1_radius=0.0,
        )
    sigma = singular_profile(model)
    full = model.full_matrix if model.full_matrix is not None else model.matrix
    n_eff = max(1, int(np.sum(np.any(model.matrix != 0.0, axis=1))))
    full_eff = max(1, int(np.sum(np.any(full != 0.0, axis=1))))
    radius = 0.0
    if model.p == 1.0:
        radius = inscribed_l1_radius(model)
    return BracketProfile(
        p=model.p,
        polarity="inner",
        rank=int(sigma.size),
        sigma=tuple(float(s) for s in sigma),
        window_rows=model.matrix.shape[0],
        window_support=n_eff,
        full_support=full_eff,
        l1_radius=radius,
    )


def bracket_counts(profile: BracketProfile, eps: float) -> tuple[int, int]:
    """Certified (lo, hi) diameter cut counts from a cached profile.

    Exact for exact and outer polarities (span cap ball: the count is the
    rank below diameter two) and at p = 2.  Elsewhere the ellipsoid profile
    is squeezed through norm-comparison constants: the support size of the
    full-space columns rescales the body, the support size inside the window
    rescales the metric.  At p = 1 a full-rank inscribed l1 ball upgrades the
    lower bound to the whole window dimension.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if eps >= 2.0:
        return 0, 0
    if profile.polarity in ("outer", "exact"):
        return profile.rank, profile.rank
    sigma = np.asarray(profile.sigma)
    if sigma.size == 0:
        return 0, 0
    if profile.p == 2.0:
        k = int(np.sum(2.0 * sigma > eps + COUNT_TOL))
        return k, k

    inv_p = 0.0 if profile.p == math.inf else 1.0 / profile.p
    gap = 0.5 - inv_p  # negative below p = 2, positive above
    if gap <= 0.0:
        body_shrink = profile.full_support ** gap   # scaled ellipsoid inside the body
        metric_shrink = profile.window_support ** gap  # p-metric dominates l2
        lo = int(np.sum(2.0 * body_shrink * sigma > eps))
        hi = int(np.sum(2.0 * sigma > eps * metric_shrink))
    else:
        body_grow = profile.full_support ** gap     # body inside a blown-up ellipsoid
        metric_grow = profile.window_support ** gap
        lo = int(np.sum(2.0 * sigma > eps * metric_grow))
        hi = int(np.sum(2.0 * body_grow * sigma > eps))

    if profile.p == 1.0 and lo < profile.window_rows:
        if profile.l1_radius > 0.0 and eps < 2.0 * profile.l1_radius - 1e-6:
            lo = profile.window_rows
    hi = max(lo, hi)
    return lo, hi


def ldim_bracket(model: WindowModel, eps: float) -> tuple[int, int]:
    """Certified (lo, hi) for the diameter cut count of the model body."""
    return bracket_counts(bracket_profile(model), eps)


@dataclass(frozen=True)
class WidthCounts:
    """Four ellipsoid width counts at a common scale (p = 2 window).

    inscribed: largest dimension of a slice containing an eps ball
    thickness: largest dimension with all semiaxes at least eps
    radius_cut: smallest codimension with section radius at most eps
    diameter_cut: smallest codimension with section diameter at most eps
    """

    inscribed: int
    thickness: int
    radius_cut: int
    diameter_cut: int


def four_widths(model: WindowModel, eps: float) -> WidthCounts:
    if model.p != 2.0:
        raise CapabilityError("width quartet is computed in the p = 2 window")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if model.polarity in ("outer", "exact"):
        sigma = np.ones(model.rank())
    else:
        sigma = singular_profile(model)
    # ties include for the inscribed counts, exclude for the cut counts,
    # with the counting guard absorbing whitening roundoff either way
    at_least = int(np.sum(sigma >= eps - COUNT_TOL))
    return WidthCounts(
        inscribed=at_least,
        thickness=at_least,
        radius_cut=int(np.sum(sigma > eps + COUNT_TOL)),
        diameter_cut=int(np.sum(2.0 * sigma > eps + COUNT_TOL)) if eps < 2.0 else 0,
    )


# ----------------------------------------------------------------- duality


def mazur(values: np.ndarray, p: float) -> np.ndarray:
    """Duality map sign(x) |x|^(p-1); pairs to the p-th power of the norm."""
    if p == math.inf:
        raise CapabilityError("the duality map is used at finite p")
    check_exponent(p)
    x = np.asarray(values, dtype=float)
    return np.sign(x) * np.abs(x) ** (p - 1.0)


# ------------------------------------------------------------ nearest point


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rules of nearest_point: max_iter bounds the Newton steps or
    SLSQP iterations, tol is the first-order residual to reach.  Bad values
    raise ValueError."""

    max_iter: int = 10000
    tol: float = 1e-8

    def __post_init__(self):
        kinds = {"max_iter": (numbers.Integral, "integer"), "tol": (numbers.Real, "number")}
        for name, (kind, noun) in kinds.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not 0 < to_float(value) < math.inf:
                raise ValueError(f"{name} must be a positive finite {noun}, got {value!r}")


@dataclass(frozen=True, eq=False)
class NearestPointResult:
    point: np.ndarray
    coefficients: np.ndarray
    distance: float
    kkt_residual: float
    multiplier: float
    iterations: int
    converged: bool


def _orthonormal_span(basis: np.ndarray) -> np.ndarray:
    """The first numerical_rank left singular vectors of basis."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] == 0:
        return np.zeros((basis.shape[0] if basis.ndim == 2 else 0, 0))
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    # select by index array, not slice: the F-contiguous copy fixes the
    # rounding of later products, which reports depend on bit for bit
    return u[:, np.arange(numerical_rank(s, basis.shape))]


def _kkt_state(q: np.ndarray, target: np.ndarray, x: np.ndarray, p: float, ball: bool):
    """First-order residual: plain pairing residual on a subspace, the
    complementary-slackness form when the unit ball is part of the body."""
    grad_fit = q.T @ mazur(target - x, p)
    lam = 0.0
    if ball and lp_norm(x, p) >= 1.0 - 1e-9:
        grad_ball = q.T @ mazur(x, p)
        denom = float(np.dot(grad_ball, grad_ball))
        if denom > 0.0:
            lam = max(0.0, float(np.dot(grad_fit, grad_ball)) / denom)
        grad_fit = grad_fit - lam * grad_ball
    value = float(np.max(np.abs(grad_fit))) if grad_fit.size else 0.0
    return value, lam


def _clamped(q, a, p):
    """a rescaled onto the unit ball when q a lies outside it."""
    nn = lp_norm(q @ a, p)
    return a / nn if nn > 1.0 else a


def _newton_in_span(q, target, a, p, cfg):
    """Damped Newton on phi(a) = |target - q a|_p^p; returns (a, steps).

    With r = target - q a the gradient is -p q^T mazur(r) and the Hessian
    p (p - 1) q^T diag(|r|^(p-2)) q.  Below p = 2 that weight is infinite at
    a zero residual, so each |r_i| is taken at least at the rounding level
    2^-52 max|r|.  Steps are halved until phi does not rise; an equal phi
    passes, since near an optimum with a residual coordinate close to zero
    phi stops showing progress before the gradient reaches tol.  Stops at
    tol or when a step leaves a unchanged.
    """
    value = lp_norm(target - q @ a, p) ** p
    for steps in range(cfg.max_iter):
        r = target - q @ a
        grad = q.T @ mazur(r, p)
        if np.max(np.abs(grad)) <= cfg.tol:
            return a, steps
        size = np.maximum(np.abs(r), np.max(np.abs(r)) * np.finfo(float).eps)
        hess = (q.T * ((p - 1.0) * size ** (p - 2.0))) @ q
        delta, scale = np.linalg.lstsq(hess, grad, rcond=None)[0], 1.0
        while (trial := lp_norm(target - q @ (a + scale * delta), p) ** p) > value:
            scale *= 0.5
        if np.array_equal(a + scale * delta, a):
            return a, steps
        a, value = a + scale * delta, trial
    return a, cfg.max_iter


def _slsqp_in_ball(q, target, a, p, cfg):
    """SLSQP on |target - q a|_p^p subject to |q a|_p^p <= 1; returns
    (a, iterations), the start itself if scipy fails."""
    from scipy.optimize import minimize

    ball = {"type": "ineq", "fun": lambda av: 1.0 - lp_norm(q @ av, p) ** p,
            "jac": lambda av: -p * (q.T @ mazur(q @ av, p))}
    try:
        out = minimize(
            lambda av: lp_norm(target - q @ av, p) ** p, a, method="SLSQP",
            jac=lambda av: -p * (q.T @ mazur(target - q @ av, p)), constraints=[ball],
            options={"maxiter": cfg.max_iter, "ftol": 1e-16},
        )
    except Exception:  # noqa: BLE001 - the residual reports the truth
        return a, 0
    return _clamped(q, np.asarray(out.x, dtype=float), p), int(out.nit)


def nearest_point(
    target: np.ndarray,
    basis: np.ndarray,
    p: float,
    settings: Optional[SolverSettings] = None,
    within_ball: bool = True,
) -> NearestPointResult:
    """Best p-norm approximation of target from a span, optionally ball-cut.

    Minimizes the p distance from target over span(basis), intersected with
    the unit ball when within_ball is set.  Both problems start from the l2
    projection, clamped onto the ball in ball mode, which at p = 2 is the
    answer.  Otherwise the subspace problem takes damped Newton steps and
    the ball problem runs SLSQP.  The result always carries a first-order
    residual (the pairing residual on a subspace, its KKT analogue on the
    ball) instead of raising; callers needing guarantees check the
    converged flag.
    """
    if not (1.0 < p < math.inf):
        raise CapabilityError("nearest_point needs p strictly between 1 and infinity")
    cfg = settings or SolverSettings()
    target = np.asarray(target, dtype=float)
    q = _orthonormal_span(basis)
    a = q.T @ target
    if within_ball:
        a = _clamped(q, a, p)
    iters = 0
    if p != 2.0 and _kkt_state(q, target, q @ a, p, within_ball)[0] > cfg.tol:
        a, iters = (_slsqp_in_ball if within_ball else _newton_in_span)(q, target, a, p, cfg)
    x = q @ a
    resid, lam = _kkt_state(q, target, x, p, within_ball)
    return NearestPointResult(
        point=x,
        coefficients=a,
        distance=lp_norm(target - x, p),
        kkt_residual=resid,
        multiplier=lam,
        iterations=iters,
        converged=bool(p == 2.0 or resid <= cfg.tol),
    )


# --------------------------------------------------------------- defect law


@dataclass(frozen=True)
class KernelDefectReport:
    defect: float
    nullity: int
    bound: float
    consistent: bool


def kernel_defect_check(op: np.ndarray, p: float) -> KernelDefectReport:
    """Almost-identity operators have small kernels: nullity <= N defect^2.

    defect measures columns of op against the standard basis in the p norm;
    for p in [1, 2] that dominates the Euclidean defect, and the Frobenius
    distance from the identity to any matrix with k-dimensional kernel is at
    least sqrt(k), which gives the stated bound.
    """
    check_exponent(p)
    if p > 2.0:
        raise CapabilityError("the defect law is certified for p in [1, 2]")
    op = np.asarray(op, dtype=float)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("kernel_defect_check expects a square matrix")
    n = op.shape[0]
    if n == 0:
        return KernelDefectReport(0.0, 0, 0.0, True)
    gap = op - np.eye(n)
    defect = float(max(lp_norm(gap[:, j], p) for j in range(n)))
    nullity = n - numerical_rank(np.linalg.svd(op, compute_uv=False), op.shape)
    bound = n * defect * defect
    return KernelDefectReport(
        defect=defect,
        nullity=nullity,
        bound=bound,
        consistent=bool(nullity <= bound + COUNT_TOL),
    )
