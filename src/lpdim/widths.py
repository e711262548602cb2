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

An inner body is {M c : |F c|_2 <= 1}: the full matrix F lists the
window's rows first, M is that leading block and E the tail of r
off-window rows.  Every c with E c = 0 keeps its length, so at most r
semiaxes differ from one, and r is the window's boundary layer.  The
squared semiaxes are the eigenvalues of the pencil (M^T M, G), G = F^T F,
and singular_profile never factorises the whole window map.  Translate
models have a banded G, and one of more than a few blocks of
max(bandwidth, 32) columns is factored by a block-tridiagonal Cholesky:
the r semiaxes below one are then sqrt(1 - mu), mu the eigenvalues of the
r x r matrix E G^-1 E^T, each bounded from above by Weyl after the fact.
That bound is the residual of the solve over sqrt(tau), with tau <=
lambda_min(G) certified by a second, shifted factorisation whose own
residual is bounded too, plus the rounding of every product; the other
k - r semiaxes are exactly one.  Smaller or denser Grams are whitened by
W = L^-T from the Cholesky factor L of F^T F, checked after the fact: eta
bounds ||(F W)^T (F W) - I||_2, the rounding of the products that measure
it included, and every semiaxis is shrunk by it.  Either way lower counts
stay certified.  Only where a factorisation fails or its certificate does
not hold does the whitening fall back to eigh(F^T F), keeping eigenvalues
above its own rounding level, (rows + columns) 2^-52 of the largest, so
every kept direction, and with it every unit semiaxis, is genuine.  All of
it is numpy: scipy is loaded only by the p = 1 LPs and the ball-cut
nearest-point solver.

Every rank and nullity here is numerical_rank of a spectrum; the eigh
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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._util import (
    COUNT_TOL,
    check_exponent,
    conjugate_exponent,
    lp_norm,
    matrix_rank,
    numerical_rank,
    rng_for,
    to_float,
)
from .errors import CapabilityError
from .spaces import WindowModel

# windows above this skip the LP route of the l1 inscribed-ball certificate
# (two or more null directions), which solves one HiGHS LP per coordinate
_LP_CLAMP_MAX_DIM = 256

# unit roundoff of float64, 2^-53
_UNIT = np.finfo(float).eps / 2.0

# the banded pencil route of singular_profile factorises F^T F in blocks of
# max(bandwidth, _BLOCK_FLOOR) columns; a Gram of at most _DENSE_BLOCKS such
# blocks keeps the dense route, which is faster there
_BLOCK_FLOOR = 32
_DENSE_BLOCKS = 6

# inverse iteration steps that estimate lambda_min(F^T F) for the shift
_INVERSE_STEPS = 4


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
    _, sv, vh = np.linalg.svd(mat, full_matrices=False)
    sigma_top = float(sv[0])

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
    trials.append(vh[0])
    trials.extend(rng.normal(size=(samples, n_in)))
    lo = 0.0
    for x in trials:
        nx = lp_norm(x, p_in)
        if nx > 0.0:
            lo = max(lo, lp_norm(mat @ x, p_out) / nx)
    return min(lo, hi), hi


# -------------------------------------------------------- ellipsoid profile


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by matmuls.

    numpy has no triangular solve, so blocks are split 2 x 2,
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], down to blocks
    of at most 64 rows, which np.linalg.inv takes whole.
    """
    k = low.shape[0]
    if k <= 64:
        return np.linalg.inv(low)
    h = k // 2
    inv = np.zeros_like(low)
    inv[:h, :h] = _lower_inverse(low[:h, :h])
    inv[h:, h:] = _lower_inverse(low[h:, h:])
    np.negative(inv[h:, h:] @ (low[h:, :h] @ inv[:h, :h]), out=inv[h:, :h])
    return inv


def _orthonormality_defect(full: np.ndarray, w: np.ndarray, q: np.ndarray) -> float:
    """eta >= ||(F W)^T (F W) - I||_2 for the exact product F W, q its computed value.

    A product summing n terms errs entrywise by at most (n + 1) u times the
    product of absolute values, u = 2^-53.  So |q - F W| <= g |F| |W|, g
    from the most nonzeros in a row of F, and ||q - F W||_2 <= e =
    g ||F||_F ||W||_F.  The Gram of q errs by at most gamma |q|^T |q|,
    gamma = (rows + 1) u, of norm at most gamma ||q||_F^2 <= gamma k (1 + x)
    with x = ||q^T q - I||_2; with rho the Frobenius norm of the computed
    Gram minus I, x <= (rho + gamma k) / (1 - gamma k).  Then ||q||_2 <=
    sqrt(1 + x) and eta = x + 2 sqrt(1 + x) e + e^2.
    """
    rows, k = q.shape
    nnz = int((full != 0.0).sum(axis=1).max(initial=0))
    err = (nnz + 1) * _UNIT * float(np.linalg.norm(full)) * float(np.linalg.norm(w))
    gram = q.T @ q
    gram.ravel()[:: k + 1] -= 1.0
    # (k^2 + 4) u covers the subtraction of I, the sum of squares and the scalars
    slack = 1.0 + (k * k + 4) * _UNIT
    gamma_k = (rows + 1) * _UNIT * k
    x = (float(np.linalg.norm(gram)) * slack + gamma_k) / (1.0 - gamma_k)
    return (x + 2.0 * math.sqrt(1.0 + x) * err + err * err) * slack


def _eigh_whitening(full: np.ndarray) -> np.ndarray:
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


def _whitening(full: np.ndarray) -> tuple[np.ndarray, float]:
    """The whitened full map Q = F W (rows x k') and eta >= ||Q^T Q - I||_2.

    W = L^-T from the Cholesky factor L of F^T F, with eta from
    _orthonormality_defect.  eta < 1 makes F W, hence F, of full column
    rank, so all k directions are genuine.  Where Cholesky fails (a
    numerically singular Gram) or eta >= 1, W comes from _eigh_whitening,
    which keeps k' <= k directions and is taken as exact, eta = 0.
    """
    try:
        w = _lower_inverse(np.linalg.cholesky(full.T @ full)).T
    except np.linalg.LinAlgError:
        w = None
    if w is not None:
        q = full @ w
        eta = _orthonormality_defect(full, w, q)
        if eta < 1.0:  # False for NaN too
            return q, eta
    return full @ _eigh_whitening(full), 0.0


def _gamma(terms: int) -> float:
    """(terms + 1) u: a sum of terms products errs by at most this times the
    sum of their absolute values."""
    return (terms + 1) * _UNIT


class _BandGram(NamedTuple):
    """F^T F as a block-tridiagonal matrix of blocks of m columns.

    diag[i] is the symmetric block (i, i), sub[i] the block (i + 1, i); the
    last block is padded with identity rows, which keeps every eigenvalue of
    the Gram and adds only ones.  width is its bandwidth, so a row holds at
    most 2 width + 1 nonzeros; err bounds ||fl(F^T F) - F^T F||_2 and
    abs_norm bounds ||abs(fl(F^T F))||_2.
    """

    diag: np.ndarray
    sub: np.ndarray
    width: int
    err: float
    abs_norm: float


def _band_gram(full: np.ndarray, floor: int, min_blocks: int = 1) -> Optional[_BandGram]:
    """The Gram of F in blocks of m = max(bandwidth, floor) columns, or None
    when that makes fewer than min_blocks blocks or F is zero.

    The bandwidth is the widest column span of a row of F, and each entry
    sums the products of nonzeros that share a row, at most t of them, t
    the most nonzeros in a column.  So it errs by at most
    gamma_t (abs(F)^T abs(F)), of 2-norm at most gamma_t ||F||_1 ||F||_inf.
    """
    n_rows, k = full.shape
    if k <= (min_blocks - 1) * floor:
        return None
    nz = full != 0.0
    # min_blocks blocks need m <= (k - 1) // (min_blocks - 1), so no row may
    # hold more nonzeros than that plus one: a denser F is refused before
    # its nonzeros are listed
    if min_blocks > 1 and np.count_nonzero(nz) > n_rows * ((k - 1) // (min_blocks - 1) + 1):
        return None
    rows, cols = np.divmod(np.flatnonzero(nz), k)  # by row, then by column
    del nz
    if rows.size == 0:
        return None
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    ends = np.append(starts[1:], rows.size) - 1
    width = int(np.max(cols[ends] - cols[starts], initial=0))
    m = max(width, floor)
    nb = -(-k // m)
    if nb < min_blocks:
        return None
    vals = full[rows, cols]
    lo, hi, prods = [cols], [cols], [vals * vals]
    for d in range(1, int(np.max(ends - starts, initial=0)) + 1):
        same = rows[d:] == rows[:-d]
        lo.append(cols[:-d][same])
        hi.append(cols[d:][same])
        prods.append(vals[:-d][same] * vals[d:][same])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    # entry (hi, lo) of block row hi // m, its column lo in that block or the one before
    flat = hi * (2 * m) + lo - (hi // m - 1) * m
    blocks = np.bincount(flat, np.concatenate(prods), minlength=nb * m * 2 * m).reshape(nb, m, 2 * m)
    diag, sub = blocks[:, :, m:].copy(), blocks[1:, :, :m].copy()
    del blocks
    diag += np.tril(diag, -1).swapaxes(1, 2)
    diag.reshape(nb * m, m)[np.arange(k, nb * m), np.arange(k, nb * m) % m] = 1.0
    absd, abss = np.abs(diag), np.abs(sub)
    row_sums = absd.sum(axis=2)
    row_sums[1:] += abss.sum(axis=2)
    row_sums[:-1] += abss.sum(axis=1)
    absf = np.abs(vals)
    err = _gamma(int(np.bincount(cols).max(initial=0)))
    err *= float(np.bincount(cols, absf).max(initial=0) * np.bincount(rows, absf).max(initial=0))
    return _BandGram(diag, sub, width, err, float(row_sums.max()))


def _row_terms(diag: np.ndarray, sub: np.ndarray) -> int:
    """The most nonzeros in a row of the block-bidiagonal matrix with
    diagonal blocks diag and blocks sub below them.  A zero entry adds an
    exact zero to a product, so only these terms round."""
    counts = np.count_nonzero(diag, axis=2)
    counts[1:] += np.count_nonzero(sub, axis=2)
    return int(counts.max())


def _block_cholesky(diag: np.ndarray, sub: np.ndarray, width: int, invert: bool = True):
    """Factor L L^T of the block-tridiagonal matrix (diag, sub) of bandwidth
    width: the diagonal blocks of L, their inverses (None unless invert) and
    the blocks L_{i+1, i}.

    sub_i is zero outside its top-right width x width corner, and so is
    L_{i+1, i} = sub_i L_ii^-T, into which only the trailing corner of
    L_ii^-1 enters.  Raises LinAlgError where a pivot block is not positive
    definite.
    """
    nb, m, _ = diag.shape
    w = max(width, 1)
    ldiag, lsub = np.empty_like(diag), np.zeros_like(sub)
    linv = np.empty_like(diag) if invert else None
    pivot = diag[0]
    for i in range(nb):
        ldiag[i] = np.linalg.cholesky(pivot)
        if invert:
            linv[i] = _lower_inverse(ldiag[i])
        if i + 1 < nb:
            corner = linv[i, m - w :, m - w :] if invert else _lower_inverse(ldiag[i, m - w :, m - w :])
            lsub[i, :w, m - w :] = sub[i, :w, m - w :] @ corner.T
            pivot = diag[i + 1] - lsub[i] @ lsub[i].T
    return ldiag, linv, lsub


def _block_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 rhs, rhs stacked as (blocks, m, columns)."""
    _, linv, lsub = factor
    z = np.empty_like(rhs)
    z[0] = linv[0] @ rhs[0]
    for i in range(1, rhs.shape[0]):
        z[i] = linv[i] @ (rhs[i] - lsub[i - 1] @ z[i - 1])
    z[-1] = linv[-1].T @ z[-1]
    for i in range(rhs.shape[0] - 2, -1, -1):
        z[i] = linv[i].T @ (z[i] - lsub[i].T @ z[i + 1])
    return z


def _gram_floor(gram: _BandGram, factor) -> float:
    """tau <= lambda_min(F^T F), or a value <= 0 where none is certified.

    A few steps of inverse iteration with the factor of fl(F^T F) estimate
    its smallest eigenvalue; 1 / ||G^-1 x|| for unit x lies above it.  Half
    that estimate is the shift s.  If the Cholesky factor L_s of
    B = fl(fl(F^T F) - s I) exists, L_s L_s^T = B + D, so B is at least -||D||
    (Rump, BIT 2006).  ||D|| is bounded after the fact: the computed
    residual's Frobenius norm, plus gamma (abs(L_s) abs(L_s)^T + abs(B)),
    gamma for the nonzeros of a row of L_s and B's entry.  The rounding of
    B's diagonal and of the Gram itself come off too.
    """
    nb, m, _ = gram.diag.shape
    x = rng_for(0, "inverse-iteration").standard_normal((nb, m, 1))
    x /= np.linalg.norm(x)
    for _ in range(_INVERSE_STEPS):
        x = _block_solve(factor, x)
        size = float(np.linalg.norm(x))
        if not 0.0 < size < math.inf:
            return 0.0
        x /= size
    shift = 0.5 / size
    bdiag = gram.diag - shift * np.eye(m)
    try:
        ldiag, _, lsub = _block_cholesky(bdiag, gram.sub, gram.width, invert=False)
    except np.linalg.LinAlgError:
        return 0.0
    resid_diag = ldiag @ ldiag.swapaxes(1, 2)
    resid_diag -= bdiag
    resid_diag[1:] += lsub @ lsub.swapaxes(1, 2)
    resid_sub = lsub @ ldiag[:-1].swapaxes(1, 2)
    resid_sub -= gram.sub
    resid = math.hypot(np.linalg.norm(resid_diag), math.sqrt(2.0) * np.linalg.norm(resid_sub))
    absl, abss = np.abs(ldiag), np.abs(lsub)
    col_sums, row_sums = absl.sum(axis=1), absl.sum(axis=2)
    col_sums[:-1] += abss.sum(axis=1)
    row_sums[1:] += abss.sum(axis=2)
    abs_b = gram.abs_norm + shift
    terms = _row_terms(ldiag, lsub) + 1
    resid_bound = resid * (1.0 + 3.0 * nb * m * m * _UNIT) + _gamma(terms) * (
        float(col_sums.max()) * float(row_sums.max()) + abs_b
    )
    return (shift - resid_bound - _UNIT * abs_b - gram.err) * (1.0 - 4.0 * _UNIT)


def _pencil_profile(model: WindowModel, gram: _BandGram) -> Optional[np.ndarray]:
    """Inner semiaxes from the r x r matrix E G^-1 E^T, G = F^T F held as
    gram, the banded Gram of model.full_matrix; None where nothing is certified.

    The squared semiaxes are the eigenvalues of the pencil (M^T M, G) =
    (G - E^T E, G).  Each c with E c = 0 is an eigenvector for 1, so k - r
    of them are one and the other r are 1 - mu, mu the top eigenvalues of
    S = E G^-1 E^T, 0 <= mu <= 1 as E^T E <= G.  Y solves G Y = E^T up to
    the residual R = E^T - G Y, so S - E Y = E G^-1 R, of norm at most
    ||R|| / sqrt(tau): ||E G^-1/2|| <= 1 and tau <= lambda_min(G) from
    _gram_floor.  By Weyl each mu is at most the computed eigenvalue of
    sym(fl(E Y)) plus that, plus the rounding of R (2 width + 2 terms an
    entry), of G, of E Y, of the symmetrisation and of the r x r eigh.
    Returns None when a factorisation fails or tau <= 0.
    """
    full = model.full_matrix
    k = full.shape[1]
    edge = full[model.ambient_dim :]
    r = edge.shape[0]
    nb, m, _ = gram.diag.shape
    try:
        factor = _block_cholesky(gram.diag, gram.sub, gram.width)
    except np.linalg.LinAlgError:
        return None
    tau = _gram_floor(gram, factor)
    if not tau > 0.0:  # False for NaN too
        return None
    if r == 0:
        return np.ones(k)
    rhs = np.zeros((nb * m, r))
    rhs[:k] = edge.T
    rhs = rhs.reshape(nb, m, r)
    y = _block_solve(factor, rhs)
    gy = gram.diag @ y
    gy[1:] += gram.sub @ y[:-1]
    gy[:-1] += gram.sub.swapaxes(1, 2) @ y[1:]
    gy -= rhs
    y = y.reshape(nb * m, r)[:k]
    y_norm, edge_norm = float(np.linalg.norm(y)), float(np.linalg.norm(edge))
    # covers the rounding of the norms and of the sums below
    slack = 1.0 + (3 * nb * m * max(m, r) + 8) * _UNIT
    resid = float(np.linalg.norm(gy)) + _gamma(2 * gram.width + 2) * (gram.abs_norm * y_norm + edge_norm)
    resid += gram.err * y_norm
    prod = edge @ y
    sym = 0.5 * (prod + prod.T)
    sym_norm = float(np.linalg.norm(sym))
    nnz = int((edge != 0.0).sum(axis=1).max())
    drift = resid * slack / math.sqrt(tau) + _gamma(nnz) * edge_norm * y_norm
    drift = (drift + (_UNIT + (r + 1) * np.finfo(float).eps) * sym_norm) * slack
    mu = np.linalg.eigvalsh(sym)[max(r - k, 0) :] + drift
    s = np.sqrt(np.maximum(1.0 - mu, 0.0))
    return np.concatenate([np.ones(k - s.size), s])


def ellipsoid_map(model: WindowModel) -> np.ndarray:
    """Matrix B with {B u : |u|_2 <= 1} the model body in l2 terms.

    For inner models B = M W / sqrt(1 + eta), the window rows of the
    whitened full map Q = F W scaled down: for |u| <= 1 the coefficients
    c = W u / sqrt(1 + eta) have |F c| <= 1, so B carries the restriction of
    the genuine span ball, inside the body and equal to it up to the factor
    sqrt((1 + eta) / (1 - eta)).  For outer and exact models the body is
    span cap ball and B is an orthonormal basis.
    """
    if model.polarity in ("outer", "exact"):
        return _orthonormal_span(model.matrix)
    q, eta = _whitening(model.full_matrix)
    return q[: model.ambient_dim] / math.sqrt(1.0 + eta)


def singular_profile(model: WindowModel) -> np.ndarray:
    """Semiaxes of the model body seen through the l2 window, descending.

    Outer and exact bodies are span cap ball, one unit semiaxis per rank.
    An inner body's squared semiaxes are the eigenvalues of the pencil
    (M^T M, F^T F), and only the r off-window rows E of F can make them
    shorter than one.  Where F^T F forms more than _DENSE_BLOCKS blocks of
    max(bandwidth, _BLOCK_FLOOR) columns, _pencil_profile reads them from
    the r x r matrix E (F^T F)^-1 E^T with a certified bound, never forming
    a k x k product.  Elsewhere, and where that certificate fails, they are
    the singular values of B = M W for a whitening W.  F W is orthonormal, so
    B^T B = I - (E W)^T (E W): every direction with E W v = 0 is a semiaxis
    of exactly one, and only the r' = min(r, k') right singular directions V
    of E W can be shorter.  The profile is k' - r' ones plus the singular
    values of M W V, an n x r' map.  With r >= k' V spans everything, so V
    is taken as the identity and this is the SVD of B itself.

    The squared semiaxes are the eigenvalues of the pencil
    ((M W)^T M W, (F W)^T F W).  With ||(F W)^T (F W) - I||_2 <= eta, its
    Rayleigh quotient on the span of the unit directions and the top i
    directions of M W V is at least (s_i^2 - eta^2 / (1 - eta)) / (1 + eta).
    By Courant-Fischer each s, the ones included, may be lowered to the root
    of that, and (s - eta / sqrt(1 - eta)) / sqrt(1 + eta) lies below it.
    """
    if model.polarity in ("outer", "exact"):
        return np.ones(_orthonormal_span(model.matrix).shape[1])
    full = model.full_matrix
    gram = _band_gram(full, _BLOCK_FLOOR, _DENSE_BLOCKS + 1)
    if gram is None:
        q, eta = _whitening(full)
    else:
        s = _pencil_profile(model, gram)
        if s is not None:
            return s[s > COUNT_TOL]
        q, eta = full @ _eigh_whitening(full), 0.0
    k_kept = q.shape[1]
    window, edge = q[: model.ambient_dim], q[model.ambient_dim :]
    if edge.shape[0] < k_kept:
        window = window @ np.linalg.svd(edge, full_matrices=False)[2].T
    s = np.linalg.svd(window, compute_uv=False)
    # restriction cannot expand a full-space unit vector, so clip the
    # harmless eigenvalue noise that lands a hair above one
    s = np.concatenate([np.ones(k_kept - window.shape[1]), np.minimum(s, 1.0)])
    s = s / math.sqrt(1.0 + eta) - eta / math.sqrt((1.0 - eta) * (1.0 + eta))
    return s[s > COUNT_TOL]


def _check_eps(eps) -> None:
    """Refuse a threshold that is not a positive number.  NaN fails every
    comparison, so a test of eps <= 0 would let it through to made-up
    counts; a bool is not a scale."""
    if isinstance(eps, (bool, np.bool_)) or not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


def seminorm_cut_count(b: np.ndarray, rows: Sequence[int], eps: float) -> int:
    """Diameter cut count of the ellipsoid body under the row-subset seminorm.

    Cutting the top singular directions of the row slice certifies the upper
    bound; restricting any eps-cut to the slice certifies the lower one, so
    for ellipsoids this count is the exact seminorm analogue.
    """
    _check_eps(eps)
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
    _check_eps(eps)
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
    full = model.full_matrix
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
    n_eff = max(1, int(np.sum(np.any(model.matrix != 0.0, axis=1))))
    full_eff = max(1, int(np.sum(np.any(model.full_matrix != 0.0, axis=1))))
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
    _check_eps(eps)
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
    _check_eps(eps)
    if model.polarity in ("outer", "exact"):
        return _width_counts(np.ones(model.rank()), eps)
    return _width_counts(singular_profile(model), eps)


def _width_counts(sigma: np.ndarray, eps: float) -> WidthCounts:
    """The four counts of an ellipsoid with semiaxes sigma at scale eps."""
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
    nullity = n - matrix_rank(op)
    bound = n * defect * defect
    return KernelDefectReport(
        defect=defect,
        nullity=nullity,
        bound=bound,
        consistent=bool(nullity <= bound + COUNT_TOL),
    )
