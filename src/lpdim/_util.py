"""Small shared helpers: the rank rule, p-norms, conjugate exponents, RNG streams."""

from __future__ import annotations

import math
import numbers
import zlib

import numpy as np

# Absolute slack for comparisons of the form  |F'| >= (1 - eps) * |F|  so that
# decimal eps values behave as written instead of as binary approximations.
COUNT_TOL = 1e-9


def numerical_rank(s, shape) -> int:
    """Count of singular values above max(m, n) 2^-52 s[0] (s descending) for
    an m x n matrix, 0 for an empty or zero spectrum: the one rule for every
    rank and nullity, numpy's matrix_rank rule.  By Weyl's inequality a
    computed singular value is within that rounding level of the true one,
    so every value above it is genuinely nonzero."""
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > s[0] * max(shape) * np.finfo(float).eps))


def matrix_rank(mat) -> int:
    """numerical_rank of mat's singular values, 0 for an empty matrix."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return numerical_rank(np.linalg.svd(mat, compute_uv=False), mat.shape)


def lp_norm(x, p: float) -> float:
    """The coordinate lp norm of a flat array (max norm for p = inf)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(x)))
    if p == 1:
        return float(np.sum(np.abs(x)))
    if p == 2:
        return float(np.linalg.norm(x))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def column_lp_norms(mat, p: float) -> np.ndarray:
    """lp_norm of every column of a 2-D array, bit for bit.

    lp_norm reduces a contiguous copy of its argument, so the columns are
    laid out as contiguous rows first, 128 at a time to keep that copy
    small: along those np.sum is pairwise as for one column, and the
    stacked (1 x n)(n x 1) products at p = 2 run the same BLAS dot.  The
    final root is taken per scalar, as lp_norm does.
    """
    mat = np.asarray(mat, dtype=float)
    norms = np.empty(mat.shape[1])
    for j in range(0, mat.shape[1], 128):
        rows = np.ascontiguousarray(mat[:, j : j + 128].T)
        if p == 2:
            part = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
        elif math.isinf(p):
            part = np.abs(rows).max(axis=1, initial=0.0)
        elif p == 1:
            part = np.abs(rows).sum(axis=1)
        else:
            part = [s ** (1.0 / p) for s in (np.abs(rows) ** p).sum(axis=1)]
        norms[j : j + 128] = part
    return norms


def conjugate_exponent(p: float) -> float:
    """Holder conjugate: 1 <-> inf, otherwise p / (p - 1)."""
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def to_float(value) -> float:
    """float(value), reading an integer past the float range as +-inf, as
    JSON reads 1e999, so huge integers and huge floats mean the same."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def to_int(value, what: str) -> int:
    """value as an int, an integral float such as 4.0 included; anything
    else, bools too, raises a ValueError naming what."""
    if not isinstance(value, bool):
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, numbers.Real) and to_float(value).is_integer():
            return int(value)
    raise ValueError(f"expected finite integers for {what}, got {value!r}")


def check_exponent(p: float) -> float:
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"exponent p must be a number, got {p!r}")
    p = to_float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"exponent p must lie in [1, inf], got {p}")
    return p


def rng_for(seed: int, *tags) -> np.random.Generator:
    """A generator whose stream depends only on (seed, tags).

    Tags may be strings or integers; strings are hashed with crc32 so the
    derivation is stable across processes and platforms.
    """
    words = [int(seed) & 0xFFFFFFFF]
    for t in tags:
        if isinstance(t, str):
            words.append(zlib.crc32(t.encode("utf8")))
        else:
            words.append(int(t) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def format_p(p: float) -> str:
    """Exponent as a stable token for reports: '2.0', '1.5', 'inf'."""
    return "inf" if math.isinf(p) else repr(float(p))


def parse_p(text) -> float:
    if isinstance(text, (int, float)):
        return check_exponent(text)
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return check_exponent(float(t))
