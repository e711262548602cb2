"""Windowed dimension estimates for invariant subspaces, with certificates.

The estimate runs a grid: window indices from a Folner ladder crossed with
a descending list of cut thresholds.  Each cell holds a certified integer
bracket for the diameter cut count, the lower end from the inner model (a
body genuinely inside the restricted ball), the upper end from the outer
model (a body genuinely containing it).  That upper count is the rank of
the outer span below diameter two, and outer_rank gives it as an exact
structural count for translate spans, convolution kernels and their sums,
so those grids never build or factorise an outer matrix.  A grid whose
largest window exceeds WINDOW_BUDGET coordinates is refused before any
window is built; the projection invariants and the translate pairing
refuse such a window before they build a model or a packing.
Normalizing by the window size puts every cell in [0, fiber_dim].  The
reported value is the bracket at the finest corner, largest window and
smallest threshold.  No extrapolation is performed; refining the grid is
the only way to tighten the answer.

Two independent routes cross-check the grid.  The duality route estimates
the annihilator at the conjugate exponent and flips the bracket around the
fiber dimension.  The positive-definiteness route pairs packed translates
of a single generator against its norming functional; when the off-core
tail eps0 is small the resulting matrix is close to the identity in the
column p-norm, within the amplified tail eps1, and an explicit quadratic
expression in eps1 divided by the squared core size lower-bounds the
normalized dimension unconditionally.

Also here: the two scalar invariants of the nearest-point projection of a
point mass onto the ball of the inner model (its coefficient at the
identity and its p-th power mass), reported together with the residual of
the power relation that exact projections onto invariant balls satisfy.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import check_exponent, conjugate_exponent, format_p, lp_norm, to_float, to_int
from .errors import (
    CapabilityError,
    CertificateInversion,
    SolverFailure,
    StructureError,
    TailBoundError,
)
from .groups import FiniteSubset, folner_size, folner_window
from .spaces import (
    CyclicTranslates,
    SubspaceSpec,
    SupportedMap,
    annihilator_spec,
    inner_window_model,
    outer_rank,
    pairing,
)
from .tiling import greedy_pack
from .widths import SolverSettings, bracket_counts, bracket_profile, mazur, nearest_point

# most window coordinates (points times fiber) a grid, a projection or a
# translate pairing may ask for: 4096 points at fiber 3, the largest rung
# planned; a dense inner model of that size already holds about 1.2 GB
WINDOW_BUDGET = 12_288


def _check_budget(what: str, coords: int) -> None:
    """Refuse a window of more than WINDOW_BUDGET coordinates with CapabilityError."""
    if coords > WINDOW_BUDGET:
        raise CapabilityError(
            f"{what} holds {coords} coordinates (points times fiber),"
            f" above the budget of {WINDOW_BUDGET}"
        )


@dataclass(frozen=True)
class GridCell:
    """One grid cell: certified integer bracket plus its normalized form."""

    window_index: int
    window_size: int
    eps: float
    count_lo: int
    count_hi: int

    @property
    def norm_lo(self) -> float:
        return self.count_lo / self.window_size

    @property
    def norm_hi(self) -> float:
        return self.count_hi / self.window_size


@dataclass(frozen=True)
class DimensionEstimate:
    """Certified bracket grid for the normalized dimension of a subspace.

    cells are ordered windows ascending, thresholds descending, the order
    the grid was requested in.  monotone_in_eps records whether every
    window column is nonincreasing in the threshold; for estimates obtained
    by flipping an annihilator grid the flag refers to the underlying
    annihilator cells, whose counts flip orientation along with the bracket.
    """

    label: str
    p: float
    fiber_dim: int
    window_indices: tuple[int, ...]
    window_sizes: tuple[int, ...]
    eps_values: tuple[float, ...]
    cells: tuple[GridCell, ...]
    monotone_in_eps: bool

    def cell(self, window_index: int, eps: float) -> GridCell:
        for c in self.cells:
            if c.window_index == window_index and c.eps == eps:
                return c
        raise KeyError(f"no cell at window {window_index}, eps {eps}")

    @property
    def corner(self) -> GridCell:
        """The finest cell: largest window, smallest threshold."""
        return self.cell(self.window_indices[-1], self.eps_values[-1])

    @property
    def corner_lo(self) -> float:
        return self.corner.norm_lo

    @property
    def corner_hi(self) -> float:
        return self.corner.norm_hi

    def to_json_dict(self) -> dict:
        return {
            "spec": self.label,
            "p": format_p(self.p),
            "fiber_dim": self.fiber_dim,
            "windows": [
                {"index": i, "size": s}
                for i, s in zip(self.window_indices, self.window_sizes)
            ],
            "eps": list(self.eps_values),
            "cells": [
                {
                    "window": c.window_index,
                    "eps": c.eps,
                    "ldim_lo": c.count_lo,
                    "ldim_hi": c.count_hi,
                    "norm_lo": c.norm_lo,
                    "norm_hi": c.norm_hi,
                }
                for c in self.cells
            ],
            "corner": {
                "window": self.window_indices[-1],
                "eps": self.eps_values[-1],
                "lo": self.corner_lo,
                "hi": self.corner_hi,
            },
            "monotone_in_eps": self.monotone_in_eps,
        }


def _threshold(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"thresholds must be numbers, got {value!r}")
    return to_float(value)


def _validated_grid(windows: Sequence[int], eps: Sequence[float]):
    if any(isinstance(v, str) or not isinstance(v, Iterable) for v in (windows, eps)):
        raise ValueError("window indices and thresholds must be lists")
    idx = [to_int(i, "window indices") for i in windows]
    cuts = [_threshold(e) for e in eps]
    if not idx or not cuts:
        raise ValueError("need at least one window index and one threshold")
    if any(i < 1 for i in idx):
        raise ValueError("window indices must be >= 1")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("window indices must be strictly ascending")
    if not all(math.isfinite(e) for e in cuts):
        raise ValueError("thresholds must be finite")
    if any(e <= 0.0 for e in cuts):
        raise ValueError("thresholds must be positive")
    if any(b >= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("thresholds must be strictly descending")
    return idx, cuts


def estimate_dimension(
    spec: SubspaceSpec,
    p: float,
    windows: Sequence[int],
    eps: Sequence[float],
    jobs: int = 1,
) -> DimensionEstimate:
    """Certified bracket grid for the normalized dimension at exponent p.

    windows are Folner ladder indices, strictly ascending; eps are cut
    thresholds, strictly descending, so the last cell of the grid is the
    finest.  Each window column shares one inner model, factorised once
    for all its cells, and one outer rank, an exact structural count where
    outer_rank has one.  Window columns are independent and run on up to
    jobs worker threads; assembly is keyed by window index, so the result
    does not depend on jobs.  Raises CapabilityError when the largest
    window exceeds WINDOW_BUDGET coordinates, before any window is built,
    and CertificateInversion when a cell's lower count exceeds its upper
    count.
    """
    check_exponent(p)
    idx, cuts = _validated_grid(windows, eps)
    workers = max(1, int(jobs))
    fiber = spec.fiber_dim
    _check_budget(f"window {idx[-1]}", folner_size(spec.group, idx[-1]) * fiber)

    def column(i: int) -> list[GridCell]:
        omega = folner_window(spec.group, i)
        size = len(omega)
        prof_in = bracket_profile(inner_window_model(spec, omega, p))
        rank = min(outer_rank(spec, omega, p), size * fiber)
        out = []
        for e in cuts:
            lo = bracket_counts(prof_in, e)[0]
            # the outer body is span cap ball: rank cuts below diameter two
            hi = rank if e < 2.0 else 0
            if lo > hi:
                raise CertificateInversion(
                    f"certificate inversion at window {i}, eps {e}: lo {lo} > hi {hi}"
                )
            out.append(GridCell(i, size, e, lo, hi))
        return out

    if workers == 1 or len(idx) == 1:
        columns = {i: column(i) for i in idx}
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(column, i) for i in idx}
            columns = {i: f.result() for i, f in futures.items()}

    monotone = True
    for i in idx:
        for a, b in zip(columns[i], columns[i][1:]):
            # b has the smaller threshold, so its counts must not drop
            if b.count_lo < a.count_lo or b.count_hi < a.count_hi:
                monotone = False
    return DimensionEstimate(
        label=spec.describe(),
        p=p,
        fiber_dim=fiber,
        window_indices=tuple(idx),
        window_sizes=tuple(columns[i][0].window_size for i in idx),
        eps_values=tuple(cuts),
        cells=tuple(c for i in idx for c in columns[i]),
        monotone_in_eps=monotone,
    )


def dual_dimension(
    spec: SubspaceSpec,
    p: float,
    windows: Sequence[int],
    eps: Sequence[float],
    jobs: int = 1,
) -> DimensionEstimate:
    """Estimate through the annihilator at the conjugate exponent.

    The annihilator grid at q = p' is computed and every bracket is flipped
    around the full cell count: a certified [lo, hi] for the annihilator
    becomes the certified [fiber_dim - hi, fiber_dim - lo] for the original
    subspace in normalized form.  p must be finite; p = 1 pairs with
    q = inf.  Raises CapabilityError when the annihilator has no closed
    form.
    """
    check_exponent(p)
    if p == math.inf:
        raise CapabilityError("dual estimates pair a finite exponent with its conjugate")
    q = conjugate_exponent(p)
    primal = estimate_dimension(annihilator_spec(spec), q, windows, eps, jobs=jobs)
    flipped = tuple(
        GridCell(
            c.window_index,
            c.window_size,
            c.eps,
            c.window_size * primal.fiber_dim - c.count_hi,
            c.window_size * primal.fiber_dim - c.count_lo,
        )
        for c in primal.cells
    )
    return DimensionEstimate(
        label=f"dual({spec.describe()})",
        p=p,
        fiber_dim=spec.fiber_dim,
        window_indices=primal.window_indices,
        window_sizes=primal.window_sizes,
        eps_values=primal.eps_values,
        cells=flipped,
        monotone_in_eps=primal.monotone_in_eps,
    )


def _amplified_tail(eps0: float, p: float) -> float:
    return eps0 / (1.0 - eps0**p) ** (1.0 / p)


def _bound_from_amplified(eps1: float, core_size: int) -> float:
    return max(0.0, 1.0 - 2.0 * eps1 * eps1) / core_size**2


def positivity_bound(eps0: float, p: float, core_size: int) -> float:
    """Unconditional lower bound on the normalized dimension from a tail bound.

    A generator whose normalized p-mass sits on a core of core_size points
    up to a tail of eps0 forces normalized dimension at least
    max(0, 1 - 2 eps1^2) / core_size^2 with eps1 = eps0 / (1 - eps0^p)^(1/p).
    The bound degrades to 0 once eps0 >= (2^(p/2) + 1)^(-1/p).  Proved for
    p in [1, 2]; larger exponents raise CapabilityError.
    """
    check_exponent(p)
    if p > 2.0:
        raise CapabilityError("the positive-definiteness bound is proved for p in [1, 2]")
    if not 0.0 < eps0 < 1.0:
        raise ValueError(f"tail bound must lie in (0, 1), got {eps0}")
    if core_size < 1:
        raise ValueError(f"core size must be >= 1, got {core_size}")
    return _bound_from_amplified(_amplified_tail(eps0, p), core_size)


@dataclass(frozen=True)
class PositivityReport:
    """Measured ingredients of the positive-definiteness lower bound."""

    p: float
    eps0: float
    eps1: float
    core_size: int
    packing_count: int
    defect: float
    bound: float

    def to_json_dict(self) -> dict:
        return {
            "p": format_p(self.p),
            "eps0": self.eps0,
            "eps1": self.eps1,
            "core_size": self.core_size,
            "packing_count": self.packing_count,
            "defect": self.defect,
            "bound": self.bound,
        }


def build_Q(spec: SubspaceSpec, omega: FiniteSubset, p: float):
    """Pair packed translates of the generator against its norming functional.

    Returns (Q, report) with Q[j, k] the pairing of the norming functional
    translated to center j against the normalized generator translated to
    center k, the centers coming from the greedy packing of the core inside
    omega.  The functional is supported on the core, pairs to exactly one
    against the restriction of the generator, and has conjugate norm at
    most (1 - eps0^p)^(-1/p).  Disjointness of the packed cores confines
    every off-diagonal column to tail mass, so the column p-norm defect of
    Q from the identity is certified to stay within the amplified tail
    eps1; the measured defect is checked against that certificate.

    The declared tail bound is verified against the normalized generator
    first; TailBoundError carries the measured value when either check
    fails.  A window over WINDOW_BUDGET coordinates raises CapabilityError
    before the packing is built.
    """
    if not isinstance(spec, CyclicTranslates):
        raise StructureError("the translate pairing needs a single-generator description")
    check_exponent(p)
    if p > 2.0:
        raise CapabilityError("the positive-definiteness route is certified for p in [1, 2]")
    if omega.group != spec.group:
        raise StructureError("window and generator live over different groups")
    _check_budget("the window", len(omega) * spec.fiber_dim)

    y = spec.generator
    y = y.scaled(1.0 / y.norm(p))
    core = spec.core
    tail_vals = [v for c, v in y.data.items() if c not in core]
    measured = lp_norm(np.concatenate([np.ravel(v) for v in tail_vals]), p) if tail_vals else 0.0
    if measured > spec.tail_eps + 1e-9:
        raise TailBoundError(
            "off-core tail of the normalized generator exceeds its declared bound",
            measured=measured,
        )

    restricted = SupportedMap(y.group, y.dim, {c: v for c, v in y.data.items() if c in core})
    core_norm = restricted.norm(p)
    if core_norm == 0.0:
        raise StructureError("generator vanishes on its core")
    if p == 1.0:
        star_data = {c: np.sign(v) / core_norm for c, v in restricted.data.items()}
    else:
        star_data = {c: mazur(v, p) / core_norm**p for c, v in restricted.data.items()}
    star = SupportedMap(y.group, y.dim, star_data)
    if abs(pairing(star, restricted) - 1.0) > 1e-9:
        raise RuntimeError("norming functional failed to pair to one")

    pack = greedy_pack(omega, core)
    centers = list(pack.centers)
    m = len(centers)
    q = np.zeros((m, m))
    star_t = [star.translated(g) for g in centers]
    y_t = [y.translated(g) for g in centers]
    for j in range(m):
        for k in range(m):
            q[j, k] = pairing(star_t[j], y_t[k])

    defect = 0.0
    for k in range(m):
        col = q[:, k].copy()
        col[k] -= 1.0
        defect = max(defect, lp_norm(col, p))
    eps1 = _amplified_tail(spec.tail_eps, p)
    if defect > eps1 + 1e-9:
        raise TailBoundError(
            "translate pairing defect exceeds the amplified tail certificate",
            measured=defect,
        )
    report = PositivityReport(
        p=p,
        eps0=spec.tail_eps,
        eps1=eps1,
        core_size=len(core),
        packing_count=m,
        defect=defect,
        bound=_bound_from_amplified(eps1, len(core)),
    )
    return q, report


@dataclass(frozen=True)
class ProjectionInvariants:
    """Identity coefficient and p-th power mass of a projected point mass.

    relation_residual reports n - (d^p + (1 - d)^(p-1) d), the amount by
    which the pair misses the power relation satisfied by exact projections
    onto invariant balls.  It is reported, not asserted: the finite window
    and the iterative solver both perturb it.
    """

    d_value: float
    n_value: float
    relation_residual: float
    solver_residual: float
    iterations: int


def D_and_N(
    spec: SubspaceSpec,
    p: float,
    omega: FiniteSubset,
    settings: Optional[SolverSettings] = None,
) -> ProjectionInvariants:
    """Project the point mass at the identity onto the inner model ball.

    Needs 1 < p < inf (strict convexity makes the nearest point unique), a
    scalar fiber, and a window containing the identity of at most
    WINDOW_BUDGET points, checked before the model is built.  Raises
    SolverFailure when the nearest-point solve misses its residual
    tolerance.
    """
    check_exponent(p)
    if not 1.0 < p < math.inf:
        raise CapabilityError("projection invariants need 1 < p < inf")
    if spec.fiber_dim != 1:
        raise CapabilityError("projection invariants are defined for scalar fibers")
    _check_budget("the window", len(omega))
    ident = (0,) * spec.group.rank
    if ident not in omega:
        raise ValueError("window must contain the identity")

    model = inner_window_model(spec, omega, p)
    target = np.zeros(model.ambient_dim)
    target[omega.positions[ident]] = 1.0
    result = nearest_point(target, model.matrix, p, settings=settings, within_ball=True)
    if not result.converged:
        raise SolverFailure(
            "nearest-point solve missed its tolerance",
            residual=result.kkt_residual,
            iterations=result.iterations,
        )

    d = float(result.point[omega.positions[ident]])
    n = float(lp_norm(result.point, p) ** p)
    if -1e-9 <= d <= 1.0 + 1e-9:
        d = min(1.0, max(0.0, d))
    if -1e-9 <= n <= 1.0 + 1e-9:
        n = min(1.0, max(0.0, n))
    residual = n - (d**p + (1.0 - d) ** (p - 1.0) * d)
    return ProjectionInvariants(
        d_value=d,
        n_value=n,
        relation_residual=residual,
        solver_residual=result.kkt_residual,
        iterations=result.iterations,
    )
