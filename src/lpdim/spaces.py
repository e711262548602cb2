"""Translation-invariant subspaces and their finite windowed surrogates.

A subspace of the p-summable functions on a group is described symbolically
(kernel or image of a finitely supported convolution, span of translates of a
generator, periodization kernels, sums, duals, index-d reindexings).  For a
finite window the library builds a *surrogate* of the restricted unit ball.
Each model holds one matrix F over a point list that starts with the
window's points; the window matrix M is F's leading block and the
off-window rows E are its tail.

  inner polarity: F holds explicitly constructed subspace elements whose
    full-space norm is at most one over the union of their supports, and M
    holds their restrictions to the window.  The modeled body,
    restrictions of span elements with full norm <= 1, is certified to sit
    inside the true restricted ball.  Kernel elements of a 1x2 kernel
    h = (h1, h2) on Z with coprime symbols, on an interval window, are the
    translates of its syzygy (h2, -h1) that fit in the window, which span
    every kernel element supported there.  Every other kernel takes a
    null-space basis, checked after the fact: a column whose residual is
    above the rounding level of its own computation is dropped.
  outer polarity: F = M has window rows only.  Its column span provably
    contains every restriction, and the body is span intersected with the
    ambient unit ball, so it encloses the true restricted ball.  Its cut
    counts need only the span's rank, which outer_rank reads off the
    structure where a pivot rule holds on Z^d (any finite window,
    lexicographic order):
      - translate spans: the translate putting the kernel's lex-largest
        support point s* on window point x has its lex-largest window entry
        at x, with block h(s*); if that block has full row rank the rank is
        |window| * fiber.
      - kernels: each interior constraint row eta has its lex-largest entry
        at eta s_-^-1, with block h(s_-) for the lex-least support point
        s_-; if that block has full row rank the constraints are
        independent and the rank is |window| * d_in - rows * d_out.
    Everything else (finite or mixed groups, deficient pivots) falls back
    to numerical_rank of the model's singular values.
  exact polarity: F = M, and the restricted ball is provably exactly span
    intersected with the ambient ball (full space, zero space, periodic
    patterns at p = infinity).

Direct sums, reductions and inductions are split into parts in one place,
_parts; window models stack the parts' models and outer ranks add their
ranks.  Annihilators resolve to their closed-form duals first.

One routine, _placement, lays out every matrix of translates: inner
translate columns, kernel constraint rows and the pairing matrix of
dimension.build_Q.  Translators meeting or inside a window come from groups.

Width computations downstream turn inner models into certified lower counts
and outer models into certified upper counts.  The fiber norm on vector
values is the coordinate p-sum, which is what makes index-d reindexing an
exact row relabeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ._util import check_exponent, column_lp_norms, lp_norm, matrix_rank, numerical_rank
from .errors import CapabilityError, StructureError
from .groups import (
    Coords,
    FiniteSubset,
    GroupSpec,
    as_coords,
    compose_coords,
    coord_array,
    invert_coords,
    sort_rows,
    translator_arrays,
)

_Z = GroupSpec.integer_lattice(1)


def _as_coords(group: GroupSpec, item) -> Coords:
    if isinstance(item, (tuple, list)):
        return group.check_coords(item)
    if group.rank == 1:
        return group.reduce((int(item),))
    raise StructureError(f"cannot read {item!r} as coordinates of rank {group.rank}")


class SupportedMap:
    """A finitely supported map from the group into R^dim (zero off support)."""

    __slots__ = ("group", "dim", "data")

    def __init__(self, group: GroupSpec, dim: int, data: Optional[Mapping] = None):
        if dim < 1:
            raise StructureError(f"fiber dimension must be >= 1, got {dim}")
        self.group = group
        self.dim = dim
        acc: dict[Coords, np.ndarray] = {}
        for key, val in (data or {}).items():
            vec = np.asarray(val, dtype=float).reshape(dim)
            c = _as_coords(group, key)
            acc[c] = acc[c] + vec if c in acc else vec
        self.data = {c: v for c, v in acc.items() if np.any(v != 0.0)}
        if self.data and not np.isfinite(np.concatenate(list(self.data.values()))).all():
            raise StructureError("map values must be finite")

    @staticmethod
    def delta(group: GroupSpec, at, dim: int = 1, slot: int = 0) -> "SupportedMap":
        vec = np.zeros(dim)
        vec[slot] = 1.0
        return SupportedMap(group, dim, {_as_coords(group, at): vec})

    @property
    def support(self) -> tuple[Coords, ...]:
        return tuple(sorted(self.data))

    def value(self, at) -> np.ndarray:
        c = _as_coords(self.group, at)
        return self.data.get(c, np.zeros(self.dim)).copy()

    def norm(self, p: float) -> float:
        if not self.data:
            return 0.0
        flat = np.concatenate([self.data[c] for c in sorted(self.data)])
        return lp_norm(flat, p)

    def translated(self, gamma) -> "SupportedMap":
        g = _as_coords(self.group, gamma)
        return SupportedMap(
            self.group,
            self.dim,
            {compose_coords(self.group, g, c): v for c, v in self.data.items()},
        )

    def scaled(self, a: float) -> "SupportedMap":
        return SupportedMap(self.group, self.dim, {c: a * v for c, v in self.data.items()})

    def plus(self, other: "SupportedMap") -> "SupportedMap":
        if other.group != self.group or other.dim != self.dim:
            raise StructureError("cannot add maps with different group or fiber")
        out = {c: v.copy() for c, v in self.data.items()}
        for c, v in other.data.items():
            out[c] = out.get(c, np.zeros(self.dim)) + v
        return SupportedMap(self.group, self.dim, out)

    def __repr__(self):
        return f"SupportedMap({len(self.data)} points, dim={self.dim})"


def pairing(a: SupportedMap, b: SupportedMap) -> float:
    """Sum over the group of the pointwise dot product."""
    if a.group != b.group or a.dim != b.dim:
        raise StructureError("pairing needs matching group and fiber")
    small, big = (a, b) if len(a.data) <= len(b.data) else (b, a)
    return float(sum(np.dot(v, big.data[c]) for c, v in small.data.items() if c in big.data))


@dataclass(frozen=True, eq=False)
class ConvolutionKernel:
    """Finitely supported operator-valued kernel h, acting by right convolution.

    block(s) is a (dim_out x dim_in) matrix; the induced map sends y to
    (h * y)(eta) = sum_gamma h(gamma^-1 eta) y(gamma).  l1_norm sums a
    per-block bound that dominates the block's operator norm on every
    coordinate p-norm (max of the 1->1 and inf->inf norms), so Young's
    inequality holds with it at every p.
    """

    group: GroupSpec
    dim_in: int
    dim_out: int
    blocks: tuple[tuple[Coords, np.ndarray], ...]

    @staticmethod
    def of(group: GroupSpec, entries: Mapping) -> "ConvolutionKernel":
        if not entries:
            raise StructureError("a convolution kernel needs nonempty support")
        parsed = {}
        shape = None
        for key, val in entries.items():
            arr = np.atleast_2d(np.asarray(val, dtype=float))
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise StructureError(
                    f"kernel blocks disagree in shape: {arr.shape} vs {shape}"
                )
            parsed[_as_coords(group, key)] = arr
        if not np.isfinite(np.array(list(parsed.values()))).all():
            raise StructureError("kernel blocks must be finite")
        blocks = tuple((c, parsed[c]) for c in sorted(parsed))
        return ConvolutionKernel(group, shape[1], shape[0], blocks)

    @staticmethod
    def scalar(group: GroupSpec, entries: Mapping) -> "ConvolutionKernel":
        return ConvolutionKernel.of(group, {k: [[float(v)]] for k, v in entries.items()})

    @property
    def l1_norm(self) -> float:
        total = 0.0
        for _, b in self.blocks:
            col = float(np.max(np.sum(np.abs(b), axis=0)))
            row = float(np.max(np.sum(np.abs(b), axis=1)))
            total += max(col, row)
        return total


def convolve(h: ConvolutionKernel, y: SupportedMap) -> SupportedMap:
    """(h * y)(eta) = sum_gamma h(gamma^-1 eta) y(gamma), finitely supported."""
    if y.group != h.group:
        raise StructureError("kernel and argument live over different groups")
    if y.dim != h.dim_in:
        raise StructureError(
            f"kernel expects fiber {h.dim_in}, argument has fiber {y.dim}"
        )
    acc: dict[Coords, np.ndarray] = {}
    for gamma, vec in y.data.items():
        for s, blk in h.blocks:
            eta = compose_coords(h.group, gamma, s)
            out = blk @ vec
            if eta in acc:
                acc[eta] = acc[eta] + out
            else:
                acc[eta] = out
    return SupportedMap(h.group, h.dim_out, acc)


def adjoint_kernel(h: ConvolutionKernel) -> ConvolutionKernel:
    """h*(gamma) = h(gamma^-1)^T; the adjoint for the summed dot pairing."""
    entries = {invert_coords(h.group, c): b.T for c, b in h.blocks}
    return ConvolutionKernel.of(h.group, entries)


# --------------------------------------------------------------- subspaces


class SubspaceSpec:
    """Base for symbolic subspace descriptions; see the concrete variants."""

    @property
    def group(self) -> GroupSpec:
        raise NotImplementedError

    @property
    def fiber_dim(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


@dataclass(frozen=True)
class _Trivial(SubspaceSpec):
    """Base of Full and Zero, which hold only a group and a fiber dimension."""

    grp: GroupSpec
    dim_v: int = 1

    def __post_init__(self):
        if self.dim_v < 1:
            raise StructureError("fiber dimension must be >= 1")

    @property
    def group(self):
        return self.grp

    @property
    def fiber_dim(self):
        return self.dim_v


@dataclass(frozen=True)
class Full(_Trivial):
    """The whole space of p-summable V-valued functions."""

    def describe(self):
        return f"full(dim={self.dim_v})"


@dataclass(frozen=True)
class Zero(_Trivial):
    def describe(self):
        return f"zero(dim={self.dim_v})"


@dataclass(frozen=True, eq=False)
class ConvKernel(SubspaceSpec):
    """Elements annihilated by a finite-type convolution."""

    kernel: ConvolutionKernel

    @property
    def group(self):
        return self.kernel.group

    @property
    def fiber_dim(self):
        return self.kernel.dim_in

    def describe(self):
        return f"conv_kernel(support={len(self.kernel.blocks)}, fiber={self.fiber_dim})"


@dataclass(frozen=True, eq=False)
class ConvImage(SubspaceSpec):
    """Closure of the range of a finite-type convolution."""

    kernel: ConvolutionKernel

    @property
    def group(self):
        return self.kernel.group

    @property
    def fiber_dim(self):
        return self.kernel.dim_out

    def describe(self):
        return f"conv_image(support={len(self.kernel.blocks)}, fiber={self.fiber_dim})"


@dataclass(frozen=True, eq=False)
class CyclicTranslates(SubspaceSpec):
    """Closed span of the translates of one generator.

    core is the finite set carrying all but an lp tail of the normalized
    generator; tail_eps is the declared bound on that tail and is verified
    numerically where it matters.
    """

    generator: SupportedMap
    core: FiniteSubset
    tail_eps: float

    def __post_init__(self):
        if self.core.group != self.generator.group:
            raise StructureError("generator and core live over different groups")
        if not 0.0 <= self.tail_eps < 1.0:
            raise StructureError("declared tail bound must lie in [0, 1)")
        if not self.generator.data:
            raise StructureError("cyclic generator is zero")

    @property
    def group(self):
        return self.generator.group

    @property
    def fiber_dim(self):
        return self.generator.dim

    def describe(self):
        return f"cyclic(core={len(self.core)}, tail={self.tail_eps})"


@dataclass(frozen=True, eq=False)
class DirectSum(SubspaceSpec):
    left: SubspaceSpec
    right: SubspaceSpec

    def __post_init__(self):
        if self.left.group != self.right.group:
            raise StructureError("direct summands live over different groups")

    @property
    def group(self):
        return self.left.group

    @property
    def fiber_dim(self):
        return self.left.fiber_dim + self.right.fiber_dim

    def describe(self):
        return f"sum({self.left.describe()}, {self.right.describe()})"


class _Sequences(SubspaceSpec):
    """Base of the scalar sequence spaces over the integers."""

    @property
    def group(self):
        return _Z

    @property
    def fiber_dim(self):
        return 1


@dataclass(frozen=True)
class PeriodicInfty(_Sequences):
    """n-periodic bounded sequences on the integers; trivial at finite p."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise StructureError("period must be >= 1")

    def describe(self):
        return f"periodic_sup(period={self.period})"


@dataclass(frozen=True)
class UnionPeriodic(_Sequences):
    """Sup-norm closure of all periodic sequences; restricted balls are full."""

    def describe(self):
        return "periodic_union"


@dataclass(frozen=True)
class KerPeriodization(_Sequences):
    """Summable sequences whose every mod-n residue class sums to zero."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise StructureError("period must be >= 1")

    def describe(self):
        return f"ker_periodization(period={self.period})"


@dataclass(frozen=True, eq=False)
class Annihilator(SubspaceSpec):
    """Functionals vanishing on the wrapped subspace; symbolic dual."""

    base: SubspaceSpec

    def __post_init__(self):
        annihilator_spec(self.base)  # raises CapabilityError if not closed-form

    @property
    def group(self):
        return self.base.group

    @property
    def fiber_dim(self):
        return self.base.fiber_dim

    def describe(self):
        return f"annihilator({self.base.describe()})"


@dataclass(frozen=True, eq=False)
class _Reindexed(SubspaceSpec):
    """Base of Reduced and Induced: a subspace over Z and a subgroup index."""

    base: SubspaceSpec
    index: int

    def __post_init__(self):
        if self.base.group != _Z:
            raise CapabilityError(f"{type(self).__name__} is implemented over the integers only")
        if self.index < 1:
            raise ValueError("subgroup index must be >= 1")

    @property
    def group(self):
        return _Z


@dataclass(frozen=True, eq=False)
class Reduced(_Reindexed):
    """Reindexing over the index-d subgroup, fiber blown up d-fold."""

    @property
    def fiber_dim(self):
        return self.base.fiber_dim * self.index

    def describe(self):
        return f"reduced({self.base.describe()}, d={self.index})"


@dataclass(frozen=True, eq=False)
class Induced(_Reindexed):
    """Functions whose every mod-d coset slice lies in the base subspace."""

    @property
    def fiber_dim(self):
        return self.base.fiber_dim

    def describe(self):
        return f"induced({self.base.describe()}, d={self.index})"


def annihilator_spec(spec: SubspaceSpec) -> SubspaceSpec:
    """Closed-form dual: swaps full and zero, kernels and images (adjointed)."""
    if isinstance(spec, Full):
        return Zero(spec.grp, spec.dim_v)
    if isinstance(spec, Zero):
        return Full(spec.grp, spec.dim_v)
    if isinstance(spec, ConvImage):
        return ConvKernel(adjoint_kernel(spec.kernel))
    if isinstance(spec, ConvKernel):
        return ConvImage(adjoint_kernel(spec.kernel))
    if isinstance(spec, DirectSum):
        return DirectSum(annihilator_spec(spec.left), annihilator_spec(spec.right))
    if isinstance(spec, Annihilator):
        return spec.base
    raise CapabilityError(
        f"no closed-form annihilator for {spec.describe()}"
    )


def reduce_spec(spec: SubspaceSpec, d: int) -> SubspaceSpec:
    if d < 1:
        raise ValueError("subgroup index must be >= 1")
    if d == 1:
        return spec
    if isinstance(spec, _Trivial):
        return type(spec)(spec.grp, spec.dim_v * d)
    return Reduced(spec, d)


def induce_spec(spec: SubspaceSpec, d: int) -> SubspaceSpec:
    if d < 1:
        raise ValueError("subgroup index must be >= 1")
    if d == 1:
        return spec
    if isinstance(spec, _Trivial):
        return spec
    return Induced(spec, d)


# ------------------------------------------------------------ window models


@dataclass(frozen=True, eq=False)
class WindowModel:
    """Finite surrogate of a restricted unit ball; see the module docstring.

    full_matrix has fiber_dim rows per point of full_support, fiber slots
    fastest.  full_support lists the window's points first, in canonical
    order, then the off-window points, sorted; outer and exact models have
    none of the latter.  matrix, the window rows M, is the leading block of
    full_matrix, a view rather than a copy.  Inner columns have full-space
    p-norm at most one.
    """

    window: FiniteSubset
    p: float
    fiber_dim: int
    polarity: str
    full_matrix: np.ndarray
    full_support: tuple[Coords, ...]

    @property
    def ambient_dim(self) -> int:
        return len(self.window) * self.fiber_dim

    @property
    def matrix(self) -> np.ndarray:
        return self.full_matrix[: self.ambient_dim]

    @property
    def num_columns(self) -> int:
        return self.full_matrix.shape[1]

    def rank(self) -> int:
        return matrix_rank(self.matrix)


def _window_ball(
    window: FiniteSubset, p: float, fiber: int, polarity: str, matrix: np.ndarray
) -> WindowModel:
    """An outer or exact model: span of matrix cut by the window's unit ball."""
    return WindowModel(window, p, fiber, polarity, np.asarray(matrix, dtype=float), window.elements)


def _genuine_model(
    window: FiniteSubset,
    p: float,
    fiber: int,
    coords: Sequence[Coords],
    full: np.ndarray,
    normalize: bool,
) -> WindowModel:
    """Inner model from the full-space columns of genuine subspace elements.

    full holds fiber rows per point of coords, the window's points first in
    canonical order.  Columns of norm at most 1e-14 are dropped and the rest
    are normalized or checked against the unit ball.
    """
    norms = column_lp_norms(full, p)
    keep = norms > 1e-14
    full, norms = full.compress(keep, axis=1), norms[keep]
    if normalize:
        full = full / norms
    elif np.any(norms > 1.0 + 1e-9):
        raise StructureError(f"inner column exceeds the unit ball: norm {norms.max():.6g}")
    return WindowModel(window, p, fiber, "inner", full, tuple(coords))


def _placement(grp: GroupSpec, sources, pattern, fiber: int, lead=()) -> tuple[np.ndarray, np.ndarray]:
    """(extra, matrix) of the translates of one block pattern at sources.

    pattern lists (offset s, block) pairs, each block of shape (fiber, slots).
    The column for source gamma and slot v carries block[:, v] at gamma * s;
    columns run over sources in the given order with the slot fastest, and
    every (source, offset) pair is composed in one broadcast.  The rows are
    lead's points, then extra, the coordinate array of every other point
    where some column is nonzero, sorted; the matrix has fiber rows per
    point, fiber slots fastest.
    """
    sources, lead = coord_array(grp, sources), coord_array(grp, lead)
    offsets = coord_array(grp, [s for s, _ in pattern])
    blocks = np.stack([blk for _, blk in pattern])
    targets = grp.reduce_array(offsets[:, None, :] + sources[None, :, :])
    points = np.concatenate([lead, targets.reshape(-1, grp.rank)])
    order, first, label = sort_rows(points)
    led, label = label[: len(lead)], label[len(lead) :].reshape(targets.shape[:2])
    nonzero = np.any(blocks != 0.0, axis=(1, 2))
    # distinct points off lead that some nonzero block lands on
    off = np.zeros(np.count_nonzero(first), dtype=bool)
    off[label[nonzero]] = True
    off[led] = False
    row = np.empty(len(off), dtype=np.intp)
    row[led] = np.arange(len(lead))
    row[off] = len(lead) + np.arange(np.count_nonzero(off))
    cube = np.zeros((len(lead) + np.count_nonzero(off), fiber, len(sources), blocks.shape[2]))
    cube[row[label[nonzero]], :, np.arange(len(sources)), :] = blocks[nonzero, None]
    extra = points[order[first]][off]
    return extra, cube.reshape(len(cube) * fiber, len(sources) * blocks.shape[2])


def _translate_model(window: FiniteSubset, p, fiber, sources, pattern, normalize) -> WindowModel:
    """Inner model of the translates of one block pattern at sources, laid
    out by _placement with the window's points leading."""
    extra, full = _placement(window.group, sources, pattern, fiber, lead=window.array)
    return _genuine_model(window, p, fiber, window.elements + tuple(as_coords(extra)), full, normalize)


def _translate_span(omega, p, polarity, fiber, pattern) -> WindowModel:
    """Every translate of the pattern that meets the window (sources omega * S^-1).

    The inner model holds them as genuine elements; the outer model is the
    span of their window restrictions.
    """
    sources, _ = translator_arrays(omega, [s for s, _ in pattern])
    model = _translate_model(omega, p, fiber, sources, pattern, normalize=True)
    if polarity == "outer":
        return _window_ball(omega, p, fiber, "outer", model.matrix)
    return model


def _null_space(mat: np.ndarray, checked: bool = False) -> np.ndarray:
    """Orthonormal basis of the null space, past numerical_rank.

    checked keeps only the columns y whose computed residual |mat y|_2 is
    within max(m, n) 2^-52 (|mat|_2 + |abs(mat)|_2): the backward error of
    the SVD's null vectors plus the rounding of the product mat y itself,
    with |abs(mat)|_2 bounded by sqrt(|mat|_1 |mat|_inf).  A singular value
    at the rank rule's cutoff may be small but not zero, and then its vector
    is no element of the kernel.  Inner models need this; outer enclosures
    may only grow, so they take the basis unchecked.
    """
    n = mat.shape[1]
    if mat.shape[0] == 0 or n == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    basis = vh[numerical_rank(s, mat.shape):].T.copy()
    if checked:
        absolute = math.sqrt(np.abs(mat).sum(axis=0).max() * np.abs(mat).sum(axis=1).max())
        bound = max(mat.shape) * np.finfo(float).eps * (s[0] + absolute)
        basis = basis.compress(np.linalg.norm(mat @ basis, axis=0) <= bound, axis=1)
    return basis


def _conv_constraint_matrix(h: ConvolutionKernel, rows, cols: FiniteSubset) -> np.ndarray:
    """Matrix of the equations (h * y)(row) = 0 for y supported on cols:
    column (w, v) is the translate by w of h's slot v, read on rows."""
    _, full = _placement(h.group, cols.array, h.blocks, h.dim_out, lead=rows)
    return full[: len(rows) * h.dim_out]


def _coprime(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two nonzero polynomials, trimmed of leading and trailing zeros,
    share no root: their Sylvester matrix has full numerical_rank.  A constant
    is coprime to everything, so no factorisation is needed then."""
    m, n = len(a) - 1, len(b) - 1
    if min(m, n) == 0:
        return True
    sylvester = np.zeros((m + n, m + n))
    for i in range(n):
        sylvester[i, i : i + m + 1] = a
    for i in range(m):
        sylvester[n + i, i : i + n + 1] = b
    return matrix_rank(sylvester) == m + n


def _syzygy_pattern(h: ConvolutionKernel, omega: FiniteSubset):
    """The Koszul syzygy g = (h2, -h1) of a 1x2 kernel h = (h1, h2) on Z as a
    one-slot block pattern, where its translates that fit in omega span every
    kernel element supported there; else None.

    That holds when omega is an interval and h1, h2 are coprime: the Laurent
    ring of Z is a PID, so every finitely supported kernel element is f g,
    and on Z supports add at their extremes, so f g lies in omega exactly
    when each translate of g that f uses does.  Stripping leading and
    trailing zeros drops the monomial (unit) factors before the test.
    """
    if h.group != _Z or (h.dim_out, h.dim_in) != (1, 2):
        return None
    points = [c for (c,) in omega.elements]
    if max(points) - min(points) + 1 != len(omega):
        return None
    first = h.blocks[0][0][0]
    symbols = np.zeros((2, h.blocks[-1][0][0] - first + 1))
    for (s,), blk in h.blocks:
        symbols[:, s - first] = blk[0]
    trimmed = []
    for symbol in symbols:
        nonzero = np.flatnonzero(symbol)
        if nonzero.size == 0:
            return None
        trimmed.append(symbol[nonzero[0] : nonzero[-1] + 1])
    if not _coprime(*trimmed):
        return None
    return [((first + j,), np.array([[b], [-a]])) for j, (a, b) in enumerate(symbols.T) if a or b]


def _conv_kernel_inner(spec: ConvKernel, omega, p) -> WindowModel:
    """Translates of the syzygy where they span the window's kernel elements,
    else a null-space basis checked column by column."""
    h = spec.kernel
    syzygy = _syzygy_pattern(h, omega)
    if syzygy is not None:
        points = [c for (c,) in omega.elements]
        lo, hi = min(points) - syzygy[0][0][0], max(points) - syzygy[-1][0][0]
        sources = np.arange(lo, hi + 1)
        return _translate_model(omega, p, h.dim_in, sources, syzygy, normalize=True)
    rows, _ = translator_arrays(omega, [invert_coords(h.group, c) for c, _ in h.blocks])
    basis = _null_space(_conv_constraint_matrix(h, rows, omega), checked=True)
    return _genuine_model(omega, p, h.dim_in, omega.elements, basis, normalize=True)


def _interior_rows(h: ConvolutionKernel, omega: FiniteSubset) -> np.ndarray:
    """Points eta whose whole constraint (h * y)(eta) reads inside the window."""
    return translator_arrays(omega, [invert_coords(h.group, c) for c, _ in h.blocks])[1]


def _conv_kernel_outer(spec: ConvKernel, omega, p) -> WindowModel:
    h = spec.kernel
    mat = _conv_constraint_matrix(h, _interior_rows(h, omega), omega)
    return _window_ball(omega, p, h.dim_in, "outer", _null_space(mat))


def _generator_pattern(spec: CyclicTranslates) -> list[tuple[Coords, np.ndarray]]:
    """The generator as a one-slot block pattern."""
    return [(c, v[:, None]) for c, v in spec.generator.data.items()]


def _periodic_infty_model(spec: PeriodicInfty, omega, p) -> WindowModel:
    n = spec.period
    size = len(omega)
    if p != math.inf:
        return _window_ball(omega, p, 1, "exact", np.zeros((size, 0)))
    cols = []
    for residue in range(n):
        col = np.array([1.0 if c[0] % n == residue else 0.0 for c in omega.elements])
        if np.any(col != 0.0):
            cols.append(col)
    mat = np.column_stack(cols) if cols else np.zeros((size, 0))
    # at p = inf the sup norm of a periodic indicator is attained inside any
    # window that meets its class, so the window matrix doubles as the full one
    return _window_ball(omega, p, 1, "exact", mat)


def _placed_model(omega, p, fiber, parts) -> WindowModel:
    """Stack part models into the rows of a composite model on omega.

    parts lists (model, place) pairs; place maps a coordinate of the part to
    (composite point, first fiber slot), and the part's fiber slots follow on
    from that slot.  Columns run over the parts in the given order.  Every
    part window lands in omega and every off-window point off it, so the
    full support is omega's points, then the placed off-window points,
    sorted.  The composite is outer if any part is, else inner if any part
    is, else exact.
    """
    models = [m for m, _ in parts]
    edges = np.cumsum([0] + [m.num_columns for m in models])
    placed = [list(map(place, m.full_support)) for m, place in parts]
    off = {c for where in placed for c, _ in where} - omega.coord_set
    support = omega.elements + tuple(sorted(off))
    pos = {c: i for i, c in enumerate(support)}
    full = np.zeros((len(support) * fiber, edges[-1]))
    for j, (m, where) in enumerate(zip(models, placed)):
        first = np.asarray([pos[c] * fiber + slot for c, slot in where], dtype=int)
        rows = (first[:, None] + np.arange(m.fiber_dim)).ravel()
        full[rows, edges[j] : edges[j + 1]] = m.full_matrix
    polarities = {m.polarity for m in models}
    polarity = next(kind for kind in ("outer", "inner", "exact") if kind in polarities)
    return WindowModel(omega, p, fiber, polarity, full, support)


def _check_window(spec: SubspaceSpec, omega: FiniteSubset):
    if omega.is_empty():
        raise ValueError("window models need a nonempty window")
    if omega.group != spec.group:
        raise StructureError("window and subspace live over different groups")


def _resolved(spec: SubspaceSpec) -> SubspaceSpec:
    """spec with its Annihilator wrappers replaced by their closed-form duals."""
    while isinstance(spec, Annihilator):
        spec = annihilator_spec(spec.base)
    return spec


def _parts(spec: SubspaceSpec, omega: FiniteSubset):
    """[(part spec, part window, place)] for a composite spec, else None.

    place maps a point of the part window to (point of omega, first fiber
    slot), as _placed_model reads it.
    """
    if isinstance(spec, DirectSum):
        shift = spec.left.fiber_dim
        return [(spec.left, omega, lambda c: (c, 0)), (spec.right, omega, lambda c: (c, shift))]
    if isinstance(spec, Reduced):
        # point c of the expanded window is fiber block c mod d of point c div d
        d, fb = spec.index, spec.base.fiber_dim
        wide = FiniteSubset(_Z, tuple((t * d + g,) for (t,) in omega.elements for g in range(d)))
        return [(spec.base, wide, lambda c: ((c[0] // d,), c[0] % d * fb))]
    if isinstance(spec, Induced):
        # one base part per coset slice, point t of slice g landing at t*d + g
        d = spec.index
        return [
            (spec.base, part, lambda t, g=g: ((t[0] * d + g,), 0))
            for g, part in _coset_slices(omega, d)
        ]
    return None


def _window_model(spec: SubspaceSpec, omega: FiniteSubset, p: float, polarity: str) -> WindowModel:
    """The inner or outer model of spec on omega; exact models serve both."""
    spec = _resolved(spec)
    parts = _parts(spec, omega)
    if parts is not None:
        models = [(_window_model(part, w, p, polarity), place) for part, w, place in parts]
        return _placed_model(omega, p, spec.fiber_dim, models)
    if isinstance(spec, Full):
        return _window_ball(omega, p, spec.dim_v, "exact", np.eye(len(omega) * spec.dim_v))
    if isinstance(spec, Zero):
        return _window_ball(omega, p, spec.dim_v, "exact", np.zeros((len(omega) * spec.dim_v, 0)))
    if isinstance(spec, PeriodicInfty):
        return _periodic_infty_model(spec, omega, p)
    if isinstance(spec, UnionPeriodic):
        span = np.eye(len(omega)) if p == math.inf else np.zeros((len(omega), 0))
        return _window_ball(omega, p, 1, "exact", span)
    if isinstance(spec, KerPeriodization):
        if polarity == "outer":
            return _window_ball(omega, p, 1, "outer", np.eye(len(omega)))
        pattern = [((0,), np.array([[0.5]])), ((spec.period,), np.array([[-0.5]]))]
        return _translate_model(omega, p, 1, omega.elements, pattern, normalize=False)
    if isinstance(spec, ConvKernel):
        if polarity == "outer":
            return _conv_kernel_outer(spec, omega, p)
        return _conv_kernel_inner(spec, omega, p)
    if isinstance(spec, ConvImage):
        return _translate_span(omega, p, polarity, spec.fiber_dim, spec.kernel.blocks)
    if isinstance(spec, CyclicTranslates):
        pattern = _generator_pattern(spec)
        if polarity == "outer":
            return _translate_span(omega, p, polarity, spec.fiber_dim, pattern)
        from .tiling import greedy_pack

        centers = greedy_pack(omega, spec.core).centers.elements
        return _translate_model(omega, p, spec.fiber_dim, centers, pattern, normalize=True)
    raise CapabilityError(f"no {polarity} model for {spec!r}")


def _coset_slices(omega: FiniteSubset, d: int) -> list[tuple[int, FiniteSubset]]:
    """(g, slice) per residue g mod d met by omega; point t of slice g is t*d + g."""
    slices: dict[int, list[Coords]] = {}
    for (c,) in omega.elements:
        slices.setdefault(c % d, []).append((c // d,))
    return [(g, FiniteSubset(_Z, tuple(sorted(ts)))) for g, ts in sorted(slices.items())]


def _full_row_rank(blk: np.ndarray) -> bool:
    """Whether a pivot block has full row rank by matrix_rank."""
    return blk.shape[0] <= blk.shape[1] and matrix_rank(blk) == blk.shape[0]


def inner_window_model(spec: SubspaceSpec, omega: FiniteSubset, p: float) -> WindowModel:
    """Certified-from-inside surrogate of the restricted unit ball."""
    check_exponent(p)
    _check_window(spec, omega)
    return _window_model(spec, omega, p, "inner")


def outer_window_model(spec: SubspaceSpec, omega: FiniteSubset, p: float) -> WindowModel:
    """Certified-from-outside enclosure of the restricted unit ball."""
    check_exponent(p)
    _check_window(spec, omega)
    return _window_model(spec, omega, p, "outer")


def outer_rank(spec: SubspaceSpec, omega: FiniteSubset, p: float) -> int:
    """Rank of the outer model's span, built and factorised only as a fallback.

    Translate spans and convolution kernels over Z^d take the exact pivot
    counts of the module docstring, composites add the ranks of their
    _parts, and every other case factorises the outer model.
    outer_window_model(spec, omega, p).rank() stays the independent numeric
    reference for these counts.
    """
    check_exponent(p)
    _check_window(spec, omega)
    spec = _resolved(spec)
    parts = _parts(spec, omega)
    if parts is not None:
        return sum(outer_rank(part, w, p) for part, w, _ in parts)
    lattice = not any(omega.group.moduli)
    if lattice and isinstance(spec, (ConvImage, CyclicTranslates)):
        pattern = spec.kernel.blocks if isinstance(spec, ConvImage) else _generator_pattern(spec)
        if _full_row_rank(max(pattern, key=lambda sb: sb[0])[1]):
            return len(omega) * spec.fiber_dim
    if lattice and isinstance(spec, ConvKernel):
        h = spec.kernel
        if _full_row_rank(min(h.blocks, key=lambda sb: sb[0])[1]):
            return len(omega) * h.dim_in - len(_interior_rows(h, omega)) * h.dim_out
    return _window_model(spec, omega, p, "outer").rank()


# ------------------------------------------------------------ Fourier oracle


def fourier_oracle_dim(
    h: ConvolutionKernel, mode: str, grid_size: int = 512
) -> float:
    """Independent normalized-dimension oracle for convolution spaces over Z.

    Samples the symbol sum_s h(s) e^{i s theta} on a midpoint grid (midpoints
    dodge the isolated zeros of the test symbols) and averages the nullity
    (mode "kernel") or the rank (mode "image").  Complex arithmetic stays
    inside this function.
    """
    if h.group != _Z:
        raise CapabilityError("the symbol oracle needs the group of integers")
    if mode not in ("kernel", "image"):
        raise ValueError(f"mode must be 'kernel' or 'image', got {mode!r}")
    if grid_size < 1:
        raise ValueError("grid size must be >= 1")
    thetas = 2.0 * np.pi * (np.arange(grid_size) + 0.5) / grid_size
    total = 0.0
    for theta in thetas:
        symbol = np.zeros((h.dim_out, h.dim_in), dtype=complex)
        for (s,), blk in h.blocks:
            symbol += blk * np.exp(1j * s * theta)
        svals = np.linalg.svd(symbol, compute_uv=False)
        rank = int(np.sum(svals >= 1e-8))
        total += (h.dim_in - rank) if mode == "kernel" else rank
    return total / grid_size
