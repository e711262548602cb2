"""Translation-invariant subspaces and their finite windowed surrogates.

A subspace of the p-summable functions on a group is described symbolically
(kernel or image of a finitely supported convolution, span of translates of a
generator, periodization kernels, sums, duals, index-d reindexings).  For a
finite window the library builds a *surrogate* of the restricted unit ball:

  inner polarity: columns are restrictions of explicitly constructed
    subspace elements whose full-space norm is at most one, together with the
    full-space matrix over the union of their supports.  The modeled body,
    restrictions of span elements with full norm <= 1, is certified to sit
    inside the true restricted ball.  Kernel elements come from a null-space
    basis, so each is checked after the fact: a column whose residual is
    above the rounding level of its own computation is dropped.
  outer polarity: the column span provably contains every restriction, and
    the body is span intersected with the ambient unit ball, so it encloses
    the true restricted ball.  Its cut counts need only the span's rank,
    which outer_rank reads off the structure where a pivot rule holds on
    Z^d (any finite window, lexicographic order):
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
  exact polarity: the restricted ball is provably exactly span intersected
    with the ambient ball (full space, zero space, periodic patterns at
    p = infinity).

Direct sums, reductions and inductions are split into parts in one place,
_parts; window models stack the parts' models and outer ranks add their
ranks.  Annihilators resolve to their closed-form duals first.

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

from ._util import check_exponent, lp_norm, numerical_rank
from .errors import CapabilityError, StructureError
from .groups import (
    Coords,
    FiniteSubset,
    GroupSpec,
    compose_coords,
    invert_coords,
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

    matrix rows run over window coordinates in canonical order, fiber slots
    fastest.  For inner and exact models, full_matrix holds the same columns
    over full_support (a superset of the window), and column_norms records
    the full-space p-norm of each stored column (always <= 1).
    """

    label: str
    window: FiniteSubset
    p: float
    fiber_dim: int
    polarity: str
    matrix: np.ndarray
    full_matrix: Optional[np.ndarray] = None
    full_support: Optional[tuple[Coords, ...]] = None
    column_norms: Optional[tuple[float, ...]] = None

    @property
    def ambient_dim(self) -> int:
        return len(self.window) * self.fiber_dim

    @property
    def num_columns(self) -> int:
        return self.matrix.shape[1]

    def rank(self) -> int:
        if self.matrix.size == 0:
            return 0
        return numerical_rank(np.linalg.svd(self.matrix, compute_uv=False), self.matrix.shape)


def _genuine_model(
    label: str,
    window: FiniteSubset,
    p: float,
    fiber: int,
    coords: Sequence[Coords],
    full: np.ndarray,
    normalize: bool,
) -> WindowModel:
    """Inner model from the full-space columns of genuine subspace elements.

    full holds fiber rows per point of coords (sorted, a superset of the
    window).  Columns of norm at most 1e-14 are dropped, the rest are
    normalized or checked against the unit ball, and the window rows are
    sliced out.
    """
    norms = np.array([lp_norm(full[:, j], p) for j in range(full.shape[1])])
    keep = norms > 1e-14
    full, norms = full.compress(keep, axis=1), norms[keep]
    if normalize:
        full = full / norms
        norms = np.ones(norms.size)
    over = norms[norms > 1.0 + 1e-9]
    if over.size:
        raise StructureError(f"inner column exceeds the unit ball: norm {over[0]:.6g}")
    pos = {c: i for i, c in enumerate(coords)}
    base = np.asarray([pos[c] * fiber for c in window.elements], dtype=int)
    rows = (base[:, None] + np.arange(fiber)).ravel()
    return WindowModel(
        label=label,
        window=window,
        p=p,
        fiber_dim=fiber,
        polarity="inner",
        matrix=full[rows, :],
        full_matrix=full,
        full_support=tuple(coords),
        column_norms=tuple(norms.tolist()),
    )


def _translate_model(
    label: str,
    window: FiniteSubset,
    p: float,
    fiber: int,
    sources: Sequence[Coords],
    pattern: Sequence[tuple[Coords, np.ndarray]],
    normalize: bool,
) -> WindowModel:
    """Inner model whose columns are translates of one block pattern.

    pattern lists (offset s, block) pairs, each block of shape (fiber, slots).
    The column for source gamma and slot v carries block[:, v] at gamma * s;
    columns run over sources in the given order with the slot fastest.  Rows
    cover the window plus every point where some column is nonzero.
    """
    grp = window.group
    slots = pattern[0][1].shape[1]
    targets = [[compose_coords(grp, g, s) for g in sources] for s, _ in pattern]
    points = sorted(set(window.elements).union(*targets))
    pos = {c: i for i, c in enumerate(points)}
    cube = np.zeros((len(points), fiber, len(sources), slots))
    src = np.arange(len(sources))
    for (_, blk), tgt in zip(pattern, targets):
        cube[np.asarray([pos[c] for c in tgt], dtype=int), :, src, :] = blk
    live = np.any(cube != 0.0, axis=(1, 2, 3))
    inside = window.coord_set
    keep = [i for i, c in enumerate(points) if live[i] or c in inside]
    full = cube[keep].reshape(len(keep) * fiber, len(sources) * slots)
    return _genuine_model(
        label, window, p, fiber, [points[i] for i in keep], full, normalize
    )


def _translate_span(label, omega, p, polarity, fiber, pattern) -> WindowModel:
    """Every translate of the pattern that meets the window (sources omega * S^-1).

    The inner model holds them as genuine elements; the outer model is the
    span of their window restrictions.
    """
    grp = omega.group
    sources = _product_coords(grp, omega.elements, [invert_coords(grp, s) for s, _ in pattern])
    model = _translate_model(label, omega, p, fiber, sources, pattern, normalize=True)
    if polarity == "outer":
        return _span_enclosure(label, omega, p, fiber, model.matrix)
    return model


def _span_enclosure(
    label: str, window: FiniteSubset, p: float, fiber: int, matrix: np.ndarray
) -> WindowModel:
    return WindowModel(
        label=label,
        window=window,
        p=p,
        fiber_dim=fiber,
        polarity="outer",
        matrix=np.asarray(matrix, dtype=float),
    )


def _exact_ball(label, window, p, fiber, matrix, full=None, support=None, norms=None):
    return WindowModel(
        label=label,
        window=window,
        p=p,
        fiber_dim=fiber,
        polarity="exact",
        matrix=np.asarray(matrix, dtype=float),
        full_matrix=full,
        full_support=support,
        column_norms=norms,
    )


def _product_coords(grp: GroupSpec, a, b) -> list[Coords]:
    return sorted({compose_coords(grp, x, y) for x in a for y in b})


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


def _conv_constraint_matrix(
    h: ConvolutionKernel, rows: Sequence[Coords], cols: FiniteSubset
) -> np.ndarray:
    """Matrix of the equations (h * y)(row) = 0 for y supported on cols."""
    grp = h.group
    d_in, d_out = h.dim_in, h.dim_out
    mat = np.zeros((len(rows) * d_out, len(cols) * d_in))
    col_pos = cols.positions
    for s, blk in h.blocks:
        s_inv = invert_coords(grp, s)
        for r, eta in enumerate(rows):
            w = compose_coords(grp, eta, s_inv)
            j = col_pos.get(w)
            if j is not None:
                mat[r * d_out : (r + 1) * d_out, j * d_in : (j + 1) * d_in] += blk
    return mat


def _conv_kernel_inner(spec: ConvKernel, omega, p) -> WindowModel:
    h = spec.kernel
    rows = _product_coords(h.group, omega.elements, [c for c, _ in h.blocks])
    basis = _null_space(_conv_constraint_matrix(h, rows, omega), checked=True)
    return _genuine_model(
        spec.describe(), omega, p, h.dim_in, omega.elements, basis, normalize=True
    )


def _interior_rows(h: ConvolutionKernel, omega: FiniteSubset) -> list[Coords]:
    """Points eta whose whole constraint (h * y)(eta) reads inside the window."""
    inv_support = [invert_coords(h.group, c) for c, _ in h.blocks]
    window_set = omega.coord_set
    return [
        eta
        for eta in _product_coords(h.group, omega.elements, [c for c, _ in h.blocks])
        if all(compose_coords(h.group, eta, s) in window_set for s in inv_support)
    ]


def _conv_kernel_outer(spec: ConvKernel, omega, p) -> WindowModel:
    h = spec.kernel
    mat = _conv_constraint_matrix(h, _interior_rows(h, omega), omega)
    return _span_enclosure(spec.describe(), omega, p, h.dim_in, _null_space(mat))


def _unit_generator(spec: CyclicTranslates, p) -> list[tuple[Coords, np.ndarray]]:
    """The generator scaled to unit p-norm, as a one-slot block pattern."""
    nrm = spec.generator.norm(p)
    if nrm <= 0.0:
        raise StructureError("cyclic generator is zero")
    scale = 1.0 / nrm
    return [(c, (scale * v)[:, None]) for c, v in spec.generator.data.items()]


def _periodic_infty_model(spec: PeriodicInfty, omega, p) -> WindowModel:
    n = spec.period
    size = len(omega)
    if p != math.inf:
        empty = np.zeros((size, 0))
        return _exact_ball(spec.describe(), omega, p, 1, empty, empty, omega.elements, ())
    cols = []
    for residue in range(n):
        col = np.array([1.0 if c[0] % n == residue else 0.0 for c in omega.elements])
        if np.any(col != 0.0):
            cols.append(col)
    mat = np.column_stack(cols) if cols else np.zeros((size, 0))
    # at p = inf the sup norm of a periodic indicator is attained inside any
    # window that meets its class, so the window matrix doubles as the full one
    return _exact_ball(
        spec.describe(), omega, p, 1, mat, mat, omega.elements, (1.0,) * mat.shape[1]
    )


def _full_model(label, omega, p, fiber) -> WindowModel:
    n = len(omega) * fiber
    eye = np.eye(n)
    return _exact_ball(label, omega, p, fiber, eye, eye, omega.elements, (1.0,) * n)


def _zero_model(label, omega, p, fiber) -> WindowModel:
    empty = np.zeros((len(omega) * fiber, 0))
    return _exact_ball(label, omega, p, fiber, empty, empty, omega.elements, ())


def _placed_model(label, omega, p, fiber, parts) -> WindowModel:
    """Stack part models into the rows of a composite model on omega.

    parts lists (model, place) pairs; place maps a coordinate of the part to
    (composite point, first fiber slot), and the part's fiber slots follow on
    from that slot.  Columns run over the parts in the given order.  The
    composite is outer if any part is, else inner if any part is, else exact;
    inner and exact composites also stack the full matrices, over the window
    plus every placed full-support point, and concatenate the column norms.
    """
    models = [m for m, _ in parts]
    edges = np.cumsum([0] + [m.num_columns for m in models])

    def stacked(points, placed, mats) -> np.ndarray:
        pos = {c: i for i, c in enumerate(points)}
        out = np.zeros((len(points) * fiber, edges[-1]))
        for j, (m, where, mat) in enumerate(zip(models, placed, mats)):
            first = np.asarray([pos[c] * fiber + slot for c, slot in where], dtype=int)
            rows = (first[:, None] + np.arange(m.fiber_dim)).ravel()
            out[rows, edges[j] : edges[j + 1]] = mat
        return out

    polarities = {m.polarity for m in models}
    in_window = [list(map(place, m.window.elements)) for m, place in parts]
    matrix = stacked(omega.elements, in_window, [m.matrix for m in models])
    if "outer" in polarities:
        return _span_enclosure(label, omega, p, fiber, matrix)
    placed = [list(map(place, m.full_support)) for m, place in parts]
    support = tuple(sorted(set(omega.elements).union(*([c for c, _ in w] for w in placed))))
    return WindowModel(
        label=label,
        window=omega,
        p=p,
        fiber_dim=fiber,
        polarity="inner" if "inner" in polarities else "exact",
        matrix=matrix,
        full_matrix=stacked(support, placed, [m.full_matrix for m in models]),
        full_support=support,
        column_norms=sum((m.column_norms for m in models), ()),
    )


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
    label = spec.describe()
    parts = _parts(spec, omega)
    if parts is not None:
        models = [(_window_model(part, w, p, polarity), place) for part, w, place in parts]
        return _placed_model(label, omega, p, spec.fiber_dim, models)
    if isinstance(spec, Full):
        return _full_model(label, omega, p, spec.dim_v)
    if isinstance(spec, Zero):
        return _zero_model(label, omega, p, spec.dim_v)
    if isinstance(spec, PeriodicInfty):
        return _periodic_infty_model(spec, omega, p)
    if isinstance(spec, UnionPeriodic):
        if p == math.inf:
            return _full_model(label, omega, p, 1)
        return _zero_model(label, omega, p, 1)
    if isinstance(spec, KerPeriodization):
        if polarity == "outer":
            return _span_enclosure(label, omega, p, 1, np.eye(len(omega)))
        pattern = [((0,), np.array([[0.5]])), ((spec.period,), np.array([[-0.5]]))]
        return _translate_model(label, omega, p, 1, omega.elements, pattern, normalize=False)
    if isinstance(spec, ConvKernel):
        if polarity == "outer":
            return _conv_kernel_outer(spec, omega, p)
        return _conv_kernel_inner(spec, omega, p)
    if isinstance(spec, ConvImage):
        return _translate_span(label, omega, p, polarity, spec.fiber_dim, spec.kernel.blocks)
    if isinstance(spec, CyclicTranslates):
        unit = _unit_generator(spec, p)
        if polarity == "outer":
            return _translate_span(label, omega, p, polarity, spec.fiber_dim, unit)
        from .tiling import greedy_pack

        centers = greedy_pack(omega, spec.core).centers.elements
        return _translate_model(label, omega, p, spec.fiber_dim, centers, unit, normalize=True)
    raise CapabilityError(f"no {polarity} model for {spec!r}")


def _coset_slices(omega: FiniteSubset, d: int) -> list[tuple[int, FiniteSubset]]:
    """(g, slice) per residue g mod d met by omega; point t of slice g is t*d + g."""
    slices: dict[int, list[Coords]] = {}
    for (c,) in omega.elements:
        slices.setdefault(c % d, []).append((c // d,))
    return [(g, FiniteSubset(_Z, tuple(sorted(ts)))) for g, ts in sorted(slices.items())]


def _full_row_rank(blk: np.ndarray) -> bool:
    """Whether a pivot block has full row rank by numerical_rank."""
    s = np.linalg.svd(blk, compute_uv=False)
    return blk.shape[0] <= blk.shape[1] and numerical_rank(s, blk.shape) == blk.shape[0]


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
        pattern = spec.kernel.blocks if isinstance(spec, ConvImage) else _unit_generator(spec, p)
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
