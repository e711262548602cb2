"""Independent correctness checks for the benchmark's grids.

Nothing here imports lpdim.  The oracle samples the Fourier symbol of a
convolution kernel with numpy, and the window-boundary term is counted with
plain sets, so a fault in the package cannot also hide in its own checker.
"""

from __future__ import annotations

import itertools

import numpy as np

# slack for comparing normalized counts (exact ratios of small integers)
# against the symbol oracle, which is an average of integer ranks
_TOL = 1e-9


def symbol_dimension(blocks, dim_in: int, dim_out: int, mode: str, grid: int = 64) -> float:
    """Average nullity ("kernel") or rank ("image") of the symbol over the torus.

    blocks is a sequence of (coords, matrix) pairs with matrix of shape
    (dim_out, dim_in); the symbol at theta is sum_s h(s) exp(i <s, theta>).
    A midpoint grid avoids the isolated zeros at theta = 0 of the difference
    symbols the benchmark uses.
    """
    if mode not in ("kernel", "image"):
        raise ValueError(f"mode must be 'kernel' or 'image', got {mode!r}")
    rank = len(blocks[0][0])
    axis = 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
    thetas = np.array(list(itertools.product(axis, repeat=rank)))
    symbol = np.zeros((len(thetas), dim_out, dim_in), dtype=complex)
    for coords, blk in blocks:
        phase = np.exp(1j * (thetas @ np.asarray(coords, dtype=float)))
        symbol += phase[:, None, None] * np.asarray(blk, dtype=float)[None, :, :]
    svals = np.linalg.svd(symbol, compute_uv=False)
    ranks = np.sum(svals > 1e-8, axis=1)
    values = dim_in - ranks if mode == "kernel" else ranks
    return float(np.mean(values))


def box_window(rank: int, n: int) -> frozenset:
    """The Folner box [0, n)^rank as a set of coordinate tuples."""
    return frozenset(itertools.product(range(n), repeat=rank))


def boundary_term(window: frozenset, support, fiber: int) -> int:
    """Fiber-weighted count of window points whose S - S neighbourhood leaves it.

    For a convolution with support S, only these points can carry the
    difference between the inner and the outer model, so a certified p = 2
    bracket may be at most this wide in counts.
    """
    steps = {tuple(a - b for a, b in zip(s, t)) for s in support for t in support}
    edge = sum(
        1
        for x in window
        if any(tuple(a + b for a, b in zip(x, d)) not in window for d in steps)
    )
    return edge * fiber


def grid_problems(cells, window_sizes: dict, fiber: int) -> list[str]:
    """Order and range faults in a grid given as (window, size, eps, lo, hi) rows.

    Rows come in the order the grid was requested: windows ascending and
    thresholds descending within each window, so counts may not drop along
    a window's row.
    """
    problems = []
    for window, size, eps, lo, hi in cells:
        if size != window_sizes[window]:
            problems.append(f"window {window} has {size} points, expected {window_sizes[window]}")
        if not 0 <= lo <= hi <= size * fiber:
            problems.append(f"cell ({window}, {eps}) bracket ({lo}, {hi}) outside [0, {size * fiber}]")
    for a, b in zip(cells, cells[1:]):
        if a[0] == b[0] and (b[3] < a[3] or b[4] < a[4]):
            problems.append(f"counts drop from eps {a[2]} to eps {b[2]} at window {a[0]}")
    return problems


def hilbert_corner_problems(lo: int, hi: int, size: int, oracle: float, boundary: int) -> list[str]:
    """Faults of a p = 2 corner against the symbol oracle and the boundary term."""
    problems = []
    if not lo / size <= oracle + _TOL:
        problems.append(f"lower end {lo}/{size} lies above the oracle {oracle}")
    if not hi / size >= oracle - _TOL:
        problems.append(f"upper end {hi}/{size} lies below the oracle {oracle}")
    if hi - lo > boundary:
        problems.append(f"bracket ({lo}, {hi}) is wider than the boundary term {boundary}")
    return problems


def l1_corner_problems(lo: int, hi: int, size: int, fiber: int) -> list[str]:
    """Faults of a p = 1 corner that the inscribed-ball certificate should pin at full rank."""
    if lo == hi == size * fiber:
        return []
    return [f"corner ({lo}, {hi}) is not certified exact at {size * fiber}"]


def suite_report_problems(report: dict, seed: int) -> list[str]:
    """Faults of one `verify` JSON report: every check must have passed."""
    problems = []
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')} differs from {seed}")
    checks = report.get("checks", [])
    if not checks or report.get("total") != len(checks):
        problems.append(f"report lists {len(checks)} checks against a total of {report.get('total')}")
    failed = [c["name"] for c in checks if not c.get("passed")]
    if failed or report.get("failed") != 0 or report.get("passed") is not True:
        problems.append(f"suite seed {seed} failed checks {failed}")
    return problems
