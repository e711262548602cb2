"""The benchmark's three workloads: inputs from a seed, operations, checks.

An operation is one certified grid (`hilbert_ladder`, `l1_certificate`) or
one `verify` invocation (`verify_suite`).  A pass runs every operation of the
workload once, in a fixed order, so each pass is a whole round of the same
work.  The seed changes kernel scales and thresholds, never window sizes or
the number of operations, so it changes the numbers without changing the
amount of work.

Calls into the package go through module attributes (`dimension.`, `cli.`),
so a tracer that rebinds those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from lpdim import cli, dimension
from lpdim.groups import GroupSpec
from lpdim.scenarios import near_dirac_translates
from lpdim.spaces import (
    ConvImage,
    ConvKernel,
    ConvolutionKernel,
    CyclicTranslates,
    DirectSum,
    KerPeriodization,
)

import checks

WORKLOADS = ("hilbert_ladder", "l1_certificate", "verify_suite")

# workloads whose program path imports scipy.optimize lazily (the p = 1
# certificate LPs); their set-up pays that import before the first cell
NEEDS_OPTIMIZE = {"l1_certificate", "verify_suite"}

# the suite's work depends on its seed (the nearest-point solver takes 350 to
# 10 500 iterations), so a pass averages over six to keep runs comparable
SUITE_SEEDS_PER_PASS = 6
# suite seeds a run draws from; `verify` passes every check on each of them.
# Drawing from a checked pool keeps out seeds on which a check fails, such as
# suite seed 1205, where projection-kkt misses its residual tolerance
SUITE_SEED_POOL = range(64)

_Z = GroupSpec.integer_lattice(1)
_Z2 = GroupSpec.integer_lattice(2)


@dataclass
class GridOp:
    """One estimate_dimension grid plus what its independent check needs.

    oracle_blocks lists (blocks, dim_in, dim_out, mode) per direct summand;
    it is None for p = 1 grids, whose corner must be exact at full rank.
    """

    name: str
    spec: object
    p: float
    windows: tuple[int, ...]
    eps: tuple[float, ...]
    lattice_rank: int
    fiber: int
    jobs: int
    oracle_blocks: Optional[list] = None

    def run(self):
        return dimension.estimate_dimension(self.spec, self.p, self.windows, self.eps, jobs=self.jobs)

    def problems(self, est) -> list[str]:
        sizes = {w: w**self.lattice_rank for w in self.windows}
        cells = [(c.window_index, c.window_size, c.eps, c.count_lo, c.count_hi) for c in est.cells]
        found = checks.grid_problems(cells, sizes, self.fiber)
        if len(cells) != len(self.windows) * len(self.eps):
            found.append(f"{len(cells)} cells for a {len(self.windows)}x{len(self.eps)} grid")
        corner = est.corner
        if self.oracle_blocks is None:
            found += checks.l1_corner_problems(corner.count_lo, corner.count_hi, corner.window_size, self.fiber)
        else:
            oracle, boundary = self._oracle_and_boundary()
            found += checks.hilbert_corner_problems(
                corner.count_lo, corner.count_hi, corner.window_size, oracle, boundary
            )
        return [f"{self.name}: {msg}" for msg in found]

    def fingerprint(self, est) -> str:
        return repr([(c.window_index, c.eps, c.count_lo, c.count_hi) for c in est.cells])

    def _oracle_and_boundary(self) -> tuple[float, int]:
        window = checks.box_window(self.lattice_rank, self.windows[-1])
        oracle = 0.0
        boundary = 0
        for blocks, dim_in, dim_out, mode in self.oracle_blocks:
            oracle += checks.symbol_dimension(blocks, dim_in, dim_out, mode)
            support = [coords for coords, _ in blocks]
            boundary += checks.boundary_term(window, support, dim_in if mode == "kernel" else dim_out)
        return oracle, boundary


@dataclass
class VerifyOp:
    """One `lpdim verify` run through cli.main, writing its JSON report."""

    seed: int
    jobs: int
    out_dir: Path

    @property
    def name(self) -> str:
        return f"verify-{self.seed}"

    def run(self):
        out = self.out_dir / f"verify-{self.seed}.json"
        argv = ["verify", "--seed", str(self.seed), "--jobs", str(self.jobs), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out.read_bytes()

    def problems(self, value) -> list[str]:
        code, raw = value
        if code != 0:
            return [f"{self.name}: exit code {code}"]
        found = checks.suite_report_problems(json.loads(raw), self.seed)
        return [f"{self.name}: {msg}" for msg in found]

    def fingerprint(self, value) -> str:
        # reports are promised byte-identical for a fixed seed
        return hashlib.sha256(value[1]).hexdigest()


def _one_by_two(a: float, b: float):
    return [((0,), [[a, 0.0]]), ((1,), [[0.0, b]])]


def _difference(c: float, rank: int):
    zero = (0,) * rank
    step = (1,) + (0,) * (rank - 1)
    return [(zero, [[c]]), (step, [[-c]])]


def _kernel(group, blocks) -> ConvolutionKernel:
    return ConvolutionKernel.of(group, dict(blocks))


def build_ops(workload: str, seed: int, jobs: int, out_dir: Path) -> list:
    """The workload's operations for one seed, in pass order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hilbert_ladder":
        a, b, c, c2 = (rng.uniform(0.5, 2.0) for _ in range(4))
        eps = (rng.uniform(0.18, 0.22), rng.uniform(0.045, 0.055))
        pair, diff, diff2 = _one_by_two(a, b), _difference(c, 1), _difference(c2, 2)
        kernel = ConvKernel(_kernel(_Z, pair))
        image = ConvImage(_kernel(_Z, diff))
        image2 = ConvImage(_kernel(_Z2, diff2))
        pair_oracle = (pair, 2, 1, "kernel")
        diff_oracle = (diff, 1, 1, "image")
        return [
            GridOp("conv_kernel", kernel, 2.0, (128, 256, 512), eps, 1, 2, jobs, [pair_oracle]),
            GridOp(
                "direct_sum", DirectSum(image, kernel), 2.0, (128, 256, 512), eps, 1, 3, jobs,
                [diff_oracle, pair_oracle],
            ),
            GridOp("conv_image", image, 2.0, (256, 512, 1024), eps, 1, 1, jobs, [diff_oracle]),
            GridOp("conv_image_z2", image2, 2.0, (8, 16, 32), eps, 2, 1, jobs, [(diff2, 1, 1, "image")]),
        ]
    if workload == "l1_certificate":
        c, scale = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        eps = (rng.uniform(1.4, 1.6), rng.uniform(0.85, 0.95))
        spike = near_dirac_translates(6)
        spike = CyclicTranslates(spike.generator.scaled(scale), spike.core, spike.tail_eps)
        windows = (64, 128, 256)
        return [
            GridOp("conv_image", ConvImage(_kernel(_Z, _difference(c, 1))), 1.0, windows, eps, 1, 1, jobs),
            GridOp("ker_periodization", KerPeriodization(2), 1.0, windows, eps, 1, 1, jobs),
            GridOp("near_dirac", spike, 1.0, windows, eps, 1, 1, jobs),
        ]
    if workload == "verify_suite":
        seeds = rng.sample(SUITE_SEED_POOL, SUITE_SEEDS_PER_PASS)
        return [VerifyOp(s, jobs, out_dir) for s in seeds]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
