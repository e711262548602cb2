"""Outside-in span tracer for the package's public layer functions.

install() rebinds each traced function at every module binding the program
calls through (the package imports several of them by name into other
modules, and `spaces` recurses through its own module globals), plus
`scipy.optimize.linprog`, which `inscribed_l1_radius` imports at call time.
Spans (name, start, end, parent) stay in memory; layer_metrics() turns them
into self times and counts once the traced pass is over.

The tracer keeps one span stack, so it assumes the grid runs on one thread;
the benchmark fixes jobs to 1 for traced runs.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

# (module, attribute) pairs wrapped as spans; the span name is "module.attribute"
TRACED = (
    ("lpdim.groups", "folner_window"),
    ("lpdim.spaces", "inner_window_model"),
    ("lpdim.spaces", "outer_window_model"),
    ("lpdim.widths", "bracket_profile"),
    ("lpdim.widths", "bracket_counts"),
    ("lpdim.widths", "inscribed_l1_radius"),
    ("lpdim.widths", "nearest_point"),
    ("lpdim.dimension", "estimate_dimension"),
    ("lpdim.dimension", "dual_dimension"),
    ("lpdim.dimension", "D_and_N"),
    ("lpdim.dimension", "build_Q"),
    ("lpdim.tiling", "greedy_pack"),
    ("lpdim.tiling", "quasi_tile"),
    ("lpdim.suite", "property_suite"),
    ("lpdim.cli", "main"),
    ("scipy.optimize", "linprog"),
)

_MODELS = ("lpdim.spaces.inner_window_model", "lpdim.spaces.outer_window_model")
_TILING = ("lpdim.tiling.greedy_pack", "lpdim.tiling.quasi_tile")
_LINPROG = "scipy.optimize.linprog"
_RANK = "lpdim.spaces.WindowModel.rank"


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _svd_values_flops(m: int, n: int) -> float:
    m, n = max(m, n), min(m, n)
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _profile_flops(model) -> float:
    """Dense work of bracket_profile on an inner model, from array shapes.

    Gram product, symmetric eigendecomposition with vectors (about 9 k^3),
    whitening product, and a values-only SVD of the whitened map, whose
    column count is taken as min(n, k).  Rank SVDs are counted where
    WindowModel.rank runs.
    """
    n, k = model.matrix.shape
    if model.polarity != "inner" or k == 0:
        return 0.0
    full = model.full_matrix if model.full_matrix is not None else model.matrix
    r = min(n, k)
    return 2.0 * full.shape[0] * k * k + 9.0 * k**3 + 2.0 * n * k * r + _svd_values_flops(n, r)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.check_marks: list[tuple[int, float]] = []  # (property_suite span, time)
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._lp_profiles: dict[int, list] = {}  # id(profile) -> [profile, useful]

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        import scipy.optimize  # noqa: F401 - loaded now, so linprog can be rebound
        import lpdim.cli  # noqa: F401 - loads every traced package module
        from lpdim import spaces, suite, widths

        self._raw_bracket_counts = widths.bracket_counts
        originals = {}
        for mod_name, attr in TRACED:
            fn = getattr(sys.modules[mod_name], attr)
            originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{attr}", fn))
        modules = [m for name, m in list(sys.modules.items()) if name == "lpdim" or name.startswith("lpdim.")]
        modules.append(sys.modules["scipy.optimize"])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._rebind(mod, attr, originals[id(value)][1])
        self._rebind(spaces.WindowModel, "rank", self._wrap(_RANK, spaces.WindowModel.rank))
        real_result = suite.CheckResult

        def check_result(*args, **kwargs):
            owner = self._stack[-1].sid if self._stack else -1
            self.check_marks.append((owner, time.perf_counter()))
            return real_result(*args, **kwargs)

        self._rebind(suite, "CheckResult", check_result)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _rebind(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = {
            "lpdim.widths.bracket_profile": self._after_profile,
            "lpdim.widths.bracket_counts": self._after_counts,
            "lpdim.widths.nearest_point": self._after_nearest,
            "lpdim.dimension.estimate_dimension": self._after_grid,
            _RANK: self._after_rank,
        }.get(name)
        if name in _MODELS:
            hook = self._after_model

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].sid if self._stack else -1
            span = Span(len(self.spans), parent, name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    # ------------------------------------------------------------ result hooks

    def _after_model(self, span: Span, args, model) -> None:
        nbytes = model.matrix.nbytes
        if model.full_matrix is not None and model.full_matrix is not model.matrix:
            nbytes += model.full_matrix.nbytes
        span.info.update(columns=model.num_columns, nbytes=nbytes)

    def _after_profile(self, span: Span, args, profile) -> None:
        span.info["flops"] = _profile_flops(args[0])
        span.info["profile"] = id(profile)
        # spans opened during this call are exactly the ones after it
        span.info["ran_lp"] = any(s.name == _LINPROG for s in self.spans[span.sid + 1 :])
        if span.info["ran_lp"]:
            # keep the profile alive so its id cannot be reused by another one
            self._lp_profiles[id(profile)] = [profile, False]

    def _after_rank(self, span: Span, args, rank) -> None:
        span.info["flops"] = _svd_values_flops(*args[0].matrix.shape)

    def _after_counts(self, span: Span, args, counts) -> None:
        profile, eps = args[0], args[1]
        entry = self._lp_profiles.get(id(profile))
        if entry is None or entry[1] or profile.l1_radius <= 0.0:
            return
        # the LP radius was useful if the count without it is lower
        without = self._raw_bracket_counts(replace(profile, l1_radius=0.0), eps)
        entry[1] = without[0] < counts[0]

    def _after_nearest(self, span: Span, args, result) -> None:
        span.info["iterations"] = result.iterations

    def _after_grid(self, span: Span, args, est) -> None:
        span.info["cells"] = len(est.cells)

    # ----------------------------------------------------------------- metrics

    def layer_metrics(self, wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass whose wall time is wall.

        A call that raised has a span but no result details, so those read
        as absent rather than failing the report.
        """
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)

        def ancestors(s: Span):
            while s.parent >= 0:
                s = spans[s.parent]
                yield s

        def self_time(s: Span) -> float:
            return s.duration - sum(c.duration for c in children.get(s.sid, ()))

        def descendants(s: Span):
            for c in children.get(s.sid, ()):
                yield c
                yield from descendants(c)

        def total(names, outermost=False, measure=None) -> float:
            acc = 0.0
            for s in spans:
                if s.name not in names:
                    continue
                if outermost and any(a.name in names for a in ancestors(s)):
                    continue
                acc += measure(s) if measure else s.duration
            return acc

        def named(name):
            return [s for s in spans if s.name == name]

        # profiles that ran LPs, and whether their radius raised a count
        profiles = named("lpdim.widths.bracket_profile")
        lp_profiles = [p for p in profiles if p.info.get("ran_lp")]
        useful = sum(self._lp_profiles[p.info["profile"]][1] for p in lp_profiles)

        def lp_time(s: Span) -> float:
            return sum(d.duration for d in descendants(s) if d.name == _LINPROG)

        grids = named("lpdim.dimension.estimate_dimension")
        columns = [t for g in grids for t in self._column_times(g, children)]
        check_times = self._check_times()
        top = sum(s.duration for s in children.get(-1, ()))
        solver = total(("lpdim.dimension.D_and_N", "lpdim.widths.nearest_point"), outermost=True)
        in_profile = [s for s in named(_RANK) if any(a.name == "lpdim.widths.bracket_profile" for a in ancestors(s))]
        gflop = sum(s.info.get("flops", 0.0) for s in profiles + in_profile) / 1e9
        models = [s for s in spans if s.name in _MODELS and not any(a.name in _MODELS for a in ancestors(s))]
        iterations = sum(s.info.get("iterations", 0) for s in named("lpdim.widths.nearest_point"))
        metrics = {
            "groups.window_s": (total(("lpdim.groups.folner_window",), measure=self_time), "s"),
            "spaces.inner_s": (total(("lpdim.spaces.inner_window_model",), measure=self_time), "s"),
            "spaces.outer_s": (total(("lpdim.spaces.outer_window_model",), measure=self_time), "s"),
            "spaces.columns": (float(sum(s.info.get("columns", 0) for s in models)), "count"),
            "spaces.matrix_mb": (sum(s.info.get("nbytes", 0) for s in models) / 2**20, "MB"),
            "widths.factor_s": (sum(p.duration - lp_time(p) for p in profiles), "s"),
            "widths.factor_gflop": (gflop, "GFLOP"),
            "widths.lp_s": (total((_LINPROG,)), "s"),
            "widths.lp_solves": (float(len(named(_LINPROG))), "count"),
            "widths.lp_useful_ratio": (useful / len(lp_profiles) if lp_profiles else 0.0, "ratio"),
            "widths.count_s": (total(("lpdim.widths.bracket_counts",)), "s"),
            "dimension.grid_s": (total(("lpdim.dimension.estimate_dimension",), outermost=True), "s"),
            "dimension.cells": (float(sum(s.info.get("cells", 0) for s in grids)), "count"),
            "dimension.largest_column_s": (max(columns, default=0.0), "s"),
            "dimension.solver_s": (solver, "s"),
            "widths.nearest_iters": (float(iterations), "count"),
            "tiling.pack_s": (total(_TILING, outermost=True), "s"),
            "suite.checks": (float(len(check_times)), "count"),
            "suite.slowest_check_s": (max(check_times, default=0.0), "s"),
            "cli.report_s": (total(("lpdim.cli.main",), measure=self_time), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (sum(self_time(s) for s in spans), "s"),
            "trace.uncovered_s": (wall - top, "s"),
            "trace.spans": (float(len(spans)), "count"),
        }
        return metrics

    @staticmethod
    def _column_times(grid: Span, children) -> list[float]:
        """Durations of a grid's window columns; each column opens with folner_window."""
        groups: list[list[Span]] = []
        for c in sorted(children.get(grid.sid, ()), key=lambda s: s.start):
            if c.name == "lpdim.groups.folner_window" or not groups:
                groups.append([])
            groups[-1].append(c)
        return [g[-1].end - g[0].start for g in groups]

    def _check_times(self) -> list[float]:
        """Time between consecutive check results inside each property_suite span."""
        out = []
        last: dict[int, float] = {}
        for owner, t in self.check_marks:
            start = last.get(owner, self.spans[owner].start if owner >= 0 else t)
            out.append(t - start)
            last[owner] = t
        return out

    def self_times_by_name(self) -> dict[str, float]:
        children: dict[int, float] = {}
        for s in self.spans:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration - children.get(s.sid, 0.0)
        return out
