"""Contract between the benchmark's span tracer and the package it wraps.

perfbench/tracer.py wraps package functions by name and reads WindowModel
attributes in its result hooks.  Running a small traced pass here makes a
rename that breaks the tracer fail in the test suite, not in a benchmark run.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

from lpdim.groups import GroupSpec, folner_window
from lpdim.spaces import ConvImage, ConvKernel, ConvolutionKernel

ROOT = Path(__file__).resolve().parents[1]
Z = GroupSpec.integer_lattice(1)


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reports_every_declared_layer_metric(monkeypatch):
    from lpdim import dimension, spaces

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = _load_tracer(monkeypatch).Tracer()
    diff = ConvolutionKernel.scalar(Z, {0: 1.0, 1: -1.0})
    pair = ConvolutionKernel.of(Z, {0: [[1.0, 0.0]], 1: [[0.0, 1.0]]})
    originals = (dimension.estimate_dimension, spaces.WindowModel.rank)
    start = time.perf_counter()
    tracer.install()
    try:
        # module attribute lookups, so the calls go through the wrapped functions
        est = dimension.estimate_dimension(ConvImage(diff), 1.0, [8, 16], [1.5, 0.9])
        rank = spaces.outer_window_model(ConvKernel(pair), folner_window(Z, 8), 2.0).rank()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(time.perf_counter() - start)
    # the benchmark worker adds the tracer's own overhead after the pass
    assert set(metrics) == declared - {"trace.overhead_s"}
    assert metrics["dimension.cells"][0] == len(est.cells) == 4
    assert metrics["spaces.columns"][0] > 0 and metrics["spaces.matrix_mb"][0] > 0
    assert metrics["widths.factor_gflop"][0] > 0
    assert rank == 9
    assert (dimension.estimate_dimension, spaces.WindowModel.rank) == originals
