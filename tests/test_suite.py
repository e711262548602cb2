"""Direct tests for the property suite runner (the CLI tests drive it too)."""

import json

import numpy as np

import lpdim.suite as suite_mod
from lpdim._util import rng_for
from lpdim.groups import GroupSpec
from lpdim.scenarios import near_dirac_translates
from lpdim.spaces import ConvolutionKernel, SupportedMap, convolve, pairing
from lpdim.suite import _dirac_gap, property_suite

Z = GroupSpec.integer_lattice(1)


def test_report_schema_and_green_run():
    report = property_suite({"only": ["packing", "quasi-tile"]}, seed=3)
    assert report.passed
    payload = report.to_json_dict()
    assert set(payload) == {"seed", "passed", "total", "failed", "checks"}
    assert payload["seed"] == 3
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["checks"]) >= 2
    for entry in payload["checks"]:
        assert set(entry) == {"name", "scenario", "passed", "detail"}
    json.dumps(payload)  # must be serializable as-is


def test_full_suite_names_are_stable():
    report = property_suite(seed=0)
    names = {c.name for c in report.checks}
    expected = {
        "grid-invariants",
        "translation-invariance",
        "full-exactness",
        "split-subadditivity",
        "block-superadditivity",
        "sum-additivity",
        "reduction-equality",
        "induction-consistency",
        "positivity-grid",
        "width-chain",
        "young-inequality",
        "packing-sandwich",
        "quasi-tile-coverage",
        "kernel-defect",
        "projection-kkt",
        "projection-relation",
        "dual-consistency",
        "dirac-approximation",
        "periodic-contrast",
    }
    assert names == expected
    assert report.passed, [c.detail for c in report.failures]


def test_exceptions_become_failures_not_crashes(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(suite_mod, "greedy_pack", explode)
    report = property_suite({"only": ["packing-sandwich"]}, seed=0)
    assert not report.passed
    assert len(report.checks) == 1
    failure = report.checks[0]
    assert failure.passed is False
    assert "RuntimeError" in failure.detail and "synthetic fault" in failure.detail


def test_dense_dirac_gap_matches_the_convolution_reference():
    """_dirac_gap is pairing(alpha, z * y) - pairing(alpha, z) through the
    library's dict convolution, up to a few roundings of the terms summed."""
    rng = rng_for(0, "test", "dirac-gap")
    for _ in range(200):
        k = int(rng.integers(6, 10))
        y = near_dirac_translates(k).generator
        y = y.scaled(1.0 / y.norm(1.0))
        spike = np.concatenate([y.data[c] for c in y.support])
        alpha = {int(c): rng.standard_normal() for c in rng.integers(-5, 15, size=6)}
        z = {int(c): rng.standard_normal() for c in rng.integers(-10, 10, size=8)}
        a, zmap = SupportedMap(Z, 1, alpha), SupportedMap(Z, 1, z)
        want = pairing(a, convolve(ConvolutionKernel.scalar(Z, z), y)) - pairing(a, zmap)
        # both pairings summed in absolute value scale every rounding in them;
        # the two sides sum the same products in different orders
        a_abs = SupportedMap(Z, 1, {c: abs(v) for c, v in alpha.items()})
        z_abs = {c: abs(v) for c, v in z.items()}
        scale = pairing(a_abs, convolve(ConvolutionKernel.scalar(Z, z_abs), y)) + pairing(
            a_abs, SupportedMap(Z, 1, z_abs)
        )
        got = _dirac_gap(alpha, z, spike)
        assert abs(got - want) <= 8 * np.finfo(float).eps * scale, (got, want, scale)
