"""Byte pins of the `lpdim run --out` report for every registry scenario,
and of the `lpdim verify --seed S --out` report for six suite seeds.

A change that claims to keep reports byte-identical keeps these sha256
prefixes.  The reports carry floats from dense factorisations, so a numpy
or LAPACK build that rounds differently can move them; re-pin only after
checking that the counts in the report did not change.
"""

import hashlib

import pytest

from lpdim import cli
from lpdim.scenarios import scenario_names

REPORT_SHA256 = {
    "annihilator": "92110dec9ce7",
    "conv_image": "47468254e929",
    "conv_image_fourier_demo": "143ee014306d",
    "conv_kernel": "144f75eac498",
    "cyclic": "4941563cde4a",
    "direct_sum": "9a40302365d7",
    "full": "812d3408bb5e",
    "induced": "34dfedb22525",
    "ker_periodization": "bf1aa5a043de",
    "periodic_infty": "1f117768bfd7",
    "reduced": "e13ecf315c28",
    "remark91_demo": "6c3150746ef4",
    "union_periodic": "36775e773ecc",
    "zero": "51fc5174e5f9",
}


VERIFY_SHA256 = {
    0: "c8d173415cdd",
    5: "33efda8f8cf2",
    17: "0f64b2518425",
    40: "5cc2cc4e9b5b",
    63: "548063536c75",
    1205: "bbb64bab7202",
}


def test_every_registry_scenario_is_pinned():
    assert sorted(REPORT_SHA256) == list(scenario_names())


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_run_report_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", "--scenario", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == REPORT_SHA256[name]


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_report_bytes_are_pinned(seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == VERIFY_SHA256[seed]
