"""End-to-end tests for the command line harness.

Run in process through cli.main so exit codes, stdout, and emitted files
are all observable, and so fault injection can monkeypatch the library
underneath the suite.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from lpdim import cli
from lpdim.scenarios import REGISTRY, get_scenario, scenario_names

GOLDEN_CSV = """scenario,p,window,epsilon,ldim_lo,ldim_hi,norm_lo,norm_hi
full,2.0,2,1.0,4,4,2.0,2.0
full,2.0,2,0.5,4,4,2.0,2.0
full,2.0,4,1.0,8,8,2.0,2.0
full,2.0,4,0.5,8,8,2.0,2.0
"""


def test_registry_contents():
    assert len(REGISTRY) >= 11
    assert scenario_names() == tuple(sorted(REGISTRY))
    for name in scenario_names():
        sc = get_scenario(name)
        spec = sc.build()
        assert spec.fiber_dim >= 1
        assert sc.windows == tuple(sorted(sc.windows))
        assert sc.eps == tuple(sorted(sc.eps, reverse=True))
    with pytest.raises(KeyError):
        get_scenario("nope")


def test_run_golden_csv(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code = cli.main(
        ["run", "--scenario", "full", "--p", "2", "--windows", "2,4",
         "--eps", "1.0,0.5", "--csv", str(csv_path)]
    )
    assert code == 0
    assert csv_path.read_text() == GOLDEN_CSV
    out = capsys.readouterr().out
    assert "bracket [2, 2]" in out


def test_run_json_summary_deterministic_across_jobs(tmp_path):
    paths = []
    for jobs in ("1", "8"):
        path = tmp_path / f"out-{jobs}.json"
        code = cli.main(
            ["run", "--scenario", "conv_image", "--windows", "4,8,12",
             "--eps", "0.9,0.4", "--jobs", jobs, "--out", str(path)]
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert payload["scenario"] == "conv_image"
    assert set(payload) == {"scenario", "p", "bracket", "grid", "diagnostics"}
    assert payload["diagnostics"]["monotone_in_eps"] is True


def test_verify_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["failed"] == 0
    assert report["seed"] == 7
    text = capsys.readouterr().out
    assert "[ok]" in text and "[FAIL]" not in text


def test_verify_deterministic_across_jobs(tmp_path):
    blobs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"report-{jobs}.json"
        assert cli.main(["verify", "--seed", "42", "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_only_filter(capsys):
    code = cli.main(["verify", "--only", "packing"])
    assert code == 0
    text = capsys.readouterr().out
    assert "packing-sandwich" in text
    assert "grid-invariants" not in text


def test_verify_fault_injection_names_kkt_check(monkeypatch, capsys):
    # a sign flip in the duality map must surface in the projection check
    import lpdim.suite
    import lpdim.widths

    def flipped(x, p):
        x = np.asarray(x, dtype=float)
        return -np.sign(x) * np.abs(x) ** (p - 1.0)

    monkeypatch.setattr(lpdim.widths, "mazur", flipped)
    monkeypatch.setattr(lpdim.suite, "mazur", flipped)
    code = cli.main(["verify", "--only", "projection"])
    assert code == 1
    text = capsys.readouterr().out
    assert "[FAIL] projection-kkt" in text


def test_unknown_scenario_exits_2(capsys):
    code = cli.main(["run", "--scenario", "bogus"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["run", "--bogus"]) == 2


def test_bad_grid_exits_2(capsys, tmp_path):
    code = cli.main(["run", "--scenario", "full", "--windows", "8,4", "--eps", "0.5"])
    assert code == 2
    assert "ascending" in capsys.readouterr().err
    for eps in ("nan", "inf", "0.5,nan"):
        code = cli.main(["run", "--scenario", "full", "--windows", "2", "--eps", eps])
        assert code == 2
        assert "finite" in capsys.readouterr().err
    # 1e999 reads as inf; config windows reach the grid check unconverted
    for windows in ("1e999", "NaN", "2.7", "[4, 2.5]"):
        cfg = tmp_path / "bad.json"
        grid = windows if windows.startswith("[") else f"[{windows}]"
        cfg.write_text(f'{{"scenario": "full", "windows": {grid}, "eps": [0.5]}}')
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "finite integers" in capsys.readouterr().err
    # config values that are not numbers or not lists
    for grid, message in (('"windows": [2], "eps": [null]', "numbers"), ('"windows": 5, "eps": [0.5]', "lists")):
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"scenario": "full", {grid}}}')
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


def test_certificate_inversion_exits_4(capsys, monkeypatch):
    import lpdim.dimension as dimension

    monkeypatch.setattr(dimension, "bracket_counts", lambda profile, eps: (5, 0))
    assert cli.main(["run", "--scenario", "full", "--windows", "2", "--eps", "0.5"]) == 4
    err = capsys.readouterr().err
    assert "numeric" in err and "certificate inversion" in err


def test_linalg_failure_exits_4(capsys, monkeypatch):
    import lpdim.dimension as dimension

    def broken(model):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(dimension, "bracket_profile", broken)
    assert cli.main(["run", "--scenario", "full", "--windows", "2", "--eps", "0.5"]) == 4
    assert "numeric" in capsys.readouterr().err


def test_oversized_window_exits_3_before_building_it(capsys, monkeypatch):
    import lpdim.dimension as dimension

    def no_window(group, index):
        raise AssertionError("the budget check must come first")

    monkeypatch.setattr(dimension, "folner_window", no_window)
    assert cli.main(["run", "--scenario", "conv_image", "--windows", "1000000"]) == 3
    assert "budget" in capsys.readouterr().err


def test_missing_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_list_scenarios_json(capsys):
    assert cli.main(["list-scenarios", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in payload]
    assert len(names) >= 11
    assert names == sorted(names)
    assert {"name", "summary", "p", "windows", "eps"} <= set(payload[0])


def test_module_entry_point_lists_scenarios():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "lpdim.cli", "list-scenarios"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "conv_image" in proc.stdout


def test_config_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scenario": "full", "windows": [2], "eps": [0.5]}))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert "full:" in capsys.readouterr().out
    # an explicit flag wins over the config value
    assert cli.main(["run", "--config", str(config), "--scenario", "zero"]) == 0
    assert "zero:" in capsys.readouterr().out


def test_projection_diagnostics_capability_exit_3(tmp_path, capsys):
    config = tmp_path / "dn.json"
    config.write_text(json.dumps({"diagnostics": {"dn": True}}))
    code = cli.main(["run", "--scenario", "cyclic", "--p", "1",
                     "--windows", "8", "--eps", "0.5", "--config", str(config)])
    assert code == 3
    assert "capability" in capsys.readouterr().err


def test_projection_diagnostics_strangled_solver_exit_4(tmp_path, capsys):
    config = tmp_path / "dn.json"
    config.write_text(
        json.dumps(
            {
                "diagnostics": {
                    "dn": True,
                    "dn_settings": {"max_iter": 1, "tol": 1e-14, "polish": False},
                }
            }
        )
    )
    code = cli.main(["run", "--scenario", "cyclic", "--p", "2.5",
                     "--windows", "16", "--eps", "0.5", "--config", str(config)])
    assert code == 4
    assert "numeric" in capsys.readouterr().err


def test_jobs_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LPDIM_JOBS", "3")
    out = tmp_path / "env.json"
    assert cli.main(["run", "--scenario", "full", "--windows", "2,4",
                     "--eps", "0.5", "--jobs", "1", "--out", str(out)]) == 0
    monkeypatch.setenv("LPDIM_JOBS", "not-a-number")
    assert cli.main(["run", "--scenario", "full", "--windows", "2",
                     "--eps", "0.5"]) == 2


def test_bad_config_values_exit_2(tmp_path, capsys):
    dn = {"scenario": "cyclic", "p": 1.5, "windows": [4], "eps": [0.5]}
    run_cases = [
        ({"scenario": "full", "windows": [2], "eps": [0.5], "diagnostics": 5}, "diagnostics"),
        ({"scenario": [1], "windows": [2], "eps": [0.5]}, "scenario"),
        ({"scenario": "full", "windows": [2], "eps": [0.5], "jobs": None}, "jobs"),
        # bools are not numbers, though Python counts them as ints
        ({"scenario": "conv_image", "windows": [8], "eps": [True], "p": True}, "exponent"),
        ({"scenario": "conv_image", "windows": [8], "eps": [True]}, "thresholds"),
        ({"scenario": "conv_image", "windows": [8], "eps": [0.5], "p": False}, "exponent"),
    ]
    for settings, message in (
        ({"bogus": 1}, "bogus"),
        ({"tol": "x"}, "tol"),
        ({"tol": -1}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"max_iter": None}, "max_iter"),
        ({"max_iter": 0}, "max_iter"),
        ({"initial_step": 0}, "initial_step"),
        ({"polish": 1}, "polish"),
    ):
        run_cases.append(({**dn, "diagnostics": {"dn": True, "dn_settings": settings}}, message))
    cfg = tmp_path / "bad.json"
    for config, message in run_cases:
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(cfg)]) == 2, config
        assert message in capsys.readouterr().err
    for config, message in (({"only": 5}, "only"), ({"only": [1]}, "only"), ({"seed": None}, "seed")):
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(cfg)]) == 2, config
        assert message in capsys.readouterr().err


def test_config_integers_beyond_the_float_range_read_as_infinity(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text('{"scenario": "full", "windows": [2], "eps": [0.5], "p": 1%s}' % ("0" * 400))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    assert "p=inf" in capsys.readouterr().out
    cfg.write_text('{"scenario": "full", "windows": [2], "eps": [1%s]}' % ("0" * 400))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err


# Any JSON value, kept small, for the keys where any value is cheap to refuse
# or to run.  Windows and job counts take their junk from narrower pools, so
# that no example builds a window above index 32 or asks for many threads.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5,
)
_JUNK = st.sampled_from([None, True, "2", 2.5, math.nan, math.inf, -1, 0, [], {}, [1], {"a": 1}])
_WINDOW_JUNK = (
    st.lists(st.integers(-2, 32) | _JUNK, max_size=3)
    | _JUNK
    | st.sampled_from([[10**6], [1e300], [10**400]])
)
_SMALL_INT_JUNK = st.integers(-2, 0) | _JUNK


def _config(keys: dict, required=()):
    """A config dict with well-formed values, but for at most one key junk.

    keys maps each key to (well-formed strategy, junk strategy).  Optional
    keys are left out at random, and one drawn key (or none) takes junk, so
    every other value is valid and the example reaches the code behind it.
    """

    @st.composite
    def build(draw):
        config = {
            key: draw(good) for key, (good, _) in keys.items()
            if key in required or draw(st.booleans())
        }
        bad = draw(st.sampled_from([None, *keys]))
        if bad is not None:
            config[bad] = draw(keys[bad][1])
        return config

    return build()


_SETTINGS = _config(
    {
        "max_iter": (st.integers(1, 50), _SMALL_INT_JUNK),
        "tol": (st.floats(1e-12, 1e-2), _JSON),
        "initial_step": (st.floats(1e-3, 10.0), _JSON),
        "polish": (st.booleans(), _JSON),
    }
)
_JOBS = (st.integers(1, 3), _SMALL_INT_JUNK)
_RUN_CONFIG = _config(
    {
        "scenario": (st.sampled_from(scenario_names()), _JSON),
        "windows": (
            st.lists(st.integers(1, 32), min_size=1, max_size=3, unique=True).map(sorted),
            _WINDOW_JUNK,
        ),
        "p": (st.sampled_from([1, 1.5, 2, 3, "inf", "2"]) | st.floats(1.0, 8.0), _JSON),
        "eps": (
            st.lists(st.floats(1e-3, 2.5), min_size=1, max_size=3, unique=True).map(
                lambda cuts: sorted(cuts, reverse=True)
            ),
            _JSON,
        ),
        "jobs": _JOBS,
        "diagnostics": (
            st.fixed_dictionaries({"dn": st.just(True)}, optional={"dn_settings": _SETTINGS}),
            _JSON,
        ),
    },
    required=("scenario", "windows"),
)
_VERIFY_CONFIG = _config(
    {
        "only": (st.sampled_from(["grid", "duality", ["kkt", "tiling"]]), _JSON),
        "seed": (st.integers(0, 2**40), _JSON),
        "jobs": _JOBS,
    }
)


def _exit_code(command: str, config: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        return cli.main([command, "--config", str(path)])


# derandomized so that every run of the suite tries the same examples
_BOUNDARY = dict(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@hyp_settings(max_examples=80, **_BOUNDARY)
@given(config=_RUN_CONFIG)
def test_run_config_boundary_exits_with_a_documented_code(config):
    assert _exit_code("run", config) in (0, 2, 3, 4)


@hyp_settings(max_examples=10, **_BOUNDARY)
@given(config=_VERIFY_CONFIG)
def test_verify_config_boundary_exits_with_a_documented_code(config):
    assert _exit_code("verify", config) in (0, 2, 3, 4)
