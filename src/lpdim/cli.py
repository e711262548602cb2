"""Command line harness: scenario grids, the property suite, and listings.

Three subcommands.  `run` estimates a scenario's dimension grid and writes a
JSON summary and/or a CSV table.  `verify` executes the property suite and
exits nonzero when any check fails.  `list-scenarios` prints the registry.
Outputs are deterministic for a fixed config (and, for `verify`, seed):
grids are assembled keyed by window, JSON is dumped with sorted keys, and
the worker count only changes wall time, never bytes.

Exit codes: 0 success, 1 failed property check, 2 usage or structural
errors, 3 missing capability, 4 numeric failure (solver, tail bound,
certificate inversion or linear algebra).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._util import format_p, parse_p, to_int
from .dimension import D_and_N, estimate_dimension
from .errors import CapabilityError, CertificateInversion, SolverFailure, TailBoundError
from .groups import folner_window
from .scenarios import REGISTRY, scenario_names
from .suite import property_suite
from .widths import SolverSettings

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated float list, got {text!r}") from None


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return payload


def _config_object(config: dict, key: str) -> dict:
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise UsageError(f"config {key!r} must be a JSON object, got {value!r}")
    return value


def _resolve_jobs(flag_value: Optional[int], config: dict) -> int:
    env = os.environ.get("LPDIM_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"LPDIM_JOBS must be an integer, got {env!r}") from None
    if flag_value is not None:
        return max(1, flag_value)
    return max(1, to_int(config.get("jobs", 1), "config 'jobs'"))


def _write_csv(path: str, scenario: str, p: float, est) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["scenario", "p", "window", "epsilon", "ldim_lo", "ldim_hi", "norm_lo", "norm_hi"]
        )
        for c in est.cells:
            writer.writerow(
                [
                    scenario,
                    format_p(p),
                    c.window_index,
                    repr(c.eps),
                    c.count_lo,
                    c.count_hi,
                    repr(c.norm_lo),
                    repr(c.norm_hi),
                ]
            )


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    name = args.scenario or config.get("scenario")
    if not name:
        raise UsageError("run needs --scenario or a config file naming one")
    if not isinstance(name, str) or name not in REGISTRY:
        raise UsageError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    sc = REGISTRY[name]
    p = parse_p(args.p) if args.p is not None else parse_p(config.get("p", sc.p))
    windows = _parse_ints(args.windows) if args.windows else config.get("windows", sc.windows)
    eps = _parse_floats(args.eps) if args.eps else config.get("eps", sc.eps)
    jobs = _resolve_jobs(args.jobs, config)

    spec = sc.build()
    est = estimate_dimension(spec, p, windows, eps, jobs=jobs)
    diagnostics: dict = {"monotone_in_eps": est.monotone_in_eps}
    diag_cfg = _config_object(config, "diagnostics")
    if diag_cfg.get("dn"):
        # the projection solve runs on the smallest window; settings may be
        # overridden from the config to stress or relax the solver
        try:
            settings = SolverSettings(**_config_object(diag_cfg, "dn_settings"))
        except TypeError as err:  # a key SolverSettings does not have
            raise UsageError(f"config 'dn_settings': {err}") from None
        res = D_and_N(spec, p, folner_window(spec.group, min(est.window_indices)), settings)
        diagnostics["projection"] = {
            "d": res.d_value,
            "n": res.n_value,
            "relation_residual": res.relation_residual,
            "solver_residual": res.solver_residual,
            "iterations": res.iterations,
        }

    payload = {
        "scenario": name,
        "p": format_p(p),
        "bracket": {"lo": est.corner_lo, "hi": est.corner_hi},
        "grid": est.to_json_dict(),
        "diagnostics": diagnostics,
    }
    print(
        f"{name}: p={format_p(p)} bracket [{est.corner_lo:.6g}, {est.corner_hi:.6g}]"
        f" at window {est.window_indices[-1]}, eps {est.eps_values[-1]:g}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.csv:
        _write_csv(args.csv, name, p, est)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    only = config.get("only", [])
    only = [only] if isinstance(only, str) else only
    if not isinstance(only, list) or not all(isinstance(tag, str) for tag in only):
        raise UsageError(f"config 'only' must be a string or a list of strings, got {only!r}")
    config["only"] = only + (args.only or [])
    config["jobs"] = _resolve_jobs(args.jobs, config)
    seed = args.seed if args.seed is not None else to_int(config.get("seed", 0), "config 'seed'")
    report = property_suite(config, seed=seed)
    for c in report.checks:
        mark = "ok" if c.passed else "FAIL"
        print(f"[{mark}] {c.name} ({c.scenario}): {c.detail}")
    print(f"{len(report.checks)} checks, {len(report.failures)} failed, seed {report.seed}")
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.passed else EXIT_CHECK


def _cmd_list(args) -> int:
    entries = [REGISTRY[n] for n in scenario_names()]
    if args.json_output:
        payload = [
            {
                "name": s.name,
                "summary": s.summary,
                "p": format_p(s.p),
                "windows": list(s.windows),
                "eps": list(s.eps),
            }
            for s in entries
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for s in entries:
            grid = ",".join(str(w) for w in s.windows)
            print(f"{s.name:<24} p={format_p(s.p):<5} windows={grid:<12} {s.summary}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpdim",
        description="certified dimension grids for invariant subspaces over amenable groups",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="estimate a scenario's dimension grid")
    run.add_argument("--scenario", help="registry name (see list-scenarios)")
    run.add_argument("--config", help="JSON file with defaults for any flag")
    run.add_argument("--p", help="exponent, e.g. 2, 1.5, inf")
    run.add_argument("--windows", help="comma-separated ascending window indices")
    run.add_argument("--eps", help="comma-separated descending thresholds")
    run.add_argument("--jobs", type=int, help="worker threads for window columns")
    run.add_argument("--out", help="write the JSON summary here")
    run.add_argument("--csv", help="write the grid table here")
    run.set_defaults(handler=_cmd_run)

    verify = sub.add_parser("verify", help="run the property suite")
    verify.add_argument("--config", help="JSON file with suite options")
    verify.add_argument("--seed", type=int, help="suite seed (default 0)")
    verify.add_argument("--jobs", type=int, help="worker threads for grid estimates")
    verify.add_argument("--only", action="append", help="keep checks whose name contains this")
    verify.add_argument("--out", help="write the JSON report here")
    verify.set_defaults(handler=_cmd_verify)

    listing = sub.add_parser("list-scenarios", help="print the scenario registry")
    listing.add_argument("--json", dest="json_output", action="store_true", help="machine readable")
    listing.set_defaults(handler=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except CapabilityError as err:
        print(f"capability: {err}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (SolverFailure, TailBoundError, CertificateInversion, np.linalg.LinAlgError) as err:
        print(f"numeric: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
