#!/usr/bin/env python3
"""Duality and projection diagnostics side by side."""

import math

from lpdim import (
    ConvImage,
    D_and_N,
    Full,
    GroupSpec,
    SolverSettings,
    dual_dimension,
    estimate_dimension,
    folner_window,
)
from lpdim.scenarios import difference_kernel, geometric_translates

Z = GroupSpec.integer_lattice(1)


def main() -> None:
    spec = ConvImage(difference_kernel())
    print("primal vs annihilator-route estimates for the difference image")
    for p in (1.5, 2.0):
        primal = estimate_dimension(spec, p, [32], [0.2])
        dual = dual_dimension(spec, p, [32], [0.2])
        print(
            f"  p = {p}: primal [{primal.corner_lo:.4f}, {primal.corner_hi:.4f}]"
            f"  dual [{dual.corner_lo:.4f}, {dual.corner_hi:.4f}]"
        )
    print()

    print("projection diagnostics d and n; at p = 2 the two must coincide")
    omega = folner_window(Z, 8)
    # on the truncated-tail geometry the p = 1.5 ball solve stops near 2e-7,
    # above the default 1e-8, so the demo asks for a diagnostic tolerance
    loose = SolverSettings(tol=1e-5)
    for label, spec2 in (("full", Full(Z, 1)), ("geometric", geometric_translates())):
        for p in (1.5, 2.0, 3.0):
            res = D_and_N(spec2, p, omega, settings=loose)
            print(
                f"  {label:9s} p = {p:3}: d = {res.d_value:.6f}  n = {res.n_value:.6f}"
                f"  relation residual {res.relation_residual:+.2e}"
            )
    print()
    print("the relation residual is reported, not asserted; away from p = 2 it")
    print("measures how far the pair sits from the exact-projection relation.")


if __name__ == "__main__":
    main()
