#!/usr/bin/env python3
"""Width counts of a concrete ellipsoid and the chain that orders them.

Takes a fixed semiaxis profile, sweeps eps, and prints the four counts.  The
inscribed count at 2*eps never exceeds the diameter cut at eps, which never
exceeds the radius cut at eps/2; watching the columns cross is more
convincing than the inequality.
"""

import numpy as np

from lpdim import FiniteSubset, GroupSpec, WindowModel, four_widths
from lpdim.widths import singular_profile

Z = GroupSpec.integer_lattice(1)


def ellipsoid(semiaxes):
    sig = np.asarray(semiaxes, dtype=float)
    n = sig.size
    return WindowModel(
        window=FiniteSubset.of(Z, range(n)),
        p=2.0,
        fiber_dim=1,
        polarity="inner",
        full_matrix=np.vstack([np.diag(sig), np.diag(np.sqrt(1.0 - sig**2))]),
        full_support=tuple((t,) for t in range(2 * n)),
    )


def main() -> None:
    semiaxes = [0.95, 0.8, 0.55, 0.3, 0.12, 0.05]
    model = ellipsoid(semiaxes)
    print("semiaxes:", ", ".join(f"{s:.2f}" for s in singular_profile(model)))
    print()
    print(f"{'eps':>6} {'inscribed':>10} {'thickness':>10} {'radius cut':>11} {'diam cut':>9}")
    for eps in (1.8, 1.2, 0.9, 0.6, 0.3, 0.15, 0.08):
        w = four_widths(model, eps)
        print(f"{eps:6.2f} {w.inscribed:10d} {w.thickness:10d} {w.radius_cut:11d} {w.diameter_cut:9d}")
    print()
    print("chain check: inscribed(2e) <= diameter_cut(e) <= radius_cut(e/2)")
    for eps in (1.2, 0.6, 0.3):
        a = four_widths(model, 2.0 * eps).inscribed
        b = four_widths(model, eps).diameter_cut
        c = four_widths(model, eps / 2.0).radius_cut
        print(f"  eps = {eps:.2f}:  {a} <= {b} <= {c}")


if __name__ == "__main__":
    main()
