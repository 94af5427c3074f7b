#!/usr/bin/env python3
"""Canonical residue table: weak-l1 slopes vs zeta residues vs closed forms.

Computes the log-slope of the dual partial sums for the critical-order
weight powers on T^1, T^2, T^3 and SU(2), cross-checks each against the
zeta-trace extrapolation, and compares with the analytic values
vol(S^(n-1)) (torus) and 1 (SU(2)).  The zeta residue is computed twice:
from the scalar symbol (smoothed sums plus the integrated radial tail) and,
except on T^3, from the same symbol in diagonal form (smoothed sums solved
for their N^-s, N^(-s-1) and N^(-s-2) terms).  Each row prints every
relative error.  Exits 1 if a slope misses its analytic value by more than
the acceptance tolerance (0.5% on T^1, 1% on T^2, 2% on T^3, 1% on SU(2))
or a zeta residue misses it by more than its own error bar.
"""

import argparse
import math
import sys
import time

import numpy as np

from ncresidue import (
    SU2,
    DecayEnvelope,
    Torus,
    diag_signed_symbol,
    diagonal_symbol,
    estimate_slope,
    geometric_schedule,
    sphere_surface,
    sum_series,
    weight_power_symbol,
    zeta_residue,
)


def _torus_diagonal(n):
    # with d = 1 every sign of diag_signed is +1: <xi>^-n, chunk-vectorised
    return lambda: diag_signed_symbol(Torus(n), -float(n))


def _su2_diagonal():
    return diagonal_symbol(SU2(), lambda xi: np.full(xi.dim, xi.weight**-3.0), DecayEnvelope(1.0, -3.0))


# name, group, order, schedule, analytic value, relative slope tolerance,
# diagonal form; the diagonal form of the T^3 symbol would visit about 7e7
# classes per cutoff
CASES = [
    ("T1", Torus(1), -1.0, geometric_schedule(16.0, 2.0, 13), sphere_surface(1), 0.005, _torus_diagonal(1)),
    ("T2", Torus(2), -2.0, geometric_schedule(4.0, 2.0, 9), sphere_surface(2), 0.01, _torus_diagonal(2)),
    ("T3", Torus(3), -3.0, geometric_schedule(4.0, 2.0, 7), sphere_surface(3), 0.02, None),
    ("SU2", SU2(), -3.0, geometric_schedule(16.0, 2.0, 11), 1.0, 0.01, _su2_diagonal),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-zeta", action="store_true", help="slopes only")
    args = parser.parse_args()

    header = (
        f"{'group':>6} {'slope':>12} {'bar':>10} {'rel err':>9} "
        f"{'zeta':>12} {'zeta bar':>10} {'rel err':>9} "
        f"{'diag zeta':>12} {'diag bar':>10} {'rel err':>9} {'analytic':>12} {'secs':>7}"
    )
    print(header)
    print("-" * len(header))
    missed = []
    for name, group, alpha, schedule, analytic, slope_tol, diagonal in CASES:
        sym = weight_power_symbol(group, 1.0, alpha)
        t0 = time.perf_counter()
        est = estimate_slope(sum_series(sym, schedule))
        if not abs(est.value - analytic) <= slope_tol * analytic:
            missed.append(f"{name} slope")
        zeta_cols = ""
        for label, make in ((f"{name} zeta", lambda: sym), (f"{name} diagonal zeta", diagonal)):
            zv = zb = zerr = math.nan
            if not args.skip_zeta and make is not None:
                zr = zeta_residue(make())
                zv, zb, zerr = zr.value.real, zr.error_bar, abs(zr.value - analytic)
                if not zerr <= zb:
                    missed.append(label)
            zeta_cols += f" {zv:12.6f} {zb:10.2e} {zerr / analytic:9.2e}"
        dt = time.perf_counter() - t0
        print(
            f"{name:>6} {est.value:12.6f} {est.error_bar:10.2e} {abs(est.value - analytic) / analytic:9.2e}"
            f"{zeta_cols} {analytic:12.6f} {dt:7.2f}"
        )
    if missed:
        print(f"outside its tolerance: {', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
