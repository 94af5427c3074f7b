#!/usr/bin/env python3
"""Canonical residue table: weak-l1 slopes vs zeta residues vs closed forms.

Computes the log-slope of the dual partial sums for the critical-order
weight powers on T^1, T^2, T^3 and SU(2), cross-checks each against the
zeta-trace extrapolation, and compares with the analytic values
vol(S^(n-1)) (torus) and 1 (SU(2)).  Each row prints both relative errors.
Exits 1 if a zeta residue misses its analytic value by more than its own
error bar; slope rows are printed, not gated.
"""

import argparse
import math
import sys
import time

from ncresidue import (
    SU2,
    Torus,
    estimate_slope,
    geometric_schedule,
    sphere_surface,
    sum_series,
    weight_power_symbol,
    zeta_residue,
)

CASES = [
    ("T1", Torus(1), -1.0, geometric_schedule(16.0, 2.0, 13), sphere_surface(1)),
    ("T2", Torus(2), -2.0, geometric_schedule(4.0, 2.0, 9), sphere_surface(2)),
    ("T3", Torus(3), -3.0, geometric_schedule(4.0, 2.0, 7), sphere_surface(3)),
    ("SU2", SU2(), -3.0, geometric_schedule(16.0, 2.0, 11), 1.0),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-zeta", action="store_true", help="slopes only")
    args = parser.parse_args()

    header = (
        f"{'group':>6} {'slope':>12} {'bar':>10} {'rel err':>9} "
        f"{'zeta':>12} {'zeta bar':>10} {'rel err':>9} {'analytic':>12} {'secs':>7}"
    )
    print(header)
    print("-" * len(header))
    missed = []
    for name, group, alpha, schedule, analytic in CASES:
        sym = weight_power_symbol(group, 1.0, alpha)
        t0 = time.perf_counter()
        est = estimate_slope(sum_series(sym, schedule))
        zv = zb = zerr = math.nan
        if not args.skip_zeta:
            zr = zeta_residue(sym)
            zv, zb, zerr = zr.value.real, zr.error_bar, abs(zr.value - analytic)
            if not zerr <= zb:
                missed.append(name)
        dt = time.perf_counter() - t0
        print(
            f"{name:>6} {est.value:12.6f} {est.error_bar:10.2e} {abs(est.value - analytic) / analytic:9.2e} "
            f"{zv:12.6f} {zb:10.2e} {zerr / analytic:9.2e} {analytic:12.6f} {dt:7.2f}"
        )
    if missed:
        print(f"zeta residue outside its error bar: {', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
