#!/usr/bin/env python3
"""End-to-end demo: residue of the field (2 + cos x) * <xi>^-1 on T^1.

Drives the CLI runner on a generated config, then prints the report
summary.  The analytic value is 4: the Haar average of 2 + cos x is 2 and
the weak-l1 norm of <xi>^-1 is vol(S^0) = 2.
"""

import argparse
import json
import tempfile
from pathlib import Path

from ncresidue import cli

CONFIG = {
    "group": {"kind": "torus", "n": 1},
    "symbol": {"family": "weight_power", "coeff_re": 1.0, "coeff_im": 0.0, "alpha": -1.0},
    "task": "residue",
    "schedule": {"start": 16, "factor": 2, "count": 13},
    "modulation": {"kind": "fourier", "coefficients": [2.0, 1.0]},
    "quadrature_resolution": 8,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None, help="report path; its directory is created if missing (default: temp dir)"
    )
    args = parser.parse_args()

    workdir = Path(args.out).parent if args.out else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "residue_demo_config.json"
    out_path = Path(args.out) if args.out else workdir / "residue_demo_report.json"
    cfg_path.write_text(json.dumps(CONFIG, indent=2))

    code = cli.main(["residue", "--config", str(cfg_path), "--out", str(out_path)])
    report = json.loads(out_path.read_text())
    value = report["value"]
    print(f"exit code     : {code}")
    print(f"residue       : {value['re']:.6f} + {value['im']:.6f}i   (analytic: 4)")
    print(f"error bar     : {report['error_bar']:.2e}")
    print(f"nodes         : {len(report['per_node'])}")
    print(f"flags         : {report['flags']}")
    print(f"report        : {out_path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
