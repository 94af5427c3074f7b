"""Seeded inputs and closed-form references for the benchmark workloads.

Everything here depends on the seed and numpy only.  The program under test
is never imported by this module, so a workload's inputs are fixed before
any of the program is loaded or timed, and the same seed always gives
byte-identical inputs (see ``input_bytes``).
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

WORKLOADS = ("canonical-table", "su2-dense", "cli-configs")

# The critical-order weight powers of scripts/canonical_slopes.py with the
# acceptance-suite slope tolerances (criteria 1 and 2), relative to the
# closed form |c| * vol(S^(n-1)) (torus) or |c| (SU(2)).
CANONICAL_CASES = (
    # name, group spec, alpha, schedule (start, factor, count), volume, slope tolerance
    ("T1", {"kind": "torus", "n": 1}, -1.0, (16.0, 2.0, 13), 2.0, 0.005),
    ("T2", {"kind": "torus", "n": 2}, -2.0, (4.0, 2.0, 9), 2.0 * math.pi, 0.01),
    ("T3", {"kind": "torus", "n": 3}, -3.0, (4.0, 2.0, 7), 4.0 * math.pi, 0.02),
    ("SU2", {"kind": "su2"}, -3.0, (16.0, 2.0, 11), 1.0, 0.01),
)

# Zeta residues and other routes whose bar is reported: the value must lie
# within its own error bar plus this share of the scale (criterion 3).
BAR_SLACK = 0.02
# Slope of an SU(2) series (criterion 1) and a modulated residue (criterion 4).
SU2_SLOPE_TOL = 0.01
RESIDUE_TOL = 0.02
# Dense and diagonal evaluation of the same spectra must agree this closely.
INVARIANCE_TOL = 1e-9

# su2-dense: sigma(l) = w**-3 * U_l diag(a_k + i b_k) U_l^*, k = 0 .. l, with
# a_k + i b_k = scale * (PATTERN_A[k mod 4] + i PATTERN_B[k mod 4]).  Over a
# full period the positive and negative parts have mean densities
# mean(max(+-p, 0)), so the four weak-l1 norms and the residue
# scale * (mean(PATTERN_A) + i mean(PATTERN_B)) are closed forms.  One scale
# for both parts keeps the relative errors independent of the seed.
PATTERN_A = (1.0, -0.5, 0.75, -0.25)
PATTERN_B = (-0.5, 0.25, 0.5, -1.0)
DENSE_SCHEDULE = (4.0, 2.0, 5)  # cutoffs 4 * 2**k up to N = 64
DENSE_LEVELS = 64  # one Haar unitary per level l < 64 (weights up to 64)

# cli-configs: the heavy residue config (diag_signed on SU(2) modulated by a
# positive class polynomial; 4**3 = 64 quadrature nodes, cutoffs to 2048).
HEAVY_CONFIG = "su2_modulated_residue"
HEAVY_RESOLUTION = 4
HEAVY_SCHEDULE = {"start": 16, "factor": 2, "count": 8}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _coeff(rng: np.random.Generator) -> complex:
    """A complex coefficient with modulus in [1, 2] and a uniform phase.

    With modulus at least one the zeta stopping rule scales with the
    coefficient, so every result is linear in it and the relative errors
    do not depend on the seed.
    """
    mod = 1.0 + rng.random()
    phase = 2.0 * math.pi * rng.random()
    return complex(mod * math.cos(phase), mod * math.sin(phase))


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def canonical_inputs(seed: int) -> dict:
    rng = _rng("canonical-table", seed)
    cases = []
    for name, group, alpha, schedule, volume, tol in CANONICAL_CASES:
        c = _coeff(rng)
        cases.append(
            {
                "name": name,
                "group": group,
                "alpha": alpha,
                "schedule": list(schedule),
                "coeff": [c.real, c.imag],
                "slope_reference": abs(c) * volume,
                "zeta_reference": [c.real * volume, c.imag * volume],
                "scale": abs(c) * volume,
                "slope_tol": tol,
            }
        )
    return {"workload": "canonical-table", "seed": int(seed), "cases": cases}


def dense_pattern(scale: float, d: int) -> np.ndarray:
    """Diagonal a_k + i b_k of the level with dimension d."""
    k = np.arange(d) % len(PATTERN_A)
    return scale * (np.asarray(PATTERN_A)[k] + 1j * np.asarray(PATTERN_B)[k])


def dense_inputs(seed: int) -> dict:
    rng = _rng("su2-dense", seed)
    scale = 0.5 + 1.5 * rng.random()
    unitaries = [_haar_unitary(rng, level + 1) for level in range(DENSE_LEVELS)]
    pa = np.asarray(PATTERN_A)
    pb = np.asarray(PATTERN_B)
    norms = [
        scale * float(np.mean(np.maximum(pa, 0.0))),
        scale * float(np.mean(np.maximum(-pa, 0.0))),
        scale * float(np.mean(np.maximum(pb, 0.0))),
        scale * float(np.mean(np.maximum(-pb, 0.0))),
    ]
    value = complex(norms[0] - norms[1], norms[2] - norms[3])
    return {
        "workload": "su2-dense",
        "seed": int(seed),
        "pattern_scale": scale,
        "envelope": scale * float(np.max(np.abs(pa + 1j * pb))),
        "schedule": list(DENSE_SCHEDULE),
        "unitaries": unitaries,
        "four_norms_reference": norms,
        "reference": [value.real, value.imag],
        "scale": abs(value),
    }


def class_poly(coeffs, t: float) -> float:
    """a(g) = sum_k c_k t**k with t = Tr g / 2 = cos(beta/2) cos((alpha+gamma)/2)."""
    return sum(c * t**k for k, c in enumerate(coeffs))


def su2_class_cosine(node) -> float:
    alpha, beta, gamma = (float(v) for v in node)
    return math.cos(beta / 2.0) * math.cos((alpha + gamma) / 2.0)


def cli_inputs(seed: int) -> dict:
    rng = _rng("cli-configs", seed)
    c_sweep, c_weakl1, c_zeta, c_torus = (_coeff(rng) for _ in range(4))
    fourier = [1.5 + rng.random(), -1.0 + 2.0 * rng.random()]
    # a > 0 on SU(2): c0 >= 1.5 dominates |c1| + |c2| <= 1 for |t| <= 1
    poly = [1.5 + rng.random(), -0.5 + rng.random(), -0.5 + rng.random()]

    def power(c: complex, alpha: float) -> dict:
        return {"family": "weight_power", "coeff_re": c.real, "coeff_im": c.imag, "alpha": alpha}

    su2 = {"kind": "su2"}
    configs = {
        "su2_sweep": {
            "group": su2,
            "symbol": power(c_sweep, -3.0),
            "task": "sweep",
            "schedule": {"start": 2, "factor": 2, "count": 12},
            "output": {"series": "su2_sweep.csv"},
        },
        "su2_weakl1": {
            "group": su2,
            "symbol": power(c_weakl1, -3.0),
            "task": "weakl1",
            "schedule": {"start": 16, "factor": 2, "count": 11},
        },
        "su2_zeta": {
            "group": su2,
            "symbol": power(c_zeta, -3.0),
            "task": "zeta",
            "zeta": {"s_schedule": [1.6, 0.8, 0.4, 0.3, 0.2], "tol": 0.1},
        },
        "torus1_residue": {
            "group": {"kind": "torus", "n": 1},
            "symbol": power(c_torus, -1.0),
            "task": "residue",
            "schedule": {"start": 16, "factor": 2, "count": 13},
            "modulation": {"kind": "fourier", "coefficients": fourier},
            "quadrature_resolution": 8,
        },
        HEAVY_CONFIG: {
            "group": su2,
            "symbol": {"family": "diag_signed", "alpha": -3.0},
            "task": "residue",
            "schedule": dict(HEAVY_SCHEDULE),
            "modulation": {"kind": "class_poly", "coefficients": poly},
            "quadrature_resolution": HEAVY_RESOLUTION,
        },
    }
    torus_ref = 2.0 * fourier[0] * c_torus
    references = {
        "su2_sweep": {"value": [abs(c_sweep), 0.0], "scale": abs(c_sweep), "tol": SU2_SLOPE_TOL},
        "su2_weakl1": {"value": [abs(c_weakl1), 0.0], "scale": abs(c_weakl1), "tol": SU2_SLOPE_TOL},
        "su2_zeta": {"value": [c_zeta.real, c_zeta.imag], "scale": abs(c_zeta), "bar_slack": BAR_SLACK},
        "torus1_residue": {
            "value": [torus_ref.real, torus_ref.imag],
            "scale": abs(torus_ref),
            "tol": RESIDUE_TOL,
            # node residue = a(x) * 2c
            "per_node": {"kind": "fourier", "coefficients": fourier, "value": [2.0 * c_torus.real, 2.0 * c_torus.imag]},
        },
        # diag(+1, -1, ...) * w**-3 has Re+ and Re- norms 1/2 each, so each
        # node carries a(x)/2 in both and a residue that tends to zero.
        HEAVY_CONFIG: {
            "value": [0.0, 0.0],
            "tol": RESIDUE_TOL,
            "per_node": {"kind": "class_poly", "coefficients": poly, "half_norm": 0.5},
        },
    }
    return {"workload": "cli-configs", "seed": int(seed), "configs": configs, "references": references}


GENERATORS = {
    "canonical-table": canonical_inputs,
    "su2-dense": dense_inputs,
    "cli-configs": cli_inputs,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def write_configs(inputs: dict, workdir) -> None:
    """Write the CLI config copies, if the workload has any, as NAME.json."""
    for name, config in inputs.get("configs", {}).items():
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            fh.write(json.dumps(config, indent=2))


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def input_bytes(inputs: dict) -> bytes:
    """Canonical serialization; floats print with round-trip precision."""
    return json.dumps(_plain(inputs), sort_keys=True).encode()
