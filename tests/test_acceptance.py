"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from conftest import random_complex_matrix, random_hermitian
from ncresidue import (
    DecayEnvelope,
    Expansion,
    SU2,
    Torus,
    cli,
    combine_fields,
    diagonal_symbol,
    estimate_slope,
    frozen_residue,
    geometric_schedule,
    invariant_field,
    matcalc,
    modulated_field,
    residue_from_expansion,
    su2_character,
    sum_series,
    weight_power_symbol,
    wodzicki_residue,
    zeta_residue,
    zeta_trace,
)

BASEL = math.pi**2 / 6.0
PI_COTH_PI = math.pi / math.tanh(math.pi)


def check(number, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description}", flush=True)
    assert condition, f"criterion {number}: {description}"


def _timed_slope(group, alpha, schedule):
    sym = weight_power_symbol(group, 1.0, alpha)
    t0 = time.perf_counter()
    est = estimate_slope(sum_series(sym, schedule))
    return est, time.perf_counter() - t0


@pytest.fixture(scope="module")
def canonical_slopes():
    out = {}
    out["su2"] = _timed_slope(SU2(), -3.0, geometric_schedule(16.0, 2.0, 11))
    out["t1"] = _timed_slope(Torus(1), -1.0, geometric_schedule(16.0, 2.0, 13))
    out["t2"] = _timed_slope(Torus(2), -2.0, geometric_schedule(4.0, 2.0, 9))
    out["t3"] = _timed_slope(Torus(3), -3.0, geometric_schedule(4.0, 2.0, 7))
    return out


def test_criterion_01_su2_canonical_residue(canonical_slopes):
    est, elapsed = canonical_slopes["su2"]
    check(
        1,
        f"SU(2) weak-l1 slope of <xi>^-3 is {est.value:.5f} (target 1 +- 0.01) "
        f"in {elapsed:.2f}s (< 5s)",
        abs(est.value - 1.0) <= 0.01 and elapsed < 5.0,
    )


def test_criterion_02_torus_sphere_volumes(canonical_slopes):
    est1, dt1 = canonical_slopes["t1"]
    est2, dt2 = canonical_slopes["t2"]
    est3, dt3 = canonical_slopes["t3"]
    total = dt1 + dt2 + dt3
    ok1 = abs(est1.value - 2.0) <= 0.005 * 2.0
    ok2 = abs(est2.value - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi
    ok3 = abs(est3.value - 4.0 * math.pi) <= 0.02 * 4.0 * math.pi
    check(
        2,
        f"torus slopes {est1.value:.4f}/{est2.value:.4f}/{est3.value:.4f} match "
        f"vol(S^(n-1)) = 2/2pi/4pi within 0.5%/1%/2% in {total:.1f}s (< 60s)",
        ok1 and ok2 and ok3 and total < 60.0,
    )


def test_criterion_03_zeta_cross_check(canonical_slopes):
    basel = zeta_trace(weight_power_symbol(SU2(), 1.0, -3.0), s=1.0, tol=1e-6)
    coth = zeta_trace(weight_power_symbol(Torus(1), 1.0, -1.0), s=1.0, tol=1e-6)
    samples_ok = (
        abs(basel.value - BASEL) <= 1e-6 and abs(coth.value - PI_COTH_PI) <= 1e-6
    )
    agreements = []
    for key, group, alpha in (
        ("su2", SU2(), -3.0),
        ("t1", Torus(1), -1.0),
        ("t2", Torus(2), -2.0),
        ("t3", Torus(3), -3.0),
    ):
        est, _ = canonical_slopes[key]
        zr = zeta_residue(weight_power_symbol(group, 1.0, alpha))
        allow = zr.error_bar + est.error_bar + 0.02 * abs(est.value)
        agreements.append(abs(zr.value - est.value) <= allow)
    check(
        3,
        f"zeta samples f(-1) match pi^2/6 and pi*coth(pi) within 1e-6 "
        f"(diffs {abs(basel.value - BASEL):.1e}, {abs(coth.value - PI_COTH_PI):.1e}); "
        f"zeta residues agree with weak-l1 slopes on all four symbols",
        samples_ok and all(agreements),
    )


def test_criterion_04_main_theorem_x_dependence():
    t1 = Torus(1)
    schedule = geometric_schedule(16.0, 2.0, 13)
    quad = t1.haar_quadrature(8)
    field = modulated_field(
        lambda x: 2.0 + math.cos(float(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        quad,
        -1.0,
    )
    rep = wodzicki_residue(field, schedule)
    ok_mod = abs(rep.residue - 4.0) <= 0.02 * 4.0
    results = []
    for coeff, target in ((-1.0, -2.0), (1j, 2j), (-1j, -2j)):
        r = wodzicki_residue(
            invariant_field(weight_power_symbol(t1, coeff, -1.0)), schedule
        )
        results.append(abs(r.residue - target) <= 0.02 * abs(target))
    # channel bookkeeping: the sign/phase routes the mass to one norm each
    neg = frozen_residue(weight_power_symbol(t1, -1.0, -1.0), schedule)
    imag = frozen_residue(weight_power_symbol(t1, 1j, -1.0), schedule)
    channels_ok = (
        neg.re_neg.value > 1.9
        and neg.re_pos.value == 0.0
        and imag.im_pos.value > 1.9
        and imag.re_pos.value == 0.0
    )
    check(
        4,
        f"(2+cos x)<xi>^-1 gives residue {rep.residue.real:.4f} (target 4 +- 2%), "
        f"signed/complex variants hit -2, 2i, -2i and route into the right norms",
        ok_mod and all(results) and channels_ok,
    )


def test_criterion_05_matrix_decomposition_suite():
    # the split as the pipeline makes it: H+ and H- have the eigenvalues of
    # H clipped at zero from above and from below (``part_eigenvalues``)
    rng = np.random.default_rng(20240817)
    worst_split = worst_abs = worst_trace = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        h = random_hermitian(rng, d)
        hf = np.linalg.norm(h)
        vals = matcalc.part_eigenvalues(h)[0]
        pos, neg = np.maximum(vals, 0.0), np.maximum(-vals, 0.0)
        worst_split = max(worst_split, np.max(np.abs(pos - neg - np.linalg.eigvalsh(h))) / (1.0 + hf))
        worst_abs = max(
            worst_abs, np.max(np.abs(np.sort(pos + neg) - np.sort(matcalc.singular_values(h)))) / (1.0 + hf)
        )
        worst_trace = max(worst_trace, abs(pos.sum() - neg.sum() - np.trace(h).real))
    worst_ulp = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 17))
        t = random_complex_matrix(rng, d)
        rec = matcalc.real_part(t) + 1j * matcalc.imag_part(t)
        # (T + T*)/2 rounds at the scale of each Hermitian pair, so ulps are
        # measured against max(|t_ij|, |t_ji|)
        pair_scale = np.maximum(np.abs(t), np.abs(t).T)
        ulps = np.abs(rec - t) / np.spacing(pair_scale)
        worst_ulp = max(worst_ulp, float(np.max(ulps)))
    check(
        5,
        f"1000 Hermitian splits: max defects split {worst_split:.1e}, |H| {worst_abs:.1e}, "
        f"trace {worst_trace:.1e} (<= 1e-10); "
        f"1000 reconstructions within {worst_ulp:.2f} ulp (<= 2)",
        worst_split <= 1e-10
        and worst_abs <= 1e-10
        and worst_trace <= 1e-10
        and worst_ulp <= 2.0,
    )


def _mixed_sign_diag_symbol(group, alpha, freq, phase):
    # deterministic mixed-sign diagonal pattern, pure in the dual label
    def diag(xi):
        idx = np.arange(xi.dim, dtype=np.float64)
        pattern = np.sin(freq * (idx + 1.0) + phase * xi.weight)
        signs = np.where(pattern >= 0.0, 1.0, -1.0)
        amps = 0.5 + 0.4 * np.cos(idx + phase)
        return (signs * amps * xi.weight**alpha).astype(complex)

    return diagonal_symbol(group, diag, DecayEnvelope(0.9, alpha), check=False)


def test_criterion_06_four_part_signed_consistency():
    cases = []
    for k in range(10):
        cases.append((Torus(1), -1.0, geometric_schedule(16.0, 2.0, 9), k))
    for k in range(10):
        cases.append((SU2(), -3.0, geometric_schedule(8.0, 2.0, 8), 100 + k))
    worst = 0.0
    all_ok = True
    for group, alpha, schedule, seed in cases:
        rng = np.random.default_rng(seed)
        sym = _mixed_sign_diag_symbol(
            group, alpha, 1.0 + 2.0 * rng.random(), 6.0 * rng.random()
        )
        norms = frozen_residue(sym, schedule)
        signed = estimate_slope(sum_series(sym, schedule, mode="signed"))
        lhs = norms.re_pos.value - norms.re_neg.value
        allow = norms.re_pos.error_bar + norms.re_neg.error_bar + signed.error_bar
        gap = abs(lhs - signed.value)
        worst = max(worst, gap)
        if gap > allow + 1e-12:
            all_ok = False
    check(
        6,
        f"20 mixed-sign diagonal symbols: |Re+ - Re-| matches the signed-trace "
        f"slope within combined error bars (worst gap {worst:.1e})",
        all_ok,
    )


def test_criterion_07_linearity_of_residue():
    t1 = Torus(1)
    schedule = geometric_schedule(16.0, 2.0, 13)
    quad = t1.haar_quadrature(8)
    f = modulated_field(
        lambda x: 2.0 + math.cos(float(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        quad,
        -1.0,
    )
    g = invariant_field(weight_power_symbol(t1, 1j, -1.0), quad)
    combo = combine_fields([2.0, 1j], [f, g])
    rf = wodzicki_residue(f, schedule)
    rg = wodzicki_residue(g, schedule)
    rc = wodzicki_residue(combo, schedule)
    expected = 2.0 * rf.residue + 1j * rg.residue
    allow = rc.total_error_bar + 2.0 * rf.total_error_bar + rg.total_error_bar
    gap = abs(rc.residue - expected)
    check(
        7,
        f"res(2F + iG) = {rc.residue:.4f} matches 2 res(F) + i res(G) = "
        f"{expected:.4f} within combined bars (gap {gap:.1e})",
        gap <= allow,
    )


def test_criterion_08_order_reduction():
    su2 = SU2()
    schedule = geometric_schedule(16.0, 2.0, 11)

    def inv(alpha):
        return invariant_field(weight_power_symbol(su2, 1.0, alpha))

    below = Expansion(su2, -4.0, ((-4.0, inv(-4.0)),))
    rep_below = residue_from_expansion(below, schedule)
    bare = wodzicki_residue(inv(-3.0), schedule)
    padded = Expansion(su2, 0.0, tuple((0.0 - k, inv(0.0 - k)) for k in range(4)))
    rep_padded = residue_from_expansion(padded, schedule)
    check(
        8,
        f"order below -n gives residue exactly 0; padded expansion reproduces the "
        f"bare degree -n residue {bare.residue.real:.4f} exactly",
        rep_below.residue == 0.0
        and abs(rep_padded.residue - bare.residue) <= bare.total_error_bar
        and rep_padded.residue == bare.residue,
    )


def _mask_wall_time(text):
    return re.sub(r'"wall_time_ms": [0-9.eE+-]+', '"wall_time_ms": X', text)


def test_criterion_09_determinism(tmp_path):
    configs = {
        "c1": {
            "group": {"kind": "su2"},
            "symbol": {"family": "weight_power", "alpha": -3.0},
            "task": "weakl1",
            "schedule": {"start": 16, "factor": 2, "count": 11},
        },
        "c4": {
            "group": {"kind": "torus", "n": 1},
            "symbol": {"family": "weight_power", "alpha": -1.0},
            "task": "residue",
            "schedule": {"start": 16, "factor": 2, "count": 13},
            "modulation": {"kind": "fourier", "coefficients": [2.0, 1.0]},
            "quadrature_resolution": 8,
        },
    }
    runs = 3
    identical = True
    for name, payload in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        texts = []
        for i in range(runs):
            out = tmp_path / f"{name}_{i}.json"
            code = cli.main([payload["task"], "--config", str(cfg), "--out", str(out)])
            assert code == 0
            texts.append(_mask_wall_time(out.read_text()))
        identical = identical and texts[0] == texts[1] == texts[2]
    check(
        9,
        f"criterion 1 and 4 reports are byte-identical over {runs} runs "
        f"(wall-clock field masked)",
        identical,
    )


def test_criterion_10_quadrature_correctness():
    groups = [Torus(1), Torus(2), Torus(3), SU2()]
    sums_ok = all(
        abs(float(np.sum(g.haar_quadrature(m).weights)) - 1.0) <= 1e-12
        for g in groups
        for m in (1, 2, 4, 8)
    )
    rng = np.random.default_rng(99)
    exact_ok = True
    for n in (1, 2):
        g = Torus(n)
        for m in (3, 5, 8):
            rule = g.haar_quadrature(m)
            freqs = [tuple(rng.integers(-(m - 1), m, size=n)) for _ in range(5)]
            coeffs = rng.normal(size=5)

            def f(x):
                return sum(c * np.cos(np.dot(k, x)) for k, c in zip(freqs, coeffs))

            analytic = sum(c for k, c in zip(freqs, coeffs) if all(v == 0 for v in k))
            if abs(rule.integrate(f) - analytic) > 1e-12:
                exact_ok = False
    rule = SU2().haar_quadrature(8)
    chars_ok = all(
        abs(rule.integrate(lambda x, ell=ell: su2_character(ell, x) ** 2) - 1.0) <= 1e-8
        for ell in range(4)
    )
    check(
        10,
        "quadrature weights sum to 1 +- 1e-12; torus rules integrate low-degree "
        "trigonometric polynomials to 1e-12; SU(2) characters are orthonormal to 1e-8",
        sums_ok and exact_ok and chars_ok,
    )
