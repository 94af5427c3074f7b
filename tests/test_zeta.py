import json
import math
from pathlib import Path

import numpy as np
import pytest

from ncresidue import (
    SU2,
    DecayEnvelope,
    Torus,
    add_symbols,
    diag_signed_symbol,
    diagonal_symbol,
    estimate_slope,
    geometric_schedule,
    scalar_symbol,
    scale_symbol,
    sum_series,
    weight_power_symbol,
    zeta_residue,
    zeta_trace,
)
from ncresidue import dualsum
from ncresidue.zeta import DEFAULT_START_CUTOFF, RADIAL_TOLERANCE, TAIL_SAFETY_FACTOR
from ncresidue.errors import BudgetExceededError, InvalidArgumentError

PI_COTH_PI = math.pi / math.tanh(math.pi)
BASEL = math.pi**2 / 6.0


# ---------------------------------------------------------------------------
# direct samples


def test_su2_basel_sample(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    smp = zeta_trace(sym, s=1.0, tol=1e-6)
    assert abs(smp.value - BASEL) <= 1e-6
    assert smp.tail_bound <= 1e-6 * max(1.0, abs(smp.partial))


def test_torus1_coth_sample(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    smp = zeta_trace(sym, s=1.0, tol=1e-6)
    assert abs(smp.value - PI_COTH_PI) <= 1e-6


def test_zero_symbol_sample(su2):
    sym = weight_power_symbol(su2, 0.0, -3.0)
    smp = zeta_trace(sym, s=0.5, tol=1e-6)
    assert smp.value == 0.0
    assert smp.tail_bound == 0.0


def test_argument_validation(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(sym, s=-1.0, tol=1e-3)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(sym, s=1.0, tol=0.0)
    wrong_order = weight_power_symbol(t1, 1.0, -2.0)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(wrong_order, s=1.0, tol=1e-3)


def test_budget_exceeded_carries_best_sample(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        zeta_trace(sym, s=0.5, tol=1e-9, max_cutoff=64.0)
    best = exc_info.value.best
    assert best is not None
    assert best.truncation_cutoff == 64.0
    assert best.tail_bound > 0.0


def test_torus3_small_s_sample_within_default_budget(t3):
    # s = 0.05 is far below the 0.4 the envelope route reaches on T^3 within
    # 2^10; the integrated radial tail meets the default radial tolerance
    # near N = 128
    sym = weight_power_symbol(t3, 1.0, -3.0)
    smp = zeta_trace(sym, s=0.05, tol=RADIAL_TOLERANCE)
    assert smp.truncation_cutoff <= 256.0
    assert smp.tail_bound <= RADIAL_TOLERANCE * max(1.0, abs(smp.partial))
    assert smp.value == smp.partial + smp.tail_correction


def _riemann_zeta(x, m=1000):
    """zeta(x) for x > 1 by Euler-Maclaurin after m terms (to about 1e-16)."""
    head = math.fsum(k**-x for k in range(1, m))
    return (
        head + m ** (1 - x) / (x - 1) + 0.5 * m**-x + x * m ** (-x - 1) / 12.0
        - x * (x + 1) * (x + 2) * m ** (-x - 3) / 720.0
    )


@pytest.mark.parametrize("s", [0.5, 0.1, 0.05])
def test_su2_radial_samples_match_riemann_zeta(su2, s):
    # on SU(2), f(-s) of <xi>^-3 is sum_w w^2 w^-3 w^-s = zeta(1 + s)
    smp = zeta_trace(weight_power_symbol(su2, 1.0, -3.0), s=s, tol=RADIAL_TOLERANCE)
    exact = _riemann_zeta(1.0 + s)
    assert abs(smp.value - exact) <= max(smp.tail_bound, 1e-13 * exact)


def test_first_radial_sample_has_no_bound(t1):
    # one cutoff cannot estimate its own error: the budget of one cutoff
    # always runs out
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        zeta_trace(sym, s=0.5, tol=1.0, max_cutoff=DEFAULT_START_CUTOFF)
    assert exc_info.value.best.tail_bound == math.inf


def test_envelope_sample_is_sharp_sum_plus_envelope_model(su2):
    sym = diag_signed_symbol(su2, -3.0)
    smp = zeta_trace(sym, s=0.8, tol=0.1)
    acc = complex(0.0)
    lo = 0.0
    hi = DEFAULT_START_CUTOFF
    while lo < smp.truncation_cutoff:
        acc += complex(dualsum.annulus_sums(sym, [hi], "signed", 0.8, lo=lo)[0, 0])
        lo, hi = hi, 2.0 * hi
    model = su2.density_coeff * smp.truncation_cutoff**-0.8 / 0.8
    assert smp.partial == acc
    assert smp.tail_correction == model * acc / abs(acc)
    assert smp.tail_bound == TAIL_SAFETY_FACTOR * model


def test_monotone_tail(su2):
    # forcing a larger truncation moves the value by less than the bound
    sym = weight_power_symbol(su2, 1.0, -3.0)
    base = zeta_trace(sym, s=0.5, tol=1e-3)
    forced = zeta_trace(sym, s=0.5, tol=1e-3, min_cutoff=base.truncation_cutoff * 16)
    assert forced.truncation_cutoff > base.truncation_cutoff
    assert abs(forced.value - base.value) <= base.tail_bound


# ---------------------------------------------------------------------------
# residue extrapolation


def test_torus1_residue(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    zr = zeta_residue(sym)
    assert abs(zr.value - 2.0) <= 0.05
    assert zr.flags == ()


def test_su2_residue(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    zr = zeta_residue(sym)
    assert abs(zr.value - 1.0) <= 0.05


def test_imaginary_rotation(t1):
    # linearity over the real case: i * sigma has residue 2i
    zr = zeta_residue(weight_power_symbol(t1, 1j, -1.0))
    assert abs(zr.value - 2j) <= 0.06


def test_linearity_within_error_bars(su2):
    a = weight_power_symbol(su2, 1.0, -3.0)
    b = weight_power_symbol(su2, 0.5, -3.0)
    combo = add_symbols(scale_symbol(2.0, a), scale_symbol(1j, b))
    za = zeta_residue(a)
    zb = zeta_residue(b)
    zc = zeta_residue(combo)
    expected = 2.0 * za.value + 1j * zb.value
    assert abs(zc.value - expected) <= zc.error_bar + 2.0 * za.error_bar + zb.error_bar


def test_agreement_with_weak_l1_slope(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 11)))
    zr = zeta_residue(sym)
    allow = zr.error_bar + est.error_bar + 0.02 * abs(est.value)
    assert abs(zr.value - est.value) <= allow


def test_schedule_validation(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    with pytest.raises(InvalidArgumentError):
        zeta_residue(sym, s_schedule=[0.4, 0.8, 0.2])
    with pytest.raises(InvalidArgumentError):
        zeta_residue(sym, s_schedule=[0.8, 0.4])


def test_non_affine_behavior_flagged(t1):
    # an honest order -1 envelope hiding a strong s = -0.2 pole nearby:
    # g(s) = s f(-s) picks up 200 s/(s+0.2), far from affine near zero
    def profile(w):
        return w**-1.0 + 100.0 * w**-1.2

    sym = scalar_symbol(t1, profile, DecayEnvelope(101.0, -1.0))
    zr = zeta_residue(sym, s_schedule=[1.6, 0.8, 0.4], tol=0.01)
    assert "higher-order pole or wrong order" in zr.flags


# ---------------------------------------------------------------------------
# error bars on the canonical table


CANONICAL = [
    ("T1", Torus(1), 2.0),
    ("T2", Torus(2), 2.0 * math.pi),
    ("T3", Torus(3), 4.0 * math.pi),
    ("SU2", SU2(), 1.0),
]
SU2_ZETA_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "su2_zeta.json").read_text()
)["zeta"]


@pytest.mark.parametrize("name, group, volume", CANONICAL, ids=[c[0] for c in CANONICAL])
def test_canonical_bars_cover_errors(name, group, volume):
    c = 1.5 - 0.5j
    sym = weight_power_symbol(group, c, -group.dim)
    analytic = c * volume
    zr = zeta_residue(sym)
    assert abs(zr.value - analytic) <= zr.error_bar <= 1e-3 * abs(analytic)
    assert zr.flags == ()
    # the shipped CLI schedule stops at s = 0.2, so extrapolation dominates
    zr = zeta_residue(sym, s_schedule=SU2_ZETA_CONFIG["s_schedule"], tol=SU2_ZETA_CONFIG["tol"])
    assert abs(zr.value - analytic) <= zr.error_bar <= 1e-2 * abs(analytic)


def test_structure_tag_does_not_change_the_zeta_residue(su2):
    c = 1.5 - 0.5j
    scalar = weight_power_symbol(su2, c, -3.0)
    diagonal = diagonal_symbol(
        su2, lambda xi: np.full(xi.dim, c * xi.weight**-3.0), DecayEnvelope(abs(c), -3.0)
    )
    for s in (0.8, 0.4):
        a = zeta_trace(scalar, s, 0.1)
        b = zeta_trace(diagonal, s, 0.1)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
    # the envelope route's default schedule needs 2^22 classes at s = 0.2
    za = zeta_residue(scalar)
    zb = zeta_residue(diagonal, s_schedule=[1.6, 0.8, 0.4])
    assert abs(za.value - zb.value) <= za.error_bar + zb.error_bar
