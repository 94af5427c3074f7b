import math

import pytest

from ncresidue import (
    DecayEnvelope,
    add_symbols,
    estimate_slope,
    geometric_schedule,
    scalar_symbol,
    scale_symbol,
    sum_series,
    weight_power_symbol,
    zeta_residue,
    zeta_trace,
)
from ncresidue.zeta import default_max_cutoff, default_tolerance
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
    # s = 0.3 needs a truncation beyond 2^8, the enumeration-era budget
    sym = weight_power_symbol(t3, 1.0, -3.0)
    tol = default_tolerance(t3)
    smp = zeta_trace(sym, s=0.3, tol=tol)
    assert 256.0 < smp.truncation_cutoff <= default_max_cutoff(t3)
    assert smp.tail_bound <= tol * max(1.0, abs(smp.partial))


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
