import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncresidue import (
    DecayEnvelope,
    diagonal_symbol,
    estimate_slope,
    geometric_schedule,
    partial_sum,
    scale_symbol,
    sum_series,
    weight_power_symbol,
)
from ncresidue.errors import InvalidArgumentError, NumericalFailureError
from ncresidue.weakl1 import NON_CLASSICAL_FLAG, PartialSumSeries


# ---------------------------------------------------------------------------
# partial sums


def test_torus1_partial_sum_by_hand(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    assert partial_sum(sym, 2.0) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)


def test_su2_partial_sum_by_hand(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    assert partial_sum(sym, 3.0) == pytest.approx(11.0 / 6.0, abs=1e-14)


def test_zero_symbol_partial_sum(t2, su2):
    for g in (t2, su2):
        sym = weight_power_symbol(g, 0.0, -float(g.dim))
        assert partial_sum(sym, 9.0) == 0.0


def test_partial_sum_cutoff_validation(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError):
        partial_sum(sym, 0.9)


def test_partial_sum_against_plain_loop(t1):
    # independent oracle: direct scalar loop over lattice labels
    sym = weight_power_symbol(t1, 1.0, -1.0)
    for cutoff in (7.0, 100.0, 1000.0):
        k = int(math.isqrt(int(cutoff * cutoff) - 1))
        direct = sum(1.0 / math.sqrt(1.0 + j * j) for j in range(-k, k + 1))
        assert partial_sum(sym, cutoff) == pytest.approx(direct, rel=1e-13)


def test_signed_mode_returns_complex(t1):
    sym = weight_power_symbol(t1, 1j, -1.0)
    val = partial_sum(sym, 2.0, mode="signed")
    assert isinstance(val, complex)
    assert val == pytest.approx(1j * (1.0 + math.sqrt(2.0)), abs=1e-14)


# ---------------------------------------------------------------------------
# series


def test_series_increments_match_hand_enumeration(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    series = sum_series(sym, [2.0, 4.0])
    s2 = 1.0 + math.sqrt(2.0)
    s4 = s2 + 2.0 / math.sqrt(5.0) + 2.0 / math.sqrt(10.0)
    assert series.values[0] == pytest.approx(s2, abs=1e-14)
    assert series.values[1] == pytest.approx(s4, abs=1e-14)


def test_single_point_series_equals_partial_sum(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    series = sum_series(sym, [5.0])
    assert series.values[0] == partial_sum(sym, 5.0)


def test_su2_series_is_harmonic_numbers(su2):
    # term at level ell is (ell+1)^2 * (ell+1)^-3 = 1/(ell+1)
    sym = weight_power_symbol(su2, 1.0, -3.0)
    schedule = [float(2**k) for k in range(1, 15)]
    series = sum_series(sym, schedule)
    for cutoff, value in zip(schedule, series.values):
        harmonic = Fraction(0)
        for j in range(1, int(cutoff) + 1):
            harmonic += Fraction(1, j)
        assert value == pytest.approx(float(harmonic), rel=1e-12)


def test_schedule_validation(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError):
        sum_series(sym, [4.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        sum_series(sym, [])
    with pytest.raises(InvalidArgumentError):
        geometric_schedule(0.5, 2.0, 4)


def test_abs_series_must_be_nondecreasing():
    with pytest.raises(InvalidArgumentError):
        PartialSumSeries(np.array([2.0, 4.0]), np.array([3.0, 1.0]), "abs")


# ---------------------------------------------------------------------------
# slope estimation


def test_su2_canonical_slope(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 11)))
    assert abs(est.value - 1.0) <= 0.01
    assert est.error_bar <= 0.01
    assert est.flags == ()


def test_torus1_canonical_slope(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 13)))
    assert abs(est.value - 2.0) <= 0.01
    assert est.error_bar <= 0.01


def test_zero_symbol_slope(t1):
    sym = weight_power_symbol(t1, 0.0, -1.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 8)))
    assert est.value == 0.0
    assert est.error_bar == 0.0
    assert est.flags == ()


def test_too_few_entries_rejected(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError):
        estimate_slope(sum_series(sym, [2.0, 4.0, 8.0]))


def test_narrow_span_rejected():
    series = PartialSumSeries(
        np.array([10.0, 11.0, 12.0, 13.0]), np.array([1.0, 1.1, 1.2, 1.3]), "abs"
    )
    with pytest.raises(InvalidArgumentError):
        estimate_slope(series)


def test_overflowing_slope_fit_raises(su2):
    # the partial sums are finite, but the fit of them against log N is not
    sym = weight_power_symbol(su2, 1e307, -3.0)
    series = sum_series(sym, geometric_schedule(16.0, 2.0, 11))
    assert np.all(np.isfinite(series.values))
    with pytest.raises(NumericalFailureError, match="non-finite slope fit"):
        estimate_slope(series)


def test_exact_logarithmic_series_has_zero_residual():
    cutoffs = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    values = 3.0 * np.log(cutoffs) + 0.7
    est = estimate_slope(PartialSumSeries(cutoffs, values, "abs"))
    assert est.value == pytest.approx(3.0, abs=1e-12)
    assert est.error_bar <= 1e-12
    assert est.fit_residual <= 1e-12


def test_wrong_order_symbol_flagged(t1):
    # order -2 on T^1: the series converges, the slope fit cannot be trusted
    sym = weight_power_symbol(t1, 1.0, -2.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 11)))
    assert NON_CLASSICAL_FLAG in est.flags


# ---------------------------------------------------------------------------
# structural properties


def test_positive_homogeneity_exact_for_powers_of_two(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    schedule = geometric_schedule(8.0, 2.0, 8)
    base = sum_series(sym, schedule)
    scaled = sum_series(scale_symbol(4.0, sym), schedule)
    assert np.array_equal(np.real(scaled.values), 4.0 * np.real(base.values))
    est_base = estimate_slope(base)
    est_scaled = estimate_slope(scaled)
    assert est_scaled.value == pytest.approx(4.0 * est_base.value, rel=1e-14)


@given(c=st.floats(0.1, 10.0))
def test_positive_homogeneity_generic(c, su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    schedule = geometric_schedule(8.0, 2.0, 6)
    base = sum_series(sym, schedule)
    scaled = sum_series(scale_symbol(c, sym), schedule)
    assert np.allclose(np.real(scaled.values), c * np.real(base.values), rtol=1e-12)


def test_triangle_property_of_partial_sums(su2):
    a = diagonal_symbol(
        su2,
        lambda xi: (xi.weight**-3.0) * np.cos(np.arange(xi.dim) + 1.0).astype(complex),
        DecayEnvelope(1.0, -3.0),
        check=False,
    )
    b = weight_power_symbol(su2, 0.7, -3.0)
    from ncresidue import add_symbols

    for cutoff in (4.0, 8.0, 16.0):
        sab = partial_sum(add_symbols(a, b), cutoff)
        assert sab <= partial_sum(a, cutoff) + partial_sum(b, cutoff) + 1e-12


def test_signed_equals_pos_minus_neg_series(su2):
    # Hermitian-valued diagonal symbol with mixed signs
    def diag(xi):
        signs = np.where(np.arange(xi.dim) % 3 == 0, 1.0, -0.5)
        return (xi.weight**-3.0 * signs).astype(complex)

    sym = diagonal_symbol(su2, diag, DecayEnvelope(1.0, -3.0), check=False)

    def pos_diag(xi):
        return np.maximum(diag(xi).real, 0.0).astype(complex)

    def neg_diag(xi):
        return np.maximum(-diag(xi).real, 0.0).astype(complex)

    pos = diagonal_symbol(su2, pos_diag, DecayEnvelope(1.0, -3.0), check=False)
    neg = diagonal_symbol(su2, neg_diag, DecayEnvelope(1.0, -3.0), check=False)
    schedule = geometric_schedule(4.0, 2.0, 6)
    signed = sum_series(sym, schedule, mode="signed")
    s_pos = sum_series(pos, schedule)
    s_neg = sum_series(neg, schedule)
    diff = np.real(signed.values) - (np.real(s_pos.values) - np.real(s_neg.values))
    scale = np.abs(np.real(signed.values)) + 1.0
    assert np.all(np.abs(diff) <= 1e-9 * scale)


def test_determinism_bitwise(t2):
    sym = weight_power_symbol(t2, 1.0, -2.0)
    schedule = geometric_schedule(4.0, 2.0, 7)
    a = sum_series(sym, schedule)
    b = sum_series(sym, schedule)
    c = sum_series(sym, schedule)
    assert np.array_equal(np.asarray(a.values), np.asarray(b.values))
    assert np.array_equal(np.asarray(a.values), np.asarray(c.values))
