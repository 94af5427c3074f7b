import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncresidue import (
    SU2,
    DecayEnvelope,
    Torus,
    diagonal_symbol,
    estimate_slope,
    geometric_schedule,
    partial_sum,
    scale_symbol,
    sum_series,
    weight_power_symbol,
)
from ncresidue import weakl1
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
# the batched closed-form fit


@given(
    count=st.integers(4, 40),
    rows=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_match_single_row_fits_bitwise(count, rows, seed):
    rng = np.random.default_rng(seed)
    # at least the two octaves a fit needs
    cutoffs = np.array(geometric_schedule(2.0, 4.0 ** (1.0 / (count - 1)) * (1.0 + rng.random()), count))
    # c log N + b with noise from none to dominant, over many magnitudes,
    # so some rows carry the non-classical flag
    scale = 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
    noise = rng.choice([0.0, 1e-6, 1e-2, 10.0], (rows, 1)) * rng.standard_normal((rows, count))
    values = scale * (rng.standard_normal((rows, 1)) * np.log(cutoffs) + rng.standard_normal((rows, 1)) + noise)
    batched = weakl1._estimate_slopes(cutoffs, values)
    assert len(batched) == rows
    for row, est in zip(values, batched):
        alone = estimate_slope(PartialSumSeries(cutoffs, row.copy(), "signed"))
        assert (est.value, est.error_bar, est.fit_residual, est.flags, est.window) == (
            alone.value,
            alone.error_bar,
            alone.fit_residual,
            alone.flags,
            alone.window,
        )


@pytest.mark.parametrize(
    "group, alpha, schedule",
    [
        (Torus(1), -1.0, geometric_schedule(16.0, 2.0, 13)),
        (Torus(2), -2.0, geometric_schedule(4.0, 2.0, 9)),
        (Torus(3), -3.0, geometric_schedule(4.0, 2.0, 7)),
        (SU2(), -3.0, geometric_schedule(16.0, 2.0, 11)),
    ],
)
def test_closed_form_fit_matches_polyfit(group, alpha, schedule):
    series = sum_series(weight_power_symbol(group, 1.0, alpha), schedule)
    est = estimate_slope(series)
    first = est.window[0]
    logs, vals = np.log(series.cutoffs[first:]), series.values[first:]
    slope, intercept = np.polyfit(logs, vals, 1)
    resid = np.max(np.abs(vals - (slope * logs + intercept)))
    assert abs(est.value - slope) <= 1e-12 * abs(slope)
    # the residual is about 1e-5 of the values, and both fits round at the
    # values' scale, so it agrees to 1e-12 of that scale
    assert abs(est.fit_residual - resid) <= 1e-12 * np.max(np.abs(vals))
    # against the exact least-squares residual of the same floats
    xs, ys = [Fraction(float(v)) for v in logs], [Fraction(float(v)) for v in vals]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    c = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs)
    exact = float(max(abs(y - ym - c * (x - xm)) for x, y in zip(xs, ys)))
    assert abs(est.fit_residual - exact) <= 1e-11 * exact


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
