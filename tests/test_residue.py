import math

import numpy as np
import pytest

from ncresidue import (
    DecayEnvelope,
    Expansion,
    attach_zeta_cross_check,
    combine_fields,
    dense_symbol,
    diag_signed_symbol,
    diagonal_symbol,
    estimate_slope,
    frozen_residue,
    geometric_schedule,
    invariant_field,
    modulated_field,
    residue_from_expansion,
    scalar_symbol,
    sum_series,
    weight_power_symbol,
    wodzicki_residue,
)
from ncresidue import weakl1
from ncresidue.errors import InvalidArgumentError, NumericalFailureError
from ncresidue.groups import su2_class_cosine
from ncresidue.residue import NON_CLASSICAL_ORDER_FLAG, UNRELIABLE_FLAG, four_part_series
from ncresidue.symbols import SymbolField, scale_symbol

T1_SCHEDULE = geometric_schedule(16.0, 2.0, 13)
SU2_SCHEDULE = geometric_schedule(16.0, 2.0, 11)


# ---------------------------------------------------------------------------
# frozen (invariant) residues


def test_positive_symbol_all_mass_in_re_pos(t1):
    norms = frozen_residue(weight_power_symbol(t1, 1.0, -1.0), T1_SCHEDULE)
    assert abs(norms.value - 2.0) <= 0.02
    assert norms.re_neg.value == 0.0
    assert norms.im_pos.value == 0.0
    assert norms.im_neg.value == 0.0


def test_negative_symbol_all_mass_in_re_neg(t1):
    norms = frozen_residue(weight_power_symbol(t1, -1.0, -1.0), T1_SCHEDULE)
    assert abs(norms.value + 2.0) <= 0.02
    assert norms.re_pos.value == 0.0


def test_imaginary_symbol_all_mass_in_im_pos(t1):
    norms = frozen_residue(weight_power_symbol(t1, 1j, -1.0), T1_SCHEDULE)
    assert abs(norms.value - 2j) <= 0.02
    assert norms.re_pos.value == 0.0
    assert norms.re_neg.value == 0.0
    assert norms.im_neg.value == 0.0


def test_wrong_order_rejected(t1):
    with pytest.raises(InvalidArgumentError):
        frozen_residue(weight_power_symbol(t1, 1.0, -2.0), T1_SCHEDULE)


def test_sign_flip_is_exact_at_series_level(t1):
    plus = frozen_residue(weight_power_symbol(t1, 1.0, -1.0), T1_SCHEDULE)
    minus = frozen_residue(weight_power_symbol(t1, -1.0, -1.0), T1_SCHEDULE)
    assert minus.value == -plus.value
    assert minus.re_neg.value == plus.re_pos.value


# ---------------------------------------------------------------------------
# fields and the Haar integral


def test_modulated_field_residue(t1):
    quad = t1.haar_quadrature(8)
    field = modulated_field(
        lambda x: 2.0 + math.cos(float(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        quad,
        -1.0,
    )
    report = wodzicki_residue(field, T1_SCHEDULE)
    assert abs(report.residue - 4.0) <= 0.08
    assert report.flags == ()
    assert report.quadrature_resolution == 8
    assert len(report.per_node) == 8
    # assembled exactly as the weighted sum of per-node values
    assembled = sum(nr.weight * nr.norms.value for nr in report.per_node)
    assert report.residue == assembled


def test_invariant_field_su2(su2):
    field = invariant_field(weight_power_symbol(su2, 1.0, -3.0))
    report = wodzicki_residue(field, SU2_SCHEDULE)
    assert abs(report.residue - 1.0) <= 0.02
    assert report.total_error_bar <= 0.02


def test_invariant_field_computed_once(su2):
    field = invariant_field(weight_power_symbol(su2, 1.0, -3.0), su2.haar_quadrature(4))
    report = wodzicki_residue(field, SU2_SCHEDULE)
    first = report.per_node[0].norms
    assert all(nr.norms is first for nr in report.per_node)


def test_zero_field_residue_is_exactly_zero(t1):
    field = invariant_field(weight_power_symbol(t1, 0.0, -1.0))
    report = wodzicki_residue(field, T1_SCHEDULE)
    assert report.residue == 0.0
    assert report.total_error_bar == 0.0


def test_field_degree_checked(t1):
    field = invariant_field(weight_power_symbol(t1, 1.0, -1.0))
    t2_field = invariant_field(weight_power_symbol(t1, 1.0, -2.0))
    wodzicki_residue(field, T1_SCHEDULE)
    with pytest.raises(InvalidArgumentError):
        wodzicki_residue(t2_field, T1_SCHEDULE)


def test_linearity_of_residue(t1):
    quad = t1.haar_quadrature(8)
    f = modulated_field(
        lambda x: 2.0 + math.cos(float(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        quad,
        -1.0,
    )
    g = invariant_field(weight_power_symbol(t1, 1j, -1.0), quad)
    combo = combine_fields([2.0, 1j], [f, g])
    rf = wodzicki_residue(f, T1_SCHEDULE)
    rg = wodzicki_residue(g, T1_SCHEDULE)
    rc = wodzicki_residue(combo, T1_SCHEDULE)
    expected = 2.0 * rf.residue + 1j * rg.residue
    allow = rc.total_error_bar + 2.0 * rf.total_error_bar + rg.total_error_bar
    assert abs(rc.residue - expected) <= allow


def test_four_part_consistency_against_signed_slope(su2):
    # Tr R = Tr R+ - Tr R- termwise lifts to the series: the four-norm
    # combination must agree with the signed-trace slope
    def diag(xi):
        signs = np.where(np.arange(xi.dim) % 2 == 0, 1.0, -0.7)
        return (xi.weight**-3.0 * signs).astype(complex)

    sym = diagonal_symbol(su2, diag, DecayEnvelope(1.0, -3.0), check=False)
    schedule = geometric_schedule(8.0, 2.0, 8)
    norms = frozen_residue(sym, schedule)
    signed = estimate_slope(sum_series(sym, schedule, mode="signed"))
    lhs = norms.re_pos.value - norms.re_neg.value
    allow = norms.re_pos.error_bar + norms.re_neg.error_bar + signed.error_bar
    assert abs(lhs - signed.value) <= allow + 1e-12


def test_hermitian_psd_field_residue_is_real_positive(su2):
    # dense PSD values: residue has negligible imaginary and negative parts
    def ev(xi):
        rng = np.random.default_rng(xi.label)
        b = rng.normal(size=(xi.dim, xi.dim)) + 1j * rng.normal(size=(xi.dim, xi.dim))
        gram = b @ b.conj().T
        top = np.linalg.norm(gram, 2)
        return gram / (top if top > 0 else 1.0) * xi.weight**-3.0

    sym = dense_symbol(su2, ev, DecayEnvelope(1.0, -3.0), check=False)
    schedule = geometric_schedule(4.0, 2.0, 4)
    norms = frozen_residue(sym, schedule)
    bar = norms.error_bar
    assert abs(norms.value.imag) <= bar + 1e-12
    assert norms.re_neg.value <= bar + 1e-12


# ---------------------------------------------------------------------------
# expansions


def _invariant(group, alpha):
    return invariant_field(weight_power_symbol(group, 1.0, alpha))


def test_expansion_below_critical_order_gives_zero(su2):
    exp = Expansion(su2, -4.0, ((-4.0, _invariant(su2, -4.0)),))
    report = residue_from_expansion(exp, SU2_SCHEDULE)
    assert report.residue == 0.0
    assert report.flags == ()


def test_expansion_higher_order_components_do_not_contribute(su2):
    bare = wodzicki_residue(_invariant(su2, -3.0), SU2_SCHEDULE)
    comps = tuple((0.0 - k, _invariant(su2, 0.0 - k)) for k in range(4))
    exp = Expansion(su2, 0.0, comps)
    report = residue_from_expansion(exp, SU2_SCHEDULE)
    assert abs(report.residue - 1.0) <= 0.02
    assert report.residue == bare.residue
    assert report.flags == ()


def test_expansion_missing_slot_flagged(su2):
    comps = tuple((0.0 - k, _invariant(su2, 0.0 - k)) for k in range(3))
    exp = Expansion(su2, 0.0, comps)
    report = residue_from_expansion(exp, SU2_SCHEDULE)
    assert report.residue == 0.0
    assert "component missing" in report.flags


# ---------------------------------------------------------------------------
# flags and cross-checks


def test_non_classical_node_flags_report(t1):
    # one node carries a converging (order -2) profile under an honest
    # order -1 envelope: its slope fit cannot converge
    good = weight_power_symbol(t1, 1.0, -1.0)
    bad = scalar_symbol(t1, lambda w: w**-2.0, DecayEnvelope(1.0, -1.0))
    quad = t1.haar_quadrature(2)
    from ncresidue.symbols import SymbolField

    field = SymbolField(quad, (good, bad), -1.0, invariant=False)
    report = wodzicki_residue(field, T1_SCHEDULE)
    assert UNRELIABLE_FLAG in report.flags
    assert any(NON_CLASSICAL_ORDER_FLAG in f for f in report.flags)


def test_zeta_cross_check_agreement(su2):
    field = invariant_field(weight_power_symbol(su2, 1.0, -3.0))
    report = wodzicki_residue(field, SU2_SCHEDULE)
    checked = attach_zeta_cross_check(report, field)
    assert checked.cross_check is not None
    assert checked.cross_check.agreement
    assert abs(checked.cross_check.zeta_value - 1.0) <= 0.05


def test_zeta_cross_check_skipped_for_varying_field(t1):
    quad = t1.haar_quadrature(4)
    field = modulated_field(
        lambda x: 2.0 + math.cos(float(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        quad,
        -1.0,
    )
    report = wodzicki_residue(field, T1_SCHEDULE)
    checked = attach_zeta_cross_check(report, field)
    assert checked.cross_check is None
    assert any("cross-check skipped" in f for f in checked.flags)


# ---------------------------------------------------------------------------
# real modulations: one pass over the dual, scaled per node

_PARTS = ("re_pos", "re_neg", "im_pos", "im_neg")


def _scaled_report_matches_per_node_route(field, schedule):
    base, factors = field.scaled
    report = wodzicki_residue(field, schedule)
    for a, nr in zip(factors, report.per_node):
        want = frozen_residue(scale_symbol(a, base), schedule)
        for part in _PARTS:
            got, ref = getattr(nr.norms, part), getattr(want, part)
            tol = 1e-12 * abs(ref.value)
            assert abs(got.value - ref.value) <= tol
            # an error bar is a difference of fits; compare it on the part's scale
            assert abs(got.error_bar - ref.error_bar) <= tol
    return report


def test_sign_changing_real_modulation_scales_one_series(t1):
    base = weight_power_symbol(t1, 1.0, -1.0)
    # rounding makes cos vanish exactly at the nodes pi/2 and 3pi/2
    field = modulated_field(
        lambda x: round(math.cos(float(x[0])), 12), base, t1.haar_quadrature(8), -1.0
    )
    assert field.scaled[0] is base
    factors = field.scaled[1]
    assert min(factors) < 0.0 < max(factors) and 0.0 in factors
    report = _scaled_report_matches_per_node_route(field, T1_SCHEDULE)
    plus = frozen_residue(base, T1_SCHEDULE).re_pos.value
    for a, nr in zip(factors, report.per_node):
        if a < 0.0:
            assert nr.norms.re_pos.value == 0.0
            assert abs(nr.norms.re_neg.value - abs(a) * plus) <= 1e-12 * plus
        elif a == 0.0:
            for part in _PARTS:
                assert getattr(nr.norms, part).value == 0.0
                assert getattr(nr.norms, part).error_bar == 0.0


def _zero_crossing_poly(node):
    return 0.25 + su2_class_cosine(node)


def test_diag_signed_su2_modulated_across_zero(su2):
    field = modulated_field(
        _zero_crossing_poly, diag_signed_symbol(su2, -3.0), su2.haar_quadrature(2), -3.0
    )
    assert min(field.scaled[1]) < 0.0 < max(field.scaled[1])
    _scaled_report_matches_per_node_route(field, geometric_schedule(8.0, 2.0, 6))


def test_dense_su2_base_modulated_across_zero(su2):
    def ev(xi):
        rng = np.random.default_rng(xi.label)
        b = rng.normal(size=(xi.dim, xi.dim)) + 1j * rng.normal(size=(xi.dim, xi.dim))
        return b / np.linalg.norm(b, 2) * xi.weight**-3.0

    base = dense_symbol(su2, ev, DecayEnvelope(1.0, -3.0), check=False)
    field = modulated_field(_zero_crossing_poly, base, su2.haar_quadrature(2), -3.0)
    report = _scaled_report_matches_per_node_route(field, geometric_schedule(4.0, 2.0, 4))
    assert all(getattr(report.per_node[0].norms, part).value > 0.0 for part in _PARTS)


def test_complex_modulation_keeps_the_per_node_route(t1):
    field = modulated_field(
        lambda x: (2.0 + math.cos(float(x[0]))) * complex(math.cos(x[0]), math.sin(x[0])),
        weight_power_symbol(t1, 1.0, -1.0),
        t1.haar_quadrature(4),
        -1.0,
    )
    assert field.scaled is None
    report = wodzicki_residue(field, T1_SCHEDULE)
    for sym, nr in zip(field.node_symbols, report.per_node):
        want = frozen_residue(sym, T1_SCHEDULE)
        for part in _PARTS:
            assert getattr(nr.norms, part) == getattr(want, part)


def test_real_modulation_sums_the_dual_once(su2):
    calls = [0]

    def diag(xi):
        calls[0] += 1
        signs = np.where(np.arange(xi.dim) % 2 == 0, 1.0, -1.0)
        return (xi.weight**-3.0 * signs).astype(complex)

    base = diagonal_symbol(su2, diag, DecayEnvelope(1.0, -3.0), check=False)
    quad = su2.haar_quadrature(4)
    field = modulated_field(lambda g: 2.0 + su2_class_cosine(g), base, quad, -3.0)
    assert len(field.node_symbols) == 64
    schedule = geometric_schedule(8.0, 2.0, 5)
    one_pass = sum(len(chunk) for chunk in su2.dual_chunks(0.0, schedule[-1]))
    calls[0] = 0
    wodzicki_residue(field, schedule)
    assert calls[0] == one_pass


def test_modulated_field_fits_every_node_in_one_pass(monkeypatch, su2):
    fits = []
    fit = weakl1._fit
    monkeypatch.setattr(weakl1, "_fit", lambda logs, rows: fits.append(len(rows)) or fit(logs, rows))
    def a(g):  # a class polynomial, as the CLI's class_poly modulation
        t = su2_class_cosine(g)
        return 2.0 + 0.3 * t - 0.4 * t**2

    quad = su2.haar_quadrature(4)
    field = modulated_field(a, diag_signed_symbol(su2, -3.0), quad, -3.0)
    assert len(field.node_symbols) == 64
    distinct = len({a(node) for node in quad.nodes})
    report = wodzicki_residue(field, geometric_schedule(16.0, 2.0, 8))
    # the window and its shift, four rows per distinct factor
    assert fits == [4 * distinct, 4 * distinct]
    assert len(report.per_node) == 64


@pytest.mark.parametrize(
    "coeff, amplitude, overflows",
    [(1e8, 1e300, "four-part partial sums"), (1.0, 3e306, "four-norm slope fit")],
)
def test_overflowing_scaled_node_raises(t1, coeff, amplitude, overflows):
    # the base series is finite; a(x) * series, or its slope fit, is not
    base = weight_power_symbol(t1, coeff, -1.0)
    field = modulated_field(
        lambda x: amplitude * (1.0 + 0.5 * math.cos(float(x[0]))), base, t1.haar_quadrature(4), -1.0
    )
    assert field.scaled is not None
    assert np.all(np.isfinite(four_part_series(base, T1_SCHEDULE)))
    with pytest.raises(NumericalFailureError, match=f"non-finite {overflows}"):
        wodzicki_residue(field, T1_SCHEDULE)


def test_scaled_field_validates_its_base(t1, su2):
    quad = t1.haar_quadrature(2)
    base = weight_power_symbol(t1, 1.0, -1.0)
    nodes = (scale_symbol(2.0, base), scale_symbol(3.0, base))
    SymbolField(quad, nodes, -1.0, scaled=(base, (2.0, 3.0)))
    for scaled in (
        (base, (2.0,)),
        (weight_power_symbol(t1, 1.0, -2.0), (2.0, 3.0)),
        (weight_power_symbol(su2, 1.0, -1.0), (2.0, 3.0)),
    ):
        with pytest.raises(InvalidArgumentError):
            SymbolField(quad, nodes, -1.0, scaled=scaled)
