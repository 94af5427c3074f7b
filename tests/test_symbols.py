import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncresidue import (
    DecayEnvelope,
    Expansion,
    add_symbols,
    dense_symbol,
    diag_signed_symbol,
    diagonal_symbol,
    enumerate_dual,
    extract_residue_component,
    invariant_field,
    modulated_field,
    scalar_symbol,
    scale_symbol,
    weight_power_symbol,
    zero_symbol,
)
from ncresidue.errors import InvalidArgumentError
from ncresidue.symbols import combine_fields


def _element(group, index):
    return enumerate_dual(group, 16.0)[index]


# ---------------------------------------------------------------------------
# weight-power family


def test_weight_power_torus1(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    xi = [e for e in enumerate_dual(t1, 2.0) if e.label == 1][0]
    assert np.allclose(sym.evaluate(xi), np.array([[1.0 / math.sqrt(2.0)]]))


def test_weight_power_su2(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    xi = enumerate_dual(su2, 3.0)[2]  # level 2, weight 3
    assert np.allclose(sym.evaluate(xi), np.eye(3) / 27.0)


def test_weight_power_torus2_complex_coeff(t2):
    sym = weight_power_symbol(t2, 1j, -2.0)
    origin = [e for e in enumerate_dual(t2, 1.0) if e.label == (0, 0)][0]
    assert np.allclose(sym.evaluate(origin), np.array([[1j]]))


def test_evaluator_shape_validated(su2):
    sym = dense_symbol(su2, lambda xi: np.zeros((2, 2)), DecayEnvelope(1.0, -3.0), check=False)
    xi = enumerate_dual(su2, 3.0)[2]
    with pytest.raises(InvalidArgumentError):
        sym.evaluate(xi)


# ---------------------------------------------------------------------------
# algebra


def test_add_symbols_cancellation(t1):
    s = add_symbols(weight_power_symbol(t1, 1.0, -1.0), weight_power_symbol(t1, -1.0, -1.0))
    for xi in enumerate_dual(t1, 4.0):
        assert np.allclose(s.evaluate(xi), 0.0)


def test_scale_symbol_su2(su2):
    s = scale_symbol(2.0, weight_power_symbol(su2, 1.0, -3.0))
    xi = enumerate_dual(su2, 1.0)[0]
    assert np.allclose(s.evaluate(xi), 2.0 * np.eye(1))


def test_dense_signed_diagonal_example(su2):
    def ev(xi):
        return np.diag([xi.weight**-1.0, -(xi.weight**-1.0)]).astype(complex)

    sym = dense_symbol(su2, ev, DecayEnvelope(1.0, -1.0), check=False)
    xi = enumerate_dual(su2, 2.0)[1]  # level 1, weight 2, dim 2
    mat = sym.evaluate(xi)
    assert abs(np.sum(np.abs(np.diag(mat))) - 1.0) < 1e-15
    assert abs(np.trace(mat)) < 1e-15


def test_group_mismatch_rejected(t1, su2):
    with pytest.raises(InvalidArgumentError):
        add_symbols(weight_power_symbol(t1, 1.0, -1.0), weight_power_symbol(su2, 1.0, -1.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_algebra_is_pointwise_linear(seed, a, b, su2):
    rng = np.random.default_rng(seed)

    def mk(scale_val):
        def ev(xi):
            r = np.random.default_rng(hash((seed, xi.label)) % 2**32)
            m = r.normal(size=(xi.dim, xi.dim)) * scale_val
            return (m * xi.weight**-3.0).astype(complex)

        return dense_symbol(su2, ev, DecayEnvelope(10.0 * abs(scale_val) + 1, -3.0), check=False)

    s1 = mk(1.0)
    s2 = mk(0.5)
    combo = add_symbols(scale_symbol(a, s1), scale_symbol(b, s2))
    for xi in enumerate_dual(su2, 4.0):
        expect = a * s1.evaluate(xi) + b * s2.evaluate(xi)
        assert np.allclose(combo.evaluate(xi), expect, atol=1e-13)


def test_structure_tags_propagate(t1, su2):
    sc = weight_power_symbol(t1, 1.0, -1.0)
    assert sc.structure == "scalar"
    assert add_symbols(sc, sc).structure == "scalar"
    assert scale_symbol(2.0, sc).structure == "scalar"
    dg = diag_signed_symbol(su2, -3.0)
    assert dg.structure == "diagonal"
    assert scale_symbol(1j, dg).structure == "diagonal"
    mixed = add_symbols(weight_power_symbol(su2, 1.0, -3.0), dg)
    assert mixed.structure == "diagonal"


def test_diag_signed_alternates(su2):
    sym = diag_signed_symbol(su2, -3.0)
    xi = enumerate_dual(su2, 3.0)[2]
    assert np.allclose(np.diag(sym.evaluate(xi)), np.array([1, -1, 1]) / 27.0)


# ---------------------------------------------------------------------------
# envelope spot-check


def test_envelope_violation_detected(t1):
    with pytest.raises(InvalidArgumentError):
        scalar_symbol(t1, lambda w: w**-1.0, DecayEnvelope(0.5, -1.0))


def test_envelope_violation_detected_diagonal(su2):
    with pytest.raises(InvalidArgumentError):
        diagonal_symbol(
            su2,
            lambda xi: np.full(xi.dim, xi.weight**-1.0, dtype=complex),
            DecayEnvelope(1.0, -2.0),
        )


def test_envelope_violation_detected_dense_off_the_ones_vector(su2):
    # at level 1 only, sigma = w^-3 (5.25 I - 4.75 J), J the swap, has norm
    # 10 w^-3 along (1, -1), orthogonal to the all-ones vector, and 0.5 w^-3
    # along (1, 1); every other level is 0.5 w^-3 I.  The entries are exact
    # in binary, so no rounding leaks into the (1, -1) direction.
    def evaluator(xi):
        if xi.label == 1:
            return xi.weight**-3.0 * np.array([[5.25, -4.75], [-4.75, 5.25]], dtype=complex)
        return xi.weight**-3.0 * 0.5 * np.eye(xi.dim, dtype=complex)

    with pytest.raises(InvalidArgumentError, match=r"at 1 \(weight 2\): \|sigma\| = 1\.25 > 0\.125"):
        dense_symbol(su2, evaluator, DecayEnvelope(1.0, -3.0))
    dense_symbol(su2, evaluator, DecayEnvelope(10.0, -3.0))


def test_envelope_spot_check_refuses_nan(su2):
    # NaN compares false with any bound, so it is refused for not being within it
    nan_class = r"decay envelope violated at 0 \(weight 1\): \|sigma\| = nan"
    envelope = DecayEnvelope(1.0, -3.0)
    with pytest.raises(InvalidArgumentError, match=nan_class):
        scalar_symbol(su2, lambda w: np.full(w.shape, np.nan), envelope)
    with pytest.raises(InvalidArgumentError, match=nan_class):
        diagonal_symbol(su2, lambda xi: np.full(xi.dim, np.nan, dtype=complex), envelope)
    with pytest.raises(InvalidArgumentError, match=nan_class):
        dense_symbol(su2, lambda xi: np.full((xi.dim, xi.dim), np.nan, dtype=complex), envelope)


def test_chunk_spectra_of_dense_and_diagonal_classes(su2):
    rng = np.random.default_rng(3)
    mats = {d: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in range(1, 9)}
    dense = dense_symbol(su2, lambda xi: mats[xi.dim], DecayEnvelope(1.0, 0.0), check=False)
    diag = diagonal_symbol(su2, lambda xi: np.diag(mats[xi.dim]), DecayEnvelope(1.0, 0.0), check=False)
    (chunk,) = su2.dual_chunks(0.0, 8.0)
    diagonals = np.concatenate([np.diag(mats[d]) for d in range(1, 9)])
    spectra = {}
    for mode in ("abs", "signed", "four"):
        assert np.array_equal(diag.chunk_spectra(chunk, mode), diagonals)
        spectra[mode] = np.split(dense.chunk_spectra(chunk, mode), np.cumsum(range(1, 8)))
    for d in range(1, 9):
        m = mats[d]
        assert np.array_equal(spectra["signed"][d - 1], np.diag(m))
        assert np.allclose(spectra["abs"][d - 1], np.linalg.svd(m, compute_uv=False), rtol=1e-13, atol=0.0)
        re, im = (np.linalg.eigvalsh(h) for h in (0.5 * (m + m.conj().T), -0.5j * (m - m.conj().T)))
        assert np.allclose(spectra["four"][d - 1], re + 1j * im, rtol=1e-13, atol=1e-13)
    with pytest.raises(InvalidArgumentError, match="unknown reduction mode"):
        dense.chunk_spectra(chunk, "zeta")


def test_honest_envelope_accepted(t1):
    scalar_symbol(t1, lambda w: 0.5 * w**-1.0, DecayEnvelope(0.5, -1.0))


def test_envelope_fields_validated():
    with pytest.raises(InvalidArgumentError):
        DecayEnvelope(-1.0, -1.0)


# ---------------------------------------------------------------------------
# fields


def test_modulated_field_constant_reduces_to_invariant(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    quad = t1.haar_quadrature(4)
    field = modulated_field(lambda x: 1.0, sym, quad, -1.0)
    assert field.invariant
    xi = enumerate_dual(t1, 1.0)[0]
    for node_sym in field.node_symbols:
        assert np.allclose(node_sym.evaluate(xi), sym.evaluate(xi))


def test_modulated_field_samples_nodes(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    quad = t1.haar_quadrature(8)
    field = modulated_field(lambda x: 2.0 + math.cos(float(x[0])), sym, quad, -1.0)
    assert not field.invariant
    xi = enumerate_dual(t1, 1.0)[0]  # weight 1
    assert np.allclose(field.node_symbols[0].evaluate(xi), [[3.0]])  # x = 0
    assert np.allclose(field.node_symbols[4].evaluate(xi), [[1.0]])  # x = pi


def test_modulated_field_degree_checked(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    quad = t1.haar_quadrature(4)
    with pytest.raises(InvalidArgumentError):
        modulated_field(lambda x: 1.0, sym, quad, -2.0)


def test_combine_fields_linearity(t1):
    quad = t1.haar_quadrature(4)
    f = modulated_field(lambda x: 2.0 + math.cos(float(x[0])), weight_power_symbol(t1, 1.0, -1.0), quad, -1.0)
    g = invariant_field(weight_power_symbol(t1, 1j, -1.0), quad)
    combo = combine_fields([2.0, 1j], [f, g])
    xi = enumerate_dual(t1, 1.0)[0]
    for j in range(len(quad.weights)):
        expect = 2.0 * f.node_symbols[j].evaluate(xi) + 1j * g.node_symbols[j].evaluate(xi)
        assert np.allclose(combo.node_symbols[j].evaluate(xi), expect)


# ---------------------------------------------------------------------------
# expansions and the order-reduction step


def _field_of_order(group, alpha):
    return invariant_field(weight_power_symbol(group, 1.0, alpha))


def test_extract_below_critical_order_is_zero(su2):
    exp = Expansion(su2, -5.0, ((-5.0, _field_of_order(su2, -5.0)),))
    out = extract_residue_component(exp, 3)
    assert out.flags == ()
    xi = enumerate_dual(su2, 2.0)[1]
    assert np.allclose(out.field.node_symbols[0].evaluate(xi), 0.0)


def test_extract_selects_degree_minus_n(su2):
    comps = tuple((0.0 - k, _field_of_order(su2, 0.0 - k)) for k in range(4))
    exp = Expansion(su2, 0.0, comps)
    out = extract_residue_component(exp, 3)
    assert out.flags == ()
    assert out.field is comps[3][1]


def test_extract_single_component_at_critical_order(su2):
    field = _field_of_order(su2, -3.0)
    exp = Expansion(su2, -3.0, ((-3.0, field),))
    out = extract_residue_component(exp, 3)
    assert out.field is field


def test_extract_missing_component_flagged(su2):
    comps = tuple((0.0 - k, _field_of_order(su2, 0.0 - k)) for k in range(3))
    exp = Expansion(su2, 0.0, comps)  # stops at degree -2, no -3 slot
    out = extract_residue_component(exp, 3)
    assert out.flags == ("component missing",)


def test_extract_idempotent_in_degree(su2):
    field = _field_of_order(su2, -3.0)
    exp = Expansion(su2, -3.0, ((-3.0, field),))
    first = extract_residue_component(exp, 3).field
    again = extract_residue_component(Expansion(su2, -3.0, ((-3.0, first),)), 3).field
    assert again is first


def test_expansion_degree_ladder_validated(su2):
    with pytest.raises(InvalidArgumentError):
        Expansion(su2, 0.0, ((-1.0, _field_of_order(su2, -1.0)),))


def test_zero_symbol_evaluates_to_zero(t2):
    sym = zero_symbol(t2, -2.0)
    for xi in enumerate_dual(t2, 3.0):
        assert np.allclose(sym.evaluate(xi), 0.0)
