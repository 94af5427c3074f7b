import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncresidue import (
    SU2,
    DecayEnvelope,
    MatrixSymbol,
    Torus,
    add_symbols,
    dense_symbol,
    diag_signed_symbol,
    diagonal_symbol,
    enumerate_dual,
    geometric_schedule,
    partial_sum,
    scalar_symbol,
    scale_symbol,
    sum_series,
    weight_power_symbol,
    zeta_trace,
)
from ncresidue import dualsum
from ncresidue.errors import InvalidArgumentError, NumericalFailureError

# Fixed deterministic dense unitaries, one per dimension (one per SU(2)
# level): phases * DFT * phases * DFT, built with FFTs so that large levels
# stay cheap.
_UNITARIES = {}


def _unitary(d):
    if d not in _UNITARIES:
        p1, p2 = np.exp(2j * np.pi * np.random.default_rng(1000 + d).random((2, d)))
        f = np.fft.fft(np.eye(d), axis=0)
        _UNITARIES[d] = p1[:, None] * np.fft.fft(p2[:, None] * f, axis=0) / d
    return _UNITARIES[d]


def _conjugated(u, diag):
    return (u * diag) @ u.conj().T



def _powers(s):
    """``annulus_sums`` factors: the row w**(-v) for each v in s, or none for s == 0."""
    s = np.atleast_1d(s).tolist()
    return None if s == [0.0] else (lambda w: np.array([w ** (-v) for v in s]))


# ---------------------------------------------------------------------------
# the structure tag never changes an answer

# On T^2 and T^3 the scalar tag runs on radial shells with r_n(k)
# multiplicities and the other two tags enumerate the lattice, so these are
# independent code paths.
_GROUPS = {
    "T1": (Torus(1), [4.0, 16.0, 64.0]),
    "T2": (Torus(2), [4.0, 8.0, 16.0]),
    "T3": (Torus(3), [2.0, 4.0, 8.0]),
    "SU2": (SU2(), [4.0, 8.0, 16.0]),
}


def _representations(group, coeff, alpha):
    """c * <xi>**alpha * I as a scalar, a diagonal and a dense symbol."""
    env = DecayEnvelope(abs(coeff), alpha)

    def value(xi):
        return coeff * xi.weight**alpha

    return (
        scalar_symbol(group, lambda w: coeff * w**alpha, env, check=False),
        diagonal_symbol(group, lambda xi: np.full(xi.dim, value(xi)), env, check=False),
        dense_symbol(
            group,
            lambda xi: _conjugated(_unitary(xi.dim), np.full(xi.dim, value(xi))),
            env,
            check=False,
        ),
    )


@given(
    group=st.sampled_from(sorted(_GROUPS)),
    mode=st.sampled_from(["abs", "signed", "four"]),
    s=st.sampled_from([0.0, 0.5]),
    modulus=st.floats(0.5, 2.0),
    phase=st.one_of(
        st.sampled_from([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]), st.floats(0.0, 2.0 * np.pi)
    ),
    alpha=st.sampled_from([-1.0, -2.0, -3.0, -1.5]),
)
@example(group="SU2", mode="abs", s=0.0, modulus=1.0, phase=0.5 * np.pi, alpha=-3.0)
def test_structure_tag_does_not_change_annulus_sums(group, mode, s, modulus, phase, alpha):
    grp, schedule = _GROUPS[group]
    coeff = complex(modulus * np.cos(phase), modulus * np.sin(phase))
    ref, *others = (
        dualsum.annulus_sums(sym, schedule, mode, _powers(s))
        for sym in _representations(grp, coeff, alpha)
    )
    atol = 1e-9 * np.max(np.abs(ref))
    for got in others:
        assert np.allclose(got, ref, rtol=1e-9, atol=atol)


# ---------------------------------------------------------------------------
# the dtype of a symbol's values never changes an answer


def _real_and_complex(group, alpha):
    """Pairs (real-valued symbol, the same symbol with a complex128 evaluator)."""
    env = DecayEnvelope(1.25, alpha)
    signed = diag_signed_symbol(group, alpha)

    def per_class(xi):
        return -1.25 * xi.weight**alpha * np.where(np.arange(xi.dim) % 3 == 0, 1.0, -1.0)

    return {
        "diag_signed": (
            signed,
            MatrixSymbol(group, "diagonal", env, None, diag_fn=lambda c: signed.diag_fn(c).astype(np.complex128)),
        ),
        "weight_power": (
            weight_power_symbol(group, -1.25, alpha),
            scalar_symbol(group, lambda w: complex(-1.25) * w**alpha, env, check=False),
        ),
        "per-class": (
            diagonal_symbol(group, per_class, env, check=False),
            diagonal_symbol(group, lambda xi: per_class(xi).astype(np.complex128), env, check=False),
        ),
    }


@pytest.mark.parametrize("group", sorted(_GROUPS))
@pytest.mark.parametrize("mode", ["abs", "signed", "four"])
@pytest.mark.parametrize("s", [0.0, [1.6, 0.8, 0.4]], ids=["no-factors", "factor-rows"])
def test_real_values_sum_bitwise_as_complex(group, mode, s):
    grp, schedule = _GROUPS[group]
    for name, (real, cplx) in _real_and_complex(grp, -float(grp.dim)).items():
        chunk = next(grp.dual_chunks(0.0, schedule[-1]))
        assert real.chunk_diagonals(chunk).dtype == np.float64, name
        assert cplx.chunk_diagonals(chunk).dtype == np.complex128, name
        ref = dualsum.annulus_sums(cplx, schedule, mode, _powers(s))
        got = dualsum.annulus_sums(real, schedule, mode, _powers(s))
        assert np.max(np.abs(ref)) > 0.0, name
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


# ---------------------------------------------------------------------------
# dense SU(2) to N = 256 against the diagonal path on the same spectra

_DENSE_SCHEDULE = geometric_schedule(4.0, 2.0, 7)  # 4 .. 256


def _pattern(d):
    k = np.arange(d, dtype=np.float64)
    return np.cos(1.3 * k + 0.4) + 1j * np.sin(0.7 * k - 0.2)


def _dense_pattern_symbol():
    return dense_symbol(
        SU2(),
        lambda xi: xi.weight**-3.0 * _conjugated(_unitary(xi.dim), _pattern(xi.dim)),
        DecayEnvelope(1.5, -3.0),
    )


@pytest.fixture(scope="module")
def dense_four():
    return dualsum.annulus_sums(_dense_pattern_symbol(), _DENSE_SCHEDULE, "four")


def test_dense_su2_to_256_matches_diagonal(dense_four):
    diag = diagonal_symbol(
        SU2(), lambda xi: xi.weight**-3.0 * _pattern(xi.dim), DecayEnvelope(1.5, -3.0)
    )
    ref = dualsum.annulus_sums(diag, _DENSE_SCHEDULE, "four")
    assert np.all(ref > 0.0)
    assert np.allclose(dense_four, ref, rtol=1e-9, atol=0.0)


# Dense classes run with numpy's bundled OpenBLAS on one thread, so the sums
# to N = 256 are bit-identical for any BLAS thread count.


def dense_four_norm_bits():
    """Hex of the dense four-norm annulus sums to N = 256 (also run in subprocesses)."""
    return dualsum.annulus_sums(_dense_pattern_symbol(), _DENSE_SCHEDULE, "four").tobytes().hex()


def _bits_with_blas_threads(n):
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(dualsum.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n))
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(tests_dir)])
    proc = subprocess.run(
        [sys.executable, "-c", "import test_dualsum as t; print(t.dense_four_norm_bits())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return proc.stdout.strip()


def test_dense_four_norms_bit_identical_across_blas_threads(dense_four):
    one = _bits_with_blas_threads(1)
    assert one == _bits_with_blas_threads(2)
    assert one == dense_four.tobytes().hex()


# ---------------------------------------------------------------------------
# diagonal symbols are evaluated and reduced one dual chunk at a time

_C = 1.5 - 0.5j
_ZETA_S = np.array([1.6, 0.8, 0.4])
_CHUNK_GROUPS = {"SU2": (SU2(), -3.0, [4.0, 16.0, 64.0, 256.0]), "T2": (Torus(2), -2.0, [4.0, 16.0, 32.0])}


def _signed_diagonal(xi, alpha):
    return _C * xi.weight**alpha * np.where(np.arange(xi.dim) % 2 == 0, 1.0, -1.0)


def _signed_representations(group, alpha):
    """c * diag(+1, -1, ...) * <xi>**alpha: per-class diagonal, chunk-vectorised diagonal, dense."""
    env = DecayEnvelope(abs(_C), alpha)
    return {
        "per-class": diagonal_symbol(group, lambda xi: _signed_diagonal(xi, alpha), env, check=False),
        "vectorised": scale_symbol(_C, diag_signed_symbol(group, alpha)),
        "dense": dense_symbol(group, lambda xi: np.diag(_signed_diagonal(xi, alpha)), env, check=False),
    }


@pytest.mark.parametrize("group", sorted(_CHUNK_GROUPS))
@pytest.mark.parametrize("mode, s", [("abs", 0.0), ("four", 0.0), ("signed", _ZETA_S)])
def test_structure_tag_does_not_change_chunk_sums(group, mode, s):
    grp, alpha, schedule = _CHUNK_GROUPS[group]
    sums = {
        name: dualsum.annulus_sums(sym, schedule, mode, _powers(s))
        for name, sym in _signed_representations(grp, alpha).items()
    }
    ref = sums.pop("per-class")
    assert np.max(np.abs(ref)) > 0.0
    for got in sums.values():
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


_TORI = {"T1": (Torus(1), [4.0, 64.0, 4096.0]), "T2": (Torus(2), [4.0, 16.0, 48.0])}


def _lattice_diagonal(xi):
    """A one-entry diagonal whose real and imaginary parts change sign over the lattice."""
    k = float(np.sum(xi.label))
    return np.array([complex(np.cos(1.3 * k + 0.4), np.sin(0.7 * k - 0.2))])


@pytest.mark.parametrize("group", sorted(_TORI))
@pytest.mark.parametrize("mode", ["abs", "signed", "four"])
@pytest.mark.parametrize("s", [0.0, _ZETA_S], ids=["no-factors", "factor-rows"])
def test_dense_torus_classes_sum_bitwise_as_their_diagonals(group, mode, s):
    # every torus class has d = 1, so a dense symbol's spectra are its diagonal
    grp, schedule = _TORI[group]
    env = DecayEnvelope(1.5, -grp.dim)

    def diag(xi):
        return xi.weight**-grp.dim * _lattice_diagonal(xi)

    dense = dense_symbol(grp, lambda xi: np.diag(diag(xi)), env)
    ref = dualsum.annulus_sums(diagonal_symbol(grp, diag, env), schedule, mode, _powers(s))
    got = dualsum.annulus_sums(dense, schedule, mode, _powers(s))
    assert np.max(np.abs(ref)) > 0.0
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("group", sorted(_CHUNK_GROUPS))
def test_each_factor_row_is_summed_as_if_alone(group):
    # the zeta trace weights one pass by a row per s; no row's sum may
    # depend on the rows beside it, on any structure path
    grp, alpha, schedule = _CHUNK_GROUPS[group]
    schedule = schedule[:2]  # dense classes cost d^3 each
    reps = _signed_representations(grp, alpha)
    reps["scalar"] = weight_power_symbol(grp, _C, alpha)
    for sym in reps.values():
        for mode in ("signed", "four"):
            together = dualsum.annulus_sums(sym, schedule, mode, _powers(_ZETA_S))
            nch = together.shape[1] // len(_ZETA_S)
            for j, v in enumerate(_ZETA_S):
                alone = dualsum.annulus_sums(sym, schedule, mode, _powers(v))
                assert together[:, j * nch : (j + 1) * nch].tobytes() == alone.tobytes()


@pytest.mark.parametrize("group", sorted(_CHUNK_GROUPS))
def test_one_class_diagonal_is_its_slice_of_the_chunk(group):
    grp, alpha, schedule = _CHUNK_GROUPS[group]
    reps = _signed_representations(grp, alpha)
    symbols = [
        reps["per-class"],
        reps["vectorised"],
        diag_signed_symbol(grp, alpha),
        weight_power_symbol(grp, _C, alpha),
        add_symbols(reps["per-class"], weight_power_symbol(grp, 0.5, alpha)),
    ]
    for chunk in grp.dual_chunks(0.0, schedule[-1]):
        offsets = np.concatenate(([0], np.cumsum(chunk.dims.astype(np.int64))))
        for sym in symbols:
            flat = sym.chunk_diagonals(chunk)
            for el, a, b in zip(chunk.elements(), offsets[:-1], offsets[1:]):
                assert sym.diagonal(el).tobytes() == np.asarray(flat[a:b], dtype=np.complex128).tobytes()


def test_wrong_diagonal_length_raises_naming_the_class():
    def short_at_level_3(xi):
        return np.ones(xi.dim - 1 if xi.label == 3 else xi.dim)

    sym = diagonal_symbol(SU2(), short_at_level_3, DecayEnvelope(1.0, -3.0), check=False)
    for mode in ("abs", "signed", "four"):
        with pytest.raises(InvalidArgumentError, match=r"shape \(3,\) at 3 of dimension 4"):
            dualsum.annulus_sums(sym, [8.0], mode)
    with pytest.raises(InvalidArgumentError, match="at 3 of dimension 4"):
        sym.diagonal(enumerate_dual(SU2(), 4.0)[3])
    # a chunk evaluator returning the wrong total length is refused too
    chunky = MatrixSymbol(SU2(), "diagonal", DecayEnvelope(1.0, -3.0), None, diag_fn=lambda chunk: np.ones(3))
    with pytest.raises(InvalidArgumentError, match=r"shape \(3,\) for 36 entries"):
        dualsum.annulus_sums(chunky, [8.0], "signed")


# ---------------------------------------------------------------------------
# non-finite sums fail loudly on every route


def test_overflowing_slope_series_raises():
    with pytest.raises(NumericalFailureError, match="non-finite abs sum"):
        sum_series(weight_power_symbol(SU2(), 1.0, 400.0), geometric_schedule(16, 2, 4))


def test_non_finite_dense_trace_raises():
    sym = dense_symbol(
        SU2(), lambda xi: np.full((xi.dim, xi.dim), np.inf), DecayEnvelope(1.0, -3.0), check=False
    )
    with pytest.raises(NumericalFailureError, match="non-finite signed sum"):
        dualsum.annulus_sums(sym, [4.0], "signed")


def test_non_finite_dense_four_parts_raise(monkeypatch):
    # a non-finite sigma never reaches the eigensolver or the SVD, and its
    # sum fails as a non-finite sum, as in "signed"
    def evaluator(xi):
        mat = np.eye(xi.dim, dtype=complex)
        mat[0, -1] = np.nan
        return mat

    def no_lapack(*args, **kwargs):
        raise AssertionError("a non-finite class reached LAPACK")

    sym = dense_symbol(SU2(), evaluator, DecayEnvelope(1.0, -3.0), check=False)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    for mode in ("abs", "four"):
        with pytest.raises(NumericalFailureError, match=f"non-finite {mode} sum"):
            dualsum.annulus_sums(sym, [4.0], mode)


def test_overflowing_torus3_shell_sum_raises():
    # the first annulus ends at weight 16, but |xi|^2 = 255 = 8*31 + 7 is no
    # sum of three squares, so its last populated shell has weight sqrt(255)
    match = r"non-finite abs sum over the classes of weight 1\.\.15\.9687$"
    with pytest.raises(NumericalFailureError, match=match):
        sum_series(weight_power_symbol(Torus(3), 1.0, 400.0), geometric_schedule(16, 2, 4))


# ---------------------------------------------------------------------------
# block and annulus sums are combined exactly rounded


def test_cumulative_sums_are_exactly_rounded():
    # compensation in order loses the unit term between the cancelling ones
    real = dualsum.cumulative_sums(np.array([[1e100], [1.0], [-1e100]]))
    cplx = dualsum.cumulative_sums(np.array([[1e100 + 1e100j], [1.0 + 2.0j], [-1e100 - 1e100j]]))
    assert real[-1, 0] == 1.0 and cplx[-1, 0] == 1.0 + 2.0j


def _su2_spikes(shell_sums):
    """SU(2) scalar symbol whose shell of weight w sums to shell_sums[w], and the rest to 0."""

    def profile(w):
        out = np.zeros(w.shape)
        for at, total in shell_sums.items():
            out[w == at] = total / at**2  # exact: at is a power of two, and at^2 is the shell's multiplicity
        return out

    return scalar_symbol(SU2(), profile, DecayEnvelope(1.0, -3.0), check=False)


def test_block_sums_are_exactly_rounded():
    # SU(2) shell blocks hold 2^14 levels: blocks 1, 2 and 4 of (0, 2^16]
    # sum to 1e100, 1 and -1e100
    sym = _su2_spikes({2.0**14: 1e100, 2.0**15: 1.0, 2.0**16: -1e100})
    assert dualsum.annulus_sums(sym, [2.0**16], "signed")[0, 0] == 1.0
    # finite block sums and annulus sums whose total overflows
    big = _su2_spikes({2.0**14: 1e308, 2.0**15: 1e308})
    with pytest.raises(NumericalFailureError, match="overflows"):
        dualsum.annulus_sums(big, [2.0**16], "abs")
    with pytest.raises(NumericalFailureError, match="overflows"):
        sum_series(big, [2.0**14, 2.0**15])


def test_radial_sums_never_enumerate_the_dual(monkeypatch):
    def no_enumeration(self, lo, hi):
        raise AssertionError("radial symbol enumerated the dual")

    for group in (Torus(1), Torus(2), Torus(3), SU2()):
        monkeypatch.setattr(type(group), "dual_chunks", no_enumeration)
        sym = weight_power_symbol(group, 1.0, -group.dim)
        for mode in ("abs", "signed", "four"):
            assert np.all(np.isfinite(dualsum.annulus_sums(sym, [4.0, 8.0], mode, _powers(0.5))))
        zeta_trace(sym, 1.6, 0.35)


def test_lower_bound_starts_the_first_annulus():
    sym = weight_power_symbol(Torus(2), 1.0 + 0.5j, -2.0)
    whole = dualsum.annulus_sums(sym, [4.0, 8.0, 16.0], "signed", _powers(0.5))
    tail = dualsum.annulus_sums(sym, [8.0, 16.0], "signed", _powers(0.5), lo=4.0)
    assert np.array_equal(tail, whole[1:])
    with pytest.raises(InvalidArgumentError):
        dualsum.annulus_sums(sym, [4.0], "signed", _powers(0.5), lo=4.0)
    # the zeta trace is the signed mode with factor rows, not a mode of its own
    with pytest.raises(InvalidArgumentError, match="unknown reduction mode"):
        dualsum.annulus_sums(sym, [4.0], "zeta", _powers(0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda sym: partial_sum(sym, math.inf),
        lambda sym: sum_series(sym, [2.0, math.nan]),
        lambda sym: sum_series(sym, [2.0, math.inf]),
        lambda sym: dualsum.annulus_sums(sym, [2.0], "abs", lo=math.nan),
        lambda sym: dualsum.annulus_sums(sym, [2.0], "abs", lo=-math.inf),
        lambda sym: enumerate_dual(sym.group, math.nan),
        lambda sym: enumerate_dual(sym.group, math.inf),
    ],
    ids=["partial_sum-inf", "sum_series-nan", "sum_series-inf", "lo-nan", "lo-neg-inf", "dual-nan", "dual-inf"],
)
@pytest.mark.parametrize("group", [SU2(), Torus(2)], ids=str)
def test_non_finite_cutoff_is_an_invalid_argument(call, group):
    with pytest.raises(InvalidArgumentError):
        call(weight_power_symbol(group, 1.0, -group.dim))


def test_non_finite_zeta_sample_raises():
    nan_diag = diagonal_symbol(
        SU2(), lambda xi: np.full(xi.dim, np.nan + 0j), DecayEnvelope(1.0, -3.0), check=False
    )
    with pytest.raises(NumericalFailureError, match="non-finite signed sum"):
        zeta_trace(nan_diag, 0.8, 0.1)
