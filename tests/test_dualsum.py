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
    Torus,
    dense_symbol,
    diagonal_symbol,
    geometric_schedule,
    scalar_symbol,
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
        dualsum.annulus_sums(sym, schedule, mode, s=s)
        for sym in _representations(grp, coeff, alpha)
    )
    atol = 1e-9 * np.max(np.abs(ref))
    for got in others:
        assert np.allclose(got, ref, rtol=1e-9, atol=atol)


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


def test_overflowing_torus3_shell_sum_raises():
    # the first annulus ends at weight 16, but |xi|^2 = 255 = 8*31 + 7 is no
    # sum of three squares, so its last populated shell has weight sqrt(255)
    match = r"non-finite abs sum over the classes of weight 1\.\.15\.9687$"
    with pytest.raises(NumericalFailureError, match=match):
        sum_series(weight_power_symbol(Torus(3), 1.0, 400.0), geometric_schedule(16, 2, 4))


def test_radial_sums_never_enumerate_the_dual(monkeypatch):
    def no_enumeration(self, lo, hi):
        raise AssertionError("radial symbol enumerated the dual")

    for group in (Torus(1), Torus(2), Torus(3), SU2()):
        monkeypatch.setattr(type(group), "dual_chunks", no_enumeration)
        sym = weight_power_symbol(group, 1.0, -group.dim)
        for mode in ("abs", "signed", "four"):
            assert np.all(np.isfinite(dualsum.annulus_sums(sym, [4.0, 8.0], mode, s=0.5)))
        zeta_trace(sym, 1.6, 0.35)


def test_lower_bound_starts_the_first_annulus():
    sym = weight_power_symbol(Torus(2), 1.0 + 0.5j, -2.0)
    whole = dualsum.annulus_sums(sym, [4.0, 8.0, 16.0], "signed", s=0.5)
    tail = dualsum.annulus_sums(sym, [8.0, 16.0], "signed", s=0.5, lo=4.0)
    assert np.array_equal(tail, whole[1:])
    with pytest.raises(InvalidArgumentError):
        dualsum.annulus_sums(sym, [4.0], "signed", s=0.5, lo=4.0)
    # the zeta trace is the signed mode with s > 0, not a mode of its own
    with pytest.raises(InvalidArgumentError, match="unknown reduction mode"):
        dualsum.annulus_sums(sym, [4.0], "zeta", s=0.5)


def test_non_finite_zeta_sample_raises():
    nan_diag = diagonal_symbol(
        SU2(), lambda xi: np.full(xi.dim, np.nan + 0j), DecayEnvelope(1.0, -3.0), check=False
    )
    with pytest.raises(NumericalFailureError, match="non-finite signed sum"):
        zeta_trace(nan_diag, 0.8, 0.1)
