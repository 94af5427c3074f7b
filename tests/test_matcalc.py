import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_complex_matrix, random_hermitian, random_unitary
from ncresidue import matcalc
from ncresidue.errors import InvalidArgumentError, NumericalFailureError


# ---------------------------------------------------------------------------
# eigensolver examples and oracles


def test_already_diagonal():
    eig = matcalc.hermitian_eig(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(eig.eigenvalues, [-1.0, 3.0])
    assert np.allclose(np.abs(eig.vectors), [[0, 1], [1, 0]])


def test_swap_matrix():
    eig = matcalc.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)


def _charpoly_roots_by_bisection(h, tol=1e-11):
    """Roots of det(H - t I) located by sign changes and bisection.

    Independent of the LAPACK eigensolver: uses LU determinants only.
    """
    d = h.shape[0]
    radii = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    lo = float(np.min(np.diag(h).real - radii)) - 1.0
    hi = float(np.max(np.diag(h).real + radii)) + 1.0

    def p(t):
        return float(np.linalg.det(h - t * np.eye(d)).real)

    grid = np.linspace(lo, hi, 4001)
    vals = [p(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            x, y, fx = a, b, fa
            while y - x > tol:
                mid = 0.5 * (x + y)
                fm = p(mid)
                if fm == 0.0:
                    x = y = mid
                elif fx * fm < 0.0:
                    y = mid
                else:
                    x, fx = mid, fm
            roots.append(0.5 * (x + y))
    return sorted(roots)


def test_random_4x4_against_bisection_oracle():
    rng = np.random.default_rng(2024)
    h = random_hermitian(rng, 4)
    roots = _charpoly_roots_by_bisection(h)
    assert len(roots) == 4
    eig = matcalc.hermitian_eig(h)
    assert np.allclose(eig.eigenvalues, roots, atol=1e-9)


def _hermitian_3x3_closed_form(a):
    # trigonometric solution of the characteristic cubic
    q = np.trace(a).real / 3.0
    b = a - q * np.eye(3)
    p = math.sqrt(max(np.sum(np.abs(b) ** 2).real / 6.0, 0.0))
    if p == 0.0:
        return np.array([q, q, q])
    c = b / p
    det = np.linalg.det(c).real
    phi = math.acos(min(1.0, max(-1.0, det / 2.0))) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort([e1, e2, e3])


@given(seed=st.integers(0, 2**32 - 1))
def test_3x3_against_closed_form(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    eig = matcalc.hermitian_eig(h)
    assert np.allclose(eig.eigenvalues, _hermitian_3x3_closed_form(h), atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12))
def test_decomposition_quality(seed, d):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    eig = matcalc.hermitian_eig(h)
    scale = np.linalg.norm(h)
    assert np.all(np.diff(eig.eigenvalues) >= 0.0)
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
    rec = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
    assert np.linalg.norm(rec - h) <= 1e-10 * (1.0 + scale)


def test_non_hermitian_rejected():
    with pytest.raises(InvalidArgumentError):
        matcalc.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_square_rejected():
    with pytest.raises(InvalidArgumentError):
        matcalc.hermitian_eig(np.zeros((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(InvalidArgumentError):
        matcalc.real_part(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_stack_matches_single_matrix_calls():
    rng = np.random.default_rng(17)
    stack = np.stack([random_hermitian(rng, 5) for _ in range(6)])
    vals = matcalc.hermitian_eigenvalues(stack)
    assert vals.shape == (6, 5)
    for h, v in zip(stack, vals):
        assert np.array_equal(v, matcalc.hermitian_eigenvalues(h))


def test_stack_hermitian_tolerance_is_per_matrix():
    # the defect of the small matrix is far below the large one's tolerance
    big = 1e9 * np.eye(2, dtype=complex)
    small = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidArgumentError, match="not Hermitian"):
        matcalc.check_hermitian(np.stack([big, small]))


def test_assumed_hermitian_stack_skips_only_the_hermitian_check():
    rng = np.random.default_rng(23)
    t = random_complex_matrix(rng, 6)
    adj = t.conj().T
    parts = np.stack((0.5 * (t + adj), -0.5j * (t - adj)))
    # the parts are Hermitian in floating point, so the check changes no bit
    assert np.array_equal(
        matcalc.hermitian_eigenvalues(parts),
        matcalc.hermitian_eigenvalues(matcalc.check_hermitian(parts)),
    )
    matcalc.hermitian_eigenvalues(np.stack([t, t]))  # not checked
    with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
        matcalc.hermitian_eigenvalues(np.full((2, 3, 3), np.nan))
    with pytest.raises(InvalidArgumentError, match="expected a square matrix"):
        matcalc.hermitian_eigenvalues(np.zeros((2, 3)))


def trace_norm(t):
    """Tr|T|, the sum of the singular values."""
    return matcalc.singular_values(t).sum(-1)


@pytest.mark.parametrize(
    "name, call",
    [
        ("eigvalsh", matcalc.hermitian_eigenvalues),
        ("eigh", matcalc.hermitian_eig),
        ("svd", trace_norm),
    ],
)
def test_lapack_failure_is_numerical_failure(monkeypatch, name, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(NumericalFailureError, match="no convergence"):
        call(np.eye(3, dtype=complex))


@pytest.mark.skipif(matcalc._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
def test_one_blas_thread_pins_nests_and_restores():
    get, set_ = matcalc._openblas_threads()
    before = get()
    set_(2)
    try:
        start = get()  # 1 on a one-core machine
        with matcalc.one_blas_thread():
            with matcalc.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == start
        with pytest.raises(ZeroDivisionError):
            with matcalc.one_blas_thread():
                1 / 0
        assert get() == start
    finally:
        set_(before)


@pytest.mark.skipif(matcalc._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
def test_one_blas_thread_concurrent_blocks_restore_once():
    get, set_ = matcalc._openblas_threads()
    before = get()
    interval = sys.getswitchinterval()
    set_(2)
    sys.setswitchinterval(1e-6)
    try:
        start = get()

        def enter_many():
            inside = set()
            for _ in range(5000):
                with matcalc.one_blas_thread():
                    inside.add(get())
            return inside

        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(enter_many) for _ in range(16)]
            seen = set().union(*(f.result(timeout=60) for f in futures))
        assert seen == {1}
        assert get() == start
        assert matcalc._pin_depth == 0
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def test_trace_norm_examples():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    stack = np.stack([nilpotent, 1j * np.eye(2), np.diag([2.0, -3.0]).astype(complex)])
    assert np.allclose(trace_norm(stack), [1.0, 2.0, 5.0], rtol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12))
def test_trace_norm_of_hermitian_is_abs_eigenvalue_sum(seed, d):
    h = random_hermitian(np.random.default_rng(seed), d)
    expect = np.sum(np.abs(matcalc.hermitian_eigenvalues(h)))
    assert abs(trace_norm(h) - expect) <= 1e-12 * (1.0 + expect)


def test_one_by_one_singular_value_is_np_abs_exactly():
    vals = np.random.default_rng(4).standard_normal((500, 2)) @ np.array([1.0, 1j])
    assert matcalc.singular_values(vals[:, None, None]).tobytes() == np.abs(vals)[:, None].tobytes()
    assert matcalc.singular_values(np.zeros((1, 1))).tolist() == [0.0]


def test_part_eigenvalues_are_the_spectra_of_re_and_im():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    t[:, 0] = 0.0  # one zero eigenvalue of each part, up to rounding, is zeroed
    t[0, :] = 0.0
    got = matcalc.part_eigenvalues(t)
    for row, part in zip(got, (matcalc.real_part(t), matcalc.imag_part(t))):
        ref = np.linalg.eigvalsh(part)
        assert np.allclose(row, ref, rtol=0.0, atol=1e-12 * np.linalg.norm(ref))
    assert np.count_nonzero(got == 0.0) == 2


def test_unitary_invariance_of_spectrum():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 5)
    v = random_unitary(rng, 5)
    a = matcalc.hermitian_eig(h).eigenvalues
    b = matcalc.hermitian_eig(v @ h @ v.conj().T).eigenvalues
    assert np.allclose(a, b, atol=1e-9)


# ---------------------------------------------------------------------------
# real/imaginary parts


def test_real_imag_of_i_times_identity():
    t = 1j * np.eye(2)
    assert np.allclose(matcalc.real_part(t), 0.0)
    assert np.allclose(matcalc.imag_part(t), np.eye(2))


def test_hermitian_has_zero_imag_part():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 3)
    assert np.allclose(matcalc.real_part(h), h)
    assert np.max(np.abs(matcalc.imag_part(h))) <= 1e-15 * np.linalg.norm(h)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_reconstruction_within_two_ulp(seed, d):
    rng = np.random.default_rng(seed)
    t = random_complex_matrix(rng, d)
    rec = matcalc.real_part(t) + 1j * matcalc.imag_part(t)
    err = np.abs(rec - t)
    # rounding happens at the scale of each Hermitian pair
    pair_scale = np.maximum(np.abs(t), np.abs(t).T)
    assert np.all(err <= 2.0 * np.spacing(pair_scale))


def test_parts_are_hermitian():
    rng = np.random.default_rng(5)
    t = random_complex_matrix(rng, 4)
    for part in (matcalc.real_part(t), matcalc.imag_part(t)):
        assert np.linalg.norm(part - part.conj().T) <= 1e-14


# ---------------------------------------------------------------------------
# positive/negative parts, as the pipeline splits them: the eigenvalues of
# Re H from ``part_eigenvalues``, clipped at zero from above and from below


def _split(h):
    vals = matcalc.part_eigenvalues(h)[0]
    return np.maximum(vals, 0.0), np.maximum(-vals, 0.0)


def test_diagonal_split_example():
    h = np.diag([1.0, -2.0]).astype(complex)
    pos, neg = _split(h)
    assert np.allclose(pos, [0.0, 1.0])
    assert np.allclose(neg, [2.0, 0.0])
    assert np.allclose(np.sort(pos + neg), np.sort(matcalc.singular_values(h)))


def test_psd_input_is_its_own_pos_part():
    rng = np.random.default_rng(8)
    b = random_complex_matrix(rng, 3)
    h = b @ b.conj().T
    pos, neg = _split(h)
    assert abs(pos.sum() - np.trace(h).real) <= 1e-10 * np.linalg.norm(h)
    assert np.all(neg == 0.0)


@given(seed=st.integers(0, 2**32 - 1))
def test_part_identities_random_3x3(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    pos, neg = _split(h)
    scale = np.linalg.norm(h)
    # Tr H = Tr H+ - Tr H-, and the spectrum of |H| = H+ + H- is the singular values
    assert abs(np.trace(h).real - (pos.sum() - neg.sum())) <= 1e-10
    assert np.max(np.abs(np.sort(pos + neg) - np.sort(matcalc.singular_values(h)))) <= 1e-10 * (1.0 + scale)
    # consistency against the closed-form spectrum
    vals = _hermitian_3x3_closed_form(h)
    assert abs((pos + neg).sum() - np.sum(np.abs(vals))) <= 1e-9


def test_zero_eigenvalue_mass_assigned_to_neither_part():
    pos, neg = _split(np.diag([1.0, 0.0, -1.0]).astype(complex))
    assert np.allclose(pos, [0.0, 0.0, 1.0])
    assert np.allclose(neg, [1.0, 0.0, 0.0])
    # a zero eigenvalue that rounding moves off zero still lands in neither part
    v = random_unitary(np.random.default_rng(12), 3)
    pos, neg = _split(v @ np.diag([1.0, 0.0, -1.0]).astype(complex) @ v.conj().T)
    assert pos[1] == 0.0 and neg[1] == 0.0
