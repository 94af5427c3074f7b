"""Dense complex matrix algebra on top of LAPACK.

Hermitian eigenproblems go to ``numpy.linalg.eigh`` / ``eigvalsh`` (LAPACK
``zheevd``).  ``hermitian_eigenvalues`` takes a ``(..., d, d)`` stack and
validates it once -- square, finite, and Hermitian within
HERMITIAN_TOLERANCE * (1 + ||A||_F) per matrix, or only square and finite
for stacks Hermitian by construction -- before one LAPACK call, so several
matrices of one dimension take one call.  A LAPACK convergence
failure surfaces as NumericalFailureError.

On top of the eigensolver sit the decompositions used throughout:
Re(T) = (T + T*)/2, Im(T) = (T - T*)/(2i), and for Hermitian H the spectral
parts H+ = (H + |H|)/2, H- = (|H| - H)/2.  Eigenvalues with modulus at most
1e-12 * ||H||_F count as zero when splitting, so spectral mass at the origin
lands in neither signed part (but also not in |H|, keeping H+ + H- = |H|).
The trace norm Tr|T| of a general square T is the sum of its singular
values, with the same zero threshold.

Threaded BLAS kernels split large matrices differently for different thread
counts, so eigenvalues of classes beyond d ~ 100 would depend on
OPENBLAS_NUM_THREADS.  ``one_blas_thread`` runs a block with the OpenBLAS
bundled in numpy's wheels set to one thread, which makes such results
independent of that setting.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError

HERMITIAN_TOLERANCE = 1e-10
ZERO_EIGENVALUE_FACTOR = 1e-12


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _as_square(t) -> np.ndarray:
    """A finite complex array of shape (..., d, d)."""
    a = np.asarray(t, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InvalidArgumentError("matrix entries must be finite")
    return a


def check_hermitian(h) -> np.ndarray:
    """Validate Hermitian-ness up to rounding, per matrix of a (..., d, d) stack.

    Returns the symmetrized input.
    """
    a = _as_square(h)
    adj = _adjoint(a)
    defect = np.linalg.norm(a - adj, axis=(-2, -1))
    bound = HERMITIAN_TOLERANCE * (1.0 + np.linalg.norm(a, axis=(-2, -1)))
    if np.any(defect > bound):
        raise InvalidArgumentError(
            f"matrix is not Hermitian: defect {float(np.max(defect)):.3e} exceeds tolerance"
        )
    return 0.5 * (a + adj)


def _lapack(fn, a: np.ndarray, **kwargs):
    try:
        return fn(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"LAPACK {fn.__name__} failed: {exc}") from exc


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The BLAS thread count is process-wide, so the pin count is too.
_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    Nested and concurrent blocks share the setting; the previous thread
    count comes back when the last one exits.  Without a bundled OpenBLAS
    (another BLAS build) the block runs unchanged.
    """
    global _pin_depth, _pin_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


@dataclass(frozen=True, eq=False)
class HermEig:
    """Eigenvalues (ascending) and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h) -> HermEig:
    """Full spectral decomposition of a Hermitian matrix.

    Raises InvalidArgumentError for non-Hermitian input and
    NumericalFailureError if LAPACK does not converge.
    """
    vals, vecs = _lapack(np.linalg.eigh, check_hermitian(h))
    return HermEig(vals, vecs)


def hermitian_eigenvalues(h, assume_hermitian: bool = False) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a (..., d, d) Hermitian stack.

    ``assume_hermitian`` is for stacks that are Hermitian in floating point
    by construction, such as (T + T*)/2 and (T - T*)/(2i): only finiteness
    is checked.
    """
    a = _as_square(h) if assume_hermitian else check_hermitian(h)
    return _lapack(np.linalg.eigvalsh, a)


def trace_norm(t) -> np.ndarray:
    """Tr|T| of each matrix of a (..., d, d) stack: the sum of its singular values.

    Singular values at most ZERO_EIGENVALUE_FACTOR * ||T||_F count as zero,
    as in ``split_eigenvalues``; for Hermitian T this is the sum of |eigenvalues|.
    """
    sv = _lapack(np.linalg.svd, _as_square(t), compute_uv=False)
    # ||T||_F is the 2-norm of the singular values.
    kept, _ = split_eigenvalues(sv, np.linalg.norm(sv, axis=-1, keepdims=True))
    return np.sum(kept, axis=-1)


def real_part(t) -> np.ndarray:
    """(T + T*)/2; Hermitian for any square T (or stack of them)."""
    a = _as_square(t)
    return 0.5 * (a + _adjoint(a))


def imag_part(t) -> np.ndarray:
    """(T - T*)/(2i); Hermitian, and T = real_part(T) + 1j*imag_part(T)."""
    a = _as_square(t)
    return -0.5j * (a - _adjoint(a))


def split_eigenvalues(vals: np.ndarray, scale):
    """Split a spectrum into positive and negated-negative parts.

    Entries within ZERO_EIGENVALUE_FACTOR * scale of the origin are dropped
    from both parts; ``scale`` broadcasts against ``vals``.
    """
    thr = ZERO_EIGENVALUE_FACTOR * np.asarray(scale)
    pos = np.where(vals > thr, vals, 0.0)
    neg = np.where(vals < -thr, -vals, 0.0)
    return pos, neg


def _parts(h):
    a = check_hermitian(h)
    eig = hermitian_eig(a)
    pos, neg = split_eigenvalues(eig.eigenvalues, frobenius(a))
    return eig, pos, neg


def pos_part(h) -> np.ndarray:
    """H+ = (H + |H|)/2, positive semidefinite."""
    eig, pos, _ = _parts(h)
    return (eig.vectors * pos) @ eig.vectors.conj().T


def neg_part(h) -> np.ndarray:
    """H- = (|H| - H)/2, positive semidefinite, with H = H+ - H-."""
    eig, _, neg = _parts(h)
    return (eig.vectors * neg) @ eig.vectors.conj().T


def abs_part(h) -> np.ndarray:
    """Spectral absolute value |H| = H+ + H-."""
    eig, pos, neg = _parts(h)
    return (eig.vectors * (pos + neg)) @ eig.vectors.conj().T
