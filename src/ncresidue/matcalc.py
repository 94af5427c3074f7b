"""Dense complex matrix algebra on top of LAPACK.

Hermitian eigenproblems go to ``numpy.linalg.eigh`` / ``eigvalsh`` (LAPACK
``zheevd``), one call per ``(..., d, d)`` stack, so several matrices of one
dimension take one call.  ``hermitian_eigenvalues`` checks only that the
stack is square and finite, as the pipeline builds it Hermitian;
``hermitian_eig`` also refuses a defect above HERMITIAN_TOLERANCE *
(1 + ||A||_F) per matrix (``check_hermitian``).  A LAPACK convergence
failure surfaces as NumericalFailureError.

The pipeline needs two spectra per dense class: the singular values of T
(``singular_values``) and the eigenvalues of Re(T) = (T + T*)/2 and
Im(T) = (T - T*)/(2i) (``part_eigenvalues``).  One zero rule,
``drop_small``, counts eigenvalues and singular values with modulus at
most 1e-12 times the 2-norm of their row (the Frobenius norm of the matrix
they come from) as zero, so spectral mass at the origin lands in neither
signed part.  ``real_part``, ``imag_part`` and ``hermitian_eig`` are not on
that path; they stay while the benchmark tracer wraps them by name.

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


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of each matrix of a (..., d, d) Hermitian stack.

    For stacks that are Hermitian in floating point by construction, such as
    (T + T*)/2 and (T - T*)/(2i): only the shape and finiteness are checked.
    """
    return _lapack(np.linalg.eigvalsh, _as_square(h))


def drop_small(vals: np.ndarray) -> np.ndarray:
    """``vals`` with entries within ZERO_EIGENVALUE_FACTOR * ||row||_2 of zero set to zero.

    Per row of the last axis.  For the singular values of T, or the
    eigenvalues of a Hermitian T, the row's 2-norm is ||T||_F.
    """
    thr = ZERO_EIGENVALUE_FACTOR * np.linalg.norm(vals, axis=-1, keepdims=True)
    return np.where(np.abs(vals) > thr, vals, 0.0)


def singular_values(t) -> np.ndarray:
    """Singular values of each matrix of a (..., d, d) stack, small ones zeroed (``drop_small``).

    For d = 1 that is |t| as ``np.abs`` rounds it (LAPACK's may differ in
    the last bit), so a one-dimensional class matches its diagonal exactly.
    """
    a = _as_square(t)
    return drop_small(np.abs(a[..., 0]) if a.shape[-1] == 1 else _lapack(np.linalg.svd, a, compute_uv=False))


def part_eigenvalues(t) -> np.ndarray:
    """Eigenvalues of Re T and Im T as the rows of a (2, d) array, small ones zeroed.

    One LAPACK call on the stacked pair, which is Hermitian by construction;
    it also refuses a non-finite T.
    """
    a = np.asarray(t, dtype=np.complex128)
    adj = _adjoint(a)
    parts = np.stack((0.5 * (a + adj), -0.5j * (a - adj)))
    return drop_small(hermitian_eigenvalues(parts))


def real_part(t) -> np.ndarray:
    """(T + T*)/2; Hermitian for any square T (or stack of them)."""
    a = _as_square(t)
    return 0.5 * (a + _adjoint(a))


def imag_part(t) -> np.ndarray:
    """(T - T*)/(2i); Hermitian, and T = real_part(T) + 1j*imag_part(T)."""
    a = _as_square(t)
    return -0.5j * (a - _adjoint(a))
