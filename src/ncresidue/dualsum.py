"""Deterministic reductions of symbol traces over the unitary dual.

The reductions here back every partial sum in the package.  A cutoff
schedule splits the dual into annuli; each annulus is covered by blocks:
canonically ordered chunks of dual classes, or, for scalar symbols, radial
shells in increasing weight order.  Blocks are summed on the calling
thread: block contributions are pairwise-summed by numpy and then combined
with Kahan compensation in block order, and block boundaries are fixed by
the cutoffs alone, so results are bit-reproducible.  Dense classes are
evaluated and solved with numpy's bundled OpenBLAS on one thread
(``matcalc.one_blas_thread``), so they are also independent of
OPENBLAS_NUM_THREADS; with another BLAS build large dense classes may
depend on its thread count.

Every block reduces through one kernel, ``_reduce(values, mult, weights,
mode, s)``: the sum of mult * f(values) * weights**(-s), where f is set by
the mode and the factor weights**(-s) is skipped when s == 0:

* ``abs``     sum of d * Tr|sigma|            (one real channel)
* ``signed``  sum of d * Tr sigma             (one complex channel)
* ``four``    d * (Tr R+, Tr R-, Tr I+, Tr I-) with R = Re sigma, I = Im sigma

The zeta trace sum of d * Tr sigma * weight**(-s) is ``signed`` with s > 0.
The producers of (values, mult, weights) are:

* a shell block of a scalar symbol: the radial profile evaluated once per
  distinct weight, with the shell's exact multiplicity ``sum d^2``
  (``GroupModel.radial_shells``), so the dual is never enumerated for it;
* a diagonal class: its diagonal vector with multiplicity d (entrywise
  absolute values and sign splits, no eigensolver);
* a dense class, with multiplicity d: Tr sigma (``signed``), the trace norm
  of sigma (``abs``), or the spectra of Re sigma and Im sigma, one LAPACK
  call per class on the pair, as the two rows of a (2, d) array (``four``).

Classes are reduced one at a time and a chunk sums their rows.  A block
whose channel sum is not finite raises NumericalFailureError.
"""

from __future__ import annotations

import numpy as np

from . import matcalc
from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import MatrixSymbol

_MODE_CHANNELS = {"abs": 1, "signed": 1, "four": 4}
_MODE_DTYPE = {"abs": np.float64, "signed": np.complex128, "four": np.float64}


def _reduce(values, mult, weights, mode: str, s: float) -> np.ndarray:
    """Channel vector of sum mult * f(values) * weights**(-s) over one block.

    ``four`` takes complex values or their (real, imaginary) rows as (2, n).
    """
    if mode == "abs":
        values = np.abs(values)
    elif mode == "four" and values.ndim == 1:
        values = np.stack((values.real, values.imag))
    t = mult * values
    if s != 0.0:
        t *= weights ** (-s)  # in place: no second block-sized temporary
    if mode != "four":
        return np.array([t.sum()])
    # rows (Re, Im) x columns (+, -) -> (R+, R-, I+, I-)
    return np.array((np.maximum(t, 0.0).sum(-1), -np.minimum(t, 0.0).sum(-1))).T.ravel()


def _dense_values(mat: np.ndarray, mode: str) -> np.ndarray:
    """The spectral data of one dense class that ``mode`` reduces."""
    if mode == "signed":
        return np.array([np.trace(mat)])
    if mode == "abs":
        return np.array([matcalc.trace_norm(mat)])
    # Re sigma and Im sigma in one eigensolve, which also checks that sigma
    # is finite.  As in matcalc.split_eigenvalues, eigenvalues within
    # ZERO_EIGENVALUE_FACTOR * ||H||_F of zero count as zero; for Hermitian
    # H, ||H||_F is the 2-norm of its spectrum.
    adj = mat.conj().T
    eig = matcalc.hermitian_eigenvalues(np.stack((0.5 * (mat + adj), -0.5j * (mat - adj))))
    thr = matcalc.ZERO_EIGENVALUE_FACTOR * np.linalg.norm(eig, axis=-1, keepdims=True)
    return np.where(np.abs(eig) > thr, eig, 0.0)


def _block_terms(sym: MatrixSymbol, block, mode: str, s: float) -> np.ndarray:
    """Channel sum of one block: a (weights, mult) shell block or a dual chunk."""
    if sym.radial_fn is not None:
        weights, mult = block
        # exact: multiplicities stay below 2**53
        part = _reduce(sym.radial_profile(weights), mult.astype(np.float64), weights, mode, s)
    else:
        weights = block.weights
        rows = np.zeros((len(block), _MODE_CHANNELS[mode]), dtype=_MODE_DTYPE[mode])
        if sym.diag_fn is not None:
            for i, el in enumerate(block.elements()):
                rows[i] = _reduce(sym.diagonal(el), float(el.dim), el.weight, mode, s)
        else:
            with matcalc.one_blas_thread():
                for i, el in enumerate(block.elements()):
                    values = _dense_values(sym.evaluate(el), mode)
                    rows[i] = _reduce(values, float(el.dim), el.weight, mode, s)
        part = rows.sum(axis=0)
    if not np.all(np.isfinite(part)):
        raise NumericalFailureError(
            f"non-finite {mode} sum over the classes of weight {weights[0]:g}..{weights[-1]:g}"
        )
    return part


class _Kahan:
    """Compensated accumulator for a fixed-length channel vector."""

    def __init__(self, nch: int, dtype):
        self.total = np.zeros(nch, dtype=dtype)
        self.comp = np.zeros(nch, dtype=dtype)

    def add(self, part: np.ndarray) -> None:
        y = part - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t

    def value(self) -> np.ndarray:
        return self.total.copy()


def annulus_sums(
    sym: MatrixSymbol, schedule, mode: str, s: float = 0.0, lo: float = 0.0
) -> np.ndarray:
    """Channel sums per annulus of the cutoff schedule, shape (J, channels).

    Annulus j covers weights in (schedule[j-1], schedule[j]] (starting from
    ``lo``), so every dual class is evaluated exactly once.  Each term
    carries the factor weight**(-s).  Cumulative sums of the rows give the
    partial-sum series of the schedule.
    """
    if mode not in _MODE_CHANNELS:
        raise InvalidArgumentError(f"unknown reduction mode {mode!r}")
    schedule = [float(x) for x in schedule]
    if not schedule:
        raise InvalidArgumentError("schedule must be non-empty")
    lo = float(lo)
    if schedule[0] < 1.0 or any(b <= a for a, b in zip([lo] + schedule, schedule)):
        raise InvalidArgumentError("schedule must be strictly increasing, >= 1 and above lo")
    nch = _MODE_CHANNELS[mode]
    dtype = _MODE_DTYPE[mode]
    out = np.zeros((len(schedule), nch), dtype=dtype)
    blocks_of = sym.group.radial_shells if sym.radial_fn is not None else sym.group.dual_chunks
    for j, hi in enumerate(schedule):
        acc = _Kahan(nch, dtype)
        for block in blocks_of(lo, hi):
            acc.add(_block_terms(sym, block, mode, s))
        out[j] = acc.value()
        lo = hi
    return out


def cumulative_sums(annuli: np.ndarray) -> np.ndarray:
    """Kahan-compensated cumulative sums down the annulus axis."""
    out = np.empty_like(annuli)
    acc = _Kahan(annuli.shape[1], annuli.dtype)
    for j in range(annuli.shape[0]):
        acc.add(annuli[j])
        out[j] = acc.value()
    return out
