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

Every block reduces through one kernel, ``_reduce(rows, mult, factor)``:
the sums of mult * rows * factor along each row, where the rows are
f(values) for the mode (``_channels``):

* ``abs``     sum of d * Tr|sigma|            (one real channel)
* ``signed``  sum of d * Tr sigma             (one complex channel)
* ``four``    d * (Tr R+, Tr R-, Tr I+, Tr I-) with R = Re sigma, I = Im sigma

``factor`` holds the caller's factor rows: ``annulus_sums`` takes a
callable mapping a block's weights to k non-negative rows, one per weighting
(the zeta trace passes w**(-s), and psi(w/N) * w**(-s) for its smoothed
sums), and every channel is then summed once per row, along its own
contiguous row, so a row's sum does not depend on the rows beside it.
Without factors each term carries the factor 1 and no multiply is made.
The producers of (values, mult, factor) are:

* a shell block of a scalar symbol: the radial profile evaluated once per
  distinct weight, with the shell's exact multiplicity ``sum d^2``
  (``GroupModel.radial_shells``), so the dual is never enumerated for it;
* a chunk of a diagonal symbol: the chunk evaluator returns the classes'
  diagonals as one flat vector, its channel rows (|v|, v, or the sign
  splits of Re v and Im v; no eigensolver) are summed per class by
  ``np.add.reduceat`` at the class offsets, and the per-class sums go
  through the kernel with multiplicity d and the class's factors, so the
  factors are formed once per class, never per entry;
* a dense class, with multiplicity d and its column of the chunk's
  factors: Tr sigma (``signed``), the trace norm of sigma (``abs``), or the
  spectra of Re sigma and Im sigma, one LAPACK call per class on the pair,
  as the two rows of a (2, d) array (``four``).

A chunk holds at most ``groups._CHUNK_ENTRIES`` diagonal entries (or one
class), so no evaluation holds more.  Dense classes are reduced one at a
time and a chunk sums their rows.  A block whose channel sum is not finite
raises NumericalFailureError.
"""

from __future__ import annotations

import numpy as np

from . import matcalc
from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import MatrixSymbol

_MODE_CHANNELS = {"abs": 1, "signed": 1, "four": 4}
_MODE_DTYPE = {"abs": np.float64, "signed": np.complex128, "four": np.float64}


def _channels(values, mode: str) -> np.ndarray:
    """The rows f(values) that ``mode`` sums, shape (channels, n).

    ``four`` takes complex values or their (real, imaginary) rows as (2, n)
    and returns the rows (R+, R-, I+, I-).
    """
    if mode == "abs":
        return np.abs(values)[None]
    if mode == "signed":
        return values[None]
    if values.ndim == 1:  # the (Re, Im) rows as a strided view, not a copy
        values = np.ascontiguousarray(values).view(np.float64).reshape(-1, 2).T
    # written into one array: fresh block-sized temporaries cost page faults,
    # and a dense class pays per numpy call
    out = np.empty((2, 2, values.shape[-1]))
    np.maximum(values, 0.0, out=out[:, 0])
    np.negative(np.minimum(values, 0.0, out=out[:, 1]), out=out[:, 1])
    return out.reshape(4, -1)  # (Re, Im) x (+, -) -> (R+, R-, I+, I-)


def _reduce(rows: np.ndarray, mult, factor) -> np.ndarray:
    """Channel sums of mult * rows * factor along the last axis, one row per factor row.

    ``factor`` is (k, n), or None for one row of ones.  Real rows (``abs``,
    ``four``) are made for this sum and are scaled by mult in place, with no
    second block-sized temporary; complex (``signed``) rows may be the
    caller's values and are not.
    """
    t = mult * rows if rows.dtype.kind == "c" else np.multiply(rows, mult, out=rows)
    return t.sum(-1)[None] if factor is None else (t * factor[:, None]).sum(-1)


def _dense_values(mat: np.ndarray, mode: str) -> np.ndarray:
    """The spectral data of one dense class that ``mode`` reduces."""
    if mode == "signed":
        return np.array([np.trace(mat)])
    if mode == "abs":
        return np.array([matcalc.trace_norm(mat)])
    # Re sigma and Im sigma in one eigensolve, which also checks that sigma
    # is finite; both are Hermitian in floating point by construction.  As
    # in matcalc.split_eigenvalues, eigenvalues within
    # ZERO_EIGENVALUE_FACTOR * ||H||_F of zero count as zero; for Hermitian
    # H, ||H||_F is the 2-norm of its spectrum.
    adj = mat.conj().T
    eig = matcalc.hermitian_eigenvalues(
        np.stack((0.5 * (mat + adj), -0.5j * (mat - adj))), assume_hermitian=True
    )
    thr = matcalc.ZERO_EIGENVALUE_FACTOR * np.linalg.norm(eig, axis=-1, keepdims=True)
    return np.where(np.abs(eig) > thr, eig, 0.0)


def _diagonal_terms(sym: MatrixSymbol, chunk, mode: str, factor) -> np.ndarray:
    """Channel sums of one chunk of a diagonal symbol, one row per factor row.

    The chunk's diagonals come as one flat vector; their channel rows are
    summed per class (``np.add.reduceat`` at the class offsets) and the
    class sums go through the kernel with multiplicity d and the class's
    factors, which are formed once per class.
    """
    values = sym.chunk_diagonals(chunk)
    dims = chunk.dims.astype(np.int64)
    starts = np.cumsum(dims) - dims
    if mode != "four":
        per_class = np.add.reduceat(_channels(values, mode), starts, axis=-1)
    else:
        # one channel at a time through one buffer: fresh chunk-sized
        # temporaries cost more in page faults than the sums themselves
        buf = np.empty(values.shape[0])
        per_class = np.array([
            np.add.reduceat(split(part, 0.0, out=buf), starts)
            for part in (values.real, values.imag)
            for split in (np.maximum, np.minimum)
        ])
        per_class[1::2] *= -1.0  # (R+, -R-, I+, -I-) -> (R+, R-, I+, I-)
    return _reduce(per_class, chunk.dims, factor)


def _block_terms(sym: MatrixSymbol, block, mode: str, factors) -> np.ndarray:
    """Channel sums of one block, shape (factor rows, channels).

    A block is a (weights, mult) shell block or a dual chunk.
    """
    weights = block[0] if sym.radial_fn is not None else block.weights
    factor = None if factors is None else np.asarray(factors(weights), dtype=np.float64)
    if sym.radial_fn is not None:
        # exact: multiplicities stay below 2**53
        part = _reduce(_channels(sym.radial_profile(weights), mode), block[1].astype(np.float64), factor)
    elif sym.diag_fn is not None:
        part = _diagonal_terms(sym, block, mode, factor)
    else:
        k = 1 if factor is None else len(factor)
        rows = np.zeros((len(block), k, _MODE_CHANNELS[mode]), dtype=_MODE_DTYPE[mode])
        with matcalc.one_blas_thread():
            for i, el in enumerate(block.elements()):
                values = _dense_values(sym.evaluate(el), mode)
                column = None if factor is None else factor[:, i : i + 1]
                rows[i] = _reduce(_channels(values, mode), float(el.dim), column)
        # four adds the class rows in order; the other modes sum each channel
        # pairwise along a contiguous row, as one channel always was
        part = rows.sum(axis=0) if mode == "four" else np.ascontiguousarray(np.moveaxis(rows, 0, -1)).sum(-1)
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
    sym: MatrixSymbol, schedule, mode: str, factors=None, lo: float = 0.0
) -> np.ndarray:
    """Channel sums per annulus of the cutoff schedule, shape (J, channels).

    Annulus j covers weights in (schedule[j-1], schedule[j]] (starting from
    ``lo``), so every dual class is evaluated exactly once.  ``factors``, if
    given, maps a block's weights (a 1-D array) to k rows of non-negative
    per-weight factors, each formed as if it were alone; every term then
    carries each row's factor, and the channels are the mode's channels for
    factor row 0, then row 1, and so on (k times as many).  Cumulative sums
    of the rows give the partial-sum series of the schedule.
    """
    if mode not in _MODE_CHANNELS:
        raise InvalidArgumentError(f"unknown reduction mode {mode!r}")
    schedule = [float(x) for x in schedule]
    if not schedule:
        raise InvalidArgumentError("schedule must be non-empty")
    lo = float(lo)
    if schedule[0] < 1.0 or any(b <= a for a, b in zip([lo] + schedule, schedule)):
        raise InvalidArgumentError("schedule must be strictly increasing, >= 1 and above lo")
    # the number of factor rows, from one probe weight
    k = 1 if factors is None else len(factors(np.ones(1)))
    dtype = _MODE_DTYPE[mode]
    out = np.zeros((len(schedule), k * _MODE_CHANNELS[mode]), dtype=dtype)
    blocks_of = sym.group.radial_shells if sym.radial_fn is not None else sym.group.dual_chunks
    for j, hi in enumerate(schedule):
        acc = _Kahan(out.shape[1], dtype)
        for block in blocks_of(lo, hi):
            acc.add(_block_terms(sym, block, mode, factors).ravel())
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
