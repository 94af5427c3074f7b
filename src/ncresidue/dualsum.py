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

Every block reduces through one kernel, ``_reduce(rows, mult, weights, s)``:
the sum of mult * rows * weights**(-s) along each row, where the rows are
f(values) for the mode (``_channels``) and the factor weights**(-s) is
skipped when s == 0:

* ``abs``     sum of d * Tr|sigma|            (one real channel)
* ``signed``  sum of d * Tr sigma             (one complex channel)
* ``four``    d * (Tr R+, Tr R-, Tr I+, Tr I-) with R = Re sigma, I = Im sigma

The zeta trace sum of d * Tr sigma * weight**(-s) is ``signed`` with s > 0.
In ``signed`` mode s may also be a 1-D array: the block is enumerated and
evaluated once and weighted per s, one channel per s, each summed along its
own contiguous row exactly as a single s is.
The producers of (values, mult, weights) are:

* a shell block of a scalar symbol: the radial profile evaluated once per
  distinct weight, with the shell's exact multiplicity ``sum d^2``
  (``GroupModel.radial_shells``), so the dual is never enumerated for it;
* a chunk of a diagonal symbol: the chunk evaluator returns the classes'
  diagonals as one flat vector, its channel rows (|v|, v, or the sign
  splits of Re v and Im v; no eigensolver) are summed per class by
  ``np.add.reduceat`` at the class offsets, and the per-class sums go
  through the kernel with multiplicity d and weight w, so w**(-s) is formed
  once per class, never per entry;
* a dense class, with multiplicity d: Tr sigma (``signed``), the trace norm
  of sigma (``abs``), or the spectra of Re sigma and Im sigma, one LAPACK
  call per class on the pair, as the two rows of a (2, d) array (``four``).

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


def _decay(weights, s: np.ndarray) -> np.ndarray:
    """weights**(-s), one row per s, each formed as for that s alone.

    A dense class weight is a Python float and goes through Python's pow;
    numpy's pow of an array of s, or of an array exponent, may differ in the
    last bit.
    """
    return np.array([weights ** (-x) for x in s.tolist()]).reshape(len(s), -1)


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


def _reduce(rows: np.ndarray, mult, weights, s) -> np.ndarray:
    """Channel vector of sum mult * rows * weights**(-s) along the last axis.

    For an array s (``signed`` only: one row) the channels are the sums per s.
    Real rows (``abs``, ``four``) are made for this sum and are scaled in
    place, with no second block-sized temporary; complex (``signed``) rows
    may be the caller's values and are not.
    """
    t = mult * rows if rows.dtype.kind == "c" else np.multiply(rows, mult, out=rows)
    if isinstance(s, np.ndarray):  # not np.ndim: this runs once per dense class
        return (t * _decay(weights, s)).sum(-1)
    if s != 0.0:
        t *= weights ** (-s)  # in place: no second block-sized temporary
    return t.sum(-1)


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


def _diagonal_terms(sym: MatrixSymbol, chunk, mode: str, s) -> np.ndarray:
    """Channel sum of one chunk of a diagonal symbol.

    The chunk's diagonals come as one flat vector; their channel rows are
    summed per class (``np.add.reduceat`` at the class offsets) and the
    class sums go through the kernel with multiplicity d and weight w, so
    w**(-s) is formed once per class.
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
    return _reduce(per_class, chunk.dims, chunk.weights, s)


def _block_terms(sym: MatrixSymbol, block, mode: str, s, nch: int) -> np.ndarray:
    """Channel sum of one block: a (weights, mult) shell block or a dual chunk."""
    if sym.radial_fn is not None:
        weights, mult = block
        # exact: multiplicities stay below 2**53
        part = _reduce(_channels(sym.radial_profile(weights), mode), mult.astype(np.float64), weights, s)
    elif sym.diag_fn is not None:
        weights = block.weights
        part = _diagonal_terms(sym, block, mode, s)
    else:
        weights = block.weights
        rows = np.zeros((len(block), nch), dtype=_MODE_DTYPE[mode])
        with matcalc.one_blas_thread():
            for i, el in enumerate(block.elements()):
                values = _dense_values(sym.evaluate(el), mode)
                rows[i] = _reduce(_channels(values, mode), float(el.dim), el.weight, s)
        # four adds the class rows in order; the other modes sum each channel
        # pairwise along a contiguous row, as one channel always was
        part = rows.sum(axis=0) if mode == "four" else np.ascontiguousarray(rows.T).sum(-1)
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
    sym: MatrixSymbol, schedule, mode: str, s=0.0, lo: float = 0.0
) -> np.ndarray:
    """Channel sums per annulus of the cutoff schedule, shape (J, channels).

    Annulus j covers weights in (schedule[j-1], schedule[j]] (starting from
    ``lo``), so every dual class is evaluated exactly once.  Each term
    carries the factor weight**(-s).  In ``signed`` mode s may be a 1-D
    array; the channels are then one column per s.  Cumulative sums of the
    rows give the partial-sum series of the schedule.
    """
    if mode not in _MODE_CHANNELS:
        raise InvalidArgumentError(f"unknown reduction mode {mode!r}")
    if np.ndim(s):
        if mode != "signed" or np.ndim(s) != 1:
            raise InvalidArgumentError("an array of s needs the signed mode and one axis")
        s = np.asarray(s, dtype=np.float64)
    schedule = [float(x) for x in schedule]
    if not schedule:
        raise InvalidArgumentError("schedule must be non-empty")
    lo = float(lo)
    if schedule[0] < 1.0 or any(b <= a for a, b in zip([lo] + schedule, schedule)):
        raise InvalidArgumentError("schedule must be strictly increasing, >= 1 and above lo")
    nch = len(s) if isinstance(s, np.ndarray) else _MODE_CHANNELS[mode]
    dtype = _MODE_DTYPE[mode]
    out = np.zeros((len(schedule), nch), dtype=dtype)
    blocks_of = sym.group.radial_shells if sym.radial_fn is not None else sym.group.dual_chunks
    for j, hi in enumerate(schedule):
        acc = _Kahan(nch, dtype)
        for block in blocks_of(lo, hi):
            acc.add(_block_terms(sym, block, mode, s, nch))
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
