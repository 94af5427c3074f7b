"""Deterministic reductions of symbol traces over the unitary dual.

The reductions here back every partial sum in the package.  A cutoff
schedule splits the dual into annuli; each annulus is covered by blocks of
one of two kinds, fixed by the cutoffs alone:

* shell blocks, for scalar symbols: the radial profile evaluated once per
  distinct weight, in increasing weight order, one entry per shell with
  the shell's exact multiplicity ``sum d^2`` (``GroupModel.radial_shells``),
  so the dual is never enumerated for them;
* chunks, for every other symbol: canonically ordered slices of the dual
  (``GroupModel.dual_chunks``) whose spectral diagonals come as one flat
  vector, ``MatrixSymbol.chunk_spectra``, d entries per class; the entries
  are summed per class by ``np.add.reduceat`` at the class offsets, and a
  class carries multiplicity d.

Both kinds reduce through one kernel, ``_reduce(rows, mult, factor)``: the
sums of mult * rows * factor along each row, where the rows are the mode's
channels f(values) (``_channels``) of one entry per shell or class:

* ``abs``     sum of d * Tr|sigma|            (one real channel)
* ``signed``  sum of d * Tr sigma             (one complex channel)
* ``four``    d * (Tr R+, Tr R-, Tr I+, Tr I-) with R = Re sigma, I = Im sigma

The per-class sum of the chunk entries is Tr sigma for ``signed``; for
``abs`` and ``four`` it is the trace of |sigma| or of a signed spectral
part, because a diagonal class's diagonal is its spectrum and a dense
class's entries are its singular values, or the eigenvalues of Re sigma
and Im sigma.  The reduction never looks at the structure tag.

``factor`` holds the caller's factor rows: ``annulus_sums`` takes a
callable mapping a block's weights to k non-negative rows, one per weighting
(the zeta trace passes w**(-s), and psi(w/N) * w**(-s) for its smoothed
sums), and every channel is then summed once per row, along its own
contiguous row, so a row's sum does not depend on the rows beside it.
Without factors each term carries the factor 1 and no multiply is made.

Block contributions are pairwise-summed by numpy and then combined on the
calling thread by ``math.fsum`` per channel (a complex channel as its real
and imaginary parts): an annulus sums its blocks and a cumulative sum the
annuli up to it, each exactly rounded, so results do not depend on the
block order and are bit-reproducible; a combination that overflows raises
NumericalFailureError.  A chunk holds at most ``groups._CHUNK_ENTRIES``
entries (or one class), so no evaluation holds more.  Dense classes are
solved with numpy's bundled OpenBLAS on one thread
(``matcalc.one_blas_thread``), so they are also independent of
OPENBLAS_NUM_THREADS; with another BLAS build large dense classes may
depend on its thread count.  A block whose channel sum is not finite
raises NumericalFailureError; a dense class with a non-finite entry has
NaN ``abs`` and ``four`` spectra, so it fails so.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import MatrixSymbol

_MODE_CHANNELS = {"abs": 1, "signed": 1, "four": 4}
_MODE_DTYPE = {"abs": np.float64, "signed": np.complex128, "four": np.float64}


def _channels(values: np.ndarray, mode: str) -> np.ndarray:
    """The rows f(values) of complex values that ``mode`` sums, shape (channels, n).

    ``four`` splits the real and imaginary parts into the rows (R+, R-, I+, I-).
    """
    if mode == "abs":
        return np.abs(values)[None]
    if mode == "signed":
        return values[None]
    # the (Re, Im) rows as a strided view, not a copy, split into one array:
    # fresh block-sized temporaries cost page faults
    parts = np.ascontiguousarray(values).view(np.float64).reshape(-1, 2).T
    out = np.empty((2, 2, parts.shape[-1]))
    np.maximum(parts, 0.0, out=out[:, 0])
    np.negative(np.minimum(parts, 0.0, out=out[:, 1]), out=out[:, 1])
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


def _block_terms(sym: MatrixSymbol, block, mode: str, factors) -> np.ndarray:
    """Channel sums of one block, shape (factor rows, channels).

    A block is a (weights, mult) shell block or a dual chunk.
    """
    if sym.radial_fn is not None:
        weights, mult = block[0], block[1].astype(np.float64)  # exact: below 2**53
        rows = _channels(sym.radial_profile(weights), mode)
    else:
        weights, mult = block.weights, block.dims
        dims = mult.astype(np.int64)
        entries = _channels(sym.chunk_spectra(block, mode), mode)
        rows = np.add.reduceat(entries, np.cumsum(dims) - dims, axis=-1)  # one column per class
    factor = None if factors is None else np.asarray(factors(weights), dtype=np.float64)
    part = _reduce(rows, mult, factor)
    if not np.all(np.isfinite(part)):
        raise NumericalFailureError(
            f"non-finite {mode} sum over the classes of weight {weights[0]:g}..{weights[-1]:g}"
        )
    return part


def _exact_sums(parts: np.ndarray) -> np.ndarray:
    """Exactly rounded (``math.fsum``) channel sums of an (n, channels) array down its first axis."""
    cols = np.ascontiguousarray(parts).view(np.float64).T.tolist()  # a complex channel as (re, im)
    try:
        return np.array([math.fsum(col) for col in cols]).view(parts.dtype)
    except OverflowError as exc:
        raise NumericalFailureError(f"the sum of {len(parts)} partial sums overflows") from exc


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
    # positive comparisons, so a NaN cutoff or lo fails them
    increasing = all(b > a for a, b in zip([lo] + schedule, schedule))
    if not (schedule[0] >= 1.0 and increasing and math.isfinite(lo) and math.isfinite(schedule[-1])):
        raise InvalidArgumentError("need a finite lo and a finite schedule, strictly increasing, >= 1 and above lo")
    # the number of factor rows, from one probe weight
    k = 1 if factors is None else len(factors(np.ones(1)))
    dtype = _MODE_DTYPE[mode]
    out = np.zeros((len(schedule), k * _MODE_CHANNELS[mode]), dtype=dtype)
    blocks_of = sym.group.radial_shells if sym.radial_fn is not None else sym.group.dual_chunks
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite block is refused by _block_terms
        for j, hi in enumerate(schedule):
            parts = [_block_terms(sym, block, mode, factors).ravel() for block in blocks_of(lo, hi)]
            out[j] = _exact_sums(np.array(parts, dtype=dtype).reshape(-1, out.shape[1]))
            lo = hi
    return out


def cumulative_sums(annuli: np.ndarray) -> np.ndarray:
    """Exactly rounded cumulative sums down the annulus axis."""
    return np.array([_exact_sums(annuli[: j + 1]) for j in range(len(annuli))]).reshape(annuli.shape)
