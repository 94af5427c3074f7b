"""Deterministic reductions of symbol traces over the unitary dual.

The reductions here back every partial sum in the package.  A cutoff
schedule splits the dual into annuli; each annulus is covered by blocks:
canonically ordered chunks of dual classes, or, for scalar symbols, radial
shells in increasing weight order.  Block contributions are pairwise-summed
by numpy and then combined with Kahan compensation in block order, so
results are bit-reproducible and independent of the worker count (block
boundaries are fixed by the cutoffs alone).  With ``threads`` workers at
most ``threads`` blocks are in flight at once.  Dense classes are
evaluated and solved with numpy's bundled OpenBLAS on one thread
(``matcalc.one_blas_thread``), so they are also independent of
OPENBLAS_NUM_THREADS; with another BLAS build large dense classes may
depend on its thread count.

Channel modes:

* ``abs``     sum of d * Tr|sigma|            (one real channel)
* ``signed``  sum of d * Tr sigma             (one complex channel)
* ``four``    d * (Tr R+, Tr R-, Tr I+, Tr I-) with R = Re sigma, I = Im sigma
* ``zeta``    sum of d * Tr sigma * weight**(-s)   (one complex channel)

Scalar symbols are summed per shell: the radial profile is evaluated once
per distinct weight and multiplied by the shell's exact multiplicity
``sum d^2`` (``GroupModel.radial_shells``), so the dual is never enumerated
for them.  Diagonal symbols evaluate through their diagonal vectors
(entrywise absolute values and sign splits, no eigensolver); dense symbols
go through the spectra of Re sigma and Im sigma (``four``, one LAPACK call
per class on the pair) or the trace norm of sigma (``abs``).  A block whose
channel sum is not finite raises NumericalFailureError.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import matcalc
from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import MatrixSymbol

_MODE_CHANNELS = {"abs": 1, "signed": 1, "four": 4, "zeta": 1}
_MODE_DTYPE = {
    "abs": np.float64,
    "signed": np.complex128,
    "four": np.float64,
    "zeta": np.complex128,
}


def channel_count(mode: str) -> int:
    return _MODE_CHANNELS[mode]


def channel_dtype(mode: str):
    return _MODE_DTYPE[mode]


def _radial_terms(sym: MatrixSymbol, weights, mult, mode: str, s: float) -> np.ndarray:
    prof = sym.radial_profile(weights)
    d2 = mult.astype(np.float64)  # exact: multiplicities stay below 2**53
    if mode == "abs":
        return np.array([np.sum(d2 * np.abs(prof))])
    if mode == "signed":
        return np.array([np.sum(d2 * prof)])
    if mode == "zeta":
        return np.array([np.sum(d2 * prof * weights ** (-s))])
    re = prof.real
    im = prof.imag
    return np.array(
        [
            np.sum(d2 * np.maximum(re, 0.0)),
            np.sum(d2 * np.maximum(-re, 0.0)),
            np.sum(d2 * np.maximum(im, 0.0)),
            np.sum(d2 * np.maximum(-im, 0.0)),
        ]
    )


def _diagonal_terms(sym: MatrixSymbol, chunk, mode: str, s: float) -> np.ndarray:
    nch = channel_count(mode)
    vals = np.zeros((len(chunk), nch), dtype=channel_dtype(mode))
    for i, el in enumerate(chunk.elements()):
        v = sym.diagonal(el)
        d = float(el.dim)
        if mode == "abs":
            vals[i, 0] = d * np.sum(np.abs(v))
        elif mode == "signed":
            vals[i, 0] = d * np.sum(v)
        elif mode == "zeta":
            vals[i, 0] = d * np.sum(v) * el.weight ** (-s)
        else:
            re = v.real
            im = v.imag
            vals[i, 0] = d * np.sum(np.maximum(re, 0.0))
            vals[i, 1] = d * np.sum(np.maximum(-re, 0.0))
            vals[i, 2] = d * np.sum(np.maximum(im, 0.0))
            vals[i, 3] = d * np.sum(np.maximum(-im, 0.0))
    return vals.sum(axis=0)


def _dense_terms(sym: MatrixSymbol, chunk, mode: str, s: float) -> np.ndarray:
    nch = channel_count(mode)
    vals = np.zeros((len(chunk), nch), dtype=channel_dtype(mode))
    for i, el in enumerate(chunk.elements()):
        mat = sym.evaluate(el)
        d = float(el.dim)
        if mode == "signed":
            vals[i, 0] = d * np.trace(mat)
        elif mode == "zeta":
            vals[i, 0] = d * np.trace(mat) * el.weight ** (-s)
        elif mode == "abs":
            vals[i, 0] = d * matcalc.trace_norm(mat)
        else:
            # Re sigma and Im sigma in one eigensolve, which also checks that
            # sigma is finite; for Hermitian H, ||H||_F is the 2-norm of its
            # spectrum.
            adj = mat.conj().T
            eig = matcalc.hermitian_eigenvalues(np.stack((0.5 * (mat + adj), -0.5j * (mat - adj))))
            pos, neg = matcalc.split_eigenvalues(eig, np.linalg.norm(eig, axis=-1, keepdims=True))
            # rows (Re, Im) x columns (+, -) -> (R+, R-, I+, I-)
            vals[i] = d * np.stack((pos.sum(axis=-1), neg.sum(axis=-1)), axis=-1).ravel()
    return vals.sum(axis=0)


def _block_terms(sym: MatrixSymbol, block, mode: str, s: float) -> np.ndarray:
    """Channel sum of one block: a (weights, mult) shell block or a dual chunk."""
    if sym.radial_fn is not None:
        weights, mult = block
        part = _radial_terms(sym, weights, mult, mode, s).astype(channel_dtype(mode))
    else:
        weights = block.weights
        if sym.diag_fn is not None:
            part = _diagonal_terms(sym, block, mode, s)
        else:
            with matcalc.one_blas_thread():
                part = _dense_terms(sym, block, mode, s)
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


def _windowed(pool: ThreadPoolExecutor, size: int, fn, items):
    """``pool.map(fn, items)`` in order, with at most ``size`` items in flight."""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == size:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def annulus_sums(
    sym: MatrixSymbol,
    schedule,
    mode: str,
    s: float = 0.0,
    threads: int = 1,
    lo: float = 0.0,
) -> np.ndarray:
    """Channel sums per annulus of the cutoff schedule, shape (J, channels).

    Annulus j covers weights in (schedule[j-1], schedule[j]] (starting from
    ``lo``), so every dual class is evaluated exactly once.  Cumulative sums
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
    nch = channel_count(mode)
    dtype = channel_dtype(mode)
    out = np.zeros((len(schedule), nch), dtype=dtype)
    blocks_of = sym.group.radial_shells if sym.radial_fn is not None else sym.group.dual_chunks
    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
    else:
        pool = None
    try:
        for j, hi in enumerate(schedule):
            acc = _Kahan(nch, dtype)
            blocks = blocks_of(lo, hi)
            if pool is None:
                parts = (_block_terms(sym, b, mode, s) for b in blocks)
            else:
                parts = _windowed(pool, threads, lambda b: _block_terms(sym, b, mode, s), blocks)
            for part in parts:
                acc.add(part.astype(dtype))
            out[j] = acc.value()
            lo = hi
    finally:
        if pool is not None:
            pool.shutdown()
    return out


def cumulative_sums(annuli: np.ndarray) -> np.ndarray:
    """Kahan-compensated cumulative sums down the annulus axis."""
    out = np.empty_like(annuli)
    acc = _Kahan(annuli.shape[1], annuli.dtype)
    for j in range(annuli.shape[0]):
        acc.add(annuli[j])
        out[j] = acc.value()
    return out
