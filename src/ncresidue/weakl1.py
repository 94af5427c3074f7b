"""Weak-l1 quasi-norms on the dual, estimated as log-slopes of partial sums.

The quasi-norm of a symbol is the limit of S(N)/log N where
S(N) = sum over classes of weight <= N of d * Tr|sigma|.  The raw ratio
converges only like 1/log N (the additive constant of the series pollutes
it), so the estimator fits S against log N over a trailing window and
reports the slope: for S(N) = c log N + b + o(1) the slope converges to c
orders of magnitude faster than the ratio.

One least-squares fitter, ``_fit(basis, rows)``, serves both residue
routes: the slope is coefficient 1 against the basis (1, log N), and the
zeta route reads coefficient 0 of its Richardson fit in N and of its
polynomial in s (see ``zeta``).  Rows are centred by their means, with no
rescaling, so a series too close to float max fails as a non-finite fit.
``_estimate_slopes`` fits many series sharing one schedule at once, as the
C-contiguous rows of an (m, J) array; every weight is applied by a sum
along a row, so a row's estimate is bit-identical alone or beside others.
``estimate_slope`` is its one-row case, and the residue assembly fits
every part of every node of a field in one call.

Partial sums are exactly rounded sums of block sums fixed by the cutoffs
(see ``dualsum``), so series are bit-reproducible.  Error bars are fit
stability heuristics, not rigorous bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualsum
from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import MatrixSymbol

NON_CLASSICAL_FLAG = "non-classical behavior"


def geometric_schedule(start: float = 16.0, factor: float = 2.0, count: int = 11):
    """Cutoffs start * factor**k; equal log spacing suits the slope fit."""
    if start < 1.0 or factor <= 1.0 or count < 1:
        raise InvalidArgumentError("need start >= 1, factor > 1, count >= 1")
    # the last cutoff, before the list is built: at most e^709, near float max (a NaN fails too)
    if not math.log(start) + (count - 1) * math.log(factor) <= 709.0:
        raise InvalidArgumentError(f"the last cutoff {start:g} * {factor:g}**{count - 1} is above e^709")
    return [start * factor**k for k in range(count)]


def check_slope_schedule(cutoffs) -> np.ndarray:
    """log N of a cutoff schedule the slope fit accepts: at least 4 cutoffs over two octaves.

    Any other schedule raises InvalidArgumentError.
    """
    logs = np.log(np.asarray(cutoffs, dtype=np.float64))
    if len(logs) < 4:
        raise InvalidArgumentError("slope estimation needs at least 4 series entries")
    if logs[-1] - logs[0] < 2.0 * np.log(2.0) - 1e-9:
        raise InvalidArgumentError("series must span at least two octaves of N")
    return logs


def _check_nondecreasing(values) -> None:
    """Refuse absolute-trace series, rows along the last axis, that decrease beyond rounding."""
    diffs = np.diff(np.real(values), prepend=0.0, axis=-1)
    scale = np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)
    if np.any(diffs < -1e-12 * (1.0 + scale)):
        raise InvalidArgumentError("absolute-trace series must be non-decreasing")


@dataclass(frozen=True, eq=False)
class PartialSumSeries:
    """Cutoffs and cumulative sums S(N); mode is "abs" or "signed"."""

    cutoffs: np.ndarray
    values: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode == "abs":
            _check_nondecreasing(self.values)

    def __len__(self):
        return self.cutoffs.shape[0]


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted slope of S against log N with a stability error bar."""

    value: float
    error_bar: float
    window: tuple
    fit_residual: float
    flags: tuple = ()


def partial_sum(sym: MatrixSymbol, cutoff: float, mode: str = "abs"):
    """S(cutoff): real for mode "abs", complex for mode "signed"; the one-cutoff ``sum_series``."""
    return (float if mode == "abs" else complex)(sum_series(sym, [cutoff], mode).values[0])


def sum_series(sym: MatrixSymbol, schedule, mode: str = "abs") -> PartialSumSeries:
    """Incremental partial sums over a strictly increasing cutoff schedule.

    Each dual class is evaluated once, inside the first annulus containing
    it; entry j is the cumulative sum through cutoff j.
    """
    if mode not in ("abs", "signed"):
        raise InvalidArgumentError(f"mode must be 'abs' or 'signed', got {mode!r}")
    annuli = dualsum.annulus_sums(sym, schedule, mode)
    cum = dualsum.cumulative_sums(annuli)[:, 0]
    values = np.real(cum).copy() if mode == "abs" else cum
    return PartialSumSeries(np.asarray(schedule, dtype=np.float64), values, mode)


def _fit(basis: np.ndarray, rows: np.ndarray):
    """(m, p) least-squares coefficients of the C-contiguous (m, J) rows against ``basis``, and max |residual|.

    ``basis`` is (J, p), its first column ones.  The slope reads coefficient
    1 against (1, log N), the zeta route coefficient 0.  Centred rows meet the
    pseudo-inverse of the centred other columns in sums along each row, so a
    row's bits do not depend on the rows beside it.
    """
    means = basis[:, 1:].sum(0) / len(basis)
    cols = basis[:, 1:] - means
    u, sv, vt = np.linalg.svd(cols, full_matrices=False)
    pinv = (vt.T / sv) @ u.T
    mean = rows.sum(-1) / rows.shape[-1]
    dev = rows - mean[:, None]
    beta = (dev[:, None, :] * pinv).sum(-1)
    resid = np.abs(dev - (beta[:, None, :] * cols).sum(-1)).max(-1)
    return np.concatenate(((mean - (beta * means).sum(-1))[:, None], beta), 1), resid


def _estimate_slopes(cutoffs, rows) -> list:
    """``estimate_slope`` of every row of ``rows`` against one cutoff schedule.

    ``rows`` is real, shape (m, J); all rows are fitted by two ``_fit``
    calls (the window and its shift).  The first row whose slope or error
    bar is not finite raises NumericalFailureError.
    """
    rows = np.asarray(rows, dtype=np.float64)
    logs = check_slope_schedule(cutoffs)
    k = rows.shape[-1]
    window = max(4, (k + 1) // 2)
    first = k - window
    span = logs[-1] - logs[first]
    basis = np.stack((np.ones_like(logs), logs), 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing fit is refused below
        coefs, resid = _fit(basis[first:], np.ascontiguousarray(rows[:, first:]))
        slopes = coefs[:, 1]
        bars = 2.0 * resid / span
        if first >= 1:
            shifted = _fit(basis[first - 1 : k - 1], np.ascontiguousarray(rows[:, first - 1 : k - 1]))[0][:, 1]
            bars = np.maximum(np.abs(slopes - shifted), bars)
    finite = np.isfinite(slopes) & np.isfinite(bars)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericalFailureError(f"non-finite slope fit: slope {slopes[i]:g}, error bar {bars[i]:g}")
    flagged = resid > 0.1 * np.abs(slopes) * span
    return [
        SlopeEstimate(slope, bar, (first, k - 1), res, (NON_CLASSICAL_FLAG,) if flag else ())
        for slope, bar, res, flag in zip(slopes.tolist(), bars.tolist(), resid.tolist(), flagged.tolist())
    ]


def estimate_slope(series: PartialSumSeries) -> SlopeEstimate:
    """Trailing-window least-squares slope of S versus log N.

    Requires at least 4 entries spanning two octaves of N.  The window is
    the trailing half of the entries (minimum 4).  The error bar is the
    larger of the slope change under shifting the window back by one entry
    and twice the maximum fit residual divided by the window log-span; when
    the series is too short to shift, only the residual term is used.
    Residuals above 10% of |slope| * log-span flag non-classical behavior
    (the symbol is not of critical order).  A non-finite slope or error bar
    (the fit overflowed) raises NumericalFailureError.  The real part of
    the values is fitted.
    """
    vals = np.real(np.asarray(series.values, dtype=np.complex128))
    return _estimate_slopes(series.cutoffs, vals[None])[0]
