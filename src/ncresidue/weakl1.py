"""Weak-l1 quasi-norms on the dual, estimated as log-slopes of partial sums.

The quasi-norm of a symbol is the limit of S(N)/log N where
S(N) = sum over classes of weight <= N of d * Tr|sigma|.  The raw ratio
converges only like 1/log N (the additive constant of the series pollutes
it), so the estimator fits S against log N over a trailing window and
reports the slope: for S(N) = c log N + b + o(1) the slope converges to c
orders of magnitude faster than the ratio.

Partial sums follow the canonical dual order with compensated summation
(see ``dualsum``), so series are bit-reproducible.  Error bars are fit
stability heuristics, not rigorous bounds.
"""

from __future__ import annotations

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
    return [start * factor**k for k in range(count)]


@dataclass(frozen=True, eq=False)
class PartialSumSeries:
    """Cutoffs and cumulative sums S(N); mode is "abs" or "signed"."""

    cutoffs: np.ndarray
    values: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode == "abs":
            diffs = np.diff(np.real(self.values), prepend=0.0)
            scale = float(np.max(np.abs(self.values))) if len(self.values) else 0.0
            if np.any(diffs < -1e-12 * (1.0 + scale)):
                raise InvalidArgumentError("absolute-trace series must be non-decreasing")

    def __len__(self):
        return self.cutoffs.shape[0]

    def real_series(self) -> "PartialSumSeries":
        return PartialSumSeries(self.cutoffs, np.real(self.values).copy(), self.mode)

    def imag_series(self) -> "PartialSumSeries":
        return PartialSumSeries(self.cutoffs, np.imag(self.values).copy(), self.mode)


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted slope of S against log N with a stability error bar."""

    value: float
    error_bar: float
    window: tuple
    fit_residual: float
    flags: tuple = ()


def partial_sum(sym: MatrixSymbol, cutoff: float, mode: str = "abs"):
    """S(cutoff): real for mode "abs", complex for mode "signed"."""
    if cutoff < 1.0:
        raise InvalidArgumentError(f"cutoff must be >= 1, got {cutoff}")
    if mode not in ("abs", "signed"):
        raise InvalidArgumentError(f"mode must be 'abs' or 'signed', got {mode!r}")
    total = dualsum.annulus_sums(sym, [cutoff], mode)[0, 0]
    return float(total.real) if mode == "abs" else complex(total)


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


def _fit(logs: np.ndarray, vals: np.ndarray):
    slope, intercept = np.polyfit(logs, vals, 1)
    resid = float(np.max(np.abs(vals - (slope * logs + intercept))))
    return float(slope), resid


def estimate_slope(series: PartialSumSeries) -> SlopeEstimate:
    """Trailing-window least-squares slope of S versus log N.

    Requires at least 4 entries spanning two octaves of N.  The window is
    the trailing half of the entries (minimum 4).  The error bar is the
    larger of the slope change under shifting the window back by one entry
    and twice the maximum fit residual divided by the window log-span; when
    the series is too short to shift, only the residual term is used.
    Residuals above 10% of |slope| * log-span flag non-classical behavior
    (the symbol is not of critical order).  A non-finite slope or error bar
    (the fit overflowed) raises NumericalFailureError.
    """
    vals = np.real(np.asarray(series.values, dtype=np.complex128))
    cutoffs = np.asarray(series.cutoffs, dtype=np.float64)
    k = len(vals)
    if k < 4:
        raise InvalidArgumentError("slope estimation needs at least 4 series entries")
    logs = np.log(cutoffs)
    if logs[-1] - logs[0] < 2.0 * np.log(2.0) - 1e-9:
        raise InvalidArgumentError("series must span at least two octaves of N")
    window = max(4, (k + 1) // 2)
    first = k - window
    slope, resid = _fit(logs[first:], vals[first:])
    span = logs[-1] - logs[first]
    bar = 2.0 * resid / span
    if first >= 1:
        shifted, _ = _fit(logs[first - 1 : k - 1], vals[first - 1 : k - 1])
        bar = max(abs(slope - shifted), bar)
    if not (np.isfinite(slope) and np.isfinite(bar)):
        raise NumericalFailureError(f"non-finite slope fit: slope {slope:g}, error bar {bar:g}")
    flags = ()
    if resid > 0.1 * abs(slope) * span:
        flags = (NON_CLASSICAL_FLAG,)
    return SlopeEstimate(
        value=slope,
        error_bar=bar,
        window=(first, k - 1),
        fit_residual=resid,
        flags=flags,
    )
