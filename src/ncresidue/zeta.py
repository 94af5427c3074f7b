"""Spectral-zeta route to the residue, as an independent cross-check.

For an invariant symbol of critical order -n the weighted trace
f(-s) = sum over the dual of d * Tr sigma * weight**(-s) converges for
s > 0 and has a simple pole C/s at s = 0; the residue of interest is
C = lim s * f(-s).

Every sample of f starts from the smoothed partial sums

    S_psi(N) = sum d * Tr sigma * w^-s * psi(w/N)

at the doubling cutoffs N = N0, 2 N0, ... (N0 = DEFAULT_START_CUTOFF),
where psi is a C^inf step that is 1 on [0, 1/2] and 0 on [1, inf).  As
psi(w/N) = 1 for w <= N/2, S_psi(N) is the sharp sum S(N/2) plus the
psi-weighted annulus (N/2, N].
One pass over that annulus (``dualsum.annulus_sums`` with the factor rows
w^-s and psi(w/N) w^-s) gives both it and the sharp annulus carried into
the next cutoff, so each class or shell is evaluated once per cutoff.  All
s values of a residue share the pass; only their factor rows differ, each
formed as for its s alone, so every s gets the samples it would get alone.
Each s stops by its own rule and drops out of later cutoffs.

The smoothed sum expands as S_psi(N) = f(-s) + sum_j a_j N^(-s-j) +
O(N^-inf): the tail beyond a smooth cutoff is the integral of the symbol's
homogeneous terms (Poisson summation on the torus, Euler-Maclaurin over the
levels of SU(2)).  A sample reads f(-s) off it in one of two ways.

Scalar symbols (a radial profile p of the weight) add the tail itself, the
integral

    int p(w) w^-s (1 - psi(w/N)) dmu(w)

against the group's shell density (``GroupModel.shell_density``), summed
by Gauss-Legendre on [N/2, N], by Legendre panels in u = log(w/N) up to
W = N e^U, and past W by the leading power law p(W) W^n rho W^-s / s.  Its
drift is the change between two quadrature orders plus the change of
p(w) w^n over the last panel.  Samples settle near N = 128 on every group.

Diagonal and dense symbols fit the last four S_psi(N) against
(1, N^-s, N^(-s-1), N^(-s-2)), or fewer columns while fewer cutoffs exist,
with ``weakl1._fit``; the basis is square, so the fit is the solve for
(f, a_0, a_1, a_2) and f(-s) is its coefficient 0.  No envelope constant
enters; their drift is zero.

A sample's bound is TAIL_SAFETY_FACTOR * (|value - previous value| +
drift); the first sample has none.  The cutoff doubles until the bound
falls below tol * max(1, |S_psi(N)|) or the budget runs out (``_MAX_CUTOFF``
by default; a budget off the doubling grid rounds down to it).

The residue is read off alike for every symbol, by the same fitter:
g(s) = s * f(-s) at the three smallest s against (1, s, s^2), whose
coefficient 0 is the quadratic's value at 0.  The error bar is its
distance from coefficient 0 of the line through the two smallest s, plus
the sample bounds propagated through the quadratic's weights at 0 (the
coefficients 0 of the identity rows).  A least-squares line through the
same three points deviating at 0 by more than 10% of the largest |g| (the
samples' or the value's) flags a higher-order pole or a symbol of the
wrong order; a convergent trace, whose g(s) = s * f(-s) runs to 0 along a
line, is not flagged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dualsum
from .errors import BudgetExceededError, InvalidArgumentError, NumericalFailureError
from .groups import GroupModel
from .symbols import MatrixSymbol, check_critical_order
from .weakl1 import _fit

DEFAULT_START_CUTOFF = 16.0
DEFAULT_S_SCHEDULE = (0.2, 0.1, 0.05)
DEFAULT_TOLERANCE = 1e-10
TAIL_SAFETY_FACTOR = 2.0

# Diagonal and dense symbols: S_psi at this many trailing cutoffs solves for
# f(-s) and the coefficients of N^-s, N^(-s-1) and N^(-s-2).
_RICHARDSON_POINTS = 4

# The integrated radial tail: Gauss-Legendre orders on [N/2, N] and per
# panel of u = log(w/N) in [0, _LOG_SPAN]; the first order of each pair
# checks the second.
_STEP_NODES = (48, 64)
_LOG_SPAN = 40.0
_LOG_PANELS = 10
_PANEL_NODES = (16, 24)

# Default cutoff budgets.  A non-scalar T^3 sum to 2^8 already visits about
# 7e7 classes; scalar symbols stop near N = 128 on every group.
_MAX_CUTOFF = {"T1": float(2**24), "T2": float(2**11), "T3": float(2**8), "SU2": float(2**24)}


@dataclass(frozen=True)
class ZetaSample:
    """One evaluation of f(-s): S_psi(N) as ``partial``, the correction added to it, and its bound."""

    s: float
    value: complex
    truncation_cutoff: float
    tail_bound: float
    partial: complex
    tail_correction: complex


@dataclass(frozen=True, eq=False)
class ZetaResidue:
    value: complex
    error_bar: float
    samples: tuple
    flags: tuple = ()


def check_options(s_values, tol, max_cutoff, min_count: int = 3) -> None:
    """Refuse zeta options; None stands for the default and passes.

    The s values must be at least ``min_count`` (zeta_trace samples one),
    strictly decreasing and positive, tol positive, and max_cutoff finite
    and at least DEFAULT_START_CUTOFF.
    """
    if s_values is not None:
        if len(s_values) < min_count:
            raise InvalidArgumentError(f"s schedule needs at least {min_count} values, got {s_values}")
        if any(b >= a for a, b in zip(s_values, s_values[1:])) or not all(v > 0.0 for v in s_values):
            raise InvalidArgumentError(f"s schedule must be strictly decreasing and positive, got {s_values}")
    if tol is not None and not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")
    if max_cutoff is not None and not (math.isfinite(max_cutoff) and DEFAULT_START_CUTOFF <= max_cutoff):
        raise InvalidArgumentError(
            f"max_cutoff must be finite and at least the start cutoff {DEFAULT_START_CUTOFF:g}, "
            f"got {max_cutoff}"
        )


def _cutoffs(max_cutoff: float):
    """DEFAULT_START_CUTOFF, twice that, ... up to max_cutoff, rounded down to this grid."""
    hi = DEFAULT_START_CUTOFF
    while hi <= max_cutoff:
        yield hi
        hi *= 2.0


def _step_parts(t: np.ndarray):
    """(psi(t), 1 - psi(t)) with psi(t) = h(2 - 2t) / (h(2 - 2t) + h(2t - 1)).

    h(x) = exp(-1/x) for x > 0 and 0 otherwise; both parts are formed as
    quotients, so neither loses digits to cancellation.
    """
    def h(x):
        pos = x > 0.0
        return np.where(pos, np.exp(-1.0 / np.where(pos, x, 1.0)), 0.0)

    a, b = h(2.0 - 2.0 * t), h(2.0 * t - 1.0)
    return a / (a + b), b / (a + b)


@functools.cache
def _unit_gauss(m: int):
    """Gauss-Legendre nodes and weights on [0, 1] (shared; never written)."""
    x, wx = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * wx


def _tail_rule(group: GroupModel, s: list, cut: float, step_nodes: int, panel_nodes: int):
    """Nodes w and weights q, a row per s, with q[k] @ p(w) the tail integral short of W.

    Each row's factor w**(-s) is formed exactly as for its s alone.
    """
    x, wx = _unit_gauss(step_nodes)
    w1 = cut * (0.5 + 0.5 * x)
    q1 = 0.5 * cut * wx
    q1 = np.array([q1 * w1 ** (-v) for v in s]) * _step_parts(w1 / cut)[1] * group.shell_density(w1)
    y, wy = _unit_gauss(panel_nodes)
    width = _LOG_SPAN / _LOG_PANELS
    u = width * (np.arange(_LOG_PANELS)[:, None] + y).ravel()
    w2 = cut * np.exp(u)
    # w**(-s) as cut**(-s) * exp(-s u): w2 itself stays far below overflow
    q2 = width * np.tile(wy, _LOG_PANELS)
    q2 = np.array([q2 * cut ** (-v) * np.exp(-v * u) for v in s]) * group.shell_density(w2) * w2
    return np.concatenate((w1, w2)), np.concatenate((q1, q2), axis=1)


def _radial_tails(sym: MatrixSymbol, s: list, cut: float) -> list:
    """The integrated tail at the cutoff and the part of its bound it owns, per s.

    Returns (tail, drift) pairs: drift is the change between the two
    quadrature orders plus the change of the power-law amplitude p(w) w^n
    over the last log panel, both scaled like the terms they come from.
    The profile is evaluated once, at nodes that every s shares.
    """
    group = sym.group
    coarse_w, coarse_q = _tail_rule(group, s, cut, _STEP_NODES[0], _PANEL_NODES[0])
    fine_w, fine_q = _tail_rule(group, s, cut, _STEP_NODES[1], _PANEL_NODES[1])
    # the last panel's ends; the second is W
    far_w = cut * np.exp(_LOG_SPAN * np.array([1.0 - 1.0 / _LOG_PANELS, 1.0]))
    # complex even for a real profile: a real dot product rounds otherwise
    p = sym.radial_profile(np.concatenate((coarse_w, fine_w, far_w))).astype(np.complex128)
    amplitude = p[-2:] * far_w**group.dim
    out = []
    for v, cq, fq in zip(s, coarse_q, fine_q):
        coarse = p[: coarse_w.size] @ cq
        fine = p[coarse_w.size : -2] @ fq
        far_scale = group.density_coeff * cut ** (-v) * math.exp(-v * _LOG_SPAN) / v
        tail = complex(fine + amplitude[1] * far_scale)
        drift = float(abs(fine - coarse) + abs(amplitude[1] - amplitude[0]) * far_scale)
        out.append((tail, drift))
    return out


def _factor_rows(s: list, cut: float, w: np.ndarray) -> np.ndarray:
    """The rows w**(-v), then psi(w/cut) * w**(-v), for each v in s, each formed as for v alone."""
    decay = np.array([w ** (-v) for v in s])
    return np.concatenate((decay, decay * _step_parts(w / cut)[0]))


def _richardson(cuts: list, sums: list, s: float) -> complex:
    """f(-s) from S_psi at the cutoffs: coefficient 0 against 1, N^-s, N^(-s-1), ...

    As many unknowns as cutoffs; the cutoffs are scaled by the last one.
    """
    x = np.array(cuts) / cuts[-1]
    basis = np.array([np.ones_like(x)] + [x ** (-s - j) for j in range(len(x) - 1)]).T
    return complex(_fit(basis, np.array([sums]))[0][0, 0])


def _zeta_samples(sym, s_values, tol, max_cutoff) -> list:
    """One sample of f(-s) per s value, all from one doubling loop.

    Every cutoff enumerates, evaluates and (for scalar symbols) builds the
    tail's quadrature once for all s still sampled; only the factor rows
    are per s.  Each s stops by its own rule and drops out; if the budget
    runs out first, the first s left raises BudgetExceededError.
    """
    check_critical_order(sym.group, sym.envelope.order, "zeta path: envelope order")
    s_values = [float(v) for v in s_values]
    check_options(s_values, tol, max_cutoff, min_count=1)
    max_cutoff = _MAX_CUTOFF[sym.group.name] if max_cutoff is None else float(max_cutoff)
    radial = sym.radial_fn is not None
    sharp = [complex(0.0)] * len(s_values)  # S(N) at the last cutoff
    smoothed = [[] for _ in s_values]  # S_psi(N) at the trailing cutoffs
    found = [None] * len(s_values)
    cuts = []
    lo = 0.0
    active = list(range(len(s_values)))
    for hi in _cutoffs(max_cutoff):
        s_active = [s_values[i] for i in active]
        sums = dualsum.annulus_sums(
            sym, [hi], "signed", functools.partial(_factor_rows, s_active, hi), lo=lo
        )[0]
        cuts = (cuts + [hi])[-_RICHARDSON_POINTS:]
        tails = _radial_tails(sym, s_active, hi) if radial else [(None, 0.0)] * len(s_active)
        for a, (i, (tail, drift)) in enumerate(zip(active, tails)):
            partial = sharp[i] + complex(sums[len(s_active) + a])
            sharp[i] += complex(sums[a])
            if radial:
                value = partial + tail
            else:
                smoothed[i] = (smoothed[i] + [partial])[-_RICHARDSON_POINTS:]
                value = _richardson(cuts, smoothed[i], s_values[i])
                tail = value - partial
            if not (np.isfinite(value) and math.isfinite(drift)):
                raise NumericalFailureError(f"non-finite zeta sample at s = {s_values[i]:g}, cutoff {hi:g}")
            prev = found[i]
            bound = math.inf if prev is None else TAIL_SAFETY_FACTOR * (abs(value - prev.value) + drift)
            found[i] = ZetaSample(
                s=s_values[i],
                value=value,
                truncation_cutoff=hi,
                tail_bound=bound,
                partial=partial,
                tail_correction=tail,
            )
        active = [i for i in active if found[i].tail_bound > tol * max(1.0, abs(found[i].partial))]
        if not active:
            return found
        lo = hi
    best = found[active[0]]
    raise BudgetExceededError(
        f"tail bound {best.tail_bound:.3e} above tolerance at the cutoff budget {max_cutoff:g}",
        best=best,
    )


def zeta_trace(
    sym: MatrixSymbol,
    s: float,
    tol: float,
    max_cutoff: float | None = None,
) -> ZetaSample:
    """One sample of f(-s) = sum d * Tr sigma * weight**(-s).

    Doubles the cutoff until the sample's bound drops below
    tol * max(1, |partial|); raises BudgetExceededError (with the best
    sample attached) if the budget runs out first.  See the module
    docstring for how a sample is formed.
    """
    return _zeta_samples(sym, [s], tol, max_cutoff)[0]


def zeta_residue(
    sym: MatrixSymbol,
    s_schedule=None,
    tol: float | None = None,
    max_cutoff: float | None = None,
) -> ZetaResidue:
    """Residue at the origin of the zeta trace: lim s * f(-s) for s -> 0+.

    The defaults, DEFAULT_S_SCHEDULE and DEFAULT_TOLERANCE, serve every
    symbol structure.  All s values are sampled in one doubling loop.
    """
    s_schedule = [float(v) for v in (DEFAULT_S_SCHEDULE if s_schedule is None else s_schedule)]
    tol = DEFAULT_TOLERANCE if tol is None else tol
    check_options(s_schedule, tol, max_cutoff)
    samples = tuple(_zeta_samples(sym, s_schedule, tol, max_cutoff))
    tail = samples[-3:]
    gv = np.array([smp.s * smp.value for smp in tail], dtype=np.complex128)
    # g(s) = s * f(-s) against (1, s, s^2) at the three smallest s; the
    # identity rows give the quadratic's weights at 0
    poly = np.vander([smp.s for smp in tail], 3, increasing=True)
    coefs = _fit(poly, np.vstack((gv, np.eye(3))))[0][:, 0]
    value, weights = complex(coefs[0]), np.abs(coefs[1:])
    line = complex(_fit(poly[1:, :2], gv[None, 1:])[0][0, 0])  # through the two smallest s
    propagated = float(np.sum(weights * np.array([smp.s * smp.tail_bound for smp in tail])))
    bar = abs(value - line) + propagated
    flags = ()
    scale = max(abs(value), float(np.max(np.abs(gv))))
    if abs(value - complex(_fit(poly[:, :2], gv[None])[0][0, 0])) > 0.1 * scale + propagated:
        flags = ("higher-order pole or wrong order",)
    return ZetaResidue(value=value, error_bar=bar, samples=samples, flags=flags)
