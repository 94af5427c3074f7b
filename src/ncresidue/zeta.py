"""Spectral-zeta route to the residue, as an independent cross-check.

For an invariant symbol of critical order -n the weighted trace
f(-s) = sum over the dual of d * Tr sigma * weight**(-s) converges for
s > 0 and has a simple pole C/s at s = 0; the residue of interest is
C = lim s * f(-s).  A sample of f at a cutoff N is a partial sum plus a
model of the tail beyond it; the cutoff doubles until the sample's bound
falls below tol * max(1, |partial|).  All s values of a residue share one
doubling loop: at each cutoff the dual blocks are enumerated, the symbol is
evaluated and the tail's quadrature nodes are built once, and only the
factor w^-s is applied per s (``dualsum.annulus_sums`` with an array of s).
Each s keeps its own stopping rule and drops out of later cutoffs once it
stops, so its sample is exactly the one it would get alone.  There are two
routes to a sample.

Scalar symbols (a radial profile p of the weight): the partial sum is
smoothed, sum d^2 p(w) w^-s psi(w/N) with a C^inf step psi that is 1 on
[0, 1/2] and 0 on [1, inf), and the tail is the integral

    int p(w) w^-s (1 - psi(w/N)) dmu(w)

against the group's shell density (``GroupModel.shell_density``).  Its
integrand is smooth on the scale N, so the lattice sum it stands for
differs from it by less than any power of N (Poisson summation on the
torus, Euler-Maclaurin on SU(2)).  The integral is summed by Gauss-Legendre
on [N/2, N], by Legendre panels in u = log(w/N) up to W = N e^U, and past W
by the leading power law p(W) W^n rho W^-s / s.  The bound is
TAIL_SAFETY_FACTOR times the change from the previous sample, plus the
change between two quadrature orders, plus the change of p(w) w^n over the
last panel; the first sample has no bound.  Samples settle near N = 128 on
every group, so s can go down to 0.05.

Diagonal and dense symbols: the sum is truncated sharply at N and the tail
is modelled from the declared envelope as c * rho * N**(-s) / s, with rho
the leading counting-density coefficient of the group (vol(S^(n-1)) on the
torus, 1 on SU(2)).  The model is added back steered by the phase of the
partial sum, so that phase rotations of the symbol commute with sampling,
and bounded by TAIL_SAFETY_FACTOR times itself.  Small s needs huge cutoffs
here, which is why these symbols keep the cutoff budgets of
``default_max_cutoff`` and the short ENVELOPE_S_SCHEDULE (1.6, 0.8, 0.4).

Both routes read the residue off alike: g(s) = s * f(-s) is interpolated by
the quadratic through the three smallest s and evaluated at 0.  The error
bar is its distance from the line through the two smallest s, plus the
sample bounds propagated through the quadratic's weights at 0.  A
least-squares line through the same three points deviating by more than 10%
flags a higher-order pole or a symbol of the wrong order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dualsum
from .errors import BudgetExceededError, InvalidArgumentError, NumericalFailureError
from .groups import GroupModel
from .symbols import MatrixSymbol, scalar_symbol

DEFAULT_START_CUTOFF = 16.0
TAIL_SAFETY_FACTOR = 2.0
_ORDER_TOL = 1e-9

# Scalar symbols: the integrated tail makes small s and tight tolerances cheap.
RADIAL_S_SCHEDULE = (0.2, 0.1, 0.05)
RADIAL_TOLERANCE = 1e-10

# Diagonal and dense symbols: the envelope tail decays like N**(-s), so the
# cutoff a sample needs grows like tol**(-1/s).  At s = 0.4 it stays within
# every group's budget; SU(2) diagonal sums at s = 0.3 already ran for
# minutes, evaluating each level's diagonal.
ENVELOPE_S_SCHEDULE = (1.6, 0.8, 0.4)

# The integrated radial tail: Gauss-Legendre orders on [N/2, N] and per
# panel of u = log(w/N) in [0, _LOG_SPAN]; the first order of each pair
# checks the second.
_STEP_NODES = (48, 64)
_LOG_SPAN = 40.0
_LOG_PANELS = 10
_PANEL_NODES = (16, 24)

_TORUS_MAX_CUTOFF = {1: float(2**24), 2: float(2**11), 3: float(2**10)}


def default_max_cutoff(group: GroupModel) -> float:
    """Largest truncation cutoff the dual sums can afford by default."""
    if group.name == "SU2":
        return float(2**24)
    return _TORUS_MAX_CUTOFF[group.dim]


def default_tolerance(group: GroupModel) -> float:
    """Sample tolerance of the envelope route; scalar symbols use RADIAL_TOLERANCE."""
    return 0.35 if (group.name != "SU2" and group.dim == 3) else 0.1


@dataclass(frozen=True)
class ZetaSample:
    """One evaluation of f(-s): partial sum plus tail correction, and its bound."""

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


def _check_critical_order(sym: MatrixSymbol) -> None:
    n = sym.group.dim
    if abs(sym.envelope.order + n) > _ORDER_TOL:
        raise InvalidArgumentError(
            f"zeta path needs a symbol of order {-n}, envelope declares {sym.envelope.order}"
        )


def _cutoffs(start: float, max_cutoff: float):
    """start, 2 * start, ... clamped to and ending at max_cutoff."""
    hi = float(start)
    while True:
        yield hi
        if hi >= max_cutoff:
            return
        hi = min(hi * 2.0, float(max_cutoff))


def _signed_sums(sym: MatrixSymbol, lo: float, hi: float, s: list) -> list:
    return [complex(v) for v in dualsum.annulus_sums(sym, [hi], "signed", s, lo=lo)[0]]


def _envelope_samples(sym: MatrixSymbol, s: list, cutoffs):
    """Sharp partial sums with the envelope tail model added back.

    A coroutine over the cutoffs: yields the samples of the s values still
    sampled, and is sent the indices (into s) of those that go on.
    """
    rho = sym.group.density_coeff
    c_env = sym.envelope.constant
    acc = [complex(0.0)] * len(s)
    lo = 0.0
    active = range(len(s))
    for hi in cutoffs:
        samples = []
        for i, part in zip(active, _signed_sums(sym, lo, hi, [s[i] for i in active])):
            acc[i] += part
            model = c_env * rho * hi ** (-s[i]) / s[i]
            mag = abs(acc[i])
            phase = acc[i] / mag if mag > 0.0 else complex(1.0)
            samples.append(ZetaSample(
                s=s[i],
                value=acc[i] + model * phase,
                truncation_cutoff=hi,
                tail_bound=TAIL_SAFETY_FACTOR * model,
                partial=acc[i],
                tail_correction=model * phase,
            ))
        active = yield samples
        lo = hi


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
    p = sym.radial_profile(np.concatenate((coarse_w, fine_w, far_w)))
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


def _radial_samples(sym: MatrixSymbol, s: list, cutoffs):
    """Smoothed partial sums with the integrated radial tail added.

    The sharp sum over weights <= N/2 is kept across cutoffs; the annulus
    (N/2, N] goes through the same kernel as the scalar symbol p * psi(./N).
    A coroutine over the cutoffs like ``_envelope_samples``.
    """
    profile = sym.radial_fn
    sharp = [complex(0.0)] * len(s)
    sharp_hi = 0.0
    prev = [None] * len(s)
    active = range(len(s))
    for hi in cutoffs:
        s_active = [s[i] for i in active]
        half = 0.5 * hi
        if half > sharp_hi:
            for i, part in zip(active, _signed_sums(sym, sharp_hi, half, s_active)):
                sharp[i] += part
            sharp_hi = half
        smoothed = scalar_symbol(
            sym.group,
            lambda w, hi=hi: profile(w) * _step_parts(w / hi)[0],
            sym.envelope,
            check=False,
        )
        annulus = _signed_sums(smoothed, half, hi, s_active)
        samples = []
        for i, part, (tail, drift) in zip(active, annulus, _radial_tails(sym, s_active, hi)):
            partial = sharp[i] + part
            value = partial + tail
            if not (np.isfinite(value) and math.isfinite(drift)):
                raise NumericalFailureError(f"non-finite zeta sample at s = {s[i]:g}, cutoff {hi:g}")
            bound = math.inf if prev[i] is None else TAIL_SAFETY_FACTOR * (abs(value - prev[i]) + drift)
            samples.append(ZetaSample(
                s=s[i],
                value=value,
                truncation_cutoff=hi,
                tail_bound=bound,
                partial=partial,
                tail_correction=tail,
            ))
            prev[i] = value
        active = yield samples


def _stops(sample: ZetaSample, tol: float, max_cutoff: float, min_cutoff) -> bool:
    """Whether sampling of its s ends with this sample."""
    satisfied = sample.tail_bound <= tol * max(1.0, abs(sample.partial))
    forced = min_cutoff is not None and sample.truncation_cutoff < min_cutoff
    return satisfied and (not forced or sample.truncation_cutoff >= max_cutoff)


def _zeta_samples(sym, s_values, tol, start_cutoff, max_cutoff, min_cutoff=None) -> list:
    """One sample of f(-s) per s value, all from one doubling loop.

    Every cutoff enumerates, evaluates and (on the radial route) builds the
    tail's quadrature once for all s still sampled; only the w^-s weighting
    is per s.  Each s stops by its own rule and drops out; if the budget
    runs out first, the first s left raises BudgetExceededError.
    """
    _check_critical_order(sym)
    if min(s_values) <= 0.0:
        raise InvalidArgumentError(f"s must be positive, got {min(s_values)}")
    if tol <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")
    if max_cutoff is None:
        max_cutoff = default_max_cutoff(sym.group)
    route = _radial_samples if sym.radial_fn is not None else _envelope_samples
    passes = route(sym, [float(v) for v in s_values], _cutoffs(start_cutoff, max_cutoff))
    found = [None] * len(s_values)
    active = list(range(len(s_values)))
    samples = next(passes)
    while True:
        for i, sample in zip(active, samples):
            found[i] = sample
        active = [i for i in active if not _stops(found[i], tol, max_cutoff, min_cutoff)]
        if not active:
            return found
        try:
            samples = passes.send(active)
        except StopIteration:
            break
    best = found[active[0]]
    raise BudgetExceededError(
        f"tail bound {best.tail_bound:.3e} above tolerance at the cutoff budget {max_cutoff:g}",
        best=best,
    )


def zeta_trace(
    sym: MatrixSymbol,
    s: float,
    tol: float,
    start_cutoff: float = DEFAULT_START_CUTOFF,
    max_cutoff: float | None = None,
    min_cutoff: float | None = None,
) -> ZetaSample:
    """One sample of f(-s) = sum d * Tr sigma * weight**(-s).

    Doubles the cutoff until the sample's bound drops below
    tol * max(1, |partial|); raises BudgetExceededError (with the best
    sample attached) if the budget runs out first.  ``min_cutoff`` forces a
    larger cutoff than the stopping rule requires, which is useful for
    verifying the advertised bound.  Scalar symbols take the smoothed,
    integrated-tail route, others the envelope route (see the module
    docstring).
    """
    return _zeta_samples(sym, [s], tol, start_cutoff, max_cutoff, min_cutoff)[0]


def _intercept_weights(x: np.ndarray) -> np.ndarray:
    """Weights at 0 of the least-squares line through the points x."""
    xbar = float(np.mean(x))
    sxx = float(np.sum((x - xbar) ** 2))
    return 1.0 / len(x) - xbar * (x - xbar) / sxx


def _lagrange_weights(x: np.ndarray) -> np.ndarray:
    """Weights at 0 of the polynomial interpolating at the points x."""
    return np.array([np.prod([xj / (xj - xi) for xj in x if xj != xi]) for xi in x])


def zeta_residue(
    sym: MatrixSymbol,
    s_schedule=None,
    tol: float | None = None,
    start_cutoff: float = DEFAULT_START_CUTOFF,
    max_cutoff: float | None = None,
) -> ZetaResidue:
    """Residue at the origin of the zeta trace: lim s * f(-s) for s -> 0+.

    Defaults depend on the route: RADIAL_S_SCHEDULE and RADIAL_TOLERANCE
    for scalar symbols, ENVELOPE_S_SCHEDULE and ``default_tolerance`` of the
    group otherwise.  All s values are sampled in one doubling loop.
    """
    radial = sym.radial_fn is not None
    if s_schedule is None:
        s_schedule = RADIAL_S_SCHEDULE if radial else ENVELOPE_S_SCHEDULE
    if tol is None:
        tol = RADIAL_TOLERANCE if radial else default_tolerance(sym.group)
    s_schedule = [float(v) for v in s_schedule]
    if len(s_schedule) < 3:
        raise InvalidArgumentError("s schedule needs at least 3 values")
    if any(b >= a for a, b in zip(s_schedule, s_schedule[1:])) or min(s_schedule) <= 0.0:
        raise InvalidArgumentError("s schedule must be strictly decreasing and positive")
    samples = tuple(_zeta_samples(sym, s_schedule, tol, start_cutoff, max_cutoff))
    tail = samples[-3:]
    sv = np.array([smp.s for smp in tail])
    gv = np.array([smp.s * smp.value for smp in tail], dtype=np.complex128)
    weights = _lagrange_weights(sv)
    value = complex(weights @ gv)
    # the line through the two smallest s values
    g1, g2 = gv[-1], gv[-2]
    s1, s2 = sv[-1], sv[-2]
    line = complex(g1 - s1 * (g2 - g1) / (s2 - s1))
    propagated = float(
        np.sum(np.abs(weights) * np.array([smp.s * smp.tail_bound for smp in tail]))
    )
    bar = abs(value - line) + propagated
    flags = ()
    if abs(value - complex(_intercept_weights(sv) @ gv)) > 0.1 * abs(value) + propagated:
        flags = ("higher-order pole or wrong order",)
    return ZetaResidue(value=value, error_bar=bar, samples=samples, flags=flags)
