"""Spectral-zeta route to the residue, as an independent cross-check.

For an invariant symbol of critical order -n the weighted trace
f(-s) = sum over the dual of d * Tr sigma * weight**(-s) converges for
s > 0 and develops a simple pole C/s as s -> 0+; the residue of interest is
C = lim s * f(-s).  Samples of f are computed by truncating the dual sum at
a cutoff N chosen so that the envelope tail bound

    tail_bound(N) = 2 * c * rho * N**(-s) / s

falls below tol * max(1, |partial|); here c is the symbol's declared
envelope constant and rho the leading counting-density coefficient of the
group (vol(S^(n-1)) on the torus, 1 on SU(2), where the counting function
grows like t^3/3).  The uninflated tail integral c * rho * N**(-s)/s is
added back to the partial sum as a correction, steered by the phase of the
partial sum so that phase rotations of the symbol commute with sampling;
for envelope-saturating positive symbols this cancels the truncation error
to O(N**(-s-1)).

The residue is then read off by extrapolating g(s) = s * f(-s), which is
affine in s near zero, linearly to s = 0 over the three smallest samples.
The error bar combines extrapolant stability with the tail bounds
propagated through the extrapolation weights.  A quadratic fit deviating by
more than 10% flags a higher-order pole or a symbol of the wrong order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dualsum
from .errors import BudgetExceededError, InvalidArgumentError
from .groups import GroupModel
from .symbols import MatrixSymbol

DEFAULT_START_CUTOFF = 16.0
TAIL_SAFETY_FACTOR = 2.0
_ORDER_TOL = 1e-9

_TORUS_MAX_CUTOFF = {1: float(2**24), 2: float(2**11), 3: float(2**10)}


def default_max_cutoff(group: GroupModel) -> float:
    """Largest truncation cutoff the dual sums can afford by default."""
    if group.name == "SU2":
        return float(2**24)
    return _TORUS_MAX_CUTOFF[group.dim]


def default_s_schedule(group: GroupModel):
    """Evaluation points for the residue extrapolation, largest first.

    Smaller s means slower N**(-s) tail decay; on T^2 and T^3 the cutoff
    budget caps how small s can get.  Where the budget allows, the trailing
    points are packed close to zero to shrink the curvature bias of the
    linear extrapolation.
    """
    if group.name == "SU2" or group.dim == 1:
        return [1.6, 0.8, 0.4, 0.3, 0.2]
    return [1.6, 0.8, 0.4]


def default_tolerance(group: GroupModel) -> float:
    return 0.35 if (group.name != "SU2" and group.dim == 3) else 0.1


@dataclass(frozen=True)
class ZetaSample:
    """One truncated evaluation of f(-s) with its tail correction."""

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


def zeta_trace(
    sym: MatrixSymbol,
    s: float,
    tol: float,
    start_cutoff: float = DEFAULT_START_CUTOFF,
    max_cutoff: float | None = None,
    min_cutoff: float | None = None,
) -> ZetaSample:
    """Truncated evaluation of f(-s) = sum d * Tr sigma * weight**(-s).

    Doubles the truncation cutoff until the inflated envelope tail bound
    drops below tol * max(1, |partial|); raises BudgetExceededError (with
    the best sample attached) if the budget runs out first.  ``min_cutoff``
    forces a larger truncation than the stopping rule requires, which is
    useful for verifying the advertised tail bound.
    """
    _check_critical_order(sym)
    if s <= 0.0:
        raise InvalidArgumentError(f"s must be positive, got {s}")
    if tol <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol}")
    group = sym.group
    if max_cutoff is None:
        max_cutoff = default_max_cutoff(group)
    rho = group.density_coeff
    c_env = sym.envelope.constant

    def tail_model(cut: float) -> float:
        return c_env * rho * cut ** (-s) / s

    acc = complex(0.0)
    lo = 0.0
    hi = float(start_cutoff)
    best = None
    while True:
        acc += complex(dualsum.annulus_sums(sym, [hi], "signed", s, lo=lo)[0, 0])
        model = tail_model(hi)
        bound = TAIL_SAFETY_FACTOR * model
        mag = abs(acc)
        phase = acc / mag if mag > 0.0 else complex(1.0)
        sample = ZetaSample(
            s=float(s),
            value=acc + model * phase,
            truncation_cutoff=hi,
            tail_bound=bound,
            partial=acc,
            tail_correction=model * phase,
        )
        satisfied = bound <= tol * max(1.0, mag)
        forced = min_cutoff is not None and hi < min_cutoff
        if satisfied and not forced:
            return sample
        best = sample
        if hi >= max_cutoff:
            if satisfied:
                return sample
            raise BudgetExceededError(
                f"tail bound {bound:.3e} above tolerance at the cutoff budget {max_cutoff:g}",
                best=best,
            )
        lo = hi
        hi = min(hi * 2.0, float(max_cutoff))


def _intercept_weights(x: np.ndarray) -> np.ndarray:
    xbar = float(np.mean(x))
    sxx = float(np.sum((x - xbar) ** 2))
    return 1.0 / len(x) - xbar * (x - xbar) / sxx


def zeta_residue(
    sym: MatrixSymbol,
    s_schedule=None,
    tol: float | None = None,
    start_cutoff: float = DEFAULT_START_CUTOFF,
    max_cutoff: float | None = None,
) -> ZetaResidue:
    """Residue at the origin of the zeta trace: lim s * f(-s) for s -> 0+."""
    _check_critical_order(sym)
    if s_schedule is None:
        s_schedule = default_s_schedule(sym.group)
    if tol is None:
        tol = default_tolerance(sym.group)
    s_schedule = [float(v) for v in s_schedule]
    if len(s_schedule) < 3:
        raise InvalidArgumentError("s schedule needs at least 3 values")
    if any(b >= a for a, b in zip(s_schedule, s_schedule[1:])) or min(s_schedule) <= 0.0:
        raise InvalidArgumentError("s schedule must be strictly decreasing and positive")
    samples = tuple(
        zeta_trace(sym, s, tol, start_cutoff=start_cutoff, max_cutoff=max_cutoff)
        for s in s_schedule
    )
    tail = samples[-3:]
    sv = np.array([smp.s for smp in tail])
    gv = np.array([smp.s * smp.value for smp in tail], dtype=np.complex128)
    coef3 = np.polyfit(sv, gv, 1)
    value = complex(coef3[1])
    # two-point extrapolant through the two smallest s values
    g1, g2 = gv[-1], gv[-2]
    s1, s2 = sv[-1], sv[-2]
    value2 = complex(g1 - s1 * (g2 - g1) / (s2 - s1))
    weights = _intercept_weights(sv)
    propagated = float(
        np.sum(np.abs(weights) * np.array([smp.s * smp.tail_bound for smp in tail]))
    )
    bar = abs(value - value2) + propagated
    flags = ()
    quad = np.polyfit(sv, gv, 2)
    q0 = complex(quad[2])
    if abs(q0 - value) > 0.1 * abs(value) + propagated:
        flags = ("higher-order pole or wrong order",)
    return ZetaResidue(value=value, error_bar=bar, samples=samples, flags=flags)
