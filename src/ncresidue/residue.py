"""Assembly of the noncommutative residue from symbol fields.

Per quadrature node the degree -n symbol is decomposed into Hermitian real
and imaginary parts and their positive/negative spectral parts; the four
weak-l1 slopes of those parts combine into the frozen residue

    (||R+|| - ||R-||) + i (||I+|| - ||I-||)

and the Haar-weighted sum of the frozen residues over the nodes is the
residue of the field.  All four slopes per node come from a single pass
over the dual; dense symbols take one LAPACK call per class on the pair
(Re sigma, Im sigma), and the signed parts are read off the same spectra.

A real modulation a(x) * sigma(xi) factors out of the split: Re(a sigma) =
a Re sigma and Im(a sigma) = a Im sigma, so the four parts at a node are
|a(x_j)| times those of sigma, with + and - exchanged where a(x_j) < 0.
For such fields (``SymbolField.scaled``) the base symbol is summed over
the dual once and each node's series is its scaled copy; scaling after
the compensated sum rather than before changes only low-order bits.

For invariant fields the x-integral is skipped (the quadrature weights sum
to one), which keeps the result exact rather than multiplied by a rounded
weight sum.  Nodes whose slope fits do not converge are flagged instead of
aborting the whole integral; a report carrying any flagged node is marked
unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import dualsum, weakl1, zeta
from .errors import InvalidArgumentError, NumericalFailureError
from .symbols import Expansion, MatrixSymbol, SymbolField, extract_residue_component
from .weakl1 import SlopeEstimate, estimate_slope

NON_CLASSICAL_ORDER_FLAG = "non-classical order"
UNRELIABLE_FLAG = "unreliable"
_ORDER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FourNorms:
    """Weak-l1 slope estimates of the four signed spectral parts."""

    re_pos: SlopeEstimate
    re_neg: SlopeEstimate
    im_pos: SlopeEstimate
    im_neg: SlopeEstimate

    @property
    def value(self) -> complex:
        return complex(
            self.re_pos.value - self.re_neg.value,
            self.im_pos.value - self.im_neg.value,
        )

    @property
    def error_bar(self) -> float:
        return (
            self.re_pos.error_bar
            + self.re_neg.error_bar
            + self.im_pos.error_bar
            + self.im_neg.error_bar
        )

    @property
    def flags(self) -> tuple:
        if any(e.flags for e in (self.re_pos, self.re_neg, self.im_pos, self.im_neg)):
            return (NON_CLASSICAL_ORDER_FLAG,)
        return ()


@dataclass(frozen=True, eq=False)
class NodeResult:
    node: Optional[np.ndarray]
    weight: float
    norms: FourNorms


@dataclass(frozen=True, eq=False)
class CrossCheck:
    zeta_value: complex
    zeta_error: float
    agreement: bool


@dataclass(frozen=True, eq=False)
class ResidueReport:
    residue: complex
    total_error_bar: float
    per_node: tuple
    quadrature_resolution: int
    schedule: tuple
    flags: tuple = ()
    cross_check: Optional[CrossCheck] = None


def four_part_series(sym: MatrixSymbol, schedule):
    """Cumulative partial-sum series of the four signed parts, shape (J, 4)."""
    annuli = dualsum.annulus_sums(sym, schedule, "four")
    return dualsum.cumulative_sums(annuli)


def _four_norms(series: np.ndarray, schedule) -> FourNorms:
    if not np.all(np.isfinite(series)):
        raise NumericalFailureError("non-finite four-part partial sums")
    cutoffs = np.asarray(schedule, dtype=np.float64)
    try:
        norms = FourNorms(
            *(
                estimate_slope(weakl1.PartialSumSeries(cutoffs, series[:, c].copy(), "abs"))
                for c in range(4)
            )
        )
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"non-finite four-norm slope fit ({exc})") from exc
    # each fit is finite, but their signed combination can still overflow
    if not (np.isfinite(norms.value) and np.isfinite(norms.error_bar)):
        raise NumericalFailureError("non-finite four-norm slope fit")
    return norms


def frozen_residue(sym: MatrixSymbol, schedule) -> FourNorms:
    """Four-norm decomposition of an invariant symbol of critical order."""
    n = sym.group.dim
    if abs(sym.envelope.order + n) > _ORDER_TOL:
        raise InvalidArgumentError(
            f"frozen residue needs order {-n}, envelope declares {sym.envelope.order}"
        )
    return _four_norms(four_part_series(sym, schedule), schedule)


def wodzicki_residue(field: SymbolField, schedule) -> ResidueReport:
    """Residue of a degree -n symbol field: Haar integral of frozen residues."""
    n = field.group.dim
    if abs(field.degree + n) > _ORDER_TOL:
        raise InvalidArgumentError(
            f"field degree {field.degree} is not the critical order {-n}"
        )
    quad = field.quadrature
    if field.scaled is None:
        resolved = [(sym, 1.0) for sym in field.node_symbols]
    else:
        base, factors = field.scaled
        resolved = [(base, float(a)) for a in factors]
    series_of: dict[int, np.ndarray] = {}
    norms_of: dict[tuple, FourNorms] = {}
    node_results = []
    for node, w, (sym, a) in zip(quad.nodes, quad.weights, resolved):
        key = (id(sym), a)
        norms = norms_of.get(key)
        if norms is None:
            series = series_of.get(id(sym))
            if series is None:
                series = series_of[id(sym)] = four_part_series(sym, schedule)
            if a != 1.0:
                # columns (R+, R-, I+, I-); a negative factor swaps the signs
                series = abs(a) * (series[:, [1, 0, 3, 2]] if a < 0.0 else series)
            norms = norms_of[key] = _four_norms(series, schedule)
        node_results.append(NodeResult(node=node, weight=float(w), norms=norms))
    if field.invariant:
        # weights sum to one; reuse the single frozen value exactly
        residue = node_results[0].norms.value
        total_error = node_results[0].norms.error_bar
    else:
        residue = complex(0.0)
        total_error = 0.0
        for nr in node_results:
            residue += nr.weight * nr.norms.value
            total_error += nr.weight * nr.norms.error_bar
    flags: list[str] = []
    for j, nr in enumerate(node_results):
        for f in nr.norms.flags:
            flags.append(f"node {j}: {f}")
    if flags:
        flags.append(UNRELIABLE_FLAG)
    return ResidueReport(
        residue=residue,
        total_error_bar=total_error,
        per_node=tuple(node_results),
        quadrature_resolution=quad.resolution,
        schedule=tuple(float(x) for x in schedule),
        flags=tuple(flags),
    )


def residue_from_expansion(expansion: Expansion, schedule) -> ResidueReport:
    """Residue of a classical expansion: only the degree -n component counts."""
    extracted = extract_residue_component(expansion, expansion.group.dim)
    report = wodzicki_residue(extracted.field, schedule)
    if extracted.flags:
        report = replace(report, flags=extracted.flags + report.flags)
    return report


def attach_zeta_cross_check(
    report: ResidueReport,
    field: SymbolField,
    s_schedule=None,
    tol: float | None = None,
    max_cutoff: float | None = None,
) -> ResidueReport:
    """Cross-validate an invariant field against the zeta-residue route.

    Agreement means the two values differ by at most the sum of both error
    bars plus 2% of the larger magnitude.
    """
    if not field.invariant:
        return replace(report, flags=report.flags + ("cross-check skipped: field not invariant",))
    zres = zeta.zeta_residue(
        field.node_symbols[0], s_schedule=s_schedule, tol=tol, max_cutoff=max_cutoff
    )
    allow = report.total_error_bar + zres.error_bar + 0.02 * max(
        abs(report.residue), abs(zres.value)
    )
    agreement = abs(report.residue - zres.value) <= allow
    check = CrossCheck(zeta_value=zres.value, zeta_error=zres.error_bar, agreement=agreement)
    flags = report.flags
    if not agreement:
        flags = flags + ("zeta cross-check disagrees",)
    return replace(report, cross_check=check, flags=flags)
