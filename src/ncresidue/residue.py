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

Every distinct (symbol, factor) pair of a field contributes four rows, and
all of them are fitted in one ``weakl1._estimate_slopes`` call (two
closed-form ``_fit`` passes, however many nodes); a row's estimate is the
one it would get alone.  A non-finite scaled series, slope fit or signed
combination of four norms raises NumericalFailureError.

For invariant fields the x-integral is skipped (the quadrature weights sum
to one), which keeps the result exact rather than multiplied by a rounded
weight sum.  Nodes whose slope fits look non-classical are flagged instead
of aborting the whole integral; a report carrying any flagged node is
marked unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import dualsum, weakl1, zeta
from .errors import NumericalFailureError
from .symbols import Expansion, MatrixSymbol, SymbolField, check_critical_order, extract_residue_component
from .weakl1 import SlopeEstimate

NON_CLASSICAL_ORDER_FLAG = "non-classical order"
UNRELIABLE_FLAG = "unreliable"


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


_SIGN_SWAP = [1, 0, 3, 2]  # (R+, R-, I+, I-) of -sigma


def _four_norms(series: list, schedule) -> list:
    """Four-norm estimates of (J, 4) part series, all fitted in one ``_estimate_slopes`` call."""
    rows = np.concatenate([s.T for s in series])
    if not np.all(np.isfinite(rows)):
        raise NumericalFailureError("non-finite four-part partial sums")
    weakl1._check_nondecreasing(rows)
    try:
        estimates = weakl1._estimate_slopes(schedule, rows)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"non-finite four-norm slope fit ({exc})") from exc
    norms = [FourNorms(*estimates[i : i + 4]) for i in range(0, len(estimates), 4)]
    # each fit is finite, but their signed combination can still overflow
    if not all(np.isfinite(f.value) and np.isfinite(f.error_bar) for f in norms):
        raise NumericalFailureError("non-finite four-norm slope fit")
    return norms


def frozen_residue(sym: MatrixSymbol, schedule) -> FourNorms:
    """Four-norm decomposition of an invariant symbol of critical order."""
    check_critical_order(sym.group, sym.envelope.order, "frozen residue: envelope order")
    return _four_norms([four_part_series(sym, schedule)], schedule)[0]


def wodzicki_residue(field: SymbolField, schedule) -> ResidueReport:
    """Residue of a degree -n symbol field: Haar integral of frozen residues."""
    check_critical_order(field.group, field.degree, "field degree")
    quad = field.quadrature
    if field.scaled is None:
        resolved = [(sym, 1.0) for sym in field.node_symbols]
    else:
        base, factors = field.scaled
        resolved = [(base, float(a)) for a in factors]
    series_of: dict[int, np.ndarray] = {}
    for sym, _ in resolved:
        if id(sym) not in series_of:
            series_of[id(sym)] = four_part_series(sym, schedule)
    # one (symbol, factor) column of the fit per distinct pair, in node order;
    # a negative factor swaps the signs of the parts
    keys = list(dict.fromkeys((id(sym), a) for sym, a in resolved))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite column is refused by _four_norms
        columns = [abs(a) * series_of[i][:, _SIGN_SWAP if a < 0.0 else slice(None)] for i, a in keys]
    norms_of = dict(zip(keys, _four_norms(columns, schedule)))
    node_results = [
        NodeResult(node=node, weight=float(w), norms=norms_of[id(sym), a])
        for node, w, (sym, a) in zip(quad.nodes, quad.weights, resolved)
    ]
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
