"""Noncommutative residues on compact Lie groups from global matrix symbols.

The residue of a classical operator of critical order -n is computed from
the degree -n component of its symbol: per point of the group, the weak-l1
quasi-norms of the four signed spectral parts of the frozen symbol are
estimated as log-slopes of dual partial sums and integrated against the
Haar measure.  A spectral-zeta extrapolation provides an independent
cross-check for invariant symbols.
"""

from .errors import (
    BudgetExceededError,
    ConfigError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .groups import (
    SU2,
    DualElement,
    GroupModel,
    QuadratureRule,
    Torus,
    enumerate_dual,
    sphere_surface,
    su2_character,
    su2_class_cosine,
)
from .residue import (
    CrossCheck,
    FourNorms,
    NodeResult,
    ResidueReport,
    attach_zeta_cross_check,
    frozen_residue,
    residue_from_expansion,
    wodzicki_residue,
)
from .symbols import (
    DecayEnvelope,
    Expansion,
    MatrixSymbol,
    SymbolField,
    add_symbols,
    combine_fields,
    dense_symbol,
    diag_signed_symbol,
    diagonal_symbol,
    extract_residue_component,
    invariant_field,
    modulated_field,
    scalar_symbol,
    scale_symbol,
    weight_power_symbol,
    zero_symbol,
)
from .weakl1 import (
    PartialSumSeries,
    SlopeEstimate,
    estimate_slope,
    geometric_schedule,
    partial_sum,
    sum_series,
)
from .zeta import ZetaResidue, ZetaSample, zeta_residue, zeta_trace

__version__ = "0.1.0"
