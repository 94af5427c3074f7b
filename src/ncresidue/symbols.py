"""Matrix-valued symbols on the unitary dual, and x-dependent symbol fields.

A ``MatrixSymbol`` maps each dual class to a square complex matrix of the
class dimension.  Symbols carry a structure tag -- ``scalar`` (a multiple of
the identity, given by a radial profile of the elliptic weight),
``diagonal`` (a per-class diagonal vector), or ``dense`` -- and a declared
decay envelope ``||sigma(xi)||_op <= constant * weight**order``.  Envelopes
are trusted but spot-checked on a prefix of the dual at construction time.

Symbols are evaluators, not tables: the dual is unbounded, so values are
computed on demand.  Evaluators must be pure, which keeps every reduction
over the dual reproducible.

An x-dependent homogeneous component is represented by a ``SymbolField``:
one frozen symbol per Haar quadrature node.  ``Expansion`` stacks such
components with degrees decreasing by one from the operator order;
``extract_residue_component`` selects the degree -n component that the
residue formula consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgumentError
from .groups import DualElement, GroupModel, QuadratureRule

SPOT_CHECK_CLASSES = 1000
_SPOT_CHECK_DENSE_CLASSES = 100
_DEGREE_TOL = 1e-9


@dataclass(frozen=True)
class DecayEnvelope:
    """Declared operator-norm bound constant * weight**order."""

    constant: float
    order: float

    def __post_init__(self):
        if self.constant < 0.0 or not np.isfinite(self.constant):
            raise InvalidArgumentError("envelope constant must be finite and >= 0")
        if not np.isfinite(self.order):
            raise InvalidArgumentError("envelope order must be finite")

    def bound(self, weights):
        return self.constant * np.asarray(weights, dtype=np.float64) ** self.order


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """An x-independent symbol: dual class -> d x d complex matrix."""

    group: GroupModel
    structure: str  # "scalar" | "diagonal" | "dense"
    envelope: DecayEnvelope
    matrix_fn: Callable[[DualElement], np.ndarray]
    radial_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diag_fn: Optional[Callable[[DualElement], np.ndarray]] = None

    def evaluate(self, xi: DualElement) -> np.ndarray:
        mat = np.asarray(self.matrix_fn(xi), dtype=np.complex128)
        if mat.shape != (xi.dim, xi.dim):
            raise InvalidArgumentError(
                f"evaluator returned shape {mat.shape} for a class of dimension {xi.dim}"
            )
        return mat

    def diagonal(self, xi: DualElement) -> np.ndarray:
        """Diagonal vector; only for scalar/diagonal structure."""
        if self.diag_fn is None:
            raise InvalidArgumentError("symbol has no diagonal fast path")
        vec = np.asarray(self.diag_fn(xi), dtype=np.complex128)
        if vec.shape != (xi.dim,):
            raise InvalidArgumentError(
                f"diagonal evaluator returned shape {vec.shape} for dimension {xi.dim}"
            )
        return vec

    def radial_profile(self, weights: np.ndarray) -> np.ndarray:
        if self.radial_fn is None:
            raise InvalidArgumentError("symbol has no radial profile")
        return np.asarray(self.radial_fn(np.asarray(weights, dtype=np.float64)), dtype=np.complex128)


def _spot_cutoff(group: GroupModel, max_classes: int) -> float:
    cutoff = 4.0
    while True:
        count = 0
        for chunk in group.dual_chunks(0.0, cutoff):
            count += len(chunk)
        if count >= max_classes or cutoff >= 1024.0:
            return cutoff
        cutoff *= 2.0


def _operator_norm_estimate(mat: np.ndarray) -> float:
    # Deterministic power iteration on sigma* sigma; a slight underestimate,
    # which never rejects a valid envelope.
    d = mat.shape[0]
    gram = mat.conj().T @ mat
    v = np.ones(d) / np.sqrt(d)
    for _ in range(50):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def _check_envelope(sym: MatrixSymbol) -> None:
    limit = SPOT_CHECK_CLASSES if sym.structure != "dense" else _SPOT_CHECK_DENSE_CLASSES
    cap = 1024.0 if sym.structure != "dense" else 32.0
    cutoff = min(_spot_cutoff(sym.group, limit), cap)
    seen = 0
    for chunk in sym.group.dual_chunks(0.0, cutoff):
        if sym.structure == "scalar":
            norms = np.abs(sym.radial_profile(chunk.weights))
            bounds = sym.envelope.bound(chunk.weights)
            bad = norms > bounds * (1.0 + 1e-9) + 1e-300
            if bad.any():
                i = int(np.argmax(bad))
                raise InvalidArgumentError(
                    f"decay envelope violated at weight {chunk.weights[i]:g}: "
                    f"|sigma| = {norms[i]:g} > {bounds[i]:g}"
                )
            seen += len(chunk)
        else:
            for el in chunk.elements():
                if sym.structure == "diagonal":
                    norm = float(np.max(np.abs(sym.diagonal(el)))) if el.dim else 0.0
                else:
                    norm = _operator_norm_estimate(sym.evaluate(el))
                bound = sym.envelope.constant * el.weight**sym.envelope.order
                if norm > bound * (1.0 + 1e-9) + 1e-300:
                    raise InvalidArgumentError(
                        f"decay envelope violated at {el.label}: "
                        f"|sigma| = {norm:g} > {bound:g}"
                    )
                seen += 1
                if seen >= limit:
                    return
        if seen >= limit:
            return


def scalar_symbol(
    group: GroupModel,
    profile: Callable[[np.ndarray], np.ndarray],
    envelope: DecayEnvelope,
    check: bool = True,
) -> MatrixSymbol:
    """Scalar symbol sigma(xi) = profile(<xi>) * I.

    The profile must accept a float64 array of weights and return values
    elementwise (it is evaluated in bulk on the radial fast path).
    """

    def matrix_fn(xi: DualElement) -> np.ndarray:
        c = complex(np.asarray(profile(np.array([xi.weight])), dtype=np.complex128)[0])
        return c * np.eye(xi.dim, dtype=np.complex128)

    def diag_fn(xi: DualElement) -> np.ndarray:
        c = complex(np.asarray(profile(np.array([xi.weight])), dtype=np.complex128)[0])
        return np.full(xi.dim, c, dtype=np.complex128)

    sym = MatrixSymbol(group, "scalar", envelope, matrix_fn, radial_fn=profile, diag_fn=diag_fn)
    if check:
        _check_envelope(sym)
    return sym


def weight_power_symbol(group: GroupModel, coeff: complex, alpha: float) -> MatrixSymbol:
    """sigma(xi) = coeff * <xi>**alpha * I, the basic invariant test family."""
    coeff = complex(coeff)

    def profile(w: np.ndarray) -> np.ndarray:
        return coeff * w**alpha

    return scalar_symbol(group, profile, DecayEnvelope(abs(coeff), alpha), check=False)


def diagonal_symbol(
    group: GroupModel,
    diag: Callable[[DualElement], np.ndarray],
    envelope: DecayEnvelope,
    check: bool = True,
) -> MatrixSymbol:
    """Symbol whose value at each class is the diagonal matrix diag(xi)."""

    def matrix_fn(xi: DualElement) -> np.ndarray:
        return np.diag(np.asarray(diag(xi), dtype=np.complex128))

    sym = MatrixSymbol(group, "diagonal", envelope, matrix_fn, diag_fn=diag)
    if check:
        _check_envelope(sym)
    return sym


def diag_signed_symbol(group: GroupModel, alpha: float) -> MatrixSymbol:
    """The alternating-sign diagonal test: diag(+1, -1, +1, ...) * <xi>**alpha."""

    def diag(xi: DualElement) -> np.ndarray:
        signs = np.where(np.arange(xi.dim) % 2 == 0, 1.0, -1.0)
        return (xi.weight**alpha * signs).astype(np.complex128)

    return diagonal_symbol(group, diag, DecayEnvelope(1.0, alpha), check=False)


def dense_symbol(
    group: GroupModel,
    evaluator: Callable[[DualElement], np.ndarray],
    envelope: DecayEnvelope,
    check: bool = True,
) -> MatrixSymbol:
    sym = MatrixSymbol(group, "dense", envelope, evaluator)
    if check:
        _check_envelope(sym)
    return sym


def zero_symbol(group: GroupModel, order: float) -> MatrixSymbol:
    return scalar_symbol(
        group, lambda w: np.zeros_like(w, dtype=np.complex128), DecayEnvelope(0.0, order), check=False
    )


def add_symbols(a: MatrixSymbol, b: MatrixSymbol) -> MatrixSymbol:
    """Pointwise sum; envelopes combine by the triangle inequality."""
    if a.group != b.group:
        raise InvalidArgumentError(
            f"cannot add symbols on different groups ({a.group} vs {b.group})"
        )
    env = DecayEnvelope(
        a.envelope.constant + b.envelope.constant,
        max(a.envelope.order, b.envelope.order),
    )
    if a.radial_fn is not None and b.radial_fn is not None:
        fa, fb = a.radial_fn, b.radial_fn
        return scalar_symbol(a.group, lambda w: np.asarray(fa(w)) + np.asarray(fb(w)), env, check=False)
    if a.diag_fn is not None and b.diag_fn is not None:
        da, db = a.diag_fn, b.diag_fn
        return diagonal_symbol(a.group, lambda xi: np.asarray(da(xi)) + np.asarray(db(xi)), env, check=False)
    ea, eb = a.evaluate, b.evaluate
    return dense_symbol(a.group, lambda xi: ea(xi) + eb(xi), env, check=False)


def scale_symbol(c: complex, a: MatrixSymbol) -> MatrixSymbol:
    c = complex(c)
    env = DecayEnvelope(abs(c) * a.envelope.constant, a.envelope.order)
    if a.radial_fn is not None:
        fa = a.radial_fn
        return scalar_symbol(a.group, lambda w: c * np.asarray(fa(w)), env, check=False)
    if a.diag_fn is not None:
        da = a.diag_fn
        return diagonal_symbol(a.group, lambda xi: c * np.asarray(da(xi)), env, check=False)
    ea = a.evaluate
    return dense_symbol(a.group, lambda xi: c * ea(xi), env, check=False)


@dataclass(frozen=True, eq=False)
class SymbolField:
    """One frozen symbol per quadrature node: x |-> sigma(x, .) of fixed degree.

    ``scaled``, when set, is ``(base, factors)`` with real ``factors`` such
    that ``node_symbols[j]`` is ``factors[j] * base``.  The residue then
    sums the base over the dual once and scales its series per node
    instead of summing every node symbol; ``node_symbols`` still holds the
    scaled symbols for every other consumer.
    """

    quadrature: QuadratureRule
    node_symbols: tuple
    degree: float
    invariant: bool = False
    scaled: Optional[tuple] = None

    def __post_init__(self):
        if len(self.node_symbols) != self.quadrature.nodes.shape[0]:
            raise InvalidArgumentError("one symbol per quadrature node is required")
        if self.scaled is not None:
            base, factors = self.scaled
            if (
                len(factors) != len(self.node_symbols)
                or base.group != self.node_symbols[0].group
                or abs(base.envelope.order - self.degree) > _DEGREE_TOL
            ):
                raise InvalidArgumentError(
                    "scaled needs a base of the field's group and degree and one factor per node"
                )
        group = self.node_symbols[0].group
        for sym in self.node_symbols:
            if sym.group != group:
                raise InvalidArgumentError("all node symbols must share one group")
            if abs(sym.envelope.order - self.degree) > _DEGREE_TOL:
                raise InvalidArgumentError(
                    f"node symbol order {sym.envelope.order} differs from field degree {self.degree}"
                )

    @property
    def group(self) -> GroupModel:
        return self.node_symbols[0].group


def invariant_field(
    sym: MatrixSymbol, quadrature: Optional[QuadratureRule] = None
) -> SymbolField:
    """Field with the same symbol at every node (x-independent)."""
    if quadrature is None:
        quadrature = sym.group.haar_quadrature(1)
    n = quadrature.nodes.shape[0]
    return SymbolField(quadrature, (sym,) * n, sym.envelope.order, invariant=True)


def modulated_field(
    a: Callable[[np.ndarray], complex],
    sym: MatrixSymbol,
    quadrature: QuadratureRule,
    degree: float,
) -> SymbolField:
    """Field sigma(x, xi) = a(x) * sym(xi) sampled at the quadrature nodes.

    When every sampled a(x_j) is real and they are not all equal, the field
    records ``scaled = (sym, (a(x_0), a(x_1), ...))``.
    """
    if abs(sym.envelope.order - degree) > _DEGREE_TOL:
        raise InvalidArgumentError(
            f"symbol order {sym.envelope.order} does not match the field degree {degree}"
        )
    values = [complex(a(node)) for node in quadrature.nodes]
    if all(v == values[0] for v in values):
        shared = scale_symbol(values[0], sym)
        return SymbolField(quadrature, (shared,) * len(values), degree, invariant=True)
    nodes = tuple(scale_symbol(v, sym) for v in values)
    scaled = None
    if all(v.imag == 0.0 for v in values):
        scaled = (sym, tuple(v.real for v in values))
    return SymbolField(quadrature, nodes, degree, invariant=False, scaled=scaled)


def combine_fields(coeffs, fields) -> SymbolField:
    """Nodewise linear combination of fields on one quadrature rule."""
    if not fields:
        raise InvalidArgumentError("need at least one field")
    quad = fields[0].quadrature
    for f in fields[1:]:
        if f.quadrature is not quad:
            raise InvalidArgumentError("fields must share the same quadrature rule")
    degree = fields[0].degree
    for f in fields[1:]:
        if abs(f.degree - degree) > _DEGREE_TOL:
            raise InvalidArgumentError("fields must share one degree")
    n = quad.nodes.shape[0]
    nodes = []
    for j in range(n):
        acc = scale_symbol(coeffs[0], fields[0].node_symbols[j])
        for c, f in zip(coeffs[1:], fields[1:]):
            acc = add_symbols(acc, scale_symbol(c, f.node_symbols[j]))
        nodes.append(acc)
    invariant = all(f.invariant for f in fields)
    if invariant:
        shared = nodes[0]
        return SymbolField(quad, (shared,) * n, degree, invariant=True)
    return SymbolField(quad, tuple(nodes), degree, invariant=False)


@dataclass(frozen=True, eq=False)
class Expansion:
    """Homogeneous components (degree, field) with degrees order - k."""

    group: GroupModel
    order: float
    components: tuple

    def __post_init__(self):
        for k, (degree, field) in enumerate(self.components):
            if abs(degree - (self.order - k)) > _DEGREE_TOL:
                raise InvalidArgumentError(
                    f"component {k} has degree {degree}, expected {self.order - k}"
                )
            if abs(field.degree - degree) > _DEGREE_TOL:
                raise InvalidArgumentError(
                    f"component {k} field degree {field.degree} != declared {degree}"
                )
            if field.group != self.group:
                raise InvalidArgumentError("component group mismatch")


@dataclass(frozen=True, eq=False)
class ExtractedComponent:
    field: SymbolField
    flags: tuple


def extract_residue_component(expansion: Expansion, n: int) -> ExtractedComponent:
    """Select the degree -n component that carries the residue.

    Orders below -n give an exactly zero field (the residue vanishes).  If
    the expansion should contain a degree -n slot but does not, the zero
    field is returned together with a "component missing" flag.
    """
    target = -float(n)
    zero = invariant_field(zero_symbol(expansion.group, target))
    if expansion.order < target - _DEGREE_TOL:
        return ExtractedComponent(zero, ())
    for degree, field in expansion.components:
        if abs(degree - target) <= _DEGREE_TOL:
            return ExtractedComponent(field, ())
    return ExtractedComponent(zero, ("component missing",))
