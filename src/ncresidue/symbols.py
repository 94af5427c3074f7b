"""Matrix-valued symbols on the unitary dual, and x-dependent symbol fields.

A ``MatrixSymbol`` maps each dual class to a square complex matrix of the
class dimension.  Symbols carry a structure tag -- ``scalar`` (a multiple of
the identity, given by a radial profile of the elliptic weight),
``diagonal`` (a per-class diagonal vector), or ``dense`` -- and a declared
decay envelope ``||sigma(xi)||_op <= constant * weight**order``.  Envelopes
are trusted but spot-checked on the lowest-weight annuli of the dual at
construction time.

Symbols are evaluators, not tables: the dual is unbounded, so values are
computed on demand.  Evaluators must be pure, which keeps every reduction
over the dual reproducible.

Every symbol meets one spectral-diagonal contract,
``MatrixSymbol.chunk_spectra(chunk, mode)``: one flat complex vector in
chunk order, d entries per class, whose per-class sums a dual reduction
needs for the mode.  A scalar or diagonal class gives its diagonal in
every mode.  A dense class is evaluated as a matrix and gives its diagonal
(``signed``), its singular values (``abs``), or the eigenvalues of Re sigma
and Im sigma as the real and imaginary parts (``four``); spectral values
within ZERO_EIGENVALUE_FACTOR * ||.||_F of zero are zeroed.  A dense class
with a non-finite entry gives NaN entries in ``abs`` and ``four``, so a
dual sum over it raises NumericalFailureError there, as in ``signed``
when the entry is on the diagonal (the trace ignores the others).  The
envelope spot check walks the annuli (0, 4], (4, 8], ... until it has seen
SPOT_CHECK_CLASSES classes (100 for dense symbols) or reached weight 1024
(32 for dense symbols).  It reads the operator norm of a class as the
largest modulus of its ``abs`` entries, and refuses a norm that is not
within the envelope, NaN included, with InvalidArgumentError naming the
class.

A scalar symbol holds only its radial profile ``radial_fn``; its chunk
diagonals repeat the profile d times per class.  A diagonal symbol stores a
chunk evaluator, ``diag_fn``: it maps a ``DualChunk`` to the diagonals of
the chunk's classes concatenated in chunk order (length sum of d), so a
dual sum evaluates them one chunk at a time.  ``diagonal_symbol`` keeps a
per-class ``diag(xi)`` signature and wraps it in a loop over the chunk's
classes; ``diag_signed_symbol`` is vectorised.  Pointwise combinations
(``add_symbols``, ``scale_symbol``, ``combine_fields``) are built by one
constructor, which keeps the scalar or diagonal structure when every term
has it.
``MatrixSymbol.diagonal`` evaluates the one-class chunk of a class, and
``evaluate`` is its diagonal matrix.

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

from . import matcalc
from .errors import InvalidArgumentError
from .groups import DualChunk, DualElement, GroupModel, QuadratureRule

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
    """An x-independent symbol: dual class -> d x d complex matrix.

    ``matrix_fn`` is None for scalar and diagonal structure, whose matrix is
    the diagonal of ``chunk_diagonals``.
    """

    group: GroupModel
    structure: str  # "scalar" | "diagonal" | "dense"
    envelope: DecayEnvelope
    matrix_fn: Optional[Callable[[DualElement], np.ndarray]]
    radial_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diag_fn: Optional[Callable[[DualChunk], np.ndarray]] = None

    def evaluate(self, xi: DualElement) -> np.ndarray:
        if self.matrix_fn is None:
            return np.diag(self.diagonal(xi))
        mat = np.asarray(self.matrix_fn(xi), dtype=np.complex128)
        if mat.shape != (xi.dim, xi.dim):
            raise InvalidArgumentError(
                f"evaluator returned shape {mat.shape} for a class of dimension {xi.dim}"
            )
        return mat

    def chunk_diagonals(self, chunk: DualChunk) -> np.ndarray:
        """The chunk's diagonals as one flat vector; only for scalar/diagonal structure."""
        if self.radial_fn is not None:
            return np.repeat(self.radial_profile(chunk.weights), chunk.dims.astype(np.int64))
        if self.diag_fn is None:
            raise InvalidArgumentError("symbol has no diagonal fast path")
        entries = int(chunk.dims.sum())
        vec = np.asarray(self.diag_fn(chunk), dtype=np.complex128)
        if vec.shape != (entries,):
            raise InvalidArgumentError(
                f"diagonal evaluator returned shape {vec.shape} for {entries} entries"
            )
        return vec

    def chunk_spectra(self, chunk: DualChunk, mode: str) -> np.ndarray:
        """The chunk's spectral diagonals for a reduction ``mode``, one flat complex vector.

        In chunk order, d entries per class: the diagonal of a scalar or
        diagonal class; for a dense class its diagonal (``signed``), its
        singular values (``abs``), or the eigenvalues of Re sigma as real
        parts and those of Im sigma as imaginary parts (``four``), solved
        with numpy's OpenBLAS on one thread.
        """
        if mode not in ("abs", "signed", "four"):
            raise InvalidArgumentError(f"unknown reduction mode {mode!r}")
        if self.matrix_fn is None:
            return self.chunk_diagonals(chunk)
        with matcalc.one_blas_thread():
            parts = [_dense_spectrum(self.evaluate(el), mode) for el in chunk.elements()]
        return np.concatenate(parts).astype(np.complex128, copy=False)

    def diagonal(self, xi: DualElement) -> np.ndarray:
        """Diagonal vector of one class, from its one-class chunk."""
        return self.chunk_diagonals(DualChunk.of(self.group, xi))

    def radial_profile(self, weights: np.ndarray) -> np.ndarray:
        if self.radial_fn is None:
            raise InvalidArgumentError("symbol has no radial profile")
        return np.asarray(self.radial_fn(np.asarray(weights, dtype=np.float64)), dtype=np.complex128)


def _dense_spectrum(mat: np.ndarray, mode: str) -> np.ndarray:
    if mode == "signed":
        return np.diagonal(mat)
    # evaluate has checked the shape, so matcalc can only refuse a non-finite
    # class: it gives NaN entries, refused by a dual sum as a non-finite sum
    # and by the envelope spot check as a violation at the class
    try:
        if mode == "abs":
            return matcalc.singular_values(mat)
        re, im = matcalc.part_eigenvalues(mat)
    except InvalidArgumentError:
        return np.full(len(mat), np.nan, dtype=np.complex128)
    return re + 1j * im


def check_degree(degree: float, expected: float, what: str) -> None:
    """Refuse ``what``, of degree or order ``degree``, unless it is ``expected`` up to rounding."""
    if abs(degree - expected) > _DEGREE_TOL:
        raise InvalidArgumentError(f"{what} {degree} is not the expected {expected}")


def check_critical_order(group: GroupModel, order: float, what: str) -> None:
    """Refuse ``what``, of degree or order ``order``, unless that is -n on the n-dimensional group."""
    check_degree(order, -group.dim, f"{what} (critical order)")


def _check_envelope(sym: MatrixSymbol) -> MatrixSymbol:
    """``sym`` if its envelope holds on the lowest-weight annuli, else InvalidArgumentError."""
    dense = sym.structure == "dense"
    limit, cap = (_SPOT_CHECK_DENSE_CLASSES, 32.0) if dense else (SPOT_CHECK_CLASSES, 1024.0)
    seen, lo = 0, 0.0
    while seen < limit and lo < cap:
        hi = max(4.0, 2.0 * lo)
        for chunk in sym.group.dual_chunks(lo, hi):
            # the largest |diagonal entry| or singular value of each class
            dims = chunk.dims.astype(np.int64)
            norms = np.maximum.reduceat(np.abs(sym.chunk_spectra(chunk, "abs")), np.cumsum(dims) - dims)
            bounds = sym.envelope.bound(chunk.weights)
            bad = ~(norms <= bounds * (1.0 + 1e-9) + 1e-300)  # NaN norms are refused too
            if bad.any():
                i = int(np.argmax(bad))
                raise InvalidArgumentError(
                    f"decay envelope violated at {chunk.elements()[i].label} (weight {chunk.weights[i]:g}): "
                    f"|sigma| = {norms[i]:g} > {bounds[i]:g}"
                )
            seen += len(chunk)
        lo = hi
    return sym


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
    sym = MatrixSymbol(group, "scalar", envelope, None, radial_fn=profile)
    return _check_envelope(sym) if check else sym


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
    """Symbol whose value at each class is the diagonal matrix diag(xi).

    ``diag`` is called once per class; a vector of the wrong length raises
    InvalidArgumentError naming the class.
    """

    def diag_fn(chunk: DualChunk) -> np.ndarray:
        parts = []
        for xi in chunk.elements():
            vec = np.asarray(diag(xi), dtype=np.complex128)
            if vec.shape != (xi.dim,):
                raise InvalidArgumentError(
                    f"diagonal evaluator returned shape {vec.shape} at {xi.label} of dimension {xi.dim}"
                )
            parts.append(vec)
        return np.concatenate(parts)

    sym = MatrixSymbol(group, "diagonal", envelope, None, diag_fn=diag_fn)
    return _check_envelope(sym) if check else sym


def diag_signed_symbol(group: GroupModel, alpha: float) -> MatrixSymbol:
    """The alternating-sign diagonal test: diag(+1, -1, +1, ...) * <xi>**alpha."""

    def diag_fn(chunk: DualChunk) -> np.ndarray:
        dims = chunk.dims.astype(np.int64)
        # entry j of a class at chunk offset o sits at position o + j, so its
        # sign (-1)**j alternates over the chunk, flipped where o is odd
        start_signs = 1.0 - 2.0 * ((np.cumsum(dims) - dims) & 1)
        out = np.zeros(int(dims.sum()), dtype=np.complex128)
        out.real = np.repeat(chunk.weights**alpha * start_signs, dims)
        out.real[1::2] *= -1.0
        return out

    return MatrixSymbol(group, "diagonal", DecayEnvelope(1.0, alpha), None, diag_fn=diag_fn)


def dense_symbol(
    group: GroupModel,
    evaluator: Callable[[DualElement], np.ndarray],
    envelope: DecayEnvelope,
    check: bool = True,
) -> MatrixSymbol:
    sym = MatrixSymbol(group, "dense", envelope, evaluator)
    return _check_envelope(sym) if check else sym


def zero_symbol(group: GroupModel, order: float) -> MatrixSymbol:
    return scalar_symbol(
        group, lambda w: np.zeros_like(w, dtype=np.complex128), DecayEnvelope(0.0, order), check=False
    )


def _combine(coeffs, syms) -> MatrixSymbol:
    """Pointwise sum of c_k * sym_k over one group; envelopes combine by the triangle inequality.

    The sum is scalar if every term is, diagonal if every term is scalar or
    diagonal, and dense otherwise.
    """
    coeffs = [complex(c) for c in coeffs]
    group = syms[0].group
    for sym in syms[1:]:
        if sym.group != group:
            raise InvalidArgumentError(f"cannot combine symbols on different groups ({group} vs {sym.group})")
    env = DecayEnvelope(
        sum(abs(c) * sym.envelope.constant for c, sym in zip(coeffs, syms)),
        max(sym.envelope.order for sym in syms),
    )

    def combined(fns):
        def fn(arg):
            terms = [c * np.asarray(f(arg)) for c, f in zip(coeffs, fns)]
            return sum(terms[1:], terms[0])

        return fn

    if all(sym.radial_fn is not None for sym in syms):
        return scalar_symbol(group, combined([sym.radial_fn for sym in syms]), env, check=False)
    if all(sym.matrix_fn is None for sym in syms):
        return MatrixSymbol(group, "diagonal", env, None, diag_fn=combined([sym.chunk_diagonals for sym in syms]))
    return MatrixSymbol(group, "dense", env, combined([sym.evaluate for sym in syms]))


def add_symbols(a: MatrixSymbol, b: MatrixSymbol) -> MatrixSymbol:
    """Pointwise sum; envelopes combine by the triangle inequality."""
    return _combine((1.0, 1.0), (a, b))


def scale_symbol(c: complex, a: MatrixSymbol) -> MatrixSymbol:
    return _combine((c,), (a,))


@dataclass(frozen=True, eq=False)
class SymbolField:
    """One frozen symbol per quadrature node: x |-> sigma(x, .) of fixed degree.

    ``scaled``, when set, is ``(base, factors)`` with real ``factors`` such
    that ``node_symbols[j]`` is ``factors[j] * base``.  The residue then
    sums the base over the dual once and scales its series per node
    instead of summing every node symbol; ``node_symbols`` still holds the
    scaled symbols for every other consumer.  An ``invariant`` field holds
    one symbol object at every node, and the residue reads node 0 alone.
    """

    quadrature: QuadratureRule
    node_symbols: tuple
    degree: float
    invariant: bool = False
    scaled: Optional[tuple] = None

    def __post_init__(self):
        if len(self.node_symbols) != self.quadrature.nodes.shape[0]:
            raise InvalidArgumentError("one symbol per quadrature node is required")
        if self.invariant and any(sym is not self.node_symbols[0] for sym in self.node_symbols):
            raise InvalidArgumentError("an invariant field holds one symbol object at every node")
        if self.scaled is not None:
            base, factors = self.scaled
            if len(factors) != len(self.node_symbols) or base.group != self.group:
                raise InvalidArgumentError("scaled needs a base of the field's group and one factor per node")
            check_degree(base.envelope.order, self.degree, "scaled base order")
        for sym in self.node_symbols:
            if sym.group != self.group:
                raise InvalidArgumentError("all node symbols must share one group")
            check_degree(sym.envelope.order, self.degree, "node symbol order")

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
    check_degree(sym.envelope.order, degree, "symbol order")
    values = [complex(a(node)) for node in quadrature.nodes]
    if all(v == values[0] for v in values):
        shared = scale_symbol(values[0], sym)
        return SymbolField(quadrature, (shared,) * len(values), degree, invariant=True)
    nodes = tuple(scale_symbol(v, sym) for v in values)
    scaled = (sym, tuple(v.real for v in values)) if all(v.imag == 0.0 for v in values) else None
    return SymbolField(quadrature, nodes, degree, invariant=False, scaled=scaled)


def combine_fields(coeffs, fields) -> SymbolField:
    """Nodewise linear combination of fields on one quadrature rule."""
    if not fields:
        raise InvalidArgumentError("need at least one field")
    quad, degree = fields[0].quadrature, fields[0].degree
    for f in fields[1:]:
        if f.quadrature is not quad:
            raise InvalidArgumentError("fields must share the same quadrature rule")
        check_degree(f.degree, degree, "field degree")
    n = quad.nodes.shape[0]
    if all(f.invariant for f in fields):
        shared = _combine(coeffs, [f.node_symbols[0] for f in fields])
        return SymbolField(quad, (shared,) * n, degree, invariant=True)
    nodes = tuple(_combine(coeffs, [f.node_symbols[j] for f in fields]) for j in range(n))
    return SymbolField(quad, nodes, degree, invariant=False)


@dataclass(frozen=True, eq=False)
class Expansion:
    """Homogeneous components (degree, field) with degrees order - k."""

    group: GroupModel
    order: float
    components: tuple

    def __post_init__(self):
        for k, (degree, field) in enumerate(self.components):
            check_degree(degree, self.order - k, f"component {k} degree")
            check_degree(field.degree, degree, f"component {k} field degree")
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
