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
envelope spot check reads the operator norm of a class as the largest
modulus of its ``abs`` entries, and refuses a norm that is not within the
envelope, NaN included, with InvalidArgumentError naming the class.

Scalar and diagonal symbols store a chunk evaluator, ``diag_fn``: it maps a
``DualChunk`` to the diagonals of the chunk's classes concatenated in chunk
order (length sum of d), so a dual sum evaluates them one chunk at a time.
``diagonal_symbol`` keeps a per-class ``diag(xi)`` signature and wraps it in
a loop over the chunk's classes; ``diag_signed_symbol``, ``scalar_symbol``,
``scale_symbol`` and ``add_symbols`` build vectorised chunk evaluators.
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
    the diagonal of the chunk evaluator ``diag_fn``.
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
        if self.diag_fn is not None:
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


def _spot_cutoff(group: GroupModel, max_classes: int) -> float:
    cutoff = 4.0
    while True:
        count = 0
        for chunk in group.dual_chunks(0.0, cutoff):
            count += len(chunk)
        if count >= max_classes or cutoff >= 1024.0:
            return cutoff
        cutoff *= 2.0


def _check_envelope(sym: MatrixSymbol) -> None:
    limit = SPOT_CHECK_CLASSES if sym.structure != "dense" else _SPOT_CHECK_DENSE_CLASSES
    cap = 1024.0 if sym.structure != "dense" else 32.0
    cutoff = min(_spot_cutoff(sym.group, limit), cap)
    seen = 0
    for chunk in sym.group.dual_chunks(0.0, cutoff):
        k = min(len(chunk), limit - seen)
        part = DualChunk(sym.group, chunk.labels[:k], chunk.dims[:k], chunk.weights[:k], chunk.eigenvalues[:k])
        if sym.structure == "scalar":
            norms = np.abs(sym.radial_profile(part.weights))
        else:  # the largest |diagonal entry| or singular value of each class
            dims = part.dims.astype(np.int64)
            norms = np.maximum.reduceat(np.abs(sym.chunk_spectra(part, "abs")), np.cumsum(dims) - dims)
        bounds = sym.envelope.bound(part.weights)
        bad = ~(norms <= bounds * (1.0 + 1e-9) + 1e-300)  # NaN norms are refused too
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidArgumentError(
                f"decay envelope violated at {part.elements()[i].label} (weight {part.weights[i]:g}): "
                f"|sigma| = {norms[i]:g} > {bounds[i]:g}"
            )
        seen += k
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

    def diag_fn(chunk: DualChunk) -> np.ndarray:
        values = np.asarray(profile(chunk.weights), dtype=np.complex128)
        return np.repeat(values, chunk.dims.astype(np.int64))

    sym = MatrixSymbol(group, "scalar", envelope, None, radial_fn=profile, diag_fn=diag_fn)
    if check:
        _check_envelope(sym)
    return sym


def weight_power_symbol(group: GroupModel, coeff: complex, alpha: float) -> MatrixSymbol:
    """sigma(xi) = coeff * <xi>**alpha * I, the basic invariant test family."""
    coeff = complex(coeff)

    def profile(w: np.ndarray) -> np.ndarray:
        return coeff * w**alpha

    return scalar_symbol(group, profile, DecayEnvelope(abs(coeff), alpha), check=False)


def _diagonal(
    group: GroupModel,
    diag_fn: Callable[[DualChunk], np.ndarray],
    envelope: DecayEnvelope,
    check: bool = False,
) -> MatrixSymbol:
    sym = MatrixSymbol(group, "diagonal", envelope, None, diag_fn=diag_fn)
    if check:
        _check_envelope(sym)
    return sym


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

    return _diagonal(group, diag_fn, envelope, check)


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

    return _diagonal(group, diag_fn, DecayEnvelope(1.0, alpha))


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
        return _diagonal(a.group, lambda chunk: np.asarray(da(chunk)) + np.asarray(db(chunk)), env)
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
        return _diagonal(a.group, lambda chunk: c * np.asarray(da(chunk)), env)
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
