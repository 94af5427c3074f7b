"""Compact-group models: unitary duals, counting bounds, Haar quadrature.

A group model provides the four ingredients the rest of the package needs:

* enumeration of the unitary dual up to an elliptic-weight cutoff, in a
  fixed canonical order so that floating-point reductions are reproducible
  (torus: lexicographic on the lattice label; SU(2): increasing level),
* an upper bound for the spectral counting function ``sum_{<xi><=t} d^2``
  together with the leading coefficient of its derivative, used by
  truncation-tail models,
* quadrature rules for the normalized Haar measure (total mass one),
* radial shells: the distinct elliptic weights of an annulus with their
  exact multiplicities ``sum d^2`` (torus: r_n(k), the number of ways to
  write the Laplace eigenvalue k as a sum of n squares; SU(2): d^2 per
  level), in increasing weight order.  A scalar symbol depends on the
  weight alone, so its dual sums collapse to one term per shell.

Supported groups are ``Torus(n)`` for n in {1, 2, 3} and ``SU2()``.  The
elliptic weight of a dual class is ``(1 + eigenvalue)**0.5`` where
``eigenvalue`` is the Laplace eigenvalue of its matrix coefficients; on the
torus this is ``sqrt(1 + |xi|^2)`` for the lattice point ``xi`` and on SU(2)
it equals ``ell + 1`` exactly for the level-``ell`` class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError

# Unit-ball volumes omega_n for n = 1, 2, 3.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n."""
    return n * UNIT_BALL_VOLUME[n]


@dataclass(frozen=True)
class DualElement:
    """One equivalence class of irreducible unitary representations.

    label       group-specific index: an int (T^1), an int tuple (T^n), or
                the non-negative level ell (SU(2))
    dim         dimension of the representation
    eigenvalue  Laplace eigenvalue of its matrix coefficients
    weight      elliptic weight (1 + eigenvalue)**0.5
    """

    label: object
    dim: int
    eigenvalue: float
    weight: float


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for the normalized Haar measure.

    ``nodes`` has one row per node: angle vectors for the torus, Euler-angle
    triples (alpha, beta, gamma) for SU(2).  Weights are positive and sum to
    one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    resolution: int

    def integrate(self, f):
        vals = np.asarray([f(x) for x in self.nodes])
        return vals @ self.weights


@dataclass(eq=False)
class DualChunk:
    """A contiguous, canonically ordered slice of the dual.

    ``labels`` is (m,) int64 for SU(2) and T^1, (m, n) int64 for T^n.
    Weights, dims and eigenvalues are float64 and exact (all are integers or
    square roots of integers below 2**53).
    """

    group: "GroupModel"
    labels: np.ndarray
    dims: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray

    def __len__(self):
        return self.weights.shape[0]

    def elements(self) -> list[DualElement]:
        out = []
        if self.labels.ndim == 2:
            for row, d, lam, w in zip(
                self.labels, self.dims, self.eigenvalues, self.weights
            ):
                out.append(DualElement(tuple(int(v) for v in row), int(d), float(lam), float(w)))
        else:
            for lab, d, lam, w in zip(
                self.labels, self.dims, self.eigenvalues, self.weights
            ):
                out.append(DualElement(int(lab), int(d), float(lam), float(w)))
        return out


# Chunks are flushed once they collect roughly this many classes.  The
# partition depends only on the cutoffs, so reductions stay bit-reproducible.
_CHUNK_TARGET = 1 << 17

# Radial shell blocks, likewise fixed by the cutoffs alone, are kept
# cache-sized: the radial reduction makes a few temporaries per shell, and
# on SU(2) zeta sums to N = 2^22 blocks of 2^14 shells run twice as fast as
# blocks of 2^17.
_SHELL_BLOCK = 1 << 14


class GroupModel:
    """Base class for the supported compact groups."""

    name: str
    dim: int  # manifold dimension n
    density_coeff: float  # leading coefficient of d/dt sum_{<xi><=t} d^2 ~ coeff*t^(n-1)

    def dual_chunks(self, lo: float, hi: float) -> Iterator[DualChunk]:
        """Canonically ordered chunks covering the annulus lo < weight <= hi."""
        raise NotImplementedError

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks (weights, multiplicities) covering the annulus lo < weight <= hi.

        Weights are the distinct elliptic weights of the annulus in
        increasing order, float64; multiplicities are the exact int64 sums of
        d^2 over the classes of each weight.  Blocks hold at most
        ``_SHELL_BLOCK`` shells and their boundaries depend on (lo, hi) only.
        """
        raise NotImplementedError

    def dual_elements(self, cutoff: float) -> list[DualElement]:
        if cutoff < 1.0:
            raise InvalidArgumentError(f"dual cutoff must be >= 1, got {cutoff}")
        out: list[DualElement] = []
        for chunk in self.dual_chunks(0.0, cutoff):
            out.extend(chunk.elements())
        return out

    def counting_envelope(self, t: float) -> float:
        raise NotImplementedError

    def haar_quadrature(self, resolution: int) -> QuadratureRule:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))

    def __repr__(self):
        return self.name


def _int_floor(x: float) -> int:
    return int(math.floor(x))


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) for int64 v >= 0 below 2**52, exactly."""
    r = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _sign_count(x):
    """Number of integers with square x**2: 1 for x = 0, else 2."""
    return np.where(x > 0, 2, 1)


def _r2_block(a: int, b: int) -> np.ndarray:
    """r_2(k) for a <= k < b: lattice points of Z^2 with x1^2 + x2^2 = k.

    Scatters x1^2 + x2^2 over the pairs x1, x2 >= 0 that land in [a, b),
    each weighted by its sign count; every count is an exact small integer.
    """
    x1 = np.arange(math.isqrt(b - 1) + 1, dtype=np.int64)
    low = a - x1 * x1
    first = np.where(low > 0, _isqrt(np.maximum(low - 1, 0)) + 1, 0)  # least x2 with x2^2 >= low
    count = _isqrt(b - 1 - x1 * x1) + 1 - first
    x1 = np.repeat(x1, count)
    x2 = np.arange(x1.size, dtype=np.int64) - np.repeat(np.cumsum(count) - count - first, count)
    k = x1 * x1 + x2 * x2 - a
    sign = (_sign_count(x1) * _sign_count(x2)).astype(np.float64)
    return np.bincount(k, weights=sign, minlength=b - a).astype(np.int64)


def _r3_block(r2: np.ndarray, a: int, b: int) -> np.ndarray:
    """r_3(k) for a <= k < b as the shift-add sum_m r_1(m^2) r_2(k - m^2).

    ``r2`` holds r_2 on [0, b) with the sign count 2 of m > 0 folded in.
    """
    out = r2[a:b] // 2
    for m in range(1, math.isqrt(b - 1) + 1):
        start = max(a - m * m, 0)
        out[start + m * m - a :] += r2[start : b - m * m]
    return out


class Torus(GroupModel):
    """The n-torus, n in {1, 2, 3}.  Dual = Z^n, all dimensions one.

    The Laplace eigenvalue of the lattice point xi is |xi|^2, so the
    membership test <xi> <= N is evaluated exactly as 1 + |xi|^2 <= N^2 in
    integer arithmetic.
    """

    def __init__(self, n: int):
        if n not in (1, 2, 3):
            raise InvalidArgumentError(f"torus dimension must be 1, 2 or 3, got {n}")
        self.n = n
        self.dim = n
        self.name = f"T{n}"
        self.density_coeff = sphere_surface(n)

    def counting_envelope(self, t: float) -> float:
        return UNIT_BALL_VOLUME[self.n] * (t + math.sqrt(self.n)) ** self.n

    def dual_chunks(self, lo: float, hi: float) -> Iterator[DualChunk]:
        qlo = lo * lo  # exclusive bound on q = 1 + |xi|^2
        qhi = hi * hi  # inclusive bound
        r2max = _int_floor(qhi) - 1
        if r2max < 0:
            return
        kmax = math.isqrt(r2max)
        if self.n == 1:
            step = 1 << 18
            for start in range(-kmax, kmax + 1, step):
                k = np.arange(start, min(start + step, kmax + 1), dtype=np.int64)
                q = 1 + k * k
                mask = (q > qlo) & (q <= qhi)
                if mask.any():
                    yield self._make_chunk(k[mask], q[mask])
            return
        buf_labels: list[np.ndarray] = []
        buf_q: list[np.ndarray] = []
        count = 0
        for x1 in range(-kmax, kmax + 1):
            r2 = r2max - x1 * x1
            if r2 < 0:
                continue
            k2 = math.isqrt(r2)
            side = np.arange(-k2, k2 + 1, dtype=np.int64)
            if self.n == 2:
                labels = np.empty((side.size, 2), dtype=np.int64)
                labels[:, 0] = x1
                labels[:, 1] = side
                q = 1 + x1 * x1 + side * side
            else:
                g2, g3 = np.meshgrid(side, side, indexing="ij")
                g2 = g2.ravel()
                g3 = g3.ravel()
                labels = np.empty((g2.size, 3), dtype=np.int64)
                labels[:, 0] = x1
                labels[:, 1] = g2
                labels[:, 2] = g3
                q = 1 + x1 * x1 + g2 * g2 + g3 * g3
            mask = (q > qlo) & (q <= qhi)
            if mask.any():
                buf_labels.append(labels[mask])
                buf_q.append(q[mask])
                count += int(mask.sum())
            if count >= _CHUNK_TARGET:
                yield self._make_chunk(np.concatenate(buf_labels), np.concatenate(buf_q))
                buf_labels, buf_q, count = [], [], 0
        if count:
            yield self._make_chunk(np.concatenate(buf_labels), np.concatenate(buf_q))

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # Laplace eigenvalues k with lo^2 < 1 + k <= hi^2, the exact integer
        # test of dual_chunks.
        kmin = _int_floor(lo * lo)
        kend = _int_floor(hi * hi)
        if self.n == 1:
            # sparse: the shells are the squares x^2, x >= 0
            xend = math.isqrt(kend - 1) + 1 if kend > 0 else 0
            xmin = math.isqrt(kmin - 1) + 1 if kmin > 0 else 0
            for start in range(xmin, xend, _SHELL_BLOCK):
                x = np.arange(start, min(start + _SHELL_BLOCK, xend), dtype=np.int64)
                yield np.sqrt((1 + x * x).astype(np.float64)), _sign_count(x)
            return
        if self.n == 3 and kend > kmin:
            # 2 * r_2 on [0, kend): hi^2 int64 counts, 8 MB at hi = 1024
            r2 = 2 * np.concatenate(
                [_r2_block(a, min(a + _SHELL_BLOCK, kend)) for a in range(0, kend, _SHELL_BLOCK)]
            )
        for start in range(kmin, kend, _SHELL_BLOCK):
            stop = min(start + _SHELL_BLOCK, kend)
            mult = _r2_block(start, stop) if self.n == 2 else _r3_block(r2, start, stop)
            k = np.flatnonzero(mult)
            yield np.sqrt((1 + start + k).astype(np.float64)), mult[k]

    def _make_chunk(self, labels: np.ndarray, q: np.ndarray) -> DualChunk:
        qf = q.astype(np.float64)
        return DualChunk(
            group=self,
            labels=labels,
            dims=np.ones(q.shape[0], dtype=np.float64),
            weights=np.sqrt(qf),
            eigenvalues=qf - 1.0,
        )

    def haar_quadrature(self, resolution: int) -> QuadratureRule:
        m = int(resolution)
        if m < 1:
            raise InvalidArgumentError(f"quadrature resolution must be >= 1, got {resolution}")
        axis = 2.0 * np.pi * np.arange(m) / m
        grids = np.meshgrid(*([axis] * self.n), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        weights = np.full(m**self.n, 1.0 / m**self.n)
        return QuadratureRule(nodes=nodes, weights=weights, resolution=m)


class SU2(GroupModel):
    """SU(2).  One dual class per level ell >= 0, of dimension ell + 1.

    The Laplace eigenvalue at level ell is ell*(ell+2), hence the elliptic
    weight is exactly ell + 1.  Counting: sum_{ell+1<=t} (ell+1)^2 <= t^3,
    with leading density t^2 (coefficient one).
    """

    def __init__(self):
        self.n = 3
        self.dim = 3
        self.name = "SU2"
        self.density_coeff = 1.0

    def counting_envelope(self, t: float) -> float:
        return float(t) ** 3

    @staticmethod
    def _levels(lo: float, hi: float) -> Iterator[np.ndarray]:
        # levels ell with lo < ell + 1 <= hi; one class, and one shell, each
        stop = max(_int_floor(hi), 0)
        for start in range(max(_int_floor(lo), 0), stop, _SHELL_BLOCK):
            yield np.arange(start, min(start + _SHELL_BLOCK, stop), dtype=np.int64)

    def dual_chunks(self, lo: float, hi: float) -> Iterator[DualChunk]:
        for ell in self._levels(lo, hi):
            w = (ell + 1).astype(np.float64)
            yield DualChunk(
                group=self,
                labels=ell,
                dims=w.copy(),
                weights=w,
                eigenvalues=(ell * (ell + 2)).astype(np.float64),
            )

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for ell in self._levels(lo, hi):
            yield (ell + 1).astype(np.float64), (ell + 1) * (ell + 1)

    def haar_quadrature(self, resolution: int) -> QuadratureRule:
        m = int(resolution)
        if m < 1:
            raise InvalidArgumentError(f"quadrature resolution must be >= 1, got {resolution}")
        alpha = 2.0 * np.pi * np.arange(m) / m
        gamma = 4.0 * np.pi * np.arange(m) / m
        u, gl = np.polynomial.legendre.leggauss(m)
        beta = np.arccos(u)
        ga, gb, gc = np.meshgrid(alpha, beta, gamma, indexing="ij")
        nodes = np.stack([ga.ravel(), gb.ravel(), gc.ravel()], axis=1)
        # Haar density sin(beta)/(16 pi^2) becomes du/2 per Gauss-Legendre
        # node after u = cos(beta); uniform 1/m per alpha and gamma node.
        wa = np.full(m, 1.0 / m)
        wb = gl / 2.0
        wc = np.full(m, 1.0 / m)
        ww = wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
        return QuadratureRule(nodes=nodes, weights=ww.ravel(), resolution=m)


def enumerate_dual(group: GroupModel, cutoff: float) -> list[DualElement]:
    """All dual classes with elliptic weight <= cutoff, in canonical order."""
    return group.dual_elements(cutoff)


def counting_envelope(group: GroupModel, t: float) -> float:
    """Upper bound for sum of d^2 over classes of weight <= t."""
    return group.counting_envelope(t)


def haar_quadrature(group: GroupModel, resolution: int) -> QuadratureRule:
    """Quadrature rule for the normalized Haar measure of the group."""
    return group.haar_quadrature(resolution)


def su2_class_cosine(node) -> float:
    """cos(theta/2) for the conjugacy angle theta of an Euler-angle node.

    For g = Rz(alpha) Ry(beta) Rz(gamma) in SU(2) the trace is
    2 cos(beta/2) cos((alpha+gamma)/2), which determines the conjugacy class.
    """
    alpha, beta, gamma = (float(v) for v in node)
    return math.cos(beta / 2.0) * math.cos((alpha + gamma) / 2.0)


def su2_character(ell: int, node) -> float:
    """Character of the level-ell class at an Euler-angle node.

    Equals the Chebyshev polynomial of the second kind U_ell evaluated at
    cos(theta/2); computed by the three-term recurrence.
    """
    x = su2_class_cosine(node)
    if ell == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for _ in range(ell - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur
