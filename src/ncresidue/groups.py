"""Compact-group models: unitary duals, radial shells, Haar quadrature.

A group model provides the four ingredients the rest of the package needs:

* enumeration of the unitary dual up to an elliptic-weight cutoff, in a
  fixed canonical order so that floating-point reductions are reproducible
  (torus: lexicographic on the lattice label; SU(2): increasing level); on
  the torus only the runs of the last coordinate inside the annulus are
  generated, so memory scales with the annulus (O(hi) runs plus one chunk),
  not with the ball,
* the shell density d mu/dw, whose integral over an annulus is the
  continuum limit of ``sum d^2`` over its classes (used by integrated
  radial tails),
* quadrature rules for the normalized Haar measure (total mass one),
* radial shells: the distinct elliptic weights of an annulus with their
  exact multiplicities ``sum d^2`` (torus: r_n(k), the number of ways to
  write the Laplace eigenvalue k as a sum of n squares; SU(2): d^2 per
  level), in increasing weight order.  A scalar symbol depends on the
  weight alone, so its dual sums collapse to one term per shell.  r_2 is a
  scatter of the pairs 0 < x1 < x2 (weight 8) plus the axis, diagonal and
  origin terms; r_3 is the shift-add sum_m r_1(m^2) r_2(k - m^2) in int32
  over a table of r_2 on [0, hi^2) (4 bytes a shell, 4 MB at hi = 1024).
  Both are built one span of four shell blocks at a time (r_2: a 512 KB
  count array per span).

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

    @classmethod
    def of(cls, group: "GroupModel", xi: DualElement) -> "DualChunk":
        """The one-class chunk holding xi."""
        return cls(
            group,
            np.array([xi.label], dtype=np.int64),
            np.array([float(xi.dim)]),
            np.array([xi.weight]),
            np.array([xi.eigenvalue]),
        )

    def elements(self) -> list[DualElement]:
        # tolist() gives Python ints and floats, and a list per T^n label row
        return [
            DualElement(tuple(lab) if isinstance(lab, list) else lab, int(d), lam, w)
            for lab, d, lam, w in zip(
                self.labels.tolist(), self.dims.tolist(), self.eigenvalues.tolist(), self.weights.tolist()
            )
        ]


# A chunk holds at most this many diagonal entries (sum of d over its
# classes), unless it is a single class: a diagonal symbol is evaluated and
# reduced one chunk at a time.  The partition depends only on the cutoffs,
# so reductions stay bit-reproducible.
_CHUNK_ENTRIES = 1 << 14

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
        """Canonically ordered chunks covering the annulus lo < weight <= hi.

        A chunk holds at most ``_CHUNK_ENTRIES`` diagonal entries unless it
        is a single class; its boundaries depend on (lo, hi) only.  A bound
        whose square is not below 2**62 raises InvalidArgumentError.
        """
        raise NotImplementedError

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks (weights, multiplicities) covering the annulus lo < weight <= hi.

        Weights are the distinct elliptic weights of the annulus in
        increasing order, float64; multiplicities are the exact int64 sums of
        d^2 over the classes of each weight.  Blocks hold at most
        ``_SHELL_BLOCK`` shells and their boundaries depend on (lo, hi) only;
        bounds as in ``dual_chunks``.
        """
        raise NotImplementedError

    def shell_density(self, w: np.ndarray) -> np.ndarray:
        """Density d mu/dw of the counting measure in the elliptic weight.

        mu(t) is the smooth counterpart of sum_{<xi><=t} d^2.  Defined for
        w > 1; it grows like density_coeff * w**(n-1), and no intermediate
        grows faster, so it overflows only where w**(n-1) does.
        """
        raise NotImplementedError

    def haar_quadrature(self, resolution: int) -> QuadratureRule:
        """Quadrature rule for the normalized Haar measure of the group."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))

    def __repr__(self):
        return self.name


def _check_bounds(lo: float, hi: float) -> None:
    """Refuse an annulus (lo, hi] with a bound whose square is 2**62 or more.

    Every generator squares its bounds for the exact integer membership
    test and forms 1 + |xi|^2, (ell + 1)^2 or ell(ell + 2) in int64, so a
    bound of 2**31 (about 2.1e9) or more would overflow there.  NaN and
    infinite bounds fail the test too.
    """
    if not (lo * lo < 2.0**62 and hi * hi < 2.0**62):
        raise InvalidArgumentError(f"annulus bounds must be finite, with squares below 2**62, got ({lo}, {hi}]")


def _int_floor(x: float) -> int:
    return int(math.floor(x))


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) for int64 v >= 0 below 2**62, exactly."""
    r = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _sign_count(x):
    """Number of integers with square x**2: 1 for x = 0, else 2."""
    return np.where(x > 0, 2, 1)


def _least_root(v):
    """Least t >= 0 with t^2 >= v, elementwise for int64 v."""
    return np.where(v > 0, _isqrt(np.maximum(v - 1, 0)) + 1, 0)


def _pair_scatter_r2(a: int, b: int) -> np.ndarray:
    """r_2(k) for a <= k < b (int64): lattice points of Z^2 with x1^2 + x2^2 = k.

    Only the pairs 0 < x1 < x2 are scattered, each standing for its 8 sign
    and order images; the axis points (x, 0) and the diagonal (x, x), x > 0,
    add 4 each at x^2 and 2x^2, and the origin 1 at k = 0.
    """
    x1 = np.arange(1, math.isqrt((b - 1) // 2) + 1, dtype=np.int64)
    first = np.maximum(_least_root(a - x1 * x1), x1 + 1)
    count = np.maximum(_isqrt(b - 1 - x1 * x1) + 1 - first, 0)
    x2 = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(np.cumsum(count) - count - first, count)
    out = np.bincount(np.repeat(x1 * x1 - a, count) + x2 * x2, minlength=b - a)
    out *= 8
    for scale in (1, 2):  # the axis points at x^2, the diagonal at 2x^2
        c = -(-a // scale)
        x = np.arange(math.isqrt(c - 1) + 1 if c > 0 else 1, math.isqrt((b - 1) // scale) + 1, dtype=np.int64)
        out[scale * x * x - a] += 4
    if a == 0:
        out[0] += 1
    return out


def _shift_add_r3(r2: np.ndarray, a: int, b: int) -> np.ndarray:
    """r_3(k) for a <= k < b as the shift-add sum_m r_1(m^2) r_2(k - m^2).

    ``r2`` holds r_2 on [0, b) with the sign count 2 of m > 0 folded in; the
    counts keep its dtype (int32).
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

    def shell_density(self, w: np.ndarray) -> np.ndarray:
        # Lebesgue measure of {xi in R^n : sqrt(1 + |xi|^2) <= w}, differentiated:
        # n omega_n w (w^2 - 1)^(n/2 - 1), written so that no power of w above
        # w**(n-1) is formed.
        n = self.n
        return sphere_surface(n) * w ** (n - 1) * (1.0 - w**-2.0) ** (n / 2.0 - 1.0)

    def dual_chunks(self, lo: float, hi: float) -> Iterator[DualChunk]:
        _check_bounds(lo, hi)
        qlo = lo * lo  # exclusive bound on q = 1 + |xi|^2
        qhi = hi * hi  # inclusive bound
        r2max = _int_floor(qhi) - 1
        if r2max < 0:
            return
        kmax = math.isqrt(r2max)
        # The last coordinate runs over at most two intervals per label
        # prefix: one empty prefix on T^1, one table of prefixes x1 on T^2,
        # one table (x1, x2) per x1 on T^3.  Every class has d = 1, so a chunk
        # is filled with the next _CHUNK_ENTRIES classes of the runs; memory
        # is one chunk, plus O(hi) for the prefix table of T^2 and T^3.
        kmin = _int_floor(qlo)  # q > qlo  <=>  |xi|^2 >= floor(qlo)
        if self.n == 1:
            tables = [np.zeros((1, 0), dtype=np.int64)]
        elif self.n == 2:
            tables = [np.arange(-kmax, kmax + 1, dtype=np.int64)[:, None]]
        else:
            x1 = np.arange(-kmax, kmax + 1, dtype=np.int64)
            k2 = _isqrt(r2max - x1 * x1)
            tables = (
                np.column_stack((np.full(2 * k + 1, x), np.arange(-k, k + 1)))
                for x, k in zip(x1.tolist(), k2.tolist())
            )
        count = 0
        for prefix in tables:
            s = (prefix * prefix).sum(axis=1)
            top = _isqrt(r2max - s)
            low = _least_root(kmin - s)
            inner = np.maximum(top + 1 - low, 0)
            # [-top, -low] then [low, top]; [-top, top] once when low = 0
            first = np.stack([-top, low], axis=1).ravel()
            size = np.stack([np.where(low > 0, inner, 2 * top + 1), np.where(low > 0, inner, 0)], axis=1).ravel()
            ends = np.cumsum(size)
            shift = first - (ends - size)  # last coordinate = position + shift
            total = int(ends[-1])
            p = 0
            while p < total:
                if count == 0:
                    labels = np.empty((_CHUNK_ENTRIES, self.n), dtype=np.int64)
                    q = np.empty(_CHUNK_ENTRIES, dtype=np.int64)
                take = min(_CHUNK_ENTRIES - count, total - p)
                pos = np.arange(p, p + take, dtype=np.int64)
                run = np.searchsorted(ends, pos, side="right")
                t = pos + shift[run]
                labels[count : count + take, :-1] = prefix[run // 2]
                labels[count : count + take, -1] = t
                q[count : count + take] = 1 + s[run // 2] + t * t
                count += take
                p += take
                if count == _CHUNK_ENTRIES:
                    yield self._make_chunk(labels, q)
                    count = 0
        if count:
            yield self._make_chunk(labels[:count], q[:count])

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        _check_bounds(lo, hi)
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
        # r_2 and r_3 are built a span of four blocks at a time (per-row and
        # per-shift overheads once per span) and sliced into the blocks from kmin
        span = 4 * _SHELL_BLOCK
        if self.n == 3 and kend > kmin:
            # 2 * r_2 on [0, kend) in int32, 4 bytes a shell (4 MB at hi = 1024).
            # No count overflows: r_2(j) <= 4 d(j) <= 6400 for j < 2^31 (no
            # integer below 2^31 has more than 1600 divisors), so r_3(k) <=
            # (2 sqrt(k) + 1) * 6400 < 6e8 < 2^31 for every k a table of under
            # 2^31 entries (8 GB) can hold; indices stay int64.
            r2 = np.empty(kend, dtype=np.int32)
            for a in range(0, kend, span):
                r2[a : a + span] = _pair_scatter_r2(a, min(a + span, kend))
            r2 *= 2
        for a in range(kmin, kend, span):
            b = min(a + span, kend)
            mult = _pair_scatter_r2(a, b) if self.n == 2 else _shift_add_r3(r2, a, b)
            for start in range(a, b, _SHELL_BLOCK):
                block = mult[start - a : start - a + _SHELL_BLOCK]
                k = np.flatnonzero(block != 0)
                if k.size:  # a block may hold no shell: r_2(3599) = r_3(7) = 0
                    yield np.sqrt((1 + start + k).astype(np.float64)), block[k].astype(np.int64)

    def _make_chunk(self, labels: np.ndarray, q: np.ndarray) -> DualChunk:
        qf = q.astype(np.float64)
        return DualChunk(
            group=self,
            labels=labels[:, 0] if self.n == 1 else labels,
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
    weight is exactly ell + 1.  The counting function sum_{ell+1<=t} (ell+1)^2
    has leading density t^2 (coefficient one).
    """

    def __init__(self):
        self.n = 3
        self.dim = 3
        self.name = "SU2"
        self.density_coeff = 1.0

    def shell_density(self, w: np.ndarray) -> np.ndarray:
        # d^2 = w^2 per unit step of the weight w = ell + 1
        return w * w

    def dual_chunks(self, lo: float, hi: float) -> Iterator[DualChunk]:
        _check_bounds(lo, hi)
        # levels ell with lo < ell + 1 <= hi, one class each; levels
        # start..stop-1 hold (stop(stop+1) - start(start+1))/2 entries, and
        # each chunk takes the most levels within _CHUNK_ENTRIES, at least one
        start = max(_int_floor(lo), 0)
        end = max(_int_floor(hi), start)
        while start < end:
            stop = (math.isqrt(1 + 4 * (2 * _CHUNK_ENTRIES + start * (start + 1))) - 1) // 2
            stop = min(max(stop, start + 1), end)
            ell = np.arange(start, stop, dtype=np.int64)
            start = stop
            w = (ell + 1).astype(np.float64)
            yield DualChunk(
                group=self,
                labels=ell,
                dims=w.copy(),
                weights=w,
                eigenvalues=(ell * (ell + 2)).astype(np.float64),
            )

    def radial_shells(self, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        _check_bounds(lo, hi)
        # one shell per level, as in dual_chunks
        stop = max(_int_floor(hi), 0)
        for start in range(max(_int_floor(lo), 0), stop, _SHELL_BLOCK):
            w = np.arange(start + 1, min(start + _SHELL_BLOCK, stop) + 1, dtype=np.int64)
            yield w.astype(np.float64), w * w

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
    if not 1.0 <= cutoff < math.inf:
        raise InvalidArgumentError(f"dual cutoff must be finite and >= 1, got {cutoff}")
    return [xi for chunk in group.dual_chunks(0.0, cutoff) for xi in chunk.elements()]


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
