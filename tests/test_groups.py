import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncresidue import (
    SU2,
    Torus,
    enumerate_dual,
    su2_character,
    su2_class_cosine,
)
from ncresidue import groups
from ncresidue.errors import InvalidArgumentError


# ---------------------------------------------------------------------------
# dual enumeration


def test_torus1_enumeration_cutoff_2(t1):
    els = enumerate_dual(t1, 2.0)
    assert [e.label for e in els] == [-1, 0, 1]
    for e in els:
        assert e.dim == 1
        assert e.eigenvalue == e.label**2
        assert e.weight == pytest.approx(math.sqrt(1 + e.label**2), abs=0)


def test_torus1_enumeration_cutoff_1(t1):
    els = enumerate_dual(t1, 1.0)
    assert [e.label for e in els] == [0]


def test_su2_enumeration_cutoff_3(su2):
    els = enumerate_dual(su2, 3.0)
    assert [e.label for e in els] == [0, 1, 2]
    assert [e.dim for e in els] == [1, 2, 3]
    assert [e.eigenvalue for e in els] == [0.0, 3.0, 8.0]
    assert [e.weight for e in els] == [1.0, 2.0, 3.0]


def _spin_matrices(ell):
    # spin j = ell/2 ladder construction; (ell+1)-dimensional representation
    j = ell / 2.0
    m = np.arange(j, -j - 1.0, -1.0)
    d = ell + 1
    jp = np.zeros((d, d))
    for k in range(d - 1):
        jp[k, k + 1] = math.sqrt(j * (j + 1) - m[k + 1] * (m[k + 1] + 1))
    jx = 0.5 * (jp + jp.T)
    jy = -0.5j * (jp - jp.T)
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


@pytest.mark.parametrize("ell", range(5))
def test_su2_eigenvalue_against_casimir_diagonalization(su2, ell):
    # Laplace eigenvalue = 4 j(j+1) with j = ell/2: diagonalize the Casimir
    # in the explicit spin representation as an independent oracle.
    jx, jy, jz = _spin_matrices(ell)
    casimir = 4.0 * (jx @ jx + jy @ jy + jz @ jz)
    vals = np.linalg.eigvalsh(casimir)
    expected = enumerate_dual(su2, float(ell + 1))[-1].eigenvalue
    assert np.allclose(vals, expected, atol=1e-10)
    assert expected == ell * (ell + 2)


def test_su2_weight_is_level_plus_one_exactly(su2):
    for e in enumerate_dual(su2, 64.0):
        assert e.weight == e.label + 1
        assert e.weight**2 == 1 + e.eigenvalue


def test_invalid_cutoff_rejected(t1, su2):
    with pytest.raises(InvalidArgumentError):
        enumerate_dual(t1, 0.5)
    with pytest.raises(InvalidArgumentError):
        enumerate_dual(su2, 0.0)


def test_torus_dimension_validation():
    with pytest.raises(InvalidArgumentError):
        Torus(4)


@pytest.mark.parametrize("group", [Torus(1), Torus(2), Torus(3), SU2()], ids=str)
@pytest.mark.parametrize("method", ["dual_chunks", "radial_shells"])
# the generators square their bounds, and 1e200**2 is not finite either
@pytest.mark.parametrize(
    "lo, hi", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 4.0), (0.0, 1e200), (1e200, 1e201)]
)
def test_non_finite_annulus_bound_is_invalid_argument(group, method, lo, hi):
    with pytest.raises(InvalidArgumentError, match="annulus bounds must be finite"):
        next(getattr(group, method)(lo, hi))


@given(n1=st.floats(1.0, 20.0), n2=st.floats(1.0, 20.0))
def test_prefix_consistency_torus2(n1, n2):
    t2 = Torus(2)
    lo, hi = sorted((n1, n2))
    small = enumerate_dual(t2, lo)
    big = enumerate_dual(t2, hi)
    filtered = [e for e in big if e.weight <= lo]
    assert [e.label for e in filtered] == [e.label for e in small]


@given(lvl=st.floats(1.0, 200.0))
def test_prefix_consistency_su2(lvl, su2):
    small = enumerate_dual(su2, lvl)
    big = enumerate_dual(su2, lvl + 37.0)
    assert [e.label for e in big[: len(small)]] == [e.label for e in small]


def test_torus2_completeness_against_brute_force(t2):
    cutoff = 7.0
    canonical = enumerate_dual(t2, cutoff)
    brute = set()
    for a in range(-7, 8):
        for b in range(-7, 8):
            if 1 + a * a + b * b <= cutoff * cutoff:
                brute.add((a, b))
    assert set(e.label for e in canonical) == brute
    assert len(canonical) == len(brute)
    # canonical order is lexicographic
    labels = [e.label for e in canonical]
    assert labels == sorted(labels)


def test_torus3_labels_lexicographic(t3):
    labels = [e.label for e in enumerate_dual(t3, 3.0)]
    assert labels == sorted(labels)
    assert len(labels) == len(set(labels))


def test_chunks_match_elements(t1, t2, t3, su2):
    for g, cutoff in ((t1, 9.0), (t2, 6.0), (t3, 4.0), (su2, 40.0)):
        flat = []
        for chunk in g.dual_chunks(0.0, cutoff):
            flat.extend(chunk.elements())
        assert [e.label for e in flat] == [e.label for e in enumerate_dual(g, cutoff)]


def test_annulus_partition(t2, su2):
    for g in (t2, su2):
        whole = [e.label for ch in g.dual_chunks(0.0, 12.0) for e in ch.elements()]
        inner = [e.label for ch in g.dual_chunks(0.0, 5.0) for e in ch.elements()]
        outer = [e.label for ch in g.dual_chunks(5.0, 12.0) for e in ch.elements()]
        assert sorted(map(str, inner + outer)) == sorted(map(str, whole))
        assert not set(map(str, inner)) & set(map(str, outer))


# ---------------------------------------------------------------------------
# chunks hold at most groups._CHUNK_ENTRIES diagonal entries


def _entries(chunk):
    return int(chunk.dims.sum())


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 256.0), (0.0, 2048.0), (100.5, 700.25), (181.0, 183.0), (16380.0, 16390.0), (5.0, 5.5)],
)
def test_su2_chunks_are_bounded_and_cover_the_annulus_once(su2, lo, hi):
    chunks = list(su2.dual_chunks(lo, hi))
    for chunk in chunks:
        assert _entries(chunk) <= groups._CHUNK_ENTRIES or len(chunk) == 1
        assert np.array_equal(chunk.dims, chunk.labels + 1.0)
    # consecutive chunks could not have been merged under the bound
    for a, b in zip(chunks, chunks[1:]):
        assert _entries(a) + b.dims[0] > groups._CHUNK_ENTRIES
    labels = np.concatenate([c.labels for c in chunks]) if chunks else np.zeros(0, dtype=np.int64)
    assert np.array_equal(labels, np.arange(math.floor(lo), math.floor(hi)))
    again = [(c.labels[0], c.labels[-1]) for c in su2.dual_chunks(lo, hi)]
    assert again == [(c.labels[0], c.labels[-1]) for c in chunks]


def test_su2_levels_beyond_the_bound_are_single_class_chunks(su2):
    ell = groups._CHUNK_ENTRIES
    chunks = list(su2.dual_chunks(ell - 2.0, ell + 3.0))
    # levels ell - 2 .. ell + 2 have d = ell - 1 .. ell + 3: one class each
    assert [c.labels.tolist() for c in chunks] == [[ell - 2], [ell - 1], [ell], [ell + 1], [ell + 2]]


@pytest.mark.parametrize("n, hi", [(1, 20000.0), (2, 100.0), (3, 20.0)])
def test_torus_chunks_are_bounded_and_lexicographic(n, hi):
    g = Torus(n)
    chunks = list(g.dual_chunks(3.0, hi))
    assert len(chunks) > 1
    assert all(0 < len(c) <= groups._CHUNK_ENTRIES for c in chunks)
    labels = np.concatenate([c.labels.reshape(len(c), -1) for c in chunks])
    assert len({tuple(r) for r in labels.tolist()}) == len(labels)
    assert labels.tolist() == sorted(labels.tolist())
    q = 1 + (labels * labels).sum(axis=1)
    assert np.all((q > 9) & (q <= hi * hi))
    side = np.arange(-math.floor(hi), math.floor(hi) + 1)
    grid = np.stack(np.meshgrid(*([side] * n), indexing="ij"), axis=-1).reshape(-1, n)
    qq = 1 + (grid * grid).sum(axis=1)
    assert len(labels) == int(np.count_nonzero((qq > 9) & (qq <= hi * hi)))


def _brute_force_chunks(n, lo, hi, entries):
    """The annulus filtered from the whole cube in lexicographic order, cut every `entries` classes."""
    side = np.arange(-math.floor(hi), math.floor(hi) + 1)
    cube = np.stack(np.meshgrid(*([side] * n), indexing="ij"), axis=-1).reshape(-1, n)
    q = 1 + (cube * cube).sum(axis=1)
    keep = (q > lo * lo) & (q <= hi * hi)
    labels, q = cube[keep], q[keep].astype(np.float64)
    return [(labels[a : a + entries], q[a : a + entries]) for a in range(0, len(labels), entries)]


@given(
    n=st.sampled_from([2, 3]),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
    entries=st.one_of(st.integers(1, 200), st.just(groups._CHUNK_ENTRIES)),
)
def test_torus_chunks_match_brute_force_filter_of_the_cube(n, a, b, entries):
    top = 120.0 if n == 2 else 24.0  # above 2^14 classes in the ball
    lo, hi = sorted((a * top, b * top))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_CHUNK_ENTRIES", entries)
        chunks = list(Torus(n).dual_chunks(lo, hi))
    expected = _brute_force_chunks(n, lo, hi, entries)
    assert len(chunks) == len(expected)
    for chunk, (labels, q) in zip(chunks, expected):
        assert chunk.labels.dtype == np.int64 and np.array_equal(chunk.labels, labels)
        assert np.array_equal(chunk.weights, np.sqrt(q))
        assert np.array_equal(chunk.eigenvalues, q - 1.0)
        assert np.array_equal(chunk.dims, np.ones(len(q)))


def test_torus3_chunk_memory_scales_with_the_annulus():
    # the annulus (120, 128] holds 1.5M classes; its ball would need a
    # 257^2-label row per x1
    tracemalloc.start()
    try:
        classes = sum(len(c) for c in Torus(3).dual_chunks(120.0, 128.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes == 1546352
    assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# radial shells against the enumeration oracle


def _oracle_shells(g, lo, hi):
    """Distinct weights and sum of d^2 per weight, from the enumerated classes."""
    chunks = list(g.dual_chunks(lo, hi))
    if not chunks:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    w = np.concatenate([c.weights for c in chunks])
    d2 = np.concatenate([c.dims * c.dims for c in chunks])
    weights, inverse = np.unique(w, return_inverse=True)
    return weights, np.bincount(inverse, weights=d2).astype(np.int64)


def _shells(g, lo, hi):
    blocks = list(g.radial_shells(lo, hi))
    for weights, mult in blocks:
        assert 0 < len(weights) <= groups._SHELL_BLOCK and weights.shape == mult.shape
        assert weights.dtype == np.float64 and mult.dtype == np.int64
    if not blocks:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


_SHELL_GROUPS = {
    "T1": (Torus(1), 400.0),
    "T2": (Torus(2), 60.0),
    "T3": (Torus(3), 20.0),
    "SU2": (SU2(), 400.0),
}


@settings(max_examples=25)
@given(
    name=st.sampled_from(sorted(_SHELL_GROUPS)),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
def test_radial_shells_match_enumeration_on_random_annuli(name, a, b):
    g, top = _SHELL_GROUPS[name]
    lo, hi = sorted((a * top, b * top))
    weights, mult = _shells(g, lo, hi)
    ref_w, ref_m = _oracle_shells(g, lo, hi)
    assert np.array_equal(weights, ref_w)
    assert np.array_equal(mult, ref_m)
    assert np.all(np.diff(weights) > 0)


@pytest.mark.parametrize("name", sorted(_SHELL_GROUPS))
def test_radial_shells_edge_annuli(name):
    g, top = _SHELL_GROUPS[name]
    on_shell = 3.0 if name in ("T2", "T3", "SU2") else 1.0  # weight of a populated shell
    for lo, hi in ((0.0, top), (0.0, 1.0), (0.0, 1.2), (on_shell, top), (2.0, on_shell + 4.0)):
        weights, mult = _shells(g, lo, hi)
        ref_w, ref_m = _oracle_shells(g, lo, hi)
        assert np.array_equal(weights, ref_w) and np.array_equal(mult, ref_m)
    # the lower bound is exclusive, the upper inclusive
    assert _shells(g, on_shell, top)[0][0] > on_shell
    assert _shells(g, 0.0, on_shell)[0][-1] == on_shell
    # the zero class alone, then nothing between weights 1 and sqrt(2)
    assert _shells(g, 0.0, 1.2)[0].tolist() == [1.0]
    assert _shells(g, 0.0, 1.2)[1].tolist() == [1]
    assert _shells(g, 1.0, 1.3)[0].size == 0
    assert _shells(g, 0.0, 0.5)[0].size == 0


def _multiplicity_by_eigenvalue(g, kmax):
    """r_n(k) for 0 <= k <= kmax, read from the shells of weight sqrt(1 + k)."""
    weights, mult = _shells(g, 0.0, math.sqrt(kmax + 1.5))
    k = np.rint(weights * weights).astype(np.int64) - 1
    out = np.zeros(kmax + 1, dtype=np.int64)
    out[k] = mult
    return out


def test_r2_is_jacobi_two_square_count():
    kmax = 20000
    r2 = _multiplicity_by_eigenvalue(Torus(2), kmax)
    # d1(k) - d3(k) by a sieve over the odd divisors d
    chi = np.zeros(kmax + 1, dtype=np.int64)
    for d in range(1, kmax + 1, 2):
        chi[d::d] += 1 if d % 4 == 1 else -1
    assert r2[0] == 1
    assert np.array_equal(r2[1:], 4 * chi[1:])


def test_r3_vanishes_exactly_on_legendre_exceptions():
    kmax = 20000
    r3 = _multiplicity_by_eigenvalue(Torus(3), kmax)

    def legendre_exception(k):
        while k > 0 and k % 4 == 0:
            k //= 4
        return k % 8 == 7

    exceptions = np.array([legendre_exception(k) for k in range(kmax + 1)])
    assert np.all(r3[exceptions] == 0)
    assert np.all(r3[~exceptions] > 0)
    assert r3[:6].tolist() == [1, 6, 12, 8, 6, 24]


@pytest.mark.parametrize("name", sorted(_SHELL_GROUPS))
def test_radial_shells_across_block_boundaries(name, monkeypatch):
    # small blocks: the block seams, the T^3 shift-add over earlier blocks
    # and the block-size bound all show at oracle-sized cutoffs
    monkeypatch.setattr(groups, "_SHELL_BLOCK", 7)
    g, top = _SHELL_GROUPS[name]
    for lo, hi in ((0.0, top / 2), (math.sqrt(50.0), top / 2)):
        blocks = list(g.radial_shells(lo, hi))
        assert len(blocks) >= 3 and all(len(w) <= 7 for w, _ in blocks)
        weights = np.concatenate([w for w, _ in blocks])
        mult = np.concatenate([m for _, m in blocks])
        ref_w, ref_m = _oracle_shells(g, lo, hi)
        assert np.array_equal(weights, ref_w) and np.array_equal(mult, ref_m)


# Independent r_2 and r_3 oracles: a scatter over the whole first quadrant
# with sign counts, and the shift-add over it, in int64.


def _oracle_r2(a, b):
    """r_2(k) for a <= k < b from every pair x1, x2 >= 0 with its sign count."""
    x1 = np.arange(math.isqrt(b - 1) + 1, dtype=np.int64)
    first = np.array([math.isqrt(v - 1) + 1 if v > 0 else 0 for v in (a - x1 * x1).tolist()], dtype=np.int64)
    last = np.array([math.isqrt(v) for v in (b - 1 - x1 * x1).tolist()], dtype=np.int64)
    count = np.maximum(last + 1 - first, 0)
    x2 = np.arange(count.sum(), dtype=np.int64) - np.repeat(np.cumsum(count) - count - first, count)
    x1 = np.repeat(x1, count)
    sign = np.where(x1 > 0, 2, 1) * np.where(x2 > 0, 2, 1)
    return np.bincount(x1 * x1 + x2 * x2 - a, weights=sign, minlength=b - a).astype(np.int64)


def _oracle_r3(a, b):
    """r_3(k) for a <= k < b as sum over m of r_1(m^2) r_2(k - m^2)."""
    r2 = _oracle_r2(0, b)
    out = r2[a:b].copy()
    for m in range(1, math.isqrt(b - 1) + 1):
        start = max(a - m * m, 0)
        out[start + m * m - a :] += 2 * r2[start : b - m * m]
    return out


def _shell_window(g, a, b):
    """r_n(k) for a <= k < b read from the radial shells with eigenvalues in [a, b)."""
    out = np.zeros(b - a, dtype=np.int64)
    for weights, mult in g.radial_shells(math.sqrt(a + 0.5), math.sqrt(b + 0.5)):
        assert weights.dtype == np.float64 and mult.dtype == np.int64
        out[np.rint(weights * weights).astype(np.int64) - 1 - a] = mult
    return out


def test_r2_matches_the_quadrant_oracle_below_2_to_the_20():
    a, b = 2**20 - 4096, 2**20
    assert np.array_equal(_shell_window(Torus(2), a, b), _oracle_r2(a, b))


def test_r3_matches_the_shift_add_oracle_around_2_to_the_16():
    # five default blocks: the window crosses block and span seams
    a, b = 2**16 - 5 * 2**13, 2**16 + 5 * 2**13
    assert np.array_equal(_shell_window(Torus(3), a, b), _oracle_r3(a, b))


def _check_shell_partition(n, block, lo, hi):
    # block j must hold exactly the shells with kmin + j*B <= k < kmin + (j+1)*B
    kmin, kend = math.floor(lo * lo), math.floor(hi * hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_SHELL_BLOCK", block)
        blocks = list(Torus(n).radial_shells(lo, hi))
    assert len(blocks) == max(-(-(kend - kmin) // block), 0)
    oracle = (_oracle_r2 if n == 2 else _oracle_r3)(kmin, kend) if kend > kmin else np.zeros(0, dtype=np.int64)
    for j, (weights, mult) in enumerate(blocks):
        assert weights.dtype == np.float64 and mult.dtype == np.int64
        k = np.rint(weights * weights).astype(np.int64) - 1
        assert np.array_equal(weights, np.sqrt((1 + k).astype(np.float64)))
        assert np.all((k >= kmin + j * block) & (k < kmin + (j + 1) * block))
        window = oracle[j * block : (j + 1) * block]
        assert np.array_equal(k - kmin, j * block + np.flatnonzero(window))
        assert np.array_equal(mult, window[window != 0])


@given(
    n=st.sampled_from([2, 3]),
    block=st.integers(1, 40),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
def test_shell_blocks_partition_the_eigenvalues_from_kmin(n, block, a, b):
    # small blocks put span and block seams everywhere
    top = 40.0 if n == 2 else 25.0
    lo, hi = sorted((a * top, b * top))
    _check_shell_partition(n, block, lo, hi)


@pytest.mark.parametrize("n", [2, 3])
def test_shell_partition_with_small_blocks_spans_past_2_to_the_16(n):
    # spans follow the block size: a window wider than a default span must
    # still be cut every 999 eigenvalues from kmin
    _check_shell_partition(n, 999, math.sqrt(1000.5), math.sqrt(1000.5 + 70000))


@pytest.mark.parametrize("name", ["T1", "T2", "T3", "SU2"])
def test_shell_density_is_the_derivative_of_the_continuum_count(name):
    # mu(t) = omega_n (t^2 - 1)^(n/2) on T^n (a ball of radius sqrt(t^2 - 1)),
    # t^3 / 3 on SU(2) (sum of d^2 = w^2 per unit step of w)
    group = SU2() if name == "SU2" else Torus(int(name[1]))
    if name == "SU2":
        mu = lambda t: t**3 / 3.0
    else:
        mu = lambda t: groups.UNIT_BALL_VOLUME[group.dim] * (t * t - 1.0) ** (group.dim / 2.0)
    a, b = 1.5, 40.0
    x, wx = np.polynomial.legendre.leggauss(80)
    w = 0.5 * (a + b) + 0.5 * (b - a) * x
    integral = 0.5 * (b - a) * np.sum(wx * group.shell_density(w))
    assert abs(integral - (mu(b) - mu(a))) <= 1e-12 * mu(b)
    # the leading growth is density_coeff * w^(n-1), and nothing overflows
    huge = np.array([1e80])
    lead = group.shell_density(huge)[0] / (group.density_coeff * huge[0] ** (group.dim - 1))
    assert np.isfinite(lead) and abs(lead - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# dual counts


def test_torus2_envelope_vs_lattice_count(t2):
    count = sum(
        1
        for a in range(-10, 11)
        for b in range(-10, 11)
        if 1 + a * a + b * b <= 100
    )
    assert count == 305
    assert len(enumerate_dual(t2, 10.0)) == count


@given(t=st.floats(1.0, 60.0))
def test_su2_dual_mass_has_closed_form(t, su2):
    # levels ell <= m - 1 for m = floor(t): sum of (ell + 1)^2 = m(m+1)(2m+1)/6
    m = math.floor(t)
    assert sum(e.dim**2 for e in enumerate_dual(su2, t)) == m * (m + 1) * (2 * m + 1) // 6


@given(t=st.floats(1.0, 25.0))
def test_torus_dual_count_matches_lattice_count(t):
    for n in (1, 2):
        r = math.isqrt(math.floor(t * t))
        box = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * n), axis=-1).reshape(-1, n)
        exact = int(np.count_nonzero(1 + (box * box).sum(axis=1) <= t * t))
        assert len(enumerate_dual(Torus(n), t)) == exact


# ---------------------------------------------------------------------------
# Haar quadrature


def test_torus1_quadrature_nodes(t1):
    rule = t1.haar_quadrature(4)
    assert np.allclose(rule.nodes.ravel(), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.allclose(rule.weights, 0.25)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_weights_sum_to_one(m, t1, t2, t3, su2):
    for g in (t1, t2, t3, su2):
        rule = g.haar_quadrature(m)
        assert np.all(rule.weights > 0)
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-12


def test_torus_kills_cosine_mode(t1):
    rule = t1.haar_quadrature(8)
    val = rule.integrate(lambda x: 2.0 + math.cos(float(x[0])))
    assert abs(val - 2.0) < 1e-14


@settings(max_examples=25)
@given(
    m=st.integers(2, 6),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_torus_trig_polynomial_exactness(m, n, seed):
    # random trigonometric polynomial of per-axis degree < m integrates to
    # its constant coefficient exactly
    rng = np.random.default_rng(seed)
    g = Torus(n)
    rule = g.haar_quadrature(m)
    freqs = [
        tuple(rng.integers(-(m - 1), m, size=n)) for _ in range(4)
    ]
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)

    def f(x):
        return sum(c * np.exp(1j * np.dot(k, x)) for k, c in zip(freqs, coeffs))

    analytic = sum(c for k, c in zip(freqs, coeffs) if all(v == 0 for v in k))
    assert abs(rule.integrate(f) - analytic) < 1e-12


def test_quadrature_resolution_validation(t1, su2):
    for g in (t1, su2):
        with pytest.raises(InvalidArgumentError):
            g.haar_quadrature(0)


def test_su2_character_orthonormality(su2):
    rule = su2.haar_quadrature(8)
    for ell in range(4):
        val = rule.integrate(lambda x, ell=ell: su2_character(ell, x) ** 2)
        assert abs(val - 1.0) <= 1e-10


def test_su2_characters_orthogonal(su2):
    rule = su2.haar_quadrature(8)
    val = rule.integrate(lambda x: su2_character(1, x) * su2_character(3, x))
    assert abs(val) <= 1e-10


def test_su2_quadrature_against_monte_carlo(su2):
    # Haar sampling via normalized quaternions: cos(theta/2) is the real
    # component, so |chi_1|^2 = (2 q0)^2 averages to one.
    rng = np.random.default_rng(42)
    q = rng.normal(size=(10**6, 4))
    q0 = q[:, 0] / np.linalg.norm(q, axis=1)
    mc = float(np.mean((2.0 * q0) ** 2))
    rule = su2.haar_quadrature(8)
    quad = rule.integrate(lambda x: su2_character(1, x) ** 2)
    assert abs(quad - 1.0) <= 1e-10
    assert abs(mc - quad) <= 5e-3


def test_su2_class_cosine_range(su2):
    rule = su2.haar_quadrature(6)
    for node in rule.nodes:
        assert -1.0 <= su2_class_cosine(node) <= 1.0
