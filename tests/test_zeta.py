import json
import math
from pathlib import Path

import numpy as np
import pytest

from ncresidue import (
    SU2,
    DecayEnvelope,
    Torus,
    add_symbols,
    dense_symbol,
    diag_signed_symbol,
    diagonal_symbol,
    estimate_slope,
    geometric_schedule,
    scalar_symbol,
    scale_symbol,
    sum_series,
    weight_power_symbol,
    zeta_residue,
    zeta_trace,
)
from ncresidue import dualsum
from ncresidue.zeta import (
    DEFAULT_S_SCHEDULE,
    DEFAULT_START_CUTOFF,
    DEFAULT_TOLERANCE,
    TAIL_SAFETY_FACTOR,
)
from ncresidue.errors import BudgetExceededError, InvalidArgumentError

PI_COTH_PI = math.pi / math.tanh(math.pi)
BASEL = math.pi**2 / 6.0


# ---------------------------------------------------------------------------
# direct samples


def test_su2_basel_sample(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    smp = zeta_trace(sym, s=1.0, tol=1e-6)
    assert abs(smp.value - BASEL) <= 1e-6
    assert smp.tail_bound <= 1e-6 * max(1.0, abs(smp.partial))


def test_torus1_coth_sample(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    smp = zeta_trace(sym, s=1.0, tol=1e-6)
    assert abs(smp.value - PI_COTH_PI) <= 1e-6


def test_zero_symbol_sample(su2):
    sym = weight_power_symbol(su2, 0.0, -3.0)
    smp = zeta_trace(sym, s=0.5, tol=1e-6)
    assert smp.value == 0.0
    assert smp.tail_bound == 0.0


def test_argument_validation(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(sym, s=-1.0, tol=1e-3)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(sym, s=1.0, tol=0.0)
    wrong_order = weight_power_symbol(t1, 1.0, -2.0)
    with pytest.raises(InvalidArgumentError):
        zeta_trace(wrong_order, s=1.0, tol=1e-3)


def test_budget_exceeded_carries_best_sample(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        zeta_trace(sym, s=0.5, tol=1e-9, max_cutoff=64.0)
    best = exc_info.value.best
    assert best is not None
    assert best.truncation_cutoff == 64.0
    assert best.tail_bound > 0.0


def test_max_cutoff_is_validated_and_rounds_down_to_the_doubling_grid(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    for bad in (math.nan, math.inf, 0.5, DEFAULT_START_CUTOFF / 2):
        with pytest.raises(InvalidArgumentError, match="max_cutoff"):
            zeta_trace(sym, s=0.5, tol=1e-9, max_cutoff=bad)
        with pytest.raises(InvalidArgumentError, match="max_cutoff"):
            zeta_residue(sym, max_cutoff=bad)
    # the smoothed sums need doubling cutoffs: 100 ends the grid at 64
    with pytest.raises(BudgetExceededError) as exc_info:
        zeta_trace(sym, s=0.5, tol=1e-30, max_cutoff=100.0)
    assert exc_info.value.best.truncation_cutoff == 64.0
    # min_cutoff beyond the grid stops at its last cutoff
    smp = zeta_trace(sym, s=0.5, tol=1e-3, max_cutoff=100.0, min_cutoff=100.0)
    assert smp.truncation_cutoff == 64.0


def test_torus3_small_s_sample_within_default_budget(t3):
    # the integrated radial tail meets the default tolerance near N = 128,
    # at the smallest default s
    sym = weight_power_symbol(t3, 1.0, -3.0)
    smp = zeta_trace(sym, s=0.05, tol=DEFAULT_TOLERANCE)
    assert smp.truncation_cutoff <= 256.0
    assert smp.tail_bound <= DEFAULT_TOLERANCE * max(1.0, abs(smp.partial))
    assert smp.value == smp.partial + smp.tail_correction


def _riemann_zeta(x, m=1000):
    """zeta(x) for x > 1 by Euler-Maclaurin after m terms (to about 1e-16)."""
    head = math.fsum(k**-x for k in range(1, m))
    return (
        head + m ** (1 - x) / (x - 1) + 0.5 * m**-x + x * m ** (-x - 1) / 12.0
        - x * (x + 1) * (x + 2) * m ** (-x - 3) / 720.0
    )


@pytest.mark.parametrize("s", [0.5, 0.1, 0.05])
def test_su2_radial_samples_match_riemann_zeta(su2, s):
    # on SU(2), f(-s) of <xi>^-3 is sum_w w^2 w^-3 w^-s = zeta(1 + s)
    smp = zeta_trace(weight_power_symbol(su2, 1.0, -3.0), s=s, tol=DEFAULT_TOLERANCE)
    exact = _riemann_zeta(1.0 + s)
    assert abs(smp.value - exact) <= max(smp.tail_bound, 1e-13 * exact)


def test_first_radial_sample_has_no_bound(t1):
    # one cutoff cannot estimate its own error: the budget of one cutoff
    # always runs out
    sym = weight_power_symbol(t1, 1.0, -1.0)
    with pytest.raises(BudgetExceededError) as exc_info:
        zeta_trace(sym, s=0.5, tol=1.0, max_cutoff=DEFAULT_START_CUTOFF)
    assert exc_info.value.best.tail_bound == math.inf


def _psi(t):
    """The smooth step: 1 on [0, 1/2], 0 on [1, inf)."""
    def h(x):
        return np.where(x > 0.0, np.exp(-1.0 / np.where(x > 0.0, x, 1.0)), 0.0)

    a, b = h(2.0 - 2.0 * t), h(2.0 * t - 1.0)
    return a / (a + b)


def _four_point_solve(sym, s, cuts):
    """f(-s) from the psi-smoothed sums over (0, N] at four cutoffs N."""
    sums = [
        dualsum.annulus_sums(sym, [n], "signed", lambda w, n=n: (_psi(w / n) * w ** (-s))[None])[0, 0]
        for n in cuts
    ]
    x = np.array(cuts) / cuts[-1]
    basis = np.array([np.ones(4), x ** (-s), x ** (-s - 1.0), x ** (-s - 2.0)]).T
    return complex(np.linalg.solve(basis, np.array(sums))[0]), complex(sums[-1])


def test_non_scalar_sample_is_the_four_point_solve_of_its_smoothed_sums(su2):
    sym = diag_signed_symbol(su2, -3.0)
    s = 0.1
    smp = zeta_trace(sym, s, tol=1e-3, min_cutoff=512.0)
    assert smp.truncation_cutoff == 512.0
    cuts = [DEFAULT_START_CUTOFF * 2.0**k for k in range(6)]  # 16 .. 512
    value, smoothed = _four_point_solve(sym, s, cuts[2:])
    previous, _ = _four_point_solve(sym, s, cuts[1:5])
    assert abs(smp.partial - smoothed) <= 1e-13 * abs(smoothed)
    assert abs(smp.value - value) <= 1e-12 * abs(value)
    assert smp.tail_correction == smp.value - smp.partial
    assert smp.tail_bound == pytest.approx(TAIL_SAFETY_FACTOR * abs(value - previous), rel=1e-3, abs=1e-13)
    assert 0.0 < smp.tail_bound < 1e-6


def test_monotone_tail(su2):
    # forcing a larger truncation moves the value by less than the bound
    sym = weight_power_symbol(su2, 1.0, -3.0)
    base = zeta_trace(sym, s=0.5, tol=1e-3)
    forced = zeta_trace(sym, s=0.5, tol=1e-3, min_cutoff=base.truncation_cutoff * 16)
    assert forced.truncation_cutoff > base.truncation_cutoff
    assert abs(forced.value - base.value) <= base.tail_bound


# ---------------------------------------------------------------------------
# residue extrapolation


def test_torus1_residue(t1):
    sym = weight_power_symbol(t1, 1.0, -1.0)
    zr = zeta_residue(sym)
    assert abs(zr.value - 2.0) <= 0.05
    assert zr.flags == ()


def test_su2_residue(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    zr = zeta_residue(sym)
    assert abs(zr.value - 1.0) <= 0.05


def test_imaginary_rotation(t1):
    # linearity over the real case: i * sigma has residue 2i
    zr = zeta_residue(weight_power_symbol(t1, 1j, -1.0))
    assert abs(zr.value - 2j) <= 0.06


def test_linearity_within_error_bars(su2):
    a = weight_power_symbol(su2, 1.0, -3.0)
    b = weight_power_symbol(su2, 0.5, -3.0)
    combo = add_symbols(scale_symbol(2.0, a), scale_symbol(1j, b))
    za = zeta_residue(a)
    zb = zeta_residue(b)
    zc = zeta_residue(combo)
    expected = 2.0 * za.value + 1j * zb.value
    assert abs(zc.value - expected) <= zc.error_bar + 2.0 * za.error_bar + zb.error_bar


def test_agreement_with_weak_l1_slope(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    est = estimate_slope(sum_series(sym, geometric_schedule(16.0, 2.0, 11)))
    zr = zeta_residue(sym)
    allow = zr.error_bar + est.error_bar + 0.02 * abs(est.value)
    assert abs(zr.value - est.value) <= allow


def test_schedule_validation(su2):
    sym = weight_power_symbol(su2, 1.0, -3.0)
    with pytest.raises(InvalidArgumentError):
        zeta_residue(sym, s_schedule=[0.4, 0.8, 0.2])
    with pytest.raises(InvalidArgumentError):
        zeta_residue(sym, s_schedule=[0.8, 0.4])


def test_non_affine_behavior_flagged(t1):
    # an honest order -1 envelope hiding a strong s = -0.2 pole nearby:
    # g(s) = s f(-s) picks up 200 s/(s+0.2), far from affine near zero
    def profile(w):
        return w**-1.0 + 100.0 * w**-1.2

    sym = scalar_symbol(t1, profile, DecayEnvelope(101.0, -1.0))
    zr = zeta_residue(sym, s_schedule=[1.6, 0.8, 0.4], tol=0.01)
    assert "higher-order pole or wrong order" in zr.flags


# ---------------------------------------------------------------------------
# error bars on the canonical table


CANONICAL = [
    ("T1", Torus(1), 2.0),
    ("T2", Torus(2), 2.0 * math.pi),
    ("T3", Torus(3), 4.0 * math.pi),
    ("SU2", SU2(), 1.0),
]
SU2_ZETA_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "su2_zeta.json").read_text()
)["zeta"]


@pytest.mark.parametrize("name, group, volume", CANONICAL, ids=[c[0] for c in CANONICAL])
def test_canonical_bars_cover_errors(name, group, volume):
    c = 1.5 - 0.5j
    sym = weight_power_symbol(group, c, -group.dim)
    analytic = c * volume
    zr = zeta_residue(sym)
    assert abs(zr.value - analytic) <= zr.error_bar <= 1e-3 * abs(analytic)
    assert zr.flags == ()
    # the shipped CLI schedule stops at s = 0.2, so extrapolation dominates
    zr = zeta_residue(sym, s_schedule=SU2_ZETA_CONFIG["s_schedule"], tol=SU2_ZETA_CONFIG["tol"])
    assert abs(zr.value - analytic) <= zr.error_bar <= 1e-2 * abs(analytic)


def _su2_diagonal(c=1.5 - 0.5j):
    return diagonal_symbol(
        SU2(), lambda xi: np.full(xi.dim, c * xi.weight**-3.0), DecayEnvelope(abs(c), -3.0)
    )


def test_structure_tag_does_not_change_the_zeta_residue(su2):
    c = 1.5 - 0.5j
    scalar = weight_power_symbol(su2, c, -3.0)
    diagonal = _su2_diagonal(c)
    for s in DEFAULT_S_SCHEDULE:
        a = zeta_trace(scalar, s, DEFAULT_TOLERANCE)
        b = zeta_trace(diagonal, s, DEFAULT_TOLERANCE)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
    za = zeta_residue(scalar)
    zb = zeta_residue(diagonal)
    assert [smp.s for smp in za.samples] == [smp.s for smp in zb.samples] == list(DEFAULT_S_SCHEDULE)
    assert abs(za.value - zb.value) <= za.error_bar + zb.error_bar
    assert abs(zb.value - c) <= zb.error_bar <= 1e-3 * abs(c)


def _pattern_diagonal():
    """The su2-dense benchmark pattern in diagonal form: same spectra, Tr bounded per level."""
    def diag(xi):
        k = np.arange(xi.dim, dtype=np.float64)
        return xi.weight**-3.0 * (np.cos(1.3 * k + 0.4) + 1j * np.sin(0.7 * k - 0.2))

    return diagonal_symbol(SU2(), diag, DecayEnvelope(1.5, -3.0))


NON_SCALAR_DEFAULT_CASES = [
    # (name, symbol, residue): c <xi>^-n in diagonal form, and two convergent
    # traces (residue 0) whose bars are absolute
    ("T1 diagonal", lambda: scale_symbol(1.5 - 0.5j, diag_signed_symbol(Torus(1), -1.0)), 2.0 * (1.5 - 0.5j)),
    ("T2 diagonal", lambda: scale_symbol(1.5 - 0.5j, diag_signed_symbol(Torus(2), -2.0)),
     2.0 * math.pi * (1.5 - 0.5j)),
    ("SU2 diagonal", _su2_diagonal, 1.5 - 0.5j),
    ("SU2 diag_signed", lambda: diag_signed_symbol(SU2(), -3.0), 0.0),
    ("su2-dense pattern", _pattern_diagonal, 0.0),
]


@pytest.mark.parametrize(
    "make, residue", [c[1:] for c in NON_SCALAR_DEFAULT_CASES], ids=[c[0] for c in NON_SCALAR_DEFAULT_CASES]
)
def test_non_scalar_defaults_finish_within_their_bars(make, residue):
    # the envelope tail model these replaced left bars of 0.3-0.5 of the value
    zr = zeta_residue(make())
    assert abs(zr.value - residue) <= zr.error_bar <= 1e-2 * max(1.0, abs(residue))
    assert zr.flags == ()


# ---------------------------------------------------------------------------
# one doubling loop for every s of a residue


def _dense_su2():
    return dense_symbol(
        SU2(),
        lambda xi: (1.0 + 0.5j) * xi.weight**-3.0 * np.diag(np.linspace(0.0, 1.0, xi.dim)),
        DecayEnvelope(1.5, -3.0),
    )


SHARED_LOOP_CASES = [
    *[(name, lambda g=group: weight_power_symbol(g, 1.5 - 0.5j, -g.dim), DEFAULT_S_SCHEDULE,
       DEFAULT_TOLERANCE) for name, group, _ in CANONICAL],
    ("SU2 diagonal", lambda: diag_signed_symbol(SU2(), -3.0), DEFAULT_S_SCHEDULE, DEFAULT_TOLERANCE),
    # each level costs d^3, so a looser tol: the four-point solves stop at 512
    ("SU2 dense", _dense_su2, DEFAULT_S_SCHEDULE, 1e-6),
]


@pytest.mark.parametrize(
    "make, s_schedule, tol", [c[1:] for c in SHARED_LOOP_CASES], ids=[c[0] for c in SHARED_LOOP_CASES]
)
def test_shared_loop_gives_the_samples_of_one_s_at_a_time(make, s_schedule, tol):
    sym = make()
    zr = zeta_residue(sym, s_schedule=s_schedule, tol=tol)
    for s, sample in zip(s_schedule, zr.samples):
        assert sample == zeta_trace(sym, s, tol)


def _budget_error(sym, s, tol, max_cutoff):
    """The BudgetExceededError of one s alone, or None if it stops."""
    try:
        zeta_trace(sym, s, tol, max_cutoff=max_cutoff)
    except BudgetExceededError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "sym, s_schedule, max_cutoff",
    [
        # every s is short of its tolerance at 64
        (weight_power_symbol(SU2(), 1.0, -3.0), DEFAULT_S_SCHEDULE, 64.0),
        # s = 0.2 stops at 1024, s = 0.1 and 0.05 do not
        (_su2_diagonal(), DEFAULT_S_SCHEDULE, 1024.0),
    ],
    ids=["radial", "diagonal"],
)
def test_shared_loop_raises_for_the_first_unstopped_s(sym, s_schedule, max_cutoff):
    tol = DEFAULT_TOLERANCE
    alone = [_budget_error(sym, s, tol, max_cutoff) for s in s_schedule]
    first = next(exc for exc in alone if exc is not None)
    with pytest.raises(BudgetExceededError) as together:
        zeta_residue(sym, s_schedule=s_schedule, tol=tol, max_cutoff=max_cutoff)
    assert together.value.best == first.best
    assert str(together.value) == str(first)


def test_work_per_cutoff_does_not_grow_with_the_number_of_s(t3):
    # the profile counts the weights it is evaluated at: shells, smoothed
    # annulus and tail quadrature nodes are shared by every s
    evaluated = []

    def profile(w):
        evaluated.append(w.size)
        return (1.5 - 0.5j) * w**-3.0

    sym = scalar_symbol(t3, profile, DecayEnvelope(1.6, -3.0))
    evaluated.clear()
    zr = zeta_residue(sym)
    assert len(zr.samples) == 3
    assert all(smp.truncation_cutoff == 128.0 for smp in zr.samples)
    together = sum(evaluated)
    evaluated.clear()
    assert zeta_trace(sym, DEFAULT_S_SCHEDULE[-1], DEFAULT_TOLERANCE).truncation_cutoff == 128.0
    assert together == sum(evaluated)


def test_diagonal_chunks_see_each_class_once_per_cutoff(su2):
    # one pass per annulus gives both the sharp and the smoothed sums, so
    # every level is evaluated once, in the annulus of its weight, for all s
    labels = []

    def diag(xi):
        labels.append(xi.label)
        return np.full(xi.dim, (1.5 - 0.5j) * xi.weight**-3.0)

    sym = diagonal_symbol(su2, diag, DecayEnvelope(1.6, -3.0), check=False)
    zr = zeta_residue(sym)
    last = max(smp.truncation_cutoff for smp in zr.samples)
    assert sorted(labels) == list(range(int(last)))
    labels.clear()
    assert zeta_trace(sym, DEFAULT_S_SCHEDULE[-1], DEFAULT_TOLERANCE).truncation_cutoff == last
    assert sorted(labels) == list(range(int(last)))
