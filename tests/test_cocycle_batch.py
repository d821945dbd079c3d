"""Batched cocycle checks against the scalar loops they replaced.

``cocycle_fuzz`` and ``zd_cocycle_fuzz`` draw all of their cases at once and
compute every cocycle as arrays, and ``homoclinic_scan`` checks the words of
a radius as rows of a batch.  The scalar loops they replaced live on here as oracles (``ref_cocycle_fuzz``,
``ref_zd_cocycle_fuzz``, ``ref_homoclinic_scan``, ``ref_cocycle_gap``), and
every result must equal theirs with ``==``, ``max_gap`` down to its ``repr``,
and raise what they raise.
"""

import math
import tracemalloc
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from test_cocycle_kernel import ref_rn_derivative
from test_symbol_kernel import compact as lattice_compact
from test_symbol_kernel import periodic as lattice_periodic

from ergolab import bernoulli as bn
from ergolab import lattice as lt
from ergolab import runner
from ergolab.errors import NonSingularError, ToleranceError
from ergolab.seeding import GRID_BLOCK, spawn, uniform01
from ergolab.shift_core import RANGE_CAP, Cylinder

F = Fraction
HALF = bn.SiteMeasure.of(["1/2", "1/2"])

FAMILIES = {
    "compact": lambda: bn.CompactFamily(
        bn.SiteMeasure.of(["2/5", "3/5"]),
        {-2: bn.SiteMeasure.of(["1/3", "2/3"]), 0: bn.SiteMeasure.of(["3/4", "1/4"]),
         3: bn.SiteMeasure.of(["5/7", "2/7"])},
    ),
    "iid": lambda: bn.CompactFamily(bn.SiteMeasure.of(["2/7", "5/7"]), {}),
    "three-symbol": lambda: bn.CompactFamily(
        bn.SiteMeasure.of(["1/6", "1/2", "1/3"]),
        {-1: bn.SiteMeasure.of(["1/3", "1/3", "1/3"]), 2: bn.SiteMeasure.of(["1/2", "1/4", "1/4"])},
    ),
    "summable": lambda: bn.SummableFamily(F(2, 9), F(1, 2)),
}

#: r so close to 1 that no radius within the cap reaches a tolerance of 1e-12
SLOW = lambda: bn.SummableFamily(F(1, 9), F(9999999, 10000000))  # noqa: E731

#: a fuzz takes its cases in blocks of this many
FUZZ_BLOCK = GRID_BLOCK // 8


# ---------------------------------------------------------------------------
# the scalar oracles


def ref_cocycle_gap(family, x, n, m, tol=1e-12):
    total = bn.rn_derivative(family, x, n + m, tol)
    first = bn.rn_derivative(family, x.shifted(m), n, tol)
    second = bn.rn_derivative(family, x, m, tol)
    return abs(total.log_magnitude - first.log_magnitude - second.log_magnitude)


def ref_cocycle_fuzz(family, seed, cases, span, tol=1e-12):
    worst = 0.0
    ok = True
    for case in range(cases):
        x = family.configuration(spawn(seed, case))
        n = int(uniform01(seed, 1, case) * (2 * span + 1)) - span
        m = int(uniform01(seed, 2, case) * (2 * span + 1)) - span
        gap = ref_cocycle_gap(family, x, n, m, tol)
        worst = max(worst, gap)
        ok = ok and gap <= 3 * tol + bn.LOG_SLACK
    return {"cases": cases, "max_gap": worst, "all_ok": ok}


def ref_zd_cocycle_fuzz(family, seed, cases, span):
    worst = 0.0
    d = family.dimension
    for case in range(cases):
        x = family.run_configuration(seed, case)
        g = tuple(int(uniform01(seed, 6, case, i) * (2 * span + 1)) - span for i in range(d))
        h = tuple(int(uniform01(seed, 7, case, i) * (2 * span + 1)) - span for i in range(d))
        total = lt.rn_derivative_g(family, x, tuple(a + b for a, b in zip(g, h)))
        first = lt.rn_derivative_g(family, x.translated(h), g)
        second = lt.rn_derivative_g(family, x, h)
        worst = max(worst, abs(total.log_magnitude - first.log_magnitude - second.log_magnitude))
    return {"cases": cases, "max_gap": worst, "all_ok": worst <= bn.LOG_SLACK}


def ref_homoclinic_scan(family, x, radius_max, n_max, tol=1e-12):
    checked = violations = 0
    for radius in range(radius_max + 1):
        for n in range(-n_max, n_max + 1):
            for word in product(family.alphabet.symbols, repeat=2 * radius + 1):
                y = x.rewired(Cylinder(-radius, radius, word))
                checked += 1
                violations += not bn.homoclinic_ratio_bound_check(family, x, y, radius, n, tol).ok
    return checked, violations


def outcome(fn, *args):
    """The result, or the type and message of what was raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def same(got, want):
    assert got == want
    # a float, as rendered: the oracle's cocycles are numpy scalars now
    assert type(got["max_gap"]) is float
    assert repr(got["max_gap"]) == float.__repr__(want["max_gap"])


# ---------------------------------------------------------------------------
# 1-D fuzz


@pytest.mark.parametrize("name", list(FAMILIES))
@pytest.mark.parametrize("span", [0, 1, 8])
def test_cocycle_fuzz_equals_the_scalar_loop(name, span):
    family = FAMILIES[name]()
    cases = 40 if name == "summable" else 300
    for seed in (0, 5):
        same(runner._cocycle_fuzz(family, seed, cases, span, 1e-12),
             ref_cocycle_fuzz(family, seed, cases, span))


def test_cocycle_fuzz_across_a_block_edge():
    family = FAMILIES["compact"]()
    cases = FUZZ_BLOCK + 3
    same(runner._cocycle_fuzz(family, 2, cases, 8, 1e-12), ref_cocycle_fuzz(family, 2, cases, 8))


def test_fuzz_keeps_a_running_max_and_all_ok_across_blocks():
    # the largest gap, and the one over the bound, sit in the last block
    report = runner._fuzz(FUZZ_BLOCK + 3, lambda case: case * 1e-3, (FUZZ_BLOCK + 1) * 1e-3)
    assert report == {"cases": FUZZ_BLOCK + 3, "max_gap": (FUZZ_BLOCK + 2) * 1e-3, "all_ok": False}
    assert runner._fuzz(5, lambda case: 0 * case, 0.0)["all_ok"]


def test_summable_fuzz_across_a_radius_chunk():
    # a summable case is three rows of 2R + 1 cells; 120 cases fill more
    # than one chunk of GRID_BLOCK cells at every radius it takes
    family = FAMILIES["summable"]()
    same(runner._cocycle_fuzz(family, 3, 120, 30, 1e-12), ref_cocycle_fuzz(family, 3, 120, 30))


@pytest.mark.parametrize("n, m", [(0, 0), (2, 3), (-7, 7), (13, -4), (0, 9)])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_cocycle_gaps_equal_the_scalar_gap_bit_for_bit(name, n, m):
    family = FAMILIES[name]()
    seeds = np.array([spawn(11, r) for r in range(4)], dtype=np.uint64)
    got = bn.cocycle_gaps(family, seeds, np.full(4, n), np.full(4, m))
    want = [ref_cocycle_gap(family, family.configuration(int(s)), n, m) for s in seeds]
    assert [float.__repr__(g) for g in got] == [float.__repr__(w) for w in want]


@pytest.mark.parametrize(
    "family",
    [FAMILIES["compact"](), FAMILIES["three-symbol"](),
     bn.SummableFamily(F(1, 9), F(1, 2)), bn.SummableFamily(F(2, 9), F(1, 2))],
    ids=["compact", "three-symbol", "summable-c1/9", "summable-c2/9"],
)
def test_cocycle_gaps_equal_pure_python_sums(family):
    # ``ref_rn_derivative`` adds math.log terms in Python, so unlike the
    # oracles above it shares no kernel with the batch: a summable sum
    # taken pairwise (``np.sum``) for the running sum fails here
    seeds = np.array([spawn(3, r) for r in range(60)], dtype=np.uint64)
    rng = np.random.default_rng(1)
    n, m = rng.integers(-8, 9, 60), rng.integers(-8, 9, 60)
    got = bn.cocycle_gaps(family, seeds, n, m)
    for gap, s, a, b in zip(got.tolist(), seeds.tolist(), n.tolist(), m.tolist()):
        x = family.configuration(s)
        logs = [ref_rn_derivative(family, y, k).log_magnitude for y, k in ((x, a + b), (x.shifted(b), a), (x, b))]
        assert gap == abs(logs[0] - logs[1] - logs[2])


@pytest.mark.parametrize(
    "name, span, tol",
    [
        ("compact", RANGE_CAP, 1e-12),  # some n + m passes the cap
        ("compact", 2**60, 1e-12),  # every draw is past it, made in Python ints
        ("slow", 8, 1e-12),  # the tolerance is out of reach at every n != 0
        ("slow", 2**24, 1e-12),  # both: the first in the scalar order wins
        ("summable", 2**30, 1e-12),
    ],
)
def test_fuzz_raises_what_the_scalar_loop_raises_first(name, span, tol):
    family = SLOW() if name == "slow" else FAMILIES[name]()
    got = outcome(runner._cocycle_fuzz, family, 1, 30, span, tol)
    want = outcome(ref_cocycle_fuzz, family, 1, 30, span, tol)
    assert got == want
    assert isinstance(want, tuple) and want[0] in (ValueError, ToleranceError)


def test_span_zero_with_an_unreachable_tolerance_still_reports():
    # every shift is 0, so no cocycle is read and no tolerance is searched
    same(runner._cocycle_fuzz(SLOW(), 0, 10, 0, 1e-12), ref_cocycle_fuzz(SLOW(), 0, 10, 0, 1e-12))


def test_periodic_family_is_refused_before_any_case():
    family = bn.PeriodicFamily([HALF, bn.SiteMeasure.of(["1/3", "2/3"])])
    for check in (
        lambda: runner._cocycle_fuzz(family, 0, 5, 3, 1e-12),
        lambda: runner._homoclinic_scan(family, 0, 1, 1),
    ):
        with pytest.raises(NonSingularError, match="divergent Kakutani sum"):
            check()


# ---------------------------------------------------------------------------
# Z^d fuzz


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("span", [0, 1, 8])
def test_zd_cocycle_fuzz_equals_the_scalar_loop(d, span):
    family = lattice_compact(d)
    for seed in (0, 4):
        same(runner._zd_cocycle_fuzz(family, seed, 150, span), ref_zd_cocycle_fuzz(family, seed, 150, span))


def test_zd_cocycle_fuzz_across_a_block_edge():
    family = lattice_compact(2)
    cases = FUZZ_BLOCK + 3
    same(runner._zd_cocycle_fuzz(family, 9, cases, 4), ref_zd_cocycle_fuzz(family, 9, cases, 4))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_periodic_fuzz_refuses_the_first_singular_translation(d):
    family = lattice_periodic(d)
    for seed in range(4):
        got = outcome(runner._zd_cocycle_fuzz, family, seed, 50, 5)
        assert got == outcome(ref_zd_cocycle_fuzz, family, seed, 50, 5)
        assert got[0] is NonSingularError


def test_zd_periodic_cocycle_of_one_huge_translation():
    # a single point's translation is not capped; a singular one is refused
    family = lattice_periodic(2)
    with pytest.raises(NonSingularError, match=r"translation by \(1180591620717411303424, 1\)"):
        lt.rn_derivative_g(family, family.configuration(0), (2**70, 1))
    assert lt.rn_derivative_g(family, family.configuration(0), (2**70, 3)) == (0.0, 0.0)


def test_zd_fuzz_refuses_translations_past_the_cap():
    family = lattice_compact(2)
    with pytest.raises(ValueError, match=f"exceeds cap {RANGE_CAP}"):
        runner._zd_cocycle_fuzz(family, 0, 5, 2**70)


# ---------------------------------------------------------------------------
# homoclinic scan


@pytest.mark.parametrize("name", list(FAMILIES))
def test_homoclinic_scan_equals_the_pair_loop(name, monkeypatch):
    family = FAMILIES[name]()
    radius_max, n_max = (1, 2) if name in ("summable", "three-symbol") else (2, 4)
    x = family.configuration(spawn(7, 0))
    assert bn.homoclinic_scan(family, x, radius_max, n_max) == ref_homoclinic_scan(
        family, x, radius_max, n_max
    )
    # tightened bounds, which some pairs break, shared by both
    bounds = bn._homoclinic_bounds
    monkeypatch.setattr(bn, "_homoclinic_bounds", lambda *a: tuple(b / 5 for b in bounds(*a)))
    got = bn.homoclinic_scan(family, x, radius_max, n_max)
    assert got == ref_homoclinic_scan(family, x, radius_max, n_max)
    assert got[1] > 0 or name == "iid"


def test_homoclinic_scan_of_a_shifted_rewired_point():
    family = FAMILIES["compact"]()
    x = family.configuration(3).shifted(4).rewired(Cylinder.of([2, 1], left=-3))
    assert bn.homoclinic_scan(family, x, 2, 3) == ref_homoclinic_scan(family, x, 2, 3)


def test_homoclinic_scan_across_a_words_block():
    # a block of words holds GRID_BLOCK symbols of the read block at most:
    # radius 6 has 2^13 words, more than a block of this hull holds
    family = FAMILIES["compact"]()
    x = family.configuration(spawn(1, 0))
    got = bn.homoclinic_scan(family, x, 6, 1)
    assert got == (sum(2 ** (2 * r + 1) for r in range(7)) * 3, got[1])
    with pytest.MonkeyPatch.context() as mp:
        bounds = bn._homoclinic_bounds
        mp.setattr(bn, "_homoclinic_bounds", lambda *a: tuple(b / 5 for b in bounds(*a)))
        tight = bn.homoclinic_scan(family, x, 6, 1)
        assert tight == ref_homoclinic_scan(family, x, 6, 1)


def test_homoclinic_scan_across_blocks_of_shifts(monkeypatch):
    # the shifts are taken GRID_BLOCK at a time; a small block makes many
    family = bn.CompactFamily(HALF, {0: bn.SiteMeasure.of(["3/4", "1/4"]), 2: bn.SiteMeasure.of(["1/5", "4/5"])})
    x = family.configuration(spawn(2, 0))
    bounds = bn._homoclinic_bounds
    monkeypatch.setattr(bn, "_homoclinic_bounds", lambda *a: tuple(b / 5 for b in bounds(*a)))
    monkeypatch.setattr(bn, "GRID_BLOCK", 64)
    got = bn.homoclinic_scan(family, x, 1, 150)
    assert got == ref_homoclinic_scan(family, x, 1, 150)
    assert got[0] == (2 + 8) * 301 and got[1] > 0


def test_homoclinic_scan_raises_what_the_pair_loop_raises():
    family = SLOW()
    x = family.configuration(0)
    got = outcome(bn.homoclinic_scan, family, x, 1, 3)
    assert got == outcome(ref_homoclinic_scan, family, x, 1, 3)
    assert got[0] is ToleranceError
    for n_max in (RANGE_CAP + 1, 2**70):
        with pytest.raises(ValueError, match="exceeds cap"):
            bn.homoclinic_scan(family, x, 0, n_max)


def test_homoclinic_scan_with_no_pairs_returns_zero_counts():
    # as in the pair loop, an empty range of radii or shifts reads and raises nothing
    periodic = bn.PeriodicFamily([HALF, bn.SiteMeasure.of(["1/3", "2/3"])])
    for family in (FAMILIES["compact"](), periodic):
        x = family.configuration(0)
        for radius_max, n_max in ((2, -1), (-1, 2), (-3, -3)):
            assert bn.homoclinic_scan(family, x, radius_max, n_max) == (0, 0)
            assert ref_homoclinic_scan(family, x, radius_max, n_max) == (0, 0)


# ---------------------------------------------------------------------------
# memory: nothing is held per case or per (word, shift)


def traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_fuzz_peaks_under_8_mib():
    family = FAMILIES["compact"]()
    peak = traced_peak(lambda: runner._cocycle_fuzz(family, 0, 2**18, 8, 1e-12))
    assert peak < 8 * 2**20


def test_a_radius_8_scan_peaks_under_8_mib():
    family = bn.CompactFamily(HALF, {0: bn.SiteMeasure.of(["3/4", "1/4"]), 2: bn.SiteMeasure.of(["1/5", "4/5"])})
    x = family.configuration(5)
    peak = traced_peak(lambda: bn.homoclinic_scan(family, x, 8, 1))
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the summable family's fair-coin cutoff


def fair(c, r, k):
    """Whether c r^k <= 2^-55, from the integers."""
    return (c.numerator * r.numerator**k) << 55 <= c.denominator * r.denominator**k


@pytest.mark.parametrize("r", [F(1, 2), F(9, 10), F(999, 1000), F(9999, 10000)])
def test_fair_cutoff_is_the_least_fair_k(r):
    c = F(1, 10)
    k = bn.SummableFamily(c, r)._fair_from
    assert fair(c, r, k) and not fair(c, r, k - 1)


def test_fair_cutoff_near_one_takes_no_big_powers():
    c, r = F(1, 10), F(99999, 100000)
    with localcontext() as ctx:
        ctx.prec = 60
        # the least k with k log(q/p) >= log(2^55 c); not near an integer
        exact = (Decimal(2) ** 55 * c.numerator / c.denominator).ln() / (
            Decimal(r.denominator) / r.numerator
        ).ln()
        assert abs(exact - exact.to_integral_value()) > Decimal("1e-6")
        want = int(exact.to_integral_value(rounding=ROUND_CEILING))
    family = bn.SummableFamily(c, r)
    tracemalloc.start()
    try:
        assert family._fair_from == want
        # p^k would take megabytes at k ~ 3.6 million
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert math.isinf(bn.SummableFamily(F(1, 10), F(999999999, 1000000000))._fair_from)
