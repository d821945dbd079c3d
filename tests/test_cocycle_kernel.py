"""The one cocycle kernel against the per-term, per-run code it replaced.

The references below keep the earlier implementations: a ``math.log`` of an
exact ``Fraction`` per cocycle term, one scalar symbol read per coordinate
against a float CDF, one exact site built per summable coordinate, and one
Python loop iteration per Monte Carlo run.  Every comparison is exact
(``==`` on floats), because the cached per-site records and the batched runs
must reproduce the reports bit for bit.
"""

import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ergolab import averages as av
from ergolab import bernoulli as bn
from ergolab import lattice as lt
from ergolab import poisson as ps
from ergolab.seeding import (
    GRID_BLOCK,
    TAG_LATTICE,
    TAG_SYMBOL,
    combine,
    spawn,
    spawn_vec,
    thresholds,
    uniform01,
    zigzag,
)
from ergolab.shift_core import (
    Cylinder,
    LazyTail,
    periodic_levels,
    rule_levels,
    window_levels,
)

F = Fraction
HALF = bn.SiteMeasure.of(["1/2", "1/2"])
TILTED = bn.SiteMeasure.of(["3/4", "1/4"])
TWO_FIFTHS = bn.SiteMeasure.of(["2/5", "3/5"])


def compact_family():
    window = {
        -2: TILTED,
        0: bn.SiteMeasure.of(["2/3", "1/3"]),
        3: bn.SiteMeasure.of(["1/7", "6/7"]),
    }
    return bn.CompactFamily(TWO_FIFTHS, window)


def three_symbol_family():
    base = bn.SiteMeasure.of(["1/3", "1/3", "1/3"])
    return bn.CompactFamily(base, {1: bn.SiteMeasure.of(["1/2", "1/3", "1/6"])})


FAMILIES = {
    "compact": compact_family,
    "three-symbol": three_symbol_family,
    "iid": lambda: bn.CompactFamily(TILTED, {}),
    "summable-r1/2": lambda: bn.SummableFamily(F(1, 10), F(1, 2)),
    "summable-r9/10": lambda: bn.SummableFamily(F(1, 10), F(9, 10)),
}
each_family = pytest.mark.parametrize("name", list(FAMILIES))


def configurations(family, seed):
    """A plain, a pinned and a shifted configuration of the family."""
    x = family.configuration(spawn(seed, 0))
    pinned = family.configuration(spawn(seed, 1)).rewired(Cylinder.of([2, 1], left=-1))
    pinned = pinned.rewired(Cylinder.of([2], left=4))
    return [x, pinned, x.shifted(5), pinned.shifted(-3)]


# --- the replaced code, kept as the reference ----------------------------------


def float_cdf(probs):
    """The float sampling CDF of a site: running sums of the probabilities'
    floats, the last entry set to 1.0."""
    c = np.cumsum(np.asarray([float(p) for p in probs], dtype=np.float64))
    c[-1] = 1.0
    return c


def ref_symbol(tail_seed, probs_at, k):
    """One scalar draw through a CDF built from the exact probabilities."""
    u = uniform01(tail_seed, TAG_SYMBOL, zigzag(k))
    return int(np.searchsorted(float_cdf(probs_at(k)), u, side="right")) + 1


def ref_effective_window(family, tol):
    h = 1
    while 2.0 * family.tail(h) > tol:
        h *= 2
    window = {
        k: family.site(k)
        for k in range(-h, h + 1)
        if family.site(k).probs != family.base.probs
    }
    return window, 2.0 * family.tail(h)


def ref_rn_derivative(family, x, n, tol=1e-12):
    family.require_nonsingular()
    if n == 0:
        return bn.LogValue(0.0, 0.0)
    if isinstance(family, bn.CompactFamily):
        log_x = 0.0
        for i, m in family.window.items():
            log_x += math.log(m.prob(x.symbol(i + n))) - math.log(
                family.base.prob(x.symbol(i + n))
            )
            log_x -= math.log(m.prob(x.symbol(i))) - math.log(family.base.prob(x.symbol(i)))
        return bn.LogValue(log_x, 0.0)
    radius = max(abs(n) + 1, 8)
    while family.tail(radius - abs(n)) + family.tail(radius) > tol:
        radius *= 2
    total = 0.0
    for k in range(-radius, radius + 1):
        total += math.log(family.site(k - n).prob(x.symbol(k))) - math.log(
            family.site(k).prob(x.symbol(k))
        )
    return bn.LogValue(total, family.tail(radius - abs(n)) + family.tail(radius))


def ref_rn_log_weights(family, x, ns, tol=1e-12):
    family.require_nonsingular()
    ns = np.asarray(ns, dtype=np.int64)
    if isinstance(family, bn.CompactFamily):
        window, err = family.window, 0.0
    else:
        window, err = ref_effective_window(family, tol)
    if not window:
        return np.zeros(len(ns)), err
    lo = int(min(k for k in window) + min(ns.min(), 0))
    hi = int(max(k for k in window) + max(ns.max(), 0))
    block = x.block(lo, hi)
    base_logs = np.array([math.log(p) for p in family.base.probs])
    out = np.zeros(len(ns))
    for i, m in window.items():
        table = np.array([math.log(p) for p in m.probs]) - base_logs
        out += table[block[(i + ns) - lo] - 1] - table[block[i - lo] - 1]
    return out, err


def ref_product_bound(family, radius, n):
    bound = 0.0
    for k in range(-radius, radius + 1):
        a, b = family.site(k), family.site(k - n)
        bound += math.log(float(a.max_prob / a.min_prob)) + math.log(
            float(b.max_prob / b.min_prob)
        )
    return bound


def ref_rn_derivative_g(family, x, g):
    base = family.base
    total = 0.0
    for i, m in family.window.items():
        pulled = tuple(a - b for a, b in zip(i, g))
        s_pulled, s_here = x.symbol(pulled), x.symbol(i)
        total += math.log(float(m.prob(s_pulled))) - math.log(float(base.prob(s_pulled)))
        total -= math.log(float(m.prob(s_here))) - math.log(float(base.prob(s_here)))
    return bn.LogValue(total, 0.0)


def ref_lattice_symbol(x, g):
    vec = tuple(v + o for v, o in zip(g, x.offset))
    u = (combine(x.seed, TAG_LATTICE, *(zigzag(v) for v in vec)) >> 11) * 2.0**-53
    return int(np.searchsorted(float_cdf(x.family.site(vec).probs), u, side="right")) + 1


def ref_value_series(x, obs, times):
    times = np.asarray(times, dtype=np.int64)
    out = np.zeros(len(times))
    spans = [atom for _, atom in obs.terms if not atom.is_empty]
    if spans:
        lo = min(a.left for a in spans) + int(times.min())
        hi = max(a.right for a in spans) + int(times.max())
        block = x.block(lo, hi)
    for c, atom in obs.terms:
        if atom.is_empty:
            out += c
            continue
        ind = np.ones(len(times), dtype=bool)
        for j in atom.coords():
            ind &= block[(j + times) - lo] == atom.symbol(j)
        out += c * ind
    return out


def ref_values_matrix(system, master_seed, n_runs, obs, times):
    """The per-run fallback: one value series per seeded run."""
    value_series = ref_value_series if system.kind == "bernoulli" else system.value_series
    out = np.empty((n_runs, len(times)))
    for r in range(n_runs):
        out[r] = value_series(system.run_sample(master_seed, r), obs, np.asarray(times))
    return out


def ref_dual_log_weights(system, x, n):
    if system.kind == "poisson":
        return np.zeros(n)
    return ref_rn_log_weights(system.family, x, -np.arange(n))[0]


def ref_run_sups(system, f, n_runs, horizon, master_seed):
    """Per seeded run, the running sup of |dual ratio| (the per-run loop)."""
    value_series = ref_value_series if system.kind == "bernoulli" else system.value_series
    sups = []
    for r in range(n_runs):
        x = system.run_sample(master_seed, r)
        weights = np.exp(ref_dual_log_weights(system, x, horizon))
        values = value_series(x, f, -np.arange(horizon))
        ratios = np.cumsum(weights * values) / np.cumsum(weights)
        sups.append(np.max(np.abs(ratios)))
    return sups


def ref_whole_sups(system, f, n_runs, horizon, master_seed):
    """Per seeded run, the running sup of |dual ratio| from whole (runs,
    horizon) matrices of log weights and values, as the probe once formed
    them: the Bernoulli ones from one grid of the runs by the formulas of
    ``ref_rn_log_weights`` and ``ref_value_series``, row by row."""
    ns = -np.arange(horizon)
    if system.kind == "poisson":
        logs = np.zeros((n_runs, horizon))
        values = system.values_matrix(master_seed, n_runs, f, ns.tolist())
    else:
        family = system.family
        if isinstance(family, bn.CompactFamily):
            window = family.window
        else:
            window = ref_effective_window(family, 1e-12)[0]
        atoms = [atom for _, atom in f.terms if not atom.is_empty]
        sites = list(window) + [j for atom in atoms for j in atom.coords()]
        lo = min(sites) + int(ns.min())
        hi = max(sites)
        block = family.run_grid(master_seed, n_runs, lo, hi)
        base_logs = np.array([math.log(p) for p in family.base.probs])
        logs = np.zeros((n_runs, horizon))
        for i, m in window.items():
            table = np.array([math.log(p) for p in m.probs]) - base_logs
            logs += table[block[:, (i + ns) - lo] - 1] - table[block[:, [i - lo]] - 1]
        values = np.zeros((n_runs, horizon))
        for c, atom in f.terms:
            ind = np.ones((n_runs, horizon), dtype=bool)
            for j in atom.coords():
                ind &= block[:, (j + ns) - lo] == atom.symbol(j)
            values += c * ind
    weights = np.exp(logs)
    ratios = np.cumsum(weights * values, axis=1) / np.cumsum(weights, axis=1)
    return np.max(np.abs(ratios), axis=1).tolist()


def ref_maximal_inequality(system, f, t, sups):
    n_runs = len(sups)
    exceed = 0
    for sup in sups:
        if sup > t:
            exceed += 1
    tail = exceed / n_runs
    bound = system.abs_expectation(f) / t
    sigma = math.sqrt(max(tail * (1.0 - tail), 1.0 / n_runs) / n_runs)
    return av.MaximalInequalityResult(tail, bound, sigma, tail <= bound + 3.0 * sigma)


# --- per-site tables -----------------------------------------------------------


class TestSiteTables:
    def test_tables_are_the_logs_of_the_exact_probabilities(self):
        rng = random.Random(5)
        for _ in range(2000):
            den = rng.randrange(10**29, 10**30)
            cuts = sorted(rng.randrange(1, den) for _ in range(2))
            if len(set(cuts)) < 2:
                continue
            probs = [F(cuts[0], den), F(cuts[1] - cuts[0], den), F(den - cuts[1], den)]
            m = bn.SiteMeasure(tuple(probs))
            assert m.floats.logs == tuple(math.log(p) for p in probs)
            assert m.floats.levels == tuple(thresholds(float_cdf(probs)).tolist())
            assert m.log_ratio == math.log(float(max(probs) / min(probs)))

    @pytest.mark.parametrize("r", [F(1, 2), F(9, 10)])
    def test_summable_floats_match_their_site(self, r):
        family = bn.SummableFamily(F(1, 10), r)
        for k in list(range(-300, 301, 7)) + [-400, 339, 340, 341, 5000]:
            assert family.site_floats(k) == family.site(k).floats
            probs = family.site(k).probs
            assert family.site_floats(k).logs == tuple(math.log(p) for p in probs)
            assert family.site_floats(k).levels == tuple(thresholds(float_cdf(probs)).tolist())

    @pytest.mark.parametrize("r", [F(1, 2), F(9, 10)])
    def test_each_summable_site_built_once(self, r, monkeypatch):
        built = []
        site = bn._summable_site
        monkeypatch.setattr(bn, "_summable_site", lambda cr, k: built.append(k) or site(cr, k))
        bn._summable_floats.cache_clear()
        family = bn.SummableFamily(F(1, 10), r)
        window, err = family.effective_window(1e-9)
        # k and -k share one record, and no site in the window is far
        assert sorted(built) == list(range(len(window) // 2 + 1))
        built.clear()
        value = bn.kakutani_sum(family, 40)
        # the Kakutani sum reads its sites' floats off integer powers and
        # builds no site
        assert built == []
        want, want_err = ref_effective_window(family, 1e-9)
        assert err == want_err and list(window) == list(want)
        assert list(window.values()) == [m.floats for m in want.values()]
        expected = sum(
            bn.hellinger_sq(family.site(k), family.site(k - 1)) for k in range(-40, 41)
        )
        assert value.value == expected

    #: (c, r) -> the first |k| whose float record is the fair coin's, found
    #: by scanning float(1/2 +- c r^|k|) over the exact Fractions
    FIRST_FAIR = {(F(1, 10), F(1, 2)): 52, (F(2, 9), F(1, 2)): 53, (F(1, 10), F(9, 10)): 340}

    @pytest.mark.parametrize("c, r", list(FIRST_FAIR))
    def test_far_sites_read_the_fair_coin_without_building(self, c, r, monkeypatch):
        first = self.FIRST_FAIR[c, r]
        eps = [c * r**k for k in (first - 1, first)]
        floats = [(float(F(1, 2) + e), float(F(1, 2) - e)) for e in eps]
        assert floats[0] != (0.5, 0.5) and floats[1] == (0.5, 0.5)
        family = bn.SummableFamily(c, r)
        fair = family.base.floats
        built = []
        site = bn._summable_site
        monkeypatch.setattr(bn, "_summable_site", lambda cr, k: built.append(k) or site(cr, k))
        bn._summable_floats.cache_clear()
        for k in (first - 1, 1 - first):
            assert family.site_floats(k) != fair
        assert built == [first - 1]
        for k in list(range(first, first + 40)) + [-first, 10**4, -(10**4)]:
            assert family.site_floats(k) is fair
        assert built == [first - 1]
        assert list(family.configuration(3).block(first, first + 500)) == [
            ref_symbol(3, lambda k: [F(1, 2), F(1, 2)], k) for k in range(first, first + 501)
        ]
        assert built == [first - 1]

    @pytest.mark.parametrize("c", [F(1, 10), F(2, 9), F(24, 100)])
    @pytest.mark.parametrize("r", [F(1, 2), F(9, 10)])
    def test_majorant_dominates_the_log_deviations(self, c, r):
        family = bn.SummableFamily(c, r)
        tail = 0.0
        for k in range(200, -1, -1):
            dev = max(
                abs(math.log(p / q)) for p, q in zip(family.site(k).probs, family.base.probs)
            )
            assert dev <= family.majorant(k) <= family.sup
            if k < 200:
                assert tail <= family.tail(k)
            tail += 2 * family.majorant(k)


# --- scalar cocycles -----------------------------------------------------------


class TestScalarCocycles:
    @each_family
    def test_rn_derivative(self, name):
        family = FAMILIES[name]()
        steps = range(-7, 8) if name != "summable-r9/10" else (-3, 1, 6)
        for x in configurations(family, 11):
            for n in steps:
                assert bn.rn_derivative(family, x, n) == ref_rn_derivative(family, x, n)

    @each_family
    def test_rn_log_weights(self, name):
        family = FAMILIES[name]()
        ns = np.concatenate([-np.arange(40), np.arange(1, 9)])
        for x in configurations(family, 12):
            for tol in (1e-12, 1e-6):
                got, err = bn.rn_log_weights(family, x, ns, tol)
                want, want_err = ref_rn_log_weights(family, x, ns, tol)
                assert got.tolist() == want.tolist() and err == want_err

    @pytest.mark.parametrize("name", ["compact", "three-symbol"])
    def test_long_reads_across_column_chunks(self, name):
        # offsets are read GRID_BLOCK columns at a time: cross a chunk edge
        family = FAMILIES[name]()
        x = family.configuration(spawn(19, 0)).shifted(-7)
        ns = -np.arange(GRID_BLOCK + 3)
        got, err = bn.rn_log_weights(family, x, ns)
        want, want_err = ref_rn_log_weights(family, x, ns)
        assert got.tolist() == want.tolist() and err == want_err
        obs = _bernoulli_observable()
        system = av.BernoulliSystem(family)
        assert system.value_series(x, obs, ns).tolist() == ref_value_series(x, obs, ns).tolist()

    @pytest.mark.parametrize("name", ["compact", "three-symbol", "summable-r1/2"])
    def test_homoclinic_ratio_bound_check(self, name):
        family = FAMILIES[name]()
        x = family.configuration(spawn(13, 0))
        for radius in (0, 1, 2):
            y = x.rewired(Cylinder(-radius, radius, (2,) * (2 * radius + 1)))
            for n in (-4, -1, 2, 5):
                got = bn.homoclinic_ratio_bound_check(family, x, y, radius, n)
                rx, ry = ref_rn_derivative(family, x, n), ref_rn_derivative(family, y, n)
                assert got.ratio_log == rx.log_magnitude - ry.log_magnitude
                assert got.product_bound_log == ref_product_bound(family, radius, n)

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattice_rn_derivative_g(self, d):
        sites = [(0,) * d, (1, -1) + (0,) * (d - 2), (-2, 1) + (1,) * (d - 2)]
        measures = [TILTED, bn.SiteMeasure.of(["2/3", "1/3"]), bn.SiteMeasure.of(["1/7", "6/7"])]
        family = lt.LatticeCompact(d, TWO_FIFTHS, dict(zip(sites, measures)))
        rng = random.Random(d)
        for case in range(40):
            x = family.run_configuration(21, case)
            x = x.translated(tuple(rng.randrange(-3, 4) for _ in range(d)))
            g = tuple(rng.randrange(-4, 5) for _ in range(d))
            assert lt.rn_derivative_g(family, x, g) == ref_rn_derivative_g(family, x, g)
            for h in sites:
                assert x.symbol(h) == ref_lattice_symbol(x, h)


# --- symbol grids --------------------------------------------------------------


def _rule_probs(k):
    return [F(1, 4), F(3, 4)] if k % 3 == 0 else [F(1, 2), F(1, 2)]


def _levels(probs):
    return thresholds(float_cdf(probs))


def _window_tail(seed):
    window = {0: [F(3, 4), F(1, 4)], 4: [F(1, 9), F(8, 9)]}
    sites = {k: _levels(p) for k, p in window.items()}
    return LazyTail(seed, window_levels(_levels([F(2, 5), F(3, 5)]), sites))


def _periodic_tail(seed):
    rows = [[F(1, 3), F(2, 3)], [F(4, 5), F(1, 5)], [F(1, 2), F(1, 2)]]
    return LazyTail(seed, periodic_levels([_levels(p) for p in rows]))


TAILS = {
    "window": _window_tail,
    "periodic": _periodic_tail,
    "rule": lambda seed: LazyTail(seed, rule_levels(lambda k: _levels(_rule_probs(k)))),
}


class TestSymbolGrid:
    @pytest.mark.parametrize("kind", list(TAILS))
    def test_grid_rows_are_blocks(self, kind):
        seeds = spawn_vec(99, np.arange(17))
        grid = TAILS[kind](0).grid(seeds, -9, 12)
        assert grid.shape == (17, 22) and grid.dtype == np.int16
        for r, seed in enumerate(seeds):
            block = TAILS[kind](int(seed)).block(-9, 12)
            assert np.array_equal(grid[r], block)
            assert block.tolist() == [TAILS[kind](int(seed)).symbol(k) for k in range(-9, 13)]

    def test_rule_block_matches_one_cdf_per_coordinate(self):
        family = bn.SummableFamily(F(1, 10), F(9, 10))
        x = family.configuration(7)
        expected = [ref_symbol(7, lambda k: family.site(k).probs, k) for k in range(-60, 61)]
        assert x.block(-60, 60).tolist() == expected

    @pytest.mark.parametrize(
        "family",
        [
            compact_family(),
            bn.PeriodicFamily([TILTED, TWO_FIFTHS]),
            bn.SummableFamily(F(1, 10), F(1, 2)),
        ],
        ids=["compact", "periodic", "summable"],
    )
    def test_run_grid_rows_are_run_blocks(self, family):
        grid = family.run_grid(31, 9, -20, 6)
        for r in range(9):
            assert np.array_equal(grid[r], family.run_configuration(31, r).block(-20, 6))


# --- batched runs --------------------------------------------------------------


def _bernoulli_observable():
    return av.Observable.combine(
        [
            (1.0, Cylinder.of([1], 0)),
            (-0.5, Cylinder.of([2, 1], -1)),
            (0.25, Cylinder.empty()),
        ]
    )


BATCHED = {
    "compact": lambda: av.BernoulliSystem(compact_family()),
    "iid": lambda: av.BernoulliSystem(bn.CompactFamily(HALF, {})),
    "periodic": lambda: av.BernoulliSystem(bn.PeriodicFamily([TILTED, TWO_FIFTHS])),
    "summable": lambda: av.BernoulliSystem(bn.SummableFamily(F(1, 10), F(1, 2))),
}


class TestBatchedRuns:
    def check_values_matrix(self, name, times):
        system = BATCHED[name]()
        obs = _bernoulli_observable()
        got = av.values_matrix(system, 17, 23, obs, times)
        assert np.array_equal(got, ref_values_matrix(system, 17, 23, obs, times))

    def check_run_terms(self, name, n):
        system = BATCHED[name]()
        obs = _bernoulli_observable()
        terms, err = system.run_terms(8, 12, obs, range(0, -n, -1), 1e-12)
        logs, values = np.full((2, 12, n), np.nan)
        for cols, chunk_logs, chunk_values in terms:
            logs[:, cols], values[:, cols] = chunk_logs, chunk_values
        for r in range(12):
            x = system.run_sample(8, r)
            assert logs[r].tolist() == ref_dual_log_weights(system, x, n).tolist()
            assert logs[r].tolist() == bn.rn_log_weights(system.family, x, -np.arange(n))[0].tolist()
            assert values[r].tolist() == ref_value_series(x, obs, -np.arange(n)).tolist()

    @pytest.mark.parametrize("name", list(BATCHED))
    def test_values_matrix_matches_per_run_loop(self, name):
        self.check_values_matrix(name, [-5, 0, 3, 11, -40])

    @pytest.mark.parametrize("name", list(BATCHED))
    def test_values_matrix_across_column_chunks(self, name):
        # more times than one column chunk of 23 rows holds
        self.check_values_matrix(name, list(range(-1500, 0)))

    @pytest.mark.parametrize("name", ["compact", "iid", "summable"])
    def test_run_terms_match_per_run(self, name):
        self.check_run_terms(name, 50)

    @pytest.mark.parametrize("name", ["compact", "iid", "summable"])
    def test_run_terms_across_column_chunks(self, name):
        self.check_run_terms(name, GRID_BLOCK // 12 + 5)

    @pytest.mark.parametrize("name", ["compact", "iid", "summable"])
    def test_bernoulli_maximal_inequality(self, name):
        system = BATCHED[name]()
        f = av.Observable.indicator(Cylinder.of([1], 0))
        sups = ref_run_sups(system, f, 150, 48, 4)
        for t in (0.3, 0.75, 1.0, float(np.median(sups))):
            got = av.maximal_inequality_probe(system, f, t, 150, 48, 4)
            assert got == ref_maximal_inequality(system, f, t, sups)

    @pytest.mark.parametrize(
        "ground",
        [ps.integer_translation(1), ps.weighted_points({0: F(1, 2), 1: F(3, 2), 5: F(1)})],
        ids=["translation", "weighted"],
    )
    def test_poisson_maximal_inequality(self, ground):
        system = av.PoissonSystem(ground)
        f = av.Observable.indicator(ps.PoissonEvent.of([([0, 1], 1), ([5], 0)]))
        sups = ref_run_sups(system, f, 120, 24, 6)
        for t in (0.2, 0.5):
            got = av.maximal_inequality_probe(system, f, t, 120, 24, 6)
            assert got == ref_maximal_inequality(system, f, t, sups)
        two_terms = av.Observable.combine(f.terms + ((-0.5, ps.PoissonEvent.count([0, 5], 2)),))
        times = -np.arange(24)
        assert np.array_equal(
            av.values_matrix(system, 6, 30, two_terms, times),
            ref_values_matrix(system, 6, 30, two_terms, times),
        )


    @pytest.mark.parametrize("name", ["compact", "summable", "poisson"])
    @pytest.mark.parametrize(
        "n_runs, horizon",
        # more runs than GRID_BLOCK / 2 make every chunk one column wide;
        # 12 runs take GRID_BLOCK // 12 columns a chunk, so this horizon
        # spans four chunks
        [(GRID_BLOCK // 2 + 3, 3), (12, 3 * (GRID_BLOCK // 12) + 5)],
        ids=["one-column-chunks", "several-chunks"],
    )
    def test_maximal_inequality_matches_whole_matrices(self, name, n_runs, horizon):
        system = STREAMED[name]()
        # the suspension's L1 norm is exact for one nonnegative term only
        f = two_term_f(system)
        if system.kind == "poisson":
            f = av.Observable.indicator(ps.PoissonEvent.count([0, 1], 1))
        sups = ref_whole_sups(system, f, n_runs, horizon, 5)
        for t in (0.3, float(np.median(sups))):
            got = av.maximal_inequality_probe(system, f, t, n_runs, horizon, 5)
            assert got == ref_maximal_inequality(system, f, t, sups)


# --- memory --------------------------------------------------------------------


def test_maximal_inequality_holds_no_runs_by_horizon_float_matrix():
    """The probe keeps per-run running sums; a 2,000 x 2,000 probe held
    several (runs, horizon) float matrices (152.6 MiB traced) when it
    formed its weights and ratios whole."""
    system = av.BernoulliSystem(compact_family())
    f = av.Observable.indicator(Cylinder.of([1], 0))
    tracemalloc.start()
    try:
        av.maximal_inequality_probe(system, f, 0.75, 2000, 2000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_summable_conservativity_keeps_no_exact_sites():
    """Far summable sites carry Fractions thousands of bits long; only their
    float data may be cached, in a bounded cache."""
    family = bn.SummableFamily(F(1, 9), F(1, 2))
    x = family.configuration(3)
    tracemalloc.start()
    try:
        bn.conservativity_probe(family, x, 1 << 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- streamed series -----------------------------------------------------------

STREAMED = {
    # window sites on both sides of 0
    "compact": lambda: av.BernoulliSystem(compact_family()),
    "summable": lambda: av.BernoulliSystem(bn.SummableFamily(F(1, 10), F(1, 2))),
    "iid": lambda: av.BernoulliSystem(bn.CompactFamily(TILTED, {})),
    "poisson": lambda: av.PoissonSystem(ps.integer_translation(1)),
}
#: a chunk holds GRID_BLOCK terms, so these end inside, on and past a chunk
STREAMED_HORIZONS = [1, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1, 3 * GRID_BLOCK + 7]


def two_term_f(system):
    """A two-term observable, one of whose terms is constant."""
    if system.kind == "poisson":
        terms = [(2.0, ps.PoissonEvent.count([0, 1], 1)), (0.5, ps.PoissonEvent(()))]
    else:
        terms = [(-1.5, Cylinder.of([2, 1], left=-1)), (0.25, Cylinder.empty())]
    return av.Observable.combine(terms)


def streamed_point(system):
    x = system.run_sample(11, 2)
    return x.rewired(Cylinder.of([1, 2, 2], left=-2)) if system.kind == "bernoulli" else x


@functools.cache
def ref_series_sums(name, forward):
    """Whole-array partial sums over the longest horizon at streamed_point:
    of f(T^n x) over n = 0, 1, ... (forward), else of exp(log weight) *
    f(T^n x) and of the weights over n = 0, -1, ...; a shorter horizon's
    sums are their prefix."""
    system = STREAMED[name]()
    f, x, horizon = two_term_f(system), streamed_point(system), STREAMED_HORIZONS[-1]
    value_series = ref_value_series if system.kind == "bernoulli" else system.value_series
    if forward:
        return np.cumsum(value_series(x, f, np.arange(horizon))), None
    weights = np.exp(ref_dual_log_weights(system, x, horizon))
    return np.cumsum(weights * value_series(x, f, -np.arange(horizon))), np.cumsum(weights)


@pytest.mark.parametrize("horizon", STREAMED_HORIZONS)
@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_series_match_full_arrays(name, horizon):
    system = STREAMED[name]()
    f, x = two_term_f(system), streamed_point(system)
    pts = bn.series_checkpoints(horizon)
    num, den = ref_series_sums(name, forward=False)
    dual = av.dual_series(system, f, x, horizon)
    assert dual.checkpoints == tuple(pts)
    assert dual.values == tuple(float(num[n - 1]) for n in pts)
    ratio = av.hurewicz_ratio_series(system, f, x, horizon)
    assert ratio.values == tuple(float(num[n - 1] / den[n - 1]) for n in pts)
    forward, _ = ref_series_sums(name, forward=True)
    birkhoff = av.birkhoff_series(system, f, x, horizon)
    assert birkhoff.values == tuple(float(forward[n - 1] / n) for n in pts)


@pytest.mark.parametrize("horizon", STREAMED_HORIZONS)
@pytest.mark.parametrize("name", ["compact", "summable", "iid"])
def test_streamed_conservativity_matches_full_arrays(monkeypatch, name, horizon):
    family = STREAMED[name]().family
    x = streamed_point(STREAMED[name]())
    kept = []

    def spy(terms, at):
        kept.append((list(at), kernel(terms, at)))
        return kept[-1][1]

    kernel = bn._checkpoint_sums
    monkeypatch.setattr(bn, "_checkpoint_sums", spy)
    report = bn.conservativity_probe(family, x, horizon)
    sums = np.cumsum(np.exp(ref_rn_log_weights(family, x, -np.arange(1, horizon + 1), 1e-9)[0]))
    pts = bn.series_checkpoints(horizon)
    assert report.checkpoints == tuple((n, float(sums[n - 1])) for n in pts)
    # the heuristic verdict reads the sum at the decade too
    ((at, got),) = kept
    decade = max(horizon // 10, 1) - 1
    assert at == [n - 1 for n in pts] + [decade]
    assert got[1].tolist() == sums[at].tolist()


def test_streamed_series_hold_no_full_length_float_array():
    """A series streams its terms: it holds one int16 block and an index
    array, never a float array as long as the horizon (38, 38 and 24 MiB
    when each series held its weights, values and sums whole)."""
    system = av.BernoulliSystem(compact_family())
    f, x = two_term_f(system), system.sample(5)
    calls = {
        "dual": lambda: av.dual_series(system, f, x, 10**6),
        "ratio": lambda: av.hurewicz_ratio_series(system, f, x, 10**6),
        "conservativity": lambda: bn.conservativity_probe(system.family, x, 1 << 20),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, name
