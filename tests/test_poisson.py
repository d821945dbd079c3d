import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import poisson as ps
from ergolab.errors import CertifiedFailure
from ergolab.seeding import GRID_BLOCK, TAG_POISSON, spawn, uniform01, zigzag

F = Fraction


def unit_line():
    return ps.integer_translation()


class TestEventProbability:
    def test_single_point_zero_count(self):
        gs = unit_line()
        p = ps.event_probability(gs, ps.PoissonEvent.count([0], 0))
        assert p == pytest.approx(math.exp(-1), abs=1e-15)

    def test_poisson_pmf_small_counts(self):
        gs = unit_line()
        for k in range(6):
            p = ps.event_probability(gs, ps.PoissonEvent.count([5], k))
            assert p == pytest.approx(math.exp(-1) / math.factorial(k), rel=1e-13)

    def test_empty_region(self):
        gs = unit_line()
        assert ps.event_probability(gs, ps.PoissonEvent.count([], 0)) == 1.0
        assert ps.event_probability(gs, ps.PoissonEvent.count([], 2)) == 0.0

    def test_no_constraints(self):
        assert ps.event_probability(unit_line(), ps.PoissonEvent(())) == 1.0

    def test_inconsistent_nested_constraints(self):
        gs = unit_line()
        ev = ps.PoissonEvent.of([([0, 1], 0), ([0], 2)])
        assert ps.event_probability(gs, ev) == 0.0

    def test_overlapping_constraints_atom_decomposition(self):
        # N({0,1}) = 1 and N({1,2}) = 0 force the point at 0, atom by atom
        gs = unit_line()
        ev = ps.PoissonEvent.of([([0, 1], 1), ([1, 2], 0)])
        expected = (math.exp(-1) * 1) * math.exp(-1) * math.exp(-1)
        assert ps.event_probability(gs, ev) == pytest.approx(expected, rel=1e-13)

    def test_weighted_region_total_weight(self):
        gs = ps.weighted_points({0: "1/2", 1: "3/4"})
        p = ps.event_probability(gs, ps.PoissonEvent.count([0, 1], 0))
        assert p == pytest.approx(math.exp(-1.25), rel=1e-13)

    def test_normalization_with_tail(self):
        gs = ps.weighted_points({0: 10})
        total = sum(
            ps.event_probability(gs, ps.PoissonEvent.count([0], k))
            for k in range(ps.COUNT_CAP + 1)
        )
        assert 1.0 - total < 1e-9

    def test_joint_enumeration_sums_to_one(self):
        gs = ps.weighted_points({0: "1/2", 1: "2", 2: "3/4"})
        total = sum(
            ps.event_probability(
                gs, ps.PoissonEvent.of([([0, 1], k1), ([1, 2], k2)])
            )
            for k1 in range(30)
            for k2 in range(30)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_count_cap_enforced(self):
        with pytest.raises(ValueError):
            ps.PoissonEvent.count([0], ps.COUNT_CAP + 1)


def full_enumeration_probability(gs, event):
    """The atom enumeration before forced last atoms: every atom count up to
    the smallest remaining target, and a leaf test that all reach 0."""
    constraints = event.constraints
    if not constraints:
        return 1.0
    for region, k in constraints:
        if not region and k > 0:
            return 0.0
    live = [(region, k) for region, k in constraints if region]
    if not live:
        return 1.0
    points = sorted({p for region, _ in live for p in region})
    signature = {}
    for p in points:
        sig = tuple(i for i, (region, _) in enumerate(live) if p in region)
        signature.setdefault(sig, []).append(p)
    atoms = [(sig, float(gs.region_weight(pts))) for sig, pts in sorted(signature.items())]
    total = 0.0

    def recurse(idx, remaining, weight_prob):
        nonlocal total
        if idx == len(atoms):
            if all(r == 0 for r in remaining):
                total += weight_prob
            return
        sig, mean = atoms[idx]
        cap = min((remaining[i] for i in sig), default=ps.COUNT_CAP)
        for c in range(cap + 1):
            for i in sig:
                remaining[i] -= c
            recurse(idx + 1, remaining, weight_prob * ps._poisson_pmf(mean, c))
            for i in sig:
                remaining[i] += c

    recurse(0, [k for _, k in live], 1.0)
    return total


EIGHT_POINTS = ps.weighted_points(
    {0: "1", 1: "1/2", 2: "2", 3: "3/4", 4: "1", 5: "1/3", 6: "5/4", 7: "1/2"}
)
#: regions that make repeats, nesting ({0} < {0,1} < {0..3}), disjointness
#: ({0..3} and {4..7}) and empty regions common among the drawn events
SHAPED_REGIONS = [frozenset(), frozenset({0}), frozenset({0, 1}), frozenset(range(4)),
                  frozenset(range(4, 8))]
CONSTRAINTS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(SHAPED_REGIONS), st.frozensets(st.integers(0, 7))),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=4,
)


class TestEventProbabilityBitwise:
    """Forced last atoms reach the same leaves in the same order as the full
    enumeration, so the float sums are equal bit for bit."""

    @given(constraints=CONSTRAINTS, weighted=st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(constraints=[({0, 1}, 2), ({0, 1}, 2)], weighted=True)  # repeated
    @example(constraints=[({0, 1}, 1), ({0, 1}, 3)], weighted=True)  # inconsistent
    @example(constraints=[(range(4), 3), ({0, 1}, 2), ({0}, 1)], weighted=True)  # nested
    @example(constraints=[(range(4), 2), (range(4, 8), 1)], weighted=False)  # disjoint
    @example(constraints=[(set(), 0), ({2, 5}, 1)], weighted=True)  # empty, k = 0
    @example(constraints=[(set(), 1), ({2}, 0)], weighted=False)  # empty, k > 0
    @example(
        constraints=[({0, 1, 2}, 4), ({1, 2, 3}, 3), ({2, 3, 4}, 2), ({0, 4, 7}, 1)],
        weighted=True,
    )
    def test_matches_full_enumeration(self, constraints, weighted):
        gs = EIGHT_POINTS if weighted else unit_line()
        event = ps.PoissonEvent.of(constraints)
        assert ps.event_probability(gs, event) == full_enumeration_probability(gs, event)

    def test_overlapping_29_29(self):
        gs = unit_line()
        event = ps.PoissonEvent.of([(range(0, 30), 29), (range(14, 44), 29)])
        p = ps.event_probability(gs, event)
        assert p > 0.0
        assert p == full_enumeration_probability(gs, event)


class TestMixingGap:
    def test_worked_exponential_case(self):
        gs = unit_line()
        b = ps.PoissonEvent.count([0], 0)
        c = ps.PoissonEvent.count([0, 1], 0)
        joint = ps.event_probability(gs, b.intersect(c))
        assert joint == pytest.approx(math.exp(-2), rel=1e-13)
        res = ps.mixing_gap(gs, b, c)
        # frozen from exp(-2) - exp(-3) at 30 digits: 0.0855482148687487449...
        assert res.gap == pytest.approx(0.08554821486874874, abs=1e-9)
        assert res.bound == 2.0
        assert res.ok

    def test_disjoint_supports_independent(self):
        gs = unit_line()
        b = ps.PoissonEvent.count([0, 1], 1)
        c = ps.PoissonEvent.count([5, 6], 0)
        res = ps.mixing_gap(gs, b, c)
        assert res.gap == pytest.approx(0.0, abs=1e-15)
        assert res.bound == 0.0

    def test_randomized_cases_all_within_bound(self):
        gs = ps.weighted_points(
            {0: "1", 1: "1/2", 2: "2", 3: "3/4", 4: "1", 5: "1/3", 6: "5/4", 7: "1/2"}
        )
        seed = 424242
        for case in range(200):
            constraints = []
            for i in range(1 + int(uniform01(seed, 0, case) * 2)):
                region = [p for p in range(8) if uniform01(seed, 1, case, i, p) < 0.5]
                constraints.append((region, int(uniform01(seed, 2, case, i) * 3)))
            b = ps.PoissonEvent.of(constraints[:1])
            c = ps.PoissonEvent.of(constraints)
            assert ps.mixing_gap(gs, b, c).ok


# ---------------------------------------------------------------------------
# Scalar reference sampler: one keyed uniform per point, inverted by
# summation; a mean above the split threshold sums one keyed sub-draw per
# equal sub-mean


def _ref_inverse(u, mean):
    """Smallest k with u < CDF(k) for Poisson(mean); inversion by summation."""
    if mean == 0.0:
        return 0
    pmf = math.exp(-mean)
    cdf = pmf
    k = 0
    while u >= cdf and k < 4 * ps.COUNT_CAP:
        k += 1
        pmf *= mean / k
        cdf += pmf
    return k


def run_sample(gs, master_seed, run):
    return ps.PointSample(gs, spawn(master_seed, run))


def ref_count(sample, p):
    """The count of ``sample`` at point p, one scalar draw at a time."""
    mean = float(sample.gs.weight(p))
    if mean <= ps._SPLIT_MEAN:
        return _ref_inverse(uniform01(sample.seed, TAG_POISSON, zigzag(p)), mean)
    chunks = math.ceil(mean / ps._SPLIT_MEAN)
    sub = mean / chunks
    return sum(
        _ref_inverse(uniform01(sample.seed, TAG_POISSON, zigzag(p), j), sub)
        for j in range(chunks)
    )


def ref_indicator(sample, event, n):
    """Indicator of the n-fold suspension image of ``sample`` lying in the
    event: the constraint regions pulled back, their counts read one by one."""
    pulled = event.pulled_back(sample.gs, n)
    return int(
        all(sum(ref_count(sample, p) for p in region) == k for region, k in pulled.constraints)
    )


class TestSampling:
    def test_rereads_stable_and_seeded(self):
        sample = ps.PointSample(unit_line(), 7)
        points = range(-20, 20)
        counts = sample.counts(points)
        assert np.array_equal(counts, sample.counts(points))
        assert np.array_equal(counts, ps.PointSample(unit_line(), 7).counts(points))
        assert list(counts[0]) == [ref_count(sample, p) for p in points]

    def test_count_moments(self):
        counts = ps.PointSample(unit_line(), 123).counts(range(100_000))[0]
        # Poisson(1): mean 1, var 1; 5 sigma on 1e5 samples is ~0.016
        assert abs(counts.mean() - 1.0) < 0.016
        assert abs(counts.var() - 1.0) < 0.03
        assert counts.min() >= 0

    def test_large_mean_split_sampling(self):
        gs = ps.weighted_points({0: 120})
        counts = ps.sample_count_grid(gs, 5, 3000, [0])[:, 0]
        assert abs(counts.mean() - 120.0) < 5 * math.sqrt(120 / 3000) * 1.2
        assert abs(counts.var() / 120.0 - 1.0) < 0.15

    def test_grid_matches_per_sample_counts(self):
        # means above the split threshold sum 2, 3 and 6 keyed sub-draws
        means = [F(1, 2), F(2), F(51), F(120), F(300)]
        gs = ps.weighted_points({p: means[p % len(means)] for p in range(12)})
        points = list(range(12))
        grid = ps.sample_count_grid(gs, 77, 50, points)
        for r in range(50):
            sample = run_sample(gs, 77, r)
            assert list(grid[r]) == [ref_count(sample, p) for p in points]
            assert np.array_equal(grid[r : r + 1], sample.counts(points))

    @pytest.mark.parametrize(
        "weight",
        [
            lambda p: F(3, 2),
            lambda p: F(1, 2) if p % 2 else F(2),
            # a mean of 3000 sums 60 sub-draws, so its split spans row blocks too
            lambda p: [F(51), F(1, 2), F(120), F(300), F(3000)][p % 5],
        ],
        ids=["one-mean", "two-mean", "large-means"],
    )
    def test_uncapped_grid_matches_per_sample_counts_across_row_blocks(self, weight):
        points = list(range(-5, 7))
        gs = ps.weighted_points({p: weight(p) for p in points})
        # one more run than a row block holds, so a second block is drawn
        block_rows = GRID_BLOCK // len(points)
        grid = ps.sample_count_grid(gs, 77, block_rows + 1, points)
        for r in [*range(0, block_rows, 97), block_rows - 1, block_rows]:
            sample = run_sample(gs, 77, r)
            assert list(grid[r]) == [ref_count(sample, p) for p in points]

    @pytest.mark.parametrize("cap", [1, 2, 3, 65])
    def test_capped_grid_clips_full_grid(self, cap):
        # several distinct means, one just under the split threshold, whose
        # counts pass 65 in some runs, and three above it
        means = [F(1, 2), F(1), F(7, 3), F(0), F(99, 2), F(12), F(51), F(120), F(300)]
        gs = ps.weighted_points({p: means[p % len(means)] for p in range(-9, 9)})
        points = list(range(-9, 9))
        full = ps.sample_count_grid(gs, 41, 400, points)
        capped = ps.sample_count_grid(gs, 41, 400, points, cap=cap)
        assert capped.dtype == full.dtype
        assert np.array_equal(capped, np.minimum(full, cap))
        for r in (0, 399):
            sample = run_sample(gs, 41, r)
            assert list(capped[r]) == [min(ref_count(sample, p), cap) for p in points]
        if cap == 65:
            assert full[:, means.index(F(99, 2)) :: len(means)].max() > 65

    def test_uncapped_count_that_overflows_is_refused(self):
        gs = ps.weighted_points({0: 40_000})
        with pytest.raises(ValueError, match="overflows int16"):
            ps.sample_count_grid(gs, 1, 2, [0])
        assert (ps.sample_count_grid(gs, 1, 2, [0], cap=65) == 65).all()

    def test_empirical_event_frequency_vs_exact(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0], 0)
        p = ps.event_probability(gs, ev)
        n_runs = 10_000
        hits = ps.indicator_grid(gs, 31, n_runs, ev, [0]).sum()
        sigma = math.sqrt(p * (1 - p) / n_runs)
        assert abs(hits / n_runs - p) < 4 * sigma


class TestSuspension:
    def test_time_zero_is_direct_evaluation(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 3)
        ev = ps.PoissonEvent.count([0, 1], 1)
        assert sample.indicators(ev, [0])[0] == int(sample.counts([0, 1]).sum() == 1)

    def test_translation_pull_back(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 9)
        ev = ps.PoissonEvent.count([0], 0)
        for n in (-3, 1, 5):
            direct = int(sample.counts([-n])[0, 0] == 0)
            assert sample.indicators(ev, [n])[0] == direct == ref_indicator(sample, ev, n)

    def test_pull_back_composes(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 11)
        ev = ps.PoissonEvent.of([([0, 2], 1), ([5], 0)])
        for n, m in [(2, 3), (-1, 4), (0, 7)]:
            one = sample.indicators(ev, [n + m])
            stepped = sample.indicators(ev.pulled_back(gs, n), [m])
            assert one == stepped

    def test_indicator_grid_matches_scalar(self):
        gs = unit_line()
        ev = ps.PoissonEvent.of([([0, 1, 2], 1)])
        times = [0, 3, 7, 12]
        grid = ps.indicator_grid(gs, 13, 40, ev, times)
        for r in range(40):
            sample = run_sample(gs, 13, r)
            for j, t in enumerate(times):
                assert grid[r, j] == ref_indicator(sample, ev, t)
            assert np.array_equal(grid[r], sample.indicators(ev, times))

    @pytest.mark.parametrize("ground", ["translation", "weighted"])
    @pytest.mark.parametrize(
        "constraints",
        [
            [([0, 1, 2], 2), ([1, 5], 0)],
            [([], 0), ([3, 4], 1)],
            [([2], 1), ([], 1)],
        ],
        ids=["mixed_k", "empty_region_k0", "empty_region_k1"],
    )
    def test_indicator_grid_matches_scalar_multi_constraint(self, ground, constraints):
        if ground == "translation":
            gs = unit_line()
        else:
            gs = ps.weighted_points({p: [F(3, 2), F(1, 3), F(1, 2)][p % 3] for p in range(6)})
        ev = ps.PoissonEvent.of(constraints)
        times = [0, 1, 4, 9]
        grid = ps.indicator_grid(gs, 23, 300, ev, times)
        expected = [
            [ref_indicator(run_sample(gs, 23, r), ev, t) for t in times]
            for r in range(300)
        ]
        assert np.array_equal(grid, np.array(expected, dtype=np.float64))
        # N(empty) = 1 never holds; the other events must both hit and miss
        if constraints[1] != ([], 1):
            assert 0 < grid.sum() < grid.size

    def test_monte_carlo_mean_matches_exact(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count(list(range(3)), 0)
        p = ps.event_probability(gs, ev)
        grid = ps.indicator_grid(gs, 17, 10_000, ev, [4])
        sigma = math.sqrt(p * (1 - p) / 10_000)
        assert abs(grid.mean() - p) < 4 * sigma

    def test_point_outside_the_ground_is_refused_whatever_the_counts(self):
        # the count at 0 is never 5, but point 1 is still read
        gs = ps.weighted_points({0: 1})
        ev = ps.PoissonEvent.of([([0], 5), ([1], 0)])
        with pytest.raises(ValueError, match="point 1 has no assigned weight"):
            ps.PointSample(gs, 3).indicators(ev, [0])
        with pytest.raises(ValueError, match="point 5 outside cycle of length 3"):
            ps.PointSample(ps.finite_cycle(3), 3).indicators(ps.PoissonEvent.count([5], 0), [0])


#: means on both sides of the split and of the float CDF's edges: a mean
#: whose table keeps one row, the largest unsplit means, and means split
#: into 2, 3 and 60 sub-draws
KERNEL_MEANS = [2.0**-40, 1 / 3, 1.0, 49.9, 50.0, 50.1, 120.0, 3000.0]


def _ref_table(mean):
    """The full float CDF table of a count draw, by summation."""
    pmf = math.exp(-mean)
    cdf = [pmf]
    for k in range(1, 4 * ps.COUNT_CAP):
        pmf *= mean / k
        cdf.append(cdf[-1] + pmf)
    return np.array(cdf)


def _drawn_mean(mean):
    """The mean of one draw: a split point's sub-mean."""
    return mean if mean <= ps._SPLIT_MEAN else mean / math.ceil(mean / ps._SPLIT_MEAN)


class TestCountKernel:
    """Every count is one ``seeding._keyed_counts`` over integer thresholds;
    these check it against the scalar float draws."""

    def test_grid_matches_scalar_counts_at_every_cap(self):
        gs = ps.weighted_points({p: F(m) for p, m in enumerate(KERNEL_MEANS)})
        points = list(range(len(KERNEL_MEANS)))
        # rows on both sides of the row blocks of the single draw (4096
        # rows of 8 points) and of the 60-, 3- and 2-way splits
        n_runs = GRID_BLOCK // 2 + 1
        edges = {0, 545, 546, 4095, 4096, 10921, 10922, n_runs - 2, n_runs - 1}
        full = ps.sample_count_grid(gs, 23, n_runs, points)
        refs = {r: [ref_count(run_sample(gs, 23, r), p) for p in points] for r in sorted(edges)}
        for r, ref in refs.items():
            assert list(full[r]) == ref, r
        for cap in (1, 3, 65):
            capped = ps.sample_count_grid(gs, 23, n_runs, points, cap=cap)
            assert np.array_equal(capped, np.minimum(full, cap))
            for r, ref in refs.items():
                assert list(capped[r]) == [min(c, cap) for c in ref], (r, cap)
        # the caps bind: the mean-50 point passes 65 in some runs, the
        # mean-3000 one in every run
        assert full[:, 4].max() > 65 and full[:, 7].min() > 65

    @pytest.mark.parametrize("mean", KERNEL_MEANS)
    @pytest.mark.parametrize("cap", [1, 3, 65, None])
    def test_counting_thresholds_is_searchsorted(self, mean, cap):
        drawn = _drawn_mean(mean)
        size = 4 * ps.COUNT_CAP if cap is None else cap
        levels = ps._count_thresholds([drawn], size)
        assert levels.shape[1] == 1 and (levels < 2**53).all()
        table = _ref_table(drawn)
        # every threshold's top 53 bits and the bits one below it
        edges = np.ceil(table * 2.0**53)
        tops = np.unique(np.concatenate([edges, edges - 1]).clip(0, 2**53 - 1)).astype(np.uint64)
        counts = (levels.T <= tops[:, None]).sum(axis=1)
        ref = np.searchsorted(table, tops * 2.0**-53, side="right")
        assert np.array_equal(counts, np.minimum(ref, size))

    @pytest.mark.parametrize("size", [3, 4 * ps.COUNT_CAP], ids=["capped", "uncapped"])
    def test_count_thresholds_round_as_ceil_of_the_scaled_table(self, size):
        means = [0.0, 1.0, 3 / 7, 49.5, 50.0]
        columns = []
        for mean in means:
            # the CDF accumulated by summation, up to its first 1.0
            pmf = cdf = math.exp(-mean)
            column = []
            for k in range(1, size + 1):
                if cdf >= 1.0:
                    break
                column.append(cdf)
                pmf *= mean / k
                cdf += pmf
            columns.append(column)
        rows = max(map(len, columns))
        table = np.array([c + [1.0] * (rows - len(c)) for c in columns]).T
        levels = ps._count_thresholds(means, size)
        assert levels.dtype == np.uint64 and levels.flags.c_contiguous
        assert np.array_equal(levels, np.ceil(table * 2.0**53).astype(np.uint64))

    def test_unreached_thresholds_are_dropped(self):
        assert ps._count_thresholds([1.0], 4 * ps.COUNT_CAP).shape == (18, 1)
        assert ps._count_thresholds([0.0, 0.0], 4 * ps.COUNT_CAP).shape == (0, 2)
        # a shorter column is padded with 2^53, which no key reaches
        table = ps._count_thresholds([1.0, 1 / 3], 4 * ps.COUNT_CAP)
        assert table.shape == (18, 2) and (table[13:, 1] == 2**53).all()
        assert (table[:, 0] < 2**53).all()


def _scalar_indicators(gs, seed, n_runs, ev, times):
    return np.array(
        [
            [ref_indicator(run_sample(gs, seed, r), ev, t) for t in times]
            for r in range(n_runs)
        ],
        dtype=np.float64,
    )


#: a translation whose means repeat with period 6, one of them split into
#: two keyed sub-draws, so that a moving region holds a split point at some
#: times and not at others
SPLIT_LINE = ps.GroundSpace(
    weight=lambda p: [F(51), F(1, 2), F(1, 3), F(120), F(1), F(2)][p % 6], jump=lambda p, n: p + n
)


class TestIndicatorGridEdges:
    """``indicator_grid`` cell by cell against ``ref_indicator`` where
    its column map and its deduplication of pulled-back events matter."""

    CASES = {
        "cycle_wraps": (
            ps.finite_cycle(7),
            ps.PoissonEvent.of([([0, 2, 5], 1), ([6], 0)]),
            [0, 3, 7, 9, 15, 20, -4],
        ),
        "identity_one_event": (
            ps.weighted_points({p: F(p + 1, 4) for p in range(5)}),
            ps.PoissonEvent.of([([0, 3], 1), ([1, 4], 2)]),
            [0, 2, 5, 9],
        ),
        "repeated_unsorted_times": (
            ps.integer_translation(),
            ps.PoissonEvent.count([0, 1, 4], 1),
            [5, 0, 5, 3, -2, 0, 3],
        ),
        "large_means": (
            ps.weighted_points({0: 51, 1: F(1, 2)}),
            ps.PoissonEvent.of([([0], 51), ([1], 0)]),
            [0, 3],
        ),
        "empty_region_k0": (ps.integer_translation(), ps.PoissonEvent.count([], 0), [0, 4, 4]),
        "empty_region_k1": (ps.integer_translation(), ps.PoissonEvent.count([], 1), [2, 0]),
        "shared_points": (
            ps.integer_translation(2),
            ps.PoissonEvent.of([([0, 1, 2, 3], 2), ([2, 3, 4], 1)]),
            [1, 0, 6, 2, 1],
        ),
        # spacing 1 < span 6: neighbouring events share five points
        "overlapping_pull_backs": (unit_line(), ps.PoissonEvent.count(range(6), 2), range(-3, 17)),
        # three constraints sharing points 2, 3 and 4, moved by 3 per time
        "constraints_share_points": (
            ps.integer_translation(3),
            ps.PoissonEvent.of([([0, 1, 2, 3], 2), ([2, 3, 4, 5], 1), ([3, 4], 0)]),
            [0, 1, 2, 5, 7, 1],
        ),
        # time t and t + 5 pull back to the same event
        "cycle_period": (
            ps.finite_cycle(5),
            ps.PoissonEvent.of([([0, 1], 1), ([3], 0)]),
            [0, 1, 5, 6, 10, 2, 7, -3, 12, 4, 9, -1],
        ),
        "identity": (ps.integer_identity(), ps.PoissonEvent.count([0, 1, 2], 2), [0, 4, -9]),
        "weighted": (
            ps.weighted_points({p: [F(3, 2), F(1, 3), F(7, 2)][p % 3] for p in range(-4, 5)}),
            ps.PoissonEvent.of([([-4, 0, 3], 4), ([0, 1], 1)]),
            [0, 2, 11],
        ),
        # sums of means near 52 where the region holds the mean-51 point
        "split_point_in_region": (SPLIT_LINE, ps.PoissonEvent.count([0, 1, 2], 52), range(6)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_scalar(self, name):
        gs, ev, times = self.CASES[name]
        times = list(times)
        grid = ps.indicator_grid(gs, 29, 400, ev, times)
        assert grid.shape == (400, len(times)) and grid.dtype == np.float64
        assert np.array_equal(grid, _scalar_indicators(gs, 29, 400, ev, times))
        if name == "empty_region_k0":
            assert grid.all()
        elif name == "empty_region_k1":
            assert not grid.any()
        else:
            assert 0 < grid.sum() < grid.size
        if name in ("identity_one_event", "large_means", "identity", "weighted"):
            assert (grid == grid[:, :1]).all()
        if name == "cycle_period":
            for j, t in enumerate(times):
                assert np.array_equal(grid[:, j], grid[:, times.index(t % 5)])

    @pytest.mark.parametrize("name", CASES)
    def test_no_times(self, name):
        gs, ev, _ = self.CASES[name]
        grid = ps.indicator_grid(gs, 3, 50, ev, [])
        assert grid.shape == (50, 0) and grid.dtype == np.float64
        assert ps.PointSample(gs, 3).indicators(ev, []).shape == (0,)

    def test_memory_stays_block_sized(self):
        # 10^4 runs x 640 points: the int16 counts are 12.8 MB; a float or
        # uint64 grid of the same size (51 MB) must never be held
        gs = ps.integer_translation(1)
        ev = ps.PoissonEvent.count(range(10), 0)
        times = range(0, 640, 10)
        tracemalloc.start()
        try:
            grid = ps.indicator_grid(gs, 5, 10_000, ev, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.shape == (10_000, 64)
        assert peak < 32 * 2**20


def _streamed(monkeypatch, cells):
    """Blocks of ``cells`` count cells, so that a few hundred runs already
    span several streamed blocks."""
    monkeypatch.setattr(ps, "_BLOCK_CELLS", cells)


class TestStreamedIndicators:
    """``indicator_grid`` reads the counts of one block of runs at a time;
    each case crosses block edges and is checked cell by cell against
    ``ref_indicator``."""

    def test_runs_at_the_block_edge(self):
        # 300 points of weight 1/300 on the identity map: one event, so a
        # block holds _BLOCK_CELLS // 300 runs
        gs = ps.weighted_points({p: F(1, 300) for p in range(300)})
        ev = ps.PoissonEvent.count(range(300), 1)
        rows = ps._BLOCK_CELLS // 300
        expected = _scalar_indicators(gs, 3, rows + 1, ev, [0])
        assert 0 < expected.sum() < expected.size
        for n_runs in (rows - 1, rows, rows + 1):
            assert np.array_equal(ps.indicator_grid(gs, 3, n_runs, ev, [0, 5]), expected[:n_runs, [0, 0]])

    def test_point_set_larger_than_a_block(self):
        # 64-point regions 64 apart: more points than a block holds cells,
        # so every block is one run, and one row spans several keyed draws
        gs = unit_line()
        ev = ps.PoissonEvent.count(range(64), 64)
        n_points = ps._BLOCK_CELLS + 64
        times = list(range(0, -n_points, -64))
        grid = ps.indicator_grid(gs, 17, 3, ev, times)
        assert grid.shape == (3, len(times))
        assert 0 < grid.sum() < grid.size
        counts = ps.sample_count_grid(gs, 17, 3, range(n_points), cap=65)
        sums = counts.reshape(3, -1, 64).sum(axis=2)
        assert np.array_equal(grid, (sums == 64).astype(np.float64))
        # column j reads the points 64 j .. 64 j + 63; a keyed draw ends at
        # point GRID_BLOCK
        columns = [0, 1, 511, 512, 513, len(times) - 1]
        for r in range(3):
            sample = run_sample(gs, 17, r)
            assert [grid[r, j] for j in columns] == [ref_indicator(sample, ev, times[j]) for j in columns]
        assert np.array_equal(grid[1], run_sample(gs, 17, 1).indicators(ev, times))

    @pytest.mark.parametrize("k", [0, 64], ids=["cap-1", "cap-65"])
    def test_split_means_and_caps(self, monkeypatch, k):
        # a translation whose means repeat with period 6: 51, 120, 3000 and
        # 64 sum 2, 3, 60 and 2 keyed sub-draws; k = 0 reads counts clipped
        # at 1, k = 64 at 65
        means = [F(51), F(1, 2), F(120), F(1, 3), F(3000), F(64)]
        gs = ps.GroundSpace(weight=lambda p: means[p % 6], jump=lambda p, n: p + n)
        ev = ps.PoissonEvent.count([0], k)
        _streamed(monkeypatch, 64)
        # time t reads the point -t, of mean 51, 64, 3000, 1/3, 120, 1/2
        grid = ps.indicator_grid(gs, 41, 200, ev, range(6))
        assert np.array_equal(grid, _scalar_indicators(gs, 41, 200, ev, range(6)))
        hit = grid.any(axis=0)
        assert not hit[2] and hit[[1] if k else [3, 5]].all()

    @pytest.mark.parametrize("cells", [64, 256])
    @pytest.mark.parametrize("name", TestIndicatorGridEdges.CASES)
    def test_edge_cases_in_streamed_blocks(self, monkeypatch, name, cells):
        # 64-cell blocks hold a few runs at most, and a region wider than a
        # take sums in several takes
        gs, ev, times = TestIndicatorGridEdges.CASES[name]
        _streamed(monkeypatch, cells)
        grid = ps.indicator_grid(gs, 29, 400, ev, list(times))
        assert np.array_equal(grid, _scalar_indicators(gs, 29, 400, ev, list(times)))
        for r in (0, 399):
            assert np.array_equal(grid[r], run_sample(gs, 29, r).indicators(ev, list(times)))

    def test_point_sample_reads_the_grid_rows(self, monkeypatch):
        gs, ev, times = TestIndicatorGridEdges.CASES["shared_points"]
        _streamed(monkeypatch, 64)
        grid = ps.indicator_grid(gs, 5, 40, ev, times)
        for r in range(40):
            assert np.array_equal(grid[r], run_sample(gs, 5, r).indicators(ev, times))

    def test_memory_stays_far_below_the_count_grid(self):
        # 10^4 runs x 640 points: the int16 count grid would be 12.2 MiB
        gs = ps.integer_translation(1)
        ev = ps.PoissonEvent.count(range(64), 0)
        tracemalloc.start()
        try:
            grid = ps.indicator_grid(gs, 5, 10_000, ev, range(0, 640, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.shape == (10_000, 10)
        assert peak < 10_000 * 640 * 2 / 4


class TestPointMajorIndicators:
    """The point-major read where a take, a row block or the int64 range
    ends, and its refusals."""

    def test_region_wider_than_a_take(self, monkeypatch):
        # 40 points: a take holds 64 // 3 = 21 region rows at one run a block
        gs = ps.weighted_points({p: F(1, 40) for p in range(40)})
        ev = ps.PoissonEvent.count(range(40), 1)
        _streamed(monkeypatch, 64)
        grid = ps.indicator_grid(gs, 8, 200, ev, [0, 1, 2])
        assert 0 < grid.sum() < grid.size
        assert np.array_equal(grid, _scalar_indicators(gs, 8, 200, ev, [0, 1, 2]))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_runs_at_the_row_block_edge(self, extra):
        # overlapping events on the line: 25 points, 20 distinct events
        gs, ev, times = TestIndicatorGridEdges.CASES["overlapping_pull_backs"]
        rows = ps._BLOCK_CELLS // 25
        n_runs = rows + extra
        grid = ps.indicator_grid(gs, 5, n_runs, ev, list(times))
        assert grid.shape == (n_runs, 20)
        for r in sorted({0, rows - 2, rows - 1, rows} & set(range(n_runs))):
            assert list(grid[r]) == [ref_indicator(run_sample(gs, 5, r), ev, t) for t in times]

    def test_no_times_reads_no_point(self):
        # as before: without a time no region is pulled back or weighed
        ev = ps.PoissonEvent.count([9], 0)
        for gs in (ps.finite_cycle(3), ps.weighted_points({0: 1})):
            assert ps.indicator_grid(gs, 3, 4, ev, []).shape == (4, 0)

    def test_a_point_outside_the_cycle_is_named_in_region_order(self):
        gs = ps.finite_cycle(3)
        ev = ps.PoissonEvent.of([([1], 0), ([1, 7, -1, 4], 0)])
        first = next(p for p in ev.constraints[1][0] if not 0 <= p < 3)
        with pytest.raises(ValueError, match=f"point {first} outside cycle of length 3"):
            ps.indicator_grid(gs, 3, 4, ev, [2])
        with pytest.raises(ValueError, match=f"point {first} outside cycle of length 3"):
            ev.pulled_back(gs, 2)
        with pytest.raises(ValueError, match="point 5 outside cycle of length 3"):
            ps.find_null_subsequence(gs, [[0], [5]], 1, 10)
        assert np.array_equal(gs.jump(np.array([[0], [2]]), np.array([-1, 4])), [[2, 1], [1, 0]])

    @pytest.mark.parametrize(
        "gs, region, times",
        [
            (ps.integer_translation(2**61), [0], [1, 2]),
            (ps.integer_translation(2**61), [0], [-2]),
            (unit_line(), [2**62], [0]),
            (unit_line(), [-(2**62)], [0]),
            (unit_line(), [0], [2**62]),
            (unit_line(), [2**61], [-(2**61)]),
            (ps.integer_translation(2**70), [1], [0]),
            (ps.finite_cycle(2**70), [1], [0, 5]),
            (ps.integer_identity(), [2**64], [1]),
        ],
    )
    def test_pull_backs_past_two_to_the_62_are_refused(self, gs, region, times):
        with pytest.raises(ValueError, match=r"reaches 2\^62 in magnitude"):
            ps.indicator_grid(gs, 1, 2, ps.PoissonEvent.count(region, 0), times)

    def test_pull_backs_just_inside_two_to_the_62_are_read(self):
        gs = ps.integer_translation(2**60)
        ev = ps.PoissonEvent.count([2**61], 0)
        times = [0, -1, 1]  # points 2^61, 2^61 + 2^60 and 2^60
        grid = ps.indicator_grid(gs, 4, 30, ev, times)
        assert np.array_equal(grid, _scalar_indicators(gs, 4, 30, ev, times))

    def test_count_grid_is_a_view_of_a_point_major_grid(self):
        means = [F(1, 2), F(2), F(51), F(3, 2)]
        gs = ps.weighted_points({p: means[p % 4] for p in range(-6, 6)})
        points = [5, -6, 0, 2, -1, 3, 4]
        grid = ps.sample_count_grid(gs, 19, 33, points, first=4)
        assert grid.shape == (33, len(points)) and grid.dtype == np.int16
        assert grid.T.flags["C_CONTIGUOUS"]
        for r in (0, 16, 32):
            sample = run_sample(gs, 19, 4 + r)
            assert list(grid[r]) == [ref_count(sample, p) for p in points]
            assert np.array_equal(sample.counts(points), grid[r : r + 1])
        assert ps.PointSample(gs, 1).counts(points).shape == (1, len(points))
        assert ps.sample_count_grid(gs, 19, 0, points).shape == (0, len(points))


class TestNullSubsequence:
    def test_translation_block_region(self):
        gs = unit_line()
        times = ps.find_null_subsequence(gs, [list(range(10))], 5, horizon=200)
        assert times == [10, 20, 30, 40, 50]

    def test_empty_region(self):
        times = ps.find_null_subsequence(unit_line(), [[]], 4, horizon=10)
        assert times == [1, 2, 3, 4]

    def test_identity_map_fails_certified(self):
        with pytest.raises(CertifiedFailure) as err:
            ps.find_null_subsequence(ps.integer_identity(), [[0, 1]], 3, horizon=50)
        assert err.value.step == 1

    def test_cycle_fails_certified(self):
        with pytest.raises(CertifiedFailure):
            ps.find_null_subsequence(ps.finite_cycle(6), [[0, 1]], 3, horizon=100)

    def test_two_regions_schedule(self):
        gs = unit_line()
        regions = [list(range(5)), list(range(3, 8))]
        times = ps.find_null_subsequence(gs, regions, 4, horizon=500)
        assert all(b > a for a, b in zip(times, times[1:]))
        # every pulled-back pair obeys the threshold of the later stage
        stages = [[frozenset(r) for r in regions]] + [
            [frozenset(p - n for p in r) for r in regions] for n in times
        ]
        for j in range(1, len(stages)):
            for stage in stages[:j]:
                for old in stage:
                    for new in stages[j]:
                        overlap = gs.region_weight(old & new)
                        assert overlap < F(1, 2**j)


def pairwise_null_subsequence(gs, regions, count, horizon):
    """The null search before the point index: every candidate checks every
    (stage, old region, new region) pair of every accepted stage."""
    fixed = [frozenset(int(p) for p in region) for region in regions]
    chosen = []
    shifted = [fixed]
    candidate = 1
    for j in range(1, count + 1):
        threshold = F(1, 2**j)
        found = None
        for n in range(candidate, horizon + 1):
            pulled = [frozenset(gs.jump(p, -n) for p in region) for region in fixed]
            if all(
                gs.region_weight(old & new) < threshold
                for stage in shifted
                for old in stage
                for new in pulled
            ):
                found = n
                shifted.append(pulled)
                break
        if found is None:
            raise CertifiedFailure(f"step {j}", step=j)
        chosen.append(found)
        candidate = found + 1
    return chosen


def null_outcome(search, gs, regions, count, horizon):
    """The times found, or the failed step, or the type of the error raised."""
    try:
        return "times", search(gs, regions, count, horizon)
    except CertifiedFailure as err:
        return "failure", err.step
    except ValueError as err:
        return "error", type(err)


def halving_translation(step):
    """Translation by ``step`` with weights 2^-(1 + |p| mod 5): overlapping
    regions weigh fractions that must be summed against the threshold."""
    return ps.GroundSpace(
        weight=lambda p: F(1, 2 ** (1 + abs(p) % 5)),
        jump=lambda p, k: p + k * step,
    )


class TestNullSubsequenceIndex:
    """The point-indexed search against the full pairwise scan."""

    def assert_same(self, gs, regions, count, horizon):
        expected = null_outcome(pairwise_null_subsequence, gs, regions, count, horizon)
        assert null_outcome(ps.find_null_subsequence, gs, regions, count, horizon) == expected
        return expected

    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize(
        "regions",
        [[list(range(6))], [list(range(5)), list(range(3, 8))]],
        ids=["one_region", "two_regions"],
    )
    def test_translation(self, step, regions):
        kind, times = self.assert_same(ps.integer_translation(step), regions, 12, 2000)
        assert kind == "times" and len(times) == 12

    @pytest.mark.parametrize("step", [1, 2])
    def test_fractional_weights_overlap(self, step):
        gs = halving_translation(step)
        regions = [list(range(-3, 4)), [0, 5, 9]]
        kind, times = self.assert_same(gs, regions, 8, 2000)
        assert kind == "times"
        # some accepted time overlaps an earlier stage with positive weight,
        # so overlaps were summed and compared, not only skipped
        stages = [[frozenset(r) for r in regions]] + [
            [frozenset(gs.jump(p, -n) for p in r) for r in regions] for n in times
        ]
        assert any(
            old & new
            for j in range(1, len(stages))
            for stage in stages[:j]
            for old in stage
            for new in stages[j]
        )

    @pytest.mark.parametrize(
        "gs, regions",
        [
            (ps.integer_identity(), [[0, 1]]),
            (ps.finite_cycle(6), [[0, 1]]),
            (ps.finite_cycle(8), [[0], [3]]),
        ],
        ids=["identity", "cycle6", "cycle8"],
    )
    def test_invariant_part_fails_at_same_step(self, gs, regions):
        kind, _ = self.assert_same(gs, regions, 6, 200)
        assert kind == "failure"

    def test_unweighted_point_raises_same_error(self):
        gs = ps.weighted_points({0: "1/8", 1: "1/8"})
        kind, error = self.assert_same(gs, [[0], [1, 9]], 3, 20)
        assert (kind, error) == ("error", ValueError)

    def test_failing_pair_before_unweighted_point(self):
        # the pair of region 0 with itself fails before region 1's unweighted
        # point is weighed, in both searches
        gs = ps.weighted_points({0: "1", 1: "1/8"})
        assert self.assert_same(gs, [[0], [1, 9]], 3, 20) == ("failure", 1)

    def test_pair_order_decides_failure_before_error(self):
        # at n = 1 the pair (stage 0, old 0, new 1) = {0} fails before the
        # pair (stage 0, old 1, new 0) = {10} weighs an unweighted point
        def weight(p):
            if abs(p) > 5:
                raise ValueError(f"point {p} has no assigned weight")
            return F(1)

        gs = ps.GroundSpace(weight=weight, jump=lambda p, k: p + k)
        assert self.assert_same(gs, [[0, 11], [1, 10]], 1, 20) == ("times", [2])


class TestBanachDensity:
    def test_zero_sequence(self):
        kept, first, density = ps.banach_density_filter(lambda n: 0.0, 0.5, 1000)
        assert density == 1.0 and kept == 1000 and first == 1

    def test_inverse_n(self):
        kept, first, density = ps.banach_density_filter(lambda n: 1.0 / n, 0.01, 10_000)
        assert first == 101
        assert kept == 9900 and density == pytest.approx(0.99)

    def test_ones_sequence(self):
        kept, first, density = ps.banach_density_filter(lambda n: 1.0, 0.5, 100)
        assert kept == 0 and first is None and density == 0.0


class TestVarianceDecay:
    def test_iid_blocks_match_closed_form(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0, 1], 0)  # p = e^-2, decent statistics
        p = math.exp(-2)
        times = [2 * (j + 1) for j in range(64)]  # disjoint pull-backs: iid
        res = ps.subsequence_average_experiment(gs, ev, times, [8, 64], 8000, 2024)
        for n, mean, var in zip(res.block_sizes, res.means, res.variances):
            truth = p * (1 - p) / n
            assert mean == pytest.approx(p, abs=5 * math.sqrt(truth / 8000) * n**0.5)
            assert var == pytest.approx(truth, rel=0.25)

    def test_single_block_is_bernoulli_variance(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0], 1)
        p = math.exp(-1)
        res = ps.subsequence_average_experiment(gs, ev, [5], [1], 20_000, 7)
        assert res.variances[0] == pytest.approx(p * (1 - p), rel=0.05)

    def test_block_averages_match_cumulative_sums(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0, 1], 1)
        times = [3 * j for j in range(48)]
        res = ps.subsequence_average_experiment(gs, ev, times, [1, 7, 16, 48], 3000, 12)
        cums = np.cumsum(ps.indicator_grid(gs, 12, 3000, ev, times), axis=1)
        for n, mean, var in zip(res.block_sizes, res.means, res.variances):
            avg = cums[:, n - 1] / n
            assert (mean, var) == (float(avg.mean()), float(avg.var(ddof=1)))

    def test_block_size_exceeding_times_rejected(self):
        with pytest.raises(ValueError):
            ps.subsequence_average_experiment(
                unit_line(), ps.PoissonEvent.count([0], 0), [1, 2], [4], 10, 0
            )


class TestWeakMixing:
    def test_constant_observables(self):
        gs = unit_line()
        one = [(1.0, ps.PoissonEvent(()))]
        points = ps.weak_mixing_probe(gs, one, one, [3, 6], 200, 5)
        for pt in points:
            assert pt.estimate == 1.0 and pt.limit == 1.0

    def test_indicator_correlations_reach_product(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0, 1], 0)
        f = [(1.0, ev)]
        times = [2 * (j + 1) for j in range(8)]  # spaced: exact independence
        points = ps.weak_mixing_probe(gs, f, f, times, 20_000, 99)
        for pt in points:
            assert abs(pt.estimate - pt.limit) <= max(pt.half_width, 1e-3)

    def test_centered_observable_decorrelates(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0], 0)
        p = ps.event_probability(gs, ev)
        f = [(1.0, ev), (-p, ps.PoissonEvent(()))]
        points = ps.weak_mixing_probe(gs, f, f, [4, 9], 20_000, 11)
        for pt in points:
            assert pt.limit == pytest.approx(0.0, abs=1e-12)
            assert abs(pt.estimate) <= max(pt.half_width, 1e-2)

    def test_matches_per_time_reference(self):
        gs = unit_line()
        f = [
            (1.0, ps.PoissonEvent.of([([0, 1], 1), ([4], 0)])),
            (-0.5, ps.PoissonEvent.count([2, 3, 5], 3)),
            (0.25, ps.PoissonEvent(())),
        ]
        g = [(2.0, ps.PoissonEvent.count([1, 2], 2))]
        times = [0, 3, 1, 7]
        n_runs, seed = 500, 8
        g_vals = np.zeros(n_runs)
        for c, ev in g:
            g_vals += c * ps.indicator_grid(gs, seed, n_runs, ev, [0])[:, 0]
        reference = []
        for t in times:
            f_vals = np.zeros(n_runs)
            for c, ev in f:
                f_vals += c * ps.indicator_grid(gs, seed, n_runs, ev, [t])[:, 0]
            prod = f_vals * g_vals
            reference.append(
                (t, float(prod.mean()), 3.0 * float(prod.std(ddof=1)) / math.sqrt(n_runs))
            )
        points = ps.weak_mixing_probe(gs, f, g, times, n_runs, seed)
        assert [(p.time, p.estimate, p.half_width) for p in points] == reference
