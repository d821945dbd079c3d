import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import poisson as ps
from ergolab.errors import CertifiedFailure
from ergolab.seeding import uniform01

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


class TestSampling:
    def test_rereads_stable_and_seeded(self):
        sample = ps.PointSample(unit_line(), 7)
        assert sample.count(3) == sample.count(3)
        again = ps.PointSample(unit_line(), 7)
        assert [sample.count(p) for p in range(-20, 20)] == [
            again.count(p) for p in range(-20, 20)
        ]

    def test_count_moments(self):
        sample = ps.PointSample(unit_line(), 123)
        counts = np.array([sample.count(p) for p in range(100_000)])
        # Poisson(1): mean 1, var 1; 5 sigma on 1e5 samples is ~0.016
        assert abs(counts.mean() - 1.0) < 0.016
        assert abs(counts.var() - 1.0) < 0.03
        assert counts.min() >= 0

    def test_large_mean_split_sampling(self):
        gs = ps.weighted_points({0: 120})
        counts = np.array(
            [ps.PointSample.for_run(gs, 5, r).count(0) for r in range(3000)]
        )
        assert abs(counts.mean() - 120.0) < 5 * math.sqrt(120 / 3000) * 1.2
        assert abs(counts.var() / 120.0 - 1.0) < 0.15

    def test_grid_matches_per_sample_counts(self):
        gs = ps.weighted_points({p: F(1, 2) if p % 2 else F(2) for p in range(12)})
        points = list(range(12))
        grid = ps.sample_count_grid(gs, 77, 50, points)
        for r in range(50):
            sample = ps.PointSample.for_run(gs, 77, r)
            assert list(grid[r]) == [sample.count(p) for p in points]

    @pytest.mark.parametrize("cap", [1, 2, 3, 65])
    def test_capped_grid_clips_full_grid(self, cap):
        # several distinct means, one just under the split threshold, whose
        # counts pass 65 in some runs
        means = [F(1, 2), F(1), F(7, 3), F(0), F(99, 2), F(12)]
        gs = ps.weighted_points({p: means[p % len(means)] for p in range(-9, 9)})
        points = list(range(-9, 9))
        full = ps.sample_count_grid(gs, 41, 400, points)
        capped = ps.sample_count_grid(gs, 41, 400, points, cap=cap)
        assert capped.dtype == full.dtype
        assert np.array_equal(capped, np.minimum(full, cap))
        if cap == 65:
            assert full.max() > 65

    def test_empirical_event_frequency_vs_exact(self):
        gs = unit_line()
        ev = ps.PoissonEvent.count([0], 0)
        p = ps.event_probability(gs, ev)
        n_runs = 10_000
        hits = sum(
            ps.PointSample.for_run(gs, 31, r).satisfies(ev) for r in range(n_runs)
        )
        sigma = math.sqrt(p * (1 - p) / n_runs)
        assert abs(hits / n_runs - p) < 4 * sigma


class TestSuspension:
    def test_time_zero_is_direct_evaluation(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 3)
        ev = ps.PoissonEvent.count([0, 1], 1)
        assert ps.suspension_indicator(sample, ev, 0) == int(sample.satisfies(ev))

    def test_translation_pull_back(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 9)
        ev = ps.PoissonEvent.count([0], 0)
        for n in (-3, 1, 5):
            direct = int(sample.count(-n) == 0)
            assert ps.suspension_indicator(sample, ev, n) == direct

    def test_pull_back_composes(self):
        gs = unit_line()
        sample = ps.PointSample(gs, 11)
        ev = ps.PoissonEvent.of([([0, 2], 1), ([5], 0)])
        for n, m in [(2, 3), (-1, 4), (0, 7)]:
            one = ps.suspension_indicator(sample, ev, n + m)
            stepped = ps.suspension_indicator(sample, ev.pulled_back(gs, n), m)
            assert one == stepped

    def test_indicator_grid_matches_scalar(self):
        gs = unit_line()
        ev = ps.PoissonEvent.of([([0, 1, 2], 1)])
        times = [0, 3, 7, 12]
        grid = ps.indicator_grid(gs, 13, 40, ev, times)
        for r in range(40):
            sample = ps.PointSample.for_run(gs, 13, r)
            for j, t in enumerate(times):
                assert grid[r, j] == ps.suspension_indicator(sample, ev, t)

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
            [
                ps.suspension_indicator(ps.PointSample.for_run(gs, 23, r), ev, t)
                for t in times
            ]
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


def _scalar_indicators(gs, seed, n_runs, ev, times):
    return np.array(
        [
            [ps.suspension_indicator(ps.PointSample.for_run(gs, seed, r), ev, t) for t in times]
            for r in range(n_runs)
        ],
        dtype=np.float64,
    )


class TestIndicatorGridEdges:
    """``indicator_grid`` cell by cell against ``suspension_indicator`` where
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
        "empty_region_k0": (ps.integer_translation(), ps.PoissonEvent.count([], 0), [0, 4, 4]),
        "empty_region_k1": (ps.integer_translation(), ps.PoissonEvent.count([], 1), [2, 0]),
        "shared_points": (
            ps.integer_translation(2),
            ps.PoissonEvent.of([([0, 1, 2, 3], 2), ([2, 3, 4], 1)]),
            [1, 0, 6, 2, 1],
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_scalar(self, name):
        gs, ev, times = self.CASES[name]
        grid = ps.indicator_grid(gs, 29, 400, ev, times)
        assert grid.shape == (400, len(times)) and grid.dtype == np.float64
        assert np.array_equal(grid, _scalar_indicators(gs, 29, 400, ev, times))
        if name == "empty_region_k0":
            assert grid.all()
        elif name == "empty_region_k1":
            assert not grid.any()
        else:
            assert 0 < grid.sum() < grid.size
        if name == "identity_one_event":
            assert (grid == grid[:, :1]).all()

    def test_no_times(self):
        ev = ps.PoissonEvent.count([0, 1], 1)
        grid = ps.indicator_grid(unit_line(), 3, 50, ev, [])
        assert grid.shape == (50, 0) and grid.dtype == np.float64

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
        name=f"halving[{step}]",
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

        gs = ps.GroundSpace(weight=weight, jump=lambda p, k: p + k, name="partial")
        assert self.assert_same(gs, [[0, 11], [1, 10]], 1, 20) == ("times", [2])


class TestBanachDensity:
    def test_zero_sequence(self):
        kept, density = ps.banach_density_filter(lambda n: 0.0, 0.5, 1000)
        assert density == 1.0 and len(kept) == 1000

    def test_inverse_n(self):
        kept, density = ps.banach_density_filter(lambda n: 1.0 / n, 0.01, 10_000)
        assert kept[0] == 101 and kept[-1] == 10_000
        assert len(kept) == 9900 and density == pytest.approx(0.99)

    def test_ones_sequence(self):
        kept, density = ps.banach_density_filter(lambda n: 1.0, 0.5, 100)
        assert kept == [] and density == 0.0

    def test_accepts_prefix_sequence(self):
        kept, density = ps.banach_density_filter([0.0, 1.0, 0.0, 1.0], 0.5, 4)
        assert kept == [1, 3] and density == 0.5


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
