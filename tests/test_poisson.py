import math
from fractions import Fraction

import numpy as np
import pytest

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
