import math
from fractions import Fraction

import numpy as np
import pytest

from ergolab import averages as av
from ergolab import bernoulli as bn
from ergolab import poisson as ps
from ergolab.shift_core import Cylinder
from test_cocycle_kernel import ref_dual_log_weights
from test_poisson import ref_indicator
from test_symbol_kernel import _peak

F = Fraction


def iid_system():
    return av.BernoulliSystem(bn.CompactFamily(bn.SiteMeasure.of(["1/2", "1/2"]), {}))


def perturbed_system():
    base = bn.SiteMeasure.of(["1/2", "1/2"])
    window = {0: bn.SiteMeasure.of(["3/4", "1/4"]), 1: bn.SiteMeasure.of(["2/3", "1/3"])}
    return av.BernoulliSystem(bn.CompactFamily(base, window))


def letter_indicator(symbol=1, at=0):
    return av.Observable.indicator(Cylinder.of([symbol], left=at))


class TestObservables:
    def test_expectation_linear(self):
        sys = perturbed_system()
        obs = av.Observable.combine(
            [(2.0, Cylinder.of([1], left=0)), (-1.0, Cylinder.of([1, 1], left=0))]
        )
        mu = sys.expectation(obs)
        assert mu == pytest.approx(2 * 0.75 - 0.75 * 2 / 3, abs=1e-15)

    def test_abs_expectation_indicator(self):
        sys = perturbed_system()
        assert sys.abs_expectation(letter_indicator()) == pytest.approx(0.75)

    def test_abs_expectation_vs_enumeration(self):
        sys = perturbed_system()
        obs = av.Observable.combine(
            [(1.0, Cylinder.of([1], left=0)), (-1.0, Cylinder.of([1], left=1))]
        )
        # |1_A - 1_B| has mass mu(A \ B) + mu(B \ A), computed by hand:
        # mu(x0=1, x1=2) + mu(x0=2, x1=1) = (3/4)(1/3) + (1/4)(2/3)
        assert sys.abs_expectation(obs) == pytest.approx(0.75 / 3 + 0.25 * 2 / 3)

    def test_constant_observable(self):
        sys = iid_system()
        assert sys.expectation(av.Observable.constant(2.5)) == 2.5

    def test_value_series_matches_pointwise_reads(self):
        sys = perturbed_system()
        x = sys.sample(5)
        obs = av.Observable.combine(
            [(1.0, Cylinder.of([1, 2], left=-1)), (0.5, Cylinder.empty())]
        )
        times = np.array([-7, -2, 0, 3, 11])
        vals = sys.value_series(x, obs, times)
        for i, t in enumerate(times):
            expected = 0.5 + float(
                x.symbol(-1 + t) == 1 and x.symbol(0 + t) == 2
            )
            assert vals[i] == expected


class TestBirkhoff:
    def test_constant_function(self):
        sys = iid_system()
        series = av.birkhoff_series(sys, av.Observable.constant(3.0), sys.sample(1), 64)
        assert all(v == 3.0 for v in series.values)

    def test_cancelling_difference(self):
        sys = iid_system()
        atom = Cylinder.of([1], left=0)
        obs = av.Observable.combine([(1.0, atom), (-1.0, atom)])
        series = av.birkhoff_series(sys, obs, sys.sample(1), 128)
        assert all(v == 0.0 for v in series.values)

    def test_lln_fair_coin(self):
        sys = iid_system()
        series = av.birkhoff_series(sys, letter_indicator(), sys.sample(7), 100_000)
        assert abs(series.final_value - 0.5) < 0.01

    def test_indicator_averages_within_unit_interval(self):
        sys = perturbed_system()
        series = av.birkhoff_series(sys, letter_indicator(), sys.sample(3), 4096)
        assert all(0.0 <= v <= 1.0 for v in series.values)


class TestDualSeries:
    def test_constant_one_counts_exactly(self):
        for sys in (iid_system(), av.PoissonSystem(ps.integer_translation())):
            x = sys.sample(2)
            series = av.dual_series(sys, av.Observable.constant(1.0, "cylinder" if sys.kind == "bernoulli" else "event"), x, 1024)
            for n, v in zip(series.checkpoints, series.values):
                assert v == float(n)

    def test_zero_function(self):
        sys = iid_system()
        series = av.dual_series(sys, av.Observable.constant(0.0), sys.sample(2), 256)
        assert all(v == 0.0 for v in series.values)

    def test_iid_indicator_tracks_half_n(self):
        sys = iid_system()
        series = av.dual_series(sys, letter_indicator(), sys.sample(9), 100_000)
        assert abs(series.final_value / series.checkpoints[-1] - 0.5) < 0.01

    def test_long_series_memory_stays_block_sized(self):
        # 10^6 terms read 2 MB of int16 symbols; an int64 array of their
        # offsets alone would be 8 MB
        sys = perturbed_system()
        x = sys.sample(3)
        assert _peak(lambda: av.dual_series(sys, letter_indicator(), x, 10**6)) < 6 * 2**20

    def test_linearity(self):
        sys = perturbed_system()
        x = sys.sample(4)
        f = letter_indicator(1, 0)
        g = letter_indicator(2, 1)
        combo = av.Observable.combine(
            [(2.0, f.terms[0][1]), (-3.0, g.terms[0][1])]
        )
        horizon = 512
        direct = av.dual_series(sys, combo, x, horizon)
        a = av.dual_series(sys, f, x, horizon)
        b = av.dual_series(sys, g, x, horizon)
        for i in range(len(direct.values)):
            assert direct.values[i] == pytest.approx(
                2.0 * a.values[i] - 3.0 * b.values[i], rel=1e-10, abs=1e-9
            )

    def test_weights_match_scalar_cocycle(self):
        sys = perturbed_system()
        x = sys.sample(12)
        logs = ref_dual_log_weights(sys, x, 32)
        for k in range(32):
            expected = bn.rn_derivative(sys.family, x, -k).log_magnitude
            assert logs[k] == pytest.approx(expected, abs=1e-12)
        # a compact family's weights are exact
        assert set(av.dual_series(sys, av.Observable.constant(1.0), x, 32).error_bounds) == {0.0}


class TestRatioSeries:
    def test_constant_function_ratio_one(self):
        sys = perturbed_system()
        series = av.hurewicz_ratio_series(sys, av.Observable.constant(1.0), sys.sample(5), 256)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in series.values)

    def test_iid_indicator_converges_to_mass(self):
        sys = iid_system()
        series = av.hurewicz_ratio_series(sys, letter_indicator(), sys.sample(3), 100_000)
        assert abs(series.final_value - 0.5) < 0.01

    def test_values_stay_in_observable_range(self):
        sys = perturbed_system()
        series = av.hurewicz_ratio_series(sys, letter_indicator(), sys.sample(8), 8192)
        assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_perturbed_family_converges_empirically(self):
        sys = perturbed_system()
        series = av.hurewicz_ratio_series(sys, letter_indicator(), sys.sample(1), 65_536)
        last = series.values[-4:]
        assert max(last) - min(last) < 0.05


class TestMaximalInequality:
    def test_threshold_above_sup_norm(self):
        sys = iid_system()
        res = av.maximal_inequality_probe(sys, letter_indicator(), 1.1, 500, 64, 3)
        assert res.empirical_tail == 0.0 and res.ok

    def test_zero_function(self):
        sys = iid_system()
        obs = av.Observable.constant(0.0)
        res = av.maximal_inequality_probe(sys, obs, 0.5, 200, 64, 3)
        assert res.empirical_tail == 0.0 and res.ok

    def test_fair_coin_tail_bound(self):
        sys = iid_system()
        res = av.maximal_inequality_probe(sys, letter_indicator(), 0.9, 4000, 128, 17)
        assert res.bound == pytest.approx(0.5 / 0.9)
        assert res.empirical_tail == pytest.approx(0.5, abs=0.035)
        assert res.ok


class TestTwoSubsequenceProbe:
    def test_full_space_indicator(self):
        sys = iid_system()
        res = av.two_subsequence_probe(
            sys, av.Observable.constant(1.0), list(range(64)), [8, 16, 32], 1.0, 50, 5
        )
        assert res.passed and res.lower_quantile == 1.0

    def test_iid_full_times(self):
        sys = iid_system()
        res = av.two_subsequence_probe(
            sys,
            letter_indicator(),
            list(range(2048)),
            [256, 512, 1024, 2048],
            1.0,
            300,
            41,
        )
        assert res.passed
        assert res.target_mean == 0.5
        for mean in res.block_means:
            assert mean == pytest.approx(0.5, abs=0.02)

    def test_poisson_system_with_spaced_times(self):
        sys = av.PoissonSystem(ps.integer_translation())
        ev = ps.PoissonEvent.count([0, 1], 0)
        times = [2 * (j + 1) for j in range(128)]
        res = av.two_subsequence_probe(
            sys, av.Observable.indicator(ev), times, [16, 64, 128], 1.0, 3000, 23
        )
        assert res.passed
        assert res.target_mean == pytest.approx(math.exp(-2), rel=1e-12)

    def test_rejects_unsorted_times(self):
        sys = iid_system()
        with pytest.raises(ValueError):
            av.two_subsequence_probe(sys, letter_indicator(), [3, 2, 1], [2], 1.0, 10, 0)


class TestBatching:
    def test_values_matrix_rows_match_runs(self):
        sys = perturbed_system()
        obs = letter_indicator()
        times = [0, 1, 5]
        mat = av.values_matrix(sys, 77, 8, obs, times)
        for r in range(8):
            x = sys.run_sample(77, r)
            assert list(mat[r]) == list(sys.value_series(x, obs, np.array(times)))

    def test_poisson_values_matrix_matches_scalar(self):
        sys = av.PoissonSystem(ps.integer_translation())
        ev = ps.PoissonEvent.count([0, 1, 2], 1)
        obs = av.Observable.indicator(ev)
        mat = av.values_matrix(sys, 31, 6, obs, [0, 4, 9])
        for r in range(6):
            sample = sys.run_sample(31, r)
            expected = [float(ref_indicator(sample, ev, t)) for t in (0, 4, 9)]
            assert list(mat[r]) == expected

    #: (ground, terms, times): negative times as the dual sums read them,
    #: and a weighted ground with means above the split threshold
    POISSON_SERIES = {
        "negative-times": (
            ps.integer_translation(2),
            [
                (1.0, ps.PoissonEvent.count([0, 1], 1)),
                (-0.5, ps.PoissonEvent.of([([3], 0), ([0, 5], 2)])),
            ],
            -np.arange(40),
        ),
        "large-means": (
            ps.weighted_points({0: 51, 1: 120, 2: 300, 3: F(1, 2)}),
            [
                (1.0, ps.PoissonEvent.count([0], 51)),
                (2.0, ps.PoissonEvent.of([([1, 3], 64), ([0], 51)])),
                (-1.0, ps.PoissonEvent.of([([0, 3], 50), ([2], 64)])),
                (0.25, ps.PoissonEvent(())),
            ],
            np.array([0, -3, 5]),
        ),
    }

    @pytest.mark.parametrize("name", POISSON_SERIES)
    def test_poisson_value_series_matches_reference(self, name):
        gs, terms, times = self.POISSON_SERIES[name]
        sys = av.PoissonSystem(gs)
        obs = av.Observable.combine(terms)
        seen = set()
        for r in range(200):
            sample = sys.run_sample(19, r)
            expected = np.zeros(len(times))
            for c, ev in terms:
                expected += c * np.array([ref_indicator(sample, ev, int(t)) for t in times])
            series = sys.value_series(sample, obs, times)
            assert list(series) == list(expected)
            seen.update(series)
        # some event hits in some run
        assert len(seen) > 1


@pytest.mark.parametrize("series", [av.birkhoff_series, av.dual_series, av.hurewicz_ratio_series])
def test_series_needs_a_term(series):
    sys = perturbed_system()
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        series(sys, letter_indicator(), sys.sample(1), 0)
