import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import bernoulli as bn
from ergolab.errors import NonSingularError, ToleranceError
from ergolab.seeding import spawn
from ergolab.shift_core import Cylinder

HALF = SiteHalf = bn.SiteMeasure.of(["1/2", "1/2"])
TILTED = bn.SiteMeasure.of(["3/4", "1/4"])
# the chain-rule bound at the default tolerance, as the runner applies it
COCYCLE_BOUND = 3 * 1e-12 + bn.LOG_SLACK


def iid_family():
    return bn.CompactFamily(HALF, {})


def one_site_family():
    return bn.CompactFamily(HALF, {0: TILTED})


def wide_family():
    return bn.CompactFamily(
        HALF,
        {-2: TILTED, 0: bn.SiteMeasure.of(["2/3", "1/3"]), 3: bn.SiteMeasure.of(["1/4", "3/4"])},
    )


def alternating_family():
    return bn.PeriodicFamily([TILTED, bn.SiteMeasure.of(["1/4", "3/4"])])


def summable_family(r=Fraction(1, 2)):
    return bn.SummableFamily(Fraction(1, 10), r)


# --- independent oracles: direct definition-following sums/products ---------


def oracle_kakutani(family, horizon):
    total = 0.0
    for k in range(-horizon, horizon + 1):
        a, b = family.site(k), family.site(k - 1)
        total += sum(
            (math.sqrt(p) - math.sqrt(q)) ** 2 for p, q in zip(a.probs, b.probs)
        )
    return total


def oracle_rn_log(family, x, n, radius):
    total = 0.0
    for k in range(-radius, radius + 1):
        s = x.symbol(k)
        total += math.log(family.site(k - n).prob(s)) - math.log(
            family.site(k).prob(s)
        )
    return total


class TestSiteMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            bn.SiteMeasure.of(["0", "1"])
        with pytest.raises(ValueError):
            bn.SiteMeasure.of(["1/2", "1/3"])
        with pytest.raises(ValueError):
            bn.SiteMeasure.of(["1/2"])

    def test_extremes_and_ratio(self):
        assert TILTED.max_prob == Fraction(3, 4)
        assert TILTED.min_prob == Fraction(1, 4)
        assert TILTED.ratio == 3


class TestKakutaniSum:
    def test_iid_zero_every_horizon(self):
        for horizon in (1, 10, 1000):
            res = bn.kakutani_sum(iid_family(), horizon)
            assert res == (0.0, bn.CONVERGENT, 0.0)

    def test_one_site_matches_oracle(self):
        fam = one_site_family()
        res = bn.kakutani_sum(fam, 50)
        assert res.verdict == bn.CONVERGENT
        assert res.value == pytest.approx(oracle_kakutani(fam, 50), abs=1e-15)
        # two boundary terms, each (sqrt(3/4)-sqrt(1/2))^2 + (sqrt(1/4)-sqrt(1/2))^2,
        # frozen from a 30-digit evaluation of that expression
        assert res.value == pytest.approx(0.1362966948437268, abs=1e-12)

    def test_wide_family_matches_oracle(self):
        fam = wide_family()
        for horizon in (1, 2, 3, 4, 10):
            res = bn.kakutani_sum(fam, horizon)
            assert res.value == pytest.approx(oracle_kakutani(fam, horizon), abs=1e-12)
            assert res.verdict == bn.CONVERGENT

    def test_alternating_per_term_and_verdict(self):
        fam = alternating_family()
        horizon = 500
        res = bn.kakutani_sum(fam, horizon)
        assert res.verdict == bn.DIVERGENT
        per_term = res.value / (2 * horizon + 1)
        assert per_term == pytest.approx(2 * (math.sqrt(0.75) - math.sqrt(0.25)) ** 2)
        assert per_term == pytest.approx(0.2679491924311227, abs=1e-12)
        assert res.value == pytest.approx(oracle_kakutani(fam, horizon), rel=1e-12)

    def test_constant_periodic_convergent(self):
        fam = bn.periodic_family([TILTED, TILTED])
        assert bn.kakutani_sum(fam, 100) == (0.0, bn.CONVERGENT, 0.0)

    def test_summable_certified(self):
        fam = summable_family()
        res = bn.kakutani_sum(fam, 200)
        assert res.verdict == bn.CONVERGENT
        assert res.tail_bound < 1e-9
        assert res.value == pytest.approx(oracle_kakutani(fam, 200), rel=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            bn.kakutani_sum(iid_family(), 0)


class TestRnDerivative:
    def test_zero_steps(self):
        x = one_site_family().configuration(1)
        assert bn.rn_derivative(one_site_family(), x, 0) == (0.0, 0.0)

    def test_worked_example_log_third(self):
        fam = one_site_family()
        x = fam.configuration(5, pinned={0: 1, 1: 2})
        val = bn.rn_derivative(fam, x, 1)
        assert val.error_bound == 0.0
        assert val.log_magnitude == pytest.approx(math.log(1 / 3), abs=1e-14)

    def test_worked_example_cancellation(self):
        fam = one_site_family()
        x = fam.configuration(5, pinned={0: 1, 1: 1})
        assert bn.rn_derivative(fam, x, 1).log_magnitude == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [-7, -3, -1, 1, 2, 5, 9])
    def test_matches_oracle_product(self, n):
        fam = wide_family()
        for seed in range(4):
            x = fam.configuration(seed)
            val = bn.rn_derivative(fam, x, n)
            assert val.error_bound == 0.0
            assert val.log_magnitude == pytest.approx(
                oracle_rn_log(fam, x, n, radius=20), abs=1e-12
            )

    def test_periodic_nonsingular_rejected(self):
        fam = alternating_family()
        with pytest.raises(NonSingularError):
            bn.rn_derivative(fam, fam.configuration(0), 1)

    def test_summable_within_tolerance(self):
        fam = summable_family()
        x = fam.configuration(3)
        for n in (1, -2, 4):
            val = bn.rn_derivative(fam, x, n, tol=1e-10)
            assert val.error_bound <= 1e-10
            truth = oracle_rn_log(fam, x, n, radius=160)
            assert abs(val.log_magnitude - truth) <= val.error_bound + 1e-12

    def test_summable_unachievable_tolerance(self):
        # decay so slow that the truncation tail stays huge within the cap
        r = Fraction(10**9 - 1, 10**9)
        fam = summable_family(r)
        with pytest.raises(ToleranceError):
            bn.rn_derivative(fam, fam.configuration(0), 1, tol=1e-9)


class TestCocycle:
    def test_trivial(self):
        fam = one_site_family()
        assert bn.cocycle_gap(fam, fam.configuration(0), 0, 0) <= COCYCLE_BOUND

    def test_exact_small_case(self):
        fam = one_site_family()
        for seed in range(5):
            assert bn.cocycle_gap(fam, fam.configuration(seed), 2, 3) <= COCYCLE_BOUND

    @given(seed=st.integers(0, 10_000), n=st.integers(-8, 8), m=st.integers(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_exact(self, seed, n, m):
        fam = wide_family()
        assert bn.cocycle_gap(fam, fam.configuration(seed), n, m) <= COCYCLE_BOUND

    def test_vectorized_weights_match_scalar(self):
        fam = wide_family()
        x = fam.configuration(21)
        ns = np.arange(-12, 13)
        logs, err = bn.rn_log_weights(fam, x, ns)
        assert err == 0.0
        for i, n in enumerate(ns):
            assert logs[i] == pytest.approx(
                bn.rn_derivative(fam, x, int(n)).log_magnitude, abs=1e-12
            )


class TestUniformity:
    def test_iid_is_one(self):
        assert bn.uniformity_constant(iid_family()) == (1.0, True)

    def test_one_site_is_three(self):
        assert bn.uniformity_constant(one_site_family()) == (3.0, True)

    def test_alternating_is_three(self):
        assert bn.uniformity_constant(alternating_family()) == (3.0, True)

    def test_summable_is_scan(self):
        res = bn.uniformity_constant(summable_family(), horizon=50)
        assert not res.exact
        assert res.value == pytest.approx(float(Fraction(3, 5) / Fraction(2, 5)))


class TestHomoclinicRatioBounds:
    def test_equal_points(self):
        fam = one_site_family()
        x = fam.configuration(2)
        res = bn.homoclinic_ratio_bound_check(fam, x, x, 0, 3)
        assert res.ratio_log == 0.0 and res.ok

    def test_iid_ratio_exactly_zero(self):
        fam = iid_family()
        x = fam.configuration(2)
        y = x.rewired(Cylinder.of([2, 1, 2], left=-1))
        res = bn.homoclinic_ratio_bound_check(fam, x, y, 1, 4)
        assert res.ratio_log == 0.0 and res.ok

    def test_radius_zero_reaches_product_bound(self):
        # differing only at the origin, the ratio attains the per-site bound,
        # which is why a 4N-exponent uniform bound cannot be right at N=0
        fam = one_site_family()
        x = fam.configuration(5, pinned={0: 1, 1: 1})
        y = x.rewired(Cylinder.of([2], left=0))
        res = bn.homoclinic_ratio_bound_check(fam, x, y, 0, 1)
        assert abs(res.ratio_log) == pytest.approx(math.log(3), abs=1e-12)
        assert res.product_bound_log == pytest.approx(math.log(3), abs=1e-12)
        assert res.uniform_bound_log == pytest.approx(2 * math.log(3), abs=1e-12)
        assert res.ok

    def test_exhaustive_small_scan(self):
        fam = one_site_family()
        x = fam.configuration(9)
        for word in [(1,), (2,)]:
            y = x.rewired(Cylinder.of(list(word), left=0))
            for n in range(1, 6):
                assert bn.homoclinic_ratio_bound_check(fam, x, y, 0, n).ok

    def test_product_bound_below_uniform_bound(self):
        fam = wide_family()
        x = fam.configuration(1)
        y = x.rewired(Cylinder.of([2, 2, 2, 2, 2], left=-2))
        for n in range(-6, 7):
            res = bn.homoclinic_ratio_bound_check(fam, x, y, 2, n)
            assert res.product_bound_log <= res.uniform_bound_log + 1e-12
            assert res.ok


class TestConservativity:
    def test_iid_partial_sums_exactly_n(self):
        fam = iid_family()
        rep = bn.conservativity_probe(fam, fam.configuration(0), 512)
        assert rep.verdict == bn.DIVERGENT
        for n, value in rep.checkpoints:
            assert value == float(n)

    def test_one_site_certified_with_floor(self):
        fam = one_site_family()
        x = fam.configuration(4)
        rep = bn.conservativity_probe(fam, x, 256)
        assert rep.verdict == bn.DIVERGENT
        assert rep.term_log_floor == pytest.approx(math.log(1 / 9))
        logs, _ = bn.rn_log_weights(fam, x, -np.arange(1, 257))
        assert np.all(logs >= rep.term_log_floor - 1e-12)
        assert np.all(logs <= -rep.term_log_floor + 1e-12)

    def test_term_envelope_for_wide_family(self):
        fam = wide_family()
        x = fam.configuration(8)
        k_width = 2 * fam.half_width + 1
        bound = 2 * k_width * math.log(3)
        logs, _ = bn.rn_log_weights(fam, x, -np.arange(1, 2001))
        assert np.all(np.abs(logs) <= bound + 1e-12)

    def test_summable_heuristic_label(self):
        fam = summable_family()
        rep = bn.conservativity_probe(fam, fam.configuration(1), 10_000)
        assert rep.verdict == bn.DIVERGENT_LOOKING
        assert rep.term_log_floor is None


class TestMeasureAndSampling:
    def test_cylinder_measure_exact(self):
        fam = one_site_family()
        cyl = Cylinder.of([1, 2, 1], left=-1)
        assert bn.measure(fam, cyl) == Fraction(1, 2) * Fraction(1, 4) * Fraction(1, 2)

    def test_cylinder_measures_sum_to_one(self):
        fam = wide_family()
        total = Fraction(0)
        for word in [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]:
            total += bn.measure(fam, Cylinder.of(list(word), left=-1))
        assert total == 1

    def test_sampled_frequencies_follow_site_measure(self):
        fam = one_site_family()
        hits = sum(
            fam.configuration(spawn(123, r)).symbol(0) == 1 for r in range(4000)
        )
        # Binomial(4000, 3/4): 4 sigma is about 110
        assert abs(hits - 3000) < 110

    def test_family_block_matches_symbols(self):
        for fam in (iid_family(), wide_family(), alternating_family(), summable_family()):
            x = fam.configuration(17)
            assert list(x.block(-9, 9)) == [x.symbol(i) for i in range(-9, 10)]

    @pytest.mark.parametrize(
        "c, r", [("1/4", "1/2"), ("0", "1/2"), ("1/10", "1"), ("1/10", "0")]
    )
    def test_summable_parameters_checked(self, c, r):
        with pytest.raises(ValueError, match="need 0 < c < 1/4 and 0 < r < 1"):
            bn.SummableFamily(Fraction(c), Fraction(r))
