import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cocycle_kernel import float_cdf

from ergolab.seeding import thresholds
from ergolab.shift_core import (
    Alphabet,
    Configuration,
    Cylinder,
    LazyTail,
    RangeCapError,
    periodic_levels,
    rule_levels,
    window_levels,
)


def coin_config(seed=7, overrides=None):
    return Configuration(LazyTail.constant(seed, [0.5, 0.5]), overrides)


def read_range(x, lo, hi):
    return [x.symbol(i) for i in range(lo, hi + 1)]


class TestAlphabetAndCylinder:
    def test_alphabet_validation(self):
        assert list(Alphabet(3).symbols) == [1, 2, 3]
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_cylinder_word_length(self):
        with pytest.raises(ValueError):
            Cylinder(0, 2, (1, 2))
        cyl = Cylinder.of([1, 2, 1], left=-1)
        assert cyl.right == 1 and cyl.symbol(0) == 2

    def test_empty_cylinder(self):
        empty = Cylinder.empty()
        assert empty.is_empty and list(empty.coords()) == []
        assert empty.matches_word(-3, tuple(coin_config().block(-3, 3)))


class TestShift:
    def test_identity_shift(self):
        x = coin_config()
        assert read_range(x.shifted(0), -20, 20) == read_range(x, -20, 20)

    def test_inverse_composition(self):
        x = coin_config()
        assert read_range(x.shifted(3).shifted(-3), -10, 10) == read_range(x, -10, 10)

    def test_window_index_arithmetic(self):
        x = coin_config(overrides={0: 1, 1: 2})
        assert x.shifted(1).symbol(0) == 2

    @given(a=st.integers(-50, 50), b=st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_group_law(self, a, b):
        x = coin_config()
        assert read_range(x.shifted(a).shifted(b), -10, 10) == read_range(
            x.shifted(a + b), -10, 10
        )

    def test_shift_preserves_lazy_tail(self):
        x = coin_config()
        far = x.symbol(1000)
        assert x.shifted(999).symbol(1) == far


class TestDeterminism:
    def test_same_seed_same_symbols(self):
        a, b = coin_config(11), coin_config(11)
        assert read_range(a, -100, 100) == read_range(b, -100, 100)

    def test_reread_stable(self):
        x = coin_config()
        assert x.symbol(37) == x.symbol(37)

    def test_block_matches_symbols(self):
        x = coin_config(overrides={3: 2, -5: 1})
        block = x.block(-8, 8)
        assert list(block) == read_range(x, -8, 8)

    def test_shifted_block_matches_symbols(self):
        x = coin_config(overrides={3: 2}).shifted(4)
        assert list(x.block(-6, 6)) == read_range(x, -6, 6)

    def test_range_cap(self):
        with pytest.raises(RangeCapError):
            coin_config().block(0, 1 << 25)


class TestLazyTailKinds:
    def test_window_tail(self):
        levels = window_levels(
            thresholds(float_cdf([0.5, 0.5])), {0: thresholds(float_cdf([1.0 - 1e-12, 1e-12]))}
        )
        tail = LazyTail(3, levels)
        assert tail.symbol(0) == 1
        assert list(tail.block(-5, 5)) == [tail.symbol(i) for i in range(-5, 6)]

    def test_periodic_tail(self):
        rows = [[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]
        tail = LazyTail(3, periodic_levels([thresholds(float_cdf(p)) for p in rows]))
        block = tail.block(-6, 5)
        assert all(s == 1 for s in block[::2])  # even coordinates: -6, -4, ...
        assert all(s == 2 for s in block[1::2])
        assert list(block) == [tail.symbol(i) for i in range(-6, 6)]

    def test_rule_tail_matches_scalar(self):
        rule = lambda k: [0.25, 0.75] if k % 3 == 0 else [0.5, 0.5]
        tail = LazyTail(9, rule_levels(lambda k: thresholds(float_cdf(rule(k)))))
        assert list(tail.block(-7, 7)) == [tail.symbol(i) for i in range(-7, 8)]


class TestRewire:
    def test_empty_block_is_identity(self):
        x = coin_config()
        assert read_range(x.rewired(Cylinder.empty()), -30, 30) == read_range(x, -30, 30)

    def test_radius_zero_when_only_origin_differs(self):
        x = coin_config()
        other = 2 if x.symbol(0) == 1 else 1
        y = x.rewired(Cylinder.of([other], left=0))
        assert np.flatnonzero(x.block(-20, 20) != y.block(-20, 20)).tolist() == [20]

    def test_changes_exactly_the_block(self):
        x = coin_config()
        block = Cylinder.of([2, 2, 2], left=4)
        y = x.rewired(block)
        for i in range(-40, 41):
            if 4 <= i <= 6:
                assert y.symbol(i) == 2
            else:
                assert y.symbol(i) == x.symbol(i)

    def test_disjoint_rewires_commute(self):
        x = coin_config()
        a = Cylinder.of([1, 2], left=-6)
        b = Cylinder.of([2, 1], left=10)
        one = x.rewired(a).rewired(b)
        two = x.rewired(b).rewired(a)
        assert read_range(one, -20, 20) == read_range(two, -20, 20)

    def test_rewire_respects_shift_offset(self):
        x = coin_config().shifted(5)
        y = x.rewired(Cylinder.of([2], left=0))
        assert y.symbol(0) == 2
        assert y.shifted(-5).symbol(5) == 2
