import math
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from ergolab import bernoulli as bn
from ergolab import lattice as lt
from ergolab.averages import _add_patterns
from ergolab.bernoulli import CONVERGENT, DIVERGENT, SiteMeasure
from ergolab.errors import NonSingularError
from test_symbol_kernel import TRANSLATION, _peak
from test_symbol_kernel import compact as compact_window

F = Fraction

HALF = SiteMeasure.of(["1/2", "1/2"])
TILTED = SiteMeasure.of(["3/4", "1/4"])


def iid2():
    return lt.LatticeCompact(2, HALF, {})


def compact2():
    return lt.LatticeCompact(2, HALF, {(0, 0): TILTED, (1, -1): SiteMeasure.of(["2/3", "1/3"])})


def oracle_rn_log(family, x, g, radius):
    """Direct product over the box: mu_{h+g}(x_h) / mu_h(x_h)."""
    total = 0.0
    d = family.dimension
    grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    for h in zip(*[grid.ravel() for grid in grids]):
        h = tuple(int(v) for v in h)
        s = x.symbol(h)
        shifted = tuple(a + b for a, b in zip(h, g))
        total += math.log(float(family.site(shifted).prob(s))) - math.log(
            float(family.site(h).prob(s))
        )
    return total


def whole_box_average(family, f_terms, x, n_max):
    """``box_ratio_average`` in one pass over the whole box: the radius, the
    values and the weights span the box, and one ``np.bincount`` per sum
    adds each radius bin's cells."""
    d = family.dimension
    atoms = [(float(c), {tuple(g): s for g, s in atom.items()}) for c, atom in f_terms]
    reach = max([max(map(abs, g)) for _, atom in atoms for g in atom] + [family.box_reach])
    block = x.box(n_max, margins=(reach,) * d)
    lows = (-n_max - reach,) * d
    span = np.abs(np.arange(-n_max, n_max + 1, dtype=np.int64))
    radius = reduce(np.maximum, np.ix_(*(span,) * d))

    def read(shift_vec):
        slices = tuple(
            slice(s - n_max - lo, s + n_max + 1 - lo) for s, lo in zip(shift_vec, lows)
        )
        return block[slices][tuple(slice(None, None, -1) for _ in range(d))]

    values = _add_patterns(np.zeros(radius.shape), atoms, read)
    if isinstance(family, lt.LatticeCompact):
        window = {g: m.floats for g, m in family.window.items()}
        add = bn._window_log_ratios(family.base.floats, window, x.symbol)
        weights = np.exp(add(np.zeros(radius.shape), read))
    else:
        weights = np.ones(radius.shape)
    num = np.bincount(radius.ravel(), (weights * values).ravel(), minlength=n_max + 1)
    den = np.bincount(radius.ravel(), weights.ravel(), minlength=n_max + 1)
    num_c, den_c = np.cumsum(num), np.cumsum(den)
    return tuple(float(num_c[n] / den_c[n]) for n in range(1, n_max + 1))


def constant_periodic(d):
    """A periodic family whose sites all share one measure: non-singular
    under every translation, so its box weights are all 1."""
    period = (2, 1, 3)[:d]
    return lt.LatticePeriodic(period, {r: TILTED for r in lt._box_residues(period)})


class TestConfiguration:
    def test_box_matches_symbols(self):
        for fam in (iid2(), compact2(), lt.alternating_rows()):
            x = fam.configuration(5)
            box = x.box(3)
            for i in range(-3, 4):
                for j in range(-3, 4):
                    assert box[i + 3, j + 3] == x.symbol((i, j))

    def test_translation_composes(self):
        x = iid2().configuration(9)
        moved = x.translated((2, -1)).translated((-5, 3))
        direct = x.translated((-3, 2))
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert moved.symbol((i, j)) == direct.symbol((i, j))

    def test_translation_reads_shifted_coordinates(self):
        x = compact2().configuration(4)
        y = x.translated((3, 2))
        assert y.symbol((3, 2)) == x.symbol((0, 0))

    def test_determinism_across_instances(self):
        a = compact2().configuration(8)
        b = compact2().configuration(8)
        assert np.array_equal(a.box(4), b.box(4))

    def test_margins(self):
        x = iid2().configuration(2)
        box = x.box(1, margins=(2, 0))
        assert box.shape == (7, 3)
        assert box[0, 0] == x.symbol((-3, -1))

    @pytest.mark.parametrize(
        "radius, margins, cells", [(10**9, None, (2 * 10**9 + 1) ** 2), (1, (2048, 2048), 4099**2)]
    )
    def test_box_over_cap_refused_before_its_axes(self, radius, margins, cells):
        # a radius of 10^9 once built two 16 GB coordinate axes first
        x = iid2().configuration(2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"box of {cells} cells exceeds the cap"):
                x.box(radius, margins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestKakutaniGenerator:
    def test_iid_zero(self):
        assert lt.kakutani_sum_generator(iid2(), 0, 32) == (0.0, CONVERGENT, 0.0)

    def test_single_perturbed_site_matches_one_dimensional_value(self):
        fam = lt.LatticeCompact(2, HALF, {(0, 0): TILTED})
        res = lt.kakutani_sum_generator(fam, 0, 32)
        assert res.verdict == CONVERGENT
        # two affected sites, same boundary terms as the 1-d single-site family
        assert res.value == pytest.approx(0.1362966948437268, abs=1e-12)

    def test_compact_value_against_direct_scan(self):
        fam = compact2()
        for axis in (0, 1):
            res = lt.kakutani_sum_generator(fam, axis, 16)
            e = tuple(1 if i == axis else 0 for i in range(2))
            brute = 0.0
            for i in range(-16, 17):
                for j in range(-16, 17):
                    a = fam.site((i, j))
                    b = fam.site((i - e[0], j - e[1]))
                    brute += sum(
                        (math.sqrt(p) - math.sqrt(q)) ** 2
                        for p, q in zip(a.probs, b.probs)
                    )
            assert res.value == pytest.approx(brute, abs=1e-12)

    def test_sites_beyond_the_box_go_to_the_tail(self):
        # the same window at 40 as a 1-d family: the two increments it makes
        # lie outside the box, so the value is 0 and both are the tail
        fam = lt.LatticeCompact(2, HALF, {(40, 0): TILTED})
        one_d = bn.kakutani_sum(bn.CompactFamily(HALF, {40: TILTED}), 16)
        res = lt.kakutani_sum_generator(fam, 0, 16)
        assert res == one_d == (0.0, CONVERGENT, one_d.tail_bound)
        assert res.tail_bound == pytest.approx(0.1362966948437268, abs=1e-12)
        # along the other axis the increments are at (40, 0) and (40, 1)
        assert lt.kakutani_sum_generator(fam, 1, 16) == res
        # a box that holds one of the two increments splits them
        inside = lt.kakutani_sum_generator(fam, 0, 40)
        assert inside.value + inside.tail_bound == res.tail_bound
        assert inside.value == inside.tail_bound == res.tail_bound / 2

    def test_alternating_rows_vertical_divergent(self):
        fam = lt.alternating_rows(axis=1)
        res = lt.kakutani_sum_generator(fam, 1, 16)
        assert res.verdict == DIVERGENT
        per_site = 2 * (math.sqrt(0.75) - math.sqrt(0.25)) ** 2
        assert res.value == pytest.approx(33 * 33 * per_site, rel=1e-12)

    def test_alternating_rows_horizontal_convergent(self):
        fam = lt.alternating_rows(axis=1)
        assert lt.kakutani_sum_generator(fam, 0, 16) == (0.0, CONVERGENT, 0.0)


class TestLatticeCocycle:
    def test_zero_vector(self):
        fam = compact2()
        val = lt.rn_derivative_g(fam, fam.configuration(1), (0, 0))
        assert val == (0.0, 0.0)

    def test_iid_all_zero(self):
        fam = iid2()
        x = fam.configuration(3)
        for g in [(1, 0), (-2, 5), (3, 3)]:
            assert lt.rn_derivative_g(fam, x, g).log_magnitude == 0.0

    @pytest.mark.parametrize("g", [(1, 0), (0, 1), (-2, 3), (4, -4), (0, 0)])
    def test_matches_oracle(self, g):
        fam = compact2()
        for seed in (1, 2):
            x = fam.configuration(seed)
            val = lt.rn_derivative_g(fam, x, g)
            assert val.error_bound == 0.0
            assert val.log_magnitude == pytest.approx(
                oracle_rn_log(fam, x, g, radius=8), abs=1e-12
            )

    def test_group_cocycle_identity_exact(self):
        fam = compact2()
        for seed in range(6):
            x = fam.configuration(seed)
            g, h = (2, -1), (-3, 2)
            total = lt.rn_derivative_g(fam, x, (g[0] + h[0], g[1] + h[1]))
            first = lt.rn_derivative_g(fam, x.translated(h), g)
            second = lt.rn_derivative_g(fam, x, h)
            assert total.log_magnitude == pytest.approx(
                first.log_magnitude + second.log_magnitude, abs=1e-12
            )

    def test_periodic_singular_direction_raises(self):
        fam = lt.alternating_rows(axis=1)
        with pytest.raises(NonSingularError):
            lt.rn_derivative_g(fam, fam.configuration(0), (0, 1))

    def test_periodic_preserved_direction_is_zero(self):
        fam = lt.alternating_rows(axis=1)
        assert lt.rn_derivative_g(fam, fam.configuration(0), (5, 0)) == (0.0, 0.0)
        assert lt.rn_derivative_g(fam, fam.configuration(0), (1, 2)) == (0.0, 0.0)


class TestBoxRatioAverage:
    def test_constant_function(self):
        fam = iid2()
        series = lt.box_ratio_average(fam, [(1.0, {})], fam.configuration(1), 8)
        assert all(v == 1.0 for v in series.values)

    def test_indicator_within_unit_interval(self):
        fam = compact2()
        series = lt.box_ratio_average(
            fam, [(1.0, {(0, 0): 1})], fam.configuration(2), 16
        )
        assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_iid_lln_two_dimensional(self):
        fam = iid2()
        series = lt.box_ratio_average(
            fam, [(1.0, {(0, 0): 1})], fam.configuration(7), 64
        )
        assert abs(series.final_value - 0.5) < 0.02

    @pytest.mark.parametrize(
        "shift, terms",
        [
            ((0, 0), [(1.0, {(0, 0): 1, (1, 0): 2})]),
            # a constant term next to a pattern, on a moved point
            ((2, -1), [(0.5, {}), (-2.0, {(0, 1): 2})]),
        ],
    )
    def test_small_boxes_match_brute_force(self, shift, terms):
        fam = compact2()
        x = fam.configuration(11).translated(shift)
        series = lt.box_ratio_average(fam, terms, x, 3)
        for n in (1, 2, 3):
            num = den = 0.0
            for i in range(-n, n + 1):
                for j in range(-n, n + 1):
                    g = (i, j)
                    w = math.exp(lt.rn_derivative_g(fam, x, g).log_magnitude)
                    moved = x.translated(g)
                    f_val = sum(
                        c * all(moved.symbol(p) == s for p, s in pattern.items())
                        for c, pattern in terms
                    )
                    num += w * f_val
                    den += w
            assert series.values[n - 1] == pytest.approx(num / den, rel=1e-12)

    def test_periodic_refusal_comes_before_the_box(self, monkeypatch):
        fam = lt.alternating_rows(axis=1)

        def no_box(self, radius, margins=None):
            raise AssertionError("drew the box of a singular family")

        monkeypatch.setattr(lt.LatticeConfiguration, "box", no_box)
        with pytest.raises(NonSingularError, match="some box translation"):
            lt.box_ratio_average(fam, [(1.0, {})], fam.configuration(0), 4)

    def test_constant_periodic_family_has_unit_weights(self):
        sites = {(0, 0): TILTED, (1, 0): TILTED}
        fam = lt.LatticePeriodic((2, 1), sites)
        x = fam.configuration(6)
        series = lt.box_ratio_average(fam, [(1.0, {(0, 0): 1})], x, 5)
        box = x.box(5)
        radius = np.maximum.outer(np.abs(np.arange(-5, 6)), np.abs(np.arange(-5, 6)))
        for n in range(1, 6):
            # unit weights: the plain share of 1s over the box [-n, n]^2
            assert series.values[n - 1] == np.mean(box[::-1, ::-1][radius <= n] == 1)

    def test_box_sizes_nested_counts(self):
        fam = iid2()
        series = lt.box_ratio_average(fam, [(1.0, {})], fam.configuration(3), 5)
        assert series.checkpoints == (1, 2, 3, 4, 5)

    def test_three_dimensional_supported(self):
        fam = lt.LatticeCompact(3, HALF, {})
        series = lt.box_ratio_average(
            fam, [(1.0, {(0, 0, 0): 1})], fam.configuration(5), 8
        )
        assert abs(series.final_value - 0.5) < 0.05


#: f = a two-site pattern, and f = a constant next to a one-site pattern
PATTERN = [(1.0, {(0, 0, 0): 1, (1, 0, 0): 2})]
CONSTANT_AND_PATTERN = [(0.5, {}), (-2.0, {(0, 1, 0): 2})]
CONSTANT_AND_PATTERN_2D = [(0.5, {}), (-2.0, {(0, 1): 2})]


class TestBoxSlabs:
    """The slab walk of ``box_ratio_average`` against ``whole_box_average``,
    compared with ``==``: the slabs must not move a bit of any sum."""

    @pytest.mark.parametrize("rows", [1, 4, None])
    @pytest.mark.parametrize("n_max", [1, 7])
    @pytest.mark.parametrize("terms", [PATTERN, CONSTANT_AND_PATTERN])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("shape", [compact_window, constant_periodic])
    def test_slabs_match_the_whole_box(self, monkeypatch, shape, d, terms, n_max, rows):
        # rows planes a slab: one-plane slabs, four-plane slabs (whose last
        # of 15 planes is short at n_max 7), or the default (one slab here)
        if rows is not None:
            monkeypatch.setattr(lt, "GRID_BLOCK", rows * (2 * n_max + 1) ** (d - 1))
        family = shape(d)
        x = family.configuration(17).translated(TRANSLATION[:d])
        terms = [(c, {g[:d]: s for g, s in atom.items()}) for c, atom in terms]
        series = lt.box_ratio_average(family, terms, x, n_max)
        assert series.values == whole_box_average(family, terms, x, n_max)

    @pytest.mark.parametrize("grid_block", [1, 3 * 97 + 5, None])
    def test_many_slabs_of_a_larger_box(self, monkeypatch, grid_block):
        # 97 planes: one a slab, three a slab with a one-plane last slab, and
        # the default's 337 planes a slab, which holds the whole box
        if grid_block is not None:
            monkeypatch.setattr(lt, "GRID_BLOCK", grid_block)
        family = compact2()
        x = family.configuration(5).translated((3, -4))
        series = lt.box_ratio_average(family, CONSTANT_AND_PATTERN_2D, x, 48)
        assert series.values == whole_box_average(family, CONSTANT_AND_PATTERN_2D, x, 48)

    def test_one_box_read(self, monkeypatch):
        calls = []
        box = lt.LatticeConfiguration.box

        def counted(self, radius, margins=None):
            calls.append((radius, margins))
            return box(self, radius, margins)

        monkeypatch.setattr(lt.LatticeConfiguration, "box", counted)
        monkeypatch.setattr(lt, "GRID_BLOCK", 1)
        family = compact_window(3)
        lt.box_ratio_average(family, PATTERN, family.configuration(1), 6)
        assert calls == [(6, (9, 9, 9))]


class TestBoxMemory:
    def test_box_average_holds_its_symbols_and_one_slab(self):
        # a 93^3 box (reach 0) holds 1.6 MB of int16 symbols; the box's
        # radius grid alone would be 6.4 MB, and each float temporary as much
        family = lt.LatticeCompact(3, HALF, {})
        x = family.configuration(4)
        assert _peak(lambda: lt.box_ratio_average(family, [(1.0, {(0, 0, 0): 1})], x, 46)) < 8 * 2**20
