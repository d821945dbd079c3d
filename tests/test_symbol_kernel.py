"""The cache-blocked symbol kernel against the scalar draws and the old
float-CDF draw.

``LazyTail.block``/``grid`` and ``LatticeConfiguration.box`` take
coordinates to symbols through ``seeding.keyed_symbols`` and integer
thresholds; ``LazyTail.symbol`` and ``LatticeConfiguration.symbol`` count the
same thresholds for one key.  Since both read one thresholds table, the
scalar draw alone is no independent check, so every block, grid, edge and
int64-extreme comparison also runs against ``ref_symbol`` /
``ref_lattice_symbol`` of ``test_cocycle_kernel``: a keyed uniform and
``searchsorted`` on a float CDF built from the exact probabilities.  Every
comparison is ``==``: the draws must agree bit for bit, on both sides of
every block edge.
"""

import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from test_cocycle_kernel import ref_lattice_symbol, ref_symbol

from ergolab import lattice as lt
from ergolab import seeding
from ergolab.bernoulli import SiteMeasure
from ergolab.seeding import GRID_BLOCK, TAG_SYMBOL, spawn_vec, thresholds, uniform01, zigzag
from ergolab.shift_core import LazyTail, periodic_levels, rule_levels, window_levels

F = Fraction
B = GRID_BLOCK


def levels(probs):
    return thresholds(LazyTail.cdf(probs))


WINDOW_BASE = [F(2, 5), F(3, 5)]
PERIODIC_ROWS = [[F(1, 3), F(2, 3)], [F(4, 5), F(1, 5)], [F(1, 2), F(1, 2)]]
THREE = [F(1, 6), F(1, 2), F(1, 3)]
FOUR = [F(1, 10), F(2, 10), F(3, 10), F(4, 10)]


def window_sites(lo):
    """Sites on both sides of the block edges of a read from ``lo``."""
    return {lo: [F(1, 9), F(8, 9)], lo + B - 1: [F(5, 6), F(1, 6)], lo + B: [F(1, 2), F(1, 2)]}


def window_tail(seed, lo=0):
    sites = {k: levels(p) for k, p in window_sites(lo).items()}
    return LazyTail(seed, window_levels(levels(WINDOW_BASE), sites))


def periodic_tail(seed):
    # period 3 does not divide GRID_BLOCK, so blocks start at every residue
    return LazyTail(seed, periodic_levels([levels(p) for p in PERIODIC_ROWS]))


def rule_probs(k):
    return [F(1, 2 + k % 5), 1 - F(1, 2 + k % 5)]


def rule_tail(seed):
    return LazyTail(seed, rule_levels(lambda k: LazyTail.cdf(rule_probs(k))))


#: kind -> (tail at a seed, exact probabilities at a coordinate)
TAILS = {
    "window": (window_tail, lambda k: window_sites(0).get(k, WINDOW_BASE)),
    "periodic": (periodic_tail, lambda k: PERIODIC_ROWS[k % 3]),
    "rule": (rule_tail, rule_probs),
    "three-symbol": (lambda seed: LazyTail.constant(seed, THREE), lambda k: THREE),
    "four-symbol": (lambda seed: LazyTail.constant(seed, FOUR), lambda k: FOUR),
}
each_tail = pytest.mark.parametrize("kind", list(TAILS))
each_oracle = pytest.mark.parametrize("oracle", ["symbol", "searchsorted"])


def scalar_draw(oracle, kind, seed):
    """The scalar draw of a ``kind`` tail at ``seed``, as a function of the
    coordinate: the tail's own ``symbol`` or the float-CDF reference."""
    make, probs_at = TAILS[kind]
    if oracle == "symbol":
        return make(seed).symbol
    return partial(ref_symbol, seed, probs_at)


def edge_offsets(cells):
    """Offsets into a read of ``cells``: both sides of every block edge, the
    ends, and a stride through the middle."""
    edges = {0, 1, cells - 2, cells - 1}
    for e in range(B, cells + 1, B):
        edges |= {e - 1, e}
    return sorted(j for j in edges | set(range(0, cells, 1013)) if 0 <= j < cells)


@each_oracle
@each_tail
@pytest.mark.parametrize("cells", [B - 1, B, B + 1])
def test_block_matches_symbols_across_block_edges(kind, cells, oracle):
    tail, draw = TAILS[kind][0](11), scalar_draw(oracle, kind, 11)
    # from 0 (the window sites 0, B - 1 and B), straddling 0, all negative
    for lo in (0, -cells // 2, -cells - 7):
        block = tail.block(lo, lo + cells - 1)
        assert block.shape == (cells,) and block.dtype == np.int16
        for j in edge_offsets(cells):
            assert block[j] == draw(lo + j), (lo, j)


@each_oracle
@pytest.mark.parametrize("lo", [-(2**63), 2**62 - 5, 2**63 - 10], ids=["min", "2^62", "max"])
def test_block_matches_symbols_near_the_int64_extremes(lo, oracle):
    draw = scalar_draw(oracle, "periodic", 13)
    assert periodic_tail(13).block(lo, lo + 9).tolist() == [draw(k) for k in range(lo, lo + 10)]


@each_oracle
@each_tail
@pytest.mark.parametrize("cells", [B - 1, B, B + 1])
def test_grid_rows_match_symbols_across_block_edges(kind, cells, oracle):
    seeds = spawn_vec(3, np.arange(3))
    lo = -cells // 2
    grid = TAILS[kind][0](0).grid(seeds, lo, lo + cells - 1)
    assert grid.shape == (3, cells) and grid.dtype == np.int16
    for r, seed in enumerate(seeds):
        draw = scalar_draw(oracle, kind, int(seed))
        for j in edge_offsets(cells):
            assert grid[r, j] == draw(lo + j), (r, j)


@each_oracle
def test_grid_row_blocks_of_narrow_reads(oracle):
    # 40 cells a row: 819 rows a block, so rows 818 and 819 sit on an edge
    seeds = spawn_vec(8, np.arange(B // 40 + 2))
    grid = periodic_tail(0).grid(seeds, -21, 18)
    for r in [0, B // 40 - 1, B // 40, B // 40 + 1]:
        draw = scalar_draw(oracle, "periodic", int(seeds[r]))
        assert grid[r].tolist() == [draw(k) for k in range(-21, 19)]


@each_oracle
def test_window_sites_on_block_edges(oracle):
    lo = -B // 3
    tail = window_tail(5, lo)
    sites = window_sites(lo)
    draw = tail.symbol if oracle == "symbol" else partial(
        ref_symbol, 5, lambda k: sites.get(k, WINDOW_BASE)
    )
    block = tail.block(lo, lo + B + 2)
    # the three window sites and their neighbours off the window
    for k in (lo - 1, lo, lo + 1, lo + B - 2, lo + B - 1, lo + B, lo + B + 1):
        if k >= lo:
            assert block[k - lo] == draw(k), k
        assert tail.block(k, k)[0] == draw(k), k
    # a read that holds only some of the sites
    assert tail.block(lo + B - 2, lo + B - 1).tolist() == [draw(lo + B - 2), draw(lo + B - 1)]


def cdf_tail(seed, cdf):
    """A tail drawing every coordinate against the float CDF ``cdf``."""
    return LazyTail(seed, window_levels(thresholds(np.array(cdf)), {}))


def test_cdf_entry_equal_to_a_drawn_uniform():
    seed, k = 17, -3
    u = uniform01(seed, TAG_SYMBOL, zigzag(k))
    for cdf in ([u, 1.0], [u / 2, u, 1.0]):
        tail = cdf_tail(seed, cdf)
        # searchsorted(side="right") counts the entry equal to u
        assert tail.symbol(k) == len(cdf)
        assert tail.block(k - 2, k + 2)[2] == len(cdf)
        # one ulp above u, the entry no longer counts
        nudged = cdf_tail(seed, [*cdf[:-2], np.nextafter(u, 1.0), 1.0])
        assert nudged.block(k, k)[0] == nudged.symbol(k) == len(cdf) - 1


def test_interior_cdf_entry_that_rounds_to_one():
    cdf = np.array([0.5, float(1 - F(1, 10**20)), 1.0])
    assert cdf[1] == 1.0
    tail = cdf_tail(23, cdf)
    block = tail.block(-500, 500)
    assert block.tolist() == [tail.symbol(k) for k in range(-500, 501)]
    assert set(block.tolist()) == {1, 2}


def test_thresholds_equal_searchsorted():
    cdf = LazyTail.cdf([F(1, 7), F(2, 7), F(4, 7)])
    levels = seeding.thresholds(cdf)
    assert levels.tolist() == [int(np.ceil(c * 2.0**53)) for c in cdf[:-1]]
    z = seeding.combine_vec(4, (1,), np.arange(50_000, dtype=np.uint64))
    m = z >> np.uint64(11)
    counted = 1 + (m[:, None] >= levels).sum(axis=1)
    assert np.array_equal(counted, np.searchsorted(cdf, m * 2.0**-53, side="right") + 1)


def test_zigzag_vec_at_int64_extremes():
    values = [-(2**63), -(2**63) + 1, -(2**62), -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]
    z = seeding.zigzag_vec(np.array(values, dtype=np.int64))
    assert z.dtype == np.uint64
    assert [int(v) for v in z] == [seeding.zigzag(v) for v in values]
    assert int(z[0]) == 2**64 - 1 and int(z[-1]) == 2**64 - 2


# --- Z^d boxes ----------------------------------------------------------------

HALF = SiteMeasure.of(["1/2", "1/2"])
TILTED = SiteMeasure.of(["3/4", "1/4"])
THIRDS = SiteMeasure.of(["1/3", "1/3", "1/3"])
TRANSLATION = (5, -7, 2)


def compact(d):
    # translated by TRANSLATION, the box below holds the first two sites, one
    # at its centre and one on a corner, but not the third
    window = {
        (-5, 7, -2)[:d]: TILTED,
        (-9, 4, 3)[:d]: SiteMeasure.of(["1/5", "4/5"]),
        (0,) * d: SiteMeasure.of(["2/7", "5/7"]),
    }
    return lt.LatticeCompact(d, HALF, window)


def periodic(d):
    period = (2, 3, 1)[:d] if d > 1 else (3,)
    measures = [HALF, TILTED, SiteMeasure.of(["2/7", "5/7"])]
    sites = {r: measures[sum(r) % 3] for r in lt._box_residues(period)}
    return lt.LatticePeriodic(period, sites)


def lattice_draw(oracle, x):
    return x.symbol if oracle == "symbol" else partial(ref_lattice_symbol, x)


@each_oracle
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", [compact, periodic])
def test_box_matches_symbols_on_a_translated_configuration(shape, d, oracle):
    x = shape(d).configuration(29).translated(TRANSLATION[:d])
    draw = lattice_draw(oracle, x)
    margins = (1, 0, 2)[:d]
    box = x.box(3, margins=margins)
    assert box.shape == tuple(7 + 2 * m for m in margins) and box.dtype == np.int16
    for idx in np.ndindex(box.shape):
        g = tuple(i - 3 - m for i, m in zip(idx, margins))
        assert box[idx] == draw(g), g


@each_oracle
def test_box_with_three_symbols_and_a_row_wider_than_a_block(oracle):
    family = lt.LatticeCompact(2, THIRDS, {(0, 0): SiteMeasure.of(["1/2", "1/4", "1/4"])})
    x = family.configuration(3)
    draw = lattice_draw(oracle, x)
    box = x.box(0, margins=(1, B // 2 + 1))
    assert box.shape == (3, B + 3)
    for i in range(3):
        for j in edge_offsets(B + 3):
            assert box[i, j] == draw((i - 1, j - B // 2 - 1))


# --- memory -------------------------------------------------------------------


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_block_memory_stays_block_sized():
    # 10^6 int16 symbols are 2 MB; a float or uint64 array of 10^6 cells
    # (8 MB) must never be held
    tail = LazyTail.constant(1, [F(2, 5), F(3, 5)])
    assert _peak(lambda: tail.block(-10**6 // 2, 10**6 // 2 - 1)) < 8 * 2**20


def test_box_memory_stays_block_sized():
    # a 93^3 box is 1.6 MB of int16 symbols; its uint64 keys would be 6.4 MB
    x = compact(3).configuration(2)
    assert _peak(lambda: x.box(46)) < 16 * 2**20
