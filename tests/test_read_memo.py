"""Scalar reads and batch gathers agree with the block kernel.

``LazyTail.symbol`` and ``LatticeConfiguration.symbol`` draw one key each,
through every view of the point (``shifted``, ``rewired``, ``translated``);
``seeding.combine`` keeps the (seed, first part) head of a key path, and
``PointRows`` reads rows of points at per-row coordinates through
``seeding.keyed_gather``.  Blocks and boxes go through
``seeding.keyed_symbols``, so they are the reference here: every read, in
any order and repeated, must equal them with ``==``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from test_symbol_kernel import compact, periodic

from ergolab import bernoulli as bn
from ergolab import seeding
from ergolab.shift_core import Cylinder

F = Fraction
HALF = bn.SiteMeasure.of(["1/2", "1/2"])

FAMILIES = {
    "compact": lambda: bn.CompactFamily(
        HALF, {0: bn.SiteMeasure.of(["3/4", "1/4"]), 3: bn.SiteMeasure.of(["1/5", "4/5"])}
    ),
    "three-symbol": lambda: bn.CompactFamily(
        bn.SiteMeasure.of(["1/6", "1/2", "1/3"]), {-1: bn.SiteMeasure.of(["1/3", "1/3", "1/3"])}
    ),
    "periodic": lambda: bn.PeriodicFamily(
        [bn.SiteMeasure.of(["1/3", "2/3"]), bn.SiteMeasure.of(["4/5", "1/5"]), HALF]
    ),
    "summable": lambda: bn.SummableFamily(F(1, 5), F(1, 2)),
}


def ref_combine(seed, *parts):
    h = seeding._finalize((int(seed) & seeding._MASK) ^ seeding._GOLDEN)
    for p in parts:
        h = seeding._finalize((h + seeding._GOLDEN + (int(p) & seeding._MASK)) & seeding._MASK)
    return h


def test_combine_with_a_kept_head_equals_the_full_mix():
    rng = random.Random(0)
    # more distinct heads than the cache keeps, each met twice, in mixed order
    seeds = [rng.randrange(-(2**70), 2**70) for _ in range(600)] + [0, 1, 2**64, -1]
    paths = [
        (seed, *(rng.randrange(-(2**65), 2**65) for _ in range(rng.randrange(0, 5))))
        for seed in seeds
    ]
    paths += [(seed, seeding.TAG_SYMBOL, k) for seed in seeds[:50] for k in (-3, 0, 7)]
    paths *= 2
    rng.shuffle(paths)
    for path in paths:
        assert seeding.combine(*path) == ref_combine(*path), path
    assert seeding.combine(np.uint64(7), np.int64(-2), 5) == ref_combine(7, -2, 5)
    assert seeding.uniform01(9, 1, 4) == (ref_combine(9, 1, 4) >> 11) * 2.0**-53


def views_1d(x):
    """Views of x that share its tail: shifts and rewires, composed."""
    return [
        x,
        x.shifted(5),
        x.shifted(-3).rewired(Cylinder.of([2, 1, 2], left=-1)),
        x.rewired(Cylinder.of([1, 1], left=3)).shifted(7),
    ]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_scalar_reads_equal_blocks_through_shifted_and_rewired_views(name):
    x = FAMILIES[name]().configuration(seeding.spawn(3, 1))
    views = views_1d(x)
    blocks = [v.block(-40, 40) for v in views]
    rng = random.Random(name)
    for _ in range(3000):
        j = rng.randrange(len(views))
        i = rng.randrange(-40, 41)
        assert views[j].symbol(i) == blocks[j][i + 40], (j, i)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_gathered_rows_equal_blocks_at_per_row_offsets(name):
    family = FAMILIES[name]()
    seeds = seeding.spawn_vec(3, np.arange(7))
    offsets = np.array([0, 5, -3, 2**20, -(2**20), 7, 0])
    rows = family.rows(seeds).moved(offsets)
    blocks = np.array([family.configuration(int(s)).shifted(int(o)).block(-40, 40)
                       for s, o in zip(seeds, offsets)])
    assert np.array_equal(rows.block(-40, 40), blocks)
    rng = np.random.default_rng(1)
    at = rng.integers(-40, 41, len(seeds))
    assert np.array_equal(rows.symbol(at), blocks[np.arange(len(seeds)), at + 40])
    assert np.array_equal(rows.symbol(-7), blocks[:, 33])
    picked = rows.take(np.array([4, 1]))
    assert np.array_equal(picked.block(-40, 40), blocks[[4, 1]])


def views_zd(x, d):
    return [
        x,
        x.translated((5, -7, 2)[:d]),
        x.translated((5, -7, 2)[:d]).translated((-1, 4, 3)[:d]),
        x.translated((0, 1, -1)[:d]),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", [compact, periodic])
def test_scalar_reads_equal_boxes_through_translated_views(shape, d):
    x = shape(d).configuration(29)
    views = views_zd(x, d)
    boxes = [v.box(3) for v in views]
    rng = random.Random(d)
    for _ in range(3000):
        j = rng.randrange(len(views))
        g = tuple(rng.randrange(-3, 4) for _ in range(d))
        assert views[j].symbol(g) == boxes[j][tuple(v + 3 for v in g)], (j, g)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", [compact, periodic])
def test_gathered_lattice_rows_equal_boxes_through_translations(shape, d):
    family = shape(d)
    seeds = seeding.spawn_vec(8, np.arange(5))
    moves = np.array([(5, -7, 2), (0, 0, 0), (-1, 4, 3), (9, 9, -9), (2, 0, 1)])[:, :d]
    rows = family.rows(seeds).moved(-moves)
    boxes = [family.configuration(int(s)).translated(tuple(g)).box(3) for s, g in zip(seeds, moves.tolist())]
    rng = np.random.default_rng(d)
    for _ in range(20):
        at = rng.integers(-3, 4, (len(seeds), d))
        want = [box[tuple(v + 3 for v in g)] for box, g in zip(boxes, at.tolist())]
        assert rows.symbol(at).tolist() == want


def test_a_long_scalar_scan_matches_the_block():
    x = FAMILIES["compact"]().configuration(11)
    lo, hi = -(2**15), 2**15 - 1
    want = x.block(lo, hi).tolist()
    assert [x.symbol(i) for i in range(lo, hi + 1)] == want
    # read again backwards through a shift
    y = x.shifted(1)
    assert [y.symbol(i - 1) for i in range(hi, lo - 1, -1)] == want[::-1]


@pytest.mark.parametrize("d, radius", [(2, 128), (3, 20)])
def test_a_long_lattice_scan_matches_the_box(d, radius):
    x = compact(d).configuration(17)
    box = x.box(radius)
    assert box.size >= 2**16
    for idx in np.ndindex(box.shape):
        assert x.symbol(tuple(i - radius for i in idx)) == box[idx]
    y = x.translated((1,) * d)
    for idx in np.ndindex(box.shape):
        g = tuple(i - radius for i in idx)
        assert y.symbol(tuple(v + 1 for v in g)) == box[idx]
