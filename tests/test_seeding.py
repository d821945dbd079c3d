import numpy as np
import pytest

from ergolab import seeding


def test_scalar_vector_agree():
    keys = np.arange(-500, 500, dtype=np.int64)
    vec = seeding.uniform01_vec(99, (7,), seeding.zigzag_vec(keys))
    for i, k in enumerate(keys):
        assert vec[i] == seeding.uniform01(99, 7, seeding.zigzag(int(k)))


def test_grid_matches_scalar():
    seeds = np.array([1, 2, 12345], dtype=np.int64)
    keys = np.array([0, 5, 11], dtype=np.uint64)
    grid = seeding.uniform01_grid(seeds, (3, 4), keys)
    for i, s in enumerate(seeds):
        for j, k in enumerate(keys):
            assert grid[i, j] == seeding.uniform01(int(s), 3, 4, int(k))


BLOCK_ROWS_3 = seeding.GRID_BLOCK // 3  # rows of a 3-key grid in one block


def _assert_cells_match(grid, seeds, parts, keys, rows, cols):
    for i in rows:
        for j in cols:
            assert grid[i, j] == seeding.uniform01(int(seeds[i]), *parts, int(keys[j]))


@pytest.mark.parametrize("n_rows", [BLOCK_ROWS_3 - 1, BLOCK_ROWS_3, BLOCK_ROWS_3 + 1])
def test_grid_matches_scalar_across_row_blocks(n_rows):
    seeds = seeding.spawn_vec(5, np.arange(n_rows, dtype=np.int64))
    keys = seeding.zigzag_vec(np.array([-4, 0, 9]))
    grid = seeding.uniform01_grid(seeds, (seeding.TAG_POISSON,), keys)
    assert grid.shape == (n_rows, 3) and grid.dtype == np.float64
    # both sides of every block boundary, plus rows from the middle
    edges = {0, 1, BLOCK_ROWS_3 - 2, BLOCK_ROWS_3 - 1, BLOCK_ROWS_3, n_rows - 1}
    rows = sorted(r for r in edges | set(range(0, n_rows, 997)) if r < n_rows)
    _assert_cells_match(grid, seeds, (seeding.TAG_POISSON,), keys, rows, range(3))


def test_grid_matches_scalar_on_a_row_wider_than_a_block():
    width = seeding.GRID_BLOCK + 5
    seeds = np.array([3, 2**40 + 1], dtype=np.uint64)
    keys = np.arange(width, dtype=np.uint64) * np.uint64(7)
    grid = seeding.uniform01_grid(seeds, (1,), keys)
    cols = [0, 1, seeding.GRID_BLOCK - 1, seeding.GRID_BLOCK, width - 1, *range(0, width, 1009)]
    _assert_cells_match(grid, seeds, (1,), keys, range(2), cols)


@pytest.mark.parametrize("parts", [(), (11, 2**63 + 5)], ids=["no_parts", "two_parts"])
def test_grid_matches_scalar_for_parts(parts):
    seeds = np.array([0, 1, 77], dtype=np.int64)
    keys = np.array([0, 3, 2**62], dtype=np.uint64)
    grid = seeding.uniform01_grid(seeds, parts, keys)
    _assert_cells_match(grid, seeds, parts, keys, range(3), range(3))


def test_grid_with_no_seeds_or_no_keys():
    none = np.array([], dtype=np.uint64)
    some = np.array([1, 2], dtype=np.uint64)
    for seeds, keys in [(none, some), (some, none), (none, none)]:
        grid = seeding.uniform01_grid(seeds, (4,), keys)
        assert grid.shape == (len(seeds), len(keys)) and grid.dtype == np.float64


def test_vec_and_nd_match_scalar_past_one_block():
    n = 2 * seeding.GRID_BLOCK + 7
    keys = np.arange(n, dtype=np.uint64) * np.uint64(3)
    vec = seeding.uniform01_vec(21, (8,), keys)
    nd = seeding.uniform01_nd(21, (8,), [keys.reshape(1, n), keys[::-1].reshape(1, n)])
    # three rows of n keys: the grid is mixed past its first block
    seeds = np.array([4, 2**64 - 1, 9], dtype=np.uint64)
    grid = seeding.uniform01_grid(seeds, (8,), keys)
    assert vec.shape == (n,) and nd.shape == (1, n) and grid.shape == (3, n)
    for j in [0, seeding.GRID_BLOCK - 1, seeding.GRID_BLOCK, n - 1, *range(0, n, 811)]:
        k, k_rev = int(keys[j]), int(keys[n - 1 - j])
        assert vec[j] == seeding.uniform01(21, 8, k)
        assert nd[0, j] == seeding.uniform01(21, 8, k, k_rev)
        for r, seed in enumerate(seeds):
            assert grid[r, j] == seeding.uniform01(int(seed), 8, k)


def test_nd_matches_scalar():
    a = np.array([[0, 1], [2, 3]], dtype=np.uint64)
    b = np.array([[5, 6], [7, 8]], dtype=np.uint64)
    grid = seeding.uniform01_nd(7, (2,), [a, b])
    for i in range(2):
        for j in range(2):
            assert grid[i, j] == seeding.uniform01(7, 2, int(a[i, j]), int(b[i, j]))


def test_spawn_vec_matches_scalar():
    idx = np.arange(100, dtype=np.int64)
    vec = seeding.spawn_vec(31337, idx)
    for i in idx:
        assert int(vec[i]) == seeding.spawn(31337, int(i))


def test_zigzag_injective_and_nonnegative():
    values = list(range(-1000, 1000))
    images = [seeding.zigzag(v) for v in values]
    assert len(set(images)) == len(values)
    assert min(images) >= 0
    z = seeding.zigzag_vec(np.array(values, dtype=np.int64))
    assert [int(v) for v in z] == images


def test_uniform_range_and_mean():
    u = seeding.uniform01_vec(5, (1,), np.arange(100_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean of 1e5 uniforms: sd ~ 0.00091, allow 5 sigma
    assert abs(u.mean() - 0.5) < 0.005
    counts, _ = np.histogram(u, bins=16, range=(0, 1))
    assert counts.min() > 5500 and counts.max() < 7000


def test_distinct_keys_distinct_values():
    u = seeding.uniform01_vec(5, (1,), np.arange(10_000, dtype=np.uint64))
    assert len(np.unique(u)) == len(u)


def test_determinism():
    assert seeding.uniform01(42, 1, 2, 3) == seeding.uniform01(42, 1, 2, 3)
    assert seeding.uniform01(42, 1, 2, 3) != seeding.uniform01(43, 1, 2, 3)
    assert seeding.uniform01(42, 1, 2, 3) != seeding.uniform01(42, 1, 3, 2)


def _ref_counts(states, keys, levels):
    """#{l : levels[l, j] <= key >> 11} from whole-array folds."""
    top = seeding.fold(states[:, None], keys) >> np.uint64(11)
    return (levels[:, None, :] <= top[None]).sum(axis=0)


@pytest.mark.parametrize(
    "n_states, n_keys",
    [(0, 5), (3, 0), (0, 0), (2, seeding.GRID_BLOCK + 5), (seeding.GRID_BLOCK // 7 + 1, 7)],
    ids=["no-states", "no-keys", "neither", "row-wider-than-a-block", "rows-past-a-block"],
)
@pytest.mark.parametrize("shared", [True, False], ids=["one-column", "per-key"])
def test_keyed_counts_add_the_thresholds_each_key_reaches(n_states, n_keys, shared):
    states = seeding.combine_seeds(np.arange(n_states), (9,))
    keys = seeding.zigzag_vec(np.arange(n_keys) - n_keys // 2)
    rng = np.random.default_rng(4)
    levels = np.sort(rng.integers(0, 2**53, (5, 1 if shared else n_keys), dtype=np.uint64), axis=0)
    out = np.full((n_states, n_keys), 3, dtype=np.int16)
    seeding._keyed_counts(states, keys, levels, out)
    assert np.array_equal(out, 3 + _ref_counts(states, keys, levels))


@pytest.mark.parametrize("n_states, n_keys", [(0, 3), (4, 0), (5, 3), (seeding.GRID_BLOCK // 3 + 2, 3)])
def test_keyed_counts_with_one_key_and_one_column_per_cell(n_states, n_keys):
    states = seeding.combine_seeds(np.arange(n_states), (9,))
    rng = np.random.default_rng(5)
    keys = seeding.zigzag_vec(rng.integers(-50, 50, (n_states, n_keys)))
    levels = np.sort(rng.integers(0, 2**53, (3, n_states, n_keys), dtype=np.uint64), axis=0)
    out = np.zeros((n_states, n_keys), dtype=np.int16)
    seeding._keyed_counts(states, keys, levels, out)
    top = seeding.fold(states[:, None], keys) >> np.uint64(11)
    assert np.array_equal(out, (levels <= top[None]).sum(axis=0))


def test_keyed_counts_wrap_around_two_to_the_64():
    # states and keys near 2^64 - 1: the golden step added to the states and
    # the key added next both wrap, as the two adds of ``fold`` do
    top = np.uint64(2**64 - 1)
    states = top - np.arange(4, dtype=np.uint64)
    keys = top - np.arange(0, 2**40, 2**37, dtype=np.uint64)
    levels = np.arange(2**50, 2**53, 2**50, dtype=np.uint64)[:, None]
    out = np.zeros((len(states), len(keys)), dtype=np.int16)
    seeding._keyed_counts(states, keys, levels, out)
    drawn = seeding.fold(states[:, None], keys) >> np.uint64(11)
    assert np.array_equal(out, (levels[:, None, :] <= drawn[None]).sum(axis=0))


def test_keyed_symbols_with_no_cells_or_no_rows():
    levels_at = lambda a, b: np.zeros((1, 1), dtype=np.uint64)  # noqa: E731
    states = seeding.combine_seeds(np.arange(3), (9,))
    assert seeding.keyed_symbols(states, 5, 0, levels_at).shape == (3, 0)
    assert seeding.keyed_symbols(states[:0], 5, 4, levels_at).shape == (0, 4)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -12345, 2**70 + 3])
def test_fair_coins_match_the_uniform_draw(seed):
    # u < 1/2 iff the key's top bit is 0; the runner's mixing-gap fuzz draws
    # each point of a region this way, under (seed, 4, tag, constraint)
    flips = 0
    for tag in range(40):
        for parts in ((4, tag, tag % 3), (4, 2**64 + tag), (-tag, 7)):
            coins = seeding._fair_coins(seed, parts, 64)
            assert coins == [seeding.uniform01(seed, *parts, p) < 0.5 for p in range(64)]
            flips += sum(coins)
    # both sides are drawn, near half of the time each
    assert 0.45 < flips / (40 * 3 * 64) < 0.55
    assert seeding._fair_coins(seed, (4, 0, 0), 0) == []
