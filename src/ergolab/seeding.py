"""Keyed deterministic randomness.

Every random quantity in this package is a pure function of a master seed
and an integer key path (run index, coordinate, draw index, ...).  That is
the property the lazy-tail configurations and the reproducibility contract
need: re-reading a coordinate, shifting a configuration, or re-running an
experiment never re-randomizes anything.

The mixer is the splitmix64 finalizer applied over the key path.  It is
implemented twice, once on Python ints and once in place on numpy uint64
arrays, and the two are bit-identical (tested).  The vectorized form is what
makes 10^5-coordinate windows and 10^4-seed Monte Carlo batches cheap.  One
function, ``fold``, extends arrays of key paths by arrays of keys, with
numpy broadcasting; every vectorized draw goes through it.  The design is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011): a draw is a pure function of (seed, key), so any blocking gives
the same bits.

Symbols and Poisson counts are counts of integer inverse-CDF ``thresholds``,
and one private loop, ``_keyed_counts``, forms, mixes and counts their keys
one cache-sized block at a time without forming the uniforms; the result
equals ``searchsorted`` on the uniforms bit for bit.  Its callers pass plain
keys; it adds the mixer's golden step to the states, once per call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB

# Key-path tags keep draws for different purposes disjoint.
TAG_SYMBOL = 0x53594D42  # symbol draws for shift-space tails
TAG_POISSON = 0x504F4953  # per-point Poisson counts
TAG_SPAWN = 0x5350574E  # derived per-run seeds
TAG_LATTICE = 0x4C415454  # lattice symbol draws

#: cells per block of a keyed grid or a mix: a few 8-byte buffers of this
#: many cells (256 KiB each) stay in a core's L2 cache
GRID_BLOCK = 1 << 15


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT_A) & _MASK
    z = ((z ^ (z >> 27)) * _MULT_B) & _MASK
    return z ^ (z >> 31)


def zigzag(n: int) -> int:
    """Map a signed integer to a nonnegative one, injectively."""
    n = int(n)
    return 2 * n if n >= 0 else -2 * n - 1


@lru_cache(maxsize=256)
def _head(seed: int, first: int) -> int:
    """``combine(seed, first)``.  The scalar reads of a point share their
    (seed, tag) head, so a few cached heads serve every such read."""
    h = _finalize((seed & _MASK) ^ _GOLDEN)
    return _finalize((h + _GOLDEN + (first & _MASK)) & _MASK)


def combine(seed: int, *parts: int) -> int:
    """Mix a seed with a key path of integers into a uint64."""
    if not parts:
        return _finalize((int(seed) & _MASK) ^ _GOLDEN)
    h = _head(int(seed), int(parts[0]))
    for p in parts[1:]:
        h = _finalize((h + _GOLDEN + (int(p) & _MASK)) & _MASK)
    return h


def uniform01(seed: int, *parts: int) -> float:
    """Deterministic uniform in [0, 1) keyed by (seed, parts)."""
    return (combine(seed, *parts) >> 11) * 2.0**-53


def spawn(seed: int, index: int) -> int:
    """Derive an independent child seed (used for per-run seeds)."""
    return combine(seed, TAG_SPAWN, index)


def _mix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer of a C-contiguous uint64 array, in place.

    ``z`` is mixed ``GRID_BLOCK`` cells at a time, so each block stays in
    cache through all seven steps.  The shifts of a block are written into
    ``scratch``, a flat uint64 buffer of at least min(z.size, GRID_BLOCK)
    cells (allocated when not given).
    """
    flat = z.reshape(-1)
    if scratch is None:
        scratch = np.empty(min(flat.size, GRID_BLOCK), dtype=np.uint64)
    for lo in range(0, flat.size, GRID_BLOCK):
        zb = flat[lo : lo + GRID_BLOCK]
        sb = scratch[: zb.size]
        for shift, mult in ((30, _MULT_A), (27, _MULT_B)):
            np.right_shift(zb, np.uint64(shift), out=sb)
            zb ^= sb
            zb *= np.uint64(mult)
        np.right_shift(zb, np.uint64(31), out=sb)
        zb ^= sb
    return z


def _to_unit(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of a mixed uint64 array as floats in [0, 1); shifts ``z``."""
    z >>= np.uint64(11)
    return z * 2.0**-53


def fold(states, keys) -> np.ndarray:
    """``combine(..., k)`` for the key path of state s extended by one more
    key k, over the pairs (s, k) that numpy broadcasting forms from
    ``states`` and ``keys``; ``states[:, None]`` forms every pair, row-major.

    ``states`` holds uint64 ``combine`` values; ``keys`` must already be
    nonnegative (zigzag-encoded when signed).
    """
    # array additions wrap mod 2^64 as the scalar mixer's masks do; int64
    # keys cast to uint64 inside the one add, which holds no temporary, and
    # the sum is C-ordered so that ``_mix`` mixes it in place
    z = np.add(states, keys, dtype=np.uint64, casting="unsafe", order="C")
    z += np.uint64(_GOLDEN)
    return _mix(z)


def combine_vec(seed: int, parts: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    """Vectorized `combine(seed, *parts, k)` for an array of final keys ``k``.

    ``keys`` must already be nonnegative (zigzag-encoded when signed).
    """
    return fold(np.uint64(combine(seed, *parts)), keys)


def uniform01_vec(seed: int, parts: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    return _to_unit(combine_vec(seed, parts, keys))


def zigzag_vec(n: np.ndarray) -> np.ndarray:
    """Vectorized ``zigzag``, by shift-xor: (n << 1) ^ (n >> 63)."""
    n = np.asarray(n, dtype=np.int64)
    z = np.left_shift(n, 1)
    z ^= n >> 63
    return z.view(np.uint64)


def combine_seeds(seeds: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    """Vectorized ``combine(seed, *parts)`` over an array of seeds, as uint64."""
    h = seeds.astype(np.uint64, order="C")
    h ^= np.uint64(_GOLDEN)
    _mix(h)
    for p in parts:
        h = fold(h, p & _MASK)
    return h


def uniform01_grid(
    seeds: np.ndarray, parts: tuple[int, ...], keys: np.ndarray
) -> np.ndarray:
    """(len(seeds), len(keys)) grid; entry [i, j] == uniform01(seeds[i], *parts, keys[j]).

    ``keys`` must already be nonnegative (zigzag-encoded when signed).  The
    whole grid is formed at once, so callers keep it to about
    ``GRID_BLOCK`` cells.
    """
    return _to_unit(fold(combine_seeds(seeds, parts)[:, None], keys))


def spawn_vec(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``spawn``: child seeds for an array of run indices."""
    return combine_vec(seed, (TAG_SPAWN,), indices)


def uniform01_nd(seed: int, parts: tuple[int, ...], key_arrays) -> np.ndarray:
    """Uniforms over key arrays folded in sequence, broadcast together.

    Entry [idx] equals uniform01(seed, *parts, k1[idx], k2[idx], ...); keys
    must already be nonnegative.
    """
    h = np.uint64(combine(seed, *parts))
    for keys in key_arrays:
        h = fold(h, keys)
    return _to_unit(h)


def thresholds(cdf: np.ndarray) -> np.ndarray:
    """Integer inverse-CDF thresholds ceil(c * 2^53), as uint64, of every
    entry but the last along the last axis.

    A key z draws symbol 1 + #{thresholds t : (z >> 11) >= t}, which is
    ``searchsorted(cdf, (z >> 11) * 2^-53, side="right") + 1`` bit for bit:
    the uniform is exact and c * 2^53 is exact, so c <= u exactly when
    ceil(c * 2^53) <= z >> 11.  The last entry of a CDF is 1.0, and like any
    entry that rounds to 1.0 it maps to 2^53, which no key reaches.
    """
    return np.ceil(np.asarray(cdf)[..., :-1] * 2.0**53).astype(np.uint64)


def _keyed_counts(
    states: np.ndarray, keys: np.ndarray, levels: np.ndarray, out: np.ndarray
) -> None:
    """Add to ``out[r, j]`` the number of rows l of ``levels`` with
    levels[l, ..., j] <= key >> 11, the key's top 53 bits, for the key
    ``fold(states[r], keys[j])``; ``levels`` is (levels, len(keys)), or one
    (levels, 1) column shared by every key.  ``keys`` are nonnegative
    uint64; the golden step of ``fold`` is added to the states once, as
    (s + G) + k == s + (k + G) mod 2^64.  With one key per cell, ``keys`` is
    (rows, width) and ``levels`` (levels, rows, width).  Rows are keyed,
    mixed and counted a cache-sized block at a time through reused buffers;
    a cell depends on its own key only, so blocking cannot change a bit.
    """
    states = states + np.uint64(_GOLDEN)
    width = out.shape[1]
    rows = max(1, GRID_BLOCK // max(width, 1))
    z = np.empty(min(rows, len(states)) * width, dtype=np.uint64)
    scratch = np.empty(min(z.size, GRID_BLOCK), dtype=np.uint64)
    hit = np.empty(z.size, dtype=bool)
    for r0 in range(0, len(states), rows):
        block = states[r0 : r0 + rows]
        zb = z[: len(block) * width].reshape(len(block), width)
        np.add(block[:, None], keys[r0 : r0 + rows] if keys.ndim == 2 else keys, out=zb)
        _mix(zb, scratch)
        zb >>= np.uint64(11)
        hb, ob = hit[: zb.size].reshape(zb.shape), out[r0 : r0 + rows]
        for level in levels[:, r0 : r0 + rows] if levels.ndim == 3 else levels:
            ob += np.greater_equal(zb, level, out=hb)


def keyed_symbols(
    states: np.ndarray,
    lo: int,
    cells: int,
    levels_at: Callable[[int, int], np.ndarray],
) -> np.ndarray:
    """(len(states), cells) int16 symbols by integer thresholds.

    ``states[r]`` is the uint64 ``combine(seed, *parts)`` of row r; entry
    [r, j] is drawn from the key ``combine(seed, *parts, zigzag(lo + j))``
    against column j of ``levels_at(a, b)``, the ``thresholds`` of the
    coordinates a .. a + b - 1 as a (levels, b) array, or (levels, 1) when
    they share one distribution, counted into ones ``GRID_BLOCK`` columns
    at a time through key buffers reused from block to block, so no
    full-size temporary is formed.
    """
    out = np.empty((len(states), cells), dtype=np.int16)
    out.fill(1)
    width = min(cells, GRID_BLOCK)
    step = np.arange(width, dtype=np.int64)
    n, keys = np.empty(width, dtype=np.int64), np.empty(width, dtype=np.int64)
    for c0 in range(0, cells, GRID_BLOCK):
        b = min(GRID_BLOCK, cells - c0)
        # zigzag(lo + c0 + j) by shift-xor, as ``zigzag_vec``, in place
        nb, kb = n[:b], keys[:b]
        np.add(step[:b], lo + c0, out=nb)
        np.left_shift(nb, 1, out=kb)
        nb >>= 63
        kb ^= nb
        _keyed_counts(states, kb.view(np.uint64), levels_at(lo + c0, b), out[:, c0 : c0 + b])
    return out


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, in the order of one lexicographic
    sort (np.unique(axis=0) is far slower), and the index of each row among
    them: rows[i] == distinct[which[i]]."""
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (np.diff(rows[order], axis=0) != 0).any(axis=1)
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return rows[order[new]], which


def keyed_gather(
    states: np.ndarray, coords: np.ndarray, levels_of: Callable[[tuple], np.ndarray]
) -> np.ndarray:
    """(rows, k) int16 symbols at per-row points: ``coords`` is (rows, k, d)
    int64, and entry [r, j] is drawn from the key that extends ``states[r]``
    by the zigzag of each component of the point coords[r, j] in turn,
    against ``levels_of(point)``, its (levels, 1) thresholds, taken once per
    distinct point; one ``_keyed_counts`` with a key and a thresholds column
    per cell counts them all, so the cost is O(rows x k) whatever the points.
    """
    rows, k, d = coords.shape
    keys = zigzag_vec(coords)
    cells = np.broadcast_to(states[:, None], (rows, k))
    for axis in range(d - 1):
        cells = fold(cells, keys[..., axis])
    distinct, which = distinct_rows(coords.reshape(-1, d))
    table = np.concatenate([levels_of(tuple(p)) for p in distinct.tolist()], axis=1)
    out = np.ones((rows * k, 1), dtype=np.int16)
    _keyed_counts(cells.reshape(-1), keys[..., -1].reshape(-1, 1), table[:, which, None], out)
    return out.reshape(rows, k)
