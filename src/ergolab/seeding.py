"""Keyed deterministic randomness.

Every random quantity in this package is a pure function of a master seed
and an integer key path (run index, coordinate, draw index, ...).  That is
the property the lazy-tail configurations and the reproducibility contract
need: re-reading a coordinate, shifting a configuration, or re-running an
experiment never re-randomizes anything.

The mixer is the splitmix64 finalizer applied over the key path.  It is
implemented twice, once on Python ints and once in place on numpy uint64
arrays, and the two are bit-identical (tested).  The vectorized form is what
makes 10^5-coordinate windows and 10^4-seed Monte Carlo batches cheap; grids
are mixed in cache-sized row blocks.  The design is counter-based (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): a draw is
a pure function of (seed, key), so any blocking gives the same bits.
"""

from __future__ import annotations

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

#: cells per block of a keyed grid: a block's two uint64 buffers and its
#: float64 output (768 KiB together) stay in a core's L2 cache
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


def combine(seed: int, *parts: int) -> int:
    """Mix a seed with a key path of integers into a uint64."""
    h = _finalize((int(seed) & _MASK) ^ _GOLDEN)
    for p in parts:
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


def _to_unit(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Top 53 bits of a mixed uint64 array as floats in [0, 1); shifts ``z``."""
    z >>= np.uint64(11)
    return np.multiply(z, 2.0**-53, out=out)


def combine_vec(seed: int, parts: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    """Vectorized `combine(seed, *parts, k)` for an array of final keys ``k``.

    ``keys`` must already be nonnegative (zigzag-encoded when signed).
    """
    h0 = combine(seed, *parts)
    # keep the scalar part of the addition in Python ints: numpy warns on
    # scalar uint64 overflow while array ops wrap silently
    z = keys.astype(np.uint64, order="C")
    z += np.uint64((h0 + _GOLDEN) & _MASK)
    return _mix(z)


def uniform01_vec(seed: int, parts: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    return _to_unit(combine_vec(seed, parts, keys))


def zigzag_vec(n: np.ndarray) -> np.ndarray:
    n = n.astype(np.int64)
    return np.where(n >= 0, 2 * n, -2 * n - 1).astype(np.uint64)


def uniform01_grid(
    seeds: np.ndarray, parts: tuple[int, ...], keys: np.ndarray
) -> np.ndarray:
    """(len(seeds), len(keys)) grid; entry [i, j] == uniform01(seeds[i], *parts, keys[j]).

    ``keys`` must already be nonnegative (zigzag-encoded when signed).  The
    grid is mixed in blocks of whole rows, about ``GRID_BLOCK`` cells each
    (one row when a row is wider), through two reused uint64 buffers; each
    cell depends on its own (seed, key) only, so the blocking cannot change
    a bit.
    """
    h = seeds.astype(np.uint64, order="C")
    h ^= np.uint64(_GOLDEN)
    _mix(h)
    for p in parts:
        h += np.uint64((_GOLDEN + (p & _MASK)) & _MASK)
        _mix(h)
    k = keys.astype(np.uint64)
    k += np.uint64(_GOLDEN)
    out = np.empty((len(h), len(k)))
    rows = max(1, GRID_BLOCK // max(len(k), 1))
    z = np.empty((min(rows, len(h)), len(k)), dtype=np.uint64)
    scratch = np.empty(min(z.size, GRID_BLOCK), dtype=np.uint64)
    for lo in range(0, len(h), rows):
        hi = min(lo + rows, len(h))
        zb = np.add(h[lo:hi, None], k, out=z[: hi - lo])
        _to_unit(_mix(zb, scratch), out=out[lo:hi])
    return out


def spawn_vec(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``spawn``: child seeds for an array of run indices."""
    return combine_vec(seed, (TAG_SPAWN,), indices)


def uniform01_nd(seed: int, parts: tuple[int, ...], key_arrays) -> np.ndarray:
    """Uniforms over same-shape key arrays folded in sequence.

    Entry [idx] equals uniform01(seed, *parts, k1[idx], k2[idx], ...); keys
    must already be nonnegative.
    """
    key_arrays = [np.asarray(k) for k in key_arrays]
    h = np.full(key_arrays[0].shape, combine(seed, *parts), dtype=np.uint64)
    for keys in key_arrays:
        h += keys.astype(np.uint64, copy=False)
        h += np.uint64(_GOLDEN)
        _mix(h)
    return _to_unit(h)
