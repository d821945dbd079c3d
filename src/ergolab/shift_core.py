"""Shift-space foundation: alphabets, cylinders, lazy configurations.

A configuration is a point of ``{1..N}^Z`` given by a finite set of pinned
coordinates plus a deterministic tail: the symbol at any other coordinate is
drawn from that coordinate's site distribution through a pure function of
(seed, absolute coordinate).  Shifting a configuration only moves the origin
offset, so ``x.shifted(3).shifted(-3)`` reads back the very same symbols.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .seeding import (
    GRID_BLOCK,
    TAG_SYMBOL,
    combine,
    combine_seeds,
    keyed_symbols,
    thresholds,
    uniform01,
    zigzag,
)

#: Longest coordinate range a single operation will materialize.
RANGE_CAP = 1 << 24


class RangeCapError(ValueError):
    """Requested coordinate range exceeds the materialization cap."""


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {1, .., size}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {self.size}")

    @property
    def symbols(self) -> range:
        return range(1, self.size + 1)

    def contains(self, s: int) -> bool:
        return 1 <= s <= self.size


@dataclass(frozen=True)
class Cylinder:
    """Word constraint on coordinates [left, right].

    The empty cylinder (whole space) is ``word == ()`` with
    ``right == left - 1``; non-empty cylinders require ``left <= right``.
    """

    left: int
    right: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.word) != self.right - self.left + 1:
            raise ValueError(
                f"word length {len(self.word)} != range length {self.right - self.left + 1}"
            )

    @classmethod
    def empty(cls) -> "Cylinder":
        return cls(0, -1, ())

    @classmethod
    def of(cls, word, left: int = 0) -> "Cylinder":
        word = tuple(int(s) for s in word)
        return cls(left, left + len(word) - 1, word)

    @property
    def is_empty(self) -> bool:
        return not self.word

    def symbol(self, i: int) -> int:
        return self.word[i - self.left]

    def coords(self) -> range:
        return range(self.left, self.right + 1)

    def matches_word(self, other_left: int, other_word: tuple[int, ...]) -> bool:
        """True when this constraint holds on a word covering our range."""
        for i in self.coords():
            if other_word[i - other_left] != self.symbol(i):
                return False
        return True


def _check_range(lo: int, hi: int, cap: int = RANGE_CAP) -> None:
    if hi - lo + 1 > cap:
        raise RangeCapError(f"range [{lo}, {hi}] longer than cap {cap}")


#: a tail's thresholds table: ``levels_at(a, b)`` is the (levels, b)
#: ``seeding.thresholds`` of coordinates a .. a + b - 1, or (levels, 1) when
#: they share one distribution
LevelsAt = Callable[[int, int], np.ndarray]


class LazyTail:
    """Pure (seed, coordinate) -> symbol source.

    Coordinate k is drawn against column k of the thresholds table
    ``levels_at`` (built once per family by ``window_levels``,
    ``periodic_levels`` or ``rule_levels``): the symbol is 1 plus the number
    of thresholds at or below the top 53 bits of the key (seed, k).  Scalar
    reads and ``keyed_symbols`` blocks count the same thresholds, so the two
    agree bit for bit and never depend on access order.
    """

    __slots__ = ("seed", "levels_at")

    def __init__(self, seed: int, levels_at: LevelsAt) -> None:
        self.seed = seed
        self.levels_at = levels_at

    @classmethod
    def constant(cls, seed: int, probs) -> "LazyTail":
        # thresholds drop the CDF's last entry, so it need not be set to 1.0
        return cls(seed, window_levels(thresholds(np.cumsum([float(p) for p in probs])), {}))

    def symbol(self, i: int) -> int:
        # u * 2^53 is the key's top 53 bits, exactly
        u = uniform01(self.seed, TAG_SYMBOL, zigzag(i))
        return 1 + bisect_right(self.levels_at(i, 1).ravel().tolist(), u * 2.0**53)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Symbols on [lo, hi] inclusive, as int16."""
        _check_range(lo, hi)
        state = np.array([combine(self.seed, TAG_SYMBOL)], dtype=np.uint64)
        return keyed_symbols(state, lo, hi - lo + 1, self.levels_at)[0]

    def grid(self, seeds: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(len(seeds), hi - lo + 1) symbols; row r is the ``block(lo, hi)``
        of this tail's distribution drawn at seed ``seeds[r]``."""
        _check_range(lo, hi)
        states = combine_seeds(seeds, (TAG_SYMBOL,))
        return keyed_symbols(states, lo, hi - lo + 1, self.levels_at)


def window_levels(base: Sequence[int], sites: Mapping[int, Sequence[int]]) -> LevelsAt:
    """``levels_at`` of a base plus finite window: coordinate k draws against
    the thresholds ``sites[k]`` at a window site, else against ``base``."""
    base = np.array(base, dtype=np.uint64)[:, None]
    columns = {k: np.array(v, dtype=np.uint64)[:, None] for k, v in sites.items()}

    def levels_at(a: int, b: int) -> np.ndarray:
        if b == 1:
            return columns.get(a, base)
        inside = [k for k in columns if a <= k < a + b]
        if not inside:
            return base
        table = np.repeat(base, b, axis=1)
        for k in inside:
            table[:, k - a : k - a + 1] = columns[k]
        return table

    return levels_at


def periodic_levels(rows: Sequence[Sequence[int]]) -> LevelsAt:
    """``levels_at`` of repeating thresholds: coordinate k draws against
    ``rows[k mod p]``.  The rows are tiled once, wide enough for any block
    that ``keyed_symbols`` asks for."""
    levels = np.asarray(rows, dtype=np.uint64)
    p = len(levels)
    tiled = np.tile(levels.T, -(-(GRID_BLOCK + p - 1) // p))
    return lambda a, b: tiled[:, a % p : a % p + b]


def rule_levels(levels_of: Callable[[int], Sequence[int]]) -> LevelsAt:
    """``levels_at`` of rule-given sites: coordinate k draws against the
    thresholds ``levels_of(k)``, which the rule's owner caches."""

    def levels_at(a: int, b: int) -> np.ndarray:
        table = np.array([levels_of(k) for k in range(a, a + b)], dtype=np.uint64)
        return np.ascontiguousarray(table.T)

    return levels_at


def column_chunks(
    block: np.ndarray, offsets: np.ndarray
) -> Iterator[tuple[slice, Callable[[int], np.ndarray]]]:
    """Cache-sized chunks of the columns ``block[..., offsets + k]``.

    Yields ``(cols, take)`` for consecutive slices ``cols`` of ``offsets``,
    about ``GRID_BLOCK`` cells of ``block`` each: ``take(k)`` is
    ``block[..., offsets[cols] + k]``, written into one reused buffer, so it
    must be used before the next ``take``.  Every offset plus k must index
    ``block``.
    """
    lead = block.shape[:-1]
    rows = max(1, math.prod(lead))
    width = max(1, GRID_BLOCK // rows)
    idx = np.empty(min(width, len(offsets)), dtype=np.intp)
    buf = np.empty(rows * len(idx), dtype=block.dtype)
    for c0 in range(0, len(offsets), width):
        cols = slice(c0, min(c0 + width, len(offsets)))
        b = cols.stop - c0
        shape = lead + (b,)

        def take(k: int) -> np.ndarray:
            np.add(offsets[cols], k, out=idx[:b])
            out = buf[: rows * b].reshape(shape)
            return np.take(block, idx[:b], axis=-1, out=out, mode="clip")

        yield cols, take


class Configuration:
    """Immutable point of the shift space: pinned window + lazy tail."""

    __slots__ = ("tail", "overrides", "offset")

    def __init__(
        self,
        tail: LazyTail,
        overrides: Mapping[int, int] | None = None,
        offset: int = 0,
    ) -> None:
        self.tail = tail
        self.overrides: dict[int, int] = dict(overrides) if overrides else {}
        self.offset = offset

    def symbol(self, i: int) -> int:
        a = i + self.offset
        v = self.overrides.get(a)
        return v if v is not None else self.tail.symbol(a)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Symbols on logical coordinates [lo, hi] inclusive."""
        a_lo, a_hi = lo + self.offset, hi + self.offset
        out = self.tail.block(a_lo, a_hi)
        for a, v in self.overrides.items():
            if a_lo <= a <= a_hi:
                out[a - a_lo] = v
        return out

    def shifted(self, n: int) -> "Configuration":
        return Configuration(self.tail, self.overrides, self.offset + n)

    def rewired(self, block: Cylinder) -> "Configuration":
        new = dict(self.overrides)
        for i in block.coords():
            new[i + self.offset] = block.symbol(i)
        return Configuration(self.tail, new, self.offset)
