"""Shift-space foundation: alphabets, cylinders, lazy configurations.

A configuration is a point of ``{1..N}^Z`` given by a finite set of pinned
coordinates plus a deterministic tail: the symbol at any other coordinate is
drawn from that coordinate's site distribution through a pure function of
(seed, absolute coordinate).  Shifting a configuration only moves the origin
offset, so ``x.shifted(3).shifted(-3)`` reads back the very same symbols.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .seeding import (
    GRID_BLOCK,
    TAG_SYMBOL,
    combine,
    combine_seeds,
    keyed_gather,
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


def _column(levels: Sequence[int]) -> np.ndarray:
    """Sampling thresholds as the (levels, 1) column that keyed draws count."""
    return np.array(levels, dtype=np.uint64)[:, None]


class LazyTail:
    """Immutable point of the shift space: pinned coordinates over a pure
    (seed, coordinate) -> symbol tail, read from an origin offset.

    Logical coordinate i reads a = i + offset: its pin, else 1 plus the
    number of thresholds in column a of ``levels_at`` (built once per family
    by ``window_levels``, ``periodic_levels`` or ``rule_levels``) at or below
    the top 53 bits of the key (seed, a).  Scalar reads and ``keyed_symbols``
    blocks count the same thresholds, so the two agree bit for bit and never
    depend on access order.
    """

    __slots__ = ("seed", "levels_at", "overrides", "offset")

    def __init__(
        self, seed: int, levels_at: LevelsAt, overrides: Mapping[int, int] | None = None, offset: int = 0
    ) -> None:
        self.seed, self.levels_at, self.offset = seed, levels_at, offset
        self.overrides: dict[int, int] = dict(overrides) if overrides else {}

    @classmethod
    def constant(cls, seed: int, probs) -> "LazyTail":
        # thresholds drop the CDF's last entry, so it need not be set to 1.0
        return cls(seed, window_levels(thresholds(np.cumsum([float(p) for p in probs])), {}))

    def symbol(self, i: int) -> int:
        a = i + self.offset
        v = self.overrides.get(a)
        if v is not None:
            return v
        # u * 2^53 is the key's top 53 bits, exactly
        u = uniform01(self.seed, TAG_SYMBOL, zigzag(a))
        return 1 + bisect_right(self.levels_at(a, 1).ravel().tolist(), u * 2.0**53)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Symbols on logical coordinates [lo, hi] inclusive, as int16."""
        out = self._rows(np.array([combine(self.seed, TAG_SYMBOL)], dtype=np.uint64), lo, hi)[0]
        for a, v in self.overrides.items():
            if 0 <= a - self.offset - lo < len(out):
                out[a - self.offset - lo] = v
        return out

    def grid(self, seeds: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(len(seeds), hi - lo + 1) symbols; row r is this point's
        ``block(lo, hi)`` drawn at seed ``seeds[r]``, without the pins."""
        return self._rows(combine_seeds(seeds, (TAG_SYMBOL,)), lo, hi)

    def _rows(self, states: np.ndarray, lo: int, hi: int) -> np.ndarray:
        _check_range(lo, hi)
        return keyed_symbols(states, lo + self.offset, hi - lo + 1, self.levels_at)

    def shifted(self, n: int) -> "LazyTail":
        return LazyTail(self.seed, self.levels_at, self.overrides, self.offset + n)

    def rewired(self, block: Cylinder) -> "LazyTail":
        pins = {i + self.offset: block.symbol(i) for i in block.coords()}
        return LazyTail(self.seed, self.levels_at, {**self.overrides, **pins}, self.offset)


#: the package's name for a point of the shift space
Configuration = LazyTail


def window_levels(base: Sequence[int], sites: Mapping[int, Sequence[int]]) -> LevelsAt:
    """``levels_at`` of a base plus finite window: coordinate k draws against
    the thresholds ``sites[k]`` at a window site, else against ``base``."""
    base = _column(base)
    columns = {k: _column(v) for k, v in sites.items()}

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


class PointRows:
    """A batch of lazy points, one per row: row r reads coordinate i (an int
    on Z, a d-vector on Z^d) where the point with key state ``states[r]``
    reads i + offsets[r], against the thresholds ``levels_of(coordinate)``.
    ``symbol`` and ``block`` draw one array per row by one
    ``seeding.keyed_gather``; ``moved`` and ``take`` are views."""

    __slots__ = ("states", "offsets", "levels_of")

    def __init__(self, states: np.ndarray, offsets: np.ndarray, levels_of: Callable) -> None:
        self.states, self.offsets, self.levels_of = states, offsets, levels_of

    def moved(self, delta) -> "PointRows":
        """Each row's offset moved by its entry of ``delta``."""
        offsets = self.offsets + np.reshape(delta, (len(self.states), -1))
        return PointRows(self.states, offsets, self.levels_of)

    def take(self, rows) -> "PointRows":
        return PointRows(self.states[rows], self.offsets[rows], self.levels_of)

    def _read(self, coords: np.ndarray) -> np.ndarray:
        points = coords.astype(np.int64) + self.offsets[:, None, :]
        return keyed_gather(self.states, points, self.levels_of)

    def symbol(self, i) -> np.ndarray:
        """Row r's symbol at i, or at i[r] when i holds one coordinate a row."""
        return self._read(np.reshape(i, (-1, 1, self.offsets.shape[1])))[:, 0]

    def block(self, lo: int, hi: int) -> np.ndarray:
        return self._read(np.arange(lo, hi + 1)[None, :, None])
