"""Shift-space foundation: alphabets, cylinders, lazy configurations.

A configuration is a point of ``{1..N}^Z`` given by a finite set of pinned
coordinates plus a deterministic tail: the symbol at any other coordinate is
drawn from that coordinate's site distribution through a pure function of
(seed, absolute coordinate).  Shifting a configuration only moves the origin
offset, so ``shift(shift(x, 3), -3)`` reads back the very same symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

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

    def matches(self, x: "Configuration") -> bool:
        return all(x.symbol(i) == self.symbol(i) for i in self.coords())

    def matches_word(self, other_left: int, other_word: tuple[int, ...]) -> bool:
        """True when this constraint holds on a word covering our range."""
        for i in self.coords():
            if other_word[i - other_left] != self.symbol(i):
                return False
        return True


def _check_range(lo: int, hi: int, cap: int = RANGE_CAP) -> None:
    if hi - lo + 1 > cap:
        raise RangeCapError(f"range [{lo}, {hi}] longer than cap {cap}")


class LazyTail:
    """Pure (seed, coordinate) -> symbol source.

    The distribution at a coordinate is looked up as: an override CDF for the
    finitely many perturbed sites, else the period-indexed CDF when periodic,
    else the base CDF.  The draw itself is inverse-CDF on a keyed uniform, so
    it never depends on access order.
    """

    __slots__ = ("seed", "_base_cdf", "_site_cdfs", "_period_cdfs", "_rule_cdf")

    def __init__(
        self,
        seed: int,
        base_cdf: np.ndarray | None,
        site_cdfs: Mapping[int, np.ndarray] | None = None,
        period_cdfs: np.ndarray | None = None,
        rule_cdf: Callable[[int], np.ndarray] | None = None,
    ) -> None:
        self.seed = seed
        self._base_cdf = base_cdf
        self._site_cdfs = dict(site_cdfs) if site_cdfs else {}
        self._period_cdfs = period_cdfs
        self._rule_cdf = rule_cdf

    @staticmethod
    def cdf(probs) -> np.ndarray:
        c = np.cumsum(np.asarray([float(p) for p in probs], dtype=np.float64))
        c[-1] = 1.0
        return c

    @classmethod
    def constant(cls, seed: int, probs) -> "LazyTail":
        return cls(seed, cls.cdf(probs))

    @classmethod
    def from_rule(cls, seed: int, cdf_rule: Callable[[int], np.ndarray]) -> "LazyTail":
        """Tail whose CDF at coordinate k is ``cdf_rule(k)`` (built by ``cdf``)."""
        return cls(seed, None, None, None, cdf_rule)

    def _cdf_at(self, i: int) -> np.ndarray:
        if i in self._site_cdfs:
            return self._site_cdfs[i]
        if self._period_cdfs is not None:
            return self._period_cdfs[i % len(self._period_cdfs)]
        if self._rule_cdf is not None:
            return self._rule_cdf(i)
        return self._base_cdf

    def symbol(self, i: int) -> int:
        u = uniform01(self.seed, TAG_SYMBOL, zigzag(i))
        return int(np.searchsorted(self._cdf_at(i), u, side="right")) + 1

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Symbols on [lo, hi] inclusive, as int16."""
        _check_range(lo, hi)
        state = np.array([combine(self.seed, TAG_SYMBOL)], dtype=np.uint64)
        return self._draw(state, lo, hi - lo + 1)[0]

    def grid(self, seeds: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """(len(seeds), hi - lo + 1) symbols; row r is the ``block(lo, hi)``
        of this tail's distribution drawn at seed ``seeds[r]``."""
        _check_range(lo, hi)
        return self._draw(combine_seeds(seeds, (TAG_SYMBOL,)), lo, hi - lo + 1)

    def _draw(self, states: np.ndarray, lo: int, cells: int) -> np.ndarray:
        """``keyed_symbols`` over coordinates lo .. lo + cells - 1, against
        the thresholds of each coordinate's CDF as ``_cdf_at`` picks it."""
        if self._period_cdfs is not None:
            levels_at = periodic_levels(thresholds(self._period_cdfs), cells)
        elif self._rule_cdf is not None:
            cdfs = np.array([self._rule_cdf(k) for k in range(lo, lo + cells)])
            table = np.ascontiguousarray(thresholds(cdfs).T)

            def levels_at(a: int, b: int) -> np.ndarray:
                return table[:, a - lo : a - lo + b]

        else:
            base = thresholds(self._base_cdf)[:, None]

            def levels_at(a: int, b: int) -> np.ndarray:
                return base

        sites = {k: thresholds(c) for k, c in self._site_cdfs.items() if lo <= k < lo + cells}
        if not sites:
            return keyed_symbols(states, lo, cells, levels_at)

        def with_sites(a: int, b: int) -> np.ndarray:
            table = levels_at(a, b)
            inside = [k for k in sites if a <= k < a + b]
            if inside:
                table = np.broadcast_to(table, (len(table), b)).copy()
                for k in inside:
                    table[:, k - a] = sites[k]
            return table

        return keyed_symbols(states, lo, cells, with_sites)


def periodic_levels(levels: np.ndarray, cells: int) -> Callable[[int, int], np.ndarray]:
    """``levels_at`` for a ``keyed_symbols`` read of ``cells`` coordinates
    whose thresholds repeat: coordinate k draws against row k mod p of the
    (p, levels) array ``levels``."""
    p = len(levels)
    width = min(cells, GRID_BLOCK) + p - 1
    tiled = np.tile(levels.T, -(-width // p))
    return lambda a, b: tiled[:, a % p : a % p + b]


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


def shift(x: Configuration, n: int) -> Configuration:
    """Configuration reading coordinate i as ``x`` reads ``i + n``."""
    return x.shifted(n)


def rewire(x: Configuration, block: Cylinder) -> Configuration:
    """Copy of ``x`` with the block word written over [left, right]."""
    return x.rewired(block)


def homoclinic_radius(
    x: Configuration, y: Configuration, horizon: int, slack: int = 0
) -> int | None:
    """Smallest certified radius N with x_n = y_n for all N < |n| <= horizon.

    The answer is only certified out to ``horizon``: with ``slack > 0`` the
    radius is withheld (None) when the outermost disagreement falls in
    ``(horizon - slack, horizon]``, since the true radius may then exceed the
    scanned window.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    xa = x.block(-horizon, horizon)
    ya = y.block(-horizon, horizon)
    diff = np.nonzero(xa != ya)[0]
    if len(diff) == 0:
        return 0
    coords = diff - horizon
    outer = int(np.max(np.abs(coords)))
    if outer > horizon - slack:
        return None
    return outer
