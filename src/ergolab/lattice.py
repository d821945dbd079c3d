"""Bernoulli actions of Z^d with box averaging sets [-n, n]^d.

The action translates coordinates, (T_g x)_h = x_{h-g}; the cocycle weight
attached to g is the density of the translated measure, an exact finite
product for compactly perturbed families.  Families come in two shapes:
``LatticeCompact`` (base + finite window, the iid family being the empty
window) and ``LatticePeriodic`` (sites repeat modulo a period vector).  Site
measures and the exactness story mirror the one-dimensional module; only
boxes replace intervals, and the homoclinic notion is agreement outside a box.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .averages import SumSeries
from .bernoulli import (
    CONVERGENT,
    DIVERGENT,
    KakutaniResult,
    LogValue,
    SiteMeasure,
    hellinger_sq,
)
from .errors import NonSingularError
from .seeding import (
    TAG_LATTICE,
    combine,
    fold,
    keyed_symbols,
    spawn,
    zigzag,
    zigzag_vec,
)
from .shift_core import Alphabet, LevelsAt, periodic_levels

_BOX_CELL_CAP = 1 << 24


def _as_vec(g) -> tuple[int, ...]:
    return tuple(int(v) for v in g)


class LatticeFamily:
    """Base interface for Z^d product families; use the concrete shapes."""

    dimension: int
    alphabet: Alphabet

    def site(self, g) -> SiteMeasure:
        raise NotImplementedError

    def box_symbols(self, states: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
        """(len(states), len(axes[-1])) symbols: row r is drawn at the key
        path ``states[r]``, which has folded in the r-th prefix (row-major)
        of the absolute coordinates ``axes[:-1]``, along the last axis."""
        raise NotImplementedError

    def configuration(self, seed: int) -> "LatticeConfiguration":
        return LatticeConfiguration(self, seed)

    def run_configuration(self, master_seed: int, run: int) -> "LatticeConfiguration":
        return self.configuration(spawn(master_seed, run))


class LatticeCompact(LatticeFamily):
    """Base measure outside finitely many perturbed lattice sites; an empty
    window is the iid family."""

    def __init__(
        self, dimension: int, base: SiteMeasure, window: Mapping[object, SiteMeasure]
    ) -> None:
        if not 1 <= dimension <= 3:
            raise ValueError("dimension must be 1..3")
        self.dimension = dimension
        self.base = base
        self.alphabet = Alphabet(base.n_symbols)
        self.window: dict[tuple[int, ...], SiteMeasure] = {}
        for g, m in window.items():
            vec = _as_vec(g)
            if len(vec) != dimension:
                raise ValueError(f"site {vec} has wrong dimension")
            if m.n_symbols != base.n_symbols:
                raise ValueError("window measures must share the base alphabet")
            if m.probs != base.probs:
                self.window[vec] = m

    def site(self, g) -> SiteMeasure:
        return self.window.get(_as_vec(g), self.base)

    def box_symbols(self, states: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
        base = np.array(self.base.floats.levels, dtype=np.uint64)[:, None]
        out = keyed_symbols(states, int(axes[-1][0]), len(axes[-1]), lambda a, b: base)
        for g, m in self.window.items():
            idx = [v - int(a[0]) for v, a in zip(g, axes)]
            if all(0 <= i < len(a) for i, a in zip(idx, axes)):
                row = 0
                for i, a in zip(idx[:-1], axes):
                    row = row * len(a) + i
                site = np.array(m.floats.levels, dtype=np.uint64)[:, None]
                drawn = keyed_symbols(states[row : row + 1], g[-1], 1, lambda a, b: site)
                out[row, idx[-1]] = drawn[0, 0]
        return out


class LatticePeriodic(LatticeFamily):
    """site(g) determined by the residue of g modulo a period vector."""

    def __init__(self, period, sites: Mapping[object, SiteMeasure]) -> None:
        self.period = _as_vec(period)
        if not 1 <= len(self.period) <= 3 or any(p < 1 for p in self.period):
            raise ValueError("period must be 1..3 positive integers")
        self.dimension = len(self.period)
        self._sites: dict[tuple[int, ...], SiteMeasure] = {}
        for r, m in sites.items():
            self._sites[_as_vec(r)] = m
        expected = 1
        for p in self.period:
            expected *= p
        if len(self._sites) != expected:
            raise ValueError("need one site measure per residue class")
        sizes = {m.n_symbols for m in self._sites.values()}
        if len(sizes) != 1:
            raise ValueError("all site measures must share one alphabet")
        self.alphabet = Alphabet(sizes.pop())

    def residue(self, g) -> tuple[int, ...]:
        return tuple(v % p for v, p in zip(_as_vec(g), self.period))

    def site(self, g) -> SiteMeasure:
        return self._sites[self.residue(g)]

    def box_symbols(self, states: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
        *prefix, last = axes
        # the residue class of each row's prefix, numbered row-major
        classes = np.zeros(1, dtype=np.int64)
        for a, p in zip(prefix, self.period):
            classes = np.add.outer(classes * p, a % p).reshape(-1)
        out = np.empty((len(states), len(last)), dtype=np.int16)
        for code, levels_at in enumerate(self._row_levels):
            rows = np.flatnonzero(classes == code)
            if len(rows):
                out[rows] = keyed_symbols(states[rows], int(last[0]), len(last), levels_at)
        return out

    @cached_property
    def _row_levels(self) -> list[LevelsAt]:
        """``levels_at`` along the last axis for each residue class of the
        other coordinates, in row-major order."""
        p = self.period[-1]
        return [
            periodic_levels([self._sites[r + (j,)].floats.levels for j in range(p)])
            for r in _box_residues(self.period[:-1])
        ]

    def preserved_by(self, g) -> bool:
        """Whether translating by g leaves every site measure unchanged."""
        return all(
            self._sites[r].probs == self.site(tuple(a + b for a, b in zip(r, _as_vec(g)))).probs
            for r in self._sites
        )


def alternating_rows(axis: int = 1, dimension: int = 2) -> LatticePeriodic:
    """d-dimensional family whose site measure flips with the parity of one
    coordinate: the lattice analogue of the alternating one-dimensional family."""
    even = SiteMeasure.of(["3/4", "1/4"])
    odd = SiteMeasure.of(["1/4", "3/4"])
    period = tuple(1 + e for e in _unit_vector(dimension, axis))
    sites = {}
    for r in _box_residues(period):
        sites[r] = even if r[axis] == 0 else odd
    return LatticePeriodic(period, sites)


def _box_residues(period: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """Residue vectors in row-major order; the empty period has one, ()."""
    return product(*(range(p) for p in period))


class LatticeConfiguration:
    """Lazy point of the lattice shift space; pure in (seed, coordinates)."""

    __slots__ = ("family", "seed", "offset")

    def __init__(self, family: LatticeFamily, seed: int, offset=None) -> None:
        self.family = family
        self.seed = seed
        self.offset = _as_vec(offset) if offset is not None else (0,) * family.dimension

    def translated(self, g) -> "LatticeConfiguration":
        """T_g of this point: reads h as we read h - g."""
        vec = _as_vec(g)
        return LatticeConfiguration(
            self.family,
            self.seed,
            tuple(o - v for o, v in zip(self.offset, vec)),
        )

    def symbol(self, g) -> int:
        vec = tuple(v + o for v, o in zip(_as_vec(g), self.offset))
        key = combine(self.seed, TAG_LATTICE, *(zigzag(v) for v in vec))
        return 1 + bisect_right(self.family.site(vec).floats.levels, key >> 11)

    def box(self, radius: int, margins=None) -> np.ndarray:
        """Symbols on the product of ranges [-radius - m_i, radius + m_i].

        Axis i of the returned array indexes coordinate i, offset so that
        index 0 is the lower end of the range.
        """
        d = self.family.dimension
        margins = _as_vec(margins) if margins is not None else (0,) * d
        axes = [
            np.arange(-radius - m, radius + m + 1, dtype=np.int64) + o
            for m, o in zip(margins, self.offset)
        ]
        shape = tuple(len(a) for a in axes)
        cells = math.prod(shape)
        if cells > _BOX_CELL_CAP:
            raise ValueError(f"box of {cells} cells exceeds cap {_BOX_CELL_CAP}")
        # fold the key path one axis at a time; the last axis is folded and
        # drawn block by block inside keyed_symbols
        states = np.array([combine(self.seed, TAG_LATTICE)], dtype=np.uint64)
        for a in axes[:-1]:
            states = fold(states, zigzag_vec(a))
        return self.family.box_symbols(states, axes).reshape(shape)


# ---------------------------------------------------------------------------
# Operations


def _unit_vector(dimension: int, axis: int) -> tuple[int, ...]:
    if not 0 <= axis < dimension:
        raise ValueError(f"axis {axis} outside dimension {dimension}")
    return tuple(1 if i == axis else 0 for i in range(dimension))


def kakutani_sum_generator(
    family: LatticeFamily, axis: int, horizon: int
) -> KakutaniResult:
    """Squared-Hellinger equivalence sum for the translation along one
    standard basis vector, over the box of the given radius."""
    e = _unit_vector(family.dimension, axis)

    if isinstance(family, LatticeCompact):
        affected = set(family.window)
        affected |= {tuple(a + b for a, b in zip(g, e)) for g in family.window}
        value = 0.0
        for h in sorted(affected):
            if max(abs(v) for v in h) <= horizon:
                value += hellinger_sq(
                    family.site(h), family.site(tuple(a - b for a, b in zip(h, e)))
                )
        return KakutaniResult(value, CONVERGENT, 0.0)

    assert isinstance(family, LatticePeriodic)
    per_residue = {
        r: hellinger_sq(
            family.site(r), family.site(tuple(a - b for a, b in zip(r, e)))
        )
        for r in _box_residues(family.period)
    }
    if all(v == 0.0 for v in per_residue.values()):
        return KakutaniResult(0.0, CONVERGENT, 0.0)
    value = 0.0
    for r, term in per_residue.items():
        if term:
            count = 1
            for ri, p in zip(r, family.period):
                count *= (horizon - ri) // p + (horizon + ri) // p + 1
            value += count * term
    return KakutaniResult(value, DIVERGENT, None)


def rn_derivative_g(family: LatticeFamily, x: LatticeConfiguration, g) -> LogValue:
    """log of the density of the g-translated measure at x: the exact finite
    product over perturbed sites i of mu_i(x_{i-g}) / mu_i(x_i) paired against
    the base."""
    vec = _as_vec(g)
    if isinstance(family, LatticePeriodic):
        if not family.preserved_by(vec):
            raise NonSingularError(
                f"periodic lattice family is singular under translation by {vec}"
            )
        return LogValue(0.0, 0.0)
    assert isinstance(family, LatticeCompact)
    base = family.base.floats.logs
    total = 0.0
    for i, m in family.window.items():
        pulled = tuple(a - b for a, b in zip(i, vec))
        logs, there, here = m.floats.logs, x.symbol(pulled) - 1, x.symbol(i) - 1
        total += logs[there] - base[there]
        total -= logs[here] - base[here]
    return LogValue(total, 0.0)


def _atom_coords(atom: Mapping[object, int]) -> dict[tuple[int, ...], int]:
    return {_as_vec(g): int(s) for g, s in atom.items()}


def box_ratio_average(
    family: LatticeFamily,
    f_terms: Sequence[tuple[float, Mapping[object, int]]],
    x: LatticeConfiguration,
    n_max: int,
) -> SumSeries:
    """Cocycle-weighted averages of f over the boxes [-n, n]^d, n = 1..n_max.

    f is a linear combination of finite pattern indicators: each atom maps
    lattice coordinates to required symbols (empty atom = constant 1).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = family.dimension
    atoms = [(float(c), _atom_coords(atom)) for c, atom in f_terms]
    reach = max(
        (max(abs(v) for v in g) for _, atom in atoms for g in atom),
        default=0,
    )
    if isinstance(family, LatticeCompact) and family.window:
        reach = max(
            reach, max(max(abs(v) for v in g) for g in family.window)
        )
    if isinstance(family, LatticePeriodic):
        # the boxes exhaust every translation, so all of them must be
        # non-singular, which for periodic families means constant sites
        if not all(
            family.preserved_by(_unit_vector(d, axis)) for axis in range(d)
        ):
            raise NonSingularError(
                "periodic lattice family is singular under some box translation"
            )

    block = x.box(n_max, margins=(reach,) * d)
    lows = (-n_max - reach,) * d

    # the sup-norm radius of each cell, broadcast from the d axis vectors
    span = np.abs(np.arange(-n_max, n_max + 1, dtype=np.int64))
    radius = reduce(np.maximum, np.ix_(*(span,) * d))

    def read(shift_vec: tuple[int, ...]) -> np.ndarray:
        # symbols x_{shift - g} arranged over the g grid
        slices = tuple(
            slice(s - n_max - lo, s + n_max + 1 - lo)
            for s, lo in zip(shift_vec, lows)
        )
        return block[slices][tuple(slice(None, None, -1) for _ in range(d))]

    values = np.zeros(radius.shape)
    for c, atom in atoms:
        if not atom:
            values += c
            continue
        ind = np.ones(radius.shape, dtype=bool)
        for g_atom, symbol in atom.items():
            ind &= read(g_atom) == symbol
        values += c * ind

    if isinstance(family, LatticeCompact) and family.window:
        logs = np.zeros(radius.shape)
        base_logs = family.base.log_probs()
        for i, m in family.window.items():
            table = m.log_probs() - base_logs
            here = table[x.symbol(i) - 1]
            logs += table[read(i) - 1] - here
        weights = np.exp(logs)
    else:
        weights = np.ones(radius.shape)

    num = np.bincount(radius.ravel(), (weights * values).ravel(), minlength=n_max + 1)
    den = np.bincount(radius.ravel(), weights.ravel(), minlength=n_max + 1)
    num_c, den_c = np.cumsum(num), np.cumsum(den)
    pts = tuple(range(1, n_max + 1))
    return SumSeries(pts, tuple(float(num_c[n] / den_c[n]) for n in pts), "ratio")
