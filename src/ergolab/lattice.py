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
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .averages import SumSeries, _add_patterns
from .bernoulli import (
    CONVERGENT,
    KakutaniResult,
    LogValue,
    SiteMeasure,
    _chain_gaps,
    _periodic_kakutani,
    _window_kakutani,
    _window_log_ratio,
    _window_log_ratios,
    hellinger_sq,
)
from .errors import NonSingularError
from .seeding import (
    TAG_LATTICE,
    combine,
    combine_seeds,
    fold,
    keyed_symbols,
    spawn,
    zigzag,
    zigzag_vec,
)
from .shift_core import RANGE_CAP, Alphabet, LevelsAt, PointRows, _column, periodic_levels


def _as_vec(g) -> tuple[int, ...]:
    return tuple(int(v) for v in g)


def _plus(g, h, sign: int = 1) -> tuple[int, ...]:
    return tuple(a + sign * b for a, b in zip(g, h))


def _norm(g) -> int:
    return max(abs(v) for v in g)


class LatticeFamily:
    """Base interface for Z^d product families; use the concrete shapes.
    Each shape answers its own ``kakutani_generator``, ``log_derivative``,
    ``require_box_nonsingular``, ``box_reach`` (the sup-norm radius the box
    weights read) and ``box_weights``."""

    dimension: int
    alphabet: Alphabet
    box_reach = 0

    def site(self, g) -> SiteMeasure:
        raise NotImplementedError

    def box_symbols(self, states: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
        """(len(states), len(axes[-1])) symbols: row r is drawn at the key
        path ``states[r]``, which has folded in the r-th prefix (row-major)
        of the absolute coordinates ``axes[:-1]``, along the last axis."""
        raise NotImplementedError

    def require_box_nonsingular(self) -> None:
        """Raise ``NonSingularError`` if some box translation is singular."""

    def configuration(self, seed: int) -> "LatticeConfiguration":
        return LatticeConfiguration(self, seed)

    def run_configuration(self, master_seed: int, run: int) -> "LatticeConfiguration":
        return self.configuration(spawn(master_seed, run))

    def rows(self, seeds: np.ndarray) -> PointRows:
        """``configuration(seeds[r])`` for every row r, as one batch."""
        offsets = np.zeros((len(seeds), self.dimension), dtype=np.int64)
        return PointRows(combine_seeds(seeds, (TAG_LATTICE,)), offsets, self.levels_of)

    def levels_of(self, g: tuple[int, ...]) -> np.ndarray:
        return _column(self.site(g).floats.levels)


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

    def kakutani_generator(self, e: tuple[int, ...], horizon: int) -> KakutaniResult:
        affected = sorted(set(self.window) | {_plus(g, e) for g in self.window})
        return _window_kakutani(
            [(_norm(h), hellinger_sq(self.site(h), self.site(_plus(h, e, -1)))) for h in affected],
            horizon,
        )

    def log_derivative(self, x: "LatticeConfiguration", g) -> LogValue:
        log_x = _window_log_ratio(self.base, self.window, x.symbol, lambda i: np.subtract(i, g))
        return LogValue(log_x, 0.0)

    @cached_property
    def box_reach(self) -> int:
        return max((_norm(g) for g in self.window), default=0)

    def box_weights(self, x: "LatticeConfiguration", read, shape) -> np.ndarray:
        """exp of ``log_derivative`` at each g of the box, where ``read(i)``
        holds x_{i - g} over the box."""
        window = {g: m.floats for g, m in self.window.items()}
        add = _window_log_ratios(self.base.floats, window, x.symbol)
        return np.exp(add(np.zeros(shape), read))

    def levels_of(self, g: tuple[int, ...]) -> np.ndarray:
        return self._columns.get(g, self._columns[None])

    @cached_property
    def _columns(self) -> dict:
        """The thresholds column of each window site, and the base's at None."""
        return {g: _column(m.floats.levels) for g, m in {None: self.base, **self.window}.items()}

    def box_symbols(self, states: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
        base = self._columns[None]
        out = keyed_symbols(states, int(axes[-1][0]), len(axes[-1]), lambda a, b: base)
        for g, m in self.window.items():
            idx = [v - int(a[0]) for v, a in zip(g, axes)]
            if all(0 <= i < len(a) for i, a in zip(idx, axes)):
                row = 0
                for i, a in zip(idx[:-1], axes):
                    row = row * len(a) + i
                drawn = keyed_symbols(states[row : row + 1], g[-1], 1, lambda a, b: self._columns[g])
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

    def kakutani_generator(self, e: tuple[int, ...], horizon: int) -> KakutaniResult:
        residues = _box_residues(self.period)
        terms = {r: hellinger_sq(self.site(r), self.site(_plus(r, e, -1))) for r in residues}
        if not any(terms.values()):
            return KakutaniResult(0.0, CONVERGENT, 0.0)
        return _periodic_kakutani(terms, self.period, horizon)

    def log_derivative(self, x: "LatticeConfiguration", g) -> LogValue:
        """0.0 if every translation in ``g`` (one vector, or one per row)
        preserves the family; else the first that does not is refused."""
        vectors = np.reshape(g, (-1, self.dimension))
        preserved = np.array([self.preserved_by(r) for r in _box_residues(self.period)])
        residues = (vectors % self.period).astype(np.int64)
        bad = np.flatnonzero(~preserved[np.ravel_multi_index(tuple(residues.T), self.period)])
        if len(bad):
            g = tuple(vectors[bad[0]].tolist())
            raise NonSingularError(f"periodic lattice family is singular under translation by {g}")
        return LogValue(0.0, 0.0)

    def require_box_nonsingular(self) -> None:
        # the boxes exhaust every translation, so all of them must be
        # non-singular, which for periodic families means constant sites
        d = self.dimension
        if not all(self.preserved_by(_unit_vector(d, axis)) for axis in range(d)):
            raise NonSingularError("periodic lattice family is singular under some box translation")

    def box_weights(self, x: "LatticeConfiguration", read, shape) -> np.ndarray:
        return np.ones(shape)

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
            self._sites[r].probs == self.site(_plus(r, _as_vec(g))).probs
            for r in self._sites
        )


def alternating_rows(axis: int = 1, dimension: int = 2) -> LatticePeriodic:
    """d-dimensional family whose site measure flips with the parity of one
    coordinate: the lattice analogue of the alternating one-dimensional family."""
    even = SiteMeasure.of(["3/4", "1/4"])
    odd = SiteMeasure.of(["1/4", "3/4"])
    period = tuple(1 + e for e in _unit_vector(dimension, axis))
    sites = {r: even if r[axis] == 0 else odd for r in _box_residues(period)}
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
        return LatticeConfiguration(self.family, self.seed, _plus(self.offset, _as_vec(g), -1))

    def symbol(self, g) -> int:
        vec = tuple(map(add, map(int, g), self.offset))
        key = combine(self.seed, TAG_LATTICE, *map(zigzag, vec))
        return 1 + bisect_right(self.family.levels_of(vec).ravel().tolist(), key >> 11)

    def box(self, radius: int, margins=None) -> np.ndarray:
        """Symbols on the product of ranges [-radius - m_i, radius + m_i].

        Axis i of the returned array indexes coordinate i, offset so that
        index 0 is the lower end of the range.
        """
        d = self.family.dimension
        margins = _as_vec(margins) if margins is not None else (0,) * d
        shape = tuple(max(2 * (radius + m) + 1, 0) for m in margins)
        cells = math.prod(shape)
        if cells > RANGE_CAP:
            raise ValueError(f"box of {cells} cells exceeds the cap")
        axes = [
            np.arange(-radius - m, radius + m + 1, dtype=np.int64) + o
            for m, o in zip(margins, self.offset)
        ]
        # fold the key path one axis at a time; the last axis is folded and
        # drawn block by block inside keyed_symbols
        states = np.array([combine(self.seed, TAG_LATTICE)], dtype=np.uint64)
        for a in axes[:-1]:
            states = fold(states[:, None], zigzag_vec(a)).reshape(-1)
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
    return family.kakutani_generator(_unit_vector(family.dimension, axis), horizon)


def rn_derivative_g(family: LatticeFamily, x: LatticeConfiguration, g) -> LogValue:
    """log of the density of the g-translated measure at x: the exact finite
    product over perturbed sites i of mu_i(x_{i-g}) / mu_i(x_i) paired against
    the base."""
    return family.log_derivative(x, _as_vec(g))


def cocycle_gaps(family: LatticeFamily, seeds: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Chain-rule defect |log (T_{g+h})'(x) - log (T_g)'(T_h x) - log (T_h)'(x)|
    of x = ``family.configuration(seeds[r])`` at (g[r], h[r]), for every r,
    each equal to the scalar ``rn_derivative_g`` calls' bit for bit.  A
    component past the cap is refused first, so no key aliases."""
    vectors = np.stack([g + h, g, h], axis=1)
    if (np.abs(vectors) > RANGE_CAP).any():
        raise ValueError(f"|g| exceeds cap {RANGE_CAP}")
    vectors = vectors.astype(np.int64).reshape(-1, family.dimension)
    return _chain_gaps(
        family.rows(seeds), -vectors[2::3], lambda x: family.log_derivative(x, vectors).log_magnitude
    )


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
    family.require_box_nonsingular()
    reach = max([_norm(g) for _, atom in atoms for g in atom] + [family.box_reach])

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

    values = _add_patterns(np.zeros(radius.shape), atoms, read)
    weights = family.box_weights(x, read, radius.shape)

    num = np.bincount(radius.ravel(), (weights * values).ravel(), minlength=n_max + 1)
    den = np.bincount(radius.ravel(), weights.ravel(), minlength=n_max + 1)
    num_c, den_c = np.cumsum(num), np.cumsum(den)
    pts = tuple(range(1, n_max + 1))
    return SumSeries(pts, tuple(float(num_c[n] / den_c[n]) for n in pts))
