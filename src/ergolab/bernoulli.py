"""Non-singular Bernoulli product measures on the full shift.

Site measures are stored as exact rationals; families come in three shapes
with different exactness guarantees:

* ``CompactFamily``  -- base + finite window: equals the base measure outside
                        finitely many perturbed sites.  An iid family is the
                        empty window; a constant periodic family is the same
                        measure and is normalised to it by ``periodic_family``.
* ``PeriodicFamily`` -- sites repeat with a finite period and are not all
                        equal, so the shifted measure is singular (Kakutani).
* ``SummableFamily`` -- two-symbol sites (1/2 + c r^|k|, 1/2 - c r^|k|),
                        whose log-deviations from the fair coin are
                        summable (Kakutani, Ann. of Math. 1948).

Only the compact shape admits certified equivalence of the shifted measure
with the original one; the cocycle and conservativity operations refuse
uncertified families rather than guess.
All infinite products are handled in log space with explicit truncation
error bounds, which are zero whenever the product has finitely many
non-unit factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import pairwise
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NonSingularError, ToleranceError
from .seeding import GRID_BLOCK, TAG_SYMBOL, combine_seeds, spawn, spawn_vec, thresholds
from .shift_core import (
    RANGE_CAP,
    Alphabet,
    Configuration,
    Cylinder,
    LevelsAt,
    PointRows,
    periodic_levels,
    rule_levels,
    window_levels,
)

CONVERGENT = "convergent_certified"
DIVERGENT = "divergent_certified"
DIVERGENT_LOOKING = "divergent_looking"
CONVERGENT_LOOKING = "convergent_looking"
INCONCLUSIVE = "inconclusive"

#: absolute slack for log-space bound comparisons (accumulated rounding)
LOG_SLACK = 1e-9

_SUM_TOL = Fraction(1, 10**12)

#: summable site records kept; a far site's exact probabilities are
#: thousands of bits long, so the measures themselves are never kept
_SUMMABLE_CACHE = 4096


def _as_fraction(v) -> Fraction:
    # floats convert exactly (binary expansion); decimal strings like "0.75"
    # and rationals like "3/4" parse exactly too
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class SiteMeasure:
    """Strictly positive probability vector on {1..N}, exact rationals."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 2:
            raise ValueError("need at least two symbols")
        if any(p <= 0 for p in self.probs):
            raise ValueError(f"probabilities must be strictly positive: {self.probs}")
        if any(p >= 1 for p in self.probs):
            raise ValueError(f"probabilities must be strictly below one: {self.probs}")
        if abs(sum(self.probs) - 1) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    @classmethod
    def of(cls, values) -> "SiteMeasure":
        return cls(tuple(_as_fraction(v) for v in values))

    @property
    def n_symbols(self) -> int:
        return len(self.probs)

    def prob(self, symbol: int) -> Fraction:
        return self.probs[symbol - 1]

    @property
    def max_prob(self) -> Fraction:
        return max(self.probs)

    @property
    def min_prob(self) -> Fraction:
        return min(self.probs)

    @cached_property
    def ratio(self) -> Fraction:
        return self.max_prob / self.min_prob

    @cached_property
    def log_ratio(self) -> float:
        return math.log(float(self.ratio))

    @cached_property
    def floats(self) -> "SiteFloats":
        # math.log of a Fraction is math.log of its correctly rounded float,
        # so each table entry equals math.log(p) of the exact probability
        probs = [float(p) for p in self.probs]
        levels = thresholds(np.cumsum(probs)).tolist()
        return SiteFloats(tuple(math.log(p) for p in probs), tuple(levels))


class SiteFloats(NamedTuple):
    """The float data of a site that the cocycles and the sampler read: the
    log of each probability and the sampling thresholds
    (``seeding.thresholds``), as ints."""

    logs: tuple[float, ...]
    levels: tuple[int, ...]


class LogValue(NamedTuple):
    """Natural log of a positive quantity plus a bound on |log truncation error|."""

    log_magnitude: float
    error_bound: float

    @property
    def value(self) -> float:
        return math.exp(self.log_magnitude)


class KakutaniResult(NamedTuple):
    value: float
    verdict: str
    tail_bound: float | None


class UniformityBound(NamedTuple):
    value: float
    exact: bool


def hellinger_sq(a: SiteMeasure, b: SiteMeasure) -> float:
    """Sum over symbols of (sqrt(a_j) - sqrt(b_j))^2."""
    if a.probs == b.probs:
        return 0.0
    return float(
        sum((math.sqrt(p) - math.sqrt(q)) ** 2 for p, q in zip(a.probs, b.probs))
    )


class BernoulliFamily:
    """Base interface; use the concrete shapes below.  Each shape answers
    its own ``kakutani`` and ``uniformity``, and a non-singular one its
    ``log_derivative`` and ``term_log_floor``; the free functions below
    check their input and call these."""

    alphabet: Alphabet
    #: the sampling thresholds of every coordinate, which ``LazyTail``
    #: reads; each shape builds it once per family
    levels_at: LevelsAt

    def site(self, k: int) -> SiteMeasure:
        raise NotImplementedError

    def site_floats(self, k: int) -> SiteFloats:
        return self.site(k).floats

    def require_nonsingular(self) -> None:
        """Raise ``NonSingularError`` unless the shift is certified non-singular."""

    @cached_property
    def uniformity(self) -> UniformityBound:
        """The exact sup of the site ratios; no shape needs a horizon."""
        return UniformityBound(float(self.uniformity_fraction()), True)

    def kakutani_cost(self, horizon: int) -> tuple[str, int]:
        """(what, cells) of ``kakutani`` at ``horizon``, the runner's cost."""
        return "horizon", horizon

    def configuration(self, seed: int) -> Configuration:
        return Configuration(seed, self.levels_at)

    def run_configuration(self, master_seed: int, run: int) -> Configuration:
        return self.configuration(spawn(master_seed, run))

    def rows(self, seeds: np.ndarray) -> PointRows:
        """``configuration(seeds[r])`` for every row r, as one batch."""
        levels_of = lambda p: self.levels_at(p[0], 1)  # noqa: E731
        return PointRows(combine_seeds(seeds, (TAG_SYMBOL,)), np.zeros((len(seeds), 1), np.int64), levels_of)

    def run_grid(self, master_seed: int, n_runs: int, lo: int, hi: int) -> np.ndarray:
        """(n_runs, hi - lo + 1) symbols; row r is
        ``run_configuration(master_seed, r).block(lo, hi)``."""
        return self.configuration(master_seed).grid(spawn_vec(master_seed, np.arange(n_runs)), lo, hi)


class CompactFamily(BernoulliFamily):
    """Equal to ``base`` outside the finitely many perturbed sites; an empty
    window is the iid family."""

    def __init__(self, base: SiteMeasure, window: Mapping[int, SiteMeasure]) -> None:
        self.base = base
        self.alphabet = Alphabet(base.n_symbols)
        self.window = {
            int(k): m for k, m in window.items() if m.probs != base.probs
        }
        if any(m.n_symbols != base.n_symbols for m in self.window.values()):
            raise ValueError("window measures must share the base alphabet")

    def site(self, k: int) -> SiteMeasure:
        return self.window.get(k, self.base)

    def kakutani(self, horizon: int, tol: float) -> KakutaniResult:
        affected = sorted({k for i in self.window for k in (i, i + 1)})
        return _window_kakutani(
            ((abs(k), hellinger_sq(self.site(k), self.site(k - 1))) for k in affected), horizon
        )

    def log_derivative(self, x: Configuration, n: int, tol: float) -> LogValue:
        log_x = _window_log_ratio(self.base, self.window, x.symbol, lambda i: i + n)
        return LogValue(log_x, 0.0)

    def cocycle_hull(self, shifts: np.ndarray, tol: float) -> tuple[int, int]:
        """The hull of what ``log_derivative`` reads at the shifts +-v, v in
        ``shifts`` (nonnegative): the window and its translates."""
        if not self.window or not len(shifts):
            return 0, -1
        return min(self.window) - int(shifts.max()), max(self.window) + int(shifts.max())

    def uniformity_fraction(self) -> Fraction:
        """Exact sup_k max/min site probability ratio."""
        return max([self.base.ratio] + [m.ratio for m in self.window.values()])

    @cached_property
    def term_log_floor(self) -> float:
        """Each perturbed site moves log (T^n)'(x) by at most 2 log L."""
        return -2.0 * len(self.window) * math.log(self.uniformity.value) if self.window else 0.0

    def effective_window(self, tol: float) -> tuple[dict[int, SiteFloats], float]:
        """The perturbed sites' float records; nothing is truncated."""
        return {k: m.floats for k, m in self.window.items()}, 0.0

    @cached_property
    def levels_at(self) -> LevelsAt:
        levels = {k: m.floats.levels for k, m in self.window.items()}
        return window_levels(self.base.floats.levels, levels)


class PeriodicFamily(BernoulliFamily):
    """site(k) = sites[k mod p], with at least two distinct sites.

    Build through ``periodic_family``, which turns constant sites into the
    equivalent ``CompactFamily``.
    """

    def __init__(self, sites) -> None:
        self.sites = tuple(sites)
        if len({m.n_symbols for m in self.sites}) != 1:
            raise ValueError("all site measures must share one alphabet")
        if len({m.probs for m in self.sites}) < 2:
            raise ValueError("periodic sites must not all be equal")
        self.alphabet = Alphabet(self.sites[0].n_symbols)

    @property
    def period(self) -> int:
        return len(self.sites)

    def site(self, k: int) -> SiteMeasure:
        return self.sites[k % self.period]

    def require_nonsingular(self) -> None:
        raise NonSingularError(
            "periodic family with unequal sites has a divergent Kakutani sum"
        )

    def kakutani(self, horizon: int, tol: float) -> KakutaniResult:
        terms = {(r,): hellinger_sq(self.site(r), self.site(r - 1)) for r in range(self.period)}
        return _periodic_kakutani(terms, (self.period,), horizon)

    def uniformity_fraction(self) -> Fraction:
        """Exact max/min site probability ratio over one period."""
        return max(m.ratio for m in self.sites)

    @cached_property
    def levels_at(self) -> LevelsAt:
        return periodic_levels([m.floats.levels for m in self.sites])


def periodic_family(sites) -> BernoulliFamily:
    """Family with site(k) = sites[k mod p]: the iid ``CompactFamily`` when
    every site is the same measure, a ``PeriodicFamily`` otherwise."""
    sites = tuple(sites)
    if not sites:
        raise ValueError("need at least one site measure")
    if all(m == sites[0] for m in sites):
        return CompactFamily(sites[0], {})
    return PeriodicFamily(sites)


class SummableFamily(BernoulliFamily):
    """Two-symbol family with site k = (1/2 + c r^|k|, 1/2 - c r^|k|), for
    exact 0 < c < 1/4 and 0 < r < 1 (and float(r) < 1), around the fair coin
    ``base``.

    ``majorant(k)`` dominates max_j |log(site(k)_j / base_j)|, ``tail(h)``
    dominates the sum of the majorant over |k| > h, and ``sup`` dominates
    the majorant everywhere: |log(1 +- 2e)| <= 4e for e = c r^|k| < 1/4.
    """

    base = SiteMeasure.of([Fraction(1, 2), Fraction(1, 2)])
    alphabet = Alphabet(2)
    #: no certified floor: the conservativity verdict is a heuristic
    term_log_floor = None

    def __init__(self, c: Fraction, r: Fraction) -> None:
        if not (0 < c < Fraction(1, 4) and 0 < r < 1):
            raise ValueError("need 0 < c < 1/4 and 0 < r < 1")
        if float(r) == 1.0:
            raise ValueError(f"r = {r} rounds to the float 1.0, so the tail bound diverges")
        self.cr = (c.numerator, c.denominator, r.numerator, r.denominator)
        self.sup = 4.0 * float(c)
        self._rf = float(r)

    def site(self, k: int) -> SiteMeasure:
        return _summable_site(self.cr, abs(k))

    def site_floats(self, k: int) -> SiteFloats:
        k = abs(k)
        return self.base.floats if k >= self._fair_from else _summable_floats(self.cr, k)

    @cached_property
    def _fair_from(self) -> float:
        """The least k with c r^k <= 2^-55, from which on every site's float
        record is the fair coin's (``_summable_floats``), so that a block
        reaching far out costs no big-int power per coordinate; infinite
        when its float estimate lies past ``RANGE_CAP``.  Each step takes the
        sign of k log(q/p) - log(2^55 a/b) from floats, within a bound on
        their error, and from the powers p^k, q^k only when that cannot tell."""
        a, b, p, q = self.cr
        k = math.ceil((math.log(a) - math.log(b) + 55 * math.log(2)) / -math.log(self._rf))
        if k > RANGE_CAP:
            return math.inf
        # log1p keeps log(q/p) accurate as r -> 1; each log is within a few ulps
        la, lb, step = math.log(a), math.log(b), math.log1p((q - p) / p)

        def fair(k: int) -> bool:
            v, err = k * step - 55 * math.log(2) - la + lb, 2.0**-46 * (k * step + abs(la) + abs(lb) + 40)
            return v > err or (v >= -err and (a * p**k) << 55 <= b * q**k)

        k = max(k, 0)
        while k > 0 and fair(k - 1):
            k -= 1
        while not fair(k):
            k += 1
        return k

    def _site_roots(self, reach: int) -> Iterator[tuple[float, float]]:
        """sqrt of each float probability of site k, for k = -reach - 1 ..
        reach.  Site k is ((d + 2e) / 2d, (d - 2e) / 2d) with e / d =
        c r^|k|, and int true division rounds correctly, as ``float`` of the
        site's Fractions does; e and d move by one factor of r a step."""
        a, b, p, q = self.cr
        e, d = a * p ** (reach + 1), b * q ** (reach + 1)
        for k in range(-reach - 1, reach + 1):
            yield math.sqrt((d + 2 * e) / (2 * d)), math.sqrt((d - 2 * e) / (2 * d))
            if k < 0:
                e, d = e // p, d // q
            else:
                e, d = e * p, d * q

    def majorant(self, k: int) -> float:
        return self.sup * self._rf ** abs(k)

    def tail(self, h: int) -> float:
        return 2.0 * self.sup * self._rf ** (h + 1) / (1.0 - self._rf)

    def kakutani(self, horizon: int, tol: float) -> KakutaniResult:
        """The sum of ``hellinger_sq`` over consecutive sites, in the same
        order and with the same float terms.  Past ``_fair_from`` both sites
        of a pair round to the float 0.5, so the pair adds exactly 0.0 and
        the sum stops there."""
        reach = min(horizon, self._fair_from)
        value = sum(
            (s - t) ** 2 + (u - v) ** 2 for (t, v), (s, u) in pairwise(self._site_roots(reach))
        )
        tail_bound = math.exp(self.sup) * self.sup * self.tail(horizon - 1)
        verdict = CONVERGENT if tail_bound <= tol else INCONCLUSIVE
        return KakutaniResult(float(value), verdict, tail_bound)

    def kakutani_cost(self, horizon: int) -> tuple[str, int]:
        """``kakutani`` walks the sites out to min(horizon, ``_fair_from``)
        with big-int powers of r that grow by one factor a site, so its work
        grows with the square of that reach, in words of r's denominator."""
        reach, words = min(horizon, self._fair_from), -(-self.cr[3].bit_length() // 64)
        return "(min(horizon, fair cutoff) + 1)^2 x denominator words", (reach + 1) ** 2 * words

    @lru_cache(maxsize=_SUMMABLE_CACHE)
    def _radius(self, n: int, tol: float) -> int:
        """The radius ``log_derivative`` sums over at a shift of size n > 0,
        searched once for each (family, n, tol)."""
        radius = max(n + 1, 8)
        while self.tail(radius - n) + self.tail(radius) > tol:
            radius *= 2
            if radius > RANGE_CAP:
                raise ToleranceError(f"tolerance {tol} unachievable within cap")
        return radius

    def cocycle_hull(self, shifts: np.ndarray, tol: float) -> tuple[int, int]:
        """As ``CompactFamily.cocycle_hull``; the radii are searched in order,
        so the first shift out of reach raises ``ToleranceError``."""
        reach = max((self._radius(v, tol) for v in shifts.tolist() if v), default=0)
        return -reach, reach

    def log_derivative(self, x: Configuration, n, tol: float) -> LogValue:
        """The sum over k in [-R, R] of the log ratio of site k - n to site k
        at x_k, for the radius R that ``tol`` needs at |n|.  ``n`` is one
        shift for every row of x, or one per row of a batch ``x``, whose rows
        are read in groups that share R, about ``GRID_BLOCK`` cells at once."""
        if np.ndim(n) == 0:
            radius = self._radius(abs(n), tol)
            return LogValue(self._window_sum(x, n, radius), self.tail(radius - abs(n)) + self.tail(radius))
        sizes = np.abs(n).tolist()
        radius = {v: self._radius(v, tol) for v in dict.fromkeys(sizes)}
        err = {v: self.tail(r - v) + self.tail(r) for v, r in radius.items()}
        radii, total = np.array([radius[v] for v in sizes]), np.empty(len(n))
        for r in set(radius.values()):
            rows = np.flatnonzero(radii == r)
            step = max(1, GRID_BLOCK // (2 * r + 1))
            for at in np.array_split(rows, range(step, len(rows), step)):
                total[at] = self._window_sum(x.take(at), n[at, None], r)
        return LogValue(total, np.array([err[v] for v in sizes]))

    def _window_sum(self, x, n, radius: int):
        """``log_derivative`` at n (or a column of shifts) over [-radius,
        radius]: the scalar loop's terms, added one at a time from 0.0 in k
        order by ``np.cumsum``; + 0.0 turns the -0.0 it leaves when every
        term is -0.0 into the loop's +0.0."""
        ks = np.arange(-radius, radius + 1)
        lo, hi = -radius - max(int(np.max(n)), 0), radius - min(int(np.min(n)), 0)
        logs = np.array([self.site_floats(j).logs for j in range(lo, hi + 1)])
        s = x.block(-radius, radius) - 1
        terms = logs[ks - n - lo, s] - logs[ks - lo, s]
        return np.cumsum(terms, axis=-1)[..., -1] + 0.0

    @cached_property
    def uniformity(self) -> UniformityBound:
        """The supremum of the site ratios, flagged ``exact=False``.  The
        ratio (1/2 + c r^|k|) / (1/2 - c r^|k|) falls as |k| grows and
        rounding to float is monotone, so at any horizon the supremum is
        site 0's."""
        return UniformityBound(float(self.site(0).ratio), False)

    @cached_property
    def levels_at(self) -> LevelsAt:
        return rule_levels(lambda k: self.site_floats(k).levels)

    def effective_window(self, tol: float) -> tuple[dict[int, SiteFloats], float]:
        """Sites with majorant above a cutoff; the per-factor truncation error
        of treating everything else as the base is at most the returned bound.
        """
        h = 1
        while 2.0 * self.tail(h) > tol:
            h *= 2
            if h > RANGE_CAP:
                raise ToleranceError(f"tolerance {tol} unachievable within cap")
        return {k: self.site_floats(k) for k in range(-h, h + 1)}, 2.0 * self.tail(h)


def _summable_site(cr: tuple[int, int, int, int], k: int) -> SiteMeasure:
    """Site k >= 0 of the summable family with c = cr[0]/cr[1], r = cr[2]/cr[3]."""
    a, b, p, q = cr
    eps = Fraction(a * p**k, b * q**k)
    return SiteMeasure((Fraction(1, 2) + eps, Fraction(1, 2) - eps))


@lru_cache(maxsize=_SUMMABLE_CACHE)
def _summable_floats(cr: tuple[int, int, int, int], k: int) -> SiteFloats:
    """The float record of ``_summable_site(cr, k)``.  When e = c r^k is at
    most 2^-55, both 1/2 + e and 1/2 - e round to 0.5 (ties to even: 2^-54
    and 2^-55 are half an ulp above and below 1/2), so the record is the
    fair coin's and the site is never built."""
    a, b, p, q = cr
    if (a * p**k) << 55 <= b * q**k:
        return SummableFamily.base.floats
    return _summable_site(cr, k).floats


def measure(family: BernoulliFamily, cyl: Cylinder) -> Fraction:
    """Exact product-measure mass of a cylinder."""
    out = Fraction(1)
    for i in cyl.coords():
        s = cyl.symbol(i)
        if not family.alphabet.contains(s):
            raise ValueError(f"symbol {s} outside alphabet")
        out *= family.site(i).prob(s)
    return out


# ---------------------------------------------------------------------------
# Kakutani equivalence sum


def kakutani_sum(
    family: BernoulliFamily, horizon: int, tol: float = 1e-9
) -> KakutaniResult:
    """Partial sum over |k| <= horizon of the squared Hellinger increments
    between consecutive site measures, with a certified verdict when the
    family shape supports one.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return family.kakutani(horizon, tol)


def _window_kakutani(increments: Iterable[tuple[int, float]], horizon: int) -> KakutaniResult:
    """The certified Kakutani sum of a base + finite window family from its
    (distance, increment) pairs: those within the horizon summed, the rest
    as the tail."""
    sums = [0.0, 0.0]
    for reach, term in increments:
        sums[reach > horizon] += term
    return KakutaniResult(sums[0], CONVERGENT, sums[1])


def _periodic_kakutani(terms: dict, period: tuple[int, ...], horizon: int) -> KakutaniResult:
    """The Kakutani sum over the box of the given radius of a family whose
    increments repeat with ``period``, from the increment at each residue."""
    value = 0.0
    for r, term in terms.items():
        if term:
            # count of k in the box with k = r (mod period)
            count = 1
            for ri, p in zip(r, period):
                count *= (horizon - ri) // p + (horizon + ri) // p + 1
            value += count * term
    return KakutaniResult(value, DIVERGENT, None)


# ---------------------------------------------------------------------------
# Radon-Nikodym cocycle


def rn_derivative(
    family: BernoulliFamily, x: Configuration, n: int, tol: float = 1e-12
) -> LogValue:
    """log of d(mu o T^n)/d mu at x, with certified truncation error.

    For compactly perturbed families the infinite product has finitely many
    non-unit factors and the error bound is zero.
    """
    family.require_nonsingular()
    if abs(n) > RANGE_CAP:
        raise ValueError(f"|n| exceeds cap {RANGE_CAP}")
    if n == 0:
        return LogValue(0.0, 0.0)
    return family.log_derivative(x, n, tol)


def _window_log_ratio(base: SiteMeasure, window: Mapping, symbol, moved) -> float:
    """log of the density of a translated base + window family at x: the sum
    over perturbed sites i of log(m_i / base) at x_{moved(i)} minus the same
    at x_i, read through ``symbol`` (one symbol, or one array per row of a
    batch), added site by site in window order, so that each entry of a
    batch's sums equals the single point's sum bit for bit."""
    base_logs = np.array(base.floats.logs)
    total = 0.0
    for i, m in window.items():
        table = np.array(m.floats.logs) - base_logs
        total += table[symbol(moved(i)) - 1]
        total -= table[symbol(i) - 1]
    return total


def _window_log_ratios(base: SiteFloats, window: Mapping, here: Callable) -> Callable:
    """The array form of ``_window_log_ratio``: returns ``add(out, there)``,
    which adds into ``out``, site by site in window order, log(m_i / base)
    at the symbols ``there(i)`` minus the same at ``here(i)``, as
    ``t = table[there]; t -= here; out += t``.  ``window`` maps each site i
    to its ``SiteFloats``; the tables and the ``here`` terms are built once."""
    base_logs = np.array(base.logs)
    # entry s of a site's table is its log ratio at symbol s
    tables = {i: np.concatenate(([0.0], np.array(m.logs) - base_logs)) for i, m in window.items()}
    heres = {i: table[here(i)] for i, table in tables.items()}

    def add(out: np.ndarray, there: Callable) -> np.ndarray:
        t = np.empty(out.shape)
        for i, table in tables.items():
            np.take(table, there(i), out=t, mode="clip")
            t -= heres[i]
            out += t
        return out

    return add


def cocycle_gaps(
    family: BernoulliFamily, seeds: np.ndarray, n: np.ndarray, m: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Chain-rule defect |log (T^{n+m})'(x) - log (T^n)'(T^m x) - log (T^m)'(x)|
    of x = ``family.configuration(seeds[r])`` at (n[r], m[r]), for every r,
    each equal to the one the scalar ``rn_derivative`` calls give, bit for
    bit, raising what they raise first, case by case.  The chain rule holds
    when the defect is at most ``3 * tol + LOG_SLACK``.
    """
    # the shifts in the scalar order, checked before any key is formed
    shifts = np.stack([n + m, n, m], axis=1).reshape(-1)
    _check_shifts(family, shifts, tol)
    shifts = shifts.astype(np.int64)
    # as in rn_derivative, a zero shift gives 0.0 and reads nothing
    moved = np.flatnonzero(shifts)

    def logs(views: PointRows) -> np.ndarray:
        out = np.zeros(len(shifts))
        if len(moved):
            out[moved] = family.log_derivative(views.take(moved), shifts[moved], tol).log_magnitude
        return out

    return _chain_gaps(family.rows(seeds), shifts[2::3], logs)


def _chain_gaps(rows: PointRows, moves: np.ndarray, logs: Callable) -> np.ndarray:
    """|d[3c] - d[3c + 1] - d[3c + 2]| per case c, for d = ``logs`` of a
    batch of three views a case: its point, the point read moved by
    ``moves[c]``, and the point again."""
    zero = np.zeros_like(moves)
    views = rows.take(np.repeat(np.arange(len(moves)), 3)).moved(np.stack([zero, moves, zero], axis=1))
    d = np.broadcast_to(logs(views), 3 * len(moves)).reshape(-1, 3)
    return np.abs(d[:, 0] - d[:, 1] - d[:, 2])


def _check_shifts(family: BernoulliFamily, shifts: np.ndarray, tol: float) -> None:
    """Raise what scalar ``rn_derivative`` calls at the shifts, in order, raise
    first: the certificate, then per shift the cap or the tolerance."""
    family.require_nonsingular()
    sizes = list(dict.fromkeys(np.abs(shifts).tolist()))  # in the order of first use
    stop = next((i for i, v in enumerate(sizes) if v > RANGE_CAP), len(sizes))
    family.cocycle_hull(np.array(sizes[:stop], dtype=np.int64), tol)
    if stop < len(sizes):
        raise ValueError(f"|n| exceeds cap {RANGE_CAP}")


def _cocycle_window(family: BernoulliFamily, tol: float) -> tuple[dict[int, SiteFloats], float]:
    """The window the vectorized cocycle reads and its per-entry truncation
    bound, once the family is certified non-singular."""
    family.require_nonsingular()
    return family.effective_window(tol)


def rn_log_weights(
    family: BernoulliFamily,
    x: Configuration,
    ns: np.ndarray,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Vectorized log (T^n)'(x) over an array of n values.

    Returns (log weights, per-entry truncation error bound).  Exact (bound 0)
    for compact families.
    """
    ns = np.asarray(ns, dtype=np.int64)
    window, err = _cocycle_window(family, tol)
    out = np.empty(len(ns))
    for cols, logs, _ in _walk(family, x.block, (), window, ns):
        out[cols] = logs
    return out, err


def _walk(
    family: BernoulliFamily,
    read: Callable[[int, int], np.ndarray],
    lead: tuple[int, ...],
    window: Mapping[int, SiteFloats],
    offsets: range | np.ndarray,
    coords: Sequence[int] = (),
    values: Callable = lambda out, at: out,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray | float]]:
    """The one walk of a Bernoulli read over shifted columns: one block
    ``read(lo, hi)`` of shape ``lead + (cells,)`` (a configuration's
    ``block`` with lead ``()``, or ``family.run_grid`` with ``(n_runs,)``)
    covering every window site at offset 0 and every window site and
    coordinate in ``coords`` at every offset; one longer than ``RANGE_CAP``
    is refused (``ValueError``) before it, or any array as long as
    ``offsets``, is made.  Yields ``(cols, log w, f)`` per chunk ``cols`` of
    ``offsets`` (about ``GRID_BLOCK`` cells): log (T^n)' over ``window``,
    and ``values(out, at)``, the values at T^n added into a zero ``out``
    over the symbols ``at(j)`` at j + n, which ``at`` writes into one
    reused buffer."""
    sites = [*window, *coords]
    lo, block = 0, np.empty(lead + (0,), dtype=np.int16)
    steps = isinstance(offsets, range)
    if sites:
        ends = (offsets[0], offsets[-1]) if steps else (offsets.min(), offsets.max())
        first, last = sorted(int(n) for n in ends)
        reach = [*(k + first for k in sites), *(k + last for k in sites), *window]
        lo, hi = min(reach), max(reach)
        if hi - lo + 1 > RANGE_CAP:
            raise ValueError(
                f"the series reads {hi - lo + 1} coordinates [{lo}, {hi}], over the cap {RANGE_CAP}"
            )
        block = read(lo, hi)
    if window:
        add = _window_log_ratios(family.base.floats, window, lambda i: block[..., i - lo, None])
    else:
        add = lambda out, there: out  # noqa: E731
    if steps:
        offsets = np.arange(offsets.start, offsets.stop, offsets.step)
    rows = max(1, math.prod(lead))
    width = max(1, GRID_BLOCK // rows)
    idx = np.empty(min(width, len(offsets)), dtype=np.intp)
    buf = np.empty(rows * len(idx), dtype=block.dtype)

    def chunks():
        for c0 in range(0, len(offsets), width):
            cols = slice(c0, min(c0 + width, len(offsets)))
            shape = lead + (cols.stop - c0,)

            def at(j: int) -> np.ndarray:
                there = np.add(offsets[cols], j - lo, out=idx[: shape[-1]])
                out = buf[: rows * shape[-1]].reshape(shape)
                return np.take(block, there, axis=-1, out=out, mode="clip")

            yield cols, add(np.zeros(shape), at), values(np.zeros(shape), at)

    return chunks()


def _running_sums(terms: Iterable[tuple]) -> Iterator[tuple[slice, np.ndarray]]:
    """``(cols, sums)`` per chunk ``(cols, log w, v)`` of ``terms``, w =
    exp(log w): ``sums[0]`` holds the running sums of w v and ``sums[1]``
    those of w along the last axis, over every term so far.

    Each chunk's first term takes the last sums of the chunk before it (0.0
    for the first), and ``np.cumsum`` adds one term at a time from the
    left, so every sum is the one a single ``np.cumsum`` over the whole
    series gives, bit for bit."""
    carry = 0.0
    for cols, logs, values in terms:
        sums = np.empty((2,) + logs.shape)
        np.exp(logs, out=sums[1])
        np.multiply(sums[1], values, out=sums[0])
        sums[..., :1] += carry
        np.cumsum(sums, axis=-1, out=sums)
        carry = sums[..., -1:]
        yield cols, sums


def _checkpoint_sums(terms: Iterable[tuple], at: Sequence[int]) -> np.ndarray:
    """(2, len(at)) array: at each index i in ``at``, row 0 holds the sum of
    w_k v_k and row 1 the sum of w_k over k <= i, where ``terms`` yields
    consecutive chunks of (cols, log w, v).  Only these sums are kept."""
    at = np.asarray(at, dtype=np.intp)
    out = np.empty((2, len(at)))
    for cols, sums in _running_sums(terms):
        inside = (cols.start <= at) & (at < cols.stop)
        out[:, inside] = sums[:, at[inside] - cols.start]
    return out


# ---------------------------------------------------------------------------
# Uniformity constant and homoclinic ratio bounds


def uniformity_constant(family: BernoulliFamily, horizon: int = 0) -> UniformityBound:
    """Uniform bound on per-site max/min probability ratios.

    Exact for compact and periodic families; for summable ones the
    supremum over every site, site 0's, flagged ``exact=False``.  No shape
    reads ``horizon``, so each family's bound is computed once.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return family.uniformity


@dataclass(frozen=True)
class RatioBoundCheck:
    ratio_log: float
    product_bound_log: float
    uniform_bound_log: float
    within_product: bool
    within_uniform: bool

    @property
    def ok(self) -> bool:
        return self.within_product and self.within_uniform


def homoclinic_ratio_bound_check(
    family: BernoulliFamily,
    x: Configuration,
    y: Configuration,
    radius: int,
    n: int,
    tol: float = 1e-12,
) -> RatioBoundCheck:
    """Compare log (T^n)'(x) - log (T^n)'(y) against the two-sided bounds for
    a pair agreeing outside [-radius, radius].

    The per-site product bound is prod_{|k|<=radius} (M_k M_{k-n})/(m_k m_{k-n});
    the uniform bound replaces every factor by L^2, giving exponent
    2*(2*radius+1)*log L.  (The seemingly tighter exponent 4*radius*log L fails
    already for pairs differing only at the origin.)
    """
    rx = rn_derivative(family, x, n, tol)
    ry = rn_derivative(family, y, n, tol)
    ratio_log = rx.log_magnitude - ry.log_magnitude
    slack = rx.error_bound + ry.error_bound + LOG_SLACK
    product_bound, uniform_bound = _homoclinic_bounds(family, radius, n)
    return RatioBoundCheck(
        ratio_log=ratio_log,
        product_bound_log=product_bound,
        uniform_bound_log=uniform_bound,
        within_product=abs(ratio_log) <= product_bound + slack,
        within_uniform=abs(ratio_log) <= uniform_bound + slack,
    )


def homoclinic_scan(
    family: BernoulliFamily, x: Configuration, radius_max: int, n_max: int, tol: float = 1e-12
) -> tuple[int, int]:
    """(pairs checked, violations) of ``homoclinic_ratio_bound_check`` over
    x and every y that rewires x on [-r, r], for r <= radius_max and
    |n| <= n_max.  The shifts are taken ``GRID_BLOCK`` at a time: x's cocycle
    at each, as the pair check takes it, then one block of x that covers
    what every y reads at them.  The words of a radius are rows of a batch
    over that block, checked n by n with the pair check's float comparisons."""
    size, checked, violations = family.alphabet.size, 0, 0
    if radius_max < 0:
        return checked, violations  # no pairs, so nothing is read or raised
    for n0 in range(-n_max, n_max + 1, GRID_BLOCK):
        ns = range(n0, min(n0 + GRID_BLOCK, n_max + 1))
        # in the pairs' order, so the first bad shift raises before x's block is read
        rx = [rn_derivative(family, x, n, tol) for n in ns]
        lo, hi = family.cocycle_hull(np.abs(np.array(ns)), tol)
        cells = x.block(lo, hi)
        # a block of words holds at most GRID_BLOCK symbols of x's block
        step = max(1, GRID_BLOCK // max(hi - lo + 1, 1))
        for radius in range(radius_max + 1):
            words = size ** (2 * radius + 1)
            bounds = [_homoclinic_bounds(family, radius, n) for n in ns]
            for w0 in range(0, words, step):
                # word w rewires x on [-r, r] to its base-|A| digits, the first
                # coordinate the most significant; only the block is ever read
                w = np.arange(w0, min(w0 + step, words))
                y = _Rows(np.repeat(cells[None], len(w), axis=0), lo)
                for i in range(max(-radius, lo), min(radius, hi) + 1):
                    y.cells[:, i - lo] = 1 + w // size ** (radius - i) % size
                for n, (log_x, err_x), (product, uniform) in zip(ns, rx, bounds):
                    ry = family.log_derivative(y, n, tol) if n else LogValue(0.0, 0.0)
                    ratio, slack = abs(log_x - ry.log_magnitude), err_x + ry.error_bound + LOG_SLACK
                    ok = (ratio <= product + slack) & (ratio <= uniform + slack)
                    violations += int(np.count_nonzero(~np.broadcast_to(ok, w.shape)))
                checked += len(w) * len(ns)
    return checked, violations


class _Rows:
    """One point per row of ``cells``, reading coordinate i at column i - lo."""

    def __init__(self, cells: np.ndarray, lo: int) -> None:
        self.cells, self.lo = cells, lo

    def symbol(self, i) -> np.ndarray:
        return self.cells[:, i - self.lo]

    def block(self, a: int, b: int) -> np.ndarray:
        return self.cells[:, a - self.lo : b - self.lo + 1]


def _homoclinic_bounds(family: BernoulliFamily, radius: int, n: int) -> tuple[float, float]:
    """The product and uniform bounds of ``homoclinic_ratio_bound_check``."""
    product_bound = 0.0
    for k in range(-radius, radius + 1):
        product_bound += family.site(k).log_ratio + family.site(k - n).log_ratio
    return product_bound, 2.0 * (2 * radius + 1) * math.log(family.uniformity.value)


# ---------------------------------------------------------------------------
# Conservativity probe


@dataclass(frozen=True)
class ConservativityReport:
    checkpoints: tuple[tuple[int, float], ...]
    verdict: str
    term_log_floor: float | None

    @property
    def final_sum(self) -> float:
        return self.checkpoints[-1][1]


def series_checkpoints(horizon: int) -> list[int]:
    """Powers of two up to the horizon, horizon last."""
    pts = []
    n = 1
    while n < horizon:
        pts.append(n)
        n *= 2
    pts.append(horizon)
    return pts


def conservativity_probe(
    family: BernoulliFamily, x: Configuration, horizon: int, tol: float = 1e-9
) -> ConservativityReport:
    """Partial sums of sum_{k=1..n} (T^{-k})'(x) at checkpoints.

    Divergence is certified for compact families through a computed uniform
    per-term lower bound (0 for the empty window); summable families get a
    labeled heuristic verdict from the growth of the partial sums.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    window, _ = _cocycle_window(family, tol)
    pts = series_checkpoints(horizon)
    decade = max(horizon // 10, 1)
    # the dual series of f = 1 at k = 1..horizon, read at the checkpoints
    # and at the decade
    terms = _walk(family, x.block, (), window, range(-1, -horizon - 1, -1), (), lambda out, at: 1.0)
    sums = _checkpoint_sums(terms, [n - 1 for n in pts] + [decade - 1])[1]
    checkpoints = tuple((n, float(s)) for n, s in zip(pts, sums))

    if family.term_log_floor is not None:
        return ConservativityReport(checkpoints, DIVERGENT, family.term_log_floor)

    total = checkpoints[-1][1]
    increment = total - float(sums[-1])
    if total > 1e3 and increment > 10.0:
        verdict = DIVERGENT_LOOKING
    elif increment < 1e-6:
        verdict = CONVERGENT_LOOKING
    else:
        verdict = INCONCLUSIVE
    return ConservativityReport(checkpoints, verdict, None)
