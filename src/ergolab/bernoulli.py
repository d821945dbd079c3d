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
from functools import cached_property, lru_cache, partial
from itertools import pairwise
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import NonSingularError, ToleranceError
from .seeding import spawn, spawn_vec, thresholds
from .shift_core import (
    RANGE_CAP,
    Alphabet,
    Configuration,
    Cylinder,
    LazyTail,
    LevelsAt,
    column_chunks,
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

    def log_probs(self) -> np.ndarray:
        return np.array(self.floats.logs, dtype=np.float64)


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
    """Base interface; use the concrete shapes below."""

    alphabet: Alphabet
    #: the sampling thresholds of every coordinate, which ``LazyTail``
    #: reads; each shape builds it once per family
    levels_at: LevelsAt

    def site(self, k: int) -> SiteMeasure:
        raise NotImplementedError

    def site_floats(self, k: int) -> SiteFloats:
        return self.site(k).floats

    def require_nonsingular(self) -> None:
        raise NotImplementedError

    def configuration(
        self, seed: int, pinned: Mapping[int, int] | None = None
    ) -> Configuration:
        return Configuration(LazyTail(seed, self.levels_at), pinned)

    def run_configuration(self, master_seed: int, run: int) -> Configuration:
        return self.configuration(spawn(master_seed, run))

    def run_grid(self, master_seed: int, n_runs: int, lo: int, hi: int) -> np.ndarray:
        """(n_runs, hi - lo + 1) symbols; row r is
        ``run_configuration(master_seed, r).block(lo, hi)``."""
        seeds = spawn_vec(master_seed, np.arange(n_runs))
        return LazyTail(master_seed, self.levels_at).grid(seeds, lo, hi)


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

    @property
    def half_width(self) -> int:
        """K with site(k) = base for |k| > K."""
        return max((abs(k) for k in self.window), default=0)

    def site(self, k: int) -> SiteMeasure:
        return self.window.get(k, self.base)

    def require_nonsingular(self) -> None:
        pass

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
        return _summable_floats(self.cr, abs(k))

    def majorant(self, k: int) -> float:
        return self.sup * self._rf ** abs(k)

    def tail(self, h: int) -> float:
        return 2.0 * self.sup * self._rf ** (h + 1) / (1.0 - self._rf)

    def require_nonsingular(self) -> None:
        pass

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
    if horizon > RANGE_CAP:
        raise ValueError(f"horizon {horizon} exceeds cap {RANGE_CAP}")

    if isinstance(family, CompactFamily):
        affected = sorted({k for i in family.window for k in (i, i + 1)})
        value = sum(
            hellinger_sq(family.site(k), family.site(k - 1))
            for k in affected
            if abs(k) <= horizon
        )
        remaining = sum(
            hellinger_sq(family.site(k), family.site(k - 1))
            for k in affected
            if abs(k) > horizon
        )
        return KakutaniResult(float(value), CONVERGENT, float(remaining))

    if isinstance(family, PeriodicFamily):
        p = family.period
        per_residue = [
            hellinger_sq(family.site(r), family.site(r - 1)) for r in range(p)
        ]
        value = 0.0
        for r, t in enumerate(per_residue):
            if t:
                # count of k in [-horizon, horizon] with k = r (mod p)
                count = (horizon - r) // p + (horizon + r) // p + 1
                value += count * t
        return KakutaniResult(value, DIVERGENT, None)

    assert isinstance(family, SummableFamily)
    sites = (family.site(k) for k in range(-horizon - 1, horizon + 1))
    value = sum(hellinger_sq(b, a) for a, b in pairwise(sites))
    tail_bound = math.exp(family.sup) * family.sup * family.tail(horizon - 1)
    verdict = CONVERGENT if tail_bound <= tol else INCONCLUSIVE
    return KakutaniResult(float(value), verdict, tail_bound)


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

    if isinstance(family, CompactFamily):
        base = family.base.floats.logs
        log_x = 0.0
        for i, m in family.window.items():
            logs, there, here = m.floats.logs, x.symbol(i + n) - 1, x.symbol(i) - 1
            log_x += logs[there] - base[there]
            log_x -= logs[here] - base[here]
        return LogValue(log_x, 0.0)

    assert isinstance(family, SummableFamily)
    radius = max(abs(n) + 1, 8)
    while family.tail(radius - abs(n)) + family.tail(radius) > tol:
        radius *= 2
        if radius > RANGE_CAP:
            raise ToleranceError(f"tolerance {tol} unachievable within cap")
    total = 0.0
    symbols = x.block(-radius, radius).tolist()
    for k, s in zip(range(-radius, radius + 1), symbols):
        total += family.site_floats(k - n).logs[s - 1] - family.site_floats(k).logs[s - 1]
    return LogValue(total, family.tail(radius - abs(n)) + family.tail(radius))


def cocycle_gap(
    family: BernoulliFamily,
    x: Configuration,
    n: int,
    m: int,
    tol: float = 1e-12,
) -> float:
    """Chain-rule defect |log (T^{n+m})'(x) - log (T^n)'(T^m x) - log (T^m)'(x)|.

    Each of the three terms is within ``tol`` of its limit, so the chain rule
    holds when the defect is at most ``3 * tol + LOG_SLACK``.
    """
    total = rn_derivative(family, x, n + m, tol)
    first = rn_derivative(family, x.shifted(m), n, tol)
    second = rn_derivative(family, x, m, tol)
    return abs(total.log_magnitude - first.log_magnitude - second.log_magnitude)


def _log_weights(
    family: BernoulliFamily,
    read: Callable[[int, int], np.ndarray],
    lead: tuple[int, ...],
    ns,
    tol: float,
) -> tuple[np.ndarray, float]:
    """log (T^n)' for n in ``ns`` over the symbols ``read(lo, hi)`` returns,
    shape ``lead + (cells,)``, as an array of shape ``lead + (len(ns),)``,
    plus the per-entry truncation error bound: the kernel of both
    ``rn_log_weights`` and ``rn_log_weight_grid``."""
    family.require_nonsingular()
    ns = np.asarray(ns, dtype=np.int64)
    window, err = family.effective_window(tol)
    out = np.zeros(lead + (len(ns),))
    if not window:
        return out, err
    lo = int(min(k for k in window) + min(ns.min(), 0))
    hi = int(max(k for k in window) + max(ns.max(), 0))
    block = read(lo, hi)
    base_logs = family.base.log_probs()
    # entry s of a site's table is its log ratio at symbol s
    tables = [np.concatenate(([0.0], np.array(m.logs) - base_logs)) for m in window.values()]
    heres = [table[block[..., i - lo, None]] for i, table in zip(window, tables)]
    for cols, take in column_chunks(block, ns):
        chunk = out[..., cols]
        t = np.empty(chunk.shape)
        for i, table, here in zip(window, tables, heres):
            np.take(table, take(i - lo), out=t, mode="clip")
            t -= here
            chunk += t
    return out, err


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
    return _log_weights(family, x.block, (), ns, tol)


def rn_log_weight_grid(
    family: BernoulliFamily,
    master_seed: int,
    n_runs: int,
    ns: np.ndarray,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """(n_runs, len(ns)) log weights; row r equals ``rn_log_weights`` at
    ``family.run_configuration(master_seed, r)``."""
    read = partial(family.run_grid, master_seed, n_runs)
    return _log_weights(family, read, (n_runs,), ns, tol)


# ---------------------------------------------------------------------------
# Uniformity constant and homoclinic ratio bounds


def uniformity_fraction(family: BernoulliFamily) -> Fraction:
    """Exact sup_k max/min site probability ratio (compact and periodic)."""
    if isinstance(family, CompactFamily):
        return max(
            [family.base.ratio] + [m.ratio for m in family.window.values()]
        )
    if isinstance(family, PeriodicFamily):
        return max(m.ratio for m in family.sites)
    raise ValueError("no exact uniformity constant for summable families")


def uniformity_constant(family: BernoulliFamily, horizon: int = 0) -> UniformityBound:
    """Uniform bound on per-site max/min probability ratios.

    Exact for compact and periodic families; a horizon-scan supremum
    flagged ``exact=False`` for summable ones.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if isinstance(family, SummableFamily):
        value = max(
            float(family.site(k).ratio) for k in range(-horizon, horizon + 1)
        )
        return UniformityBound(value, False)
    return UniformityBound(float(uniformity_fraction(family)), True)


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

    product_bound = 0.0
    for k in range(-radius, radius + 1):
        product_bound += family.site(k).log_ratio + family.site(k - n).log_ratio
    L = uniformity_constant(family, horizon=radius + abs(n)).value
    uniform_bound = 2.0 * (2 * radius + 1) * math.log(L)

    return RatioBoundCheck(
        ratio_log=ratio_log,
        product_bound_log=product_bound,
        uniform_bound_log=uniform_bound,
        within_product=abs(ratio_log) <= product_bound + slack,
        within_uniform=abs(ratio_log) <= uniform_bound + slack,
    )


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
    logs, _ = rn_log_weights(family, x, -np.arange(1, horizon + 1), tol=tol)
    sums = np.cumsum(np.exp(logs))
    pts = series_checkpoints(horizon)
    checkpoints = tuple((n, float(sums[n - 1])) for n in pts)

    if isinstance(family, CompactFamily):
        L = float(uniformity_fraction(family))
        floor = -2.0 * len(family.window) * math.log(L) if family.window else 0.0
        return ConservativityReport(checkpoints, DIVERGENT, floor)

    total = float(sums[-1])
    at_decade = float(sums[max(horizon // 10, 1) - 1])
    increment = total - at_decade
    if total > 1e3 and increment > 10.0:
        verdict = DIVERGENT_LOOKING
    elif increment < 1e-6:
        verdict = CONVERGENT_LOOKING
    else:
        verdict = INCONCLUSIVE
    return ConservativityReport(checkpoints, verdict, None)
