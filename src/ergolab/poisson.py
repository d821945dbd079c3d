"""Poisson point processes over countable weighted ground spaces.

The sigma-finite base measure is a weighted counting measure on a countable
set of integer-labelled points, moved by an invertible map.  Counts in
finite regions are independent Poissons with the region weights as means,
which makes every cylinder-event probability exactly computable by
decomposing the constraint regions into atoms and enumerating consistent
atom counts.  Sampling is a pure function of (seed, point), so the induced
suspension dynamics is reproducible and race-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CertifiedFailure
from .seeding import (
    GRID_BLOCK,
    TAG_POISSON,
    _keyed_counts,
    combine_seeds,
    distinct_rows,
    fold,
    spawn_vec,
    thresholds,
    uniform01_grid,  # noqa: F401  no count reads it; perfbench traces it at this name
    zigzag,
)

#: largest admissible constraint count (keeps atom enumeration finite)
COUNT_CAP = 64

#: split threshold for per-point Poisson sampling
_SPLIT_MEAN = 50.0


@dataclass(frozen=True)
class GroundSpace:
    """Countable point set with nonnegative weights and an invertible map.

    ``jump(p, k)`` is the k-fold application of the map (negative k for the
    inverse), on ints or broadcast over int64 arrays (a jump that ignores k
    may return p as it is); ``weight`` is nonnegative wherever events look
    and raises ValueError at a point outside the ground.
    """

    weight: Callable[[int], Fraction]
    jump: Callable[[int, int], int]

    def region_weight(self, region: Iterable[int]) -> Fraction:
        """The exact sum of the weights: integer numerators added over a
        running common denominator, one Fraction at the end."""
        num, den = 0, 1
        for p in region:
            w = self.weight(p)
            w = w if type(w) is Fraction else Fraction(w)
            d = w.denominator
            if den % d:
                step = d // math.gcd(den, d)
                num, den = num * step, den * step
            num += w.numerator * (den // d)
        return Fraction(num, den)


#: the unit weight, shared: a Fraction is immutable
_UNIT = Fraction(1)


def integer_translation(step: int = 1) -> GroundSpace:
    """Translation p -> p + step on Z with unit weights (no finite invariant
    probability: the canonical ergodic-suspension base)."""
    return GroundSpace(weight=lambda p: _UNIT, jump=lambda p, k: p + k * step)


def integer_identity() -> GroundSpace:
    return GroundSpace(weight=lambda p: _UNIT, jump=lambda p, k: p)


def finite_cycle(length: int) -> GroundSpace:
    if length < 1:
        raise ValueError("cycle length must be >= 1")

    def weight(p: int) -> Fraction:
        if not 0 <= p < length:
            raise ValueError(f"point {p} outside cycle of length {length}")
        return _UNIT

    def jump(p, k):
        # a point outside the cycle is refused by ``weight``, in array order
        if type(p) is np.ndarray:
            for q in p[(p < 0) | (p >= length)][:1].tolist():
                weight(q)
        elif not 0 <= p < length:
            weight(p)
        return (p + k) % length

    return GroundSpace(weight=weight, jump=jump)


def weighted_points(weights: Mapping[int, object]) -> GroundSpace:
    """Static ground space (identity map) with explicit point weights."""
    table = {int(p): Fraction(w) for p, w in weights.items()}
    for p, w in table.items():
        if w < 0:
            raise ValueError(f"point {p} has negative weight {w}")

    def weight(p: int) -> Fraction:
        if p not in table:
            raise ValueError(f"point {p} has no assigned weight")
        return table[p]

    return GroundSpace(weight=weight, jump=lambda p, k: p)


@dataclass(frozen=True)
class PoissonEvent:
    """Conjunction of count constraints [N(region_i) = k_i] on finite regions."""

    constraints: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self) -> None:
        for region, k in self.constraints:
            if k < 0 or k > COUNT_CAP:
                raise ValueError(f"count {k} outside [0, {COUNT_CAP}]")

    @classmethod
    def of(cls, constraints: Iterable[tuple[Iterable[int], int]]) -> "PoissonEvent":
        return cls(
            tuple((frozenset(int(p) for p in region), int(k)) for region, k in constraints)
        )

    @classmethod
    def count(cls, region: Iterable[int], k: int) -> "PoissonEvent":
        return cls.of([(region, k)])

    def support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for region, _ in self.constraints:
            out |= region
        return out

    def intersect(self, other: "PoissonEvent") -> "PoissonEvent":
        return PoissonEvent(self.constraints + other.constraints)

    def pulled_back(self, gs: GroundSpace, n: int) -> "PoissonEvent":
        """Event whose truth at nu equals our truth at the n-fold suspension
        image of nu: regions are replaced by their n-fold preimages.  The
        scalar form of what ``_pull_back`` does for all times at once."""
        pulled = ((frozenset(gs.jump(p, -n) for p in region), k) for region, k in self.constraints)
        return PoissonEvent(tuple(pulled))


def _poisson_pmf(mean: float, k: int) -> float:
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))


def event_probability(gs: GroundSpace, event: PoissonEvent) -> float:
    """Exact probability of a Poissonian cylinder event.

    The constraint regions are split into the atoms of the algebra they
    generate; atom counts are independent Poisson variables, and every
    consistent assignment of atom counts is enumerated.  The last atom that
    touches a constraint is not enumerated: its count is whatever the
    constraint still needs, so only consistent assignments are ever reached.
    Inconsistent constraint systems get probability 0, not an error.
    """
    constraints = event.constraints
    if not constraints:
        return 1.0
    # trivial constraints on empty regions
    for region, k in constraints:
        if not region and k > 0:
            return 0.0
    live = [(region, k) for region, k in constraints if region]
    if not live:
        return 1.0

    points = sorted({p for region, _ in live for p in region})
    signature: dict[tuple[int, ...], list[int]] = {}
    for p in points:
        sig = tuple(i for i, (region, _) in enumerate(live) if p in region)
        signature.setdefault(sig, []).append(p)
    atoms = [
        (sig, float(gs.region_weight(pts))) for sig, pts in sorted(signature.items())
    ]
    targets = [k for _, k in live]
    # the constraints each atom is the last to touch
    last = {i: idx for idx, (sig, _) in enumerate(atoms) for i in sig}
    closes = [[i for i in sig if last[i] == idx] for idx, (sig, _) in enumerate(atoms)]

    total = 0.0

    def recurse(idx: int, remaining: list[int], weight_prob: float) -> None:
        nonlocal total
        if idx == len(atoms):
            total += weight_prob
            return
        sig, mean = atoms[idx]
        cap = min(remaining[i] for i in sig)
        choices: Iterable[int] = range(cap + 1)
        if closes[idx]:
            # a closed constraint never changes again, so it must end at 0
            forced = remaining[closes[idx][0]]
            if forced > cap or any(remaining[i] != forced for i in closes[idx]):
                return
            choices = (forced,)
        for c in choices:
            for i in sig:
                remaining[i] -= c
            recurse(idx + 1, remaining, weight_prob * _poisson_pmf(mean, c))
            for i in sig:
                remaining[i] += c

    recurse(0, targets, 1.0)
    return total


class MixingGap(NamedTuple):
    gap: float
    bound: float
    ok: bool


def mixing_gap(gs: GroundSpace, b: PoissonEvent, c: PoissonEvent) -> MixingGap:
    """|P(B and C) - P(B) P(C)| against twice the weight of the support overlap."""
    gap = abs(
        event_probability(gs, b.intersect(c))
        - event_probability(gs, b) * event_probability(gs, c)
    )
    bound = 2.0 * float(gs.region_weight(b.support() & c.support()))
    return MixingGap(gap, bound, gap <= bound + 1e-12)


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class PointSample:
    """Lazy Poisson configuration: the count at point p is a pure function of
    (seed, p) with law Poisson(weight(p)), read by ``counts``."""

    gs: GroundSpace
    seed: int

    def counts(self, points: Sequence[int], cap: int | None = None) -> np.ndarray:
        """(1, len(points)) counts: the one row of ``sample_count_grid`` that
        this sample's seed (masked to 64 bits, as ``combine`` does) draws."""
        return self._read(_plan(self.gs, tuple(points), cap))

    def indicators(self, event: PoissonEvent, times: Sequence[int]) -> np.ndarray:
        """Indicators of the times[j]-fold suspension image lying in the event."""
        read = lambda rows, plan, first: self._read(plan)  # noqa: E731
        return _indicators(self.gs, read, 1, event, times)[0]

    def _read(self, plan: _Plan) -> np.ndarray:
        return _count_rows(plan, np.array([self.seed % 2**64], dtype=np.uint64)).T


def _count_thresholds(means: Sequence[float], size: int) -> np.ndarray:
    """(levels, len(means)) integer thresholds ceil(CDF(k) * 2^53), k < size,
    of the Poisson(means[j]) CDF accumulated by summation: a key z draws the
    count #{k : threshold k <= z >> 11}, the smallest k < size with u <
    CDF(k), or size, for its uniform u, bit for bit (``seeding.thresholds``).
    A column ends before its first entry that rounds to 1.0, whose threshold
    2^53 no key reaches; shorter columns are padded with 1.0s, up to the
    last, which ``thresholds`` drops.  ``_keyed_counts`` walks the rows."""
    columns = []
    for mean in means:
        pmf = cdf = math.exp(-mean)
        column = []
        for k in range(1, size + 1):
            if cdf >= 1.0:
                break
            column.append(cdf)
            pmf *= mean / k
            cdf += pmf
        columns.append(column)
    rows = max(map(len, columns), default=0) + 1
    cdfs = np.array([c + [1.0] * (rows - len(c)) for c in columns], ndmin=2)
    return np.ascontiguousarray(thresholds(cdfs).T)


class _Plan(NamedTuple):
    """What a count read needs of its points (``_plan``)."""

    points: tuple[int, ...]
    cap: int | None
    keys: np.ndarray
    levels: np.ndarray
    split: list


@lru_cache(maxsize=1)
def _plan(gs: GroundSpace, points: tuple[int, ...], cap: int | None) -> _Plan:
    """What a count read needs of its points, built once per read (only the
    last read's is kept, which a static ground's next read may share): the
    points and cap, and

    - keys: zigzag(p) per point, as uint64;
    - levels: the points' ``_count_thresholds``, (levels, points, 1), or
      (levels, 1) when they share a mean, the first cap rows when capped;
    - split: (row, zigzag(p), sub-draw keys, sub-mean levels) per point of
      mean over ``_SPLIT_MEAN``, whose own levels are a mean 0's: it reads 0.
    """
    weights = list(map(gs.weight, points))  # grounds often share one weight object
    as_float = {id(w): float(w) for w in {id(w): w for w in weights}.values()}  # once each
    means = np.array([as_float[id(w)] for w in weights])
    keys = np.array([zigzag(p) % 2**64 for p in points], dtype=np.uint64)
    size = 4 * COUNT_CAP if cap is None else min(cap, 4 * COUNT_CAP)
    over = means > _SPLIT_MEAN
    distinct, which = np.unique(np.where(over, 0.0, means), return_inverse=True)
    levels = _count_thresholds([float(mean) for mean in distinct], size)
    if len(distinct) > 1:
        levels = np.take(levels, which, axis=1)[..., None]
    split = []
    for j in np.flatnonzero(over):
        chunks = math.ceil(means[j] / _SPLIT_MEAN)
        sub = _count_thresholds([float(means[j]) / chunks], size)
        split.append((j, keys[j], np.arange(chunks, dtype=np.uint64), sub))
    return _Plan(points, cap, keys, levels, split)


def _count_rows(plan: _Plan, seeds: np.ndarray) -> np.ndarray:
    """(len(points), len(seeds)) counts of the plan's points, point-major:
    cell [j, r] inverts the keyed uniform of (seeds[r], TAG_POISSON,
    zigzag(points[j])) on the Poisson CDF of the point's mean, by one
    ``seeding._keyed_counts`` over the plan's thresholds with the point keys
    as its states and the run states as its keys ((k + G) + s = (s + G) + k
    mod 2^64); with the plan's ``cap`` set, only the first cap thresholds
    count: ``min(count, cap)`` bit for bit.

    A mean above ``_SPLIT_MEAN`` is split by additivity into ``chunks`` equal
    sub-means, sub-draw i keyed (seed, TAG_POISSON, zigzag(p), i): a sum of
    independent Poissons is exact in law, and each sub-draw and their sum
    are clipped at ``cap``.
    """
    points, cap, keys, levels, split = plan
    out = np.zeros((len(points), len(seeds)), dtype=np.int16)
    states = combine_seeds(seeds, (TAG_POISSON,))
    _keyed_counts(keys, states, levels, out)
    for j, key, subkeys, sub in split:
        rows = max(1, GRID_BLOCK // len(subkeys))
        for lo in range(0, len(seeds), rows):
            draws = np.zeros((min(rows, len(seeds) - lo), len(subkeys)), dtype=np.int16)
            _keyed_counts(fold(states[lo : lo + rows], key), subkeys, sub, draws)
            total = draws.sum(axis=1)
            if cap is not None:
                np.minimum(total, cap, out=total)
            elif total.max() > np.iinfo(out.dtype).max:
                raise ValueError(f"count at point {points[j]} overflows {out.dtype}")
            out[j, lo : lo + rows] = total
    return out


def sample_count_grid(
    gs: GroundSpace, master_seed: int, n_runs: int, points: Sequence[int],
    cap: int | None = None, *, first: int = 0, plan: _Plan | None = None,
) -> np.ndarray:
    """(n_runs, len(points)) per-run point counts, clipped at ``cap`` when
    set: row r is ``PointSample(gs, spawn(master_seed, first + r)).counts(points, cap)``.
    It is the transposed view of the point-major grid of ``_count_rows``.
    ``plan``, the ``_plan`` of these points and cap, spares a caller that
    reads them block by block from hashing them again on every block."""
    runs = np.arange(first, first + n_runs, dtype=np.int64)
    plan = _plan(gs, tuple(points), cap) if plan is None else plan
    return _count_rows(plan, spawn_vec(master_seed, runs)).T


#: count cells per block of runs that ``_indicators`` draws and reduces at
#: once: a few cache-sized draws per block pay for its Python calls
_BLOCK_CELLS = 4 * GRID_BLOCK


def _pull_back(gs: GroundSpace, regions: list[list[int]], times: list[int]) -> np.ndarray:
    """(points of all regions, times) int64 grid: column j holds each region
    pulled back by times[j], sorted within the region.  A point, time or
    corner pull-back (the maps are affine) of 2^62 or more in magnitude is
    refused, and so is a map that overflows int64 on the way."""
    pulled = np.empty((sum(map(len, regions)), len(times)), dtype=np.int64)
    try:
        if max(max(map(abs, r), default=0) for r in [*regions, times]) >= 2**62:
            raise OverflowError
        back = -np.array(times, dtype=np.int64)
        for r, block in zip(regions, np.split(pulled, np.cumsum([len(r) for r in regions])[:-1])):
            block[:] = gs.jump(np.array(r, dtype=np.int64)[:, None], back)
            block.sort(axis=0)
        ends = [p for r in regions if r for p in (min(r), max(r))]
        if any(abs(gs.jump(p, -t)) >= 2**62 for p in ends for t in (min(times), max(times))):
            raise OverflowError
    except OverflowError:
        raise ValueError("an event point, time or pull-back reaches 2^62 in magnitude") from None
    return pulled


def _indicators(
    gs: GroundSpace, read_counts: Callable, n_rows: int, event: PoissonEvent, times: Sequence[int]
) -> np.ndarray:
    """(n_rows, len(times)) 0/1 matrix: entry [r, j] is the indicator of the
    times[j]-fold suspension image of row r's sample lying in the event,
    over the counts ``read_counts(rows, plan, first=lo)`` returns for the
    rows lo .. lo + rows - 1 (the transpose of a point-major grid) and the
    points of ``plan``, which is built once.

    The distinct columns of ``_pull_back`` are the distinct pulled-back
    events; each of their points is drawn once, in one pass over blocks of
    about ``_BLOCK_CELLS`` counts, each reduced to its columns of the
    (events, rows) result and dropped.  Region sums add whole rows of point
    counts, about a block per take, in int32 (integer sums need no order).
    The counts are clipped at K + 1, K the largest constraint count, which
    is exact: a point whose count exceeds K puts every region holding it
    above every k <= K either way, and other regions sum the same counts.
    """
    times = [int(t) for t in times]
    if not times:
        return np.zeros((n_rows, 0))
    regions = [list(region) for region, _ in event.constraints]
    distinct, which = distinct_rows(_pull_back(gs, regions, times).T)
    points = np.unique(distinct)
    # per constraint: k and its (|region|, distinct events) rows of counts
    rows_of, at = np.searchsorted(points, distinct.T), np.cumsum([0, *map(len, regions)])
    sums = [(k, rows_of[i:j]) for (_, k), i, j in zip(event.constraints, at, at[1:])]
    cap = 1 + max((k for _, k in event.constraints), default=0)
    plan = _plan(gs, tuple(points.tolist()), cap)
    rows = max(1, _BLOCK_CELLS // max(len(points), len(distinct)))
    ok = np.empty((len(distinct), n_rows), dtype=bool)
    acc = np.empty(len(distinct) * min(rows, n_rows), dtype=np.int32)
    for lo in range(0, n_rows, rows):
        counts = read_counts(min(rows, n_rows - lo), plan, first=lo).T
        block = ok[:, lo : lo + counts.shape[1]]
        a = acc[: block.size].reshape(block.shape)
        step = max(1, _BLOCK_CELLS // block.size)
        block.fill(True)
        for k, idx in sums:
            a.fill(0)
            for i in range(0, len(idx), step):
                part = np.take(counts, idx[i : i + step], axis=0)
                a += part.sum(axis=0, dtype=np.int32) if len(part) > 1 else part[0]
            block &= a == k
    return ok[which].T.astype(np.float64)


def indicator_grid(
    gs: GroundSpace, master_seed: int, n_runs: int, event: PoissonEvent, times: Sequence[int]
) -> np.ndarray:
    """(n_runs, len(times)) 0/1 matrix: row r is
    ``PointSample(gs, spawn(master_seed, r)).indicators(event, times)``."""
    def read(rows, plan, first):
        return sample_count_grid(gs, master_seed, rows, plan.points, plan.cap, first=first, plan=plan)

    return _indicators(gs, read, n_runs, event, times)


# ---------------------------------------------------------------------------
# Subsequence extraction


def find_null_subsequence(
    gs: GroundSpace,
    regions: Sequence[Iterable[int]],
    count: int,
    horizon: int,
) -> list[int]:
    """Greedy strictly increasing times n_1 < ... < n_count whose pulled-back
    regions have pairwise overlaps below the 2^-j schedule.

    Overlaps are exact weights of set intersections; j indexes the new time,
    and the unshifted regions (time 0) participate as the j = 0 stage.  A
    horizon exhaustion raises a certified failure naming the first step that
    could not be satisfied (e.g. for maps with an invariant finite part the
    overlap never decays).

    Accepted stages are indexed by point, so a candidate only meets the
    (stage, old, new) pairs that share a point; a pair sharing none has
    weight 0, below every threshold.  The shared pairs are checked in the
    order of the full pairwise scan, so the same pair fails first.
    """
    fixed = [frozenset(int(p) for p in region) for region in regions]
    chosen: list[int] = []
    holders: dict[int, list[tuple[int, int]]] = {}  # point -> (stage, old region)
    latest = fixed  # stage 0; then the regions of the time accepted last
    candidate = 1
    for j in range(1, count + 1):
        for old, region in enumerate(latest):
            for p in region:
                holders.setdefault(p, []).append((j - 1, old))
        threshold = Fraction(1, 2**j)
        found = None
        for n in range(candidate, horizon + 1):
            pulled = [frozenset(gs.jump(p, -n) for p in region) for region in fixed]
            shared: dict[tuple[int, int, int], list[int]] = {}
            for new, region in enumerate(pulled):
                for p in region:
                    for stage, old in holders.get(p, ()):
                        shared.setdefault((stage, old, new), []).append(p)
            if all(gs.region_weight(shared[pair]) < threshold for pair in sorted(shared)):
                found, latest = n, pulled
                break
        if found is None:
            raise CertifiedFailure(
                f"no admissible time at step {j} within horizon {horizon}", step=j
            )
        chosen.append(found)
        candidate = found + 1
    return chosen


def banach_density_filter(
    values: Callable[[int], float], eps: float, horizon: int
) -> tuple[int, int | None, float]:
    """The number of indices n in [1, horizon] with 0 <= a_n = values(n) <
    eps, the first of them (None if there is none) and their density."""
    kept, first = 0, None
    for n in range(1, horizon + 1):
        if 0.0 <= float(values(n)) < eps:
            kept += 1
            first = first or n
    return kept, first, kept / horizon


# ---------------------------------------------------------------------------
# Seeded experiments


class VarianceDecay(NamedTuple):
    """Per block size: sample mean and variance of block averages across runs."""

    block_sizes: tuple[int, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]


def subsequence_average_experiment(
    gs: GroundSpace,
    event: PoissonEvent,
    times: Sequence[int],
    block_sizes: Sequence[int],
    n_runs: int,
    master_seed: int,
) -> VarianceDecay:
    """Block averages (1/N) sum_{j<N} 1_event(T_*^{n_j} nu) across seeded runs."""
    block_sizes = [int(n) for n in block_sizes]
    if max(block_sizes) > len(times):
        raise ValueError("block size exceeds number of supplied times")
    ind = indicator_grid(gs, master_seed, n_runs, event, list(times)[: max(block_sizes)])
    means, variances = [], []
    for n in block_sizes:
        # 0/1 entries: every partial sum is an exact integer in any order
        avg = ind[:, :n].sum(axis=1) / n
        means.append(float(avg.mean()))
        variances.append(float(avg.var(ddof=1)))
    return VarianceDecay(tuple(block_sizes), tuple(means), tuple(variances))


class CorrelationPoint(NamedTuple):
    time: int
    estimate: float
    half_width: float
    limit: float


def weak_mixing_probe(
    gs: GroundSpace,
    f_terms: Sequence[tuple[float, PoissonEvent]],
    g_terms: Sequence[tuple[float, PoissonEvent]],
    times: Sequence[int],
    n_runs: int,
    master_seed: int,
) -> list[CorrelationPoint]:
    """Monte Carlo correlations int f(T_*^{n_j} nu) g(nu) with the exact
    product of means as the expected limit along a null subsequence."""
    limit = float(
        sum(c * event_probability(gs, ev) for c, ev in f_terms)
        * sum(c * event_probability(gs, ev) for c, ev in g_terms)
    )
    g_vals = np.zeros(n_runs)
    for c, ev in g_terms:
        g_vals += c * indicator_grid(gs, master_seed, n_runs, ev, [0])[:, 0]
    times = [int(t) for t in times]
    f_grids = [indicator_grid(gs, master_seed, n_runs, ev, times) for _, ev in f_terms]
    out = []
    for j, t in enumerate(times):
        f_vals = np.zeros(n_runs)
        for (c, _), grid in zip(f_terms, f_grids):
            f_vals += c * grid[:, j]
        prod = f_vals * g_vals
        half_width = 3.0 * float(prod.std(ddof=1)) / math.sqrt(n_runs)
        out.append(CorrelationPoint(t, float(prod.mean()), half_width, limit))
    return out
