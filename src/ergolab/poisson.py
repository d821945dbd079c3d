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
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CertifiedFailure
from .seeding import (
    GRID_BLOCK,
    TAG_POISSON,
    spawn_vec,
    uniform01_grid,
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
    inverse); ``weight`` is nonnegative wherever events look and raises
    ValueError at a point outside the ground.
    """

    weight: Callable[[int], Fraction]
    jump: Callable[[int, int], int]
    name: str = "ground"

    def region_weight(self, region: Iterable[int]) -> Fraction:
        return sum((Fraction(self.weight(p)) for p in region), Fraction(0))


def integer_translation(step: int = 1) -> GroundSpace:
    """Translation p -> p + step on Z with unit weights (no finite invariant
    probability: the canonical ergodic-suspension base)."""
    return GroundSpace(
        weight=lambda p: Fraction(1),
        jump=lambda p, k: p + k * step,
        name=f"translation[{step}]",
    )


def integer_identity() -> GroundSpace:
    return GroundSpace(
        weight=lambda p: Fraction(1), jump=lambda p, k: p, name="identity"
    )


def finite_cycle(length: int) -> GroundSpace:
    if length < 1:
        raise ValueError("cycle length must be >= 1")

    def check(p: int) -> None:
        if not 0 <= p < length:
            raise ValueError(f"point {p} outside cycle of length {length}")

    def weight(p: int) -> Fraction:
        check(p)
        return Fraction(1)

    def jump(p: int, k: int) -> int:
        check(p)
        return (p + k) % length

    return GroundSpace(weight=weight, jump=jump, name=f"cycle[{length}]")


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

    return GroundSpace(weight=weight, jump=lambda p, k: p, name="weighted")


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
        image of nu: regions are replaced by their n-fold preimages."""
        return PoissonEvent(
            tuple(
                (frozenset(gs.jump(p, -n) for p in region), k)
                for region, k in self.constraints
            )
        )


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
        return _count_rows(self.gs, np.array([self.seed % 2**64], dtype=np.uint64), points, cap)

    def indicators(self, event: PoissonEvent, times: Sequence[int]) -> np.ndarray:
        """Indicators of the times[j]-fold suspension image lying in the event."""
        return _indicators(self.gs, self.counts, event, times)[0]


def _count_table(mean: float) -> np.ndarray:
    """Poisson CDF table, accumulated by summation: ``searchsorted(table, u,
    side="right")`` is the smallest k < 4 * COUNT_CAP with u < CDF(k), or
    4 * COUNT_CAP."""
    pmf = math.exp(-mean)
    cdf = [pmf]
    for k in range(1, 4 * COUNT_CAP):
        pmf *= mean / k
        cdf.append(cdf[-1] + pmf)
    return np.asarray(cdf)


def _count_rows(
    gs: GroundSpace, seeds: np.ndarray, points: Sequence[int], cap: int | None
) -> np.ndarray:
    """(len(seeds), len(points)) counts: cell [r, j] inverts the keyed
    uniform of (seeds[r], TAG_POISSON, zigzag(points[j])) on the
    ``_count_table`` of the point's mean.

    A mean above ``_SPLIT_MEAN`` is split by additivity into ``chunks`` equal
    sub-means, with sub-draw i keyed (seed, TAG_POISSON, zigzag(p), i): a sum
    of independent Poissons stays exact in distribution and needs no
    rejection loop.

    With ``cap`` set, a cell holds ``min(count, cap)`` instead: inversion by
    summation stops after ``cap`` levels, ``sum_{i<cap} [u >= table[i]]``
    over the same ``_count_table``.  The table is non-decreasing, so this is
    ``min(searchsorted(table, u, side="right"), cap)`` bit for bit.
    """
    points = list(points)
    means = np.array([float(gs.weight(p)) for p in points])
    out = np.empty((len(seeds), len(points)), dtype=np.int16)
    keys = np.array([zigzag(p) % 2**64 for p in points], dtype=np.uint64)
    # one cache-sized block of rows per keyed draw: no float or bool grid
    # larger than a block is ever held
    chunk = max(1, GRID_BLOCK // max(len(points), 1))
    if cap is None:
        # (columns, table) per distinct mean; one mean needs no column mask
        groups = [(means == mean, _count_table(float(mean))) for mean in np.unique(means)]
    else:
        # (cap, n_points) thresholds: column j holds the first cap CDF levels
        # of point j's mean
        distinct, which = np.unique(means, return_inverse=True)
        tables = [_count_table(float(mean))[:cap] for mean in distinct]
        levels = np.ascontiguousarray(np.reshape(tables, (-1, cap))[which].T)
        hit = np.empty((min(chunk, len(seeds)), len(points)), dtype=bool)
    for lo in range(0, len(seeds), chunk):
        hi = min(lo + chunk, len(seeds))
        u = uniform01_grid(seeds[lo:hi], (TAG_POISSON,), keys)
        block = out[lo:hi]
        if cap is None and len(groups) == 1:
            block[...] = np.searchsorted(groups[0][1], u, side="right")
        elif cap is None:
            for cols, table in groups:
                block[:, cols] = np.searchsorted(table, u[:, cols], side="right")
        else:
            block[...] = 0
            for level in levels:
                np.greater_equal(u, level, out=hit[: hi - lo])
                block += hit[: hi - lo]
    # a split column overwrites what its single draw gave above
    for j in np.flatnonzero(means > _SPLIT_MEAN):
        chunks = math.ceil(means[j] / _SPLIT_MEAN)
        table = _count_table(float(means[j]) / chunks)
        parts = (TAG_POISSON, zigzag(points[j]))
        rows = max(1, GRID_BLOCK // chunks)
        for lo in range(0, len(seeds), rows):
            u = uniform01_grid(seeds[lo : lo + rows], parts, np.arange(chunks))
            total = np.searchsorted(table, u, side="right").sum(axis=1)
            if cap is not None:
                np.minimum(total, cap, out=total)
            elif total.max() > np.iinfo(out.dtype).max:
                raise ValueError(f"count at point {points[j]} overflows {out.dtype}")
            out[lo : lo + rows, j] = total
    return out


def sample_count_grid(
    gs: GroundSpace,
    master_seed: int,
    n_runs: int,
    points: Sequence[int],
    cap: int | None = None,
) -> np.ndarray:
    """(n_runs, len(points)) per-run point counts, clipped at ``cap`` when
    set: row r is ``PointSample(gs, spawn(master_seed, r)).counts(points, cap)``."""
    return _count_rows(gs, spawn_vec(master_seed, np.arange(n_runs, dtype=np.int64)), points, cap)


def _indicators(
    gs: GroundSpace, read_counts: Callable, event: PoissonEvent, times: Sequence[int]
) -> np.ndarray:
    """(rows, len(times)) 0/1 matrix: entry [r, j] is the indicator of the
    times[j]-fold suspension image of row r's sample lying in the event,
    over the counts ``read_counts(points, cap=cap)`` returns, one row each.

    Point counts are read clipped at ``K + 1``, K the largest constraint
    count.  That is exact: a point whose count exceeds K reads K + 1, so every
    region holding it sums above every k <= K whether clipped or not, and a
    region without such a point sums the same counts either way.

    Each distinct pulled-back event is evaluated once (on the identity map
    every time pulls back to the same event).  A constraint's region sums
    are |region| column takes added into one int32 accumulator, one column
    per distinct event; integer sums do not depend on their order.
    """
    pulled = {t: event.pulled_back(gs, t) for t in dict.fromkeys(int(t) for t in times)}
    distinct = list(dict.fromkeys(pulled.values()))
    points = sorted({p for ev in distinct for p in ev.support()})
    col = {p: i for i, p in enumerate(points)}
    cap = 1 + max((k for _, k in event.constraints), default=0)
    counts = read_counts(points, cap=cap)
    n_rows = len(counts)
    ok = np.ones((n_rows, len(distinct)), dtype=bool)
    acc = np.empty((n_rows, len(distinct)), dtype=np.int32)
    term = np.empty((n_rows, len(distinct)), dtype=counts.dtype)
    for c, (_, k) in enumerate(event.constraints):
        # (distinct events, |region|) column indices of this constraint
        idx = np.array(
            [[col[p] for p in ev.constraints[c][0]] for ev in distinct],
            dtype=np.intp,
            ndmin=2,
        )
        acc[...] = 0
        for cols in idx.T:
            acc += np.take(counts, cols, axis=1, out=term)
        ok &= acc == k
    row = {ev: i for i, ev in enumerate(distinct)}
    return ok[:, [row[pulled[int(t)]] for t in times]].astype(np.float64)


def indicator_grid(
    gs: GroundSpace,
    master_seed: int,
    n_runs: int,
    event: PoissonEvent,
    times: Sequence[int],
) -> np.ndarray:
    """(n_runs, len(times)) 0/1 matrix: row r is
    ``PointSample(gs, spawn(master_seed, r)).indicators(event, times)``."""
    return _indicators(gs, partial(sample_count_grid, gs, master_seed, n_runs), event, times)


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
    values, eps: float, horizon: int
) -> tuple[list[int], float]:
    """Indices n in [1, horizon] with a_n < eps, and their density.

    ``values`` is a sequence (values[0] is a_1) or a callable n -> a_n.
    """
    if callable(values):
        seq = [float(values(n)) for n in range(1, horizon + 1)]
    else:
        seq = [float(v) for v in values[:horizon]]
        if len(seq) < horizon:
            raise ValueError("need at least `horizon` values")
    kept = [n for n, a in enumerate(seq, start=1) if 0.0 <= a < eps]
    return kept, len(kept) / horizon


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
    cums = np.cumsum(ind, axis=1)
    means, variances = [], []
    for n in block_sizes:
        avg = cums[:, n - 1] / n
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
        out.append(
            CorrelationPoint(
                t,
                float(prod.mean()),
                3.0 * float(prod.std(ddof=1)) / math.sqrt(n_runs),
                limit,
            )
        )
    return out
