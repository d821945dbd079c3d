"""Ergodic sums and averages over symbolic and Poisson systems.

Observables are finite linear combinations of cylinder indicators (symbolic
systems) or Poissonian count-event indicators (suspensions).  Series are
reported at power-of-two checkpoints; dual sums carry the cocycle weights
d(mu o T^-k)/d mu, which are exact for the certified family kinds, so the
one-function sanity identities (dual of the constant 1 equals n on a
measure-preserving system) hold without tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import bernoulli as bn
from . import poisson as ps
from .seeding import GRID_BLOCK, spawn
from .shift_core import Configuration, Cylinder

series_checkpoints = bn.series_checkpoints


@dataclass(frozen=True)
class Observable:
    """Finite linear combination of indicator atoms (all of one kind)."""

    terms: tuple[tuple[float, object], ...]

    @classmethod
    def indicator(cls, atom) -> "Observable":
        return cls(((1.0, atom),))

    @classmethod
    def constant(cls, value: float, kind: str = "cylinder") -> "Observable":
        atom = Cylinder.empty() if kind == "cylinder" else ps.PoissonEvent(())
        return cls(((float(value), atom),))

    @classmethod
    def combine(cls, terms) -> "Observable":
        return cls(tuple((float(c), atom) for c, atom in terms))


@dataclass(frozen=True)
class SumSeries:
    checkpoints: tuple[int, ...]
    values: tuple[float, ...]
    error_bounds: tuple[float, ...] = ()

    @property
    def final_value(self) -> float:
        return self.values[-1]

    def rows(self):
        errs = self.error_bounds or (0.0,) * len(self.values)
        return list(zip(self.checkpoints, self.values, errs))


class BernoulliSystem:
    """Shift with a Bernoulli product measure, wrapped for the engine."""

    kind = "bernoulli"

    def __init__(self, family: bn.BernoulliFamily) -> None:
        self.family = family

    def sample(self, seed: int) -> Configuration:
        return self.family.configuration(seed)

    def run_sample(self, master_seed: int, run: int) -> Configuration:
        return self.sample(spawn(master_seed, run))

    def expectation(self, obs: Observable) -> float:
        return float(
            sum(Fraction(c) * bn.measure(self.family, atom) for c, atom in obs.terms)
        )

    def abs_expectation(self, obs: Observable) -> float:
        """Exact L1 norm of the observable via refinement enumeration."""
        coords = sorted(
            {i for _, atom in obs.terms for i in atom.coords() if not atom.is_empty}
        )
        const = sum(c for c, atom in obs.terms if atom.is_empty)
        if not coords:
            return abs(const)
        if self.family.alphabet.size ** len(coords) > 1 << 20:
            raise ValueError("observable refinement too large to enumerate")
        total = Fraction(0)
        for assignment in product(self.family.alphabet.symbols, repeat=len(coords)):
            lookup = dict(zip(coords, assignment))
            value = const + sum(
                c
                for c, atom in obs.terms
                if not atom.is_empty
                and all(lookup[i] == atom.symbol(i) for i in atom.coords())
            )
            weight = Fraction(1)
            for i, s in lookup.items():
                weight *= self.family.site(i).prob(s)
            total += weight * abs(Fraction(value))
        return float(total)

    def value_series(self, x: Configuration, obs: Observable, times: np.ndarray) -> np.ndarray:
        """f(T^t x) for each t in times."""
        return self._cylinder_values(x.block, (), obs, times)

    def values_matrix(
        self, master_seed: int, n_runs: int, obs: Observable, times: Sequence[int]
    ) -> np.ndarray:
        read = partial(self.family.run_grid, master_seed, n_runs)
        return self._cylinder_values(read, (n_runs,), obs, times)

    def series_terms(
        self, x: Configuration, obs: Observable, ns: range, tol: float, weighted: bool
    ) -> tuple[Iterator, float]:
        """The chunks of (cols, log weight, f(T^n x)) over n in ``ns`` that
        ``bn._checkpoint_sums`` reads, drawn from one block of x, and the
        weights' per-entry error bound; without ``weighted`` every log
        weight is 0.0 and no cocycle is read."""
        window, err = bn._cocycle_window(self.family, tol) if weighted else ({}, 0.0)
        return self._cylinder_terms(x.block, (), window, obs, ns), err

    def run_terms(
        self, master_seed: int, n_runs: int, obs: Observable, ns: range, tol: float
    ) -> tuple[Iterator, float]:
        """The weighted ``series_terms`` of every run at once, drawn from one
        grid of the runs; row r of a chunk is ``run_sample(master_seed, r)``'s."""
        window, err = bn._cocycle_window(self.family, tol)
        read = partial(self.family.run_grid, master_seed, n_runs)
        return self._cylinder_terms(read, (n_runs,), window, obs, ns), err

    def _cylinder_terms(self, read: Callable, lead: tuple, window, obs: Observable, offsets):
        """``bn._walk`` over ``read``, carrying f(T^n x) for n in ``offsets``."""
        terms = [(c, {j: atom.symbol(j) for j in atom.coords()}) for c, atom in obs.terms]
        coords = [j for _, pattern in terms for j in pattern]
        values = lambda out, at: _add_patterns(out, terms, at)  # noqa: E731
        return bn._walk(self.family, read, lead, window, offsets, coords, values)

    def _cylinder_values(self, read: Callable, lead: tuple, obs: Observable, times) -> np.ndarray:
        """f(T^t x) for each t in times, shape ``lead + (len(times),)``."""
        times = np.asarray(times, dtype=np.int64)
        out = np.empty(lead + (len(times),))
        for cols, _, values in self._cylinder_terms(read, lead, {}, obs, times):
            out[..., cols] = values
        return out


def _add_patterns(out: np.ndarray, terms, read: Callable) -> np.ndarray:
    """Add c * [read(p) == s for every (p, s) of the pattern] into ``out``
    for each term (c, pattern), a pattern mapping coordinates to symbols;
    an empty pattern adds c."""
    ind = np.empty(out.shape, dtype=bool)
    for c, pattern in terms:
        ind.fill(True)
        for p, s in pattern.items():
            ind &= read(p) == s
        out += c * ind
    return out


class PoissonSystem:
    """Poisson suspension of a measure-preserving ground map."""

    kind = "poisson"

    def __init__(self, gs: ps.GroundSpace) -> None:
        self.gs = gs

    def sample(self, seed: int) -> ps.PointSample:
        return ps.PointSample(self.gs, seed)

    def run_sample(self, master_seed: int, run: int) -> ps.PointSample:
        return self.sample(spawn(master_seed, run))

    def expectation(self, obs: Observable) -> float:
        return float(
            sum(c * ps.event_probability(self.gs, ev) for c, ev in obs.terms)
        )

    def abs_expectation(self, obs: Observable) -> float:
        if len(obs.terms) == 1 and obs.terms[0][0] >= 0:
            return self.expectation(obs)
        raise ValueError("L1 norm implemented for single nonnegative terms only")

    def value_series(self, sample: ps.PointSample, obs: Observable, times: np.ndarray) -> np.ndarray:
        """f(T_*^t nu) for each t in times."""
        return _event_values(obs, times, sample.indicators, ())

    def values_matrix(
        self, master_seed: int, n_runs: int, obs: Observable, times: Sequence[int]
    ) -> np.ndarray:
        read = partial(ps.indicator_grid, self.gs, master_seed, n_runs)
        return _event_values(obs, times, read, (n_runs,))

    def series_terms(
        self, sample: ps.PointSample, obs: Observable, ns: range, tol: float, weighted: bool
    ) -> tuple[Iterator, float]:
        """The chunks of (cols, log weight, f(T_*^n nu)) over n in ``ns``
        that ``bn._checkpoint_sums`` reads: the suspension preserves its
        measure, so every log weight is 0.0, whose exp is exactly 1.0."""
        cols = (slice(c, min(c + GRID_BLOCK, len(ns))) for c in range(0, len(ns), GRID_BLOCK))
        return ((c, np.zeros(len(ns[c])), self.value_series(sample, obs, ns[c])) for c in cols), 0.0

    def run_terms(
        self, master_seed: int, n_runs: int, obs: Observable, ns: range, tol: float
    ) -> tuple[Iterator, float]:
        """``series_terms`` over the runs at once: one chunk, of zero log
        weights and the ``values_matrix`` at ``ns``."""
        values = self.values_matrix(master_seed, n_runs, obs, list(ns))
        return iter([(slice(0, len(ns)), np.zeros(values.shape), values)]), 0.0


def _event_values(
    obs: Observable, times: Sequence[int], indicators: Callable, lead: tuple[int, ...]
) -> np.ndarray:
    """f(T_*^t nu) for each t in times, shape ``lead + (len(times),)``, over
    the event indicators ``indicators(event, times)`` returns, of that shape:
    each fresh indicator array is scaled by its coefficient in place."""
    out = np.zeros(lead + (len(times),))
    for c, ev in obs.terms:
        if ev.constraints:
            ind = indicators(ev, times)
            ind *= c
            out += ind
        else:
            out += c
    return out


def values_matrix(system, master_seed: int, n_runs: int, obs: Observable, times) -> np.ndarray:
    """(runs, times) observable values f(T^t x_r), batched over seeded runs:
    row r equals ``value_series`` at ``run_sample(master_seed, r)``."""
    return system.values_matrix(master_seed, n_runs, obs, [int(t) for t in times])


# ---------------------------------------------------------------------------
# Series


def _series_sums(system, f: Observable, x, ns: range, tol: float = 1e-12, weighted: bool = True):
    """The checkpoints of a series over the terms n in ``ns``, and at each
    checkpoint n the sums over its first n terms of w f(T^n x) and of w, in
    one streamed pass (``bn._checkpoint_sums``), with the weights' per-entry
    error bound; w = d(mu o T^n)/d mu (x), or 1 when not ``weighted``."""
    if not ns:
        raise ValueError("horizon must be >= 1")
    pts = series_checkpoints(len(ns))
    terms, err = system.series_terms(x, f, ns, tol, weighted)
    num, den = bn._checkpoint_sums(terms, [n - 1 for n in pts])
    return pts, num, den, err


def birkhoff_series(system, f: Observable, x, horizon: int) -> SumSeries:
    """Forward averages S_n(f)(x)/n at power-of-two checkpoints."""
    pts, sums, _, _ = _series_sums(system, f, x, range(horizon), weighted=False)
    return SumSeries(tuple(pts), tuple(float(s / n) for s, n in zip(sums, pts)))


def dual_series(system, f: Observable, x, horizon: int, tol: float = 1e-12) -> SumSeries:
    """Raw dual sums sum_{k<n} d(mu o T^-k)/d mu (x) f(T^-k x)."""
    pts, sums, _, err = _series_sums(system, f, x, range(0, -horizon, -1), tol)
    return SumSeries(tuple(pts), tuple(float(s) for s in sums), tuple(n * err for n in pts))


def hurewicz_ratio_series(system, f: Observable, x, horizon: int, tol: float = 1e-12) -> SumSeries:
    """Dual-weighted ratio averages: dual sums of f over dual sums of 1."""
    pts, num, den, _ = _series_sums(system, f, x, range(0, -horizon, -1), tol)
    return SumSeries(tuple(pts), tuple(float(v) for v in num / den))


# ---------------------------------------------------------------------------
# Probes


class MaximalInequalityResult(NamedTuple):
    empirical_tail: float
    bound: float
    mc_sigma: float
    ok: bool


def maximal_inequality_probe(
    system,
    f: Observable,
    t: float,
    n_runs: int,
    horizon: int,
    master_seed: int,
) -> MaximalInequalityResult:
    """Fraction of seeded runs whose running sup of |dual ratio| exceeds t,
    against the L1-over-t bound."""
    if t <= 0:
        raise ValueError("threshold t must be positive")
    terms, _ = system.run_terms(master_seed, n_runs, f, range(0, -horizon, -1), 1e-12)
    # each run's two running sums carry across chunks; only their max |ratio| is kept
    sup = np.zeros(n_runs)
    for _, sums in bn._running_sums(terms):
        np.maximum(sup, np.max(np.abs(sums[0] / sums[1]), axis=-1), out=sup)
    tail = int(np.count_nonzero(sup > t)) / n_runs
    bound = system.abs_expectation(f) / t
    sigma = math.sqrt(max(tail * (1.0 - tail), 1.0 / n_runs) / n_runs)
    return MaximalInequalityResult(tail, bound, sigma, tail <= bound + 3.0 * sigma)


class TwoSubsequenceResult(NamedTuple):
    passed: bool
    lower_quantile: float
    threshold: float
    target_mean: float
    slack: float
    block_means: tuple[float, ...]
    block_variances: tuple[float, ...]


def two_subsequence_probe(
    system,
    indicator: Observable,
    times: Sequence[int],
    block_sizes: Sequence[int],
    alpha: float,
    n_runs: int,
    master_seed: int,
) -> TwoSubsequenceResult:
    """Empirical check of the two-subsequence divergence hypothesis.

    Per run, block averages (1/N) sum_{k<N} 1_A(T^{n_k} x) are formed for the
    given block sizes; the liminf surrogate is the minimum over the last
    quarter of the block sizes.  The probe passes when the 5% quantile of
    the surrogate clears alpha * mu(A) minus three sample standard
    deviations of Monte Carlo slack.
    """
    block_sizes = sorted(int(n) for n in block_sizes)
    if block_sizes[0] < 1 or block_sizes[-1] > len(times):
        raise ValueError("block sizes must fit within the supplied times")
    if not all(a < b for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    ind = values_matrix(system, master_seed, n_runs, indicator, list(times)[: block_sizes[-1]])
    cums = np.cumsum(ind, axis=1)
    block_avgs = np.stack([cums[:, n - 1] / n for n in block_sizes], axis=1)
    quarter = max(1, math.ceil(len(block_sizes) / 4))
    liminf = block_avgs[:, -quarter:].min(axis=1)
    mu = system.expectation(indicator)
    slack = 3.0 * float(liminf.std(ddof=1)) if n_runs > 1 else 0.0
    q05 = float(np.quantile(liminf, 0.05))
    threshold = alpha * mu - slack
    return TwoSubsequenceResult(
        passed=q05 >= threshold,
        lower_quantile=q05,
        threshold=threshold,
        target_mean=mu,
        slack=slack,
        block_means=tuple(float(v) for v in block_avgs.mean(axis=0)),
        block_variances=tuple(float(v) for v in block_avgs.var(axis=0, ddof=1)),
    )
