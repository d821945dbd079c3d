"""Inhomogeneous Markov measures fully supported on a mixing SFT.

Transition matrices and marginals are exact rationals.  The family is a
compact perturbation of a stationary pair (P, pi): finitely many matrices
differ from P, the marginals are stationary to the left of the perturbation
and evolved forward through it.  That convention is the one under which the
cylinder formula

    mu([b]_k^l) = pi_k(b_k) * prod_{j=k}^{l-1} P_j(b_j, b_{j+1})

is additive under one-symbol extensions (checked in the tests), and it makes
the restricted derivatives exact finite products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .bernoulli import _as_fraction
from .errors import NonSingularError
from .shift_core import RANGE_CAP, Cylinder, RangeCapError

_SUM_TOL = Fraction(1, 10**12)

#: the most bits of evolved marginals a family keeps while its marginal is off
#: the base one, an entry costing its denominator's bit length plus a 64-bit
#: word (about 20 MB); each step can lengthen every entry, so further is refused
_MARGINAL_BITS = 1 << 26


@dataclass(frozen=True)
class SFT:
    """0/1 adjacency matrix over states {1..|S|}; no stranded states."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        if n == 0 or any(len(row) != n for row in self.adjacency):
            raise ValueError("adjacency must be square")
        if any(e not in (0, 1) for row in self.adjacency for e in row):
            raise ValueError("adjacency entries must be 0 or 1")
        if any(not any(row) for row in self.adjacency):
            raise ValueError("every state needs an outgoing edge")
        if any(not any(row[j] for row in self.adjacency) for j in range(n)):
            raise ValueError("every state needs an incoming edge")

    @classmethod
    def of(cls, rows) -> "SFT":
        return cls(tuple(tuple(int(e) for e in row) for row in rows))

    @property
    def n_states(self) -> int:
        return len(self.adjacency)

    @property
    def states(self) -> range:
        return range(1, self.n_states + 1)

    def edge(self, s: int, t: int) -> bool:
        return self.adjacency[s - 1][t - 1] == 1

    def successors(self, s: int) -> list[int]:
        return [t for t in self.states if self.edge(s, t)]

    def predecessors(self, t: int) -> list[int]:
        return [s for s in self.states if self.edge(s, t)]

    def admissible(self, word: Sequence[int]) -> bool:
        adjacency, n = self.adjacency, len(self.adjacency)
        in_range = all(0 < s <= n for s in word)
        return in_range and all(adjacency[a - 1][b - 1] for a, b in zip(word, word[1:]))

    def count_words(self, length: int, cap: int) -> int:
        """The number of admissible words of a length >= 1, or cap + 1 if
        that is more: the sum of the entries of A^(length - 1), by repeated
        squaring with every entry held at cap + 1 (a count above the cap
        stays above it through sums and products of counts)."""
        def times(a, b):
            return [[min(sum(x * y for x, y in zip(r, c)), cap + 1) for c in zip(*b)] for r in a]

        row, square, steps = [[1] * self.n_states], self.adjacency, length - 1
        while steps:
            if steps & 1:
                row = times(row, square)
            square, steps = times(square, square), steps >> 1
        return min(sum(row[0]), cap + 1)

    def words(self, length: int) -> Iterator[tuple[int, ...]]:
        """All admissible words of the given length, lexicographic order."""
        if length < 0:
            raise ValueError(f"word length {length} is negative")
        if length == 0:
            yield ()
            return
        stack: list[tuple[int, ...]] = [(s,) for s in reversed(self.states)]
        while stack:
            w = stack.pop()
            if len(w) == length:
                yield w
            else:
                for t in reversed(self.successors(w[-1])):
                    stack.append(w + (t,))


def golden_mean() -> SFT:
    return SFT.of([[1, 1], [1, 0]])


def full_shift(n_states: int) -> SFT:
    return SFT.of([[1] * n_states for _ in range(n_states)])


def primitivity_index(sft: SFT) -> int | None:
    """Least N with all entries of A^N positive, None beyond the Wielandt
    bound |S|^2 - 2|S| + 2 (then A is not primitive)."""
    n = sft.n_states
    bound = n * n - 2 * n + 2
    a = [[bool(e) for e in row] for row in sft.adjacency]
    power = [row[:] for row in a]
    for k in range(1, bound + 1):
        if all(all(row) for row in power):
            return k
        power = [
            [any(power[i][m] and a[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


def _over_common_denominator(values) -> tuple[int, list[int]]:
    """(d, [v d for v in values]) for Fractions, d the lcm of their
    denominators: the same rationals as integers over one denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def stationary_distribution(transition) -> tuple[Fraction, ...]:
    """Exact row vector pi with pi P = pi and sum 1.

    The system (P^T - I) x = 0 on all rows but the last, sum x = 1 on the
    last, is scaled by the lcm D of the denominators and eliminated in
    integers (Bareiss' fraction-free elimination, Math. Comp. 22, 1968), so
    every entry stays a minor of the system.  The last pivot is its
    determinant, and back substitution gives the integers det * x_i, one
    Fraction each at the end (Cramer's rule).
    """
    p = [[_as_fraction(e) for e in row] for row in transition]
    n = len(p)
    # rows 0..n-2: D (P^T - I) x = 0; last row: sum x = 1; the rhs is column n
    d, m = _over_common_denominator([p[j][i] for i in range(n - 1) for j in range(n)])
    a = [m[i * n : i * n + n] + [0] for i in range(n - 1)]
    for i in range(n - 1):
        a[i][i] -= d
    a.append([1] * (n + 1))
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("stationary distribution is not unique")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        lead = top[col]
        for row in a[col + 1 :]:
            f = row[col]
            for j in range(col + 1, n + 1):
                row[j] = (row[j] * lead - f * top[j]) // det
        det = lead
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        y[i] = (det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return tuple(Fraction(v, det) for v in y)


def _check_stochastic(sft: SFT, matrix, what: str) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(_as_fraction(e) for e in row) for row in matrix)
    if len(rows) != sft.n_states or any(len(r) != sft.n_states for r in rows):
        raise ValueError(f"{what}: wrong shape")
    for s in sft.states:
        row = rows[s - 1]
        d, nums = _over_common_denominator(row)
        # |sum(row) - 1| > _SUM_TOL, with sum(row) = sum(nums) / d
        if abs(sum(nums) - d) * _SUM_TOL.denominator > d * _SUM_TOL.numerator:
            raise ValueError(f"{what}: row {s} sums to {Fraction(sum(nums), d)}")
        for t, num in zip(sft.states, nums):
            if (num > 0) != sft.edge(s, t):
                raise ValueError(
                    f"{what}: support mismatch at ({s},{t}); "
                    "need entries positive exactly on the adjacency support"
                )
            if num < 0:
                raise ValueError(f"{what}: negative entry at ({s},{t})")
    return rows


class MarkovFamily:
    """Compactly perturbed inhomogeneous Markov measure on an SFT."""

    def __init__(
        self,
        sft: SFT,
        base_transition,
        base_marginal=None,
        window: Mapping[int, object] | None = None,
    ) -> None:
        self.sft = sft
        self.base_transition = _check_stochastic(sft, base_transition, "base transition")
        if base_marginal is None:
            base_marginal = stationary_distribution(self.base_transition)
        pi = tuple(_as_fraction(e) for e in base_marginal)
        n = sft.n_states
        if len(pi) != n or any(e.numerator <= 0 for e in pi):
            raise ValueError("base marginal must be strictly positive on all states")
        d_pi, u = _over_common_denominator(pi)
        if sum(u) != d_pi:
            raise ValueError("base marginal must sum to 1")
        # pi P = pi, both sides times d_pi and P's common denominator d
        d, m = _over_common_denominator([e for row in self.base_transition for e in row])
        if any(sum(u[s] * m[s * n + t] for s in range(n)) != u[t] * d for t in range(n)):
            raise ValueError("base marginal is not stationary for the base transition")
        self.base_marginal = pi
        self.window: dict[int, tuple[tuple[Fraction, ...], ...]] = {}
        if window:
            for k, mat in window.items():
                checked = _check_stochastic(sft, mat, f"window transition {k}")
                if checked != self.base_transition:
                    self.window[int(k)] = checked
        self._lo = min(self.window, default=0)
        self._hi = max(self.window, default=0)
        # the marginals at _lo + 1, _lo + 2, ... up to the first one past _hi
        # that is back on the stationary base marginal, which base steps keep
        self._evolved: list[tuple[Fraction, ...]] = []
        self._evolved_bits = 0
        self._settled = False

    def transition(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        return self.window.get(n, self.base_transition)

    def marginal(self, n: int) -> tuple[Fraction, ...]:
        i = n - self._lo - 1
        while i >= len(self._evolved) and not self._settled:
            j = self._lo + len(self._evolved) + 1
            prev = self._evolved[-1] if self._evolved else self.base_marginal
            p = self.transition(j - 1)
            row = tuple(
                sum(prev[s] * p[s][t] for s in range(self.sft.n_states))
                for t in range(self.sft.n_states)
            )
            self._settled = j > self._hi and row == self.base_marginal
            if not self._settled:
                self._evolved_bits += sum(e.denominator.bit_length() + 64 for e in row)
                if self._evolved_bits > _MARGINAL_BITS:
                    raise RangeCapError(
                        f"marginal at {n}: the marginals from the window's left end pass "
                        f"{_MARGINAL_BITS} bits without returning to the base marginal"
                    )
                self._evolved.append(row)
        return self._evolved[i] if 0 <= i < len(self._evolved) else self.base_marginal

    def transition_prob(self, n: int, s: int, t: int) -> Fraction:
        return self.transition(n)[s - 1][t - 1]

    def marginal_prob(self, n: int, s: int) -> Fraction:
        return self.marginal(n)[s - 1]


def markov_cylinder_measure(family: MarkovFamily, cyl: Cylinder) -> Fraction:
    """Exact mass pi_k(b_k) * prod P_j(b_j, b_{j+1}); inadmissible words error.
    Numerators and denominators multiply as ints, reduced once at the end."""
    if cyl.is_empty:
        return Fraction(1)
    if not family.sft.admissible(cyl.word):
        raise ValueError(f"word {cyl.word} is not admissible in the SFT")
    first = family.marginal(cyl.left)[cyl.word[0] - 1]
    num, den = first.numerator, first.denominator
    for j, (s, t) in enumerate(zip(cyl.word, cyl.word[1:]), start=cyl.left):
        p = family.transition(j)[s - 1][t - 1]
        num *= p.numerator
        den *= p.denominator
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Restricted derivatives and the martingale


def restricted_derivative_fraction(family: MarkovFamily, x, n: int) -> Fraction:
    """Exact restriction of d(mu o T)/d mu to the symmetric n-window at x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    word = [x.symbol(i) for i in range(-n, n + 1)]
    if not family.sft.admissible(word):
        raise ValueError("configuration window is not admissible")
    out = family.marginal_prob(-n - 1, word[0]) / family.marginal_prob(-n, word[0])
    for j in range(-n, n):
        a, b = word[j + n], word[j + n + 1]
        out *= family.transition_prob(j - 1, a, b) / family.transition_prob(j, a, b)
    return out


def martingale_max_gap(family: MarkovFamily, n: int) -> Fraction:
    """Worst defect |E[Z_{n+1} | w] - Z_n(w)| of the restricted derivatives
    Z_n (`restricted_derivative_fraction`) over n-words w.

    Let w run from a at -n to b at n, with m(w) the product of P_j and z(w)
    that of P_{j-1} / P_j over its edges: mu(w) = pi_{-n}(a) m(w) and
    Z_n(w) = pi_{-n-1}(a) / pi_{-n}(a) z(w).  An extension (s, w, t) brings
    the factors pi_{-n-1}(s), P_{-n-1}(s, a) and P_n(b, t) into mu(swt), and
    Z_{n+1}(swt) divides them out again:
    mu(swt) Z_{n+1}(swt) = pi_{-n-2}(s) P_{-n-2}(s, a) m(w) z(w) P_{n-1}(b, t).
    Summing over s and t and dividing by mu(w),

        gap(w) = z(w) |L(a) R(b) - pi_{-n-1}(a)| / pi_{-n}(a),
        L(a) = sum_s pi_{-n-2}(s) P_{-n-2}(s, a),   R(b) = sum_t P_{n-1}(b, t).

    L and R are summed exactly: rows sum to 1 only within _SUM_TOL, and a
    marginal set by hand need not be stationary.  The worst word from a to b
    is the one with the largest z, which a max-product recursion over the
    2n edges finds in O(n |S|^3) exact products.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sft = family.sft
    # best[a][x]: the largest z over admissible paths from a at -n to x
    best = {a: {a: Fraction(1)} for a in sft.states}
    for j in range(-n, n):
        before, here = family.transition(j - 1), family.transition(j)
        for a, row in best.items():
            step: dict[int, Fraction] = {}
            for x, z in row.items():
                for y in sft.successors(x):
                    cand = z * before[x - 1][y - 1] / here[x - 1][y - 1]
                    step[y] = max(step.get(y, cand), cand)
            best[a] = step
    pi_left, p_left = family.marginal(-n - 2), family.transition(-n - 2)
    p_right = family.transition(n - 1)
    worst = Fraction(0)
    for a, row in best.items():
        left = sum(pi_left[s - 1] * p_left[s - 1][a - 1] for s in sft.predecessors(a))
        pi_a, pi_before = family.marginal_prob(-n, a), family.marginal_prob(-n - 1, a)
        for b, z in row.items():
            worst = max(worst, z * abs(left * sum(p_right[b - 1]) - pi_before) / pi_a)
    return worst


# ---------------------------------------------------------------------------
# Transition ratio constant


class RatioConstant(NamedTuple):
    value: Fraction
    floor: Fraction
    floor_ok: bool
    min_entry: Fraction


def transition_ratio_constant(family: MarkovFamily) -> RatioConstant:
    """L = sup over rows of (largest / smallest positive entry), exact for
    the compactly perturbed family; also reports the floor L^-|S| and whether
    every positive entry clears it (it need not when L is small)."""
    matrices = [family.base_transition] + list(family.window.values())
    ratio = Fraction(1)
    min_entry = Fraction(1)
    for mat in matrices:
        for row in mat:
            positive = [e for e in row if e > 0]
            ratio = max(ratio, max(positive) / min(positive))
            min_entry = min(min_entry, min(positive))
    floor = Fraction(1) / ratio**family.sft.n_states
    return RatioConstant(ratio, floor, min_entry >= floor, min_entry)


# ---------------------------------------------------------------------------
# Coupling of symmetric cylinders through a hub state


class CouplingCertificate(NamedTuple):
    b: Cylinder
    c: Cylinder
    b_prime: Cylinder
    c_prime: Cylinder
    hub_state: int
    n: int
    path_length: int
    mu_b: Fraction
    mu_c: Fraction
    mu_b_prime: Fraction
    mu_c_prime: Fraction
    ratio: Fraction
    ratio_constant: Fraction
    bound_strong: Fraction
    bound_weak: Fraction
    b_bound_strong_ok: bool
    c_bound_strong_ok: bool
    b_bound_weak_ok: bool
    c_bound_weak_ok: bool
    transported_bound_ok: bool
    bijective_ok: bool
    pushforward_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.b_bound_weak_ok
            and self.c_bound_weak_ok
            and self.transported_bound_ok
            and self.bijective_ok
            and self.pushforward_ok
        )


def _best_path(
    family: MarkovFamily, start: int, end: int, first_index: int, steps: int
) -> tuple[tuple[int, ...], Fraction]:
    """Max-weight admissible state path start -> end using the transition
    matrices at indices first_index .. first_index+steps-1; deterministic
    lexicographic tie-break.  Existence is guaranteed when steps is at least
    the primitivity index."""
    best: dict[int, tuple[Fraction, tuple[int, ...]]] = {start: (Fraction(1), (start,))}
    for step in range(steps):
        mat = family.transition(first_index + step)
        nxt: dict[int, tuple[Fraction, tuple[int, ...]]] = {}
        for s, (w, path) in best.items():
            for t in family.sft.successors(s):
                cand = (w * mat[s - 1][t - 1], path + (t,))
                cur = nxt.get(t)
                if cur is None or cand[0] > cur[0] or (
                    cand[0] == cur[0] and cand[1] < cur[1]
                ):
                    nxt[t] = cand
        best = nxt
    if end not in best:
        raise NonSingularError(
            f"no admissible path of length {steps} from {start} to {end}"
        )
    weight, path = best[end]
    return path, weight


def _extend_word(
    family: MarkovFamily, word: Cylinder, hub: int, path_length: int
) -> Cylinder:
    n = word.right
    left_path, _ = _best_path(family, hub, word.word[0], -n - path_length, path_length)
    right_path, _ = _best_path(family, word.word[-1], hub, n, path_length)
    full = left_path[:-1] + word.word + right_path[1:]
    return Cylinder(-n - path_length, n + path_length, full)


class _HubCoupling(NamedTuple):
    """What every coupling of symmetric n-cylinders shares: the path length
    N (the primitivity index), the hub state, the bounds |S|^-1 L^-|S|N and
    |S|^-1 L^-2|S|N, and the one-symbol margins around the hub."""

    n: int
    path_length: int
    state: int
    ratio_constant: Fraction
    bound_strong: Fraction
    bound_weak: Fraction
    left_exts: tuple[int, ...]
    right_exts: tuple[int, ...]


class _WordCoupling(NamedTuple):
    """One cylinder's side of every coupling it takes part in."""

    cyl: Cylinder
    prime: Cylinder
    mu: Fraction
    mu_prime: Fraction
    bound_strong_ok: bool
    bound_weak_ok: bool
    hub_ok: bool
    margin_masses: tuple[Fraction, ...]
    total_ok: bool


def _hub_coupling(family: MarkovFamily, n: int) -> _HubCoupling:
    index = primitivity_index(family.sft)
    if index is None:
        raise NonSingularError("SFT is not primitive: no coupling path length")
    pi = family.marginal(-n - index)
    hub = max(family.sft.states, key=lambda s: (pi[s - 1], -s))
    assert pi[hub - 1] >= Fraction(1, family.sft.n_states)
    size = family.sft.n_states
    big_l = transition_ratio_constant(family).value
    return _HubCoupling(
        n=n,
        path_length=index,
        state=hub,
        ratio_constant=big_l,
        bound_strong=Fraction(1, size) / big_l ** (size * index),
        bound_weak=Fraction(1, size) / big_l ** (2 * size * index),
        left_exts=tuple(sorted(family.sft.predecessors(hub))),
        right_exts=tuple(sorted(family.sft.successors(hub))),
    )


def _word_coupling(family: MarkovFamily, hub: _HubCoupling, cyl: Cylinder) -> _WordCoupling:
    prime = _extend_word(family, cyl, hub.state, hub.path_length)
    mu = markov_cylinder_measure(family, cyl)
    mu_prime = markov_cylinder_measure(family, prime)
    # one-margin extensions: R keeps the margins, so bijectivity amounts to
    # both extended words exposing the hub state at both ends
    margin_masses = tuple(
        markov_cylinder_measure(
            family, Cylinder(prime.left - 1, prime.right + 1, (u,) + prime.word + (v,))
        )
        for u in hub.left_exts
        for v in hub.right_exts
    )
    return _WordCoupling(
        cyl=cyl,
        prime=prime,
        mu=mu,
        mu_prime=mu_prime,
        bound_strong_ok=mu_prime >= hub.bound_strong * mu,
        bound_weak_ok=mu_prime >= hub.bound_weak * mu,
        hub_ok=prime.word[0] == hub.state
        and prime.word[-1] == hub.state
        and set(family.sft.predecessors(prime.word[0])) == set(hub.left_exts),
        margin_masses=margin_masses,
        total_ok=sum(margin_masses) == mu_prime,
    )


def _certificate(hub: _HubCoupling, b: _WordCoupling, c: _WordCoupling) -> CouplingCertificate:
    ratio = c.mu_prime / b.mu_prime
    pushforward = (
        all(mass_b * ratio == mass_c for mass_b, mass_c in zip(b.margin_masses, c.margin_masses))
        and b.total_ok
        and b.mu_prime * ratio == c.mu_prime
    )
    return CouplingCertificate(
        b=b.cyl,
        c=c.cyl,
        b_prime=b.prime,
        c_prime=c.prime,
        hub_state=hub.state,
        n=hub.n,
        path_length=hub.path_length,
        mu_b=b.mu,
        mu_c=c.mu,
        mu_b_prime=b.mu_prime,
        mu_c_prime=c.mu_prime,
        ratio=ratio,
        ratio_constant=hub.ratio_constant,
        bound_strong=hub.bound_strong,
        bound_weak=hub.bound_weak,
        b_bound_strong_ok=b.bound_strong_ok,
        c_bound_strong_ok=c.bound_strong_ok,
        b_bound_weak_ok=b.bound_weak_ok,
        c_bound_weak_ok=c.bound_weak_ok,
        transported_bound_ok=c.bound_weak_ok,
        bijective_ok=b.hub_ok and c.hub_ok,
        pushforward_ok=pushforward,
    )


def couple_cylinders(family: MarkovFamily, b: Cylinder, c: Cylinder) -> CouplingCertificate:
    """Extend two positive symmetric n-cylinders to (n+N)-cylinders sharing a
    hub state at both ends (N the primitivity index), so that the central
    rewiring map between them is a word bijection with constant mass ratio.

    All certificate numbers are exact rationals; the recorded bounds
    |S|^-1 L^-|S|N and |S|^-1 L^-2|S|N are checked, not assumed.
    """
    n = b.right
    if b.left != -n or c.left != -c.right or c.right != n:
        raise ValueError("need symmetric cylinders of equal radius")
    hub = _hub_coupling(family, n)
    return _certificate(hub, _word_coupling(family, hub, b), _word_coupling(family, hub, c))


class CouplingScan(NamedTuple):
    pairs: int
    strong_ok_pairs: int
    weak_ok_all: bool
    bijective_all: bool
    pushforward_all: bool


def coupling_scan(family: MarkovFamily, n: int) -> CouplingScan:
    """`couple_cylinders` over every ordered pair of symmetric n-cylinders,
    read off per-word aggregates.

    A pair's strong bound holds iff both words' do, so k words with it give
    k^2 pairs; the weak-bound and bijectivity verdicts of all pairs are those
    of all words.  A pair's push-forward, with ratio mu(c') / mu(b') > 0,
    holds iff b's margin masses sum to mu(b') and each margin has
    mass_b / mu(b') == mass_c / mu(c') (mu(b') * ratio == mu(c') holds by the
    ratio's definition).  So it holds for every pair iff every word's total
    holds and all words share one normalized margin vector.
    """
    hub = _hub_coupling(family, n)
    words = [_word_coupling(family, hub, Cylinder(-n, n, w)) for w in family.sft.words(2 * n + 1)]
    strong = sum(w.bound_strong_ok for w in words)
    shapes = {tuple(mass / w.mu_prime for mass in w.margin_masses) for w in words}
    return CouplingScan(
        pairs=len(words) ** 2,
        strong_ok_pairs=strong**2,
        weak_ok_all=all(w.bound_weak_ok for w in words),
        bijective_all=all(w.hub_ok for w in words),
        pushforward_all=all(w.total_ok for w in words) and len(shapes) <= 1,
    )


# ---------------------------------------------------------------------------
# Double-tail triviality probe


class TailTrivialityReport(NamedTuple):
    violated: bool
    eps: Fraction
    witness_b: Cylinder | None
    witness_c: Cylinder | None
    forced_lower_bound: Fraction | None


def tail_triviality_probe(
    family: MarkovFamily,
    d_cylinders: Sequence[Cylinder],
    eps: Fraction | None = None,
) -> TailTrivialityReport:
    """Diagnostic: can the candidate set D (a union of cylinders) be invariant
    under the double-tail relation?

    Searches symmetric cylinders B, C with D nearly full in B and nearly null
    in C; the coupling construction transports mass (eps^2/2) mu(C) from B
    into C for genuinely tail-invariant sets, so finding such a pair reports
    a violation.  Trivial candidates (null or co-null unions) report none.
    """
    index = primitivity_index(family.sft)
    if index is None:
        raise NonSingularError("SFT is not primitive")
    size = family.sft.n_states
    if eps is None:
        big_l = transition_ratio_constant(family).value
        eps = Fraction(1, size) / big_l ** (2 * size * index)

    radius = max(
        [1] + [max(abs(cyl.left), abs(cyl.right)) for cyl in d_cylinders if not cyl.is_empty]
    )
    if any(cyl.is_empty for cyl in d_cylinders):
        # the empty cylinder matches everything: D is the whole space
        return TailTrivialityReport(False, eps, None, None, None)

    # the first word in D and the first outside it; membership is
    # all-or-nothing at this radius.  Where they fall in word order is not
    # known up front, so the symbols of the words visited are counted
    first: dict[bool, Cylinder] = {}
    for visited, w in enumerate(family.sft.words(2 * radius + 1), 1):
        if visited * len(w) > RANGE_CAP:
            raise RangeCapError(f"tail_triviality_probe: words of length {len(w)} pass the cap")
        in_d = any(cyl.matches_word(-radius, w) for cyl in d_cylinders)
        first.setdefault(in_d, Cylinder(-radius, radius, w))
        if len(first) == 2:
            break
    else:
        return TailTrivialityReport(False, eps, None, None, None)

    b, c = first[True], first[False]
    mu_c = markov_cylinder_measure(family, c)
    return TailTrivialityReport(
        violated=True,
        eps=eps,
        witness_b=b,
        witness_c=c,
        forced_lower_bound=eps**2 / 2 * mu_c,
    )
