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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .bernoulli import _as_fraction
from .errors import NonSingularError
from .shift_core import Cylinder

_SUM_TOL = Fraction(1, 10**12)


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
        if any(not (1 <= s <= self.n_states) for s in word):
            return False
        return all(self.edge(a, b) for a, b in zip(word, word[1:]))

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


def stationary_distribution(transition) -> tuple[Fraction, ...]:
    """Exact row vector pi with pi P = pi and sum 1 (rational Gauss)."""
    p = [[_as_fraction(e) for e in row] for row in transition]
    n = len(p)
    # rows 0..n-2: (P^T - I) x = 0; last row: sum x = 1
    rows = [[p[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n - 1)]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("stationary distribution is not unique")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [e * inv for e in rows[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * g for e, g in zip(rows[r], rows[col])]
                rhs[r] -= f * rhs[col]
    return tuple(rhs)


def _check_stochastic(sft: SFT, matrix, what: str) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(_as_fraction(e) for e in row) for row in matrix)
    if len(rows) != sft.n_states or any(len(r) != sft.n_states for r in rows):
        raise ValueError(f"{what}: wrong shape")
    for s in sft.states:
        row = rows[s - 1]
        if abs(sum(row) - 1) > _SUM_TOL:
            raise ValueError(f"{what}: row {s} sums to {sum(row)}")
        for t in sft.states:
            positive = row[t - 1] > 0
            if positive != sft.edge(s, t):
                raise ValueError(
                    f"{what}: support mismatch at ({s},{t}); "
                    "need entries positive exactly on the adjacency support"
                )
            if row[t - 1] < 0:
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
        if len(pi) != sft.n_states or any(e <= 0 for e in pi):
            raise ValueError("base marginal must be strictly positive on all states")
        if sum(pi) != 1:
            raise ValueError("base marginal must sum to 1")
        row = tuple(
            sum(pi[s] * self.base_transition[s][t] for s in range(sft.n_states))
            for t in range(sft.n_states)
        )
        if row != pi:
            raise ValueError("base marginal is not stationary for the base transition")
        self.base_marginal = pi
        self.window: dict[int, tuple[tuple[Fraction, ...], ...]] = {}
        if window:
            for k, mat in window.items():
                checked = _check_stochastic(sft, mat, f"window transition {k}")
                if checked != self.base_transition:
                    self.window[int(k)] = checked
        self._lo = min(self.window, default=0)
        self._marginals: dict[int, tuple[Fraction, ...]] = {}

    @property
    def half_width(self) -> int:
        """K with transition(n) = base for |n| > K."""
        return max((abs(k) for k in self.window), default=0)

    def transition(self, n: int) -> tuple[tuple[Fraction, ...], ...]:
        return self.window.get(n, self.base_transition)

    def marginal(self, n: int) -> tuple[Fraction, ...]:
        if n <= self._lo:
            return self.base_marginal
        if n not in self._marginals:
            # evolve forward from the nearest cached marginal below n (or the
            # base one at the window's left end), caching every step
            k = n - 1
            while k > self._lo and k not in self._marginals:
                k -= 1
            prev = self._marginals.get(k, self.base_marginal)
            for j in range(k + 1, n + 1):
                p = self.transition(j - 1)
                prev = tuple(
                    sum(prev[s] * p[s][t] for s in range(self.sft.n_states))
                    for t in range(self.sft.n_states)
                )
                self._marginals[j] = prev
        return self._marginals[n]

    def transition_prob(self, n: int, s: int, t: int) -> Fraction:
        return self.transition(n)[s - 1][t - 1]

    def marginal_prob(self, n: int, s: int) -> Fraction:
        return self.marginal(n)[s - 1]


def markov_cylinder_measure(family: MarkovFamily, cyl: Cylinder) -> Fraction:
    """Exact mass pi_k(b_k) * prod P_j(b_j, b_{j+1}); inadmissible words error."""
    if cyl.is_empty:
        return Fraction(1)
    if not family.sft.admissible(cyl.word):
        raise ValueError(f"word {cyl.word} is not admissible in the SFT")
    out = family.marginal_prob(cyl.left, cyl.word[0])
    for j in range(cyl.left, cyl.right):
        out *= family.transition_prob(j, cyl.symbol(j), cyl.symbol(j + 1))
    return out


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
    """Worst martingale defect of the restricted derivatives over n-words.

    The conditional expectation is the exact enumeration of one-symbol
    extensions on both sides weighted by their cylinder mass.  A depth-first
    walk over the n-words carries each word's middle transition product and
    derivative-ratio product, so an extension multiplies in only the factors
    of its two new edges (and, on the left, of its new marginal).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sft = family.sft

    def edge(j: int, a: int, b: int) -> tuple[Fraction, Fraction]:
        """Mass factor P_j(a, b) and derivative factor P_{j-1}(a, b) / P_j(a, b)."""
        p = family.transition_prob(j, a, b)
        return p, family.transition_prob(j - 1, a, b) / p

    # new left symbol s before a at -n-1: marginal and first edge of the
    # (n+1)-cylinder; new right symbol t after b at n+1: its last edge
    left = {}
    for a in sft.states:
        for s in sft.predecessors(a):
            p, r = edge(-n - 1, s, a)
            pi = family.marginal_prob(-n - 1, s)
            left[s, a] = (pi * p, family.marginal_prob(-n - 2, s) / pi * r)
    right = {(b, t): edge(n, b, t) for b in sft.states for t in sft.successors(b)}

    worst = Fraction(0)
    stack = [((s,), Fraction(1), Fraction(1)) for s in reversed(sft.states)]
    while stack:
        w, mass_mid, z_mid = stack.pop()
        if len(w) < 2 * n + 1:
            j = len(w) - 1 - n  # index of w[-1]
            for t in reversed(sft.successors(w[-1])):
                p, r = edge(j, w[-1], t)
                stack.append((w + (t,), mass_mid * p, z_mid * r))
            continue
        a, b = w[0], w[-1]
        pi = family.marginal_prob(-n, a)
        zn = family.marginal_prob(-n - 1, a) / pi * z_mid
        acc = Fraction(0)
        for s in sft.predecessors(a):
            left_mass, left_z = left[s, a]
            for t in sft.successors(b):
                right_mass, right_z = right[b, t]
                acc += (left_mass * mass_mid * right_mass) * (left_z * z_mid * right_z)
        gap = abs(acc / (pi * mass_mid) - zn)
        if gap > worst:
            worst = gap
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
    """`couple_cylinders` over every ordered pair of symmetric n-cylinders.

    Each word's extension, masses, bound flags and margin masses are built
    once; every pair then gets its own certificate with its own ratio and
    exact push-forward equalities.
    """
    hub = _hub_coupling(family, n)
    words = [_word_coupling(family, hub, Cylinder(-n, n, w)) for w in family.sft.words(2 * n + 1)]
    pairs = strong = 0
    weak_all = bij_all = push_all = True
    for wb in words:
        for wc in words:
            cert = _certificate(hub, wb, wc)
            pairs += 1
            strong += int(cert.b_bound_strong_ok and cert.c_bound_strong_ok)
            weak_all = weak_all and cert.b_bound_weak_ok and cert.c_bound_weak_ok
            bij_all = bij_all and cert.bijective_ok
            push_all = push_all and cert.pushforward_ok
    return CouplingScan(pairs, strong, weak_all, bij_all, push_all)


# ---------------------------------------------------------------------------
# Double-tail triviality probe


class TailTrivialityReport(NamedTuple):
    violated: bool
    eps: Fraction
    witness_b: Cylinder | None
    witness_c: Cylinder | None
    density_in_b: Fraction | None
    density_in_c: Fraction | None
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
        return TailTrivialityReport(False, eps, None, None, None, None, None)

    words = list(family.sft.words(2 * radius + 1))
    in_d: dict[tuple[int, ...], bool] = {}
    for w in words:
        in_d[w] = any(cyl.matches_word(-radius, w) for cyl in d_cylinders)

    nearly_full = []
    nearly_null = []
    for w in words:
        cyl = Cylinder(-radius, radius, w)
        # membership is all-or-nothing at this radius
        if in_d[w]:
            nearly_full.append(cyl)
        else:
            nearly_null.append(cyl)
    if not nearly_full or not nearly_null:
        return TailTrivialityReport(False, eps, None, None, None, None, None)

    b, c = nearly_full[0], nearly_null[0]
    mu_c = markov_cylinder_measure(family, c)
    return TailTrivialityReport(
        violated=True,
        eps=eps,
        witness_b=b,
        witness_c=c,
        density_in_b=Fraction(1),
        density_in_c=Fraction(0),
        forced_lower_bound=eps**2 / 2 * mu_c,
    )
