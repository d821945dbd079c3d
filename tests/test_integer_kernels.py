"""The exact kernels that run on integers against the Fraction code they
replaced: the Markov stationary distribution (fraction-free elimination),
the stochastic-matrix and stationarity checks, and region weights.  Every
comparison is ``==`` on exact rationals, and every error keeps its message.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import markov_sft as mk
from ergolab import poisson as ps

F = Fraction


def ref_stationary_distribution(transition):
    """Rational Gauss-Jordan on (P^T - I) x = 0 plus sum x = 1, pivoting
    on the first non-zero entry of each column."""
    p = [[F(e) for e in row] for row in transition]
    n = len(p)
    rows = [[p[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n - 1)]
    rows.append([F(1)] * n)
    rhs = [F(0)] * (n - 1) + [F(1)]
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


def ref_check_stochastic(sft, matrix, what):
    rows = tuple(tuple(F(e) for e in row) for row in matrix)
    if len(rows) != sft.n_states or any(len(r) != sft.n_states for r in rows):
        raise ValueError(f"{what}: wrong shape")
    for s in sft.states:
        row = rows[s - 1]
        if abs(sum(row) - 1) > F(1, 10**12):
            raise ValueError(f"{what}: row {s} sums to {sum(row)}")
        for t in sft.states:
            if (row[t - 1] > 0) != sft.edge(s, t):
                raise ValueError(
                    f"{what}: support mismatch at ({s},{t}); "
                    "need entries positive exactly on the adjacency support"
                )
            if row[t - 1] < 0:
                raise ValueError(f"{what}: negative entry at ({s},{t})")
    return rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def stochastic_rows(draw, n):
    """A random stochastic row: small rationals, or floats (2^k
    denominators) with the last entry closing the sum exactly."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        return [F(w, sum(weights)) for w in weights]
    head = [F(draw(st.floats(0, 1)) / n) for _ in range(n - 1)]
    return head + [1 - sum(head)]


@st.composite
def stochastic_matrices(draw):
    n = draw(st.integers(1, 4))
    return [draw(stochastic_rows(n)) for _ in range(n)]


class TestStationaryDistribution:
    @settings(max_examples=400, deadline=None)
    @given(stochastic_matrices())
    def test_matches_gauss_jordan(self, p):
        assert outcome(mk.stationary_distribution, p) == outcome(ref_stationary_distribution, p)

    @pytest.mark.parametrize(
        "p",
        [
            [[1, 0], [0, 1]],
            [[F(1, 2), F(1, 2), 0], [F(1, 3), F(2, 3), 0], [0, 0, 1]],
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, F(1, 4), F(3, 4)], [0, 0, F(1, 2), F(1, 2)]],
            [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    def test_reducible_matrices_raise_the_same_error(self, p):
        with pytest.raises(ValueError, match="^stationary distribution is not unique$"):
            ref_stationary_distribution(p)
        with pytest.raises(ValueError, match="^stationary distribution is not unique$"):
            mk.stationary_distribution(p)

    def test_float_and_string_entries(self):
        p = [[0.75, 0.25], ["1/3", "2/3"]]
        assert mk.stationary_distribution(p) == ref_stationary_distribution(p) == (F(4, 7), F(3, 7))


GOLDEN = mk.golden_mean()
FULL3 = mk.full_shift(3)


class TestCheckStochastic:
    @pytest.mark.parametrize(
        "sft, matrix, message",
        [
            (GOLDEN, [[1]], "base transition: wrong shape"),
            (GOLDEN, [[F(1, 2), F(1, 2)], [1]], "base transition: wrong shape"),
            (GOLDEN, [[F(1, 2), F(1, 3)], [1, 0]], "base transition: row 1 sums to 5/6"),
            (GOLDEN, [[F(1, 2), F(1, 2)], [F(2, 3), F(2, 3)]], "base transition: row 2 sums to 4/3"),
            (
                GOLDEN,
                [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
                "base transition: support mismatch at (2,2); "
                "need entries positive exactly on the adjacency support",
            ),
            (
                GOLDEN,
                [[1, 0], [1, 0]],
                "base transition: support mismatch at (1,2); "
                "need entries positive exactly on the adjacency support",
            ),
            (GOLDEN, [[F(1, 2), F(1, 2)], [F(3, 2), F(-1, 2)]], "base transition: negative entry at (2,2)"),
        ],
    )
    def test_each_error_keeps_its_message(self, sft, matrix, message):
        for check in (mk._check_stochastic, ref_check_stochastic):
            with pytest.raises(ValueError) as err:
                check(sft, matrix, "base transition")
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "off, ok",
        [(F(1, 10**12), True), (F(-1, 10**12), True), (F(1, 10**12) + F(1, 10**40), False)],
    )
    def test_row_sum_tolerance_edge(self, off, ok):
        matrix = [[F(1, 2), F(1, 2) + off], [1, 0]]
        assert (outcome(mk._check_stochastic, GOLDEN, matrix, "m") == tuple(
            tuple(F(e) for e in row) for row in matrix
        )) is ok
        assert outcome(mk._check_stochastic, GOLDEN, matrix, "m") == outcome(
            ref_check_stochastic, GOLDEN, matrix, "m"
        )

    def test_random_matrices_match_the_fraction_checks(self):
        rng = random.Random(19)
        entries = [0, 0, F(1, 3), F(1, 2), F(2, 3), F(-1, 6), 0.1, 0.2, 0.7, F(1, 10**13), 1]
        for _ in range(3000):
            sft = rng.choice([GOLDEN, FULL3, mk.full_shift(2)])
            n = sft.n_states
            matrix = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                # close each row so that the later checks get reached
                for row in matrix:
                    row[-1] = 1 - sum(F(e) for e in row[:-1]) + rng.choice([0, F(1, 10**14)])
            assert outcome(mk._check_stochastic, sft, matrix, "w") == outcome(
                ref_check_stochastic, sft, matrix, "w"
            )


class TestMarkovFamilyMarginal:
    P = [[F(3, 4), F(1, 4)], [F(1), F(0)]]

    @pytest.mark.parametrize(
        "marginal, message",
        [
            ([F(4, 5)], "base marginal must be strictly positive on all states"),
            ([F(1), F(0)], "base marginal must be strictly positive on all states"),
            ([F(6, 5), F(-1, 5)], "base marginal must be strictly positive on all states"),
            ([F(4, 5), F(1, 4)], "base marginal must sum to 1"),
            ([F(3, 4), F(1, 4)], "base marginal is not stationary for the base transition"),
            ([0.5, 0.5], "base marginal is not stationary for the base transition"),
        ],
    )
    def test_marginal_errors(self, marginal, message):
        with pytest.raises(ValueError) as err:
            mk.MarkovFamily(GOLDEN, self.P, marginal)
        assert str(err.value) == message

    @settings(max_examples=300, deadline=None)
    @given(stochastic_matrices(), st.integers(-2, 2), st.integers(0, 3), st.booleans())
    def test_marginal_checks_match_fractions(self, p, nudge, at, keep_sum):
        n = len(p)
        if any(e <= 0 for row in p for e in row):
            return
        pi = list(ref_stationary_distribution(p))
        pi[at % n] += F(nudge, 10**6)
        if keep_sum:
            pi[(at + 1) % n] -= F(nudge, 10**6)
        if any(e <= 0 for e in pi):
            want = "ValueError: base marginal must be strictly positive on all states"
        elif sum(pi) != 1:
            want = "ValueError: base marginal must sum to 1"
        elif tuple(sum(pi[s] * p[s][t] for s in range(n)) for t in range(n)) != tuple(pi):
            want = "ValueError: base marginal is not stationary for the base transition"
        else:
            want = tuple(pi)
        built = outcome(mk.MarkovFamily, mk.full_shift(n), p, pi)
        assert (built if type(built) is str else built.base_marginal) == want


def ref_region_weight(gs, region):
    return sum((Fraction(gs.weight(p)) for p in region), Fraction(0))


class TestRegionWeight:
    WEIGHTS = {0: F(1, 3), 1: F(1, 4), 2: 2, 3: 0.1, 4: F(5, 6), 5: "7/10", 6: 0.5, 7: F(0), 8: F(1, 10**30)}

    def ground(self):
        return ps.GroundSpace(weight=self.WEIGHTS.__getitem__, jump=lambda p, k: p)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(sorted(WEIGHTS)), max_size=12))
    def test_matches_the_fraction_sum(self, region):
        gs = self.ground()
        got, want = gs.region_weight(region), ref_region_weight(gs, region)
        assert type(got) is Fraction and got == want
        assert float(got).hex() == float(want).hex()

    def test_mixed_denominators(self):
        gs = self.ground()
        assert gs.region_weight([0, 1, 4]) == F(1, 3) + F(1, 4) + F(5, 6)
        assert gs.region_weight([2, 3, 8]) == 2 + F(0.1) + F(1, 10**30)

    def test_empty_region(self):
        assert self.ground().region_weight([]) == 0
        assert ps.integer_translation().region_weight(set()) == F(0)

    def test_grounds(self):
        assert ps.integer_translation(3).region_weight(range(-5, 5)) == 10
        assert ps.finite_cycle(4).region_weight([0, 1, 3]) == 3
        assert ps.weighted_points({1: "1/3", 2: 0.25}).region_weight([1, 2]) == F(7, 12)

    def test_point_outside_a_cycle_still_raises(self):
        with pytest.raises(ValueError, match="point 4 outside cycle of length 4"):
            ps.finite_cycle(4).region_weight([0, 4])
        with pytest.raises(ValueError, match="point 3 has no assigned weight"):
            ps.weighted_points({1: 1}).region_weight([1, 3])
