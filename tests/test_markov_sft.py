import random
from fractions import Fraction

import pytest

from ergolab import markov_sft as mk
from ergolab.shift_core import Cylinder, RangeCapError

F = Fraction


def golden_family(tilted=True):
    """Golden-mean SFT; the tilted transition has ratio constant 3."""
    sft = mk.golden_mean()
    if tilted:
        p = [[F(3, 4), F(1, 4)], [F(1), F(0)]]
        pi = [F(4, 5), F(1, 5)]
    else:
        p = [[F(1, 2), F(1, 2)], [F(1), F(0)]]
        pi = [F(2, 3), F(1, 3)]
    return mk.MarkovFamily(sft, p, pi)


def full2_family():
    p = [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]]
    return mk.MarkovFamily(mk.full_shift(2), p)


def full3_family():
    p = [
        [F(1, 2), F(1, 4), F(1, 4)],
        [F(1, 4), F(1, 2), F(1, 4)],
        [F(1, 4), F(1, 4), F(1, 2)],
    ]
    return mk.MarkovFamily(mk.full_shift(3), p, [F(1, 3)] * 3)


def perturbed_golden():
    base = golden_family()
    window = {0: [[F(1, 2), F(1, 2)], [F(1), F(0)]]}
    return mk.MarkovFamily(base.sft, base.base_transition, base.base_marginal, window)


class TestSFT:
    def test_validation(self):
        with pytest.raises(ValueError):
            mk.SFT.of([[1, 0], [1, 0]])  # state 2 has no incoming edge
        with pytest.raises(ValueError):
            mk.SFT.of([[0, 1], [0, 0]])  # state 2 has no outgoing edge

    def test_golden_mean_word_counts_are_fibonacci(self):
        sft = mk.golden_mean()
        counts = [len(list(sft.words(n))) for n in range(1, 7)]
        assert counts == [2, 3, 5, 8, 13, 21]

    @pytest.mark.parametrize(
        "rows",
        [[[1, 1], [1, 0]], [[0, 1], [1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1] * 3] * 3],
        ids=["golden", "swap", "cycle-loops", "full3"],
    )
    def test_count_words_matches_enumeration(self, rows):
        sft = mk.SFT.of(rows)
        for length in range(1, 10):
            count = len(list(sft.words(length)))
            assert sft.count_words(length, 10**6) == count
            # a count past the cap reads cap + 1
            assert sft.count_words(length, count - 1) == count
            assert sft.count_words(length, count // 2) == count // 2 + 1

    def test_count_words_saturates_without_enumerating(self):
        # 6.6e12 golden-mean words of length 61; a length of 10^18 costs 60 squarings
        assert mk.golden_mean().count_words(61, 2**24) == 2**24 + 1
        assert mk.golden_mean().count_words(10**18, 2**24) == 2**24 + 1
        assert mk.SFT.of([[0, 1], [1, 0]]).count_words(10**18, 2**24) == 2

    def test_admissibility(self):
        sft = mk.golden_mean()
        assert sft.admissible((1, 2, 1, 1))
        assert not sft.admissible((2, 2))


class TestPrimitivity:
    def test_full_matrix(self):
        assert mk.primitivity_index(mk.full_shift(3)) == 1

    def test_golden_mean_squares(self):
        assert mk.primitivity_index(mk.golden_mean()) == 2

    def test_identity_never_primitive(self):
        assert mk.primitivity_index(mk.SFT.of([[1, 0], [0, 1]])) is None


class TestStationary:
    def test_golden_mean_stationary(self):
        p = [[F(1, 2), F(1, 2)], [F(1), F(0)]]
        assert mk.stationary_distribution(p) == (F(2, 3), F(1, 3))

    def test_tilted_stationary(self):
        p = [[F(3, 4), F(1, 4)], [F(1), F(0)]]
        assert mk.stationary_distribution(p) == (F(4, 5), F(1, 5))

    def test_family_rejects_nonstationary_marginal(self):
        with pytest.raises(ValueError):
            mk.MarkovFamily(
                mk.golden_mean(),
                [[F(1, 2), F(1, 2)], [F(1), F(0)]],
                [F(1, 2), F(1, 2)],
            )

    def test_family_rejects_support_mismatch(self):
        with pytest.raises(ValueError):
            mk.MarkovFamily(
                mk.golden_mean(), [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
            )


class TestCylinderMeasure:
    def test_single_symbol(self):
        fam = golden_family(tilted=False)
        assert mk.markov_cylinder_measure(fam, Cylinder.of([1], left=0)) == F(2, 3)
        assert mk.markov_cylinder_measure(fam, Cylinder.of([2], left=5)) == F(1, 3)

    def test_worked_example(self):
        fam = golden_family(tilted=False)
        assert mk.markov_cylinder_measure(fam, Cylinder.of([1, 2], left=0)) == F(1, 3)

    def test_inadmissible_word_raises(self):
        with pytest.raises(ValueError):
            mk.markov_cylinder_measure(golden_family(), Cylinder.of([2, 2], left=0))

    @pytest.mark.parametrize("fam_builder", [golden_family, full2_family, perturbed_golden])
    def test_partition_of_unity(self, fam_builder):
        fam = fam_builder()
        total = sum(
            mk.markov_cylinder_measure(fam, Cylinder(-2, 2, w))
            for w in fam.sft.words(5)
        )
        assert total == 1

    @pytest.mark.parametrize("fam_builder", [golden_family, perturbed_golden])
    def test_two_sided_additivity(self, fam_builder):
        fam = fam_builder()
        for w in fam.sft.words(3):
            base = mk.markov_cylinder_measure(fam, Cylinder(-1, 1, w))
            right = sum(
                mk.markov_cylinder_measure(fam, Cylinder(-1, 2, w + (t,)))
                for t in fam.sft.successors(w[-1])
            )
            left = sum(
                mk.markov_cylinder_measure(fam, Cylinder(-2, 1, (s,) + w))
                for s in fam.sft.predecessors(w[0])
            )
            assert base == right == left

    def test_marginal_consistency(self):
        fam = perturbed_golden()
        n_states = fam.sft.n_states
        for n in range(-4, 5):
            evolved = tuple(
                sum(
                    fam.marginal(n)[s] * fam.transition(n)[s][t]
                    for s in range(n_states)
                )
                for t in range(n_states)
            )
            assert evolved == fam.marginal(n + 1)

    def test_far_right_cylinder_matches_plain_product(self):
        # 5000 coordinates right of the window: far past the recursion limit
        fam = perturbed_golden()
        row = fam.base_marginal
        for j in range(-3, 5000):
            p = fam.transition(j)
            row = tuple(sum(row[s] * p[s][t] for s in range(2)) for t in range(2))
        expected = row[0] * fam.transition(5000)[0][1]
        assert mk.markov_cylinder_measure(fam, Cylinder.of([1, 2], 5000)) == expected
        assert fam.marginal(5000) == row


    @staticmethod
    def count_transitions(fam) -> list[int]:
        """Record the index of every `transition` call made on ``fam``; fail
        fast rather than step a marginal forward a billion times."""
        calls: list[int] = []
        transition = fam.transition

        def counted(n):
            calls.append(n)
            assert len(calls) < 100, "marginal stepped forward"
            return transition(n)

        fam.transition = counted
        return calls

    def test_window_free_marginal_is_not_stepped_forward(self):
        fam = golden_family()
        calls = self.count_transitions(fam)
        value = mk.markov_cylinder_measure(fam, Cylinder.of([1, 2, 1], 10**9))
        assert value == F(4, 5) * F(1, 4) * F(1)
        # one step shows the base marginal is kept; then the cylinder's two edges
        assert len(calls) == 3
        assert fam.marginal(-(10**9)) == fam.marginal(10**9) == fam.base_marginal

    def test_unsettled_marginals_stop_at_the_bit_budget(self, monkeypatch):
        # the perturbed golden-mean marginal never returns to the base one
        monkeypatch.setattr(mk, "_MARGINAL_BITS", 2000)
        fam = perturbed_golden()
        with pytest.raises(RangeCapError, match="pass 2000 bits"):
            mk.markov_cylinder_measure(fam, Cylinder.of([1], 10**9))
        kept = len(fam._evolved)
        bits = sum(e.denominator.bit_length() + 64 for row in fam._evolved for e in row)
        # the refused marginal is counted but not kept
        assert 0 < kept < 16 and bits <= 2000 < fam._evolved_bits
        with pytest.raises(RangeCapError):
            fam.marginal(kept + 1)
        # the kept marginals still answer, and so does every one left of them
        assert fam.marginal(kept) == fam._evolved[-1] != fam.base_marginal
        assert fam.marginal(-(10**9)) == fam.base_marginal

    def test_wide_window_with_small_marginals_answers(self):
        # every marginal is the uniform one, so 9000 of them stay far under
        # the budget although none settles before the window's right end
        full = mk.SFT.of([[1, 1], [1, 1]])
        uniform = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        lazy = [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]
        fam = mk.MarkovFamily(full, uniform, None, {0: lazy, 10000: lazy})
        assert mk.markov_cylinder_measure(fam, Cylinder.of([1, 2], 9000)) == F(1, 4)
        assert len(fam._evolved) == 9000
        # each entry 1/2 costs its 2-bit denominator plus one word
        assert fam._evolved_bits == 9000 * 2 * (2 + 64) < mk._MARGINAL_BITS // 50

    def test_marginal_settles_once_it_returns_to_the_base(self):
        # identical base rows; the marginal leaves the base one at 1, is back
        # on it at 2 inside the window, leaves again at 3 and settles at 4
        half = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        away = [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]]
        back = [[F(3, 11), F(8, 11)], [F(9, 13), F(4, 13)]]
        fam = mk.MarkovFamily(mk.full_shift(2), half, None, {0: away, 1: back, 2: away})
        expected, row = {}, fam.base_marginal
        for n in range(-3, 40):
            expected[n] = row
            p = fam.transition(n)
            row = tuple(sum(row[s] * p[s][t] for s in range(2)) for t in range(2))
        assert expected[2] == fam.base_marginal != expected[3]
        calls = self.count_transitions(fam)
        assert fam.marginal(10**9) == fam.base_marginal
        assert calls == [0, 1, 2, 3]
        assert all(fam.marginal(n) == expected[n] for n in expected)
        assert len(calls) == 4


class TestRestrictedDerivative:
    def test_stationary_z_is_one(self):
        fam = golden_family()
        for w in fam.sft.words(7):
            assert mk.restricted_derivative_fraction(fam, Cylinder(-3, 3, w), 3) == 1

    def test_perturbed_z_matches_direct_product(self):
        fam = perturbed_golden()
        for w in fam.sft.words(5):
            cyl = Cylinder(-2, 2, w)
            # direct evaluation of the defining product, written independently
            expected = fam.marginal_prob(-3, w[0]) / fam.marginal_prob(-2, w[0])
            for j in range(-2, 2):
                a, b = w[j + 2], w[j + 3]
                expected *= fam.transition_prob(j - 1, a, b) / fam.transition_prob(
                    j, a, b
                )
            assert mk.restricted_derivative_fraction(fam, cyl, 2) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_martingale_exact(self, n):
        assert mk.martingale_max_gap(perturbed_golden(), n) == 0

    def test_martingale_exact_full_shift(self):
        fam = mk.MarkovFamily(
            mk.full_shift(2),
            [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]],
            None,
            {1: [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]},
        )
        for n in (1, 2, 3):
            assert mk.martingale_max_gap(fam, n) == 0


class TestTransitionRatio:
    def test_equal_rows_give_one(self):
        res = mk.transition_ratio_constant(golden_family(tilted=False))
        assert res.value == 1
        # the naive positive-entry floor L^-|S| is 1, which a (1/2, 1/2) row
        # cannot clear: the floor check honestly reports the failure
        assert not res.floor_ok

    def test_tilted_ratio_three(self):
        res = mk.transition_ratio_constant(golden_family())
        assert res.value == 3
        assert res.floor == F(1, 9)
        assert res.min_entry == F(1, 4)
        assert res.floor_ok

    def test_window_included_in_scan(self):
        fam = mk.MarkovFamily(
            mk.full_shift(2),
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
            None,
            {3: [[F(4, 5), F(1, 5)], [F(1, 2), F(1, 2)]]},
        )
        assert mk.transition_ratio_constant(fam).value == 4


# --- exhaustive-enumeration oracle for the coupling ------------------------


def enumerate_measure(family, core: Cylinder, margin: int) -> Fraction:
    """Mass of a cylinder via enumeration of all its margin-extensions."""
    total = F(0)
    for w in family.sft.words(len(core.word) + 2 * margin):
        cyl = Cylinder(core.left - margin, core.right + margin, w)
        if core.matches_word(cyl.left, w):
            total += mk.markov_cylinder_measure(family, cyl)
    return total


class TestCoupling:
    def test_identical_cylinders_give_ratio_one(self):
        fam = golden_family()
        b = Cylinder.of([1, 1, 1], left=-1)
        cert = mk.couple_cylinders(fam, b, b)
        assert cert.ratio == 1
        assert cert.b_prime == cert.c_prime
        assert cert.all_ok

    @pytest.mark.parametrize(
        "fam_builder,n", [(golden_family, 1), (golden_family, 2), (full2_family, 1)]
    )
    def test_certificates_against_enumeration(self, fam_builder, n):
        fam = fam_builder()
        words = list(fam.sft.words(2 * n + 1))
        for wb in words:
            for wc in words:
                b, c = Cylinder(-n, n, wb), Cylinder(-n, n, wc)
                cert = mk.couple_cylinders(fam, b, c)
                # extended words extend the originals and share the hub state
                assert b.matches_word(cert.b_prime.left, cert.b_prime.word)
                assert c.matches_word(cert.c_prime.left, cert.c_prime.word)
                assert cert.b_prime.word[0] == cert.b_prime.word[-1] == cert.hub_state
                assert cert.c_prime.word[0] == cert.c_prime.word[-1] == cert.hub_state
                # measures agree with margin-extension enumeration
                assert cert.mu_b_prime == enumerate_measure(fam, cert.b_prime, 1)
                assert cert.mu_c_prime == enumerate_measure(fam, cert.c_prime, 2)
                assert cert.mu_b == enumerate_measure(fam, b, 1)
                # exact push-forward and containment bounds
                assert cert.pushforward_ok and cert.bijective_ok
                assert cert.mu_b_prime * cert.ratio == cert.mu_c_prime
                assert cert.b_bound_weak_ok and cert.c_bound_weak_ok

    def test_mass_transport_identity(self):
        fam = golden_family()
        b = Cylinder.of([1, 2, 1], left=-1)
        c = Cylinder.of([1, 1, 1], left=-1)
        cert = mk.couple_cylinders(fam, b, c)
        transported = F(0)
        margin = 1
        for w in fam.sft.words(len(cert.b_prime.word) + 2 * margin):
            if cert.b_prime.matches_word(cert.b_prime.left - margin, w):
                transported += (
                    mk.markov_cylinder_measure(
                        fam,
                        Cylinder(
                            cert.b_prime.left - margin, cert.b_prime.right + margin, w
                        ),
                    )
                    * cert.ratio
                )
        assert transported == cert.mu_c_prime

    def test_bound_constants_recomputed_independently(self):
        fam = full3_family()
        n, size = 1, 3
        index = mk.primitivity_index(fam.sft)
        ratio = max(
            max(e for e in row if e > 0) / min(e for e in row if e > 0)
            for row in fam.base_transition
        )
        words = list(fam.sft.words(2 * n + 1))
        for wb in words[:9]:
            for wc in words[:9]:
                cert = mk.couple_cylinders(
                    fam, Cylinder(-n, n, wb), Cylinder(-n, n, wc)
                )
                assert cert.bound_strong == F(1, size) / ratio ** (size * index)
                assert cert.bound_weak == F(1, size) / ratio ** (2 * size * index)
                assert cert.mu_b_prime >= cert.bound_strong * cert.mu_b
                assert cert.mu_c_prime >= cert.bound_weak * cert.mu_c

    def test_asymmetric_cylinders_rejected(self):
        fam = golden_family()
        with pytest.raises(ValueError):
            mk.couple_cylinders(
                fam, Cylinder.of([1, 1], left=0), Cylinder.of([1, 1], left=0)
            )


class TestTailTriviality:
    def test_whole_space_no_violation(self):
        rep = mk.tail_triviality_probe(golden_family(), [Cylinder.empty()])
        assert not rep.violated

    def test_empty_union_no_violation(self):
        rep = mk.tail_triviality_probe(golden_family(), [])
        assert not rep.violated

    def test_single_cylinder_violates(self):
        rep = mk.tail_triviality_probe(golden_family(), [Cylinder.of([1, 1, 1], left=-1)])
        assert rep.violated
        assert rep.forced_lower_bound > 0
        assert rep.witness_b is not None and rep.witness_c is not None

    def test_witnesses_are_the_first_words_in_and_outside_d(self):
        fam = golden_family()
        d = [Cylinder.of([1, 2], left=0), Cylinder.of([2, 1, 1], left=-1)]
        rep = mk.tail_triviality_probe(fam, d)
        words = list(fam.sft.words(3))
        inside = [w for w in words if any(cyl.matches_word(-1, w) for cyl in d)]
        outside = [w for w in words if w not in inside]
        assert words.index(inside[0]) > 0 and len(outside) > 1
        assert rep.witness_b == Cylinder(-1, 1, inside[0])
        assert rep.witness_c == Cylinder(-1, 1, outside[0])
        mu_c = mk.markov_cylinder_measure(fam, rep.witness_c)
        assert rep.forced_lower_bound == rep.eps**2 / 2 * mu_c

    def test_far_first_word_in_d_within_the_cap(self):
        # the first word in D follows the 17,711 words of length 21 that
        # start with 1: 371,931 symbols visited, well under the cap
        fam = golden_family()
        rep = mk.tail_triviality_probe(fam, [Cylinder.of([2], left=-10)])
        assert rep.witness_b == Cylinder(-10, 10, (2,) + (1,) * 20)
        assert rep.witness_c == Cylinder(-10, 10, (1,) * 21)

    def test_words_past_the_cap_refused(self, monkeypatch):
        monkeypatch.setattr(mk, "RANGE_CAP", 17710 * 21)
        with pytest.raises(RangeCapError, match="words of length 21 pass the cap"):
            mk.tail_triviality_probe(golden_family(), [Cylinder.of([2], left=-10)])
        monkeypatch.setattr(mk, "RANGE_CAP", 17712 * 21)
        assert mk.tail_triviality_probe(golden_family(), [Cylinder.of([2], left=-10)]).violated


# --- pairwise reference for the per-word certificates ----------------------
#
# `pairwise_couple` and `pairwise_martingale_gap` are the pairwise
# `couple_cylinders` and `martingale_max_gap` that recomputed every word's
# exact data for each pair and each extension; `pairwise_scan` is the
# runner's scan over them.  The per-word code must give `==` results.


def pairwise_couple(family, b: Cylinder, c: Cylinder) -> mk.CouplingCertificate:
    n = b.right
    if b.left != -n or c.left != -c.right or c.right != n:
        raise ValueError("need symmetric cylinders of equal radius")
    index = mk.primitivity_index(family.sft)
    pi = family.marginal(-n - index)
    hub = max(family.sft.states, key=lambda s: (pi[s - 1], -s))
    b_prime = mk._extend_word(family, b, hub, index)
    c_prime = mk._extend_word(family, c, hub, index)
    mu_b = mk.markov_cylinder_measure(family, b)
    mu_c = mk.markov_cylinder_measure(family, c)
    mu_bp = mk.markov_cylinder_measure(family, b_prime)
    mu_cp = mk.markov_cylinder_measure(family, c_prime)
    ratio = mu_cp / mu_bp
    size = family.sft.n_states
    big_l = mk.transition_ratio_constant(family).value
    bound_strong = F(1, size) / big_l ** (size * index)
    bound_weak = F(1, size) / big_l ** (2 * size * index)
    left_exts = set(family.sft.predecessors(hub))
    right_exts = set(family.sft.successors(hub))
    bijective = (
        b_prime.word[0] == hub
        and b_prime.word[-1] == hub
        and c_prime.word[0] == hub
        and c_prime.word[-1] == hub
        and set(family.sft.predecessors(b_prime.word[0])) == left_exts
        and set(family.sft.predecessors(c_prime.word[0])) == left_exts
    )
    pushforward = True
    total = F(0)
    for u in sorted(left_exts):
        for v in sorted(right_exts):
            w_b = Cylinder(b_prime.left - 1, b_prime.right + 1, (u,) + b_prime.word + (v,))
            w_c = Cylinder(c_prime.left - 1, c_prime.right + 1, (u,) + c_prime.word + (v,))
            mass_b = mk.markov_cylinder_measure(family, w_b)
            mass_c = mk.markov_cylinder_measure(family, w_c)
            pushforward = pushforward and (mass_b * ratio == mass_c)
            total += mass_b
    pushforward = pushforward and (total == mu_bp) and (mu_bp * ratio == mu_cp)
    return mk.CouplingCertificate(
        b, c, b_prime, c_prime, hub, n, index, mu_b, mu_c, mu_bp, mu_cp, ratio, big_l,
        bound_strong, bound_weak,
        mu_bp >= bound_strong * mu_b, mu_cp >= bound_strong * mu_c,
        mu_bp >= bound_weak * mu_b, mu_cp >= bound_weak * mu_c, mu_cp >= bound_weak * mu_c,
        bijective, pushforward,
    )


def pairwise_scan(certificates) -> mk.CouplingScan:
    pairs = strong = 0
    weak_all = bij_all = push_all = True
    for cert in certificates:
        pairs += 1
        strong += int(cert.b_bound_strong_ok and cert.c_bound_strong_ok)
        weak_all = weak_all and cert.b_bound_weak_ok and cert.c_bound_weak_ok
        bij_all = bij_all and cert.bijective_ok
        push_all = push_all and cert.pushforward_ok
    return mk.CouplingScan(pairs, strong, weak_all, bij_all, push_all)


def pairwise_martingale_gap(family, n: int) -> Fraction:
    worst = F(0)
    for w in family.sft.words(2 * n + 1):
        base = Cylinder(-n, n, w)
        mass = mk.markov_cylinder_measure(family, base)
        zn = mk.restricted_derivative_fraction(family, base, n)
        acc = F(0)
        for s in family.sft.predecessors(w[0]):
            for t in family.sft.successors(w[-1]):
                ext = Cylinder(-n - 1, n + 1, (s,) + w + (t,))
                acc += mk.markov_cylinder_measure(family, ext) * mk.restricted_derivative_fraction(
                    family, ext, n + 1
                )
        worst = max(worst, abs(acc / mass - zn))
    return worst


PRIM3 = [[0, 1, 1], [1, 0, 0], [1, 1, 1]]  # primitivity index 3

#: name -> (SFT, base transition, base marginal or None, a window matrix)
REFERENCE_FAMILIES = {
    "golden": (
        mk.golden_mean(),
        [[F(3, 4), F(1, 4)], [F(1), F(0)]],
        [F(4, 5), F(1, 5)],
        [[F(1, 2), F(1, 2)], [F(1), F(0)]],
    ),
    "full2": (
        mk.full_shift(2),
        [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]],
        None,
        [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]],
    ),
    "prim3": (
        mk.SFT.of(PRIM3),
        [[F(0), F(1, 3), F(2, 3)], [F(1), F(0), F(0)], [F(1, 4), F(1, 4), F(1, 2)]],
        None,
        [[F(0), F(1, 2), F(1, 2)], [F(1), F(0), F(0)], [F(1, 3), F(1, 3), F(1, 3)]],
    ),
    "full3": (
        mk.full_shift(3),
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 4), F(1, 2), F(1, 4)], [F(1, 4), F(1, 4), F(1, 2)]],
        [F(1, 3)] * 3,
        [[F(1, 3), F(1, 3), F(1, 3)], [F(1, 2), F(1, 4), F(1, 4)], [F(1, 4), F(1, 4), F(1, 2)]],
    ),
}
WINDOWS = [None, -1, 0, 1]
#: martingale radii per family: full3 has 3^7 words at radius 3, which the
#: pairwise reference takes about a second to check
RADII = {"golden": (1, 2, 3), "full2": (1, 2, 3), "prim3": (1, 2, 3), "full3": (1, 2)}


def reference_family(name: str, window_at: int | None) -> mk.MarkovFamily:
    sft, base, marginal, window = REFERENCE_FAMILIES[name]
    return mk.MarkovFamily(sft, base, marginal, None if window_at is None else {window_at: window})


class TestPerWordReference:
    @pytest.mark.parametrize("window_at", WINDOWS, ids=lambda k: f"window{k}")
    @pytest.mark.parametrize(
        "name, n", [("golden", 1), ("golden", 2), ("full2", 1), ("prim3", 1), ("full3", 1)]
    )
    def test_certificates_and_scan_match_pairwise(self, name, n, window_at):
        fam = reference_family(name, window_at)
        cylinders = [Cylinder(-n, n, w) for w in fam.sft.words(2 * n + 1)]
        expected = []
        for b in cylinders:
            for c in cylinders:
                expected.append(pairwise_couple(fam, b, c))
                assert mk.couple_cylinders(fam, b, c) == expected[-1]
        assert mk.coupling_scan(fam, n) == pairwise_scan(expected)

    def test_false_weak_bound_scan_matches_pairwise(self):
        # L = 1 for the uniform golden rows, so the weak bound 1/2 is above
        # mu(b')/mu(b) = 1/4 for both words: the aggregate is false
        fam = golden_family(tilted=False)
        cylinders = [Cylinder(0, 0, w) for w in fam.sft.words(1)]
        expected = [pairwise_couple(fam, b, c) for b in cylinders for c in cylinders]
        scan = mk.coupling_scan(fam, 0)
        assert scan == pairwise_scan(expected)
        assert scan.weak_ok_all is False

    @pytest.mark.parametrize("name", ["golden", "prim3"])
    def test_false_pushforward_scan_matches_pairwise(self, name):
        # a base marginal that is not stationary (set past the constructor's
        # check) makes the margin masses miss mu(b'), so the exact
        # push-forward checks fail and must fail alike
        fam = reference_family(name, 0)
        fam.base_marginal = tuple(F(1 + s, 1) for s in range(fam.sft.n_states))
        cylinders = [Cylinder(-1, 1, w) for w in fam.sft.words(3)]
        expected = []
        for b in cylinders:
            for c in cylinders:
                expected.append(pairwise_couple(fam, b, c))
                assert mk.couple_cylinders(fam, b, c) == expected[-1]
        scan = mk.coupling_scan(fam, 1)
        assert scan == pairwise_scan(expected)
        assert scan.pushforward_all is False

    # a window at -3 makes the marginals and transitions left of the radius-1
    # extensions differ, so the new left symbol's factors are not all 1
    @pytest.mark.parametrize("window_at", WINDOWS + [-3], ids=lambda k: f"window{k}")
    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_martingale_gap_matches_pairwise(self, name, window_at):
        fam = reference_family(name, window_at)
        for n in RADII[name]:
            assert mk.martingale_max_gap(fam, n) == pairwise_martingale_gap(fam, n)

    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_nonzero_martingale_gap_matches_pairwise(self, name):
        # a base marginal that is not stationary (set past the constructor's
        # check) breaks the martingale, so the gaps compared are not all 0
        fam = reference_family(name, 0)
        fam.base_marginal = tuple(F(1 + s, 1) for s in range(fam.sft.n_states))
        for n in RADII[name]:
            gap = mk.martingale_max_gap(fam, n)
            assert gap == pairwise_martingale_gap(fam, n)
            assert gap > 0


# --- seeded random families against the oracles ---------------------------

#: the supports the random families are drawn on
SUPPORTS = {"golden": mk.golden_mean(), "prim3": mk.SFT.of(PRIM3), "full3": mk.full_shift(3)}


def random_family(name: str, seed: int) -> mk.MarkovFamily:
    """Random stochastic rows on a support, with one or two window
    transitions in [-4, 4]; an odd seed sets a base marginal that is not
    stationary past the constructor's check, which breaks the martingale."""
    rng = random.Random(f"{name}/{seed}")
    sft = SUPPORTS[name]

    def matrix():
        weights = [[rng.randint(1, 9) * e for e in row] for row in sft.adjacency]
        return [[F(w, sum(row)) for w in row] for row in weights]

    window = {rng.randint(-4, 4): matrix() for _ in range(rng.randint(1, 2))}
    fam = mk.MarkovFamily(sft, matrix(), None, window)
    if seed % 2:
        fam.base_marginal = tuple(F(rng.randint(1, 9), 10) for _ in sft.states)
    return fam


#: full3 has 729 pairs at n = 1, which the pairwise reference takes about
#: half a second to certify, so it gets one stationary and one broken family
RANDOM_CASES = [("golden", seed) for seed in range(4)] + [
    ("prim3", seed) for seed in range(4)
] + [("full3", seed) for seed in range(2)]


class TestAlgebraicKernels:
    """The factorized gap and the per-word scan against the oracles."""

    @pytest.mark.parametrize("name, seed", RANDOM_CASES)
    def test_martingale_gap_matches_pairwise(self, name, seed):
        fam = random_family(name, seed)
        for n in (1, 2):
            assert mk.martingale_max_gap(fam, n) == pairwise_martingale_gap(fam, n)

    @pytest.mark.parametrize("name, seed", RANDOM_CASES)
    def test_scan_matches_pairwise(self, name, seed):
        fam = random_family(name, seed)
        cylinders = [Cylinder(-1, 1, w) for w in fam.sft.words(3)]
        expected = [pairwise_couple(fam, b, c) for b in cylinders for c in cylinders]
        assert mk.coupling_scan(fam, 1) == pairwise_scan(expected)

    def test_some_random_gaps_are_positive(self):
        # the broken families must not all sit where the defect cancels
        gaps = [mk.martingale_max_gap(random_family(name, seed), 2) for name, seed in RANDOM_CASES]
        assert sum(gap > 0 for gap in gaps) >= 3

    @pytest.mark.parametrize(
        "sft, base, pairs, strong",
        [
            (mk.golden_mean(), [[F(4, 9), F(5, 9)], [F(1), F(0)]], 25, 16),
            (mk.full_shift(2), [[F(9, 16), F(7, 16)], [F(5, 11), F(6, 11)]], 64, 4),
        ],
    )
    def test_partial_strong_bound_scan_matches_pairwise(self, sft, base, pairs, strong):
        # some words' strong bound holds and some do not, so k^2 is checked
        fam = mk.MarkovFamily(sft, base)
        cylinders = [Cylinder(-1, 1, w) for w in fam.sft.words(3)]
        expected = [pairwise_couple(fam, b, c) for b in cylinders for c in cylinders]
        scan = mk.coupling_scan(fam, 1)
        assert scan == pairwise_scan(expected)
        assert (scan.pairs, scan.strong_ok_pairs) == (pairs, strong)

    def test_radius_12_martingale_on_full3(self):
        # 3^25 words: the gap comes from the max-product recursion alone
        sft, base, marginal, window = REFERENCE_FAMILIES["full3"]
        fam = mk.MarkovFamily(sft, base, marginal, {-5: window, 0: window, 7: base[::-1]})
        assert mk.martingale_max_gap(fam, 12) == 0

    @pytest.mark.parametrize("window_at", [0, 1])
    def test_row_sums_within_tolerance_match_pairwise(self, window_at):
        # a window row may sum to 1 only within the constructor's tolerance;
        # at n - 1 it makes R(b) differ from 1, and so the gap from 0
        sft, base, marginal, _ = REFERENCE_FAMILIES["full2"]
        off = [[F(1, 2), F(1, 2) + F(1, 10**13)], [F(1, 3), F(2, 3)]]
        fam = mk.MarkovFamily(sft, base, marginal, {window_at: off})
        for n in (1, 2):
            gap = mk.martingale_max_gap(fam, n)
            assert gap == pairwise_martingale_gap(fam, n)
            assert (gap > 0) == (n - 1 == window_at)

    def test_scan_pushforward_reads_every_margin(self, monkeypatch):
        # shift mass between two margins of one word, keeping its total: the
        # hub construction never does this, so the scan must still agree
        # with the per-pair certificates built from the same word data
        fam = reference_family("golden", 0)
        word_coupling = mk._word_coupling

        def skewed(family, hub, cyl):
            word = word_coupling(family, hub, cyl)
            if cyl.word != (1, 1, 1):
                return word
            first, second, *rest = word.margin_masses
            eps = first / 2
            return word._replace(margin_masses=(first - eps, second + eps, *rest))

        monkeypatch.setattr(mk, "_word_coupling", skewed)
        hub = mk._hub_coupling(fam, 1)
        words = [skewed(fam, hub, Cylinder(-1, 1, w)) for w in fam.sft.words(3)]
        assert all(word.total_ok for word in words)
        expected = [mk._certificate(hub, b, c) for b in words for c in words]
        scan = mk.coupling_scan(fam, 1)
        assert scan == pairwise_scan(expected)
        assert scan.pushforward_all is False
