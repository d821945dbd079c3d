import math
from fractions import Fraction

import pytest

from ergolab import markov_sft as mk
from ergolab.shift_core import Cylinder

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

    def test_z_log_value_exact_flag(self):
        fam = perturbed_golden()
        word = next(iter(fam.sft.words(9)))
        val = mk.restricted_derivative(fam, Cylinder(-4, 4, word), 4)
        assert val.error_bound == 0.0

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

    def test_rn_derivative_stabilizes(self):
        fam = perturbed_golden()
        word = next(w for w in fam.sft.words(31))
        cyl = Cylinder(-15, 15, word)
        base = mk.rn_derivative_markov(fam, cyl, 2)
        assert base.error_bound == 0.0
        wider = mk.rn_derivative_markov(fam, cyl, 2, window=7)
        assert wider.error_bound == 0.0
        assert base.log_magnitude == pytest.approx(wider.log_magnitude, abs=1e-13)

    def test_rn_derivative_insufficient_window_flagged(self):
        fam = perturbed_golden()
        word = next(w for w in fam.sft.words(21))
        val = mk.rn_derivative_markov(fam, Cylinder(-10, 10, word), 2, window=1)
        assert math.isinf(val.error_bound)

    def test_stationary_rn_is_zero(self):
        fam = golden_family()
        word = next(w for w in fam.sft.words(21))
        for n in (-3, -1, 1, 2, 5):
            val = mk.rn_derivative_markov(fam, Cylinder(-10, 10, word), n)
            assert val.log_magnitude == pytest.approx(0.0, abs=1e-14)
            assert val.error_bound == 0.0

    def test_sample_path_admissible_and_deterministic(self):
        fam = perturbed_golden()
        a = mk.sample_path(fam, 99, -10, 10)
        b = mk.sample_path(fam, 99, -10, 10)
        assert a == b
        assert fam.sft.admissible(a.word)


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
