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
