"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything is seeded; a re-run reproduces every number exactly.
"""

import math
import time
from fractions import Fraction

import pytest

from ergolab import averages as av
from ergolab import bernoulli as bn
from ergolab import lattice as lt
from ergolab import markov_sft as mk
from ergolab import poisson as ps
from ergolab import runner
from ergolab.experiments import get_config
from ergolab.reporting import jsonable
from ergolab.seeding import spawn, uniform01
from ergolab.shift_core import Cylinder, rewire

F = Fraction
MASTER = 20260809


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


HALF = bn.SiteMeasure.of(["1/2", "1/2"])

COMPACT_FAMILIES = [
    bn.CompactFamily(HALF, {0: bn.SiteMeasure.of(["3/4", "1/4"])}),
    bn.CompactFamily(
        HALF,
        {-2: bn.SiteMeasure.of(["2/3", "1/3"]), 1: bn.SiteMeasure.of(["1/4", "3/4"])},
    ),
    bn.CompactFamily(
        bn.SiteMeasure.of(["2/5", "3/5"]),
        {
            -3: bn.SiteMeasure.of(["4/5", "1/5"]),
            0: bn.SiteMeasure.of(["1/5", "4/5"]),
            3: bn.SiteMeasure.of(["1/2", "1/2"]),
        },
    ),
]


def test_criterion_1_cocycle_exactness():
    started = time.perf_counter()
    worst = 0.0
    cases = 1000
    for case in range(cases):
        fam = COMPACT_FAMILIES[case % len(COMPACT_FAMILIES)]
        assert float(bn.uniformity_fraction(fam)) <= 4.0
        assert fam.half_width <= 3
        x = fam.configuration(spawn(MASTER, case))
        n = int(uniform01(MASTER, 1, case) * 17) - 8
        m = int(uniform01(MASTER, 2, case) * 17) - 8
        total = bn.rn_derivative(fam, x, n + m)
        first = bn.rn_derivative(fam, x.shifted(m), n)
        second = bn.rn_derivative(fam, x, m)
        worst = max(
            worst,
            abs(total.log_magnitude - first.log_magnitude - second.log_magnitude),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "cocycle exactness", ok, f"max gap {worst:.2e} over {cases} cases, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_kakutani():
    iid_ok = all(
        bn.kakutani_sum(bn.CompactFamily(HALF, {}), h) == (0.0, bn.CONVERGENT, 0.0)
        for h in (1, 10, 1000)
    )

    alternating = bn.PeriodicFamily(
        [bn.SiteMeasure.of(["3/4", "1/4"]), bn.SiteMeasure.of(["1/4", "3/4"])]
    )
    res = bn.kakutani_sum(alternating, 400)
    per_term = res.value / 801
    closed_form = 2 * (math.sqrt(0.75) - math.sqrt(0.25)) ** 2
    alt_ok = (
        res.verdict == bn.DIVERGENT
        and per_term == pytest.approx(closed_form, abs=1e-12)
        and per_term == pytest.approx(0.2679491924311227, abs=1e-9)
    )

    compact_ok = True
    for fam in COMPACT_FAMILIES:
        for horizon in (1, 2, 5, 9, 50):
            oracle = 0.0
            for k in range(-horizon, horizon + 1):
                a, b = fam.site(k), fam.site(k - 1)
                oracle += sum(
                    (math.sqrt(p) - math.sqrt(q)) ** 2 for p, q in zip(a.probs, b.probs)
                )
            got = bn.kakutani_sum(fam, horizon)
            compact_ok = compact_ok and abs(got.value - oracle) <= 1e-12
            compact_ok = compact_ok and got.verdict == bn.CONVERGENT

    ok = iid_ok and alt_ok and compact_ok
    _report(2, "Kakutani criterion", ok, f"alternating per-term {per_term:.6f}")
    assert iid_ok and alt_ok and compact_ok


def test_criterion_3_homoclinic_ratio_bounds():
    checked = violations = 0
    for fam in COMPACT_FAMILIES:
        assert float(bn.uniformity_fraction(fam)) <= 4.0
        x = fam.configuration(spawn(MASTER, 3))
        for radius in range(4):
            width = 2 * radius + 1
            for word_index in range(2**width):
                word = tuple(
                    1 + ((word_index >> j) & 1) for j in range(width)
                )
                y = rewire(x, Cylinder(-radius, radius, word))
                for n in range(-8, 9):
                    res = bn.homoclinic_ratio_bound_check(fam, x, y, radius, n)
                    checked += 1
                    if not (res.within_product and res.within_uniform):
                        violations += 1
    ok = violations == 0
    _report(3, "homoclinic ratio bounds", ok, f"{checked} pair/step checks, {violations} violations")
    assert violations == 0


def test_criterion_4_mixing_gap():
    gs = ps.weighted_points(
        {0: "1", 1: "1/2", 2: "2", 3: "3/4", 4: "1", 5: "1/3", 6: "5/4", 7: "1/2"}
    )
    failures = 0
    for case in range(500):
        events = []
        for side in range(2):
            constraints = []
            for i in range(1 + int(uniform01(MASTER, 4, case, side) * 3)):
                region = [
                    p
                    for p in range(8)
                    if uniform01(MASTER, 5, case, side, i, p) < 0.5
                ]
                constraints.append((region, int(uniform01(MASTER, 6, case, side, i) * 3)))
            events.append(ps.PoissonEvent.of(constraints))
        if not ps.mixing_gap(gs, events[0], events[1]).ok:
            failures += 1

    unit = ps.integer_translation()
    worked = ps.mixing_gap(
        unit, ps.PoissonEvent.count([0], 0), ps.PoissonEvent.count([0, 1], 0)
    )
    # exp(-2) - exp(-3), frozen from a 30-digit evaluation
    worked_ok = worked.gap == pytest.approx(0.08554821486874875, abs=1e-9) and worked.ok

    ok = failures == 0 and worked_ok
    _report(4, "Poissonian mixing gap", ok, f"500 random pairs, worked gap {worked.gap:.9f}")
    assert failures == 0
    assert worked_ok


def test_criterion_5_variance_decay():
    started = time.perf_counter()
    gs = ps.integer_translation()
    event = ps.PoissonEvent.count(list(range(10)), 0)
    blocks = [16, 64, 256]
    times = [10 * (j + 1) for j in range(256)]
    res = ps.subsequence_average_experiment(gs, event, times, blocks, 10_000, MASTER)
    elapsed = time.perf_counter() - started
    scaled = [v * n for n, v in zip(res.block_sizes, res.variances)]
    ok = max(scaled) <= 4.0 * min(scaled) and elapsed < 120.0
    _report(
        5,
        "variance decay",
        ok,
        f"N*Var = {[f'{s:.2e}' for s in scaled]}, spread x{max(scaled)/min(scaled):.2f}, {elapsed:.1f}s",
    )
    assert max(scaled) <= 4.0 * min(scaled)
    assert elapsed < 120.0


def test_criterion_6_ergodicity_probe():
    iid = av.BernoulliSystem(bn.CompactFamily(HALF, {}))
    res_a = av.two_subsequence_probe(
        iid,
        av.Observable.indicator(Cylinder.of([1], left=0)),
        list(range(4096)),
        [256, 512, 1024, 2048, 4096],
        alpha=1.0,
        n_runs=400,
        master_seed=MASTER,
    )

    gs = ps.integer_translation()
    event = ps.PoissonEvent.count(list(range(10)), 0)
    times = ps.find_null_subsequence(gs, [list(range(10))], 256, horizon=5000)
    res_b = av.two_subsequence_probe(
        av.PoissonSystem(gs),
        av.Observable.indicator(event),
        times,
        [16, 64, 256],
        alpha=1.0,
        n_runs=10_000,
        master_seed=MASTER,
    )
    ok = res_a.passed and res_b.passed
    _report(
        6,
        "two-subsequence ergodicity probe",
        ok,
        f"iid q05 {res_a.lower_quantile:.4f} >= {res_a.threshold:.4f}; "
        f"suspension q05 {res_b.lower_quantile:.2e} >= {res_b.threshold:.2e}",
    )
    assert res_a.passed
    assert res_b.passed


def _coupling_families():
    golden = mk.MarkovFamily(
        mk.golden_mean(), [[F(3, 4), F(1, 4)], [F(1), F(0)]], [F(4, 5), F(1, 5)]
    )
    full2 = mk.MarkovFamily(
        mk.full_shift(2), [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]]
    )
    full3 = mk.MarkovFamily(
        mk.full_shift(3),
        [
            [F(1, 2), F(1, 4), F(1, 4)],
            [F(1, 4), F(1, 2), F(1, 4)],
            [F(1, 4), F(1, 4), F(1, 2)],
        ],
        [F(1, 3)] * 3,
    )
    return [
        (golden, 1, 1),
        (golden, 2, 1),
        (full2, 1, 1),
        (full2, 2, 1),
        (full3, 1, 1),
        (full3, 2, 48),  # stratified: the two smaller alphabets scan n=2 fully
    ]


def _deep_enumeration_ok(fam, cert, words_by_length: dict) -> bool:
    """Full-depth oracle: cylinder masses as sums over all margin words.
    ``words_by_length`` caches ``fam``'s word lists by length."""
    margin = 1
    total_b = total_c = F(0)
    length = len(cert.b_prime.word) + 2 * margin
    if length not in words_by_length:
        words_by_length[length] = list(fam.sft.words(length))
    for w in words_by_length[length]:
        if cert.b_prime.matches_word(cert.b_prime.left - margin, w):
            total_b += mk.markov_cylinder_measure(
                fam, Cylinder(cert.b_prime.left - margin, cert.b_prime.right + margin, w)
            )
        if cert.c_prime.matches_word(cert.c_prime.left - margin, w):
            total_c += mk.markov_cylinder_measure(
                fam, Cylinder(cert.c_prime.left - margin, cert.c_prime.right + margin, w)
            )
    return total_b == cert.mu_b_prime and total_c == cert.mu_c_prime


def test_criterion_7_markov_coupling():
    pairs = deep_checks = 0
    all_ok = True
    for fam, n, stride in _coupling_families():
        words = list(fam.sft.words(2 * n + 1))
        deep_words = {}
        size = fam.sft.n_states
        index = mk.primitivity_index(fam.sft)
        big_l = mk.transition_ratio_constant(fam).value
        bound_strong = F(1, size) / big_l ** (size * index)
        bound_weak = F(1, size) / big_l ** (2 * size * index)
        for flat in range(0, len(words) ** 2, stride):
            wb, wc = words[flat // len(words)], words[flat % len(words)]
            b, c = Cylinder(-n, n, wb), Cylinder(-n, n, wc)
            cert = mk.couple_cylinders(fam, b, c)
            pairs += 1
            case_ok = (
                cert.bijective_ok
                and cert.pushforward_ok
                and cert.mu_b_prime * cert.ratio == cert.mu_c_prime
                and cert.mu_b_prime >= bound_strong * cert.mu_b
                and cert.mu_c_prime >= bound_strong * cert.mu_c
                and cert.mu_c_prime >= bound_weak * cert.mu_c
            )
            if pairs % 17 == 0:
                case_ok = case_ok and _deep_enumeration_ok(fam, cert, deep_words)
                deep_checks += 1
            all_ok = all_ok and case_ok
    _report(7, "Markov coupling certificates", all_ok, f"{pairs} pairs, {deep_checks} deep enumerations")
    assert all_ok


def test_criterion_8_martingale():
    golden = mk.MarkovFamily(
        mk.golden_mean(),
        [[F(3, 4), F(1, 4)], [F(1), F(0)]],
        [F(4, 5), F(1, 5)],
        {0: [[F(1, 2), F(1, 2)], [F(1), F(0)]], 2: [[F(2, 3), F(1, 3)], [F(1), F(0)]]},
    )
    full2 = mk.MarkovFamily(
        mk.full_shift(2),
        [[F(2, 3), F(1, 3)], [F(1, 4), F(3, 4)]],
        None,
        {-1: [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]},
    )
    worst = F(0)
    for fam in (golden, full2):
        for n in range(1, 5):
            worst = max(worst, mk.martingale_max_gap(fam, n))

    stationary = mk.MarkovFamily(
        mk.golden_mean(), [[F(3, 4), F(1, 4)], [F(1), F(0)]], [F(4, 5), F(1, 5)]
    )
    homogeneous_ok = all(
        mk.restricted_derivative_fraction(stationary, Cylinder(-n, n, w), n) == 1
        for n in (1, 2, 3)
        for w in stationary.sft.words(2 * n + 1)
    )
    ok = worst <= F(1, 10**12) and homogeneous_ok
    _report(8, "restricted-derivative martingale", ok, f"max gap {float(worst):.1e} (exact arithmetic)")
    assert worst == 0
    assert homogeneous_ok


def test_criterion_9_hurewicz_sanity():
    iid = av.BernoulliSystem(bn.CompactFamily(HALF, {}))
    x = iid.sample(spawn(MASTER, 9))
    ones = av.dual_series(iid, av.Observable.constant(1.0), x, 2048)
    dual_exact = all(v == float(n) for n, v in zip(ones.checkpoints, ones.values))

    susp = av.PoissonSystem(ps.integer_translation())
    ones_p = av.dual_series(
        susp, av.Observable.constant(1.0, "event"), susp.sample(spawn(MASTER, 10)), 512
    )
    dual_exact = dual_exact and all(
        v == float(n) for n, v in zip(ones_p.checkpoints, ones_p.values)
    )

    ratio = av.hurewicz_ratio_series(
        iid, av.Observable.indicator(Cylinder.of([1], left=0)), x, 100_000
    )
    ratio_ok = abs(ratio.final_value - 0.5) <= 0.01

    maximal = av.maximal_inequality_probe(
        iid,
        av.Observable.indicator(Cylinder.of([1], left=0)),
        t=0.9,
        n_runs=10_000,
        horizon=128,
        master_seed=MASTER,
    )
    ok = dual_exact and ratio_ok and maximal.ok
    _report(
        9,
        "Hurewicz machinery sanity",
        ok,
        f"ratio final {ratio.final_value:.4f}; maximal tail {maximal.empirical_tail:.4f} "
        f"<= {maximal.bound:.4f} + 3sigma",
    )
    assert dual_exact
    assert ratio_ok
    assert maximal.ok


def test_criterion_10_lattice():
    fam = lt.LatticeCompact(
        2,
        HALF,
        {(0, 0): bn.SiteMeasure.of(["3/4", "1/4"]), (2, -1): bn.SiteMeasure.of(["2/3", "1/3"])},
    )
    worst = 0.0
    for case in range(200):
        x = fam.run_configuration(MASTER, case)
        g = tuple(int(uniform01(MASTER, 7, case, i) * 9) - 4 for i in range(2))
        h = tuple(int(uniform01(MASTER, 8, case, i) * 9) - 4 for i in range(2))
        total = lt.rn_derivative_g(fam, x, (g[0] + h[0], g[1] + h[1]))
        first = lt.rn_derivative_g(fam, x.translated(h), g)
        second = lt.rn_derivative_g(fam, x, h)
        worst = max(
            worst, abs(total.log_magnitude - first.log_magnitude - second.log_magnitude)
        )
    cocycle_ok = worst <= 1e-9

    iid = lt.LatticeCompact(2, HALF, {})
    series = lt.box_ratio_average(
        iid, [(1.0, {(0, 0): 1})], iid.configuration(spawn(MASTER, 11)), 64
    )
    lln_ok = abs(series.final_value - 0.5) <= 0.02
    ok = cocycle_ok and lln_ok
    _report(
        10,
        "lattice actions",
        ok,
        f"cocycle max gap {worst:.2e}; box average {series.final_value:.4f}",
    )
    assert cocycle_ok
    assert lln_ok


def test_criterion_11_determinism():
    configs = [
        get_config("bernoulli-cocycle"),
        get_config("poisson-mixing-gap"),
        get_config("markov-coupling"),
    ]
    configs[0]["operation"]["cases"] = 200
    configs[1]["operation"]["cases"] = 100
    identical = True
    for cfg in configs:
        first = jsonable(runner.run(cfg)["results"])
        second = jsonable(runner.run(cfg)["results"])
        identical = identical and first == second

    gs = ps.integer_translation()
    event = ps.PoissonEvent.count(list(range(10)), 0)
    times = [10 * (j + 1) for j in range(64)]
    a = ps.subsequence_average_experiment(gs, event, times, [16, 64], 2000, MASTER)
    b = ps.subsequence_average_experiment(gs, event, times, [16, 64], 2000, MASTER)
    identical = identical and a == b

    _report(11, "determinism", identical, "seeded re-runs byte-identical")
    assert identical
