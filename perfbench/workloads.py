"""Seeded workload generators for the ergolab benchmark.

Each workload is a fixed list of v1 configs built from a workload seed.  The
sizes of every slot (operation, points, counts, runs, horizons) are a fixed
design, and so is their order; the seed only picks what changes the amount
of work little: region positions, point labels, words, the Monte Carlo
seeds and rational parameters.  Exact arithmetic costs more as denominators
grow, so the Bernoulli and lattice families keep fixed denominators and
window positions and the seed picks only numerators, and the Markov
transitions draw denominators from 3 to 8 only.  That keeps a pass's cost,
and the sequence of large allocations behind the peak RSS, within a few
percent across seeds while the inputs, and so the reports, differ.

Every list has a length of 5 modulo 10, so the median and the 90th
percentile of the pooled latencies fall in the middle of one config's
repeats rather than on the boundary between two configs.

This module uses only the standard library, so generating the configs is
part of the measured set-up but adds no import cost of its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("suspension-mc", "exact-certificates", "cocycle-paths")


def unused_operations(runner) -> list[str]:
    """Runner operations that no workload sends (read off the configs of
    the reference seed; the operation of a slot does not depend on it)."""
    used = {cfg["operation"]["name"] for w in WORKLOADS for cfg in generate(w, 0)}
    return sorted(set(getattr(runner, "_HANDLERS", {})) - used)


#: verdict fields that are certified: a false value is a failed report
CERTIFIED_VERDICTS = ("all_ok", "ok", "weak_ok_all", "bijective_all", "pushforward_all")


def _frac(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _config(rng: random.Random, system: dict, operation: dict) -> dict:
    return {
        "schema": "v1",
        "seed": str(rng.randrange(1, 2**31)),
        "system": system,
        "operation": operation,
    }


# ---------------------------------------------------------------------------
# suspension-mc: Poisson-suspension Monte Carlo sweeps

# (operation, ground, points, k, runs, largest block) -- a fixed design
_SUSPENSION_TRANSLATION = [
    ("variance_decay", 1, 0, 2000, 32),
    ("variance_decay", 2, 1, 5000, 32),
    ("variance_decay", 3, 0, 5000, 32),
    ("variance_decay", 4, 1, 5000, 64),
    ("variance_decay", 6, 2, 5000, 32),
    ("variance_decay", 8, 0, 5000, 64),
    ("variance_decay", 10, 0, 10000, 64),
    ("variance_decay", 5, 1, 10000, 32),
    ("two_subsequence_probe", 1, 0, 10000, 64),
    ("two_subsequence_probe", 2, 1, 10000, 32),
    ("two_subsequence_probe", 4, 0, 10000, 16),
    ("two_subsequence_probe", 3, 2, 5000, 64),
    ("two_subsequence_probe", 7, 1, 2000, 32),
]
# (operation, points, k, runs, mean weight per point) on the weighted ground
_SUSPENSION_WEIGHTED = [
    ("variance_decay", 40, 2, 10000, Fraction(1, 4)),
    ("variance_decay", 20, 1, 10000, Fraction(1, 10)),
    ("variance_decay", 8, 0, 10000, Fraction(1, 8)),
    ("variance_decay", 30, 2, 5000, Fraction(1, 10)),
    ("variance_decay", 12, 0, 10000, Fraction(1, 4)),
    ("two_subsequence_probe", 16, 1, 10000, Fraction(1, 8)),
    ("two_subsequence_probe", 4, 0, 5000, Fraction(1, 4)),
    ("two_subsequence_probe", 24, 2, 10000, Fraction(1, 8)),
]
_WEAK_MIXING = [("translation", 10000), ("translation", 5000), ("weighted", 10000)]
_WEAK_MIXING_TIMES = 6


def _blocks(largest: int) -> list[int]:
    return [largest // 4, largest // 2, largest]


def _translation_region(rng: random.Random, points: int) -> list[int]:
    """``points`` distinct integers spanning exactly 2*points - 1 sites: both
    ends are fixed, so the shifted copies and their overlaps cost the same
    on every seed."""
    lo = rng.randrange(-50, 51)
    if points == 1:
        return [lo]
    hi = lo + 2 * points - 2
    return sorted([lo, hi] + rng.sample(range(lo + 1, hi), points - 2))


def _weighted_region(rng: random.Random, points: int, mean: Fraction):
    """Point labels plus weights: half at 4/5 of the mean, half at 6/5, so
    the total mass is points * mean and there are always two distinct means
    (one for a single point)."""
    labels = rng.sample(range(0, 1000), points)
    lows = set(rng.sample(labels, points // 2))
    weights = {
        str(p): _frac(mean * (Fraction(4, 5) if p in lows else Fraction(6, 5)))
        for p in labels
    }
    if points == 1:
        weights = {str(labels[0]): _frac(mean)}
    return sorted(labels), weights


def _mc_operation(op: str, region, k: int, blocks, spacing: int, runs: int) -> dict:
    """A variance_decay or Poisson two_subsequence_probe on N(region) = k."""
    if op == "variance_decay":
        return {"name": op, "region": list(region), "k": k, "blocks": blocks, "spacing": spacing, "runs": runs}
    return {
        "name": op,
        "f": [{"coef": "1", "constraints": [[list(region), k]]}],
        "blocks": blocks,
        "times_rule": "spaced",
        "spacing": spacing,
        "alpha": "1",
        "runs": runs,
    }


def _suspension(rng: random.Random) -> list[dict]:
    translation = {"type": "poisson", "ground": "translation", "step": 1}
    out = []
    for op, points, k, n_runs, largest in _SUSPENSION_TRANSLATION:
        region = _translation_region(rng, points)
        spacing = region[-1] - region[0] + 1
        operation = _mc_operation(op, region, k, _blocks(largest), spacing, n_runs)
        out.append(_config(rng, translation, operation))

    # the catalog's vacuous probe: N([0, 10)) = 0 has mass e^-10, so its
    # threshold is negative and it passes without testing anything
    vacuous = _mc_operation("two_subsequence_probe", range(10), 0, [16, 64], 10, 2000)
    out.append(_config(rng, translation, vacuous))

    for op, points, k, n_runs, mean in _SUSPENSION_WEIGHTED:
        region, weights = _weighted_region(rng, points, mean)
        system = {"type": "poisson", "ground": "weighted", "weights": weights}
        out.append(_config(rng, system, _mc_operation(op, region, k, [4, 8, 16], 1, n_runs)))

    for ground, n_runs in _WEAK_MIXING:
        if ground == "translation":
            f_region = _translation_region(rng, 3)
            g_region = _translation_region(rng, 2)
            system = translation
        else:
            f_region, f_weights = _weighted_region(rng, 3, Fraction(1, 3))
            g_region, g_weights = _weighted_region(rng, 2, Fraction(1, 2))
            g_region = [p + 1000 for p in g_region]
            g_weights = {str(int(p) + 1000): w for p, w in g_weights.items()}
            system = {
                "type": "poisson",
                "ground": "weighted",
                "weights": {**f_weights, **g_weights},
            }
        step = max(f_region[-1] - f_region[0], g_region[-1] - g_region[0]) + 1
        out.append(
            _config(
                rng,
                system,
                {
                    "name": "weak_mixing_probe",
                    "f": [{"coef": "1", "constraints": [[f_region, 1]]}],
                    "g": [{"coef": "1", "constraints": [[g_region, 0]]}],
                    "times": [step * 8 * (j + 1) for j in range(_WEAK_MIXING_TIMES)],
                    "runs": n_runs,
                },
            )
        )
    return out


# ---------------------------------------------------------------------------
# exact-certificates: small exact Markov and Poisson reports plus a few scans

_PRIMITIVE_3 = [[0, 1, 1], [1, 0, 0], [1, 1, 1]]  # primitivity index 3
_ADJACENCY = {
    "golden": [[1, 1], [1, 0]],
    "full3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "prim3": _PRIMITIVE_3,
}


def _stochastic_row(rng: random.Random, support: list[int]) -> list[Fraction]:
    """Positive entries on ``support`` with a denominator from 3 to 8."""
    n = len(support)
    if n == 1:
        return [Fraction(1)]
    den = rng.randrange(max(n, 3), 9)
    cuts = sorted(rng.sample(range(1, den), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [Fraction(p, den) for p in parts]


def _transition(rng: random.Random, adjacency) -> list[list[str]]:
    rows = []
    for row in adjacency:
        support = [j for j, e in enumerate(row) if e]
        values = iter(_stochastic_row(rng, support))
        rows.append([_frac(next(values)) if e else "0" for e in row])
    return rows


def _floor_ok(adjacency, matrices) -> bool:
    """The hypothesis of the coupling bounds, as ``transition_ratio_constant``
    reports it: every positive entry is at least L^-|S|, where L is the
    largest ratio of two positive entries in one row.  Without it the
    certified bounds are false by construction (a uniform row has L = 1)."""
    rows = [[Fraction(e) for e in row if Fraction(e) > 0] for m in matrices for row in m]
    ratio = max(max(r) / min(r) for r in rows)
    return min(min(r) for r in rows) >= ratio ** -len(adjacency)


def _markov_families(rng: random.Random) -> dict[str, dict]:
    """Six seeded families: each SFT plain and with a perturbed window, all
    drawn inside the hypothesis of the coupling bounds."""
    out = {}
    for name, adjacency in _ADJACENCY.items():
        while True:
            base = _transition(rng, adjacency)
            window = _transition(rng, adjacency)
            if _floor_ok(adjacency, [base]) and _floor_ok(adjacency, [base, window]):
                break
        out[name] = {"type": "markov", "sft": adjacency, "transition": base}
        out[name + "_w"] = dict(out[name], transition_window={str(rng.randrange(-1, 2)): window})
    return out


def _random_word(rng: random.Random, adjacency, length: int) -> list[int]:
    states = range(1, len(adjacency) + 1)
    word = [rng.choice(states)]
    while len(word) < length:
        row = adjacency[word[-1] - 1]
        word.append(rng.choice([t for t in states if row[t - 1]]))
    return word


_FAMILY_ORDER = ("golden", "golden_w", "full3", "full3_w", "prim3", "prim3_w")
_COUPLING_SCANS = [("golden", 1), ("golden_w", 2), ("prim3", 1), ("prim3_w", 1), ("full3", 1)]
_NULL_SEARCHES = [  # (step, region sizes, count): the last time found is 120 to 1000
    (1, (4,), 30),
    (1, (4,), 60),
    (1, (3, 2), 25),
    (2, (4,), 60),
    (1, (4,), 150),
    (1, (3, 2), 60),
    (2, (3, 2), 80),
    (1, (2,), 250),
    (1, (5,), 100),
    (1, (4,), 250),
]


def _exact(rng: random.Random) -> list[dict]:
    families = _markov_families(rng)
    out = []
    for i in range(60):
        name = _FAMILY_ORDER[i % 6]
        length = 3 + (i // 6) % 7  # 3..9 symbols
        adjacency = _ADJACENCY[name.split("_")[0]]
        out.append(
            _config(
                rng,
                families[name],
                {
                    "name": "cylinder_measure",
                    "word": _random_word(rng, adjacency, length),
                    "left": rng.randrange(-4, 5),
                },
            )
        )
    for i in range(50):
        name = _FAMILY_ORDER[i % 6]
        n = 1 + (i // 6) % 2
        adjacency = _ADJACENCY[name.split("_")[0]]
        out.append(
            _config(
                rng,
                families[name],
                {
                    "name": "couple_cylinders",
                    "b_word": _random_word(rng, adjacency, 2 * n + 1),
                    "b_left": -n,
                    "c_word": _random_word(rng, adjacency, 2 * n + 1),
                    "c_left": -n,
                },
            )
        )
    for i in range(20):
        name = _FAMILY_ORDER[i % 6]
        radius = 1 + (i // 6) % 3 if name.startswith("golden") else 1 + (i // 6) % 2
        out.append(
            _config(rng, families[name], {"name": "martingale_check", "radius": radius})
        )
    for name, n in _COUPLING_SCANS:
        out.append(_config(rng, families[name], {"name": "coupling_scan", "n": n}))

    translation = {"type": "poisson", "ground": "translation", "step": 1}
    for i in range(50):
        k = 1 + (i * 29) // 49  # counts 1..30
        k2 = max(1, k - (i % 3))
        la, lb = k + 1, k2 + 1
        a = rng.randrange(-40, 41)
        # B overlaps A and sticks out of it, so there are always three atoms
        b = a + rng.randrange(la - lb + 1, la)
        out.append(
            _config(
                rng,
                translation,
                {
                    "name": "event_probability",
                    "constraints": [
                        [list(range(a, a + la)), k],
                        [list(range(b, b + lb)), k2],
                    ],
                },
            )
        )
    weight_choices = ["1/3", "1/2", "3/4", "1", "5/4", "3/2", "2"]
    for i in range(10):
        weights = {str(p): rng.choice(weight_choices) for p in range(8)}
        out.append(
            _config(
                rng,
                {"type": "poisson", "ground": "weighted", "weights": weights},
                {
                    "name": "mixing_gap_fuzz",
                    "cases": 8 + i,
                    "points": 8,
                },
            )
        )
    for step, sizes, count in _NULL_SEARCHES:
        # contiguous regions one site apart: the search only sees their
        # difference set, so its cost is the same wherever they sit
        start = rng.randrange(-50, 51)
        regions = []
        for size in sizes:
            regions.append(list(range(start, start + size)))
            start += size + 1
        out.append(
            _config(
                rng,
                {"type": "poisson", "ground": "translation", "step": step},
                {
                    "name": "find_null_subsequence",
                    "regions": regions,
                    "count": count,
                    "horizon": 100000,
                },
            )
        )
    return out


# ---------------------------------------------------------------------------
# cocycle-paths: Bernoulli and Z^d cocycles and averages


#: window positions and the denominators of their site measures, fixed so
#: that the exact arithmetic, and with it a slot's cost, is the same at
#: every seed; the seed picks the numerators and the base's orientation
_WINDOW = ((-2, 3), (0, 4), (3, 7))
_LATTICE_WINDOW = {2: ("0,0", "1,-1", "-2,1"), 3: ("0,0,0", "1,-1,0", "-2,1,1")}


def _site(rng: random.Random, den: int) -> list[str]:
    """A two-symbol site measure with denominator ``den``."""
    a = rng.choice([a for a in range(1, den) if gcd(a, den) == 1])
    return [f"{a}/{den}", f"{den - a}/{den}"]


def _base(rng: random.Random) -> list[str]:
    return rng.choice([["2/5", "3/5"], ["3/5", "2/5"]])


def _bernoulli_families(rng: random.Random) -> dict[str, dict]:
    compact = {
        "type": "bernoulli",
        "kind": "compact",
        "base": _base(rng),
        "window": {str(k): _site(rng, den) for k, den in _WINDOW},
    }
    periodic = {"type": "bernoulli", "kind": "periodic", "sites": [_site(rng, 7)] * 3}
    summable = {
        "type": "bernoulli",
        "kind": "summable",
        "c": rng.choice(["1/9", "2/9"]),
        "r": "1/2",
    }
    return {"compact": compact, "periodic": periodic, "summable": summable}


def _lattice_family(rng: random.Random, d: int) -> dict:
    return {
        "type": "zd",
        "kind": "compact",
        "dimension": d,
        "base": _base(rng),
        "window": {
            g: _site(rng, den) for g, (_, den) in zip(_LATTICE_WINDOW[d], _WINDOW)
        },
    }


def _cocycle(rng: random.Random) -> list[dict]:
    fam = _bernoulli_families(rng)

    def letter() -> list[dict]:
        return [{"coef": "1", "word": [rng.randrange(1, 3)], "left": 0}]

    # sized so that the 13th of the 25 slots by latency, the median, is the
    # periodic maximal_inequality, with 12 slots under 0.6 times its time
    # and 12 over 1.4 times; likewise the 23rd, the 90th percentile, is the
    # compact maximal_inequality, well clear of its neighbours
    slots = [
        (fam["compact"], {"name": "cocycle_fuzz", "cases": 420, "span": 8}),
        (fam["compact"], {"name": "cocycle_fuzz", "cases": 120, "span": 6}),
        (fam["periodic"], {"name": "cocycle_fuzz", "cases": 500, "span": 8}),
        (fam["summable"], {"name": "cocycle_fuzz", "cases": 8, "span": 8}),
        (fam["summable"], {"name": "cocycle_fuzz", "cases": 12, "span": 4}),
        (fam["compact"], {"name": "homoclinic_scan", "radius_max": 2, "n_max": 6}),
        (fam["compact"], {"name": "homoclinic_scan", "radius_max": 2, "n_max": 5}),
        (fam["periodic"], {"name": "homoclinic_scan", "radius_max": 3, "n_max": 4}),
        (fam["compact"], {"name": "conservativity_probe", "horizon": 1 << 14}),
        (fam["compact"], {"name": "conservativity_probe", "horizon": 1 << 16}),
        (fam["summable"], {"name": "conservativity_probe", "horizon": 2048}),
        (fam["compact"], {"name": "dual_series", "f": letter(), "horizon": 100000}),
        (fam["periodic"], {"name": "dual_series", "f": letter(), "horizon": 1000000}),
        (fam["compact"], {"name": "ratio_series", "f": letter(), "horizon": 1000000}),
        (fam["periodic"], {"name": "ratio_series", "f": letter(), "horizon": 100000}),
        (
            fam["compact"],
            {"name": "maximal_inequality", "f": letter(), "t": "3/4", "runs": 1300, "horizon": 64},
        ),
        (
            fam["periodic"],
            {"name": "maximal_inequality", "f": letter(), "t": "3/4", "runs": 500, "horizon": 128},
        ),
        (
            fam["compact"],
            {
                "name": "two_subsequence_probe",
                "f": letter(),
                "blocks": [64, 128, 256],
                "times_rule": "all",
                "alpha": "1",
                "runs": 400,
            },
        ),
        (
            fam["periodic"],
            {
                "name": "two_subsequence_probe",
                "f": letter(),
                "blocks": [32, 64, 128],
                "times_rule": "all",
                "alpha": "1",
                "runs": 200,
            },
        ),
    ]
    for d, n_max in ((2, 64), (2, 128), (3, 24), (3, 44)):
        pattern = {",".join("0" * d): rng.randrange(1, 3)}
        slots.append(
            (
                _lattice_family(rng, d),
                {
                    "name": "box_ratio_average",
                    "f": [{"coef": "1", "pattern": pattern}],
                    "n_max": n_max,
                },
            )
        )
    for d, cases in ((2, 320), (3, 100)):
        slots.append(
            (_lattice_family(rng, d), {"name": "zd_cocycle_fuzz", "cases": cases, "span": 4})
        )
    return [_config(rng, system, operation) for system, operation in slots]


_GENERATORS = {
    "suspension-mc": _suspension,
    "exact-certificates": _exact,
    "cocycle-paths": _cocycle,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's config list for ``seed``."""
    if workload not in _GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    configs = _GENERATORS[workload](rng)
    for i, cfg in enumerate(configs):
        cfg["name"] = f"{workload}/{seed}/{i}"
    return configs


# ---------------------------------------------------------------------------
# Work accounting


def _words(adjacency, length: int) -> int:
    """Number of admissible words of ``length`` (row sums of A^(length-1))."""
    n = len(adjacency)
    counts = [1] * n
    for _ in range(length - 1):
        counts = [sum(adjacency[s][t] * counts[t] for t in range(n)) for s in range(n)]
    return sum(counts)


def mc_steps(config: dict) -> int:
    """runs x time points for a Monte Carlo report, else 0."""
    op = config["operation"]
    name = op["name"]
    if name in ("variance_decay", "two_subsequence_probe"):
        return int(op["runs"]) * max(int(b) for b in op["blocks"])
    if name == "weak_mixing_probe":
        return int(op["runs"]) * (len(op["times"]) + 1)
    if name == "maximal_inequality":
        return int(op["runs"]) * int(op["horizon"])
    return 0


def certified_checks(config: dict, results: dict) -> int:
    """Checks a report certifies: coupling pairs, martingale words, fuzz
    cases, homoclinic pairs, or 1 for a single exact operation."""
    op = config["operation"]
    name = op["name"]
    if name == "coupling_scan":
        return int(results["pairs"])
    if name == "homoclinic_scan":
        return int(results["pairs_checked"])
    if name in ("cocycle_fuzz", "zd_cocycle_fuzz", "mixing_gap_fuzz"):
        return int(results["cases"])
    if name == "martingale_check":
        adjacency = config["system"]["sft"]
        return sum(_words(adjacency, 2 * n + 1) for n in range(1, int(op["radius"]) + 1))
    if name in ("cylinder_measure", "couple_cylinders", "event_probability", "find_null_subsequence"):
        return 1
    if name == "conservativity_probe":
        return int(results["verdict"].endswith("_certified"))
    return 0


def failed_verdicts(results: dict) -> list[str]:
    """Certified verdict fields of a report that came out false."""
    return [key for key in CERTIFIED_VERDICTS if results.get(key) is False]
