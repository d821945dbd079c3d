"""Declarative experiment runner: validate a config, build the system,
dispatch one operation, and return a reproducible report.

Configs are JSON with schema tag "v1".  All numeric leaves are decimal or
rational strings ("0.75", "3/4") so that exact-rational systems are built
from exact inputs; integer counts may be plain JSON integers.  Unknown
fields are rejected.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Mapping

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__, averages, bernoulli as bn, lattice as lt, markov_sft as mk
from . import poisson as ps
from .errors import ConfigError
from .reporting import series_rows
from .seeding import spawn, uniform01
from .shift_core import Cylinder

_NUM = {"type": "string", "pattern": r"^-?\d+(\.\d+)?(/\d+)?$"}
_INT = {"type": ["integer", "string"], "pattern": r"^-?\d+$"}
_PROBS = {"type": "array", "items": _NUM, "minItems": 2}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUM}}

CONFIG_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "seed", "system", "operation"],
    "properties": {
        "schema": {"const": "v1"},
        "seed": _INT,
        "name": {"type": "string"},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["bernoulli", "markov", "poisson", "zd"]},
                "kind": {"type": "string"},
                "base": _PROBS,
                "window": {
                    "type": "object",
                    "additionalProperties": _PROBS,
                },
                "sites": {"type": "array", "items": _PROBS},
                "c": _NUM,
                "r": _NUM,
                "sft": {
                    "type": "array",
                    "items": {"type": "array", "items": {"enum": [0, 1]}},
                },
                "transition": _MATRIX,
                "marginal": _PROBS,
                "transition_window": {
                    "type": "object",
                    "additionalProperties": _MATRIX,
                },
                "ground": {"type": "string"},
                "step": _INT,
                "length": _INT,
                "weights": {"type": "object", "additionalProperties": _NUM},
                "dimension": _INT,
                "axis": _INT,
            },
        },
        "operation": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": True,
            "properties": {"name": {"type": "string"}},
        },
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def parse_number(value) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {value!r}: {exc}") from exc


def parse_int(value) -> int:
    try:
        return int(str(value))
    except ValueError as exc:
        raise ConfigError(f"bad integer {value!r}: {exc}") from exc


def validate_config(config: Mapping[str, Any]) -> None:
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {first.message}")


def _site_measure(values) -> bn.SiteMeasure:
    try:
        return bn.SiteMeasure.of([parse_number(v) for v in values])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_system(spec: Mapping[str, Any]):
    kind = spec.get("kind", "iid")
    if spec["type"] in ("bernoulli", "zd") and kind == "iid" and "window" in spec:
        raise ConfigError(f"{spec['type']} kind 'iid' takes no window; use kind 'compact'")
    if spec["type"] == "bernoulli":
        if kind == "iid":
            return bn.CompactFamily(_site_measure(spec["base"]), {})
        if kind == "compact":
            window = {
                parse_int(k): _site_measure(v)
                for k, v in spec.get("window", {}).items()
            }
            return bn.CompactFamily(_site_measure(spec["base"]), window)
        if kind == "periodic":
            return bn.periodic_family([_site_measure(s) for s in spec["sites"]])
        if kind == "summable":
            return bn.summable_two_symbol(
                parse_number(spec.get("c", "1/10")), parse_number(spec.get("r", "1/2"))
            )
        raise ConfigError(f"unknown bernoulli kind {kind!r}")

    if spec["type"] == "markov":
        try:
            sft = mk.SFT.of(spec["sft"])
            transition = [
                [parse_number(e) for e in row] for row in spec["transition"]
            ]
            marginal = (
                [parse_number(e) for e in spec["marginal"]]
                if "marginal" in spec
                else None
            )
            window = {
                parse_int(k): [[parse_number(e) for e in row] for row in mat]
                for k, mat in spec.get("transition_window", {}).items()
            }
            return mk.MarkovFamily(sft, transition, marginal, window)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if spec["type"] == "poisson":
        ground = spec.get("ground", "translation")
        if ground == "translation":
            return ps.integer_translation(parse_int(spec.get("step", 1)))
        if ground == "identity":
            return ps.integer_identity()
        if ground == "cycle":
            return ps.finite_cycle(parse_int(spec.get("length", 1)))
        if ground == "weighted":
            return ps.weighted_points(
                {parse_int(k): parse_number(v) for k, v in spec["weights"].items()}
            )
        raise ConfigError(f"unknown ground space {ground!r}")

    if spec["type"] == "zd":
        d = parse_int(spec.get("dimension", 2))
        try:
            if kind == "iid":
                return lt.LatticeCompact(d, _site_measure(spec["base"]), {})
            if kind == "compact":
                window = {
                    tuple(parse_int(v) for v in k.split(",")): _site_measure(m)
                    for k, m in spec.get("window", {}).items()
                }
                return lt.LatticeCompact(d, _site_measure(spec["base"]), window)
            if kind == "alternating":
                return lt.alternating_rows(parse_int(spec.get("axis", 1)), d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown zd kind {kind!r}")

    raise ConfigError(f"unknown system type {spec['type']!r}")


def _need(op: Mapping[str, Any], key: str, within: Mapping[str, Any] | None = None):
    """The value of ``key`` in ``within`` (default: the operation itself) for
    a key with no default; leaving it out is a config error, not a KeyError."""
    source = op if within is None else within
    if key not in source:
        raise ConfigError(f"operation {op['name']} needs key {key}")
    return source[key]


def _cylinder(op: Mapping[str, Any], key: str = "word", left_key: str = "left") -> Cylinder:
    word = [parse_int(s) for s in _need(op, key)]
    return Cylinder.of(word, parse_int(op.get(left_key, -(len(word) // 2))))


def _observable(spec, kind: str) -> averages.Observable:
    """[{"coef": "1", "word": [...], "left": ...}] or [{"coef", "regions": [[..], k]}]."""
    terms = []
    for term in spec:
        coef = float(parse_number(term.get("coef", "1")))
        if kind == "cylinder":
            word = [parse_int(s) for s in term.get("word", [])]
            left = parse_int(term.get("left", 0))
            atom = Cylinder.of(word, left) if word else Cylinder.empty()
        else:
            atom = ps.PoissonEvent.of(
                [
                    ([parse_int(p) for p in region], parse_int(k))
                    for region, k in term.get("constraints", [])
                ]
            )
        terms.append((coef, atom))
    return averages.Observable.combine(terms)


def _event(spec) -> ps.PoissonEvent:
    return ps.PoissonEvent.of(
        [([parse_int(p) for p in region], parse_int(k)) for region, k in spec]
    )


# ---------------------------------------------------------------------------
# Operation handlers (each returns a JSON-able result dict)


def _op_kakutani(family, op, seed):
    res = bn.kakutani_sum(family, parse_int(op.get("horizon", 100)))
    return {"value": res.value, "verdict": res.verdict, "tail_bound": res.tail_bound}


def _op_uniformity(family, op, seed):
    res = bn.uniformity_constant(family, parse_int(op.get("horizon", 0)))
    return {"value": res.value, "exact": res.exact}


def _op_rn_derivative(family, op, seed):
    x = family.configuration(spawn(seed, 0))
    val = bn.rn_derivative(family, x, parse_int(_need(op, "n")))
    return {"log_value": val.log_magnitude, "error_bound": val.error_bound}


def _op_cocycle_fuzz(family, op, seed):
    cases = parse_int(op.get("cases", 1000))
    span = parse_int(op.get("span", 8))
    tol = float(parse_number(op.get("tol", 1e-12)))
    worst = 0.0
    ok = True
    for case in range(cases):
        x = family.configuration(spawn(seed, case))
        n = int(uniform01(seed, 1, case) * (2 * span + 1)) - span
        m = int(uniform01(seed, 2, case) * (2 * span + 1)) - span
        gap = bn.cocycle_gap(family, x, n, m, tol)
        worst = max(worst, gap)
        ok = ok and gap <= 3 * tol + bn.LOG_SLACK
    return {"cases": cases, "max_gap": worst, "all_ok": ok}


def _op_homoclinic_scan(family, op, seed):
    radius_max = parse_int(op.get("radius_max", 3))
    n_max = parse_int(op.get("n_max", 8))
    x = family.configuration(spawn(seed, 0))
    checked = violations = 0
    for radius in range(radius_max + 1):
        for word in product(family.alphabet.symbols, repeat=2 * radius + 1):
            y = x.rewired(Cylinder(-radius, radius, word))
            for n in range(-n_max, n_max + 1):
                res = bn.homoclinic_ratio_bound_check(family, x, y, radius, n)
                checked += 1
                if not res.ok:
                    violations += 1
    return {"pairs_checked": checked, "violations": violations, "all_ok": violations == 0}


def _op_conservativity(family, op, seed):
    x = family.configuration(spawn(seed, 0))
    rep = bn.conservativity_probe(family, x, parse_int(op.get("horizon", 4096)))
    return {
        "verdict": rep.verdict,
        "term_log_floor": rep.term_log_floor,
        "final_sum": rep.final_sum,
        "series": {"partial_sums": [[n, v, 0.0] for n, v in rep.checkpoints]},
    }


def _wrap_system(built) -> object:
    if isinstance(built, bn.BernoulliFamily):
        return averages.BernoulliSystem(built)
    if isinstance(built, ps.GroundSpace):
        return averages.PoissonSystem(built)
    raise ConfigError("series operations need a bernoulli or poisson system")


def _op_series(built, op, seed, which: str):
    system = _wrap_system(built)
    kind = "cylinder" if system.kind == "bernoulli" else "event"
    f = _observable(op.get("f", [{"coef": "1"}]), kind)
    x = system.run_sample(seed, 0)
    horizon = parse_int(op.get("horizon", 1024))
    if which == "birkhoff":
        series = averages.birkhoff_series(system, f, x, horizon)
    elif which == "dual":
        series = averages.dual_series(system, f, x, horizon)
    else:
        series = averages.hurewicz_ratio_series(system, f, x, horizon)
    return {
        "final_value": series.final_value,
        "series": {which: series_rows(series)},
    }


def _op_maximal(built, op, seed):
    system = _wrap_system(built)
    kind = "cylinder" if system.kind == "bernoulli" else "event"
    f = _observable(_need(op, "f"), kind)
    res = averages.maximal_inequality_probe(
        system,
        f,
        float(parse_number(_need(op, "t"))),
        parse_int(op.get("runs", 2000)),
        parse_int(op.get("horizon", 128)),
        seed,
    )
    return dict(res._asdict())


def _op_two_subsequence(built, op, seed):
    system = _wrap_system(built)
    kind = "cylinder" if system.kind == "bernoulli" else "event"
    f = _observable(_need(op, "f"), kind)
    blocks = [parse_int(b) for b in op.get("blocks", [16, 64, 256])]
    if "times" in op:
        times = [parse_int(t) for t in op["times"]]
    elif op.get("times_rule", "all") == "all":
        times = list(range(max(blocks)))
    else:
        spacing = parse_int(op.get("spacing", 10))
        times = [spacing * (j + 1) for j in range(max(blocks))]
    res = averages.two_subsequence_probe(
        system,
        f,
        times,
        blocks,
        float(parse_number(op.get("alpha", "1"))),
        parse_int(op.get("runs", 400)),
        seed,
    )
    out = dict(res._asdict())
    out["block_sizes"] = sorted(blocks)
    return out


def _op_primitivity(family, op, seed):
    return {"index": mk.primitivity_index(family.sft)}


def _op_cylinder_measure(family, op, seed):
    value = mk.markov_cylinder_measure(family, _cylinder(op))
    return {"value": value, "value_float": float(value)}


def _op_martingale(family, op, seed):
    radius = parse_int(op.get("radius", 3))
    gaps = {n: mk.martingale_max_gap(family, n) for n in range(1, radius + 1)}
    return {
        "max_gap": max(gaps.values()),
        "per_radius": {str(n): g for n, g in gaps.items()},
        "ok": all(g == 0 for g in gaps.values()),
    }


def _op_transition_ratio(family, op, seed):
    res = mk.transition_ratio_constant(family)
    return dict(res._asdict())


def _op_coupling_scan(family, op, seed):
    n = parse_int(op.get("n", 1))
    words = list(family.sft.words(2 * n + 1))
    pairs = strong = 0
    weak_all = bij_all = push_all = True
    for wb in words:
        for wc in words:
            cert = mk.couple_cylinders(
                family, Cylinder(-n, n, wb), Cylinder(-n, n, wc)
            )
            pairs += 1
            strong += int(cert.b_bound_strong_ok and cert.c_bound_strong_ok)
            weak_all = weak_all and cert.b_bound_weak_ok and cert.c_bound_weak_ok
            bij_all = bij_all and cert.bijective_ok
            push_all = push_all and cert.pushforward_ok
    return {
        "pairs": pairs,
        "strong_ok_pairs": strong,
        "weak_ok_all": weak_all,
        "bijective_all": bij_all,
        "pushforward_all": push_all,
    }


def _op_couple(family, op, seed):
    cert = mk.couple_cylinders(
        family,
        _cylinder(op, key="b_word", left_key="b_left"),
        _cylinder(op, key="c_word", left_key="c_left"),
    )
    out = dict(cert._asdict())
    for key in ("b", "c", "b_prime", "c_prime"):
        cyl = out[key]
        out[key] = {"left": cyl.left, "right": cyl.right, "word": list(cyl.word)}
    return out


def _op_tail_probe(family, op, seed):
    cyls = [
        Cylinder.of(
            [parse_int(s) for s in _need(op, "word", item)],
            parse_int(_need(op, "left", item)),
        )
        for item in op.get("cylinders", [])
    ]
    rep = mk.tail_triviality_probe(family, cyls)
    return {
        "violated": rep.violated,
        "eps": rep.eps,
        "witness_b": list(rep.witness_b.word) if rep.witness_b else None,
        "witness_c": list(rep.witness_c.word) if rep.witness_c else None,
        "forced_lower_bound": rep.forced_lower_bound,
    }


def _op_event_probability(gs, op, seed):
    return {"value": ps.event_probability(gs, _event(_need(op, "constraints")))}


def _op_mixing_gap(gs, op, seed):
    res = ps.mixing_gap(gs, _event(_need(op, "b")), _event(_need(op, "c")))
    return dict(res._asdict())


def _op_mixing_gap_fuzz(gs, op, seed):
    cases = parse_int(op.get("cases", 500))
    n_points = parse_int(op.get("points", 8))
    ok_all = True
    worst = -1.0
    for case in range(cases):
        b = _random_event(seed, 2 * case, n_points)
        c = _random_event(seed, 2 * case + 1, n_points)
        res = ps.mixing_gap(gs, b, c)
        ok_all = ok_all and res.ok
        worst = max(worst, res.gap - res.bound)
    return {"cases": cases, "all_ok": ok_all, "max_gap_minus_bound": worst}


def _random_event(seed: int, tag: int, n_points: int) -> ps.PoissonEvent:
    n_constraints = 1 + int(uniform01(seed, 3, tag) * 3)
    constraints = []
    for i in range(n_constraints):
        region = [
            p
            for p in range(n_points)
            if uniform01(seed, 4, tag, i, p) < 0.5
        ]
        k = int(uniform01(seed, 5, tag, i) * 3)
        constraints.append((region, k))
    return ps.PoissonEvent.of(constraints)


def _op_null_subsequence(gs, op, seed):
    regions = [[parse_int(p) for p in region] for region in _need(op, "regions")]
    times = ps.find_null_subsequence(
        gs, regions, parse_int(op.get("count", 8)), parse_int(op.get("horizon", 10000))
    )
    return {"times": times}


def _op_banach(gs, op, seed):
    horizon = parse_int(op.get("horizon", 10000))
    rule = op.get("sequence", "inverse_n")
    table = {
        "inverse_n": lambda n: 1.0 / n,
        "zero": lambda n: 0.0,
        "one": lambda n: 1.0,
    }
    if rule not in table:
        raise ConfigError(f"unknown sequence rule {rule!r}")
    kept, density = ps.banach_density_filter(
        table[rule], float(parse_number(op.get("eps", "0.01"))), horizon
    )
    return {"density": density, "kept": len(kept), "first": kept[0] if kept else None}


def _op_variance_decay(gs, op, seed):
    region = [parse_int(p) for p in op.get("region", list(range(10)))]
    event = ps.PoissonEvent.count(region, parse_int(op.get("k", 0)))
    blocks = [parse_int(b) for b in op.get("blocks", [16, 64, 256])]
    spacing = parse_int(op.get("spacing", len(region)))
    times = [spacing * (j + 1) for j in range(max(blocks))]
    res = ps.subsequence_average_experiment(
        gs, event, times, blocks, parse_int(op.get("runs", 10000)), seed
    )
    # "fits C/N within a factor of 2": some C has C/2 <= var_N * N <= 2C for
    # every N, equivalently max/min of the scaled variances is at most 4
    scaled = [v * n for n, v in zip(res.block_sizes, res.variances)]
    fitted = float(np.sqrt(max(scaled) * min(scaled)))
    within = max(scaled) <= 4.0 * min(scaled)
    return {
        "block_sizes": list(res.block_sizes),
        "means": list(res.means),
        "variances": list(res.variances),
        "fitted_c": fitted,
        "within_factor_2": bool(within),
    }


def _op_weak_mixing(gs, op, seed):
    def terms(key):
        return [
            (float(parse_number(t.get("coef", "1"))), _event(_need(op, "constraints", t)))
            for t in _need(op, key)
        ]

    f, g = terms("f"), terms("g")
    times = [parse_int(t) for t in _need(op, "times")]
    points = ps.weak_mixing_probe(gs, f, g, times, parse_int(op.get("runs", 2000)), seed)
    return {
        "limit": points[0].limit if points else None,
        "series": {
            "correlation": [[p.time, p.estimate, p.half_width] for p in points]
        },
    }


def _op_zd_kakutani(family, op, seed):
    res = lt.kakutani_sum_generator(
        family, parse_int(op.get("axis", 0)), parse_int(op.get("horizon", 64))
    )
    return {"value": res.value, "verdict": res.verdict}


def _op_zd_cocycle_fuzz(family, op, seed):
    cases = parse_int(op.get("cases", 200))
    span = parse_int(op.get("span", 4))
    worst = 0.0
    d = family.dimension
    for case in range(cases):
        x = family.run_configuration(seed, case)
        g = tuple(
            int(uniform01(seed, 6, case, i) * (2 * span + 1)) - span for i in range(d)
        )
        h = tuple(
            int(uniform01(seed, 7, case, i) * (2 * span + 1)) - span for i in range(d)
        )
        total = lt.rn_derivative_g(family, x, tuple(a + b for a, b in zip(g, h)))
        first = lt.rn_derivative_g(family, x.translated(h), g)
        second = lt.rn_derivative_g(family, x, h)
        worst = max(
            worst,
            abs(total.log_magnitude - first.log_magnitude - second.log_magnitude),
        )
    return {"cases": cases, "max_gap": worst, "all_ok": worst <= bn.LOG_SLACK}


def _op_determinism_audit(_system, op, seed):
    """Re-run representative sub-experiments with one seed and compare."""
    sub_configs = [
        {
            "schema": "v1",
            "seed": str(seed),
            "system": {
                "type": "bernoulli",
                "kind": "compact",
                "base": ["1/2", "1/2"],
                "window": {"0": ["3/4", "1/4"]},
            },
            "operation": {"name": "cocycle_fuzz", "cases": 100, "span": 6},
        },
        {
            "schema": "v1",
            "seed": str(seed),
            "system": {"type": "poisson", "ground": "translation", "step": 1},
            "operation": {
                "name": "variance_decay",
                "region": list(range(10)),
                "k": 0,
                "blocks": [8, 16],
                "runs": 500,
            },
        },
    ]
    from .reporting import jsonable

    matches = []
    for sub in sub_configs:
        first = jsonable(run(sub)["results"])
        second = jsonable(run(sub)["results"])
        matches.append(first == second)
    return {"sub_experiments": len(sub_configs), "all_identical": all(matches)}


def _op_box_average(family, op, seed):
    atoms = []
    for term in op.get("f", [{"coef": "1", "pattern": {"0,0": 1}}]):
        pattern = {
            tuple(parse_int(v) for v in key.split(",")): parse_int(sym)
            for key, sym in term.get("pattern", {}).items()
        }
        atoms.append((float(parse_number(term.get("coef", "1"))), pattern))
    x = family.run_configuration(seed, 0)
    series = lt.box_ratio_average(family, atoms, x, parse_int(op.get("n_max", 32)))
    return {"final_value": series.final_value, "series": {"box_ratio": series_rows(series)}}


_HANDLERS: dict[str, tuple[set[str], Callable]] = {
    "kakutani_sum": ({"bernoulli"}, _op_kakutani),
    "uniformity_constant": ({"bernoulli"}, _op_uniformity),
    "rn_derivative": ({"bernoulli"}, _op_rn_derivative),
    "cocycle_fuzz": ({"bernoulli"}, _op_cocycle_fuzz),
    "homoclinic_scan": ({"bernoulli"}, _op_homoclinic_scan),
    "conservativity_probe": ({"bernoulli"}, _op_conservativity),
    "birkhoff_series": ({"bernoulli", "poisson"}, lambda b, o, s: _op_series(b, o, s, "birkhoff")),
    "dual_series": ({"bernoulli", "poisson"}, lambda b, o, s: _op_series(b, o, s, "dual")),
    "ratio_series": ({"bernoulli", "poisson"}, lambda b, o, s: _op_series(b, o, s, "ratio")),
    "maximal_inequality": ({"bernoulli", "poisson"}, _op_maximal),
    "two_subsequence_probe": ({"bernoulli", "poisson"}, _op_two_subsequence),
    "primitivity_index": ({"markov"}, _op_primitivity),
    "cylinder_measure": ({"markov"}, _op_cylinder_measure),
    "martingale_check": ({"markov"}, _op_martingale),
    "transition_ratio": ({"markov"}, _op_transition_ratio),
    "coupling_scan": ({"markov"}, _op_coupling_scan),
    "couple_cylinders": ({"markov"}, _op_couple),
    "tail_triviality_probe": ({"markov"}, _op_tail_probe),
    "event_probability": ({"poisson"}, _op_event_probability),
    "mixing_gap": ({"poisson"}, _op_mixing_gap),
    "mixing_gap_fuzz": ({"poisson"}, _op_mixing_gap_fuzz),
    "find_null_subsequence": ({"poisson"}, _op_null_subsequence),
    "banach_density": ({"poisson"}, _op_banach),
    "variance_decay": ({"poisson"}, _op_variance_decay),
    "weak_mixing_probe": ({"poisson"}, _op_weak_mixing),
    "kakutani_generator": ({"zd"}, _op_zd_kakutani),
    "zd_cocycle_fuzz": ({"zd"}, _op_zd_cocycle_fuzz),
    "box_ratio_average": ({"zd"}, _op_box_average),
    "determinism_audit": ({"bernoulli", "markov", "poisson", "zd"}, _op_determinism_audit),
}


def run(config: Mapping[str, Any], seed_override: int | None = None) -> dict[str, Any]:
    """Validate, build, dispatch; returns the report dict.

    Raises ConfigError for invalid configs and CertifiedFailure when an
    operation certifiably fails (callers map these to exit codes).
    """
    validate_config(config)
    seed = seed_override if seed_override is not None else parse_int(config["seed"])
    name = config["operation"]["name"]
    if name not in _HANDLERS:
        raise ConfigError(f"unknown operation {name!r}")
    allowed, handler = _HANDLERS[name]
    if config["system"]["type"] not in allowed:
        raise ConfigError(
            f"operation {name!r} needs a system of type {sorted(allowed)}"
        )
    system = build_system(config["system"])
    started = time.perf_counter()
    results = handler(system, config["operation"], seed)
    return {
        "schema": "v1",
        "version": __version__,
        "config": dict(config),
        "seed": seed,
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }
