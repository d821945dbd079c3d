"""Declarative experiment runner: validate a config, build the system,
dispatch one operation, and return a reproducible report.

Configs are JSON with schema tag "v1".  Each key is declared once, with its
parser and default, in `_SYSTEMS` or `_HANDLERS`; validation and parsing
both come from these tables, so an unknown key, a missing required key or
a wrong-typed value is a ConfigError at any level.  Numbers are decimal or
rational strings ("0.75", "3/4"), so exact systems get exact inputs;
integers may also be plain JSON integers.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__, averages, bernoulli as bn, lattice as lt, markov_sft as mk
from . import poisson as ps
from .errors import ConfigError
from .reporting import jsonable, series_rows
from .seeding import spawn, uniform01
from .shift_core import RANGE_CAP, Cylinder

_INTEGER = re.compile(r"-?\d+")
_NUMBER = re.compile(r"-?\d+(\.\d+)?(/\d+)?")

# A parser takes (value, where) and returns the parsed value or raises a
# ConfigError naming ``where``.  A key is declared as (parser, default): the
# default is a raw config value parsed like a given one, ``...`` for a
# required key, or None for an optional key the handler fills in.


def parse_number(value, where: str = "config") -> Fraction:
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ConfigError(f"{where}: bad number {value!r}")


def parse_int(value, where: str = "config") -> int:
    if type(value) is int or (isinstance(value, str) and _INTEGER.fullmatch(value)):
        return int(value)
    raise ConfigError(f"{where}: bad integer {value!r}")


def _float(value, where: str) -> float:
    return float(parse_number(value, where))


def _checked(parse: Callable, ok: Callable, says: str) -> Callable:
    """``parse``, then a ConfigError saying ``says`` (``{}`` is the value)
    unless ``ok(value)``: a value that would make a run check or sample
    nothing, or report ``nan``, is refused rather than run."""

    def check(value, where):
        out = parse(value, where)
        if not ok(out):
            raise ConfigError(f"{where}: {says.format(out)}")
        return out

    return check


def _at_least(low: int, key: str) -> Callable:
    """An integer ``key`` of at least ``low``: below it a fuzz or a scan
    would check nothing and still report ``all_ok``, a series or a sample
    would be empty, or a ``ddof=1`` statistic would be ``nan``."""
    return _checked(parse_int, lambda n: n >= low, f"{key} {{}} is below {low}")


def _nonempty(items: Callable, key: str) -> Callable:
    """A non-empty list ``key``: with no times or blocks a probe samples nothing."""
    return _checked(items, bool, f"{key} is empty")


def _json(kind: type, what: str) -> Callable:
    """A parser that accepts values of one JSON type as they are."""

    def parse(value, where):
        if isinstance(value, kind):
            return value
        raise ConfigError(f"{where}: expected {what}, got {value!r}")

    return parse


_object, _list, _string = _json(dict, "an object"), _json(list, "a list"), _json(str, "a string")


def _enum(*choices) -> Callable:
    def parse(value, where):
        if any(type(value) is type(c) and value == c for c in choices):
            return value
        raise ConfigError(f"{where}: {value!r} is not one of {', '.join(map(repr, choices))}")

    return parse


def _list_of(item: Callable) -> Callable:
    return lambda value, where: [item(v, where) for v in _list(value, where)]


def _map_of(item: Callable, key: Callable | None = None) -> Callable:
    """An object with free keys (a window, weights); ``key`` parses each key."""
    return lambda value, where: {
        key(k, where) if key else k: item(v, where) for k, v in _object(value, where).items()
    }


def _fields(value, keys: Mapping[str, tuple], where: str, skip=()) -> dict:
    """The keys of the object ``value`` parsed as ``keys`` declares them;
    ``skip`` names keys that the caller has read already."""
    for key in _object(value, where):
        if key not in keys and key not in skip:
            raise ConfigError(f"{where} has unknown key {key}")
    out = {}
    for key, (parse, default) in keys.items():
        if key in value:
            out[key] = parse(value[key], where)
        elif default is ...:
            raise ConfigError(f"{where} needs key {key}")
        else:
            out[key] = None if default is None else parse(default, where)
    return out


def _records(keys: Mapping[str, tuple], build: Callable) -> Callable:
    """A list of objects with the declared keys, each passed to ``build``."""
    return _list_of(lambda item, where: build(**_fields(item, keys, where)))


def _choice(value: dict, key: str, table: Mapping, where: str, default=...) -> str:
    """The entry name that ``value[key]`` (or the default) gives in ``table``."""
    if key not in value and default is ...:
        raise ConfigError(f"{where} needs key {key}")
    return _enum(*table)(value.get(key, default), f"{where} {key}")


def _site(text: str, dimension: int, where: str) -> tuple[int, ...]:
    """A Z^d site written "i,j,..." with exactly ``dimension`` coordinates."""
    site = tuple(parse_int(v, where) for v in text.split(","))
    if len(site) != dimension:
        raise ConfigError(f"{where}: site {text!r} needs {dimension} coordinates")
    return site


def _site_measure(value, where: str) -> bn.SiteMeasure:
    return bn.SiteMeasure.of([parse_number(v, where) for v in _list(value, where)])


def _values(**fields) -> tuple:
    return tuple(fields.values())


def _constraint(value, where: str) -> tuple[list[int], int]:
    if len(_list(value, where)) != 2:
        raise ConfigError(f"{where}: expected a [region, count] pair, got {value!r}")
    return _ints(value[0], where), parse_int(value[1], where)


def _event(value, where: str) -> ps.PoissonEvent:
    return ps.PoissonEvent.of([_constraint(c, where) for c in _list(value, where)])


def _observable(terms: Callable) -> Callable:
    return lambda value, where: averages.Observable.combine(terms(value, where))


_ints = _list_of(parse_int)
_matrix = _list_of(_list_of(parse_number))
_COEF = {"coef": (_float, "1")}
_CYLINDER_TERMS = _records(
    {**_COEF, "word": (_ints, []), "left": (parse_int, 0)},
    lambda coef, word, left: (coef, Cylinder.of(word, left) if word else Cylinder.empty()),
)
_EVENT_TERMS = _records({**_COEF, "constraints": (_event, [])}, _values)


# ---------------------------------------------------------------------------
# Systems


def _markov(sft, transition, marginal, transition_window) -> mk.MarkovFamily:
    return mk.MarkovFamily(mk.SFT.of(sft), transition, marginal, transition_window)


def _zd_compact(dimension: int, base, window) -> lt.LatticeCompact:
    sites = {_site(k, dimension, "system zd/compact"): m for k, m in window.items()}
    return lt.LatticeCompact(dimension, base, sites)


_BASE = {"base": (_site_measure, ...)}
_DIMENSION = {"dimension": (parse_int, 2)}

#: system type -> (the key that picks its shape, that key's default,
#: shape -> (keys, builder called with the parsed keys)); markov has one shape
_SYSTEMS: dict[str, tuple[str | None, str | None, dict]] = {
    "bernoulli": ("kind", "iid", {
        "iid": (_BASE, partial(bn.CompactFamily, window={})),
        "compact": ({**_BASE, "window": (_map_of(_site_measure, parse_int), {})}, bn.CompactFamily),
        "periodic": ({"sites": (_list_of(_site_measure), ...)}, bn.periodic_family),
        "summable": ({"c": (parse_number, "1/10"), "r": (parse_number, "1/2")}, bn.SummableFamily),
    }),
    "markov": (None, None, {None: (
        {
            "sft": (_list_of(_list_of(_enum(0, 1))), ...),
            "transition": (_matrix, ...),
            "marginal": (_list_of(parse_number), None),
            "transition_window": (_map_of(_matrix, parse_int), {}),
        },
        _markov,
    )}),
    "poisson": ("ground", "translation", {
        "translation": ({"step": (parse_int, 1)}, ps.integer_translation),
        "identity": ({}, ps.integer_identity),
        "cycle": ({"length": (parse_int, 1)}, ps.finite_cycle),
        "weighted": ({"weights": (_map_of(parse_number, parse_int), ...)}, ps.weighted_points),
    }),
    "zd": ("kind", "iid", {
        "iid": ({**_DIMENSION, **_BASE}, partial(lt.LatticeCompact, window={})),
        "compact": ({**_DIMENSION, **_BASE, "window": (_map_of(_site_measure), {})}, _zd_compact),
        "alternating": ({**_DIMENSION, "axis": (parse_int, 1)}, lt.alternating_rows),
    }),
}


def build_system(spec: Mapping[str, Any]):
    """The family or ground space that a config's system object describes."""
    system_type = _choice(_object(spec, "system"), "type", _SYSTEMS, "system")
    selector, default, shapes = _SYSTEMS[system_type]
    shape = _choice(spec, selector, shapes, f"system {system_type}", default) if selector else None
    keys, builder = shapes[shape]
    where = f"system {system_type}" + (f"/{shape}" if shape else "")
    try:
        return builder(**_fields(spec, keys, where, skip=("type", selector)))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Operation handlers: each takes the built system, the seed and the parsed
# operation keys, and returns a JSON-able result dict


def _kakutani(family, seed, horizon):
    return bn.kakutani_sum(family, horizon)._asdict()


def _uniformity(family, seed, horizon):
    return bn.uniformity_constant(family, horizon)._asdict()


def _rn_derivative(family, seed, n):
    x = family.configuration(spawn(seed, 0))
    val = bn.rn_derivative(family, x, n)
    return {"log_value": val.log_magnitude, "error_bound": val.error_bound}


def _cocycle_fuzz(family, seed, cases, span, tol):
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


def _homoclinic_scan(family, seed, radius_max, n_max):
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


def _conservativity(family, seed, horizon):
    x = family.configuration(spawn(seed, 0))
    rep = bn.conservativity_probe(family, x, horizon)
    return {
        "verdict": rep.verdict,
        "term_log_floor": rep.term_log_floor,
        "final_sum": rep.final_sum,
        "series": {"partial_sums": [[n, v, 0.0] for n, v in rep.checkpoints]},
    }


def _series(which: str, series: Callable) -> Callable:
    def handler(system, seed, f, horizon):
        out = series(system, f, system.run_sample(seed, 0), horizon)
        return {"final_value": out.final_value, "series": {which: series_rows(out)}}

    return handler


def _batched(system, name: str, runs: int, width: int, what: str) -> None:
    """A Bernoulli probe holds its runs as one (runs, width) matrix: refuse
    one of more than ``RANGE_CAP`` cells rather than run out of memory."""
    if system.kind == "bernoulli" and runs * width > RANGE_CAP:
        raise ConfigError(
            f"operation {name}: runs x {what} = {runs * width} cells exceeds the cap {RANGE_CAP}"
        )


def _maximal(system, seed, f, t, runs, horizon):
    _batched(system, "maximal_inequality", runs, horizon, "horizon")
    return averages.maximal_inequality_probe(system, f, t, runs, horizon, seed)._asdict()


def _two_subsequence(system, seed, f, blocks, times, times_rule, spacing, alpha, runs):
    _batched(system, "two_subsequence_probe", runs, max(blocks), "largest block")
    if times is None:
        n = max(blocks)
        times = list(range(n)) if times_rule == "all" else [spacing * (j + 1) for j in range(n)]
    res = averages.two_subsequence_probe(system, f, times, blocks, alpha, runs, seed)
    return {**res._asdict(), "block_sizes": sorted(blocks)}


def _cylinder(word: list[int], left: int | None) -> Cylinder:
    """The cylinder ``word`` at ``left``, centred on 0 when no left is given."""
    return Cylinder.of(word, -(len(word) // 2) if left is None else left)


def _primitivity(family, seed):
    return {"index": mk.primitivity_index(family.sft)}


def _cylinder_measure(family, seed, word, left):
    value = mk.markov_cylinder_measure(family, _cylinder(word, left))
    return {"value": value, "value_float": float(value)}


def _transition_ratio(family, seed):
    return mk.transition_ratio_constant(family)._asdict()


def _martingale(family, seed, radius):
    gaps = {n: mk.martingale_max_gap(family, n) for n in range(1, radius + 1)}
    return {
        "max_gap": max(gaps.values()),
        "per_radius": {str(n): g for n, g in gaps.items()},
        "ok": all(g == 0 for g in gaps.values()),
    }


def _coupling_scan(family, seed, n):
    return mk.coupling_scan(family, n)._asdict()


def _couple(family, seed, b_word, b_left, c_word, c_left):
    cert = mk.couple_cylinders(family, _cylinder(b_word, b_left), _cylinder(c_word, c_left))
    out = dict(cert._asdict())
    for key in ("b", "c", "b_prime", "c_prime"):
        cyl = out[key]
        out[key] = {"left": cyl.left, "right": cyl.right, "word": list(cyl.word)}
    return out


def _tail_probe(family, seed, cylinders):
    rep = mk.tail_triviality_probe(family, cylinders)
    return {
        "violated": rep.violated,
        "eps": rep.eps,
        "witness_b": list(rep.witness_b.word) if rep.witness_b else None,
        "witness_c": list(rep.witness_c.word) if rep.witness_c else None,
        "forced_lower_bound": rep.forced_lower_bound,
    }


def _event_probability(gs, seed, constraints):
    return {"value": ps.event_probability(gs, constraints)}


def _mixing_gap(gs, seed, b, c):
    return ps.mixing_gap(gs, b, c)._asdict()


def _mixing_gap_fuzz(gs, seed, cases, points):
    ok_all = True
    worst = -1.0
    for case in range(cases):
        b = _random_event(seed, 2 * case, points)
        c = _random_event(seed, 2 * case + 1, points)
        res = ps.mixing_gap(gs, b, c)
        ok_all = ok_all and res.ok
        worst = max(worst, res.gap - res.bound)
    return {"cases": cases, "all_ok": ok_all, "max_gap_minus_bound": worst}


def _random_event(seed: int, tag: int, n_points: int) -> ps.PoissonEvent:
    n_constraints = 1 + int(uniform01(seed, 3, tag) * 3)
    constraints = []
    for i in range(n_constraints):
        region = [p for p in range(n_points) if uniform01(seed, 4, tag, i, p) < 0.5]
        k = int(uniform01(seed, 5, tag, i) * 3)
        constraints.append((region, k))
    return ps.PoissonEvent.of(constraints)


def _null_subsequence(gs, seed, regions, count, horizon):
    return {"times": ps.find_null_subsequence(gs, regions, count, horizon)}


_SEQUENCES = {
    "inverse_n": lambda n: 1.0 / n,
    "zero": lambda n: 0.0,
    "one": lambda n: 1.0,
}


def _banach(gs, seed, horizon, sequence, eps):
    kept, density = ps.banach_density_filter(_SEQUENCES[sequence], eps, horizon)
    return {"density": density, "kept": len(kept), "first": kept[0] if kept else None}


def _variance_decay(gs, seed, region, k, blocks, spacing, runs):
    event = ps.PoissonEvent.count(region, k)
    spacing = len(region) if spacing is None else spacing
    times = [spacing * (j + 1) for j in range(max(blocks))]
    res = ps.subsequence_average_experiment(gs, event, times, blocks, runs, seed)
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


def _weak_mixing(gs, seed, f, g, times, runs):
    points = ps.weak_mixing_probe(gs, f, g, times, runs, seed)
    return {
        "limit": points[0].limit if points else None,
        "series": {
            "correlation": [[p.time, p.estimate, p.half_width] for p in points]
        },
    }


def _zd_kakutani(family, seed, axis, horizon):
    res = lt.kakutani_sum_generator(family, axis, horizon)
    return {"value": res.value, "verdict": res.verdict}


def _zd_cocycle_fuzz(family, seed, cases, span):
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


def _box_average(family, seed, f, n_max):
    d = family.dimension
    atoms = [
        (coef, {_site(k, d, "operation box_ratio_average"): s for k, s in pattern.items()})
        for coef, pattern in f
    ] if f is not None else [(1.0, {(0,) * d: 1})]
    x = family.run_configuration(seed, 0)
    series = lt.box_ratio_average(family, atoms, x, n_max)
    return {"final_value": series.final_value, "series": {"box_ratio": series_rows(series)}}


def _determinism_audit(_system, seed):
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
    same = [jsonable(run(sub)["results"]) == jsonable(run(sub)["results"]) for sub in sub_configs]
    return {"sub_experiments": len(sub_configs), "all_identical": all(same)}


def _on(types: str, handler: Callable, **keys) -> dict[str, tuple[dict, Callable]]:
    return {system_type: (keys, handler) for system_type in types.split()}


def _with(engine: type, handler: Callable) -> Callable:
    return lambda built, seed, **keys: handler(engine(built), seed, **keys)


#: sampled paths: (system type, observable parser, the averages engine)
_PATHS = (
    ("bernoulli", _observable(_CYLINDER_TERMS), averages.BernoulliSystem),
    ("poisson", _observable(_EVENT_TERMS), averages.PoissonSystem),
)


def _on_paths(handler: Callable, f_default=..., **keys) -> dict[str, tuple[dict, Callable]]:
    """An operation on the sampled paths of a shift or a suspension."""
    return {
        system_type: ({"f": (observable, f_default), **keys}, _with(engine, handler))
        for system_type, observable, engine in _PATHS
    }


_BLOCKS = {"blocks": (_nonempty(_list_of(_at_least(1, "blocks")), "blocks"), [16, 64, 256])}
_WEAK_MIXING_TERMS = _records({**_COEF, "constraints": (_event, ...)}, _values)

#: operation name -> accepted system type -> (keys, handler); a handler
#: takes the built system, the seed and the parsed keys as keyword args
_HANDLERS: dict[str, dict[str, tuple[dict, Callable]]] = {
    "kakutani_sum": _on("bernoulli", _kakutani, horizon=(parse_int, 100)),
    "uniformity_constant": _on("bernoulli", _uniformity, horizon=(parse_int, 0)),
    "rn_derivative": _on("bernoulli", _rn_derivative, n=(parse_int, ...)),
    "cocycle_fuzz": _on(
        "bernoulli", _cocycle_fuzz,
        cases=(_at_least(1, "cases"), 1000), span=(parse_int, 8),
        tol=(_float, "0.000000000001"),
    ),
    "homoclinic_scan": _on(
        "bernoulli", _homoclinic_scan,
        radius_max=(_at_least(0, "radius_max"), 3), n_max=(_at_least(0, "n_max"), 8),
    ),
    "conservativity_probe": _on("bernoulli", _conservativity, horizon=(parse_int, 4096)),
    "birkhoff_series": _on_paths(
        _series("birkhoff", averages.birkhoff_series), [{"coef": "1"}],
        horizon=(_at_least(1, "horizon"), 1024),
    ),
    "dual_series": _on_paths(
        _series("dual", averages.dual_series), [{"coef": "1"}],
        horizon=(_at_least(1, "horizon"), 1024),
    ),
    "ratio_series": _on_paths(
        _series("ratio", averages.hurewicz_ratio_series), [{"coef": "1"}],
        horizon=(_at_least(1, "horizon"), 1024),
    ),
    "maximal_inequality": _on_paths(
        _maximal, t=(_float, ...), runs=(_at_least(1, "runs"), 2000), horizon=(parse_int, 128)
    ),
    "two_subsequence_probe": _on_paths(
        _two_subsequence,
        **_BLOCKS,
        times=(_ints, None),
        times_rule=(_enum("all", "spaced"), "all"),
        spacing=(parse_int, 10),
        alpha=(_float, "1"),
        runs=(_at_least(2, "runs"), 400),
    ),
    "primitivity_index": _on("markov", _primitivity),
    "cylinder_measure": _on("markov", _cylinder_measure, word=(_ints, ...), left=(parse_int, None)),
    "martingale_check": _on("markov", _martingale, radius=(_at_least(1, "radius"), 3)),
    "transition_ratio": _on("markov", _transition_ratio),
    "coupling_scan": _on("markov", _coupling_scan, n=(parse_int, 1)),
    "couple_cylinders": _on(
        "markov", _couple,
        b_word=(_ints, ...), b_left=(parse_int, None),
        c_word=(_ints, ...), c_left=(parse_int, None),
    ),
    "tail_triviality_probe": _on(
        "markov", _tail_probe,
        cylinders=(_records({"word": (_ints, ...), "left": (parse_int, ...)}, Cylinder.of), []),
    ),
    "event_probability": _on("poisson", _event_probability, constraints=(_event, ...)),
    "mixing_gap": _on("poisson", _mixing_gap, b=(_event, ...), c=(_event, ...)),
    "mixing_gap_fuzz": _on(
        "poisson", _mixing_gap_fuzz,
        cases=(_at_least(1, "cases"), 500), points=(_at_least(1, "points"), 8),
    ),
    "find_null_subsequence": _on(
        "poisson", _null_subsequence,
        regions=(_list_of(_ints), ...), count=(parse_int, 8), horizon=(parse_int, 10000),
    ),
    "banach_density": _on(
        "poisson", _banach,
        horizon=(_at_least(1, "horizon"), 10000),
        sequence=(_enum(*_SEQUENCES), "inverse_n"),
        eps=(_float, "0.01"),
    ),
    "variance_decay": _on(
        "poisson", _variance_decay,
        region=(_ints, list(range(10))),
        k=(parse_int, 0),
        **_BLOCKS,
        spacing=(_checked(parse_int, bool, "spacing 0 puts every sample at time 0"), None),
        runs=(_at_least(2, "runs"), 10000),
    ),
    "weak_mixing_probe": _on(
        "poisson", _weak_mixing,
        f=(_WEAK_MIXING_TERMS, ...),
        g=(_WEAK_MIXING_TERMS, ...),
        times=(_nonempty(_ints, "times"), ...),
        runs=(_at_least(2, "runs"), 2000),
    ),
    "kakutani_generator": _on("zd", _zd_kakutani, axis=(parse_int, 0), horizon=(parse_int, 64)),
    "zd_cocycle_fuzz": _on(
        "zd", _zd_cocycle_fuzz, cases=(_at_least(1, "cases"), 200), span=(parse_int, 4)
    ),
    "box_ratio_average": _on(
        "zd", _box_average,
        f=(_records({**_COEF, "pattern": (_map_of(parse_int), {})}, _values), None),
        n_max=(parse_int, 32),
    ),
    "determinism_audit": _on("bernoulli markov poisson zd", _determinism_audit),
}

_TOP_KEYS = {
    "schema": (_enum("v1"), ...),
    "seed": (parse_int, ...),
    "name": (_string, None),
    "system": (_object, ...),
    "operation": (_object, ...),
}


def validate_config(config: Mapping[str, Any]) -> tuple[int, Callable, dict]:
    """Check the config's top level and its operation against the tables and
    return the seed, the handler and its parsed keys; build_system checks
    the system's own keys as it parses them."""
    top = _fields(config, _TOP_KEYS, "config")
    system_type = _choice(top["system"], "type", _SYSTEMS, "system")
    name = _choice(top["operation"], "name", _HANDLERS, "operation")
    entries = _HANDLERS[name]
    if system_type not in entries:
        raise ConfigError(f"operation {name!r} needs a system of type {sorted(entries)}")
    keys, handler = entries[system_type]
    where = f"operation {name}"
    return top["seed"], handler, _fields(top["operation"], keys, where, skip=("name",))


def run(config: Mapping[str, Any], seed_override: int | None = None) -> dict[str, Any]:
    """Validate, build, dispatch; returns the report dict.

    Raises ConfigError for invalid configs and CertifiedFailure when an
    operation certifiably fails (callers map these to exit codes).
    """
    seed, handler, keys = validate_config(config)
    if seed_override is not None:
        seed = seed_override
    system = build_system(config["system"])
    started = time.perf_counter()
    results = handler(system, seed, **keys)
    return {
        "schema": "v1",
        "version": __version__,
        "config": dict(config),
        "seed": seed,
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }
