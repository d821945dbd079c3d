"""Spans around the calls into ergolab's layers, installed from outside.

`Tracer.install()` wraps every public module-level function of the layer
modules, plus the methods in `METHODS`, at each place a caller looks the
name up: the defining module's globals (for calls inside the module), every
ergolab module that imported the name (``from .seeding import uniform01``
binds ``ergolab.shift_core.uniform01``), and the class dict for methods.
`Tracer.uninstall()` puts every original object back.

A span is one call: a name ``<module>.<function>``, its own id, the id of
the span that was open when it started (-1 for the benchmark's own calls),
start and end times, and the work done (keys drawn, cells filled, bytes
rendered, ...) when the function has a rule in `WORK`.  Spans stay in
memory until `Tracer.summary` reduces them.  A span's self time is its
duration minus the durations of its direct children.

A name the tracer expects and the program no longer has (a method in
`METHODS`, a function with a rule in `WORK` or `KEYS`, a function that
`layer_metrics` reads) raises, and so does a work rule that no longer fits
its function's arguments or result, when the pass ends.  A renamed
function must fail the run rather than read as a layer that does no work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "seeding",
    "shift_core",
    "bernoulli",
    "markov_sft",
    "poisson",
    "averages",
    "lattice",
    "runner",
    "reporting",
)

#: methods that draw keys or loop over runs; module-level functions are
#: discovered, these are named because most methods are small accessors
METHODS = {
    "shift_core": {"LazyTail": ("symbol", "block")},
    "averages": {
        "BernoulliSystem": ("run_sample", "value_series"),
        "PoissonSystem": ("run_sample", "value_series", "values_matrix"),
    },
    "lattice": {"LatticeConfiguration": ("symbol", "box")},
}

_SEEDING_SCALAR = ("seeding.combine", "seeding.uniform01", "seeding.spawn")
_SEEDING_VECTOR = (
    "seeding.combine_vec",
    "seeding.uniform01_vec",
    "seeding.uniform01_grid",
    "seeding.uniform01_nd",
    "seeding.spawn_vec",
)


def _size(args, kwargs, result):
    return result.size


def _arg(name):
    """Work rule: the value of parameter ``name`` as the call bound it."""

    def rule(args, kwargs, result, signature):
        return signature.bind(*args, **kwargs).arguments[name]

    rule.needs_signature = True
    return rule


#: work recorded per span (keys drawn, cells filled, ...), summed per name;
#: a rule may return a tuple, summed element by element
WORK = {
    **{name: _size for name in _SEEDING_VECTOR},
    "shift_core.LazyTail.block": lambda a, k, r: len(r),
    "bernoulli.rn_log_weights": lambda a, k, r: len(r[0]),
    "poisson.sample_count_grid": _size,
    # (times scanned, times found): the last time returned is the candidates
    "poisson.find_null_subsequence": lambda a, k, r: (r[-1] if r else 0, len(r)),
    "averages.two_subsequence_probe": _arg("n_runs"),
    "averages.maximal_inequality_probe": _arg("n_runs"),
    "lattice.LatticeConfiguration.box": _size,
    "reporting.render_report": lambda a, k, r: len(r.encode()),
}

#: a key per span, counted distinct per report (the outermost span)
KEYS = {
    "markov_sft.markov_cylinder_measure": lambda a, k, r: (a[1].left, a[1].word),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # one tuple per finished span: (name id, span id, parent id, start, end, work)
        self.spans: list[tuple] = []
        # (name id, outermost span id, key) for the functions in KEYS
        self.keys: list[tuple] = []
        self._stack = [-1]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        #: work rules that failed: span name -> the last error
        self.rule_errors: dict[str, str] = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        rule = WORK.get(name)
        key_rule = KEYS.get(name)
        signature = inspect.signature(fn) if getattr(rule, "needs_signature", False) else None
        spans, keys, stack, clock = self.spans, self.keys, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            work = None
            try:
                if rule is not None:
                    work = rule(args, kwargs, result, signature) if signature else rule(args, kwargs, result)
                if key_rule is not None:
                    root = stack[1] if len(stack) > 1 else span_id
                    keys.append((name_id, root, key_rule(args, kwargs, result)))
            except Exception as exc:  # raised by the benchmark's rule, not by the program
                tracer.rule_errors[name] = f"{type(exc).__name__}: {exc}"
            spans.append((name_id, span_id, parent, start, end, work))
            return result

        return wrapper

    def targets(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every lookup site to patch."""
        modules = {layer: importlib.import_module(f"ergolab.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("ergolab")]
        out = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                for ns in namespaces:
                    for alias, bound in vars(ns).items():
                        if bound is obj:
                            out.append((ns, alias, f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    if not inspect.isfunction(vars(cls).get(method)):
                        raise AttributeError(f"ergolab.{layer}.{cls_name} has no method {method}")
                    out.append((cls, method, f"{layer}.{cls_name}.{method}"))
        missing = (set(WORK) | set(KEYS)) - {name for _, _, name in out}
        if missing:
            raise AttributeError(f"no public function to trace for {sorted(missing)}")
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for owner, attr, name in self.targets():
            original = vars(owner)[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self.rule_errors:
            raise RuntimeError(f"work rules failed: {self.rule_errors}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self time, summed work; calls and
        work of the outermost calls into a layer (parent in another layer);
        calls per (name, parent name); distinct keys per report."""
        layer_of = [name.split(".")[0] for name in self.names]
        child_time: dict[int, float] = defaultdict(float)
        name_of_span: dict[int, int] = {}
        for name_id, span_id, parent, start, end, _ in self.spans:
            child_time[parent] += end - start
            name_of_span[span_id] = name_id
        # every traced name is a key, so reading a name the program no
        # longer has is a KeyError, not a zero
        calls = dict.fromkeys(self.names, 0)
        outer_calls = dict.fromkeys(self.names, 0)
        by_parent: Counter = Counter()
        total = dict.fromkeys(self.names, 0.0)
        self_time = dict.fromkeys(self.names, 0.0)
        work: dict = {}
        outer_work = dict.fromkeys(self.names, 0.0)
        root_time = 0.0
        for name_id, span_id, parent, start, end, w in self.spans:
            name = self.names[name_id]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time.get(span_id, 0.0)
            parent_id = name_of_span.get(parent)
            by_parent[name, self.names[parent_id] if parent_id is not None else None] += 1
            outer = parent_id is None or layer_of[parent_id] != layer_of[name_id]
            if outer:
                outer_calls[name] += 1
            if parent == -1:
                root_time += duration
            if w is None:
                continue
            w = w if isinstance(w, tuple) else (w,)
            acc = work.setdefault(name, [0.0] * len(w))
            for i, v in enumerate(w):
                acc[i] += v
            if outer:
                outer_work[name] += w[0]
        distinct: dict = defaultdict(set)
        for name_id, root, key in self.keys:
            distinct[self.names[name_id]].add((root, key))
        return {
            "calls": calls,
            "outer_calls": outer_calls,
            "by_parent": by_parent,
            "total": total,
            "self": self_time,
            "work": work,
            "outer_work": outer_work,
            "distinct": {name: len(v) for name, v in distinct.items()},
            "root_time": root_time,
        }


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass whose wall time is ``wall_s``."""
    calls, outer_calls = summary["calls"], summary["outer_calls"]
    total, self_time = summary["total"], summary["self"]
    outer_work = summary["outer_work"]

    def work(name: str, part: int = 0) -> float:
        return summary["work"].get(name, [0.0, 0.0])[part]

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_time.items() if k.split(".")[0] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def nested(name: str, parent: str) -> int:
        """Calls of ``name`` made directly from ``parent``."""
        calls[name], calls[parent]  # both must still exist
        return summary["by_parent"][name, parent]

    grid_keys = sum(outer_work[n] for n in _SEEDING_VECTOR)
    scalar_keys = sum(outer_calls[n] for n in _SEEDING_SCALAR)
    seeding_self = layer_self("seeding")
    grid_cells = work("poisson.sample_count_grid")
    masses = calls["markov_sft.markov_cylinder_measure"]
    null_times = work("poisson.find_null_subsequence")
    null_found = work("poisson.find_null_subsequence", 1)
    return {
        "seeding.grid_keys": grid_keys,
        "seeding.scalar_keys": scalar_keys,
        "seeding.self_s": seeding_self,
        "seeding.ns_per_key": ratio(seeding_self * 1e9, grid_keys + scalar_keys),
        "shift_core.symbol_calls": calls["shift_core.LazyTail.symbol"],
        "shift_core.block_cells": work("shift_core.LazyTail.block"),
        "shift_core.self_s": layer_self("shift_core"),
        "bernoulli.rn_calls": calls["bernoulli.rn_derivative"] + calls["bernoulli.rn_log_weights"],
        "bernoulli.log_weight_entries": work("bernoulli.rn_log_weights"),
        "bernoulli.bound_checks": calls["bernoulli.homoclinic_ratio_bound_check"],
        "bernoulli.self_s": layer_self("bernoulli"),
        "markov_sft.cylinder_masses": masses,
        "markov_sft.mass_reuse": ratio(
            summary["distinct"].get("markov_sft.markov_cylinder_measure", 0), masses
        ),
        "markov_sft.certificates": calls["markov_sft.couple_cylinders"],
        "markov_sft.primitivity_calls": calls["markov_sft.primitivity_index"],
        "markov_sft.martingale_words": nested(
            "markov_sft.restricted_derivative_fraction", "markov_sft.martingale_max_gap"
        ),
        "markov_sft.self_s": layer_self("markov_sft"),
        "poisson.grid_cells": grid_cells,
        "poisson.ns_per_cell": ratio(total["poisson.sample_count_grid"] * 1e9, grid_cells),
        "poisson.grid_self_s": self_time["poisson.sample_count_grid"],
        "poisson.indicator_self_s": self_time["poisson.indicator_grid"],
        "poisson.event_prob_calls": calls["poisson.event_probability"],
        "poisson.event_prob_self_s": self_time["poisson.event_probability"],
        "poisson.null_candidates": null_times,
        "poisson.null_yield": ratio(null_found, null_times),
        "poisson.null_self_s": self_time["poisson.find_null_subsequence"],
        "averages.mc_runs": work("averages.two_subsequence_probe")
        + work("averages.maximal_inequality_probe"),
        "averages.per_run_samples": calls["averages.BernoulliSystem.run_sample"]
        + calls["averages.PoissonSystem.run_sample"],
        "averages.self_s": layer_self("averages"),
        "lattice.box_cells": work("lattice.LatticeConfiguration.box"),
        "lattice.rn_calls": calls["lattice.rn_derivative_g"],
        "lattice.self_s": layer_self("lattice"),
        "runner.reports": calls["runner.run"],
        "runner.validate_s": total["runner.validate_config"],
        "runner.build_s": total["runner.build_system"],
        "runner.self_s": layer_self("runner"),
        "reporting.render_s": total["reporting.render_report"],
        "reporting.bytes": work("reporting.render_report"),
        "trace.covered_share": ratio(summary["root_time"], wall_s),
    }


def layer_shares(summary: dict, wall_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced pass's wall time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in summary["self"].items():
        shares[name.split(".")[0]] += seconds / wall_s
    return shares
