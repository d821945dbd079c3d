import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ergolab import cli, runner
from ergolab.errors import CertifiedFailure, ConfigError, NonSingularError, ToleranceError
from ergolab.experiments import CATALOG, get_config, list_experiments
from ergolab.reporting import render_report
from ergolab.shift_core import RangeCapError


BERNOULLI = {"type": "bernoulli", "kind": "iid", "base": ["1/2", "1/2"]}
POISSON = {"type": "poisson", "ground": "translation", "step": 1}
MARKOV = {
    "type": "markov",
    "sft": [[1, 1], [1, 1]],
    "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
}

#: (system, operation, the required key the operation leaves out)
MISSING_KEY_CASES = [
    (BERNOULLI, {"name": "rn_derivative"}, "n"),
    (BERNOULLI, {"name": "maximal_inequality", "f": [{"coef": "1"}]}, "t"),
    (POISSON, {"name": "two_subsequence_probe"}, "f"),
    (POISSON, {"name": "event_probability"}, "constraints"),
    (POISSON, {"name": "mixing_gap", "b": [[["0"], "0"]]}, "c"),
    (POISSON, {"name": "find_null_subsequence", "count": 2}, "regions"),
    (POISSON, {"name": "weak_mixing_probe", "f": [], "g": []}, "times"),
    (
        POISSON,
        {"name": "weak_mixing_probe", "f": [{"coef": "1"}], "g": [], "times": [1]},
        "constraints",
    ),
    (MARKOV, {"name": "cylinder_measure"}, "word"),
    (MARKOV, {"name": "tail_triviality_probe", "cylinders": [{"word": [0]}]}, "left"),
]

ZD = {"type": "zd", "kind": "iid", "dimension": 2, "base": ["1/2", "1/2"]}
#: a valid system of each type, for configs built from the key tables
SYSTEMS = {"bernoulli": BERNOULLI, "markov": MARKOV, "poisson": POISSON, "zd": ZD}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> dict[tuple[str, str], dict[str, str]]:
    """Rows of the README table under ``header``: (first cell, second cell)
    -> {key: "required" | "optional" | default as JSON} from the last cell."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, second, keys = (cell.strip() for cell in line.strip("|").split("|"))
        found = re.findall(r"`(\w+)` (?:= `([^`]*)`|\((required|optional)\))", keys)
        rows[first, second] = {key: default or mark for key, default, mark in found}
    return rows


def declared(keys) -> dict[str, str]:
    """A key table as the README writes it."""
    return {
        key: "required" if default is ... else "optional" if default is None else json.dumps(default)
        for key, (_, default) in keys.items()
    }


def minimal_config(**overrides):
    config = {
        "schema": "v1",
        "seed": "7",
        "system": {"type": "bernoulli", "kind": "iid", "base": ["1/2", "1/2"]},
        "operation": {"name": "kakutani_sum", "horizon": 10},
    }
    config.update(overrides)
    return config



def config_on(system, operation):
    return minimal_config(system=system, operation=operation)


ONE_FUZZ = {"name": "mixing_gap_fuzz", "cases": 1}
SUMMABLE = {"type": "bernoulli", "kind": "summable"}
SUMMABLE_WITH_WINDOW = {
    **SUMMABLE,
    "base": ["1/2", "1/2"],
    "window": {"0": ["3/4", "1/4"]},
}
#: a summable family whose fair-coin cutoff lies past the cap
SUMMABLE_FAR = dict(SUMMABLE, c="1/10", r="999999/1000000")
LETTER = [{"coef": "1", "word": [1], "left": 0}]
TWO_LETTERS = [{"coef": "1", "word": [1, 2], "left": 0}]

GOLDEN_MEAN = {
    "type": "markov",
    "sft": [[1, 1], [1, 0]],
    "transition": [["3/4", "1/4"], ["1", "0"]],
}

#: config -> the words its one stderr line must hold; every one exits 2
#: an observable of one event on one point
ONE_POINT = [{"constraints": [[[0], 1]]}]

REJECTED = {
    # rules of the JSON schema that the key tables replace
    "seed-bool": (minimal_config(seed=True), "bad integer True"),
    "seed-float": (minimal_config(seed=1.5), "bad integer 1.5"),
    "seed-missing": (
        {k: v for k, v in minimal_config().items() if k != "seed"},
        "config needs key seed",
    ),
    "schema-v2": (minimal_config(schema="v2"), "'v2'"),
    "top-level-list": ([minimal_config()], "expected an object"),
    "one-probability": (minimal_config(system=dict(BERNOULLI, base=["1"])), "two symbols"),
    "sft-entry-2": (
        config_on(dict(MARKOV, sft=[[1, 2], [1, 1]]), {"name": "primitivity_index"}),
        "2 is not one of 0, 1",
    ),
    "step-float": (config_on(dict(POISSON, step=1.5), ONE_FUZZ), "bad integer 1.5"),
    "step-bool": (config_on(dict(POISSON, step=True), ONE_FUZZ), "bad integer True"),
    "kind-not-string": (minimal_config(system=dict(BERNOULLI, kind=5)), "kind: 5"),
    # a decimal over an integer passed the pattern and Fraction refused it
    "decimal-fraction": (
        minimal_config(system=dict(BERNOULLI, base=["1.5/3", "1/2"])),
        "bad number '1.5/3'",
    ),
    # system keys missing, or not used by the chosen shape
    "compact-without-base": (
        minimal_config(system={"type": "bernoulli", "kind": "compact"}),
        "system bernoulli/compact needs key base",
    ),
    "summable-r-rounds-to-1": (
        minimal_config(system=dict(SUMMABLE, r="99999999999999999/100000000000000000")),
        "rounds to the float 1.0",
    ),
    "summable-with-base-window": (
        minimal_config(system=SUMMABLE_WITH_WINDOW),
        "system bernoulli/summable has unknown key base",
    ),
    "markov-without-sft": (
        config_on({k: v for k, v in MARKOV.items() if k != "sft"}, {"name": "primitivity_index"}),
        "system markov needs key sft",
    ),
    "weighted-without-weights": (
        config_on({"type": "poisson", "ground": "weighted"}, ONE_FUZZ),
        "system poisson/weighted needs key weights",
    ),
    "poisson-with-kind": (config_on(dict(POISSON, kind="iid"), ONE_FUZZ), "unknown key kind"),
    "zd-axis-outside-dimension": (
        config_on({"type": "zd", "kind": "alternating", "axis": 5}, {"name": "zd_cocycle_fuzz"}),
        "axis 5 outside dimension 2",
    ),
    # a sampled operation over RANGE_CAP (runs, times) cells ran out of memory
    "maximal-inequality-over-cap": (
        config_on(
            BERNOULLI,
            {"name": "maximal_inequality", "f": LETTER, "t": "1", "runs": 10**7, "horizon": 10**7},
        ),
        "runs x horizon = 100000000000000 cells exceeds the cap 16777216",
    ),
    "two-subsequence-over-cap": (
        config_on(
            BERNOULLI,
            {"name": "two_subsequence_probe", "f": LETTER, "blocks": [8, 4096], "runs": 4097},
        ),
        "runs x largest block = 16781312 cells exceeds the cap 16777216",
    ),
    "dual-series-over-cap": (
        config_on(BERNOULLI, {"name": "dual_series", "horizon": 10**10}),
        "operation dual_series: runs x horizon = 10000000000 cells exceeds the cap",
    ),
    "letter-birkhoff-series-over-cap": (
        config_on(BERNOULLI, {"name": "birkhoff_series", "f": LETTER, "horizon": 2**24 + 1}),
        "operation birkhoff_series: runs x horizon = 16777217 cells exceeds the cap",
    ),
    "poisson-ratio-series-over-cap": (
        config_on(POISSON, {"name": "ratio_series", "horizon": 10**10}),
        "operation ratio_series: runs x horizon = 10000000000 cells exceeds the cap",
    ),
    "conservativity-over-cap": (
        config_on(BERNOULLI, {"name": "conservativity_probe", "horizon": 10**10}),
        "operation conservativity_probe: runs x horizon = 10000000000 cells exceeds the cap",
    ),
    # a horizon at the cap passed, and the block the series read, which
    # also spans the word and the window, went over it as exit 3
    **{
        f"{name}-block-over-cap": (
            config_on(BERNOULLI, {"name": name, "f": TWO_LETTERS, "horizon": 2**24}),
            "the series reads 16777217 coordinates",
        )
        for name in ("birkhoff_series", "dual_series", "ratio_series")
    },
    "windowed-conservativity-block-over-cap": (
        config_on(
            dict(BERNOULLI, kind="compact", window={"3": ["3/4", "1/4"]}),
            {"name": "conservativity_probe", "horizon": 2**24},
        ),
        "the series reads 16777217 coordinates [-16777213, 3], over the cap 16777216",
    ),
    # a homoclinic scan of |A|^(2r + 1) words x (2 n_max + 1) shifts per
    # radius r, here 2^81 words at r = 40, ran without end
    "homoclinic-scan-radius-over-cap": (
        config_on(
            dict(BERNOULLI, kind="compact", window={"0": ["3/4", "1/4"]}),
            {"name": "homoclinic_scan", "radius_max": 40},
        ),
        "operation homoclinic_scan: words x shifts to radius 10 = 47535434 cells exceeds the cap "
        "16777216",
    ),
    "homoclinic-scan-shifts-over-cap": (
        config_on(BERNOULLI, {"name": "homoclinic_scan", "radius_max": 0, "n_max": 2**23}),
        "operation homoclinic_scan: words x shifts to radius 0 = 33554434 cells exceeds the cap",
    ),
    "banach-density-over-cap": (
        config_on(POISSON, {"name": "banach_density", "horizon": 10**9}),
        "operation banach_density: runs x horizon = 1000000000 cells exceeds the cap",
    ),
    "poisson-maximal-inequality-over-cap": (
        config_on(
            POISSON,
            {"name": "maximal_inequality", "f": [{"constraints": [[[0], 0]]}], "t": "1",
             "runs": 2, "horizon": 10**10},
        ),
        "operation maximal_inequality: runs x horizon = 20000000000 cells exceeds the cap",
    ),
    "poisson-two-subsequence-over-cap": (
        config_on(
            POISSON,
            {"name": "two_subsequence_probe", "f": [{"constraints": [[[0], 0]]}],
             "blocks": [8, 4096], "runs": 4097},
        ),
        "runs x largest block = 16781312 cells exceeds the cap 16777216",
    ),
    "variance-decay-over-cap": (
        config_on(POISSON, {"name": "variance_decay", "blocks": [10**9], "runs": 2}),
        "operation variance_decay: runs x largest block = 2000000000 cells exceeds the cap",
    ),
    "weak-mixing-over-cap": (
        config_on(
            POISSON,
            {"name": "weak_mixing_probe", "f": [{"constraints": [[[0], 0]]}],
             "g": [{"constraints": [[[0], 0]]}], "times": [1], "runs": 10**9},
        ),
        "operation weak_mixing_probe: runs x times x region points = 2000000000 cells exceeds",
    ),
    # 6.6e12 golden-mean words of length 61, which the scan enumerated
    # without end
    "coupling-scan-n-over-cap": (
        config_on(GOLDEN_MEAN, {"name": "coupling_scan", "n": 30}),
        "operation coupling_scan: words of length 61, counted to 64528, x 260 = 16777280 cells "
        "exceeds the cap 16777216",
    ),
    # scans of 196,418 and 177,147 words, each with its certificate work,
    # that an earlier bound on the symbols alone let run for minutes
    "coupling-scan-golden-mean-n-12": (
        config_on(GOLDEN_MEAN, {"name": "coupling_scan", "n": 12}),
        "operation coupling_scan: words of length 25, counted to 144632, x 116",
    ),
    "coupling-scan-full-3-shift-n-5": (
        config_on(
            dict(MARKOV, sft=[[1] * 3] * 3, transition=[["1/3"] * 3] * 3),
            {"name": "coupling_scan", "n": 5},
        ),
        "operation coupling_scan: words of length 11, counted to 143396, x 117",
    ),
    # a summable Kakutani walk past its fair-coin cutoff (infinite here)
    # is quadratic in the horizon, which the horizon alone let through
    "summable-kakutani-over-cap": (
        config_on(SUMMABLE_FAR, {"name": "kakutani_sum", "horizon": 2**24}),
        "operation kakutani_sum: (min(horizon, fair cutoff) + 1)^2 x denominator words = "
        "281475010265089 cells exceeds the cap",
    ),
    # fuzzes that ran without end
    "cocycle-fuzz-cases-over-cap": (
        config_on(BERNOULLI, {"name": "cocycle_fuzz", "cases": 10**9}),
        "operation cocycle_fuzz: cases = 1000000000 cells exceeds the cap",
    ),
    "zd-cocycle-fuzz-cases-over-cap": (
        config_on(ZD, {"name": "zd_cocycle_fuzz", "cases": 10**9}),
        "operation zd_cocycle_fuzz: cases = 1000000000 cells exceeds the cap",
    ),
    # a negative span drew from a reversed range and reported all_ok
    "cocycle-fuzz-span-negative": (
        config_on(BERNOULLI, {"name": "cocycle_fuzz", "span": -3}), "span -3 is below 0"
    ),
    "zd-cocycle-fuzz-span-negative": (
        config_on(ZD, {"name": "zd_cocycle_fuzz", "span": -3}), "span -3 is below 0"
    ),
    # a span past the cap keyed coordinates past 2^64, which alias
    "zd-cocycle-fuzz-span-over-cap": (
        config_on(ZD, {"name": "zd_cocycle_fuzz", "cases": 3, "span": 2**70}),
        "invalid input: |g| exceeds cap 16777216",
    ),
    "cocycle-fuzz-span-over-cap": (
        config_on(BERNOULLI, {"name": "cocycle_fuzz", "cases": 3, "span": 2**70}),
        "invalid input: |n| exceeds cap 16777216",
    ),
    # a span whose 2 span + 1 no float holds ended in an OverflowError
    "cocycle-fuzz-span-past-floats": (
        config_on(BERNOULLI, {"name": "cocycle_fuzz", "cases": 3, "span": 10**309}),
        "span is past the float range",
    ),
    "zd-cocycle-fuzz-span-past-floats": (
        config_on(ZD, {"name": "zd_cocycle_fuzz", "cases": 3, "span": (2**1024 - 2**970) // 2}),
        "span is past the float range",
    ),
    # indicator reads pull regions back in int64: Python ints carried these
    "variance-decay-pull-back-past-int64": (
        config_on(
            dict(POISSON, step=2**61),
            {"name": "variance_decay", "region": [0], "blocks": [4], "spacing": 1, "runs": 2},
        ),
        "an event point, time or pull-back reaches 2^62 in magnitude",
    ),
    "weak-mixing-point-past-int64": (
        config_on(POISSON, {"name": "weak_mixing_probe", "f": [{"constraints": [[[2**62], 0]]}],
                            "g": ONE_POINT, "times": [1], "runs": 2}),
        "an event point, time or pull-back reaches 2^62 in magnitude",
    ),
    "weak-mixing-step-past-int64-at-time-0": (
        config_on(dict(POISSON, step=2**70), {"name": "weak_mixing_probe", "f": ONE_POINT,
                                              "g": ONE_POINT, "times": [0], "runs": 2}),
        "an event point, time or pull-back reaches 2^62 in magnitude",
    ),
    "mixing-gap-fuzz-points-over-cap": (
        config_on(POISSON, {"name": "mixing_gap_fuzz", "points": 10**9}),
        "operation mixing_gap_fuzz: cases x (1 + points) = 500000000500 cells exceeds the cap",
    ),
    # a null-subsequence search with no size bound: every candidate
    # overlaps on the identity, and 10^9 steps on a translation
    "null-subsequence-identity-over-cap": (
        config_on(
            {"type": "poisson", "ground": "identity"},
            {"name": "find_null_subsequence", "regions": [[0]], "count": 2, "horizon": 10**12},
        ),
        "operation find_null_subsequence: horizon x (1 + region points) = 2000000000000 cells "
        "exceeds the cap",
    ),
    "null-subsequence-count-over-cap": (
        config_on(
            POISSON,
            {"name": "find_null_subsequence", "regions": [[0]], "count": 10**9, "horizon": 10**9},
        ),
        "horizon x (1 + region points) = 2000000000 cells exceeds the cap 16777216",
    ),
    # a Z^d box of 10^9 ran numpy out of memory building its axes (exit 1)
    "zd-box-block-over-cap": (
        config_on(
            {"type": "zd", "kind": "compact", "base": ["1/2", "1/2"],
             "window": {"0,0": ["3/4", "1/4"]}},
            {"name": "box_ratio_average", "n_max": 10**9},
        ),
        "operation box_ratio_average: (2 n_max + 1)^2 = 4000000004000000001 cells exceeds the cap",
    ),
    # the box's margins, here a window site far out, pass the cap that
    # 2 n_max + 1 does not
    "zd-window-box-block-over-cap": (
        config_on(
            {"type": "zd", "kind": "compact", "base": ["1/2", "1/2"],
             "window": {"5000,0": ["3/4", "1/4"]}},
            {"name": "box_ratio_average", "n_max": 1},
        ),
        "invalid input: box of 100060009 cells exceeds the cap",
    ),
    # a maximal or two-subsequence read whose block passed the cap ran into
    # the symbol grid's range check (exit 3); it is refused before any draw
    "maximal-inequality-block-over-cap": (
        config_on(
            dict(
                BERNOULLI, kind="compact",
                window={"0": ["3/4", "1/4"], "16777300": ["1/4", "3/4"]},
            ),
            {"name": "maximal_inequality", "f": LETTER, "t": "1", "runs": 4, "horizon": 4},
        ),
        "invalid input: the series reads 16777304 coordinates [-3, 16777300], over the cap",
    ),
    "two-subsequence-block-over-cap": (
        config_on(
            BERNOULLI,
            {"name": "two_subsequence_probe", "f": LETTER + [{"word": [1], "left": 16777300}],
             "times": [-3, -2, -1, 0], "blocks": [4], "runs": 4},
        ),
        "invalid input: the series reads 16777304 coordinates [-3, 16777300], over the cap",
    ),
    # a negative word length made coupling_scan extend words without end
    "coupling-scan-negative-n": (
        config_on(MARKOV, {"name": "coupling_scan", "n": -1}),
        "word length -1 is negative",
    ),
    # malformed operation values, most of them nested
    "f-list-of-int": (config_on(BERNOULLI, {"name": "dual_series", "f": [1]}), "got 1"),
    "f-string": (config_on(BERNOULLI, {"name": "dual_series", "f": "abc"}), "got 'abc'"),
    "f-event-term-on-bernoulli": (
        config_on(BERNOULLI, {"name": "dual_series", "f": [{"constraints": []}]}),
        "operation dual_series has unknown key constraints",
    ),
    "regions-of-int": (
        config_on(POISSON, {"name": "find_null_subsequence", "regions": [5]}),
        "got 5",
    ),
    "word-int": (config_on(MARKOV, {"name": "cylinder_measure", "word": 5}), "got 5"),
    "cylinders-of-int": (
        config_on(MARKOV, {"name": "tail_triviality_probe", "cylinders": [5]}),
        "got 5",
    ),
    "weak-mixing-f-of-int": (
        config_on(POISSON, {"name": "weak_mixing_probe", "f": [5], "g": [], "times": [1]}),
        "got 5",
    ),
    "constraint-triple": (
        config_on(POISSON, {"name": "event_probability", "constraints": [[["0"], "0", "1"]]}),
        "[region, count] pair",
    ),
    "times-rule-misspelled": (
        config_on(
            BERNOULLI,
            {"name": "two_subsequence_probe", "f": LETTER, "times_rule": "spacd", "blocks": [4]},
        ),
        "'spacd' is not one of 'all', 'spaced'",
    ),
    # Z^d sites need exactly `dimension` coordinates
    "zd-window-site-1d": (
        config_on(dict(ZD, kind="compact", window={"0": ["3/4", "1/4"]}), {"name": "zd_cocycle_fuzz"}),
        "site '0' needs 2 coordinates",
    ),
    "pattern-site-1d": (
        config_on(ZD, {"name": "box_ratio_average", "f": [{"pattern": {"0": 1}}]}),
        "site '0' needs 2 coordinates",
    ),
    "pattern-site-3d": (
        config_on(ZD, {"name": "box_ratio_average", "f": [{"pattern": {"0,0,0": 1}}]}),
        "site '0,0,0' needs 2 coordinates",
    ),
    # a negative weight sampled N = 0 in every run; an event read only part
    # of its points, and a cycle's pull-back wrapped a point outside it
    "negative-weight": (
        config_on({"type": "poisson", "ground": "weighted", "weights": {"0": "-1"}}, {"name": "dual_series"}),
        "invalid config: system poisson/weighted: point 0 has negative weight -1",
    ),
    "event-point-without-weight": (
        config_on(
            {"type": "poisson", "ground": "weighted", "weights": {"0": "1"}},
            {"name": "dual_series", "f": [{"constraints": [[[0], 5], [[1], 0]]}]},
        ),
        "invalid input: point 1 has no assigned weight",
    ),
    "region-outside-cycle": (
        config_on(
            {"type": "poisson", "ground": "cycle", "length": 3},
            {"name": "variance_decay", "region": [5], "blocks": [2]},
        ),
        "invalid input: point 5 outside cycle of length 3",
    ),
}

#: config -> the words its one stderr line must hold; every one exits 3
CERTIFIED_FAILURES = {
    "null-subsequence-no-admissible-time": (
        minimal_config(
            seed="3",
            system={"type": "poisson", "ground": "cycle", "length": 4},
            operation={
                "name": "find_null_subsequence",
                "regions": [["0", "1"]],
                "count": 2,
                "horizon": 20,
            },
        ),
        "certified failure: no admissible time at step 2 within horizon 20",
    ),
    # a marginal that never returns to the base one kept every evolved
    # marginal, each with more bits than the last
    "markov-marginal-over-budget": (
        config_on(
            dict(GOLDEN_MEAN, transition_window={"0": [["1/2", "1/2"], ["1", "0"]]}),
            {"name": "cylinder_measure", "word": [1], "left": 10**9},
        ),
        "certified failure: marginal at 1000000000: the marginals from the window's left end "
        "pass 67108864 bits",
    ),
    # the first word in D comes after every golden-mean word of length 81
    # that starts with 1, about 10^16 of them; the probe ran without end
    "tail-probe-words-over-cap": (
        config_on(
            GOLDEN_MEAN,
            {"name": "tail_triviality_probe", "cylinders": [{"word": [2], "left": -40}]},
        ),
        "certified failure: tail_triviality_probe: words of length 81 pass the cap",
    ),
}

EVENT_F = [{"constraints": [[[0], 1]]}]
EVENT_F3 = [{"constraints": [[[0, 1, 2], 1]]}]


def _cases(results):
    return results.get("cases", results.get("pairs_checked"))


#: (system, operation, key, value, lowest accepted value, what a report at
#: the lowest value shows it checked or sampled[, what the CLI says when the
#: value is not an integer below a bound]): below the bound a fuzz or scan
#: checks nothing and would still report all_ok, a series or sample is
#: empty, or a ddof=1 statistic is nan; maximal_inequality shows no count
_VACUOUS = [
    (BERNOULLI, {"name": "cocycle_fuzz", "span": 2}, "cases", 0, 1, _cases),
    (POISSON, {"name": "mixing_gap_fuzz"}, "cases", 0, 1, _cases),
    (POISSON, {"name": "mixing_gap_fuzz"}, "points", 0, 1, _cases),
    (ZD, {"name": "zd_cocycle_fuzz", "span": 2}, "cases", 0, 1, _cases),
    (BERNOULLI, {"name": "homoclinic_scan", "n_max": 1}, "radius_max", -1, 0, _cases),
    (BERNOULLI, {"name": "homoclinic_scan", "radius_max": 1}, "n_max", -1, 0, _cases),
    (
        BERNOULLI, {"name": "birkhoff_series"}, "horizon", 0, 1,
        lambda r: len(r["series"]["birkhoff"]),
    ),
    (POISSON, {"name": "dual_series"}, "horizon", 0, 1, lambda r: len(r["series"]["dual"])),
    (BERNOULLI, {"name": "ratio_series"}, "horizon", 0, 1, lambda r: len(r["series"]["ratio"])),
    (POISSON, {"name": "banach_density", "sequence": "zero"}, "horizon", 0, 1, lambda r: r["kept"]),
    (
        BERNOULLI, {"name": "maximal_inequality", "f": [{"word": [1]}], "t": "1", "horizon": 4},
        "runs", 0, 1, None,
    ),
    (
        POISSON, {"name": "two_subsequence_probe", "f": EVENT_F, "blocks": [2]}, "runs", 1, 2,
        lambda r: len(r["block_means"]),
    ),
    (POISSON, {"name": "variance_decay", "blocks": [2]}, "runs", 1, 2, lambda r: len(r["variances"])),
    (
        POISSON, {"name": "weak_mixing_probe", "f": EVENT_F, "g": EVENT_F, "times": [1]},
        "runs", 1, 2, lambda r: len(r["series"]["correlation"]),
    ),
    (MARKOV, {"name": "martingale_check"}, "radius", 0, 1, lambda r: len(r["per_radius"])),
    # a maximal probe over no times reduced an empty array, and a Kakutani
    # sum over a box of negative radius reported a number
    (
        BERNOULLI, {"name": "maximal_inequality", "f": LETTER, "t": "1", "runs": 8},
        "horizon", 0, 1, None,
    ),
    (
        POISSON, {"name": "maximal_inequality", "f": EVENT_F, "t": "1", "runs": 8},
        "horizon", -3, 1, None,
    ),
    (ZD, {"name": "kakutani_generator"}, "horizon", -4, 1, None),
    # a block of 0 times has no average; no times or blocks sample nothing;
    # a spacing of 0 samples time 0 only, while a negative one is fine
    (
        POISSON, {"name": "variance_decay"}, "blocks", [0], [1],
        lambda r: len(r["variances"]), "blocks 0 is below 1",
    ),
    (
        POISSON, {"name": "variance_decay"}, "blocks", [], [1],
        lambda r: len(r["variances"]), "blocks is empty",
    ),
    (
        POISSON, {"name": "two_subsequence_probe", "f": EVENT_F}, "blocks", [0], [1],
        lambda r: len(r["block_means"]), "blocks 0 is below 1",
    ),
    (
        BERNOULLI, {"name": "two_subsequence_probe", "f": LETTER}, "blocks", [], [1],
        lambda r: len(r["block_means"]), "blocks is empty",
    ),
    (
        POISSON, {"name": "variance_decay", "blocks": [2]}, "spacing", 0, -1,
        lambda r: len(r["variances"]), "spacing 0 puts every sample at time 0",
    ),
    (
        POISSON, {"name": "weak_mixing_probe", "f": EVENT_F, "g": EVENT_F}, "times", [], [1],
        lambda r: len(r["series"]["correlation"]), "times is empty",
    ),
]
VACUOUS_COUNTS = [
    row if len(row) == 7 else (*row, f"{row[2]} {row[3]} is below {row[4]}") for row in _VACUOUS
]
each_vacuous_count = pytest.mark.parametrize(
    "system, op, key, value, low, checked, says",
    VACUOUS_COUNTS,
    ids=[f"{op['name']}-{key}" for _, op, key, *_ in VACUOUS_COUNTS],
)


def _floats(value) -> list[float]:
    """Every float in a nested report value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _floats(v)]
    return [value] if isinstance(value, float) else []


class TestValidation:
    def test_valid_config_runs(self):
        report = runner.run(minimal_config())
        assert report["results"]["value"] == 0.0
        assert report["results"]["verdict"] == "convergent_certified"

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError):
            runner.run(minimal_config(extra_field=1))

    def test_unknown_system_field_rejected(self):
        cfg = minimal_config()
        cfg["system"] = dict(cfg["system"], windowing="oops")
        with pytest.raises(ConfigError):
            runner.run(cfg)

    def test_negative_probability_rejected(self):
        cfg = minimal_config()
        cfg["system"] = {"type": "bernoulli", "kind": "iid", "base": ["-1/2", "3/2"]}
        with pytest.raises(ConfigError):
            runner.run(cfg)

    def test_numbers_must_be_strings_or_ints(self):
        cfg = minimal_config()
        cfg["system"] = {"type": "bernoulli", "kind": "iid", "base": [0.5, 0.5]}
        with pytest.raises(ConfigError):
            runner.run(cfg)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigError):
            runner.run(minimal_config(operation={"name": "no_such_op"}))

    def test_operation_system_mismatch(self):
        cfg = minimal_config(operation={"name": "mixing_gap_fuzz"})
        with pytest.raises(ConfigError):
            runner.run(cfg)

    def test_readme_lists_every_operation_and_key(self):
        tabled = {}
        for name, entries in runner._HANDLERS.items():
            keys = [declared(keys) for keys, *_ in entries.values()]
            assert all(k == keys[0] for k in keys), name
            tabled[f"`{name}`", ", ".join(entries)] = keys[0]
        assert readme_table("| operation | systems | keys |") == tabled

    def test_readme_lists_every_system_shape_and_key(self):
        tabled = {
            (f"`{system_type}`", f"`{selector}` = `{json.dumps(shape)}`" if selector else ""):
            declared(keys)
            for system_type, (selector, _, shapes) in runner._SYSTEMS.items()
            for shape, (keys, _) in shapes.items()
        }
        assert readme_table("| type | shape | keys |") == tabled

    def test_runner_does_not_import_jsonschema(self):
        code = "import sys, ergolab.runner; print('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout == "False\n", proc.stderr


class TestCatalog:
    def test_required_names_present(self):
        names = {name for name, _ in list_experiments()}
        assert {"poisson-mixing-gap", "bernoulli-cocycle", "markov-coupling"} <= names

    def test_filter(self):
        names = [name for name, _ in list_experiments("markov")]
        assert names == ["markov-coupling", "markov-martingale"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_config("nope")

    def test_every_entry_validates(self):
        for name in CATALOG:
            runner.validate_config(get_config(name))


class TestDeterminism:
    def test_rerun_reproduces_report(self):
        cfg = get_config("bernoulli-cocycle")
        cfg["operation"]["cases"] = 50
        one = runner.run(cfg)
        two = runner.run(cfg)
        one.pop("wall_time_s"), two.pop("wall_time_s")
        assert render_report(one) == render_report(two)

    def test_seed_override_changes_monte_carlo(self):
        cfg = {
            "schema": "v1",
            "seed": "1",
            "system": {"type": "poisson", "ground": "translation", "step": 1},
            "operation": {
                "name": "variance_decay",
                "region": list(range(2)),
                "k": 0,
                "blocks": [4],
                "runs": 300,
            },
        }
        a = runner.run(cfg)
        b = runner.run(cfg, seed_override=2)
        assert a["results"]["means"] != b["results"]["means"]


class TestOperations:
    def test_markov_coupling_config_matches_module(self):
        report = runner.run(get_config("markov-coupling"))
        res = report["results"]
        assert res["pairs"] == 25
        assert res["weak_ok_all"] and res["bijective_all"] and res["pushforward_all"]

    def test_event_probability_op(self):
        cfg = {
            "schema": "v1",
            "seed": "3",
            "system": {"type": "poisson", "ground": "translation", "step": 1},
            "operation": {"name": "event_probability", "constraints": [[["0"], "0"]]},
        }
        value = runner.run(cfg)["results"]["value"]
        assert value == pytest.approx(math.exp(-1), abs=1e-14)

    def test_null_subsequence_op(self):
        cfg = {
            "schema": "v1",
            "seed": "3",
            "system": {"type": "poisson", "ground": "translation", "step": 1},
            "operation": {
                "name": "find_null_subsequence",
                "regions": [[str(p) for p in range(10)]],
                "count": 3,
                "horizon": 100,
            },
        }
        assert runner.run(cfg)["results"]["times"] == [10, 20, 30]

    def test_zd_ops(self):
        cfg = {
            "schema": "v1",
            "seed": "3",
            "system": {"type": "zd", "kind": "alternating", "dimension": 2, "axis": 1},
            "operation": {"name": "kakutani_generator", "axis": 1, "horizon": 8},
        }
        assert runner.run(cfg)["results"]["verdict"] == "divergent_certified"

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_box_average_default_is_the_origin_letter(self, dimension):
        window = {",".join(["1"] * dimension): ["3/4", "1/4"]}
        system = dict(ZD, kind="compact", dimension=dimension, window=window)
        op = {"name": "box_ratio_average", "n_max": 3}
        origin = {",".join(["0"] * dimension): 1}
        explicit = dict(op, f=[{"coef": "1", "pattern": origin}])
        results = [runner.run(config_on(system, o))["results"] for o in (op, explicit)]
        assert results[0] == results[1]


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "poisson-mixing-gap" in out and "markov-coupling" in out

    def test_run_experiment_to_stdout(self, capsys):
        assert cli.main(["--experiment", "bernoulli-kakutani"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["verdict"] == "divergent_certified"
        assert report["experiment"] == "bernoulli-kakutani"

    def test_config_file_with_output_dir(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        out_dir = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["results"]["value"] == 0.0

    def test_csv_series_written(self, tmp_path):
        cfg = {
            "schema": "v1",
            "seed": "5",
            "system": {
                "type": "bernoulli",
                "kind": "compact",
                "base": ["1/2", "1/2"],
                "window": {"0": ["3/4", "1/4"]},
            },
            "operation": {"name": "conservativity_probe", "horizon": 64},
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = cli.main(
            ["--config", str(cfg_path), "--out", str(out_dir), "--format", "csv"]
        )
        assert code == 0
        csv_text = (out_dir / "partial_sums.csv").read_text()
        assert csv_text.splitlines()[0] == "n,value,error_bound"
        assert len(csv_text.splitlines()) > 3

    def test_invalid_config_exit_2_and_no_output(self, tmp_path):
        cfg = minimal_config()
        cfg["system"] = {"type": "bernoulli", "kind": "iid", "base": ["-1/2", "3/2"]}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out_dir)]) == 2
        assert not (out_dir / "report.json").exists()

    def test_unreadable_config_exit_4(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.json")]) == 4

    @pytest.mark.parametrize("cfg, says", CERTIFIED_FAILURES.values(), ids=list(CERTIFIED_FAILURES))
    def test_certified_failure_exit_3(self, tmp_path, capsys, cfg, says):
        code, err = self.cli_error(tmp_path, capsys, cfg)
        assert code == 3
        assert says in err

    @pytest.mark.parametrize(
        "operation",
        [
            {"name": "dual_series", "horizon": 16},
            {"name": "maximal_inequality", "t": "1/2", "runs": 200, "horizon": 8},
        ],
        ids=lambda op: op["name"],
    )
    def test_large_mean_ground_runs(self, tmp_path, capsys, operation):
        # a mean above the split threshold is drawn by additivity in every
        # operation; N = 60 has probability about 0.05
        system = {"type": "poisson", "ground": "weighted", "weights": {"0": "60"}}
        cfg = config_on(system, dict(operation, f=[{"constraints": [[[0], 60]]}]))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert all(math.isfinite(x) for x in _floats(results))
        if operation["name"] == "maximal_inequality":
            assert 0 < results["empirical_tail"] <= results["bound"] + 3 * results["mc_sigma"]

    def test_unknown_experiment_exit_2(self):
        assert cli.main(["--experiment", "not-a-thing"]) == 2

    def cli_error(self, tmp_path, capsys, cfg):
        """The exit code and the one stderr line of a CLI run on ``cfg``."""
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        return code, captured.err

    def run_config(self, tmp_path, capsys, cfg):
        return self.cli_error(tmp_path, capsys, cfg)[0]

    @pytest.mark.parametrize("cfg, says", REJECTED.values(), ids=list(REJECTED))
    def test_rejected_config_exit_2(self, tmp_path, capsys, cfg, says):
        code, err = self.cli_error(tmp_path, capsys, cfg)
        assert code == 2
        assert says in err

    @pytest.mark.parametrize("name", [name for name in REJECTED if name.endswith("block-over-cap")])
    def test_block_over_cap_refused_before_drawing(self, name):
        cfg, says = REJECTED[name]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(says.removeprefix("invalid input: "))):
                runner.run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_window_free_markov_cylinder_far_right(self, tmp_path, capsys):
        cfg = config_on(GOLDEN_MEAN, {"name": "cylinder_measure", "word": [1, 2], "left": 10**9})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["value"] == "1/5"

    @pytest.mark.parametrize("name", list(runner._HANDLERS))
    def test_unknown_operation_key_exit_2(self, tmp_path, capsys, name):
        system = SYSTEMS[next(iter(runner._HANDLERS[name]))]
        cfg = config_on(system, {"name": name, "horzion": 100})
        code, err = self.cli_error(tmp_path, capsys, cfg)
        assert code == 2
        assert err == f"invalid config: operation {name} has unknown key horzion\n"

    def test_singular_family_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(operation={"name": "rn_derivative", "n": "3"})
        cfg["system"] = {
            "type": "bernoulli",
            "kind": "periodic",
            "sites": [["3/4", "1/4"], ["1/4", "3/4"]],
        }
        assert self.run_config(tmp_path, capsys, cfg) == 2

    @each_vacuous_count
    def test_vacuous_count_exit_2(
        self, tmp_path, capsys, system, op, key, value, low, checked, says
    ):
        cfg = config_on(system, dict(op, **{key: value}))
        code, err = self.cli_error(tmp_path, capsys, cfg)
        assert code == 2
        assert err == f"invalid config: operation {op['name']}: {says}\n"

    @each_vacuous_count
    @pytest.mark.filterwarnings("error")
    def test_smallest_count_checks_something(self, system, op, key, value, low, checked, says):
        results = runner.run(config_on(system, dict(op, **{key: low})))["results"]
        assert all(math.isfinite(x) for x in _floats(results))
        assert checked is None or checked(results) >= 1

    def test_bad_tolerance_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(operation={"name": "cocycle_fuzz", "cases": 3, "tol": "abc"})
        assert self.run_config(tmp_path, capsys, cfg) == 2

    @pytest.mark.parametrize(
        "system, op, key",
        MISSING_KEY_CASES,
        ids=[f"{op['name']}-{key}" for _, op, key in MISSING_KEY_CASES],
    )
    def test_missing_required_key_exit_2(self, tmp_path, capsys, system, op, key):
        cfg = minimal_config(system=system, operation=op)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid config: operation {op['name']} needs key {key}\n"

    @pytest.mark.parametrize(
        "system, op",
        [
            (dict(BERNOULLI, window={"0": ["3/4", "1/4"]}), "kakutani_sum"),
            (
                {
                    "type": "zd",
                    "kind": "iid",
                    "base": ["1/2", "1/2"],
                    "window": {"0,0": ["3/4", "1/4"]},
                },
                "kakutani_generator",
            ),
        ],
        ids=["bernoulli", "zd"],
    )
    def test_iid_with_window_exit_2(self, tmp_path, capsys, system, op):
        cfg = minimal_config(system=system, operation={"name": op})
        assert self.run_config(tmp_path, capsys, cfg) == 2

    @pytest.mark.parametrize(
        "error, code",
        [
            (ToleranceError, 3),
            (RangeCapError, 3),
            (CertifiedFailure, 3),
            (NonSingularError, 2),
            (ValueError, 2),
        ],
    )
    def test_library_errors_map_to_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(config, seed_override=None):
            raise error("boom")

        monkeypatch.setattr(cli, "run", fail)
        assert self.run_config(tmp_path, capsys, minimal_config()) == code

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ergolab.cli", "--list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "determinism-audit" in proc.stdout


#: keys whose size an operation's work grows with
SIZE_KEYS = {"runs", "horizon", "blocks", "times", "radius_max", "n_max", "cases", "points"}
#: operations with a size key whose work does not grow with it: a Kakutani
#: generator sum and a uniformity constant read the family's window or
#: period, whatever the horizon
FLAT_IN_KEYS = {"uniformity_constant", "kakutani_generator"}
CAP = runner.RANGE_CAP
ZD1 = dict(ZD, dimension=1)
FULL_3_SHIFT = dict(MARKOV, sft=[[1] * 3] * 3, transition=[["1/3"] * 3] * 3)
COMPACT = dict(BERNOULLI, kind="compact", window={"0": ["3/4", "1/4"]})
MAX_TERM = {"f": LETTER, "t": "1"}

#: operation -> [(system, keys at the largest accepted size, cells there,
#: keys one step past it, cells there)]: the cap itself where the cost can
#: reach it, else the two sizes on either side of it
BOUNDARIES = {
    # a summable walk past its cutoff: (horizon + 1)^2 x the 64-bit words of
    # r's denominator, one word for 10^6 and two for 2^65 + 1
    "kakutani_sum": [
        (BERNOULLI, {"horizon": CAP}, CAP, {"horizon": CAP + 1}, CAP + 1),
        (SUMMABLE_FAR, {"horizon": 4095}, CAP, {"horizon": 4096}, 4097**2),
        (dict(SUMMABLE, r=f"{2**65 - 2**21 + 1}/{2**65 + 1}"), {"horizon": 2895}, 2896**2 * 2,
         {"horizon": 2896}, 2897**2 * 2),
    ],
    "cocycle_fuzz": [(BERNOULLI, {"cases": CAP}, CAP, {"cases": CAP + 1}, CAP + 1)],
    "zd_cocycle_fuzz": [(ZD, {"cases": CAP}, CAP, {"cases": CAP + 1}, CAP + 1)],
    "mixing_gap_fuzz": [
        (POISSON, {"cases": 2**23, "points": 1}, CAP, {"cases": 2**23 + 1, "points": 1}, CAP + 2),
        (POISSON, {"cases": 1, "points": CAP - 1}, CAP, {"cases": 1, "points": CAP}, CAP + 1),
    ],
    "conservativity_probe": [
        (COMPACT, {"horizon": CAP}, CAP, {"horizon": CAP + 1}, CAP + 1)
    ],
    **{
        name: [
            (BERNOULLI, {"horizon": CAP}, CAP, {"horizon": CAP + 1}, CAP + 1),
            (POISSON, {"horizon": CAP}, CAP, {"horizon": CAP + 1}, CAP + 1),
        ]
        for name in ("birkhoff_series", "dual_series", "ratio_series")
    },
    # 2^24 + 1 = 97 x 172961
    "maximal_inequality": [
        (system, {**MAX_TERM, "f": f, "runs": 4096, "horizon": 4096}, CAP,
         {**MAX_TERM, "f": f, "runs": 97, "horizon": 172961}, CAP + 1)
        for system, f in ((BERNOULLI, LETTER), (POISSON, EVENT_F))
    ],
    "two_subsequence_probe": [
        (system, {"f": f, "runs": 4096, "blocks": [8, 4096]}, CAP,
         {"f": f, "runs": 97, "blocks": [172961]}, CAP + 1)
        for system, f in ((BERNOULLI, LETTER), (POISSON, EVENT_F))
    ],
    "banach_density": [(POISSON, {"horizon": CAP}, CAP, {"horizon": CAP + 1}, CAP + 1)],
    "variance_decay": [
        (POISSON, {"runs": 4096, "blocks": [4096]}, CAP,
         {"runs": 97, "blocks": [172961]}, CAP + 1)
    ],
    # runs x times x the region points of f and g: one point each, then a
    # three-point f
    "weak_mixing_probe": [
        (POISSON, {"f": EVENT_F, "g": EVENT_F, "times": [1], "runs": CAP // 2}, CAP,
         {"f": EVENT_F, "g": EVENT_F, "times": [1], "runs": CAP // 2 + 1}, CAP + 2),
        (POISSON, {"f": EVENT_F3, "g": EVENT_F, "times": [1, 2], "runs": CAP // 8}, CAP,
         {"f": EVENT_F3, "g": EVENT_F, "times": [1, 2], "runs": CAP // 8 + 1}, CAP + 8),
    ],
    # 2 (2 n_max + 1) pairs at radius 0, 10 (2 n_max + 1) up to radius 1
    "homoclinic_scan": [
        (BERNOULLI, {"radius_max": 0, "n_max": 2**22 - 1}, CAP - 2,
         {"radius_max": 0, "n_max": 2**22}, CAP + 2),
        (BERNOULLI, {"radius_max": 1, "n_max": 838860}, CAP - 6,
         {"radius_max": 1, "n_max": 838861}, CAP + 14),
    ],
    # words(2n + 1) x (2n + 1 + 2N) x |S|^2: the golden mean (N = 2) takes
    # n = 11 and refuses n = 12, the full 3-shift (N = 1) takes n = 4
    "coupling_scan": [
        (GOLDEN_MEAN, {"n": 11}, 75025 * 27 * 4, {"n": 12}, (CAP // 116 + 1) * 116),
        (FULL_3_SHIFT, {"n": 4}, 3**9 * 11 * 9, {"n": 5}, (CAP // 117 + 1) * 117),
    ],
    "find_null_subsequence": [
        (POISSON, {"regions": [[0]], "horizon": CAP // 2}, CAP,
         {"regions": [], "horizon": CAP + 1}, CAP + 1),
    ],
    # (2 n_max + 1)^d is odd, so the cap itself is out of reach
    "box_ratio_average": [
        (ZD1, {"n_max": 2**23 - 1}, CAP - 1, {"n_max": 2**23}, CAP + 1),
        (ZD, {"n_max": 2047}, 4095**2, {"n_max": 2048}, 4097**2),
    ],
}


def _cost(system, name, keys):
    """The declared cost of a config, read without running its handler."""
    cfg = config_on(system, {"name": name, **keys})
    _, _, parsed, cost = runner.validate_config(cfg)
    return cost(runner.build_system(system), **parsed)


class TestSizeBudget:
    def test_every_sized_operation_declares_a_cost(self):
        for name, entries in runner._HANDLERS.items():
            for keys, _, cost in entries.values():
                if name in FLAT_IN_KEYS:
                    assert cost is runner._flat, name
                elif SIZE_KEYS & set(keys) or name in ("coupling_scan", "find_null_subsequence"):
                    assert cost is not runner._flat, name

    def test_every_declared_cost_has_its_boundary(self):
        costed = {
            name
            for name, entries in runner._HANDLERS.items()
            for _, _, cost in entries.values()
            if cost is not runner._flat
        }
        assert costed == set(BOUNDARIES)

    @pytest.mark.parametrize(
        "name, system, low, low_cells, high, high_cells",
        [(name, *case) for name, cases in BOUNDARIES.items() for case in cases],
    )
    def test_cost_at_the_cap(self, name, system, low, low_cells, high, high_cells):
        assert low_cells <= CAP < high_cells
        assert _cost(system, name, low)[1] == low_cells
        what, cells = _cost(system, name, high)
        assert cells == high_cells
        with pytest.raises(
            ConfigError, match=re.escape(f"operation {name}: {what} = {cells} cells exceeds the cap")
        ):
            runner.run(config_on(system, {"name": name, **high}))

    def test_summable_kakutani_walks_to_its_cutoff(self):
        # c = 1/10, r = 1/2: sites past 52 are the fair coin's, so any
        # horizon walks 53 sites
        assert _cost(SUMMABLE, "kakutani_sum", {"horizon": 10**30})[1] == 53**2
        assert _cost(SUMMABLE, "kakutani_sum", {"horizon": 40})[1] == 41**2

    def test_workload_and_catalog_sizes_stay_accepted(self):
        # the largest fuzzes the benchmark and the catalog run, and the
        # summable walk that takes about 0.3 s
        for system, keys in (
            (BERNOULLI, {"name": "cocycle_fuzz", "cases": 1000, "span": 8}),
            (ZD, {"name": "zd_cocycle_fuzz", "cases": 500, "span": 4}),
            (POISSON, {"name": "mixing_gap_fuzz", "cases": 500, "points": 8}),
            (SUMMABLE_FAR, {"name": "kakutani_sum", "horizon": 4000}),
        ):
            assert _cost(system, keys.pop("name"), keys)[1] <= CAP

    def test_flat_costs_take_any_size(self):
        for system, name in ((BERNOULLI, "uniformity_constant"), (ZD, "kakutani_generator")):
            assert _cost(system, name, {"horizon": 10**30}) == ("cells", 0)

    def test_tail_probe_over_the_cap_ends(self, tmp_path):
        cfg, says = CERTIFIED_FAILURES["tail-probe-words-over-cap"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "ergolab.cli", "--config", str(path)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stderr == says + "\n"
