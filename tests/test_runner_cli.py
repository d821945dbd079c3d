import json
import math
import re
import subprocess
import sys
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
LETTER = [{"coef": "1", "word": [1], "left": 0}]

#: config -> the words its one stderr line must hold; every one exits 2
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
    # a batched Bernoulli probe over RANGE_CAP cells ran out of memory
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

EVENT_F = [{"constraints": [[[0], 1]]}]


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
            keys = [declared(keys) for keys, _ in entries.values()]
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

    def test_certified_failure_exit_3(self, tmp_path):
        cfg = {
            "schema": "v1",
            "seed": "3",
            "system": {"type": "poisson", "ground": "cycle", "length": 4},
            "operation": {
                "name": "find_null_subsequence",
                "regions": [["0", "1"]],
                "count": 2,
                "horizon": 20,
            },
        }
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == 3

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
