import json
import math
import subprocess
import sys

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


def minimal_config(**overrides):
    config = {
        "schema": "v1",
        "seed": "7",
        "system": {"type": "bernoulli", "kind": "iid", "base": ["1/2", "1/2"]},
        "operation": {"name": "kakutani_sum", "horizon": 10},
    }
    config.update(overrides)
    return config


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

    def test_unknown_experiment_exit_2(self):
        assert cli.main(["--experiment", "not-a-thing"]) == 2

    def run_config(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        return code

    def test_singular_family_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(operation={"name": "rn_derivative", "n": "3"})
        cfg["system"] = {
            "type": "bernoulli",
            "kind": "periodic",
            "sites": [["3/4", "1/4"], ["1/4", "3/4"]],
        }
        assert self.run_config(tmp_path, capsys, cfg) == 2

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
