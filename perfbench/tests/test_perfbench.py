"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The subprocess tests run every workload once traced and once untraced at
the reference seed, full size but with the shortest run allowed (the
minimum number of passes), which takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import kernels  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import REFERENCE_SEED, percentile, report_digest  # noqa: E402

from ergolab import poisson, reporting, runner, shift_core  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(configs) -> list[str]:
    return [report_digest(reporting.render_report(runner.run(cfg))) for cfg in configs]


def test_tracer_keeps_reports_identical_and_restores_every_name():
    configs = [
        cfg
        for name in workloads.WORKLOADS
        for cfg in workloads.generate(name, 3)[:4]
    ]
    before = _digests(configs)
    tracer = Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]
    assert len(originals) > 50
    with tracer:
        assert all(vars(owner)[attr] is not obj for owner, attr, obj in originals)
        traced = _digests(configs)
    after = _digests(configs)
    assert before == traced == after
    assert all(vars(owner)[attr] is obj for owner, attr, obj in originals)
    assert tracer.spans


def test_wrappers_sit_where_callers_look_names_up():
    sites = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in Tracer().targets()}
    assert ("ergolab.shift_core", "uniform01") in sites
    assert ("ergolab.poisson", "uniform01_grid") in sites
    assert ("ergolab.runner", "uniform01") in sites
    assert ("ergolab.markov_sft", "markov_cylinder_measure") in sites
    assert ("LazyTail", "symbol") in sites


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 201))
    assert percentile(samples, 0.9) == (180, 0.9)
    value, q = percentile(list(range(1, 51)), 0.9)
    assert q == 0.8 and value == 40


def test_workload_lists_are_seeded_and_sized_for_clean_percentiles():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 11)
        assert first == workloads.generate(name, 11)
        assert first != workloads.generate(name, 12)
        assert len(first) % 10 == 5
    assert "banach_density" in workloads.unused_operations(runner)
    assert "variance_decay" not in workloads.unused_operations(runner)


def test_a_function_read_by_the_metrics_that_is_gone_fails(monkeypatch):
    monkeypatch.delattr(poisson, "indicator_grid")
    with Tracer() as tracer:
        pass
    with pytest.raises(KeyError, match="indicator_grid"):
        layer_metrics(tracer.summary(), 1.0)


def test_a_traced_method_or_work_function_that_is_gone_fails(monkeypatch):
    with monkeypatch.context() as m:
        m.delattr(shift_core.LazyTail, "symbol")
        with pytest.raises(AttributeError, match="symbol"):
            Tracer().install()
    monkeypatch.delattr(poisson, "sample_count_grid")
    with pytest.raises(AttributeError, match="sample_count_grid"):
        Tracer().install()


def test_a_failing_work_rule_fails(monkeypatch):
    monkeypatch.setitem(tracer_module.WORK, "reporting.render_report", lambda a, k, r: r.size)
    report = runner.run(workloads.generate("exact-certificates", 3)[0])
    tracer = Tracer()
    tracer.install()
    reporting.render_report(report)
    with pytest.raises(RuntimeError, match="render_report"):
        tracer.uninstall()


def test_a_kernel_whose_call_is_gone_fails(monkeypatch):
    name = "kernel.event_probability_29_29_ms"
    monkeypatch.setattr(kernels, "KERNELS", {name: kernels.KERNELS[name]})
    assert kernels.kernel_table()[name] > 0
    monkeypatch.delattr(poisson, "event_probability")
    with pytest.raises(AttributeError):
        kernels.kernel_table()


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(REFERENCE_SEED), "--seconds", "0.1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def short_runs():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_metric_is_emitted_with_its_unit(short_runs):
    for (workload, trace), result in short_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }, workload


#: a count per layer: (workloads where it is non-zero, workloads where it is 0)
SEPARATION = {
    "seeding.grid_keys": (("suspension-mc", "cocycle-paths"), ("exact-certificates",)),
    "seeding.scalar_keys": (("cocycle-paths",), ()),
    "shift_core.symbol_calls": (("cocycle-paths",), ("suspension-mc", "exact-certificates")),
    "bernoulli.rn_calls": (("cocycle-paths",), ("suspension-mc", "exact-certificates")),
    "markov_sft.cylinder_masses": (("exact-certificates",), ("suspension-mc", "cocycle-paths")),
    "poisson.grid_cells": (("suspension-mc",), ("exact-certificates", "cocycle-paths")),
    "poisson.null_candidates": (("exact-certificates",), ("suspension-mc", "cocycle-paths")),
    "averages.mc_runs": (("suspension-mc", "cocycle-paths"), ("exact-certificates",)),
    "lattice.box_cells": (("cocycle-paths",), ("suspension-mc", "exact-certificates")),
    "runner.reports": (workloads.WORKLOADS, ()),
    "reporting.bytes": (workloads.WORKLOADS, ()),
}


def test_layers_separate_between_workloads(short_runs):
    def metric(workload, name):
        return short_runs[workload, 1]["metrics"][name]["value"]

    for name, (busy, idle) in SEPARATION.items():
        assert all(metric(w, name) > 0 for w in busy), name
        assert all(metric(w, name) == 0 for w in idle), name
    for workload in workloads.WORKLOADS:
        assert metric(workload, "trace.covered_share") >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("suspension-mc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_renaming_a_traced_function_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for path in (tmp_path / "src" / "ergolab").glob("*.py"):
        text = path.read_text()
        path.write_text(re.sub(r"\bevent_probability\(", "event_mass(", text))
    proc = _run("exact-certificates", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "poisson.event_probability" in proc.stderr
