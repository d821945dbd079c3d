"""One workload run in a fresh process; prints one JSON line of measurements.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --record-digests

The client is a closed loop: each config goes through ``runner.run`` and
``reporting.render_report`` and the next is sent only when the report is
back.  Untraced passes over the whole config list repeat until ``--seconds``
have passed (and at least enough passes for 100 latency samples).  With
``--trace 0`` the worker stops after each pass: it prints
``pause <share of --seconds gone>`` and waits for a line on stdin, so that
``run.py`` can time set-up probes while it is idle.  With ``--trace 1``
half the time goes to untraced passes, then one pass runs under the
tracer, one more untraced pass follows, then the kernel table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from ergolab import reporting, runner

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
REFERENCE_SEED = 0
MIN_SAMPLES = 100

_WALL_TIME = re.compile(r',\n  "wall_time_s": [^\n]*')


def report_digest(text: str) -> str:
    """sha256 of a rendered report without its ``wall_time_s`` line."""
    return hashlib.sha256(_WALL_TIME.sub("", text).encode()).hexdigest()


def run_pass(configs) -> dict:
    """One pass over the config list: latency, digest and failures per report."""
    latencies, digests, checks, errors, bad = [], [], [], [], set()
    start = time.perf_counter()
    for cfg in configs:
        sent = time.perf_counter()
        try:
            report = runner.run(cfg)
            text = reporting.render_report(report)
        except Exception as exc:  # a report that raises is a failed report
            latencies.append(time.perf_counter() - sent)
            digests.append(None)
            checks.append(0)
            bad.add(len(digests) - 1)
            errors.append(f"{cfg['name']}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - sent)
        digests.append(report_digest(text))
        checks.append(workloads.certified_checks(cfg, report["results"]))
        for verdict in workloads.failed_verdicts(report["results"]):
            bad.add(len(digests) - 1)
            errors.append(f"{cfg['name']}: certified verdict {verdict} is false")
    return {
        "wall": time.perf_counter() - start,
        "latencies": latencies,
        "digests": digests,
        "checks": checks,
        "errors": errors,
        "bad": bad,
    }


def _failed_reports(passes, configs, reference) -> tuple[int, list[str]]:
    """Failed reports over all passes: raised, certified verdict false, digest
    other than the stored one, or other than the first pass's."""
    failed, notes = 0, []
    first = passes[0]["digests"]
    for p in passes:
        bad = set(p["bad"])
        for i, digest in enumerate(p["digests"]):
            name = configs[i]["name"]
            if reference is not None and digest != reference[i]:
                bad.add(i)
                notes.append(f"{name}: digest differs from the stored reference")
            elif digest != first[i]:
                bad.add(i)
                notes.append(f"{name}: digest differs from the first untraced pass")
        failed += len(bad)
        notes.extend(p["errors"])
    return failed, notes


def percentile(samples, q: float) -> tuple[float, float]:
    """Nearest-rank ``q`` quantile, lowered until at least 10 samples lie
    beyond it; returns (value, quantile used)."""
    ordered = sorted(samples)
    n = len(ordered)
    while q > 0.5 and n - math.ceil(q * n) < 10:
        q = round(q - 0.01, 2)
    return ordered[max(math.ceil(q * n), 1) - 1], q


def rates(passes, configs) -> dict[str, float]:
    """Monte Carlo steps and certified checks per second of report latency."""
    steps = [workloads.mc_steps(cfg) for cfg in configs]
    mc_work = mc_time = check_work = check_time = 0.0
    for p in passes:
        for i, latency in enumerate(p["latencies"]):
            if steps[i]:
                mc_work += steps[i]
                mc_time += latency
            if p["checks"][i]:
                check_work += p["checks"][i]
                check_time += latency
    return {
        "mc_steps_per_s": mc_work / mc_time if mc_time else 0.0,
        "certified_checks_per_s": check_work / check_time if check_time else 0.0,
    }


def measure(configs, seconds: float, pause: bool = False) -> list[dict]:
    """Untraced passes until ``seconds`` have passed and there are enough
    latency samples for a 90th percentile with 10 samples beyond it.  With
    ``pause``, wait for a line on stdin after each pass; the wait counts
    towards ``seconds``."""
    min_passes = math.ceil(MIN_SAMPLES / len(configs))
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(configs))
        if pause:
            print(f"pause {(time.perf_counter() - start) / seconds:.4f}", flush=True)
            if not sys.stdin.readline():
                raise SystemExit("stdin closed while paused")
    return passes


def machine() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jsonschema": version("jsonschema"),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def pass_digest(digests) -> str:
    return hashlib.sha256("".join(map(str, digests)).encode()).hexdigest()


def _reference(args):
    """The stored report digests, when the run is at the reference seed."""
    if args.seed != REFERENCE_SEED:
        return None
    return json.loads(DIGESTS.read_text())[args.workload]["reports"]


def untraced(configs, args) -> dict:
    passes = measure(configs, args.seconds, pause=True)
    failed, notes = _failed_reports(passes, configs, _reference(args))
    latencies = [x for p in passes for x in p["latencies"]]
    p50, _ = percentile(latencies, 0.5)
    p90, q = percentile(latencies, 0.9)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": len(latencies),
        "failed": failed,
        "notes": notes[:20],
        "metrics": {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "report_p50_s": p50,
            "report_p90_s": p90,
            "peak_rss_mb": rss_mb,
            **rates(passes, configs),
        },
        "info": {
            "passes": len(passes),
            "reports_per_pass": len(configs),
            "latency_samples": len(latencies),
            "report_p90_s_quantile": q,
            "failed_ratio": failed / len(latencies),
            "digest": pass_digest(passes[0]["digests"]),
        },
    }


def traced(configs, args) -> dict:
    import kernels
    from tracer import Tracer, layer_metrics, layer_shares

    untraced_passes = measure(configs, args.seconds / 2)
    tracer = Tracer()
    with tracer:
        traced_pass = run_pass(configs)
    # one more untraced pass, so the traced one is compared with its neighbours
    untraced_passes.append(run_pass(configs))
    passes = untraced_passes + [traced_pass]
    failed, notes = _failed_reports(passes, configs, _reference(args))
    summary = tracer.summary()
    metrics = layer_metrics(summary, traced_pass["wall"])
    neighbours = (untraced_passes[-2]["wall"] + untraced_passes[-1]["wall"]) / 2
    metrics["trace.overhead_s"] = traced_pass["wall"] - neighbours
    metrics.update({f"untraced.{k}": v for k, v in rates(untraced_passes, configs).items()})
    metrics.update(kernels.kernel_table())
    return {
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": failed,
        "notes": notes[:20],
        "metrics": metrics,
        "info": {
            "untraced_passes": len(untraced_passes),
            "spans": len(tracer.spans),
            "layer_self_share": {
                k: round(v, 4) for k, v in layer_shares(summary, traced_pass["wall"]).items()
            },
            "coverage": {k: n for k, n in sorted(summary["calls"].items()) if n},
            "operations_not_run": workloads.unused_operations(runner),
        },
    }


def record_digests() -> None:
    """Write the reference digests: one pass of each workload at the
    reference seed."""
    out = {}
    for workload in workloads.WORKLOADS:
        p = run_pass(workloads.generate(workload, REFERENCE_SEED))
        if p["errors"]:
            raise SystemExit(f"{workload}: {p['errors']}")
        out[workload] = {
            "seed": REFERENCE_SEED,
            "digest": pass_digest(p["digests"]),
            "reports": p["digests"],
        }
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return
    if args.workload is None:
        parser.error("--workload is required")

    configs = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        return
    result = (traced if args.trace else untraced)(configs, args)
    result["machine"] = machine()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
