"""ergolab benchmark: one workload run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suspension-mc --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Lines before the
last one record the machine and what the run saw (passes, failures, the
coverage map); the last line is the result object.  The program runs from
the checkout's ``src`` in child processes, single-threaded BLAS, so nothing
needs to be built or installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
#: fresh-process set-up probes per untraced run, spread between its passes
SETUP_PROBES = 25
#: a run must end within this many seconds
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(extra: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker to completion; a timeout kills it and waits for it."""
    return subprocess.run(
        [sys.executable, str(WORKER), *extra],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )


def setup_probe(args, deadline: float) -> float:
    """Wall time of a fresh process that imports ergolab.runner and
    generates the workload's configs."""
    start = time.perf_counter()
    run_worker(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"], deadline)
    return time.perf_counter() - start


def run_with_probes(extra: list[str], args, deadline: float) -> tuple[str, float]:
    """Run the untraced worker.  While it waits after a pass, time set-up
    probes until their number keeps pace with the share of the run gone, so
    that they spread over the whole run.  The worker's stderr passes
    through.  Returns its last line and the median probe."""
    probes: list[float] = []
    with subprocess.Popen(
        [sys.executable, str(WORKER), *extra],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            last = ""
            for line in proc.stdout:
                if not line.startswith("pause "):
                    last = line
                    continue
                share = float(line.split()[1])
                while len(probes) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
                    probes.append(setup_probe(args, deadline))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if time.monotonic() >= deadline:
        raise subprocess.TimeoutExpired(proc.args, BUDGET_S)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args, deadline))
    return last, statistics.median(probes)


def main() -> int:
    parser = argparse.ArgumentParser(description="ergolab benchmark, one workload run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "ergolab" / "runner.py").is_file():
        print(f"no ergolab sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    extra = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        if args.trace:
            setup, last = None, run_worker(extra, deadline).stdout.strip().splitlines()[-1]
        else:
            last, setup = run_with_probes(extra, args, deadline)
    except subprocess.CalledProcessError as exc:
        if exc.stderr:
            print(exc.stderr, file=sys.stderr)
        print(f"worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {BUDGET_S:.0f} s", file=sys.stderr)
        return 1

    result = json.loads(last)
    measured = dict(result["metrics"])
    if setup is not None:
        measured["setup_s"] = setup
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"worker did not measure {missing}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    extra = {k: v for k, v in measured.items() if k not in {m["name"] for m in wanted}}
    if extra:
        print("other " + json.dumps(extra, sort_keys=True))
    for note in result["notes"]:
        print("failure " + note)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
