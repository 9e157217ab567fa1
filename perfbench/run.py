"""Benchmark of the epsgrass library: co-module certification, Grassmann
identity tests and trace normal forms.

    python3 perfbench/run.py --workload comodule --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-check

A run starts worker processes one at a time (``worker.py``) until
``--seconds`` have passed and at least ``MIN_WORKERS`` have finished.  Each
worker sets up, runs the workload's query list once from empty caches
(cold), runs it again a fixed number of times (warm), and checks every
answer.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, timings scaled to the host's reference speed (see
``worker.py``); with ``--trace 1`` the workers trace each layer and the
run reports the per-layer metrics.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("comodule", "identities", "trace")
MIN_WORKERS = {False: 3, True: 2}  # untraced, traced
RUN_LIMIT_S = 170  # a run must end well within three minutes

# one thread per worker, and the same hash seed in every worker
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start_worker(workload: str, seed: int, trace: bool, timeout: float, tiny: bool = False) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if tiny:
        argv.append("--tiny")
    env = dict(os.environ, **WORKER_ENV)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"a {workload} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"a {workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = perf_counter()
    results: list[dict] = []
    while len(results) < MIN_WORKERS[trace] or perf_counter() - start < seconds:
        remaining = RUN_LIMIT_S - (perf_counter() - start)
        if remaining <= 0:
            raise RunError(f"the run did not finish within {RUN_LIMIT_S} s")
        results.append(start_worker(workload, seed, trace, remaining))
    return results


def timings(results: list[dict]) -> tuple[dict, dict]:
    """Scaled and measured samples of the timed end-to-end metrics."""
    scaled = {
        "setup_s": [r["setup_scaled_s"] for r in results],
        "cold_s": [r["cold_scaled_s"] for r in results],
        "warm_qps": [r["queries"] / t for r in results for t in r["warm_scaled_s"]],
    }
    measured = {
        "setup_s": [r["setup_s"] for r in results],
        "cold_s": [r["cold_s"] for r in results],
        "warm_qps": [r["queries"] / t for r in results for t in r["warm_s"]],
    }
    return scaled, measured


def summarize(workload: str, results: list[dict], trace: bool, metric_specs: list[dict]) -> tuple[dict, list[str]]:
    """Fold the workers' reports into the run's result and report lines."""
    problems = []  # anything besides failed queries that makes the run incorrect
    if len({r["digest"] for r in results}) != 1:
        problems.append("workers generated different inputs from the same seed")
    failures = [f"query {k}: {reason}" for r in results for k, reason in r["reasons"].items()]
    units = {m["name"]: m["unit"] for m in metric_specs}
    n_queries = results[0]["queries"]
    if trace:
        columns = {name: [r["layers"][name] for r in results] for name in units}
        measured = {}
    else:
        columns, measured = timings(results)
        columns["peak_rss_mb"] = [r["peak_rss_mb"] for r in results]
    values, how = {}, {}
    for name, column in columns.items():
        if trace and not name.endswith("_s"):
            # counts, and ratios of counts, must repeat exactly
            if len(set(column)) != 1:
                problems.append(f"{name} differs between workers: {column}")
            values[name] = column[0]
            how[name] = f"equal in {len(column)} workers"
        else:
            values[name] = statistics.median(column)
            how[name] = f"median of {len(column)} samples"
            if name in measured:
                how[name] += f", as measured {statistics.median(measured[name]):.6g}"
    lines = [
        f"{workload}: {len(results)} workers, {n_queries} queries,"
        f" {results[0]['passes']} passes each ({'traced' if trace else 'untraced'})"
    ]
    for name, unit in units.items():
        lines.append(f"  {name:30s} {values[name]:12.6g} {unit:6s} {how[name]}")
    lines.extend(f"  problem: {p}" for p in problems + failures)
    out = {
        "correct": not any(r["wrong"] for r in results) and not problems,
        "attempted": sum(r["queries"] * r["passes"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return out, lines


def write_output(workload: str, seed: int, trace: bool, results: list[dict]) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)


def measure(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    results = run_workers(workload, seed, seconds, trace)
    write_output(workload, seed, trace, results)
    out, lines = summarize(workload, results, trace, specs)
    for line in lines:
        print(line)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true", help="check the checks on tiny inputs")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epsgrass", "__init__.py")):
        print(f"error: no epsgrass sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        sys.path.insert(0, SRC)
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        ap.error("--workload is required")
    bench = spec()
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), bench)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = measure(workload, args.seed, args.seconds, trace, bench)
                    result["correct"] = result["correct"] and part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, metric in part["metrics"].items():
                        result["metrics"][f"{workload}/{name}"] = metric
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
